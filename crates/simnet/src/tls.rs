//! Simulated TLS certificates and verification.
//!
//! The crawl's fourth-largest failure class is certificate
//! misconfiguration (`CERT_CN_INVALID` in Table 1). We model just
//! enough of X.509 semantics to reproduce that taxonomy: a certificate
//! has a subject common name, optional subject-alternative names with
//! wildcard support, a validity flag, and an issuer-trust flag.

/// A simulated server certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Subject common name, possibly a wildcard (`*.example.com`).
    pub common_name: String,
    /// Subject alternative names, possibly wildcards.
    pub san: Vec<String>,
    /// False once the notAfter date has passed.
    pub in_validity_window: bool,
    /// False for self-signed / unknown-CA chains.
    pub trusted_chain: bool,
}

/// Result of verifying a certificate against a requested host name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertVerdict {
    /// The handshake may proceed.
    Ok,
    /// Name mismatch — Chrome's `ERR_CERT_COMMON_NAME_INVALID`.
    CommonNameInvalid,
    /// Expired or not yet valid — `ERR_CERT_DATE_INVALID`.
    DateInvalid,
    /// Untrusted chain — `ERR_CERT_AUTHORITY_INVALID`.
    AuthorityInvalid,
}

impl Certificate {
    /// A well-formed certificate for one exact host name.
    pub fn valid_for(host: &str) -> Certificate {
        Certificate {
            common_name: host.to_string(),
            san: vec![host.to_string()],
            in_validity_window: true,
            trusted_chain: true,
        }
    }

    /// A certificate whose names do not cover `actual_host` — produces
    /// `CERT_CN_INVALID` when a site serves the wrong vhost cert, the
    /// misconfiguration the paper observed.
    pub fn mismatched(cert_host: &str) -> Certificate {
        Certificate::valid_for(cert_host)
    }

    /// Verify against the requested host, most-severe-first in the
    /// order Chrome reports: dates, then chain, then names.
    pub fn verify(&self, host: &str) -> CertVerdict {
        if !self.in_validity_window {
            return CertVerdict::DateInvalid;
        }
        if !self.trusted_chain {
            return CertVerdict::AuthorityInvalid;
        }
        let host = host.to_ascii_lowercase();
        let covers = |pattern: &str| name_matches(&pattern.to_ascii_lowercase(), &host);
        if covers(&self.common_name) || self.san.iter().any(|s| covers(s)) {
            CertVerdict::Ok
        } else {
            CertVerdict::CommonNameInvalid
        }
    }
}

/// RFC 6125-style name matching: exact, or a single `*.` left-most
/// wildcard label that matches exactly one label.
fn name_matches(pattern: &str, host: &str) -> bool {
    if pattern == host {
        return true;
    }
    if let Some(suffix) = pattern.strip_prefix("*.") {
        if let Some(host_rest) = host.split_once('.').map(|(_, rest)| rest) {
            return host_rest == suffix;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_verifies() {
        let c = Certificate::valid_for("example.com");
        assert_eq!(c.verify("example.com"), CertVerdict::Ok);
        assert_eq!(c.verify("EXAMPLE.COM"), CertVerdict::Ok);
    }

    #[test]
    fn name_mismatch_is_cn_invalid() {
        let c = Certificate::mismatched("other.example");
        assert_eq!(c.verify("example.com"), CertVerdict::CommonNameInvalid);
    }

    #[test]
    fn wildcard_matches_one_label_only() {
        let c = Certificate {
            common_name: "*.example.com".into(),
            san: vec![],
            in_validity_window: true,
            trusted_chain: true,
        };
        assert_eq!(c.verify("www.example.com"), CertVerdict::Ok);
        assert_eq!(c.verify("a.b.example.com"), CertVerdict::CommonNameInvalid);
        assert_eq!(c.verify("example.com"), CertVerdict::CommonNameInvalid);
    }

    #[test]
    fn san_is_consulted() {
        let c = Certificate {
            common_name: "cdn.example".into(),
            san: vec!["example.com".into(), "*.example.com".into()],
            in_validity_window: true,
            trusted_chain: true,
        };
        assert_eq!(c.verify("example.com"), CertVerdict::Ok);
        assert_eq!(c.verify("api.example.com"), CertVerdict::Ok);
        assert_eq!(c.verify("elsewhere.org"), CertVerdict::CommonNameInvalid);
    }

    #[test]
    fn date_and_chain_take_precedence() {
        let mut c = Certificate::valid_for("example.com");
        c.in_validity_window = false;
        assert_eq!(c.verify("example.com"), CertVerdict::DateInvalid);
        c.in_validity_window = true;
        c.trusted_chain = false;
        assert_eq!(c.verify("example.com"), CertVerdict::AuthorityInvalid);
    }
}
