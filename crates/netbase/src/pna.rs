//! The WICG **Private Network Access** (PNA) proposal, §5.3.
//!
//! In March 2021 the WICG proposed restricting fetches from public
//! pages into more-private address spaces: such a request is allowed
//! only if (1) the initiating page was delivered over a secure channel
//! and (2) a CORS preflight carrying
//! `Access-Control-Request-Private-Network: true` succeeds, i.e. the
//! local service answers with `Access-Control-Allow-Private-Network:
//! true`. The paper argues this opt-in model would preserve the
//! legitimate native-application use case while blocking unintentional
//! exposure.
//!
//! This module implements the proposal's decision procedure so the
//! browser can enforce it and the analysis can answer the paper's
//! implicit question: *which of the observed traffic would PNA block?*

use crate::ip::Locality;
use crate::url::Url;

/// IP address space in the PNA sense, ordered public < private < local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AddressSpace {
    /// Globally routable.
    Public,
    /// RFC 1918 / unique-local (the LAN).
    Private,
    /// Loopback.
    Local,
}

impl AddressSpace {
    /// The PNA address space of a locality.
    pub fn of_locality(locality: Locality) -> AddressSpace {
        match locality {
            Locality::Loopback => AddressSpace::Local,
            Locality::Private | Locality::LinkLocal => AddressSpace::Private,
            _ => AddressSpace::Public,
        }
    }

    /// The PNA address space of a URL's host (syntactic).
    pub fn of_url(url: &Url) -> AddressSpace {
        AddressSpace::of_locality(url.locality())
    }

    /// True if `self` is more private than `other` (crossing in that
    /// direction is what PNA gates).
    pub fn more_private_than(self, other: AddressSpace) -> bool {
        self > other
    }
}

/// Outcome of a simulated PNA preflight: does the local service opt in?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreflightResult {
    /// The service answered `Access-Control-Allow-Private-Network: true`.
    Approved,
    /// The service answered without the header, or not at all.
    Denied,
}

/// The PNA verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PnaVerdict {
    /// Not a private-network request: PNA does not apply.
    NotApplicable,
    /// Allowed: secure context and an approving preflight.
    Allowed,
    /// Blocked: the initiating page was not delivered securely.
    BlockedInsecureContext,
    /// Blocked: the preflight was denied.
    BlockedPreflight,
}

impl PnaVerdict {
    /// True if the request may proceed.
    pub fn permits(self) -> bool {
        matches!(self, PnaVerdict::NotApplicable | PnaVerdict::Allowed)
    }
}

/// Decide a request under the PNA proposal.
///
/// * `page_space` — address space the document was loaded from;
/// * `page_secure` — whether the document came over https/wss;
/// * `target` — the request URL;
/// * `preflight` — how the target service answers the preflight.
pub fn decide(
    page_space: AddressSpace,
    page_secure: bool,
    target: &Url,
    preflight: PreflightResult,
) -> PnaVerdict {
    let target_space = AddressSpace::of_url(target);
    if !target_space.more_private_than(page_space) {
        return PnaVerdict::NotApplicable;
    }
    if !page_secure {
        return PnaVerdict::BlockedInsecureContext;
    }
    match preflight {
        PreflightResult::Approved => PnaVerdict::Allowed,
        PreflightResult::Denied => PnaVerdict::BlockedPreflight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn address_space_ordering() {
        assert!(AddressSpace::Local.more_private_than(AddressSpace::Private));
        assert!(AddressSpace::Private.more_private_than(AddressSpace::Public));
        assert!(AddressSpace::Local.more_private_than(AddressSpace::Public));
        assert!(!AddressSpace::Public.more_private_than(AddressSpace::Private));
        assert!(!AddressSpace::Private.more_private_than(AddressSpace::Private));
    }

    #[test]
    fn address_space_of_urls() {
        assert_eq!(
            AddressSpace::of_url(&url("http://localhost:4444/")),
            AddressSpace::Local
        );
        assert_eq!(
            AddressSpace::of_url(&url("http://127.0.0.1/")),
            AddressSpace::Local
        );
        assert_eq!(
            AddressSpace::of_url(&url("http://192.168.0.1/")),
            AddressSpace::Private
        );
        assert_eq!(
            AddressSpace::of_url(&url("https://example.com/")),
            AddressSpace::Public
        );
    }

    #[test]
    fn public_to_public_is_not_applicable() {
        let v = decide(
            AddressSpace::Public,
            false,
            &url("https://cdn.example/lib.js"),
            PreflightResult::Denied,
        );
        assert_eq!(v, PnaVerdict::NotApplicable);
        assert!(v.permits());
    }

    #[test]
    fn insecure_page_is_blocked_before_preflight() {
        let v = decide(
            AddressSpace::Public,
            false,
            &url("http://localhost:6463/?v=1"),
            PreflightResult::Approved,
        );
        assert_eq!(v, PnaVerdict::BlockedInsecureContext);
        assert!(!v.permits());
    }

    #[test]
    fn secure_page_needs_opt_in() {
        let target = url("wss://localhost:3389/");
        assert_eq!(
            decide(AddressSpace::Public, true, &target, PreflightResult::Denied),
            PnaVerdict::BlockedPreflight
        );
        assert_eq!(
            decide(
                AddressSpace::Public,
                true,
                &target,
                PreflightResult::Approved
            ),
            PnaVerdict::Allowed
        );
    }

    #[test]
    fn private_page_to_local_still_gated() {
        // A LAN-hosted page reaching into loopback is also a
        // privilege escalation under PNA.
        let v = decide(
            AddressSpace::Private,
            true,
            &url("http://127.0.0.1:8080/"),
            PreflightResult::Denied,
        );
        assert_eq!(v, PnaVerdict::BlockedPreflight);
    }

    #[test]
    fn local_page_to_lan_is_not_gated() {
        // Descending in privacy (local page → private target) is fine.
        let v = decide(
            AddressSpace::Local,
            false,
            &url("http://192.168.0.1/"),
            PreflightResult::Denied,
        );
        assert_eq!(v, PnaVerdict::NotApplicable);
    }
}
