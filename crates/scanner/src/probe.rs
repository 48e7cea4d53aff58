//! Probe vocabulary: targets, payloads, per-attempt outcomes, and the
//! per-target knock record.

use std::net::IpAddr;

/// Transport protocol of a knock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// TCP connect scan (SYN, await SYN-ACK or RST).
    Tcp,
    /// UDP datagram probe (await a reply or an ICMP port-unreachable).
    Udp,
}

impl Protocol {
    /// Wire label, used in target identities and reports.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Tcp => "tcp",
            Protocol::Udp => "udp",
        }
    }
}

/// One `(address, port, protocol)` the scanner knocks. Ordering groups
/// targets by host first so the serial fold sees each host's ports
/// consecutively — that is what lets a tripped breaker actually skip
/// the host's remaining ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeTarget {
    /// Destination address (loopback or RFC 1918 in practice).
    pub addr: IpAddr,
    /// Destination port.
    pub port: u16,
    /// Transport.
    pub protocol: Protocol,
}

impl ProbeTarget {
    /// A TCP target.
    pub fn tcp(addr: IpAddr, port: u16) -> ProbeTarget {
        ProbeTarget {
            addr,
            port,
            protocol: Protocol::Tcp,
        }
    }

    /// A UDP target.
    pub fn udp(addr: IpAddr, port: u16) -> ProbeTarget {
        ProbeTarget {
            addr,
            port,
            protocol: Protocol::Udp,
        }
    }

    /// The stable identity string, e.g. `tcp/127.0.0.1:3389`. This is
    /// the RNG key for fault injection and backoff jitter: every
    /// random draw about this target hashes this string, never a loop
    /// index or worker id.
    pub fn identity(&self) -> String {
        format!("{}/{}:{}", self.protocol.label(), self.addr, self.port)
    }
}

/// A hex-encoded probe payload (the knock-rs idiom: UDP knocks carry a
/// recognisable datagram, TCP knocks may send a banner-elicit string).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload(Vec<u8>);

impl Payload {
    /// Parse from hex text (`"0d0a0d0a"`). Case-insensitive; an odd
    /// length or a non-hex digit is a typed error, not a panic.
    pub fn from_hex(s: &str) -> Result<Payload, String> {
        let s = s.trim();
        if !s.len().is_multiple_of(2) {
            return Err(format!("odd-length hex payload ({} digits)", s.len()));
        }
        let mut bytes = Vec::with_capacity(s.len() / 2);
        let digits = s.as_bytes();
        for pair in digits.chunks(2) {
            let hi = (pair[0] as char).to_digit(16);
            let lo = (pair[1] as char).to_digit(16);
            match (hi, lo) {
                (Some(h), Some(l)) => bytes.push((h * 16 + l) as u8),
                _ => {
                    return Err(format!(
                        "invalid hex digit in payload at byte {}",
                        bytes.len()
                    ))
                }
            }
        }
        Ok(Payload(bytes))
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Render back to lower-case hex.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// Final state of a probed port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortState {
    /// A listener answered (TCP accept / UDP reply).
    Open,
    /// The host refused (TCP RST / ICMP port-unreachable): definitive
    /// evidence the host is up and the port unbound.
    Closed,
    /// Every attempt died silently — a black hole or a dropping
    /// middlebox; retries were exhausted without a definitive answer.
    Filtered,
}

impl PortState {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            PortState::Open => "open",
            PortState::Closed => "closed",
            PortState::Filtered => "filtered",
        }
    }

    /// True when the knock produced a definitive answer (the packet
    /// demonstrably reached the host): open or closed.
    pub fn is_definitive(self) -> bool {
        !matches!(self, PortState::Filtered)
    }
}

/// A transient per-attempt failure, worth retrying under the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientKind {
    /// No answer within the per-knock timeout (black hole, or an
    /// injected `ProbeDrop` / excessive `ProbeDelay`).
    Timeout,
    /// Connection reset mid-probe (injected `ConnectionReset`).
    Reset,
    /// The response read came back short (injected `TruncatedCapture`).
    Truncated,
    /// The loopback name flapped at the stub resolver (injected
    /// `DnsFlap`; loopback knocks address `localhost` by name).
    DnsFlap,
}

impl TransientKind {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            TransientKind::Timeout => "timeout",
            TransientKind::Reset => "reset",
            TransientKind::Truncated => "truncated",
            TransientKind::DnsFlap => "dns-flap",
        }
    }
}

/// What one knock attempt concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// A definitive answer: the packet demonstrably reached the host.
    Definitive(PortState),
    /// A transient failure, worth retrying under the policy.
    Transient(TransientKind),
}

impl AttemptOutcome {
    /// True for definitive answers.
    pub fn is_definitive(self) -> bool {
        matches!(self, AttemptOutcome::Definitive(_))
    }
}

/// One knock attempt: its conclusion plus the simulated time it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Definitive state or transient failure.
    pub outcome: AttemptOutcome,
    /// Simulated cost of this attempt, ms.
    pub elapsed_ms: u64,
}

/// The full per-target knock record: every attempt, the final state,
/// and the total simulated cost (attempts plus backoff waits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnockReport {
    /// What was knocked.
    pub target: ProbeTarget,
    /// Listener / device name, when the port answered and the host
    /// environment knows one.
    pub service: Option<String>,
    /// Final state after retries.
    pub state: PortState,
    /// Every attempt, in order (length ≥ 1, ≤ `max_attempts`).
    pub attempts: Vec<AttemptRecord>,
    /// Total simulated cost: attempt latencies + backoff waits, ms.
    pub knock_ms: u64,
}

impl KnockReport {
    /// Retries = attempts beyond the first.
    pub fn retries(&self) -> u64 {
        (self.attempts.len() as u64).saturating_sub(1)
    }

    /// Attempts that hit the per-knock timeout.
    pub fn timeouts(&self) -> u64 {
        self.attempts
            .iter()
            .filter(|a| a.outcome == AttemptOutcome::Transient(TransientKind::Timeout))
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    #[test]
    fn identity_strings_are_stable() {
        let t = ProbeTarget::tcp(IpAddr::V4(Ipv4Addr::LOCALHOST), 3389);
        assert_eq!(t.identity(), "tcp/127.0.0.1:3389");
        let u = ProbeTarget::udp("::1".parse().unwrap(), 5353);
        assert_eq!(u.identity(), "udp/::1:5353");
    }

    #[test]
    fn targets_sort_host_first() {
        let lo = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let lan = IpAddr::V4(Ipv4Addr::new(192, 168, 0, 1));
        let mut v = [
            ProbeTarget::tcp(lan, 80),
            ProbeTarget::udp(lo, 9),
            ProbeTarget::tcp(lo, 6463),
            ProbeTarget::tcp(lo, 9),
        ];
        v.sort();
        // All loopback targets precede the LAN target; within a host,
        // ports ascend; at equal (host, port), TCP precedes UDP.
        assert_eq!(v[0], ProbeTarget::tcp(lo, 9));
        assert_eq!(v[1], ProbeTarget::udp(lo, 9));
        assert_eq!(v[2], ProbeTarget::tcp(lo, 6463));
        assert_eq!(v[3], ProbeTarget::tcp(lan, 80));
    }

    #[test]
    fn payload_hex_round_trips() {
        let p = Payload::from_hex("0D0a00ff").unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.to_hex(), "0d0a00ff");
        assert!(Payload::from_hex("").unwrap().is_empty());
    }

    #[test]
    fn payload_rejects_malformed_hex() {
        assert!(Payload::from_hex("abc").is_err(), "odd length");
        assert!(Payload::from_hex("zz").is_err(), "non-hex digit");
    }

    #[test]
    fn knock_report_counts_retries_and_timeouts() {
        let r = KnockReport {
            target: ProbeTarget::tcp(IpAddr::V4(Ipv4Addr::LOCALHOST), 80),
            service: None,
            state: PortState::Open,
            attempts: vec![
                AttemptRecord {
                    outcome: AttemptOutcome::Transient(TransientKind::Timeout),
                    elapsed_ms: 1_000,
                },
                AttemptRecord {
                    outcome: AttemptOutcome::Transient(TransientKind::Reset),
                    elapsed_ms: 3,
                },
                AttemptRecord {
                    outcome: AttemptOutcome::Definitive(PortState::Open),
                    elapsed_ms: 2,
                },
            ],
            knock_ms: 1_205,
        };
        assert_eq!(r.retries(), 2);
        assert_eq!(r.timeouts(), 1);
    }
}
