//! The desktop operating systems of the paper's crawl.
//!
//! Websites condition their behaviour on the visitor's OS (usually via
//! the user-agent string), which is why the paper crawls every page on
//! Windows 10, Ubuntu 20.04 and Mac OS X 10.15.6 and reports per-OS
//! columns in every table. The [`OsSet`] type models "active on which
//! OSes" — the ✓ columns of Tables 5–11.

use std::fmt;

/// The three desktop OSes of the paper's crawl.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Os {
    /// Windows 10 (VMWare VM, Georgia Tech network).
    Windows,
    /// Ubuntu 20.04 (VMWare VM, Georgia Tech network).
    Linux,
    /// Mac OS X 10.15.6 (MacBook Air, Comcast residential).
    MacOs,
}

impl Os {
    /// All OSes, in the paper's column order (W, L, M).
    pub const ALL: [Os; 3] = [Os::Windows, Os::Linux, Os::MacOs];

    /// One-letter label used in the paper's tables.
    pub fn letter(self) -> char {
        match self {
            Os::Windows => 'W',
            Os::Linux => 'L',
            Os::MacOs => 'M',
        }
    }

    /// Full label as used in figures ("Windows", "Linux", "Mac").
    pub fn name(self) -> &'static str {
        match self {
            Os::Windows => "Windows",
            Os::Linux => "Linux",
            Os::MacOs => "Mac",
        }
    }

    /// The Chrome v84 user-agent string for this OS — what websites'
    /// OS-conditional code inspects.
    pub fn user_agent(self) -> &'static str {
        match self {
            Os::Windows => {
                "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 \
                 (KHTML, like Gecko) Chrome/84.0.4147.89 Safari/537.36"
            }
            Os::Linux => {
                "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 \
                 (KHTML, like Gecko) Chrome/84.0.4147.89 Safari/537.36"
            }
            Os::MacOs => {
                "Mozilla/5.0 (Macintosh; Intel Mac OS X 10_15_6) AppleWebKit/537.36 \
                 (KHTML, like Gecko) Chrome/84.0.4147.89 Safari/537.36"
            }
        }
    }
}

impl fmt::Display for Os {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A subset of the three OSes — the ✓ pattern of a table row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct OsSet {
    /// Active on Windows.
    pub windows: bool,
    /// Active on Linux.
    pub linux: bool,
    /// Active on Mac.
    pub macos: bool,
}

impl OsSet {
    /// The empty set.
    pub const NONE: OsSet = OsSet {
        windows: false,
        linux: false,
        macos: false,
    };
    /// All three OSes.
    pub const ALL: OsSet = OsSet {
        windows: true,
        linux: true,
        macos: true,
    };
    /// Windows only — the fraud/bot-detection pattern.
    pub const WINDOWS_ONLY: OsSet = OsSet {
        windows: true,
        linux: false,
        macos: false,
    };
    /// Linux only.
    pub const LINUX_ONLY: OsSet = OsSet {
        windows: false,
        linux: true,
        macos: false,
    };
    /// Mac only — the SockJS developer-error pattern.
    pub const MAC_ONLY: OsSet = OsSet {
        windows: false,
        linux: false,
        macos: true,
    };
    /// Windows and Linux (the 2021 crawl's OS pair).
    pub const WINDOWS_LINUX: OsSet = OsSet {
        windows: true,
        linux: true,
        macos: false,
    };
    /// Linux and Mac.
    pub const LINUX_MAC: OsSet = OsSet {
        windows: false,
        linux: true,
        macos: true,
    };
    /// Windows and Mac.
    pub const WINDOWS_MAC: OsSet = OsSet {
        windows: true,
        linux: false,
        macos: true,
    };

    /// Build from a membership predicate.
    pub fn from_fn(mut f: impl FnMut(Os) -> bool) -> OsSet {
        OsSet {
            windows: f(Os::Windows),
            linux: f(Os::Linux),
            macos: f(Os::MacOs),
        }
    }

    /// Membership test.
    pub fn contains(self, os: Os) -> bool {
        match os {
            Os::Windows => self.windows,
            Os::Linux => self.linux,
            Os::MacOs => self.macos,
        }
    }

    /// Add an OS.
    pub fn with(mut self, os: Os) -> OsSet {
        match os {
            Os::Windows => self.windows = true,
            Os::Linux => self.linux = true,
            Os::MacOs => self.macos = true,
        }
        self
    }

    /// Set intersection.
    pub fn intersect(self, other: OsSet) -> OsSet {
        OsSet {
            windows: self.windows && other.windows,
            linux: self.linux && other.linux,
            macos: self.macos && other.macos,
        }
    }

    /// Number of member OSes.
    pub fn len(self) -> usize {
        usize::from(self.windows) + usize::from(self.linux) + usize::from(self.macos)
    }

    /// True if no OS is a member.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Iterate member OSes in table order.
    pub fn iter(self) -> impl Iterator<Item = Os> {
        Os::ALL.into_iter().filter(move |os| self.contains(*os))
    }

    /// The ✓/blank pattern as used in the paper's tables, e.g. `"W L M"`.
    pub fn ticks(self) -> String {
        Os::ALL
            .iter()
            .map(|os| if self.contains(*os) { '✓' } else { '·' })
            .collect::<Vec<char>>()
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    }
}

impl fmt::Display for OsSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for os in self.iter() {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{}", os.letter())?;
            first = false;
        }
        if first {
            write!(f, "∅")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_and_names() {
        assert_eq!(Os::Windows.letter(), 'W');
        assert_eq!(Os::Linux.letter(), 'L');
        assert_eq!(Os::MacOs.letter(), 'M');
        for os in Os::ALL {
            assert!(os.user_agent().contains("Chrome/84"), "Chrome v84 (§3.1)");
        }
        assert!(Os::Windows.user_agent().contains("Windows NT 10.0"));
        assert!(Os::Linux.user_agent().contains("X11; Linux"));
        assert!(Os::MacOs.user_agent().contains("Mac OS X 10_15_6"));
    }

    #[test]
    fn set_membership() {
        assert!(OsSet::ALL.contains(Os::Windows));
        assert!(OsSet::WINDOWS_ONLY.contains(Os::Windows));
        assert!(!OsSet::WINDOWS_ONLY.contains(Os::Linux));
        assert!(OsSet::MAC_ONLY.contains(Os::MacOs));
        assert!(OsSet::NONE.is_empty());
        assert_eq!(OsSet::ALL.len(), 3);
        assert_eq!(OsSet::WINDOWS_LINUX.len(), 2);
    }

    #[test]
    fn with_and_intersect() {
        let wl = OsSet::NONE.with(Os::Windows).with(Os::Linux);
        assert_eq!(wl, OsSet::WINDOWS_LINUX);
        assert_eq!(wl.intersect(OsSet::WINDOWS_ONLY), OsSet::WINDOWS_ONLY);
        assert_eq!(wl.intersect(OsSet::MAC_ONLY), OsSet::NONE);
    }

    #[test]
    fn iteration_order_is_w_l_m() {
        let all: Vec<Os> = OsSet::ALL.iter().collect();
        assert_eq!(all, vec![Os::Windows, Os::Linux, Os::MacOs]);
    }

    #[test]
    fn display_and_ticks() {
        assert_eq!(OsSet::WINDOWS_LINUX.to_string(), "W+L");
        assert_eq!(OsSet::NONE.to_string(), "∅");
        assert_eq!(OsSet::ALL.ticks(), "✓ ✓ ✓");
        assert_eq!(OsSet::WINDOWS_ONLY.ticks(), "✓ · ·");
    }

    #[test]
    fn from_fn_builder() {
        let not_mac = OsSet::from_fn(|os| os != Os::MacOs);
        assert_eq!(not_mac, OsSet::WINDOWS_LINUX);
    }
}
