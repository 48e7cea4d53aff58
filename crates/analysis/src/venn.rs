//! Figure 2 — per-OS overlap of locally-active sites.

use kt_netbase::OsSet;

/// The seven regions of a three-set Venn diagram over {W, L, M}.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OsVenn {
    /// Windows only.
    pub w_only: usize,
    /// Linux only.
    pub l_only: usize,
    /// Mac only.
    pub m_only: usize,
    /// Windows ∩ Linux, not Mac.
    pub wl: usize,
    /// Windows ∩ Mac, not Linux.
    pub wm: usize,
    /// Linux ∩ Mac, not Windows.
    pub lm: usize,
    /// All three.
    pub wlm: usize,
}

impl OsVenn {
    /// Tally a collection of per-site OS sets.
    pub fn from_sets<I: IntoIterator<Item = OsSet>>(sets: I) -> OsVenn {
        let mut v = OsVenn::default();
        for s in sets {
            match (s.windows, s.linux, s.macos) {
                (true, false, false) => v.w_only += 1,
                (false, true, false) => v.l_only += 1,
                (false, false, true) => v.m_only += 1,
                (true, true, false) => v.wl += 1,
                (true, false, true) => v.wm += 1,
                (false, true, true) => v.lm += 1,
                (true, true, true) => v.wlm += 1,
                (false, false, false) => {}
            }
        }
        v
    }

    /// Total sites on Windows.
    pub fn windows_total(&self) -> usize {
        self.w_only + self.wl + self.wm + self.wlm
    }

    /// Total sites on Linux.
    pub fn linux_total(&self) -> usize {
        self.l_only + self.wl + self.lm + self.wlm
    }

    /// Total sites on Mac.
    pub fn mac_total(&self) -> usize {
        self.m_only + self.wm + self.lm + self.wlm
    }

    /// Total sites anywhere.
    pub fn total(&self) -> usize {
        self.w_only + self.l_only + self.m_only + self.wl + self.wm + self.lm + self.wlm
    }

    /// Render the region counts as a small text block.
    pub fn render(&self) -> String {
        format!(
            "W-only {:>4}   L-only {:>4}   M-only {:>4}\n\
             W∩L    {:>4}   W∩M    {:>4}   L∩M    {:>4}\n\
             W∩L∩M  {:>4}   (totals: W={} L={} M={}, all={})",
            self.w_only,
            self.l_only,
            self.m_only,
            self.wl,
            self.wm,
            self.lm,
            self.wlm,
            self.windows_total(),
            self.linux_total(),
            self.mac_total(),
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_partition() {
        let sets = vec![
            OsSet::WINDOWS_ONLY,
            OsSet::WINDOWS_ONLY,
            OsSet::ALL,
            OsSet::LINUX_MAC,
            OsSet::MAC_ONLY,
            OsSet::NONE, // ignored
        ];
        let v = OsVenn::from_sets(sets);
        assert_eq!(v.w_only, 2);
        assert_eq!(v.wlm, 1);
        assert_eq!(v.lm, 1);
        assert_eq!(v.m_only, 1);
        assert_eq!(v.total(), 5);
        assert_eq!(v.windows_total(), 3);
        assert_eq!(v.linux_total(), 2);
        assert_eq!(v.mac_total(), 3);
    }

    #[test]
    fn totals_are_consistent_with_regions() {
        let sets: Vec<OsSet> = (0..128)
            .map(|i| OsSet {
                windows: i & 1 != 0,
                linux: i & 2 != 0,
                macos: i & 4 != 0,
            })
            .collect();
        let v = OsVenn::from_sets(sets.clone());
        let windows = sets.iter().filter(|s| s.windows).count();
        assert_eq!(v.windows_total(), windows);
        let nonempty = sets.iter().filter(|s| !s.is_empty()).count();
        assert_eq!(v.total(), nonempty);
    }

    #[test]
    fn render_contains_counts() {
        let v = OsVenn::from_sets(vec![OsSet::ALL; 41]);
        let text = v.render();
        assert!(text.contains("41"));
        assert!(text.contains("W∩L∩M"));
    }
}
