//! Order statistics and operation accounting shared by every workload.

use std::collections::BTreeMap;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice: every metric is measured at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Attempted and failed operations per operation class. A non-2xx answer,
/// a transport error and a failed output check each count as one failure
/// of the class they belong to.
///
/// Known-defect probes are checks that fail because of a program defect
/// named by a `FOUND:` line in CHANGES.md, and on some seeds only. They run
/// and are reported on every run, but stay out of `attempted`, `failed`
/// and `check_failures`: the result line's failed share must be the same
/// in every run, whatever the seed and the run length.
#[derive(Default, Debug)]
pub struct Accounting {
    classes: BTreeMap<String, (u64, u64)>,
    /// Failed output checks (a subset of the failures), with their reasons.
    pub check_failures: Vec<String>,
    known: BTreeMap<String, (u64, u64)>,
    /// Failed known-defect probes, with their reasons.
    pub known_failures: Vec<String>,
}

impl Accounting {
    /// Records one attempted operation of `class`.
    pub fn attempt(&mut self, class: &str, ok: bool) {
        let e = self.classes.entry(class.to_string()).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
        }
    }

    /// Records one output check of `class`; a failed check keeps its reason.
    pub fn check(&mut self, class: &str, ok: bool, what: impl FnOnce() -> String) {
        self.attempt(class, ok);
        if !ok {
            self.check_failures.push(format!("{class}: {}", what()));
        }
    }

    /// Records one known-defect probe of `class` (see the type's docs).
    pub fn known_defect(&mut self, class: &str, ok: bool, what: impl FnOnce() -> String) {
        let e = self.known.entry(class.to_string()).or_default();
        e.0 += 1;
        if !ok {
            e.1 += 1;
            self.known_failures.push(format!("{class}: {}", what()));
        }
    }

    /// Folds another accounting (e.g. a client thread's) into this one.
    pub fn merge(&mut self, other: Accounting) {
        for (mine, theirs) in [(&mut self.classes, other.classes), (&mut self.known, other.known)] {
            for (class, (a, f)) in theirs {
                let e = mine.entry(class).or_default();
                e.0 += a;
                e.1 += f;
            }
        }
        self.check_failures.extend(other.check_failures);
        self.known_failures.extend(other.known_failures);
    }

    /// Total attempted operations.
    pub fn attempted(&self) -> u64 {
        self.classes.values().map(|c| c.0).sum()
    }

    /// Total failed operations.
    pub fn failed(&self) -> u64 {
        self.classes.values().map(|c| c.1).sum()
    }

    /// One line per class: `class attempted failed`, known-defect probes
    /// marked as such.
    pub fn table(&self) -> String {
        let rows = |m: &BTreeMap<String, (u64, u64)>, mark: &'static str| {
            m.iter()
                .map(move |(c, (a, f))| format!("  {c:<24} attempted {a:>8}  failed {f}{mark}"))
                .collect::<Vec<_>>()
        };
        let mut lines = rows(&self.classes, "");
        lines.extend(rows(&self.known, "  (known-defect probe)"));
        lines.join("\n")
    }
}

/// CPU time of this process so far, every thread included, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`). The kernel leaves out of it the time the
/// host gave to other tenants while the process was runnable.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (64-bit Linux).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_by_hand() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn accounting_counts_failures_per_class() {
        let mut a = Accounting::default();
        a.attempt("knn", true);
        a.attempt("knn", false);
        a.check("auc", false, || "below floor".into());
        let mut b = Accounting::default();
        b.attempt("knn", true);
        b.known_defect("recall", false, || "below floor".into());
        a.merge(b);
        assert_eq!(a.attempted(), 4);
        assert_eq!(a.failed(), 2);
        assert_eq!(a.check_failures, vec!["auc: below floor".to_string()]);
        assert_eq!(a.known_failures, vec!["recall: below floor".to_string()]);
        assert!(a.table().contains("recall"));
    }
}
