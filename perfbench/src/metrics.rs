//! Named metrics, summary statistics and the one-line JSON result.

use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Measured value, as measured (never rounded).
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
}

/// An insertion-ordered set of metrics; setting a name twice replaces
/// the earlier value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        debug_assert!(valid_name(&name), "bad metric name {name:?}");
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.unit = unit;
            }
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Every metric, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// Names whose values differ from `other`'s (bitwise), or that only
    /// one side has.
    pub fn differing(&self, other: &Self) -> Vec<String> {
        let mut out: Vec<String> = self
            .0
            .iter()
            .filter(|m| other.get(&m.name).map(f64::to_bits) != Some(m.value.to_bits()))
            .map(|m| m.name.clone())
            .collect();
        out.extend(
            other
                .0
                .iter()
                .filter(|m| self.get(&m.name).is_none())
                .map(|m| m.name.clone()),
        );
        out
    }
}

/// True for a legal metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Median of a non-empty sample (mean of the middle pair for even
/// sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Hands the allocator's free heap memory back to the OS (glibc
/// `malloc_trim`; a no-op elsewhere). Called between parts, so that a
/// part's peak does not depend on what earlier parts left in the heap:
/// without it, `phoenix`'s peak was 65 or 80 MiB depending on the
/// seeded job order, and 60 MiB for every order with it.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes a byte count and only
        // releases memory the allocator holds free.
        unsafe { malloc_trim(0) };
    }
}

/// The benchmark's verdict for one run: the last line of its output.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output matched its reference and every consistency check
    /// held.
    pub correct: bool,
    /// Operations (jobs) attempted.
    pub attempted: u64,
    /// Operations that errored, diverged, or were lost.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Metrics,
}

impl Outcome {
    /// The result as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_validated() {
        assert!(valid_name("csb.set_active_window_us.131k"));
        assert!(valid_name("host_s"));
        assert!(!valid_name(""));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn differing_compares_bitwise_and_by_presence() {
        let mut a = Metrics::default();
        a.set("x", 1.0, "count");
        a.set("y", 0.1 + 0.2, "count");
        let mut b = a.clone();
        assert!(a.differing(&b).is_empty());
        b.set("y", 0.3, "count");
        b.set("z", 0.0, "count");
        assert_eq!(a.differing(&b), vec!["y".to_string(), "z".to_string()]);
    }

    #[test]
    fn outcome_json_parses() {
        let mut metrics = Metrics::default();
        metrics.set("host_s", 1.25, "s");
        metrics.set("sim_cycles", 123456789.0, "cycles");
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics,
        };
        let v = crate::json::parse(&out.to_json()).expect("valid JSON");
        let m = v.get("metrics").and_then(|m| m.get("sim_cycles")).unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_f64()), Some(123456789.0));
    }
}
