//! Order statistics and the metric sheet a run prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `xs` after dropping the lowest and the highest `trim` share
/// of the samples (at least one value is kept); 0 for an empty slice.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = ((v.len() as f64 * trim) as usize).min((v.len() - 1) / 2);
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Nearest-rank `pct` percentile (0 < pct <= 100) of `xs`; 0 when empty.
pub fn nearest_rank(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_index(v.len(), pct)]
}

fn rank_index(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The `pct` percentile of `xs`, but only when at least [`TAIL_BEYOND`]
/// samples lie strictly beyond it; `None` otherwise.
pub fn tail(xs: &[f64], pct: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let i = rank_index(v.len(), pct);
    let beyond = v.iter().filter(|&&x| x > v[i]).count();
    (beyond >= TAIL_BEYOND).then_some(v[i])
}

/// The highest of the usual reporting percentiles that [`tail`] accepts,
/// with its value.
pub fn highest_tail(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find_map(|p| tail(xs, p).map(|v| (p, v)))
}

/// One line describing a latency sample: count, median and the highest
/// percentile [`tail`] accepts.
pub fn describe(label: &str, xs: &[f64]) -> String {
    let tail = highest_tail(xs)
        .map_or("no percentile has 10 samples beyond it".into(), |(p, v)| {
            format!("p{p} {v:.4}")
        });
    format!("{label}: n={} median {:.4} {tail}", xs.len(), median(xs))
}

/// Marks the samples taken while the host was quieter: those during
/// which the hypervisor stole at most the median share of processor
/// time. At least half the samples are marked; all of them when nothing
/// was stolen.
pub fn quiet(steal: &[f64]) -> Vec<bool> {
    let m = median(steal);
    steal.iter().map(|&s| s <= m).collect()
}

/// Ratio with a zero denominator mapped to 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Sheet {
    entries: BTreeMap<String, (f64, &'static str)>,
}

impl Sheet {
    /// Records `name` (overwriting an earlier value).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.entries.insert(name.into(), (v, unit));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.get(name).map(|e| e.0)
    }

    /// Keeps only the names in `keep`.
    pub fn retain(&mut self, keep: &[&str]) {
        self.entries.retain(|k, _| keep.contains(&k.as_str()));
    }

    /// One human-readable line per metric.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, (v, u)) in &self.entries {
            let _ = writeln!(s, "  {k:<36} {v:>16.6} {u}");
        }
        s
    }

    /// The `"metrics"` JSON object.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, (v, u))) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v));
        }
        s.push('}');
        s
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), None, "999 samples leave 9 beyond p99");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some(990.0));
        assert_eq!(highest_tail(&xs), Some((99.0, 990.0)));
    }

    #[test]
    fn ties_at_the_percentile_do_not_count_as_beyond() {
        let mut xs = vec![1.0; 990];
        xs.extend(std::iter::repeat_n(5.0, 10));
        // p99 lands on the last 1.0; exactly ten samples exceed it.
        assert_eq!(tail(&xs, 99.0), Some(1.0));
        let xs = vec![3.0; 5000];
        assert_eq!(tail(&xs, 99.0), None);
        assert_eq!(highest_tail(&xs), None);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let mut xs: Vec<f64> = vec![8.0; 5];
        xs.extend([16.0; 4]);
        xs.push(100.0);
        // One value from each end goes: four 8s and four 16s remain.
        assert_eq!(trimmed_mean(&xs, 0.1), 12.0);
        assert_eq!(trimmed_mean(&[3.0], 0.4), 3.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn quiet_keeps_the_less_stolen_half() {
        assert_eq!(quiet(&[0.3, 0.0, 0.1, 0.2]), [false, true, true, false]);
        assert_eq!(quiet(&[0.0; 3]), [true; 3]);
    }

    #[test]
    fn small_samples_fall_back_to_lower_percentiles() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(highest_tail(&xs), Some((75.0, 30.0)));
        assert_eq!(median(&xs), 20.5);
        assert_eq!(nearest_rank(&xs, 99.0), 40.0);
    }
}
