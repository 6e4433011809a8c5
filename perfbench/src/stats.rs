//! The benchmark's own statistics: medians, quartiles, the tail percentile and
//! the interval algebra behind the per-layer busy times.
//!
//! Intervals are `(start, end)` pairs of host seconds since a common epoch. A busy
//! time such as `proxies.app_s` is the measure of the *union* of every rank's
//! intervals (wall time during which at least one rank was inside the layer), so
//! overlapping ranks are never double-counted.

/// The median of `values` (the mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method) does;
/// `None` for an empty slice, and a single value is every cut point, as in Python.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    match ld {
        0 => None,
        1 => Some([data[0]; 3]),
        _ => {
            let (n, m) = (4usize, ld + 1);
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..n) {
                let j = (i * m / n).clamp(1, ld - 1);
                let delta = (i * m) as i64 - (j * n) as i64;
                *slot =
                    (data[j - 1] * (n as i64 - delta) as f64 + data[j] * delta as f64) / n as f64;
            }
            Some(out)
        }
    }
}

/// A tail latency: the value, the percentile it sits at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Percentage of samples at or below `value`.
    pub percentile: f64,
    /// Number of samples.
    pub n: usize,
}

/// Samples that must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile that still has at least [`TAIL_BEYOND`] samples beyond
/// it: the `(n - 10)`-th smallest sample, at percentile `100 (n - 10) / n`. With
/// ten samples or fewer no percentile qualifies, so the maximum is returned at
/// percentile 100; `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Some(Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        n,
    })
}

/// Merges `intervals` into a sorted list of disjoint intervals (empty and inverted
/// intervals are dropped; touching intervals merge).
pub fn union(intervals: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut list: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    list.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(list.len());
    for (start, end) in list {
        match out.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => out.push((start, end)),
        }
    }
    out
}

/// Total length of the union of `intervals`.
pub fn union_len(intervals: &[(f64, f64)]) -> f64 {
    union(intervals).iter().map(|(s, e)| e - s).sum()
}

/// Length of the time covered by `a` but by none of `b`: the measure of
/// `union(a) \ union(b)`.
pub fn difference_len(a: &[(f64, f64)], b: &[(f64, f64)]) -> f64 {
    let (a, b) = (union(a), union(b));
    let mut overlap = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let start = a[i].0.max(b[j].0);
        let end = a[i].1.min(b[j].1);
        if end > start {
            overlap += end - start;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    a.iter().map(|(s, e)| e - s).sum::<f64>() - overlap
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
