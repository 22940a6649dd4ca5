//! Order statistics and span arithmetic.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
/// `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile that still has at least ten samples beyond
/// it, as `(percent, value)`: the value at nearest rank `n - 10`, which
/// is the `100 * (n - 10) / n` percentile. `None` when the sample has
/// ten values or fewer.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= 10 {
        return None;
    }
    Some((100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

/// A sample of one quantity, kept sorted.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` (all finite) into a sample.
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile (see [`percentile`]).
    pub fn pct(&self, p: f64) -> Option<f64> {
        percentile(&self.sorted, p)
    }

    /// The highest percentile with ten samples beyond it (see [`tail`]).
    pub fn tail(&self) -> Option<(f64, f64)> {
        tail(&self.sorted)
    }

    /// Sum of the values.
    pub fn sum(&self) -> f64 {
        self.sorted.iter().sum()
    }
}

/// Self time of the span `[start, end)`: its duration minus the part of
/// that interval covered by the union of its children's intervals.
/// Children may overlap one another and may stick out of the parent;
/// only the covered part inside the parent is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 99.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 100 values: p99 is the 99th value, not an interpolation.
        let w: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&w, 99.0), Some(99.0));
        assert_eq!(percentile(&w, 99.5), Some(100.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(pct, 90.0);
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&w), Some((99.0, 990.0)));
        assert_eq!(tail(&v[..10]), None);
        assert_eq!(tail(&v[..11]), Some((100.0 / 11.0, 1.0)));
    }

    #[test]
    fn sample_sorts_its_input() {
        let s = Sample::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.pct(50.0), Some(2.0));
        assert_eq!(s.sum(), 6.0);
    }

    #[test]
    fn self_time_subtracts_covered_union() {
        // No children: the whole span.
        assert_eq!(self_time(10, 20, &[]), 10);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50)]), 60);
        // Nested child inside another child.
        assert_eq!(self_time(0, 100, &[(10, 60), (20, 30)]), 50);
        // Children sticking out are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // Children entirely outside cover nothing.
        assert_eq!(self_time(10, 20, &[(0, 5), (25, 30)]), 10);
        // Full cover leaves no self time.
        assert_eq!(self_time(10, 20, &[(10, 20)]), 0);
        // Unsorted input.
        assert_eq!(self_time(0, 10, &[(6, 8), (1, 3)]), 6);
    }
}
