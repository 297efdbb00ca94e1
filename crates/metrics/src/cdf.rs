//! Cumulative distributions (Figure 10 of the paper).

/// An empirical CDF over integer observations (stack depths).
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    sorted: Vec<u32>,
}

impl Cdf {
    /// Builds the CDF from raw observations.
    pub fn new(mut samples: Vec<u32>) -> Self {
        samples.sort_unstable();
        Cdf { sorted: samples }
    }

    /// Builds the CDF from a histogram: `counts[v]` observations of value
    /// `v`.
    pub fn from_counts(counts: &[u64]) -> Self {
        let sorted = counts
            .iter()
            .enumerate()
            .flat_map(|(v, &c)| {
                let v = u32::try_from(v).expect("histogram value fits in u32");
                std::iter::repeat_n(v, c as usize)
            })
            .collect();
        Cdf { sorted }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations `<= x` (0 for an empty CDF).
    pub fn at(&self, x: u32) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Smallest depth covering at least `q` of the observations — e.g. the
    /// paper's "the stack depth needed to cover 90% of contexts".
    pub fn depth_covering(&self, q: f64) -> u32 {
        if self.sorted.is_empty() {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0)) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.saturating_sub(1).min(self.sorted.len() - 1)]
    }

    /// The maximum observation.
    pub fn max(&self) -> u32 {
        self.sorted.last().copied().unwrap_or(0)
    }

    /// Evenly spaced `(depth, cumulative %)` points for plotting, always
    /// including the 100% point.
    pub fn series(&self, points: usize) -> Vec<(u32, f64)> {
        if self.sorted.is_empty() || points == 0 {
            return Vec::new();
        }
        let max = self.max();
        let step = (max / points.max(1) as u32).max(1);
        let mut out = Vec::new();
        let mut x = 0;
        while x < max {
            out.push((x, self.at(x)));
            x += step;
        }
        out.push((max, 1.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf() {
        let c = Cdf::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.at(10), 0.0);
        assert_eq!(c.depth_covering(0.9), 0);
        assert!(c.series(5).is_empty());
    }

    #[test]
    fn cdf_fractions() {
        let c = Cdf::new(vec![0, 1, 1, 2, 4]);
        assert_eq!(c.len(), 5);
        assert!((c.at(0) - 0.2).abs() < 1e-12);
        assert!((c.at(1) - 0.6).abs() < 1e-12);
        assert!((c.at(4) - 1.0).abs() < 1e-12);
        assert!((c.at(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depth_covering_matches_quantiles() {
        let c = Cdf::new((0..100).collect());
        assert_eq!(c.depth_covering(0.9), 89);
        assert_eq!(c.depth_covering(1.0), 99);
        assert_eq!(c.max(), 99);
    }

    #[test]
    fn counts_constructor_matches_raw_samples() {
        let raw = Cdf::new(vec![4, 1, 0, 4, 2, 1, 4]);
        let counts = Cdf::from_counts(&[1, 2, 1, 0, 3, 0]);
        assert_eq!(counts.sorted, raw.sorted);
        assert!(Cdf::from_counts(&[0, 0]).is_empty());
    }

    #[test]
    fn series_ends_at_full_coverage() {
        let c = Cdf::new(vec![3, 7, 9, 12]);
        let s = c.series(4);
        let last = s.last().unwrap();
        assert_eq!(last.0, 12);
        assert!((last.1 - 1.0).abs() < 1e-12);
    }
}
