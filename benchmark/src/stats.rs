//! Order statistics of a sample and the named sample store the cases
//! fill while they run.

use std::collections::BTreeMap;

/// Median, quartiles, minimum and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
}

/// Summarise `values`. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), because
/// that is what the acceptance procedure computes spreads with; fewer
/// than two samples collapse to the single value (0 when empty).
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Summary { n, median: 0.0, q1: 0.0, q3: 0.0, min: 0.0 };
    }
    let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
    let quartile = |i: usize| {
        if n < 2 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary { n, median, q1: quartile(1), q3: quartile(3), min: v[0] }
}

/// Named samples: every timing or count a run observes is pushed under
/// the name it is reported by, and read back as a median.
#[derive(Debug, Default, Clone)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// Replace whatever was recorded under `name` by one derived value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), vec![value]);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of the samples under `name`; 0 when nothing was recorded,
    /// which is how "this layer did no work on this workload" reads.
    pub fn med(&self, name: &str) -> f64 {
        summarize(self.get(name)).median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.min, s.n), (2.75, 5.5, 8.25, 1.0, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(summarize(&[]).median, 0.0);
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
        assert_eq!(Samples::default().med("absent"), 0.0);
    }
}
