//! Order statistics for timings: every timing the benchmark reports is a
//! [`Summary`] (median, quartiles, min/max, sample count), and tail latencies
//! follow the "enough samples beyond it" rule of the choosing-metrics guide.

use workloads::serve::Json;

/// Five-number summary plus the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("n".to_string(), Json::Int(self.n as i64)),
            ("min".to_string(), Json::Num(self.min)),
            ("q1".to_string(), Json::Num(self.q1)),
            ("median".to_string(), Json::Num(self.median)),
            ("q3".to_string(), Json::Num(self.q3)),
            ("max".to_string(), Json::Num(self.max)),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Summary> {
        Some(Summary {
            n: doc.get("n")?.as_u64()? as usize,
            min: doc.get("min")?.as_f64()?,
            q1: doc.get("q1")?.as_f64()?,
            median: doc.get("median")?.as_f64()?,
            q3: doc.get("q3")?.as_f64()?,
            max: doc.get("max")?.as_f64()?,
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartile `i` (1..=3) of sorted data, by the exclusive method — the one
/// Python's `statistics.quantiles(values, n=4)` uses, so a spread computed
/// here equals the one the driver computes from the same values.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Summarise a non-empty sample set.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let s = sorted(samples);
    Summary {
        n: s.len(),
        min: s[0],
        q1: quartile(&s, 1),
        median: quartile(&s, 2),
        q3: quartile(&s, 3),
        max: s[s.len() - 1],
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The `want` percentile (e.g. 0.99) of the samples, lowered as far as needed
/// to keep at least `min_beyond` samples above the reported value. Returns
/// `(percentile actually used, value)`.
pub fn tail(samples: &[f64], want: f64, min_beyond: usize) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail needs at least one sample");
    let s = sorted(samples);
    let n = s.len();
    let natural = ((n as f64) * (1.0 - want)).floor() as usize;
    let beyond = natural.max(min_beyond).min(n - 1);
    let idx = n - 1 - beyond;
    (1.0 - beyond as f64 / n as f64, s[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_keeps_samples_beyond() {
        let v: Vec<f64> = (0..3000).map(|x| x as f64).collect();
        assert_eq!(tail(&v, 0.99, 30), (0.99, 2969.0));
        let v: Vec<f64> = (0..100).map(|x| x as f64).collect();
        assert_eq!(tail(&v, 0.99, 10), (0.9, 89.0));
    }
}
