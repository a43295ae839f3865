//! Order statistics: nearest-rank percentiles and the "highest
//! percentile with at least ten samples beyond it" rule.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(q * n)`, clamped to `1..=n`. `None` on an empty slice.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// Number of samples strictly beyond the nearest-rank `q` percentile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the
/// median has fewer.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| beyond(n, q) >= TAIL_MIN_BEYOND)
}

/// A timing distribution reduced to what the benchmark reports.
#[derive(Debug, Clone)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The nearest-rank p99, and how many samples lie beyond it.
    pub p99: f64,
    pub p99_beyond: usize,
    /// The highest percentile with ten samples beyond it (`None` when
    /// there are too few samples) and its value (the maximum if `None`).
    pub tail_q: Option<f64>,
    pub tail: f64,
}

impl Summary {
    /// Summarise unsorted samples; `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.total_cmp(b));
        let n = s.len();
        let p50 = nearest_rank(&s, 0.5)?;
        let p99 = nearest_rank(&s, 0.99)?;
        let tail_q = tail_quantile(n);
        let tail = match tail_q {
            Some(q) => nearest_rank(&s, q)?,
            None => s[n - 1],
        };
        Some(Summary {
            n,
            p50,
            p99,
            p99_beyond: beyond(n, 0.99),
            tail_q,
            tail,
        })
    }

    /// How the tail was sampled: the p99's support, and the highest
    /// percentile with ten samples beyond it.
    pub fn tail_note(&self) -> String {
        let tail = match self.tail_q {
            Some(q) => format!("p{}={}", q * 100.0, self.tail),
            None => "none".to_string(),
        };
        format!(
            "n={} p99 has {} samples beyond it; highest percentile with {TAIL_MIN_BEYOND} beyond: {tail}",
            self.n, self.p99_beyond
        )
    }
}

/// Latency reduced over time windows: the run is cut into equal windows
/// holding at least `min_per_window` samples each (so a window's p99 has
/// ten samples beyond it at 1000), each window's p50 and p99 are taken,
/// and the medians across windows are reported. A host stall then moves
/// one window's figures instead of the run's.
#[derive(Debug, Clone)]
pub struct Windowed {
    pub p50: f64,
    pub p99: f64,
    pub windows: usize,
    pub per_window: usize,
}

impl Windowed {
    pub fn note(&self) -> String {
        format!(
            "median over {} windows of {} samples of each window's nearest-rank p50 and p99",
            self.windows, self.per_window
        )
    }
}

/// Samples per latency window: the p99 of 1000 has ten beyond it.
pub const WINDOW_SAMPLES: usize = 1000;

/// `samples` are `(time, value)` pairs in any order.
pub fn windowed(samples: &[(f64, f64)], min_per_window: usize) -> Option<Windowed> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.0.total_cmp(&b.0));
    let k = (s.len() / min_per_window.max(1)).max(1);
    let per = s.len() / k;
    let (mut p50s, mut p99s) = (Vec::with_capacity(k), Vec::with_capacity(k));
    for w in 0..k {
        let end = if w + 1 == k { s.len() } else { (w + 1) * per };
        let mut v: Vec<f64> = s[w * per..end].iter().map(|x| x.1).collect();
        v.sort_by(|a, b| a.total_cmp(b));
        p50s.push(nearest_rank(&v, 0.5)?);
        p99s.push(nearest_rank(&v, 0.99)?);
    }
    Some(Windowed {
        p50: median(&p50s),
        p99: median(&p99s),
        windows: k,
        per_window: per,
    })
}

/// Median of unsorted samples (nearest rank); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    nearest_rank(&s, 0.5).unwrap_or(0.0)
}

/// Mean of the middle half of unsorted samples: the values between the
/// nearest-rank quartiles, both included. 0 when empty.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let (Some(q1), Some(q3)) = (nearest_rank(&s, 0.25), nearest_rank(&s, 0.75)) else {
        return 0.0;
    };
    let mid: Vec<f64> = s.into_iter().filter(|v| (q1..=q3).contains(v)).collect();
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Geometric mean of positive values; 0 when empty.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_hand_cases() {
        let s = ramp(10);
        assert_eq!(nearest_rank(&s, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&s, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&s, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&s, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        let s = ramp(100);
        assert_eq!(nearest_rank(&s, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&s, 0.5), Some(50.0));
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn summary_states_the_support_of_its_tail() {
        let s = Summary::of(&ramp(1000)).unwrap();
        assert_eq!((s.p50, s.p99, s.p99_beyond), (500.0, 990.0, 10));
        assert_eq!((s.tail_q, s.tail), (Some(0.99), 990.0));
        let s = Summary::of(&ramp(500)).unwrap();
        assert_eq!((s.p99, s.p99_beyond), (495.0, 5));
        assert_eq!((s.tail_q, s.tail), (Some(0.95), 475.0));
        assert!(s.tail_note().contains("p95=475"));
        let s = Summary::of(&ramp(8)).unwrap();
        assert_eq!((s.p99, s.tail_q, s.tail), (8.0, None, 8.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_sorts_its_input() {
        let mut v = ramp(1000);
        v.reverse();
        assert_eq!(Summary::of(&v).unwrap().p50, 500.0);
    }

    #[test]
    fn windows_hold_enough_samples_and_ignore_one_bad_window() {
        // 5000 samples over 5 s: five windows of 1000.
        let mut v: Vec<(f64, f64)> = (0..5000)
            .map(|i| (i as f64 / 1000.0, (i % 1000) as f64))
            .collect();
        let w = windowed(&v, 1000).unwrap();
        assert_eq!((w.windows, w.per_window), (5, 1000));
        assert_eq!((w.p50, w.p99), (499.0, 989.0));
        // A stall that slows every request of one window leaves the
        // medians across windows where they were.
        for x in v.iter_mut().filter(|x| x.0 < 1.0) {
            x.1 += 1e6;
        }
        let w2 = windowed(&v, 1000).unwrap();
        assert_eq!((w2.p50, w2.p99), (w.p50, w.p99));
        // Too few samples for two windows: one window over all of them.
        let w3 = windowed(&v[..1500], 1000).unwrap();
        assert_eq!((w3.windows, w3.per_window), (1, 1500));
        assert!(windowed(&[], 1000).is_none());
    }

    #[test]
    fn interquartile_mean_hand_cases() {
        // Ranks 2..=6 of eight: 2, 3, 4, 5, 6.
        assert_eq!(interquartile_mean(&ramp(8)), 4.0);
        // A slow and a fast outlier do not move it.
        let mut v = ramp(8);
        v[0] = -1000.0;
        v[7] = 1000.0;
        assert_eq!(interquartile_mean(&v), 4.0);
        assert_eq!(interquartile_mean(&[3.5]), 3.5);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn geo_mean_hand_case() {
        assert!((geo_mean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 0.0);
    }
}
