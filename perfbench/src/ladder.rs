//! `max_rate_rps`: the highest rung of a fixed offered-rate ladder at
//! which the gateway meets its latency limit without errors or a growing
//! backlog. The rungs and the limit are constants, set once.

/// Lowest and highest offered rate on the ladder, requests/s.
pub const LADDER_MIN_RPS: f64 = 200.0;
pub const LADDER_MAX_RPS: f64 = 6400.0;
/// Ratio between adjacent rungs (at most 10% apart).
pub const LADDER_STEP: f64 = 1.05;
/// A rung passes only if its p99 latency, timed from each request's due
/// time, is within this limit.
pub const LIMIT_P99_MS: f64 = 25.0;
/// ... and at most this share of its requests failed.
pub const MAX_ERROR_RATE: f64 = 0.01;

/// The rungs, ascending.
pub fn rungs() -> Vec<f64> {
    let mut out = Vec::new();
    let mut r = LADDER_MIN_RPS;
    while r <= LADDER_MAX_RPS * 1.000_001 {
        out.push(r);
        r *= LADDER_STEP;
    }
    out
}

/// What one rung's probe measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungResult {
    pub rate: f64,
    pub p99_ms: f64,
    pub error_rate: f64,
    /// Requests due but not answered when the rung's last request was
    /// due, beyond what the offered rate keeps in flight.
    pub backlog_growing: bool,
}

impl RungResult {
    pub fn passes(&self) -> bool {
        self.p99_ms <= LIMIT_P99_MS && self.error_rate <= MAX_ERROR_RATE && !self.backlog_growing
    }
}

/// Whether the backlog grew over a probe: `pending` requests were due
/// and unanswered at its end, out of `sent`.
pub fn backlog_growing(pending: usize, sent: usize) -> bool {
    pending > 16.max(sent / 20)
}

/// Bisect the ladder for its highest passing rung, probing each rung at
/// most once. `probe(i)` measures rung `i`. Returns the index found
/// (`None` when even the lowest rung fails) and every probe made.
pub fn search(
    n: usize,
    mut probe: impl FnMut(usize) -> RungResult,
) -> (Option<usize>, Vec<(usize, RungResult)>) {
    let mut probes = Vec::new();
    // Invariant: every rung <= lo passed (lo = -1: none known), rung hi
    // failed (hi = n: none known).
    let (mut lo, mut hi) = (-1isize, n as isize);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let r = probe(mid as usize);
        probes.push((mid as usize, r));
        if r.passes() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    ((lo >= 0).then_some(lo as usize), probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(rate: f64, capacity: f64) -> RungResult {
        // Latency explodes past capacity, as in a saturated queue.
        let p99 = if rate <= capacity { 5.0 } else { 100.0 };
        RungResult {
            rate,
            p99_ms: p99,
            error_rate: 0.0,
            backlog_growing: false,
        }
    }

    #[test]
    fn rungs_are_at_most_ten_percent_apart() {
        let r = rungs();
        assert_eq!(r[0], LADDER_MIN_RPS);
        assert!(r.windows(2).all(|w| w[1] / w[0] <= 1.10 + 1e-9));
        assert!(*r.last().unwrap() <= LADDER_MAX_RPS * 1.000_001);
        assert!(*r.last().unwrap() * LADDER_STEP > LADDER_MAX_RPS);
    }

    #[test]
    fn finds_the_highest_passing_rung() {
        let r = rungs();
        for capacity in [150.0, 200.0, 333.0, 1000.0, 2500.0, 6400.0, 9999.0] {
            let (best, probes) = search(r.len(), |i| synthetic(r[i], capacity));
            let expect = r.iter().rposition(|&x| x <= capacity);
            assert_eq!(best, expect, "capacity {capacity}");
            // Bisection: about log2(rungs) probes, never more than 8.
            assert!(probes.len() <= 8, "{} probes", probes.len());
        }
    }

    #[test]
    fn each_criterion_fails_a_rung() {
        let ok = RungResult {
            rate: 100.0,
            p99_ms: LIMIT_P99_MS,
            error_rate: MAX_ERROR_RATE,
            backlog_growing: false,
        };
        assert!(ok.passes());
        assert!(!RungResult {
            p99_ms: LIMIT_P99_MS * 1.01,
            ..ok
        }
        .passes());
        assert!(!RungResult {
            error_rate: 0.02,
            ..ok
        }
        .passes());
        assert!(!RungResult {
            backlog_growing: true,
            ..ok
        }
        .passes());
        assert!(!backlog_growing(16, 100));
        assert!(backlog_growing(17, 100));
        assert!(!backlog_growing(50, 1000));
        assert!(backlog_growing(51, 1000));
    }

    #[test]
    fn errors_or_backlog_lower_the_answer() {
        let r = rungs();
        let (best, _) = search(r.len(), |i| RungResult {
            error_rate: if r[i] > 800.0 { 0.05 } else { 0.0 },
            ..synthetic(r[i], 5000.0)
        });
        assert_eq!(best, r.iter().rposition(|&x| x <= 800.0));
        let (best, _) = search(r.len(), |i| RungResult {
            backlog_growing: r[i] > 1200.0,
            ..synthetic(r[i], 5000.0)
        });
        assert_eq!(best, r.iter().rposition(|&x| x <= 1200.0));
        let (best, _) = search(r.len(), |i| synthetic(r[i], 10.0));
        assert_eq!(best, None);
    }
}
