//! Seeded input generators, one per workload. Each is a pure function
//! of the seed: the same seed yields the same problems and schedules.

use std::collections::HashSet;

use crate::rng::Rng;

/// One transposition problem: input extents (dimension 0 fastest) and
/// `perm[i] = j` (output dimension `i` is input dimension `j`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Problem {
    pub extents: Vec<usize>,
    pub perm: Vec<usize>,
}

impl Problem {
    pub fn new(extents: &[usize], perm: &[usize]) -> Self {
        Problem {
            extents: extents.to_vec(),
            perm: perm.to_vec(),
        }
    }

    pub fn volume(&self) -> usize {
        self.extents.iter().product()
    }

    /// Bytes a transposition of f64 elements reads plus writes.
    pub fn bytes_moved(&self) -> f64 {
        2.0 * self.volume() as f64 * 8.0
    }

    pub fn label(&self) -> String {
        let j = |v: &[usize]| {
            v.iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!("{}/{}", j(&self.extents), j(&self.perm))
    }
}

/// Extents of `rank` dimensions, each in `min_ext..=max_ext`, with a
/// product near `target` (the last dimension absorbs the remainder).
fn extents_near(
    rng: &mut Rng,
    rank: usize,
    target: usize,
    min_ext: usize,
    max_ext: usize,
) -> Vec<usize> {
    let mut ext = Vec::with_capacity(rank);
    let mut rest = target as f64;
    for d in 0..rank {
        let left = (rank - d) as f64;
        let e = if d + 1 == rank {
            rest.round() as usize
        } else {
            // Around the geometric share of what is left, jittered.
            let share = rest.powf(1.0 / left);
            (share * (0.5 + rng.unit())).round() as usize
        };
        let e = e.clamp(min_ext, max_ext);
        rest /= e as f64;
        ext.push(e);
    }
    // Keep the volume close to the target: rounding and clamping can leave
    // it far off when the last extent is small, so rescale the largest.
    let v: usize = ext.iter().product();
    let big = (0..rank).max_by_key(|&d| ext[d]).unwrap_or(0);
    let others = v / ext[big];
    ext[big] = ((target as f64 / others as f64).round() as usize).clamp(min_ext, max_ext);
    ext
}

fn div_round(a: usize, b: usize) -> usize {
    (a as f64 / b as f64).round() as usize
}

fn is_identity(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(i, &p)| i == p)
}

// ---- repeat ---------------------------------------------------------------

/// Size classes of the `repeat` working set, in elements.
pub const REPEAT_SIZES: [usize; 3] = [4 << 10, 32 << 10, 256 << 10];

/// Problems drawn per kind and size class. The planner sends one draw
/// of a kind to a kernel ten times cheaper to simulate than the next
/// draw's (FVI-match vs. orthogonal at 256K), so a set of one draw each
/// costs up to a third more for one seed than for another; three draws
/// average that out.
pub const REPEAT_DRAWS: usize = 3;

/// Problem kinds drawn per size class. The planner has the last word on
/// the schema; setup asserts that the set covers all four schemas and a
/// Copy-reducible permutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Identity permutation: fuses to rank 1 (Copy).
    Copy,
    /// Matching fastest index with extent >= 32.
    FviLarge,
    /// Matching fastest index with extent < 32.
    FviSmall,
    /// Non-matching fastest index, wide fastest extents on both sides
    /// (disjoint combined index sets).
    OrthWide,
    /// Non-matching fastest index, narrow fastest extents that overlap.
    OrthNarrow,
}

const REPEAT_KINDS: [Kind; 8] = [
    Kind::Copy,
    Kind::FviLarge,
    Kind::FviSmall,
    Kind::FviSmall,
    Kind::OrthWide,
    Kind::OrthWide,
    Kind::OrthNarrow,
    Kind::OrthNarrow,
];

fn draw_kind(rng: &mut Rng, kind: Kind, target: usize) -> Problem {
    match kind {
        Kind::Copy => {
            let rank = rng.range(3, 4);
            let ext = extents_near(rng, rank, target, 2, target);
            Problem::new(&ext, &(0..rank).collect::<Vec<_>>())
        }
        Kind::FviLarge => {
            let rank = rng.range(3, 4);
            let n0 = rng.range(32, 128);
            let mut ext = vec![n0];
            ext.extend(extents_near(
                rng,
                rank - 1,
                div_round(target, n0),
                2,
                target,
            ));
            let mut perm = vec![0];
            loop {
                let rest: Vec<usize> = rng.permutation(rank - 1).iter().map(|p| p + 1).collect();
                if rest[0] != 1 {
                    perm.extend(rest);
                    break;
                }
            }
            Problem::new(&ext, &perm)
        }
        Kind::FviSmall => {
            let rank = rng.range(3, 4);
            let n0 = [4, 8, 16][rng.below(3)];
            let mut ext = vec![n0];
            ext.extend(extents_near(
                rng,
                rank - 1,
                div_round(target, n0),
                32 / n0,
                target,
            ));
            let mut perm = vec![0];
            loop {
                let rest: Vec<usize> = rng.permutation(rank - 1).iter().map(|p| p + 1).collect();
                if rest[0] != 1 {
                    perm.extend(rest);
                    break;
                }
            }
            Problem::new(&ext, &perm)
        }
        Kind::OrthWide => {
            let mut rank = rng.range(3, 5);
            let n0 = rng.range(32, 64);
            let last = rng.range(32, 64).min(target / (2 * n0)).max(32);
            while rank > 3 && target / (n0 * last) < 1 << (rank - 2) {
                rank -= 1;
            }
            let mut ext = vec![n0];
            ext.extend(extents_near(
                rng,
                rank - 2,
                div_round(target, n0 * last),
                2,
                target,
            ));
            ext.push(last);
            // The output's fastest dimension is the input's slowest.
            let perm: Vec<usize> = std::iter::once(rank - 1)
                .chain(rng.permutation(rank - 1))
                .collect();
            Problem::new(&ext, &perm)
        }
        Kind::OrthNarrow => {
            let rank = rng.range(4, 5);
            let n0 = rng.range(3, 6);
            let n1 = rng.range(3, 6);
            let mut ext = vec![n0, n1];
            ext.extend(extents_near(
                rng,
                rank - 2,
                div_round(target, n0 * n1),
                2,
                target,
            ));
            let mut perm = vec![1, 0];
            perm.extend(rng.permutation(rank - 2).iter().map(|p| p + 2));
            Problem::new(&ext, &perm)
        }
    }
}

/// The `repeat` working set: [`REPEAT_DRAWS`] draws of every kind at
/// every size class, 72 problems, in size-class order.
pub fn repeat_set(seed: u64) -> Vec<Problem> {
    let mut rng = Rng::derive(seed, 1);
    let mut set = Vec::new();
    for &size in &REPEAT_SIZES {
        for _ in 0..REPEAT_DRAWS {
            for &kind in &REPEAT_KINDS {
                set.push(draw_kind(&mut rng, kind, size));
            }
        }
    }
    set
}

// ---- single-use ------------------------------------------------------------

/// Smallest and largest `single-use` volumes, in elements.
pub const SINGLE_USE_VOLUME: (usize, usize) = (512, 8 << 10);

/// A stream of distinct problems, ranks 2..=6, 512..=8K elements, with
/// a uniformly random non-identity permutation each.
pub struct SingleUseStream {
    rng: Rng,
    seen: HashSet<Problem>,
}

impl SingleUseStream {
    pub fn new(seed: u64) -> Self {
        SingleUseStream {
            rng: Rng::derive(seed, 2),
            seen: HashSet::new(),
        }
    }
}

impl Iterator for SingleUseStream {
    type Item = Problem;

    fn next(&mut self) -> Option<Problem> {
        let (lo, hi) = SINGLE_USE_VOLUME;
        loop {
            let rank = self.rng.range(2, 6);
            let target = (lo as f64 * (hi as f64 / lo as f64).powf(self.rng.unit())) as usize;
            let ext = extents_near(&mut self.rng, rank, target, 2, hi);
            let v: usize = ext.iter().product();
            if !(lo..=hi).contains(&v) {
                continue;
            }
            let perm = self.rng.permutation(rank);
            if is_identity(&perm) {
                continue;
            }
            let p = Problem::new(&ext, &perm);
            if self.seen.insert(p.clone()) {
                return Some(p);
            }
        }
    }
}

// ---- gateway ---------------------------------------------------------------

/// Problems in the gateway's key pool: more than the default plan cache
/// holds (8 shards x 64), so the Zipf tail keeps missing.
pub const GATEWAY_POOL: usize = 2048;
/// Zipf exponent of the gateway key popularity.
pub const GATEWAY_ZIPF_S: f64 = 1.1;
/// Gateway tenants; requests spread uniformly over them.
pub const GATEWAY_TENANTS: usize = 16;
/// Share of `GET /v1/explain` among generated requests.
pub const EXPLAIN_SHARE: f64 = 0.10;
/// Share of batch-class transposes.
pub const BATCH_SHARE: f64 = 0.20;
/// Fixed cadence of the `GET /metrics` scrape.
pub const METRICS_EVERY_NS: u64 = 250_000_000;

/// The gateway's key pool: distinct problems, ranks 2..=5,
/// 512..=32K elements, index 0 most popular. Volume and rank follow the
/// popularity order on a fixed low-discrepancy sequence, so every seed
/// puts the same mix of sizes on its hot keys; the seed draws the
/// extents and permutations.
pub fn gateway_pool(seed: u64) -> Vec<Problem> {
    let mut rng = Rng::derive(seed, 3);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(GATEWAY_POOL);
    while pool.len() < GATEWAY_POOL {
        let k = pool.len();
        // Golden-ratio sequence over log2(volume) in [9, 15].
        let u = (k as f64 * 0.618_033_988_749_895).fract();
        let target = (512.0 * 64f64.powf(u)) as usize;
        let rank = 2 + k % 4;
        let ext = extents_near(&mut rng, rank, target, 2, 32 << 10);
        let v: usize = ext.iter().product();
        if !(512..=32 << 10).contains(&v) {
            continue;
        }
        let perm = rng.permutation(rank);
        if is_identity(&perm) {
            continue;
        }
        let p = Problem::new(&ext, &perm);
        if seen.insert(p.clone()) {
            pool.push(p);
        }
    }
    pool
}

/// One generated gateway request.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Transpose {
        problem: usize,
        tenant: usize,
        batch: bool,
    },
    Explain {
        problem: usize,
    },
    Metrics,
}

/// A request and the time it is due, in ns from the start of its phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    pub due_ns: u64,
    pub op: Op,
}

/// Cumulative Zipf weights over the pool.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += 1.0 / (k as f64).powf(s);
            acc
        })
        .collect();
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// The open-loop schedule of one connection for one phase: a Poisson
/// process at `rate` requests/s for `duration_ns`, plus (when
/// `scrape`) a `GET /metrics` every [`METRICS_EVERY_NS`].
pub fn gateway_schedule(
    seed: u64,
    stream: u64,
    rate: f64,
    duration_ns: u64,
    scrape: bool,
) -> Vec<Scheduled> {
    let mut rng = Rng::derive(seed, 1000 + stream);
    let cdf = zipf_cdf(GATEWAY_POOL, GATEWAY_ZIPF_S);
    let zipf = |rng: &mut Rng| {
        let u = rng.unit();
        cdf.partition_point(|&c| c < u).min(GATEWAY_POOL - 1)
    };
    let mut out = Vec::new();
    let mean_gap_ns = 1e9 / rate;
    let mut t = rng.exp(mean_gap_ns);
    while (t as u64) < duration_ns {
        let op = if rng.unit() < EXPLAIN_SHARE {
            Op::Explain {
                problem: zipf(&mut rng),
            }
        } else {
            Op::Transpose {
                problem: zipf(&mut rng),
                tenant: rng.below(GATEWAY_TENANTS),
                batch: rng.unit() < BATCH_SHARE,
            }
        };
        out.push(Scheduled {
            due_ns: t as u64,
            op,
        });
        t += rng.exp(mean_gap_ns);
    }
    if scrape {
        let mut at = METRICS_EVERY_NS / 2;
        while at < duration_ns {
            out.push(Scheduled {
                due_ns: at,
                op: Op::Metrics,
            });
            at += METRICS_EVERY_NS;
        }
        out.sort_by_key(|s| s.due_ns);
    }
    out
}

/// Highest expected per-tenant rate of transposes at a total offered
/// rate (all connections together).
pub fn tenant_rate(total_rate: f64) -> f64 {
    total_rate * (1.0 - EXPLAIN_SHARE) / GATEWAY_TENANTS as f64
}

// ---- cpu-large --------------------------------------------------------------

/// The paper's Fig. 12 permutations on 24^6 and the Fig. 13
/// permutation on 118^4, all f64.
pub fn cpu_large_problems() -> Vec<Problem> {
    vec![
        Problem::new(&[24; 6], &[0, 2, 5, 1, 4, 3]),
        Problem::new(&[24; 6], &[4, 1, 2, 5, 3, 0]),
        Problem::new(&[118; 4], &[0, 2, 1, 3]),
    ]
}

/// The order `cpu-large` cycles through its problems: a seeded rotation.
pub fn cpu_large_order(seed: u64) -> Vec<usize> {
    let n = cpu_large_problems().len();
    let first = Rng::derive(seed, 4).below(n);
    (0..n).map(|k| (first + k) % n).collect()
}

/// The same permutations at about 32K elements, for the layers that
/// cannot take a gigabyte array (gpu-sim, runtime, gateway) in the
/// traced run of `cpu-large`.
pub fn cpu_large_small_problems() -> Vec<Problem> {
    vec![
        Problem::new(&[6; 6], &[0, 2, 5, 1, 4, 3]),
        Problem::new(&[6; 6], &[4, 1, 2, 5, 3, 0]),
        Problem::new(&[13; 4], &[0, 2, 1, 3]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_is_seed_deterministic() {
        assert_eq!(repeat_set(5), repeat_set(5));
        assert_ne!(repeat_set(5), repeat_set(6));
        assert_eq!(repeat_set(5).len(), 72);
    }

    #[test]
    fn repeat_sizes_are_near_their_class() {
        for seed in 0..20 {
            for (k, p) in repeat_set(seed).iter().enumerate() {
                let target = REPEAT_SIZES[k / (REPEAT_DRAWS * REPEAT_KINDS.len())] as f64;
                let v = p.volume() as f64;
                assert!(
                    v > target / 1.3 && v < target * 1.3,
                    "{} vs {target}",
                    p.label()
                );
            }
        }
    }

    #[test]
    fn single_use_is_seed_deterministic_and_distinct() {
        let a: Vec<Problem> = SingleUseStream::new(9).take(2000).collect();
        let b: Vec<Problem> = SingleUseStream::new(9).take(2000).collect();
        assert_eq!(a, b);
        let c: Vec<Problem> = SingleUseStream::new(10).take(2000).collect();
        assert_ne!(a, c);
        let distinct: HashSet<&Problem> = a.iter().collect();
        assert_eq!(distinct.len(), a.len());
        let (lo, hi) = SINGLE_USE_VOLUME;
        for p in &a {
            assert!((2..=6).contains(&p.extents.len()));
            assert!((lo..=hi).contains(&p.volume()));
            assert!(!is_identity(&p.perm));
        }
    }

    #[test]
    fn gateway_is_seed_deterministic() {
        assert_eq!(gateway_pool(4), gateway_pool(4));
        assert_ne!(gateway_pool(4), gateway_pool(5));
        let a = gateway_schedule(4, 0, 500.0, 1_000_000_000, true);
        assert_eq!(a, gateway_schedule(4, 0, 500.0, 1_000_000_000, true));
        assert_ne!(a, gateway_schedule(4, 1, 500.0, 1_000_000_000, true));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // About 500 requests, four scrapes.
        let scrapes = a.iter().filter(|s| s.op == Op::Metrics).count();
        assert_eq!(scrapes, 4);
        assert!((400..600).contains(&(a.len() - scrapes)), "{}", a.len());
    }

    #[test]
    fn gateway_traffic_is_skewed() {
        let s = gateway_schedule(1, 0, 2000.0, 2_000_000_000, false);
        let hot = s
            .iter()
            .filter(|x| {
                matches!(
                    x.op,
                    Op::Transpose { problem: 0, .. } | Op::Explain { problem: 0 }
                )
            })
            .count();
        assert!(hot * 20 > s.len(), "hottest key got {hot} of {}", s.len());
    }

    #[test]
    fn cpu_large_is_seed_deterministic() {
        assert_eq!(cpu_large_order(3), cpu_large_order(3));
        let mut o = cpu_large_order(3);
        o.sort_unstable();
        assert_eq!(o, vec![0, 1, 2]);
        for (big, small) in cpu_large_problems().iter().zip(cpu_large_small_problems()) {
            assert_eq!(big.perm, small.perm);
            assert!(big.volume() * 8 >= (4 * 300) << 20);
        }
    }
}
