//! Helpers shared by the workloads: building library inputs from the
//! generated problems, reference executions, and the run outcome.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ttlg::{Plan, Schema, TransposeOptions, TransposeReport, Transposer};
use ttlg_tensor::{DenseTensor, Permutation, Shape};

use crate::gen::Problem;
use crate::reference;

/// Times set-up is repeated in one run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub nproc: usize,
}

impl Ctx {
    pub fn duration(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed operations whose output or report did not match the
    /// reference (a subset of `failed`).
    pub mismatches: u64,
    pub metrics: Vec<Metric>,
    /// Provenance of the figures: sample counts, tail percentiles used,
    /// sizes. Printed with every result.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Count one failed operation (a mismatch when `mismatch`).
    pub fn fail(&mut self, mismatch: bool, why: &str) {
        self.failed += 1;
        if mismatch {
            self.mismatches += 1;
            if self.mismatches <= 5 {
                eprintln!("perfbench: mismatch: {why}");
            }
        }
    }
}

pub fn shape(p: &Problem) -> Shape {
    Shape::new(&p.extents).expect("generated extents are valid")
}

pub fn perm(p: &Problem) -> Permutation {
    Permutation::new(&p.perm).expect("generated permutations are valid")
}

/// The benchmark's seeded input tensor for `p`.
pub fn input(p: &Problem, seed: u64) -> DenseTensor<f64> {
    DenseTensor::from_data(shape(p), reference::input_data(seed, p.volume()))
        .expect("volume matches")
}

/// The `iota` input the gateway materialises for a problem.
pub fn iota_input(p: &Problem) -> DenseTensor<f64> {
    DenseTensor::from_data(shape(p), (0..p.volume()).map(|i| i as f64).collect())
        .expect("volume matches")
}

/// The deterministic part of a GpuSim report, from one reference
/// execution of a problem on a fresh planner.
#[derive(Debug, Clone)]
pub struct RefExec {
    pub schema: Schema,
    pub fused_rank: usize,
    pub kernel_time_ns: f64,
    pub bandwidth_gbps: f64,
    pub plan_time_ns: f64,
}

impl RefExec {
    /// Whether a report from the program carries the same deterministic
    /// fields, bit for bit.
    pub fn matches(&self, r: &TransposeReport) -> bool {
        r.schema == self.schema
            && r.kernel_time_ns.to_bits() == self.kernel_time_ns.to_bits()
            && r.bandwidth_gbps.to_bits() == self.bandwidth_gbps.to_bits()
    }

    /// Simulated bandwidth with the plan time charged, as in the paper's
    /// single-use figures.
    pub fn single_use_gbps(&self, p: &Problem) -> f64 {
        p.bytes_moved() / (self.kernel_time_ns + self.plan_time_ns)
    }
}

/// Plan `p` with default options on `tx`.
pub fn plan(tx: &Transposer, p: &Problem) -> Result<Plan<f64>, String> {
    tx.plan::<f64>(&shape(p), &perm(p), &TransposeOptions::default())
        .map_err(|e| format!("planning {} failed: {e}", p.label()))
}

/// Plan and execute `p` on `input` with a fresh planner's defaults, and
/// check the output bytes against the benchmark's reference.
pub fn reference_exec(
    tx: &Transposer,
    p: &Problem,
    input: &DenseTensor<f64>,
) -> Result<RefExec, String> {
    let plan = plan(tx, p)?;
    let (out, report) = tx
        .execute(&plan, input)
        .map_err(|e| format!("reference execution of {} failed: {e}", p.label()))?;
    if let Err(at) = reference::verify(&p.extents, &p.perm, input.data(), out.data()) {
        return Err(format!(
            "reference execution of {} wrote a wrong element at output offset {at}",
            p.label()
        ));
    }
    Ok(RefExec {
        schema: report.schema,
        fused_rank: plan.problem().rank(),
        kernel_time_ns: report.kernel_time_ns,
        bandwidth_gbps: report.bandwidth_gbps,
        plan_time_ns: report.plan_time_ns,
    })
}

/// Reference executions of many problems on `threads` threads, each
/// with its own planner. `input_of` builds each problem's input.
pub fn reference_execs(
    problems: &[&Problem],
    threads: usize,
    input_of: impl Fn(&Problem) -> DenseTensor<f64> + Sync,
) -> Vec<Result<RefExec, String>> {
    let threads = threads.max(1);
    let chunk = problems.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = problems
            .chunks(chunk)
            .map(|part| {
                let input_of = &input_of;
                s.spawn(move || {
                    let tx = Transposer::new_k40c();
                    part.iter()
                        .map(|p| reference_exec(&tx, p, &input_of(p)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Run set-up `SETUP_REPS` times, tearing down all but the last, and
/// return the last set-up with the median time in seconds.
pub fn repeated_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev);
        }
        let t = Instant::now();
        let s = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    let median = crate::stats::median(&times);
    Ok((last.expect("at least one set-up"), median, times))
}

/// Peak resident memory of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of the last-level cache in bytes, when the host reports it.
pub fn llc_bytes() -> Option<u64> {
    let mut best: Option<(u32, u64)> = None;
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Ok(level), Ok(size)) = (
            std::fs::read_to_string(format!("{dir}/level")),
            std::fs::read_to_string(format!("{dir}/size")),
        ) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok().map(|v| v << 10)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok().map(|v| v << 20)
        } else {
            size.parse().ok()
        };
        if let Some(b) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, b));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// Shared input handle for runtime requests.
pub fn arc_input(p: &Problem, seed: u64) -> Arc<DenseTensor<f64>> {
    Arc::new(input(p, seed))
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
