//! `cpu-large`: bandwidth of the CPU backend on arrays several times the
//! last-level cache, beside a same-size `copy_from_slice` between the
//! same buffers. Plans are pinned to the CPU backend and executed with
//! `Transposer::execute_into` into a preallocated output.

use std::time::{Duration, Instant};

use ttlg::{Backend, Plan, TransposeOptions, Transposer};
use ttlg_tensor::DenseTensor;

use crate::common::{self, Ctx, Outcome};
use crate::gen::{self, Problem};
use crate::layers::{self, LayerMetrics, PassOpts};
use crate::reference;
use crate::stats::{self, Summary};
use crate::trace::Spans;

/// One input and one output buffer, sized for the largest problem and
/// reshaped between problems without copying.
struct Buffers {
    input: Vec<f64>,
    output: Vec<f64>,
}

struct Setup {
    tx: Transposer,
    plans: Vec<Plan<f64>>,
    bufs: Buffers,
}

/// Fill `data[k]` with `value(seed, start + k)` on `threads` threads.
fn fill(data: &mut [f64], start: usize, seed: u64, threads: usize) {
    let chunk = data.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (k, part) in data.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                let base = start + k * chunk;
                for (j, x) in part.iter_mut().enumerate() {
                    *x = reference::value(seed, base + j);
                }
            });
        }
    });
}

fn setup(ctx: &Ctx, problems: &[Problem]) -> Result<Setup, String> {
    let max = problems.iter().map(Problem::volume).max().unwrap_or(0);
    let mut input = vec![0.0f64; max];
    fill(&mut input, 0, ctx.seed, ctx.nproc);
    let output = vec![0.0f64; max];
    let tx = Transposer::new_k40c();
    let opts = TransposeOptions::for_backend(Backend::Cpu);
    let plans = problems
        .iter()
        .map(|p| {
            tx.plan::<f64>(&common::shape(p), &common::perm(p), &opts)
                .map_err(|e| format!("cpu planning of {} failed: {e}", p.label()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup {
        tx,
        plans,
        bufs: Buffers { input, output },
    })
}

/// Run `f` on the buffers viewed as `p`'s input and output tensors.
fn with_tensors<R>(
    b: &mut Buffers,
    p: &Problem,
    seed: u64,
    f: impl FnOnce(&DenseTensor<f64>, &mut DenseTensor<f64>) -> R,
) -> R {
    let v = p.volume();
    if b.input.len() > v {
        b.input.truncate(v);
    } else {
        let from = b.input.len();
        b.input.resize(v, 0.0);
        fill(&mut b.input[from..], from, seed, 1);
    }
    b.output.resize(v, 0.0);
    let out_shape = ttlg_tensor::Shape::new(&reference::out_extents(&p.extents, &p.perm))
        .expect("valid extents");
    let tin = DenseTensor::from_data(common::shape(p), std::mem::take(&mut b.input))
        .expect("volume matches");
    let mut tout =
        DenseTensor::from_data(out_shape, std::mem::take(&mut b.output)).expect("volume matches");
    let r = f(&tin, &mut tout);
    b.input = tin.into_data();
    b.output = tout.into_data();
    r
}

/// Timings of the measured loop.
#[derive(Default)]
struct LoopLog {
    lat_ms: Vec<f64>,
    exec_s: f64,
    copy_s: f64,
    bytes: f64,
}

fn measure(
    s: &mut Setup,
    problems: &[Problem],
    order: &[usize],
    seed: u64,
    dur: Duration,
    mut spans: Option<&mut Spans>,
    out: &mut Outcome,
) -> LoopLog {
    let mut log = LoopLog::default();
    let start = Instant::now();
    let mut k = 0usize;
    while start.elapsed() < dur {
        let i = order[k % order.len()];
        k += 1;
        let p = &problems[i];
        let (tx, plan) = (&s.tx, &s.plans[i]);
        let (res, exec, copy) = with_tensors(&mut s.bufs, p, seed, |tin, tout| {
            let root = spans
                .as_deref_mut()
                .map(|sp| sp.open("request", None, k as u64));
            let t0 = Instant::now();
            let res = tx.execute_into(plan, tin, tout);
            let exec = t0.elapsed();
            let t1 = Instant::now();
            tout.data_mut().copy_from_slice(tin.data());
            let copy = t1.elapsed();
            if let (Some(sp), Some(root)) = (spans.as_deref_mut(), root) {
                sp.record("cpu.execute", t0, t0 + exec, Some(root), k as u64);
                sp.record("cpu.memcpy", t1, t1 + copy, Some(root), k as u64);
                sp.close(root);
            }
            (res, exec, copy)
        });
        out.attempted += 1;
        match res {
            Ok(r) if r.schema == plan.schema() => {
                log.lat_ms.push(common::ms(exec));
                log.exec_s += exec.as_secs_f64();
                log.copy_s += copy.as_secs_f64();
                log.bytes += p.bytes_moved();
            }
            Ok(_) => out.fail(
                true,
                &format!("cpu report of {} names another schema", p.label()),
            ),
            Err(e) => out.fail(false, &format!("cpu execute of {}: {e}", p.label())),
        }
    }
    log
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let problems = gen::cpu_large_problems();
    let order = gen::cpu_large_order(ctx.seed);
    let (mut s, setup_s, setup_all) = common::repeated_setup(|| setup(ctx, &problems), drop)?;
    out.note("setup_s.samples", format!("{setup_all:?}"));
    out.note(
        "setup_s.covers",
        "buffer allocation, seeded input generation, CPU planning",
    );

    // Warm-up: one execution per problem, its output checked in full.
    for (i, p) in problems.iter().enumerate() {
        let (tx, plan) = (&s.tx, &s.plans[i]);
        let seed = ctx.seed;
        let nproc = ctx.nproc;
        let res = with_tensors(&mut s.bufs, p, seed, |tin, tout| {
            tx.execute_into(plan, tin, tout).map(|_| {
                reference::verify_parallel(&p.extents, &p.perm, tout.data(), nproc, |k| {
                    reference::value(seed, k)
                })
            })
        });
        out.attempted += 1;
        match res {
            Ok(Ok(())) => {}
            Ok(Err(at)) => out.fail(
                true,
                &format!("cpu output of {} wrong at offset {at}", p.label()),
            ),
            Err(e) => out.fail(false, &format!("cpu execute of {}: {e}", p.label())),
        }
    }
    let sim = sim_gbps(&problems)?;
    out.note(
        "array_bytes",
        problems
            .iter()
            .map(|p| format!("{}={}", p.label(), p.volume() * 8))
            .collect::<Vec<_>>()
            .join(" "),
    );

    if ctx.trace {
        return traced(ctx, s, &problems, &order, out);
    }

    let log = measure(
        &mut s,
        &problems,
        &order,
        ctx.seed,
        ctx.duration(1.0),
        None,
        &mut out,
    );
    drop(s);
    let lat = Summary::of(&log.lat_ms).ok_or("no cpu-large transpose completed")?;
    let rps = lat.n as f64 / log.exec_s;
    let gbps = log.bytes / log.exec_s / 1e9;
    out.metric("setup_s", setup_s, "s");
    out.metric("req_per_s", rps, "1/s");
    out.metric("host_gbps", gbps, "GB/s");
    out.metric("latency_p50_ms", lat.p50, "ms");
    out.metric("sim_gbps", sim, "GB/s");
    out.metric("peak_rss_mb", common::peak_rss_mb(), "MiB");
    out.note("latency_p99_ms", lat.p99);
    out.note("latency.samples", lat.tail_note());
    out.note("latency.timed_from", "call to return of execute_into");
    out.note("memcpy_gbps", log.bytes / log.copy_s / 1e9);
    out.note(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// Simulated K40c bandwidth of the same problems planned for the GPU
/// simulator (timed by sampled analysis; no data moves).
fn sim_gbps(problems: &[Problem]) -> Result<f64, String> {
    let tx = Transposer::new_k40c();
    let mut bw = Vec::new();
    for p in problems {
        let plan = common::plan(&tx, p)?;
        let r = tx
            .time_plan(&plan)
            .map_err(|e| format!("timing {} failed: {e}", p.label()))?;
        bw.push(r.bandwidth_gbps);
    }
    Ok(stats::geo_mean(&bw))
}

fn traced(
    ctx: &Ctx,
    mut s: Setup,
    problems: &[Problem],
    order: &[usize],
    mut out: Outcome,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let half = ctx.duration(0.5);
    let log_u = measure(&mut s, problems, order, ctx.seed, half, None, &mut out);
    let mut spans = Spans::new(epoch);
    let log_t = measure(
        &mut s,
        problems,
        order,
        ctx.seed,
        half,
        Some(&mut spans),
        &mut out,
    );
    drop(s);

    let mut lm = LayerMetrics::new();
    let opts = PassOpts {
        reps: 20,
        pace: Duration::from_millis(2),
        exports_per_s: 0.0,
    };
    layers::pass(
        ctx,
        &gen::cpu_large_small_problems(),
        &opts,
        &mut spans,
        &mut out,
        &mut lm,
    )?;
    // The CPU layer is measured on the large arrays themselves.
    let both = |f: fn(&LoopLog) -> f64| f(&log_u) + f(&log_t);
    let bytes = both(|l| l.bytes);
    let all_lat: Vec<f64> = log_u.lat_ms.iter().chain(&log_t.lat_ms).copied().collect();
    layers::set_cpu(
        &mut lm,
        stats::median(&all_lat) * 1e3,
        bytes / both(|l| l.exec_s) / 1e9,
        bytes / both(|l| l.copy_s) / 1e9,
    );
    lm.insert(
        "trace.overhead_ratio",
        stats::median(&log_t.lat_ms) / stats::median(&log_u.lat_ms),
    );
    lm.insert(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    crate::write_spans(ctx, "cpu-large", &spans);
    layers::emit(&lm, &mut out)?;
    Ok(out)
}
