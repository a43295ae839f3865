//! The in-process closed loops: `repeat` (the paper's repeated use, Fig.
//! 12, at the runtime rung) and `single-use` (Figs. 7/9/11: a plan-cache
//! miss on every request).

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttlg::{Schema, Transposer};
use ttlg_runtime::{RuntimeConfig, TransposeRequest, TransposeService};
use ttlg_tensor::parallel;

use crate::common::{self, Ctx, Outcome, RefExec};
use crate::gen::{self, Problem, SingleUseStream};
use crate::layers::{self, LayerMetrics, PassOpts};
use crate::reference;
use crate::rng::Rng;
use crate::stats::{self, Summary};
use crate::trace::Spans;

/// Callers of the `repeat` closed loop. Each runs its executions on
/// `nproc / REPEAT_CALLERS` threads, the cap the runtime itself puts on
/// concurrent executions (`submit_batch`): uncapped, every GpuSim
/// execution spawns `nproc` threads, the callers together put twice as
/// many threads as cores on the host, and the run measures its
/// scheduler.
const REPEAT_CALLERS: usize = 2;
/// `single-use` problems generated in set-up per second of run (more are
/// generated, out of the timed window, if a run gets through them), so
/// memory does not grow with the rate the host happens to reach.
const SINGLE_USE_PREGEN_PER_S: f64 = 6_000.0;
/// `single-use` reports `sim_gbps` over this fixed prefix of its stream,
/// so the figure repeats exactly for a seed.
const SIM_PREFIX: usize = 1_000;

fn service() -> Arc<TransposeService<f64>> {
    let svc = Arc::new(TransposeService::<f64>::with_config(
        Transposer::new_k40c(),
        RuntimeConfig::default(),
    ));
    svc.start_history_scraper();
    svc
}

/// One closed-loop caller's record.
#[derive(Default)]
struct CallerLog {
    lat_ms: Vec<f64>,
    /// Per latency sample: completion time in seconds from the loop's
    /// start, and bytes moved.
    done: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    mismatched: Vec<String>,
    end: Option<Instant>,
}

fn merge(out: &mut Outcome, logs: &mut [CallerLog]) {
    for l in logs.iter_mut() {
        out.attempted += l.attempted;
        out.failed += l.failed - l.mismatched.len() as u64;
        for m in l.mismatched.drain(..) {
            out.fail(true, &m);
        }
    }
}

// ---- repeat -------------------------------------------------------------------

struct RepeatSetup {
    svc: Arc<TransposeService<f64>>,
    reqs: Vec<TransposeRequest<f64>>,
    warm: Vec<Result<ttlg_runtime::TransposeResponse<f64>, ttlg_runtime::ServeError>>,
}

fn repeat_exec_threads() -> usize {
    (parallel::default_threads() / REPEAT_CALLERS).max(1)
}

/// The `repeat` closed loop: each caller walks the working set round
/// robin, in an order drawn from the seed, until `dur` has passed, so
/// every window of the run carries the same mix of problems.
fn repeat_loop(
    s: &RepeatSetup,
    problems: &[Problem],
    refs: &[RefExec],
    seed: u64,
    dur: Duration,
    epoch: Option<Instant>,
) -> (Vec<CallerLog>, Vec<Spans>, f64) {
    let (svc, reqs) = (&s.svc, &s.reqs);
    let exec_threads = repeat_exec_threads();
    let start = Instant::now();
    let results: Vec<(CallerLog, Option<Spans>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..REPEAT_CALLERS)
            .map(|c| {
                s.spawn(move || {
                    let order = Rng::derive(seed, 16 + c as u64).permutation(reqs.len());
                    let mut walk = order.into_iter().cycle();
                    let mut log = CallerLog::default();
                    let mut spans = epoch.map(Spans::new);
                    let mut req_id = (c as u64) << 40;
                    while start.elapsed() < dur {
                        let i = walk.next().expect("the working set is not empty");
                        req_id += 1;
                        let t0 = Instant::now();
                        let r = parallel::with_thread_cap(exec_threads, || match spans.as_mut() {
                            Some(sp) => {
                                let root = sp.open("request", None, req_id);
                                let (r, _) = sp.time("runtime.submit", Some(root), req_id, || {
                                    svc.submit(&reqs[i])
                                });
                                sp.close(root);
                                r
                            }
                            None => svc.submit(&reqs[i]),
                        });
                        let dt = t0.elapsed();
                        log.attempted += 1;
                        match r {
                            Ok(resp) if refs[i].matches(&resp.report) => {
                                log.lat_ms.push(common::ms(dt));
                                log.done.push((
                                    start.elapsed().as_secs_f64(),
                                    problems[i].bytes_moved(),
                                ));
                            }
                            Ok(_) => {
                                log.failed += 1;
                                log.mismatched.push(format!(
                                    "report of {} differs from the reference",
                                    problems[i].label()
                                ));
                            }
                            Err(_) => log.failed += 1,
                        }
                    }
                    log.end = Some(Instant::now());
                    (log, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller panicked"))
            .collect()
    });
    let wall = results
        .iter()
        .filter_map(|(l, _)| l.end)
        .max()
        .map_or(0.0, |e| (e - start).as_secs_f64());
    let (logs, spans): (Vec<CallerLog>, Vec<Option<Spans>>) = results.into_iter().unzip();
    (logs, spans.into_iter().flatten().collect(), wall)
}

/// Assert the working set covers all four schemas and a perm that fuses
/// to a Copy.
fn assert_coverage(refs: &[RefExec]) -> Result<(), String> {
    let seen: BTreeSet<String> = refs.iter().map(|r| r.schema.to_string()).collect();
    for s in [
        Schema::FviMatchLarge,
        Schema::FviMatchSmall,
        Schema::OrthogonalDistinct,
        Schema::OrthogonalArbitrary,
    ] {
        if !seen.contains(&s.to_string()) {
            return Err(format!(
                "the repeat working set has no {s} problem (saw {seen:?})"
            ));
        }
    }
    if !refs
        .iter()
        .any(|r| r.schema == Schema::Copy && r.fused_rank == 1)
    {
        return Err("the repeat working set has no permutation that fuses to a Copy".to_string());
    }
    Ok(())
}

pub fn repeat(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let problems = gen::repeat_set(ctx.seed);
    let (s, setup_s, setup_all) = common::repeated_setup(
        || {
            let svc = service();
            let reqs: Vec<TransposeRequest<f64>> = problems
                .iter()
                .map(|p| TransposeRequest::new(common::arc_input(p, ctx.seed), common::perm(p)))
                .collect();
            // Plans are warmed by one request each.
            let warm = reqs.iter().map(|r| svc.submit(r)).collect();
            Ok(RepeatSetup { svc, reqs, warm })
        },
        |s| s.svc.stop_history_scraper(),
    )?;
    out.note("setup_s.samples", format!("{setup_all:?}"));

    // Reference executions, and the warm-up outputs byte for byte.
    let tx = Transposer::new_k40c();
    let mut refs = Vec::with_capacity(problems.len());
    for (i, p) in problems.iter().enumerate() {
        let r = common::reference_exec(&tx, p, &s.reqs[i].input)?;
        out.attempted += 1;
        match &s.warm[i] {
            Ok(resp) if !r.matches(&resp.report) => {
                out.fail(true, &format!("warm-up report of {}", p.label()))
            }
            Ok(resp)
                if reference::verify(
                    &p.extents,
                    &p.perm,
                    s.reqs[i].input.data(),
                    resp.output.data(),
                )
                .is_err() =>
            {
                out.fail(true, &format!("warm-up output bytes of {}", p.label()))
            }
            Ok(_) => {}
            Err(e) => out.fail(false, &format!("warm-up of {}: {e}", p.label())),
        }
        refs.push(r);
    }
    assert_coverage(&refs)?;
    let sim_gbps = stats::geo_mean(&refs.iter().map(|r| r.bandwidth_gbps).collect::<Vec<_>>());
    out.note(
        "working_set",
        problems
            .iter()
            .map(|p| p.label())
            .collect::<Vec<_>>()
            .join(" "),
    );

    if ctx.trace {
        return repeat_traced(ctx, s, &problems, &refs, out);
    }

    let (mut logs, _, wall) = repeat_loop(&s, &problems, &refs, ctx.seed, ctx.duration(1.0), None);
    merge(&mut out, &mut logs);
    s.svc.stop_history_scraper();
    let (rps, gbps) = windowed_throughput(&mut out, &logs, wall, false);
    finish_closed_loop(&mut out, setup_s, rps, gbps, &logs, sim_gbps)?;
    out.note("callers", REPEAT_CALLERS);
    out.note("exec_threads_per_caller", repeat_exec_threads());
    Ok(out)
}

/// Throughput (requests/s, GB/s) as the mean of the middle half of the
/// run's whole one-second windows, so that a burst of host noise in a
/// few windows does not move the figure. With `busy`, each window's work is divided by
/// the time spent inside calls rather than by wall time: the single
/// caller of `single-use` also checks outputs between calls.
fn windowed_throughput(
    out: &mut Outcome,
    logs: &[CallerLog],
    wall_s: f64,
    busy: bool,
) -> (f64, f64) {
    let n = (wall_s.floor() as usize).max(1);
    let mut win = vec![(0.0f64, 0.0f64, 0.0f64); n];
    for l in logs {
        for (&(t, bytes), &lat_ms) in l.done.iter().zip(&l.lat_ms) {
            let k = if wall_s < 1.0 { 0 } else { t as usize };
            if let Some(w) = win.get_mut(k) {
                w.0 += 1.0;
                w.1 += bytes;
                w.2 += lat_ms / 1e3;
            }
        }
    }
    let span = if wall_s < 1.0 { wall_s } else { 1.0 };
    let denom = |w: &(f64, f64, f64)| if busy { w.2 } else { span };
    let rps: Vec<f64> = win.iter().map(|w| w.0 / denom(w)).collect();
    let gbps: Vec<f64> = win.iter().map(|w| w.1 / denom(w) / 1e9).collect();
    out.note(
        "throughput.windows",
        format!("{n} x {span} s, interquartile mean reported"),
    );
    (
        stats::interquartile_mean(&rps),
        stats::interquartile_mean(&gbps),
    )
}

fn finish_closed_loop(
    out: &mut Outcome,
    setup_s: f64,
    rps: f64,
    gbps: f64,
    logs: &[CallerLog],
    sim_gbps: f64,
) -> Result<(), String> {
    let samples: Vec<(f64, f64)> = logs
        .iter()
        .flat_map(|l| l.done.iter().map(|d| d.0).zip(l.lat_ms.iter().copied()))
        .collect();
    let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
    let lat = Summary::of(&all).ok_or("no request completed")?;
    let win = stats::windowed(&samples, stats::WINDOW_SAMPLES).ok_or("no request completed")?;
    out.metric("setup_s", setup_s, "s");
    out.metric("req_per_s", rps, "1/s");
    out.metric("host_gbps", gbps, "GB/s");
    out.metric("latency_p50_ms", win.p50, "ms");
    out.metric("sim_gbps", sim_gbps, "GB/s");
    out.metric("peak_rss_mb", common::peak_rss_mb(), "MiB");
    out.note("latency_p99_ms", win.p99);
    out.note("latency.samples", lat.tail_note());
    out.note("latency.windows", win.note());
    out.note("latency.timed_from", "call to return");
    out.note(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(())
}

fn repeat_traced(
    ctx: &Ctx,
    s: RepeatSetup,
    problems: &[Problem],
    refs: &[RefExec],
    mut out: Outcome,
) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let half = ctx.duration(0.5);
    let c0 = s.svc.cache_stats();
    let (mut logs_u, _, _) = repeat_loop(&s, problems, refs, ctx.seed, half, None);
    let (mut logs_t, spans_t, _) = repeat_loop(&s, problems, refs, ctx.seed, half, Some(epoch));
    let c1 = s.svc.cache_stats();
    s.svc.stop_history_scraper();
    merge(&mut out, &mut logs_u);
    merge(&mut out, &mut logs_t);
    let p50 = |logs: &[CallerLog]| {
        stats::median(
            &logs
                .iter()
                .flat_map(|l| l.lat_ms.iter().copied())
                .collect::<Vec<_>>(),
        )
    };

    let mut spans = Spans::new(epoch);
    for sp in spans_t {
        spans.absorb(sp);
    }
    let mut lm = LayerMetrics::new();
    let opts = PassOpts {
        reps: 5,
        pace: Duration::from_millis(6),
        exports_per_s: 0.0,
    };
    layers::pass(ctx, problems, &opts, &mut spans, &mut out, &mut lm)?;
    layers::set_cache(&mut lm, c0, c1);
    lm.insert("trace.overhead_ratio", p50(&logs_t) / p50(&logs_u));
    lm.insert(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    crate::write_spans(ctx, "repeat", &spans);
    layers::emit(&lm, &mut out)?;
    Ok(out)
}

// ---- single-use ------------------------------------------------------------------

struct SingleSetup {
    svc: Arc<TransposeService<f64>>,
    stream: SingleUseStream,
    /// The stream's problems so far, in order.
    problems: Vec<Problem>,
    /// Problems taken so far.
    taken: usize,
}

/// What a timed `single-use` response reported, for the post-run check.
struct Reported {
    schema: Schema,
    kernel_time_ns: f64,
    bandwidth_gbps: f64,
}

/// The `single-use` closed loop: one caller, a new problem every call.
/// Output bytes are checked after each call, outside the timed window.
fn single_loop(
    s: &mut SingleSetup,
    seed: u64,
    dur: Duration,
    mut spans: Option<&mut Spans>,
    reported: &mut Vec<(usize, Reported)>,
) -> CallerLog {
    let mut log = CallerLog::default();
    let start = Instant::now();
    while start.elapsed() < dur {
        if s.taken == s.problems.len() {
            s.problems
                .push(s.stream.next().expect("the stream is endless"));
        }
        let k = s.taken;
        let p = &s.problems[k];
        s.taken += 1;
        let input = common::arc_input(p, seed);
        let req = TransposeRequest::new(Arc::clone(&input), common::perm(p));
        let t0 = Instant::now();
        let r = match spans.as_deref_mut() {
            Some(sp) => {
                let id = k as u64;
                let root = sp.open("request", None, id);
                let (r, _) = sp.time("runtime.submit", Some(root), id, || s.svc.submit(&req));
                sp.close(root);
                r
            }
            None => s.svc.submit(&req),
        };
        let dt = t0.elapsed();
        log.attempted += 1;
        match r {
            Ok(resp) => {
                if reference::verify(&p.extents, &p.perm, input.data(), resp.output.data()).is_err()
                {
                    log.failed += 1;
                    log.mismatched
                        .push(format!("output bytes of {}", p.label()));
                } else {
                    log.lat_ms.push(common::ms(dt));
                    log.done
                        .push((start.elapsed().as_secs_f64(), p.bytes_moved()));
                }
                reported.push((
                    k,
                    Reported {
                        schema: resp.report.schema,
                        kernel_time_ns: resp.report.kernel_time_ns,
                        bandwidth_gbps: resp.report.bandwidth_gbps,
                    },
                ));
            }
            Err(_) => log.failed += 1,
        }
    }
    log
}

/// Check every timed report against a reference execution of its
/// problem; returns the references of the first [`SIM_PREFIX`] problems.
fn check_reports(
    ctx: &Ctx,
    problems: &[Problem],
    reported: &[(usize, Reported)],
    out: &mut Outcome,
) -> Result<Vec<RefExec>, String> {
    let mut probs: Vec<&Problem> = reported.iter().map(|(k, _)| &problems[*k]).collect();
    probs.extend(problems[..SIM_PREFIX].iter().skip(reported.len()));
    let refs = common::reference_execs(&probs, ctx.nproc, |p| common::input(p, ctx.seed));
    let refs: Vec<RefExec> = refs.into_iter().collect::<Result<_, _>>()?;
    for ((p, got), r) in probs.iter().zip(reported.iter().map(|(_, g)| g)).zip(&refs) {
        let same = got.schema == r.schema
            && got.kernel_time_ns.to_bits() == r.kernel_time_ns.to_bits()
            && got.bandwidth_gbps.to_bits() == r.bandwidth_gbps.to_bits();
        if !same {
            out.fail(
                true,
                &format!("report of {} differs from the reference", p.label()),
            );
        }
    }
    Ok(refs.into_iter().take(SIM_PREFIX).collect())
}

pub fn single_use(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut s, setup_s, setup_all) = common::repeated_setup(
        || {
            let svc = service();
            let mut stream = SingleUseStream::new(ctx.seed);
            let n = (SINGLE_USE_PREGEN_PER_S * ctx.seconds) as usize;
            let problems: Vec<Problem> = stream.by_ref().take(n.max(SIM_PREFIX)).collect();
            Ok(SingleSetup {
                svc,
                stream,
                problems,
                taken: 0,
            })
        },
        |s| s.svc.stop_history_scraper(),
    )?;
    out.note("setup_s.samples", format!("{setup_all:?}"));

    if ctx.trace {
        return single_traced(ctx, s, out);
    }

    let mut reported = Vec::new();
    let c0 = s.svc.cache_stats();
    let mut log = single_loop(&mut s, ctx.seed, ctx.duration(1.0), None, &mut reported);
    let c1 = s.svc.cache_stats();
    s.svc.stop_history_scraper();
    if c1.hits != c0.hits {
        return Err(format!(
            "single-use hit the plan cache {} times; every problem must miss",
            c1.hits - c0.hits
        ));
    }
    merge(&mut out, std::slice::from_mut(&mut log));
    let refs = check_reports(ctx, &s.problems, &reported, &mut out)?;
    let sim = stats::geo_mean(
        &s.problems
            .iter()
            .zip(&refs)
            .map(|(p, r)| r.single_use_gbps(p))
            .collect::<Vec<_>>(),
    );
    let (rps, gbps) = windowed_throughput(&mut out, std::slice::from_ref(&log), ctx.seconds, true);
    finish_closed_loop(
        &mut out,
        setup_s,
        rps,
        gbps,
        std::slice::from_ref(&log),
        sim,
    )?;
    out.note("callers", 1);
    out.note("cache.evictions", c1.evictions - c0.evictions);
    Ok(out)
}

fn single_traced(ctx: &Ctx, mut s: SingleSetup, mut out: Outcome) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let half = ctx.duration(0.5);
    let mut reported = Vec::new();
    let c0 = s.svc.cache_stats();
    let mut log_u = single_loop(&mut s, ctx.seed, half, None, &mut reported);
    let mut spans = Spans::new(epoch);
    let mut log_t = single_loop(&mut s, ctx.seed, half, Some(&mut spans), &mut reported);
    let c1 = s.svc.cache_stats();
    s.svc.stop_history_scraper();
    merge(&mut out, std::slice::from_mut(&mut log_u));
    merge(&mut out, std::slice::from_mut(&mut log_t));
    check_reports(ctx, &s.problems, &reported, &mut out)?;

    let mut lm = LayerMetrics::new();
    let opts = PassOpts {
        reps: 3,
        pace: Duration::from_millis(2),
        exports_per_s: 0.0,
    };
    layers::pass(ctx, &s.problems[..64], &opts, &mut spans, &mut out, &mut lm)?;
    layers::set_cache(&mut lm, c0, c1);
    lm.insert(
        "trace.overhead_ratio",
        stats::median(&log_t.lat_ms) / stats::median(&log_u.lat_ms),
    );
    lm.insert(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    crate::write_spans(ctx, "single-use", &spans);
    layers::emit(&lm, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator covers the schemas setup insists on, for many seeds.
    #[test]
    fn repeat_set_covers_all_schemas() {
        let tx = Transposer::new_k40c();
        for seed in 0..40 {
            let refs: Vec<RefExec> = gen::repeat_set(seed)
                .iter()
                .map(|p| {
                    let plan = common::plan(&tx, p).unwrap();
                    RefExec {
                        schema: plan.schema(),
                        fused_rank: plan.problem().rank(),
                        kernel_time_ns: 0.0,
                        bandwidth_gbps: 0.0,
                        plan_time_ns: 0.0,
                    }
                })
                .collect();
            assert_coverage(&refs).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
