//! The traced run's per-layer pass: the same problems are sent down
//! each rung of the stack in turn — core `plan`, core `execute` on the
//! GPU simulator and on the CPU backend, runtime `submit`,
//! `submit_async`+`wait`, the `obs` exporters and the HTTP gateway — so
//! the cost of a layer is the difference between adjacent rungs.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttlg::{Backend, TransposeOptions, Transposer};
use ttlg_runtime::{RuntimeConfig, TransposeRequest, TransposeService};
use ttlg_serve::{Gateway, GatewayConfig};
use ttlg_tensor::DenseTensor;

use crate::common::{self, Ctx, Outcome, RefExec};
use crate::gen::Problem;
use crate::http::{self, parse_json, Conn, Json};
use crate::reference;
use crate::stats::{median, Summary};
use crate::trace::Spans;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.plan.us_p50", "us"),
    ("core.plan.calls", "count"),
    ("core.plan.candidates_per_plan", "count"),
    ("core.plan.sweep_us_p50", "us"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.evictions", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("gpu_sim.execute.us_p50", "us"),
    ("gpu_sim.execute.ns_per_elem", "ns"),
    ("gpu_sim.kernel_sim_us", "us"),
    ("gpu_sim.dram_tx", "count"),
    ("gpu_sim.dram_efficiency", "ratio"),
    ("gpu_sim.smem_replay_rate", "ratio"),
    ("gpu_sim.computed_bytes", "B"),
    ("cpu.execute.gbps", "GB/s"),
    ("cpu.execute.us_p50", "us"),
    ("cpu.memcpy.gbps", "GB/s"),
    ("cpu.memcpy_ratio", "ratio"),
    ("runtime.submit.us_p50", "us"),
    ("runtime.submit.overhead_us", "us"),
    ("runtime.trace.plan_fetch_us_p50", "us"),
    ("runtime.trace.execute_us_p50", "us"),
    ("runtime.async.us_p50", "us"),
    ("runtime.async.handoff_us", "us"),
    ("runtime.async.coalesced_ratio", "ratio"),
    ("runtime.async.rejected", "count"),
    ("obs.snapshot.us_p50", "us"),
    ("obs.export_prometheus.us_p50", "us"),
    ("obs.scrape_core_share", "ratio"),
    ("serve.http_overhead_us", "us"),
    ("serve.phase.network_us_p50", "us"),
    ("serve.phase.queue_us_p50", "us"),
    ("serve.phase.plan_us_p50", "us"),
    ("serve.phase.execute_us_p50", "us"),
    ("serve.explain.us_p50", "us"),
    ("serve.metrics_scrape.us_p50", "us"),
    ("serve.shed_quota", "count"),
    ("serve.shed_queue", "count"),
    ("serve.timeouts", "count"),
    ("serve.coalesced_share", "ratio"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
];

/// Per-layer values gathered so far, by metric name.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Copy every per-layer metric into the outcome, in report order.
pub fn emit(lm: &LayerMetrics, out: &mut Outcome) -> Result<(), String> {
    for &(name, unit) in PER_LAYER {
        let v = *lm
            .get(name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        out.metric(name, v, unit);
    }
    Ok(())
}

/// How the pass drives the problems.
pub struct PassOpts {
    /// Calls per problem on every timed rung.
    pub reps: usize,
    /// Interval between paced `submit_async` and HTTP calls.
    pub pace: Duration,
    /// `GET /metrics` exports per second the workload performs, for the
    /// scrape's share of the cores (the history scraper's one snapshot a
    /// second is always counted).
    pub exports_per_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of the differences `a - b` between calls made back to back on
/// the same problem, which cancels drift in the host's speed.
fn median_paired(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    let diffs: Vec<f64> = a
        .iter()
        .zip(b)
        .flat_map(|(x, y)| x.iter().zip(y).map(|(p, q)| p - q))
        .collect();
    median(&diffs)
}

/// Median over problems of (median of `a` minus median of `b`).
fn median_gap(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    let gaps: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(x, y)| median(x) - median(y))
        .collect();
    median(&gaps)
}

/// Send `problems` down every rung. Fills `lm` with every per-layer
/// metric the pass measures and counts its operations in `out`.
pub fn pass(
    ctx: &Ctx,
    problems: &[Problem],
    opts: &PassOpts,
    spans: &mut Spans,
    out: &mut Outcome,
    lm: &mut LayerMetrics,
) -> Result<(), String> {
    let reps = opts.reps.max(1);
    let n = problems.len();
    let inputs: Vec<Arc<DenseTensor<f64>>> = problems
        .iter()
        .map(|p| common::arc_input(p, ctx.seed))
        .collect();
    let tx = Transposer::new_k40c();
    let mut req_id = 0u64;
    let mut next_req = || {
        req_id += 1;
        req_id
    };

    // -- core plan -------------------------------------------------------
    let mut plans = Vec::with_capacity(n);
    let (mut plan_us, mut cands, mut sweep_us) = (Vec::new(), Vec::new(), Vec::new());
    for p in problems {
        for r in 0..reps {
            let (plan, us) = spans.time("core.plan", None, next_req(), || common::plan(&tx, p));
            let plan = plan?;
            plan_us.push(us);
            if r == 0 {
                cands.push(plan.candidates_evaluated() as f64);
                sweep_us.push(plan.sweep_wall_ns() as f64 / 1e3);
                plans.push(plan);
            }
        }
    }
    lm.insert("core.plan.us_p50", median(&plan_us));
    lm.insert("core.plan.calls", plan_us.len() as f64);
    lm.insert(
        "core.plan.candidates_per_plan",
        cands.iter().sum::<f64>() / n as f64,
    );
    lm.insert("core.plan.sweep_us_p50", median(&sweep_us));

    // -- untimed first calls: references, output checks, warm plans -------
    // Each problem runs once on every rung before any is timed; the timed
    // loop below then interleaves the rungs call by call, so a slow
    // stretch of the host lands on all of them alike.
    let mut refs: Vec<RefExec> = Vec::with_capacity(n);
    let (mut kernel_us, mut eff, mut replay) = (Vec::new(), Vec::new(), Vec::new());
    let (mut dram_tx, mut dram_bytes) = (0u64, 0u64);
    let cpu_opts = TransposeOptions::for_backend(Backend::Cpu);
    let mut cpu = Vec::with_capacity(n);
    for (i, p) in problems.iter().enumerate() {
        out.attempted += 2;
        let (o, report) = tx
            .execute(&plans[i], &inputs[i])
            .map_err(|e| format!("gpu-sim execute of {} failed: {e}", p.label()))?;
        if reference::verify(&p.extents, &p.perm, inputs[i].data(), o.data()).is_err() {
            out.fail(true, &format!("gpu-sim output of {}", p.label()));
        }
        let s = report.stats;
        dram_tx += s.dram_total_tx();
        dram_bytes += s.dram_bytes();
        eff.push(s.dram_efficiency(8));
        replay.push(s.smem_replay_rate());
        kernel_us.push(report.kernel_time_ns / 1e3);
        refs.push(RefExec {
            schema: report.schema,
            fused_rank: plans[i].problem().rank(),
            kernel_time_ns: report.kernel_time_ns,
            bandwidth_gbps: report.bandwidth_gbps,
            plan_time_ns: report.plan_time_ns,
        });
        let cplan = tx
            .plan::<f64>(&common::shape(p), &common::perm(p), &cpu_opts)
            .map_err(|e| format!("cpu planning of {} failed: {e}", p.label()))?;
        let mut co = DenseTensor::<f64>::zeros(cplan.out_shape());
        tx.execute_into(&cplan, &inputs[i], &mut co)
            .map_err(|e| format!("cpu execute of {} failed: {e}", p.label()))?;
        if reference::verify(&p.extents, &p.perm, inputs[i].data(), co.data()).is_err() {
            out.fail(true, &format!("cpu output of {}", p.label()));
        }
        cpu.push((cplan, co));
    }
    lm.insert("gpu_sim.kernel_sim_us", median(&kernel_us));
    lm.insert("gpu_sim.dram_tx", dram_tx as f64);
    lm.insert(
        "gpu_sim.dram_efficiency",
        eff.iter().sum::<f64>() / n as f64,
    );
    lm.insert(
        "gpu_sim.smem_replay_rate",
        replay.iter().sum::<f64>() / n as f64,
    );
    lm.insert("gpu_sim.computed_bytes", dram_bytes as f64);

    let svc = Arc::new(TransposeService::<f64>::with_config(
        Transposer::new_k40c(),
        RuntimeConfig::default(),
    ));
    svc.start_history_scraper();
    let reqs: Vec<TransposeRequest<f64>> = problems
        .iter()
        .zip(&inputs)
        .map(|(p, x)| TransposeRequest::new(Arc::clone(x), common::perm(p)))
        .collect();
    for (i, r) in reqs.iter().enumerate() {
        check_runtime(out, svc.submit(r).map(|x| x.report), &refs[i], &problems[i]);
        let o = svc.submit_async(r.clone()).wait();
        check_runtime(
            out,
            o.result
                .as_ref()
                .map(|x| x.report.clone())
                .map_err(|e| e.clone()),
            &refs[i],
            &problems[i],
        );
    }

    // -- timed: core execute (gpu-sim, cpu, memcpy), submit, async ---------
    let mut exec_us: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut submit_us: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut async_us: Vec<Vec<f64>> = vec![Vec::new(); n];
    let (mut ns_per_elem, mut fetch_us, mut trace_exec_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_us, mut cpu_s, mut copy_s, mut bytes) = (Vec::new(), 0.0, 0.0, 0.0);
    for _ in 0..reps {
        for (i, p) in problems.iter().enumerate() {
            let id = next_req();
            let root = spans.open("ladder", None, id);
            out.attempted += 2;
            let (res, us) = spans.time("gpu_sim.execute", Some(root), id, || {
                tx.execute(&plans[i], &inputs[i])
            });
            match res {
                Ok((_, report)) if refs[i].matches(&report) => {}
                Ok(_) => out.fail(
                    true,
                    &format!("gpu-sim report of {} changed between calls", p.label()),
                ),
                Err(e) => out.fail(false, &format!("gpu-sim execute of {}: {e}", p.label())),
            }
            exec_us[i].push(us);
            ns_per_elem.push(us * 1e3 / p.volume() as f64);

            let (cplan, co) = &mut cpu[i];
            let (res, us) = spans.time("cpu.execute", Some(root), id, || {
                tx.execute_into(cplan, &inputs[i], co)
            });
            if let Err(e) = res {
                out.fail(false, &format!("cpu execute of {}: {e}", p.label()));
            }
            let (_, cus) = spans.time("cpu.memcpy", Some(root), id, || {
                co.data_mut().copy_from_slice(inputs[i].data())
            });
            cpu_us.push(us);
            cpu_s += us / 1e6;
            copy_s += cus / 1e6;
            bytes += p.bytes_moved();

            let (res, us) = spans.time("runtime.submit", Some(root), id, || svc.submit(&reqs[i]));
            check_runtime(out, res.map(|x| x.report), &refs[i], p);
            submit_us[i].push(us);
            let ((res, trace), _) = spans.time("runtime.submit_traced", Some(root), id, || {
                svc.submit_traced(&reqs[i])
            });
            check_runtime(out, res.map(|x| x.report), &refs[i], p);
            fetch_us.push(trace.plan_fetch_ns as f64 / 1e3);
            trace_exec_us.push(trace.execute_ns as f64 / 1e3);
            let (o, us) = spans.time("runtime.async", Some(root), id, || {
                svc.submit_async(reqs[i].clone()).wait()
            });
            check_runtime(
                out,
                o.result
                    .as_ref()
                    .map(|x| x.report.clone())
                    .map_err(|e| e.clone()),
                &refs[i],
                p,
            );
            async_us[i].push(us);
            spans.close(root);
        }
    }
    let all_exec: Vec<f64> = exec_us.iter().flatten().copied().collect();
    lm.insert("gpu_sim.execute.us_p50", median(&all_exec));
    lm.insert("gpu_sim.execute.ns_per_elem", median(&ns_per_elem));
    set_cpu(
        lm,
        median(&cpu_us),
        bytes / cpu_s / 1e9,
        bytes / copy_s / 1e9,
    );
    let all_submit: Vec<f64> = submit_us.iter().flatten().copied().collect();
    let all_async: Vec<f64> = async_us.iter().flatten().copied().collect();
    lm.insert("runtime.submit.us_p50", median(&all_submit));
    lm.insert(
        "runtime.submit.overhead_us",
        median_paired(&submit_us, &exec_us),
    );
    lm.insert("runtime.trace.plan_fetch_us_p50", median(&fetch_us));
    lm.insert("runtime.trace.execute_us_p50", median(&trace_exec_us));
    lm.insert("runtime.async.us_p50", median(&all_async));
    lm.insert(
        "runtime.async.handoff_us",
        median_paired(&async_us, &submit_us),
    );
    let st = svc.async_stats().unwrap_or_default();
    lm.insert(
        "runtime.async.coalesced_ratio",
        ratio(st.coalesced as f64, st.submitted as f64),
    );
    lm.insert("runtime.async.rejected", st.rejected as f64);
    // Cache figures of the pass itself; workloads with their own traffic
    // replace them with that traffic's.
    set_cache(lm, ttlg::CacheStats::default(), svc.cache_stats());

    // -- obs ------------------------------------------------------------------
    let (mut snap_us, mut export_us) = (Vec::new(), Vec::new());
    for _ in 0..(reps * 4).max(20) {
        let (s, us) = spans.time("obs.snapshot", None, next_req(), || svc.metrics_snapshot());
        std::hint::black_box(s);
        snap_us.push(us);
        let (s, us) = spans.time("obs.export_prometheus", None, next_req(), || {
            svc.export_prometheus()
        });
        std::hint::black_box(s);
        export_us.push(us);
    }
    set_obs(
        lm,
        ctx,
        median(&snap_us),
        median(&export_us),
        opts.exports_per_s,
    );

    // -- serve ------------------------------------------------------------------
    let gw = Gateway::start(Arc::clone(&svc), GatewayConfig::default());
    let mut server = ttlg_serve::spawn(Arc::clone(&gw), "127.0.0.1:0")
        .map_err(|e| format!("gateway bind failed: {e}"))?;
    let result = serve_rungs(
        problems,
        &reqs,
        &refs,
        &svc,
        server.addr(),
        opts,
        spans,
        out,
        lm,
        &mut next_req,
    );
    server.stop();
    svc.stop_history_scraper();
    result
}

/// The plan-cache counters accumulated between two snapshots.
pub fn set_cache(lm: &mut LayerMetrics, before: ttlg::CacheStats, after: ttlg::CacheStats) {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    lm.insert("core.cache.hits", hits);
    lm.insert("core.cache.misses", misses);
    lm.insert(
        "core.cache.evictions",
        (after.evictions - before.evictions) as f64,
    );
    lm.insert("core.cache.hit_ratio", ratio(hits, hits + misses));
}

pub fn set_cpu(lm: &mut LayerMetrics, us_p50: f64, gbps: f64, memcpy_gbps: f64) {
    lm.insert("cpu.execute.us_p50", us_p50);
    lm.insert("cpu.execute.gbps", gbps);
    lm.insert("cpu.memcpy.gbps", memcpy_gbps);
    lm.insert("cpu.memcpy_ratio", ratio(gbps, memcpy_gbps));
}

pub fn set_obs(
    lm: &mut LayerMetrics,
    ctx: &Ctx,
    snapshot_us: f64,
    export_us: f64,
    exports_per_s: f64,
) {
    lm.insert("obs.snapshot.us_p50", snapshot_us);
    lm.insert("obs.export_prometheus.us_p50", export_us);
    let busy_s_per_s = (snapshot_us + export_us * exports_per_s) / 1e6;
    lm.insert("obs.scrape_core_share", busy_s_per_s / ctx.nproc as f64);
}

fn check_runtime(
    out: &mut Outcome,
    r: Result<ttlg::TransposeReport, ttlg_runtime::ServeError>,
    reference: &RefExec,
    p: &Problem,
) {
    out.attempted += 1;
    match r {
        Ok(rep) if reference.matches(&rep) => {}
        Ok(_) => out.fail(
            true,
            &format!("runtime report of {} differs from the reference", p.label()),
        ),
        Err(e) => out.fail(false, &format!("runtime error on {}: {e}", p.label())),
    }
}

/// A gateway `200` for a transpose, checked against the reference.
pub fn check_transpose_body(body: &Json, p: &Problem, reference: &RefExec) -> bool {
    body.str("schema") == Some(reference.schema.to_string().as_str())
        && body.num("elements") == Some(p.volume() as f64)
        && body.num("kernel_us").map(f64::to_bits)
            == Some((reference.kernel_time_ns / 1e3).to_bits())
        && body.num("bandwidth_gbps").map(f64::to_bits) == Some(reference.bandwidth_gbps.to_bits())
}

/// A gateway `/v1/explain` body, checked against the reference plan.
pub fn check_explain_body(body: &[u8], reference: &RefExec) -> bool {
    let text = String::from_utf8_lossy(body);
    let chosen = format!("chosen: {} ", reference.schema);
    text.starts_with("== decision trace:") && text.lines().any(|l| l.starts_with(&chosen))
}

/// Counts over gateway responses.
#[derive(Debug, Default)]
pub struct ServeCounts {
    pub ok: u64,
    pub coalesced: u64,
    pub shed_quota: u64,
    pub shed_queue: u64,
    pub timeouts: u64,
    pub phases: [Vec<f64>; 4],
}

impl ServeCounts {
    /// Classify one transpose response: `Ok(Some(body))` on a 200.
    pub fn classify(&mut self, status: Option<u16>, body: &[u8]) -> Option<Json> {
        match status {
            Some(200) => {
                let v = parse_json(body).ok()?;
                self.ok += 1;
                if v.bool("coalesced") == Some(true) {
                    self.coalesced += 1;
                }
                if let Some(ph) = v.get("phases") {
                    for (k, key) in ["network_us", "queue_us", "plan_us", "execute_us"]
                        .iter()
                        .enumerate()
                    {
                        if let Some(x) = ph.num(key) {
                            self.phases[k].push(x);
                        }
                    }
                }
                Some(v)
            }
            Some(429) => {
                let reason = parse_json(body)
                    .ok()
                    .and_then(|v| v.str("reason").map(str::to_string));
                if reason.as_deref() == Some("quota") {
                    self.shed_quota += 1;
                } else {
                    self.shed_queue += 1;
                }
                None
            }
            Some(503) | None => {
                self.timeouts += 1;
                None
            }
            Some(_) => None,
        }
    }

    pub fn fill(&self, lm: &mut LayerMetrics) {
        for (k, name) in [
            "serve.phase.network_us_p50",
            "serve.phase.queue_us_p50",
            "serve.phase.plan_us_p50",
            "serve.phase.execute_us_p50",
        ]
        .iter()
        .enumerate()
        {
            lm.insert(name, median(&self.phases[k]));
        }
        lm.insert("serve.shed_quota", self.shed_quota as f64);
        lm.insert("serve.shed_queue", self.shed_queue as f64);
        lm.insert("serve.timeouts", self.timeouts as f64);
        lm.insert(
            "serve.coalesced_share",
            ratio(self.coalesced as f64, self.ok as f64),
        );
    }
}

const CALL_TIMEOUT: Duration = Duration::from_secs(10);

#[allow(clippy::too_many_arguments)]
fn serve_rungs(
    problems: &[Problem],
    reqs: &[TransposeRequest<f64>],
    refs: &[RefExec],
    svc: &Arc<TransposeService<f64>>,
    addr: std::net::SocketAddr,
    opts: &PassOpts,
    spans: &mut Spans,
    out: &mut Outcome,
    lm: &mut LayerMetrics,
    next_req: &mut impl FnMut() -> u64,
) -> Result<(), String> {
    let n = problems.len();
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect to gateway failed: {e}"))?;
    let raw: Vec<Vec<u8>> = problems
        .iter()
        .map(|p| http::transpose_request(&p.extents, &p.perm, "bench", false))
        .collect();
    // Warm the gateway's path once per problem.
    for r in &raw {
        conn.call(r, CALL_TIMEOUT)?;
    }
    // Paced: submit_async+wait, then HTTP, on the same schedule.
    let mut async_us: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut http_us: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut lag_ms = Vec::new();
    let mut counts = ServeCounts::default();
    for rung in 0..2 {
        let start = Instant::now();
        let mut k = 0u32;
        for _ in 0..opts.reps {
            for i in 0..n {
                let due = start + opts.pace * k;
                k += 1;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                if rung == 0 {
                    let (o, us) = spans.time("runtime.async.paced", None, next_req(), || {
                        svc.submit_async(reqs[i].clone()).wait()
                    });
                    check_runtime(
                        out,
                        o.result
                            .as_ref()
                            .map(|x| x.report.clone())
                            .map_err(|e| e.clone()),
                        &refs[i],
                        &problems[i],
                    );
                    async_us[i].push(us);
                } else {
                    lag_ms.push(common::ms(sent.saturating_duration_since(due)));
                    out.attempted += 1;
                    let resp = conn.call(&raw[i], CALL_TIMEOUT);
                    let done = Instant::now();
                    spans.record("serve.post", sent, done, None, next_req());
                    http_us[i].push((done - sent).as_secs_f64() * 1e6);
                    let (status, body) = match &resp {
                        Ok(r) => (Some(r.status), r.body.as_slice()),
                        Err(_) => (None, &[][..]),
                    };
                    match counts.classify(status, body) {
                        Some(v) if check_transpose_body(&v, &problems[i], &refs[i]) => {}
                        Some(_) => {
                            out.fail(true, &format!("gateway fields for {}", problems[i].label()))
                        }
                        None => out.fail(
                            false,
                            &format!("gateway status {status:?} for {}", problems[i].label()),
                        ),
                    }
                }
            }
        }
    }
    lm.insert("serve.http_overhead_us", median_gap(&http_us, &async_us));
    counts.fill(lm);
    lm.insert(
        "gen.lag_p99_ms",
        Summary::of(&lag_ms).map_or(0.0, |s| s.p99),
    );

    let mut explain_us = Vec::new();
    for (i, p) in problems.iter().enumerate() {
        for _ in 0..opts.reps {
            out.attempted += 1;
            let raw = http::explain_request(&p.extents, &p.perm);
            let (resp, us) = spans.time("serve.explain", None, next_req(), || {
                conn.call(&raw, CALL_TIMEOUT)
            });
            explain_us.push(us);
            match resp {
                Ok(r) if r.status == 200 && check_explain_body(&r.body, &refs[i]) => {}
                Ok(r) if r.status == 200 => out.fail(
                    true,
                    &format!("explain of {} names another schema", p.label()),
                ),
                _ => out.fail(false, &format!("explain of {} failed", p.label())),
            }
        }
    }
    lm.insert("serve.explain.us_p50", median(&explain_us));
    let mut scrape_us = Vec::new();
    for _ in 0..(opts.reps * 2).max(10) {
        out.attempted += 1;
        let (resp, us) = spans.time("serve.metrics_scrape", None, next_req(), || {
            conn.call(&http::metrics_request(), CALL_TIMEOUT)
        });
        scrape_us.push(us);
        if !resp.is_ok_and(|r| r.status == 200 && check_metrics_body(&r.body)) {
            out.fail(false, "metrics scrape failed");
        }
    }
    lm.insert("serve.metrics_scrape.us_p50", median(&scrape_us));
    Ok(())
}

/// A `/metrics` body carries the runtime's request counter.
pub fn check_metrics_body(body: &[u8]) -> bool {
    String::from_utf8_lossy(body).contains("ttlg_requests_total")
}
