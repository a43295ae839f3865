//! `gateway`: open-loop HTTP traffic against an in-process `Gateway`
//! behind `server::spawn`, over keep-alive loopback connections.

use std::collections::{BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttlg::Transposer;
use ttlg_runtime::{RuntimeConfig, TransposeService};
use ttlg_serve::{Gateway, GatewayConfig, ServerHandle};

use crate::common::{self, Ctx, Outcome, RefExec};
use crate::gen::{self, Op, Problem, Scheduled};
use crate::http::{self, Conn, Json};
use crate::ladder::{self, RungResult};
use crate::layers::{self, LayerMetrics, PassOpts, ServeCounts};
use crate::stats::{self, Summary};
use crate::trace::Spans;

/// Offered rate of the measured phase, requests/s over all connections.
pub const NOMINAL_RPS: f64 = 300.0;
/// Share of the run spent at the nominal rate; the ladder gets the rest.
const NOMINAL_SHARE: f64 = 0.6;
/// Probe slots the ladder's time is divided into: the bisection makes at
/// most 7 decisions (71 rungs), a few of which re-probe a failure.
const MAX_PROBES: f64 = 10.0;
/// Seeded schedule stream of the measured nominal phase.
const NOMINAL_STREAM: u64 = 2;
/// Warm-up at the nominal rate before anything is measured.
const WARMUP: Duration = Duration::from_millis(500);
/// How long after its last due time a phase waits for stragglers.
const TAIL: Duration = Duration::from_secs(5);

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
struct Record {
    due_ns: u64,
    sent_ns: u64,
    done_ns: Option<u64>,
    status: Option<u16>,
    body: Vec<u8>,
}

/// One connection's phase: its records, and how many of its requests
/// were due but unanswered when its last request was due.
struct ConnRun {
    records: Vec<Record>,
    pending_at_end: usize,
}

struct Setup {
    svc: Arc<TransposeService<f64>>,
    server: ServerHandle,
    conns: Vec<Conn>,
    pool: Vec<Problem>,
}

fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let svc = Arc::new(TransposeService::<f64>::with_config(
        Transposer::new_k40c(),
        RuntimeConfig::default(),
    ));
    let gw = Gateway::start(Arc::clone(&svc), GatewayConfig::default());
    let server =
        ttlg_serve::spawn(gw, "127.0.0.1:0").map_err(|e| format!("gateway bind failed: {e}"))?;
    let conns = (0..connections(ctx))
        .map(|_| Conn::connect(server.addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect to gateway failed: {e}"))?;
    Ok(Setup {
        svc,
        server,
        conns,
        pool: gen::gateway_pool(ctx.seed),
    })
}

fn teardown(mut s: Setup) {
    drop(s.conns);
    s.server.stop();
    s.svc.stop_history_scraper();
}

/// Load connections (and load threads): at most `nproc`, at most 2.
fn connections(ctx: &Ctx) -> usize {
    ctx.nproc.clamp(1, 2)
}

fn raw_request(op: &Op, pool: &[Problem]) -> Vec<u8> {
    match op {
        Op::Transpose {
            problem,
            tenant,
            batch,
        } => {
            let p = &pool[*problem];
            http::transpose_request(&p.extents, &p.perm, &format!("tenant-{tenant:02}"), *batch)
        }
        Op::Explain { problem } => {
            http::explain_request(&pool[*problem].extents, &pool[*problem].perm)
        }
        Op::Metrics => http::metrics_request(),
    }
}

/// Drive one connection through its schedule: send each request when it
/// is due (pipelining behind unanswered ones) and read responses in
/// between. Latency is timed from the due time.
fn drive(
    conn: &mut Conn,
    addr: SocketAddr,
    sched: &[Scheduled],
    raw: &[Vec<u8>],
    start: Instant,
    mut spans: Option<&mut Spans>,
) -> ConnRun {
    let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let mut records: Vec<Record> = sched
        .iter()
        .map(|s| Record {
            due_ns: s.due_ns,
            sent_ns: 0,
            done_ns: None,
            status: None,
            body: Vec::new(),
        })
        .collect();
    let mut inflight = std::collections::VecDeque::new();
    let mut next = 0;
    let mut pending_at_end = 0;
    let last_due = start + Duration::from_nanos(sched.last().map_or(0, |s| s.due_ns));
    loop {
        let now = Instant::now();
        if next < sched.len() && ns(now) >= sched[next].due_ns {
            records[next].sent_ns = ns(now);
            if conn.send(&raw[next]).is_err() {
                // The connection is gone: fail what it held and reconnect.
                inflight.clear();
                match Conn::connect(addr) {
                    Ok(c) => *conn = c,
                    Err(_) => break,
                }
            } else {
                inflight.push_back(next);
            }
            next += 1;
            if next == sched.len() {
                pending_at_end = inflight.len();
            }
            continue;
        }
        if inflight.is_empty() {
            if next == sched.len() {
                break;
            }
            let due = start + Duration::from_nanos(sched[next].due_ns);
            let left = due.saturating_duration_since(now);
            if left > Duration::from_micros(200) {
                std::thread::sleep(left - Duration::from_micros(100));
            } else {
                std::hint::spin_loop();
            }
            continue;
        }
        let deadline = if next < sched.len() {
            start + Duration::from_nanos(sched[next].due_ns)
        } else {
            last_due.max(now) + TAIL
        };
        match conn.recv_until(deadline) {
            Ok(Some(resp)) => {
                let i = inflight
                    .pop_front()
                    .expect("a response answers the oldest request");
                let done = Instant::now();
                records[i].done_ns = Some(ns(done));
                records[i].status = Some(resp.status);
                records[i].body = resp.body;
                if let Some(s) = spans.as_deref_mut() {
                    let name = match sched[i].op {
                        Op::Transpose { .. } => "serve.transpose",
                        Op::Explain { .. } => "serve.explain",
                        Op::Metrics => "serve.metrics_scrape",
                    };
                    s.record(
                        name,
                        start + Duration::from_nanos(records[i].sent_ns),
                        done,
                        None,
                        i as u64,
                    );
                }
            }
            Ok(None) if next == sched.len() => break,
            Ok(None) => {}
            Err(_) => {
                inflight.clear();
                match Conn::connect(addr) {
                    Ok(c) => *conn = c,
                    Err(_) => break,
                }
            }
        }
    }
    ConnRun {
        records,
        pending_at_end,
    }
}

/// The schedules of `k` connections sharing `rate` for `dur`; the first
/// also scrapes `/metrics` when `scrape`.
fn schedules(
    seed: u64,
    stream: u64,
    rate: f64,
    dur: Duration,
    k: usize,
    scrape: bool,
) -> Vec<Vec<Scheduled>> {
    (0..k)
        .map(|c| {
            gen::gateway_schedule(
                seed,
                stream * 16 + c as u64,
                rate / k as f64,
                dur.as_nanos() as u64,
                scrape && c == 0,
            )
        })
        .collect()
}

/// Each connection's schedule and what became of it.
type PhaseRuns = Vec<(Vec<Scheduled>, ConnRun)>;

/// Run one open-loop phase at `rate` for `dur` over all connections.
fn phase(
    s: &mut Setup,
    seed: u64,
    stream: u64,
    rate: f64,
    dur: Duration,
    scrape: bool,
    mut spans: Vec<Option<Spans>>,
) -> (PhaseRuns, Vec<Option<Spans>>) {
    let addr = s.server.addr();
    let k = s.conns.len();
    let scheds = schedules(seed, stream, rate, dur, k, scrape);
    let raws: Vec<Vec<Vec<u8>>> = scheds
        .iter()
        .map(|sch| sch.iter().map(|x| raw_request(&x.op, &s.pool)).collect())
        .collect();
    spans.resize_with(k, || None);
    let start = Instant::now() + Duration::from_millis(2);
    let runs: Vec<ConnRun> = std::thread::scope(|sc| {
        let handles: Vec<_> = s
            .conns
            .iter_mut()
            .zip(&scheds)
            .zip(&raws)
            .zip(spans.iter_mut())
            .map(|(((conn, sch), raw), sp)| {
                sc.spawn(move || drive(conn, addr, sch, raw, start, sp.as_mut()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    (scheds.into_iter().zip(runs).collect(), spans)
}

/// Response bodies kept for the post-run check against the reference.
#[derive(Default)]
struct ToCheck {
    transposes: Vec<(usize, Json)>,
    explains: Vec<(usize, Vec<u8>)>,
}

/// One phase reduced: latency (ms from due time, transposes and
/// explains that succeeded), send lag, counts, and the backlog at its end.
struct PhaseStats {
    lat_ms: Vec<f64>,
    /// Due time of each latency sample, seconds into the phase.
    lat_at_s: Vec<f64>,
    lag_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    ok_bytes: f64,
    pending: usize,
    sent: usize,
    wall_s: f64,
    ok: u64,
}

/// Reduce a phase's records, keeping every `200` body in `check` for the
/// comparison with in-process executions after the run.
fn reduce(
    runs: &PhaseRuns,
    pool: &[Problem],
    counts: &mut ServeCounts,
    check: &mut ToCheck,
) -> PhaseStats {
    let mut st = PhaseStats {
        lat_ms: Vec::new(),
        lat_at_s: Vec::new(),
        lag_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        ok_bytes: 0.0,
        pending: 0,
        sent: 0,
        wall_s: 0.0,
        ok: 0,
    };
    let mut last_done = 0u64;
    for (sched, run) in runs {
        st.pending += run.pending_at_end;
        st.sent += sched.len();
        for (s, r) in sched.iter().zip(&run.records) {
            st.attempted += 1;
            st.lag_ms
                .push(r.sent_ns.saturating_sub(r.due_ns) as f64 / 1e6);
            if let Some(d) = r.done_ns {
                last_done = last_done.max(d);
            }
            let good = match &s.op {
                Op::Transpose { problem, .. } => match counts.classify(r.status, &r.body) {
                    Some(v) => {
                        st.ok_bytes += pool[*problem].bytes_moved();
                        check.transposes.push((*problem, v));
                        true
                    }
                    None => false,
                },
                Op::Explain { problem } => {
                    let ok = r.status == Some(200);
                    if ok {
                        check.explains.push((*problem, r.body.clone()));
                    }
                    ok
                }
                Op::Metrics => r.status == Some(200) && layers::check_metrics_body(&r.body),
            };
            if good {
                st.ok += 1;
                if s.op != Op::Metrics {
                    if let Some(d) = r.done_ns {
                        st.lat_ms.push(d.saturating_sub(r.due_ns) as f64 / 1e6);
                        st.lat_at_s.push(r.due_ns as f64 / 1e9);
                    }
                }
            } else {
                st.failed += 1;
            }
        }
    }
    st.wall_s = last_done as f64 / 1e9;
    st
}

/// Check every kept `200` against an in-process execution of the same
/// problem, counting each mismatch as a failed operation.
fn verify(
    check: &ToCheck,
    pool: &[Problem],
    nproc: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let distinct: BTreeSet<usize> = check
        .transposes
        .iter()
        .map(|(i, _)| *i)
        .chain(check.explains.iter().map(|(i, _)| *i))
        .collect();
    let idx: Vec<usize> = distinct.into_iter().collect();
    let probs: Vec<&Problem> = idx.iter().map(|&i| &pool[i]).collect();
    let refs = common::reference_execs(&probs, nproc, common::iota_input);
    let mut map: HashMap<usize, RefExec> = HashMap::new();
    for (i, r) in idx.into_iter().zip(refs) {
        map.insert(i, r?);
    }
    for (i, body) in &check.transposes {
        if !layers::check_transpose_body(body, &pool[*i], &map[i]) {
            out.fail(
                true,
                &format!(
                    "gateway fields for {} differ from the in-process execution",
                    pool[*i].label()
                ),
            );
        }
    }
    for (i, body) in &check.explains {
        if !layers::check_explain_body(body, &map[i]) {
            out.fail(
                true,
                &format!("explain of {} names another schema", pool[*i].label()),
            );
        }
    }
    Ok(())
}

/// The rates any tenant would be offered on every rung stay within the
/// default quota.
fn assert_quota(rates: &[f64]) -> Result<(), String> {
    let quota = ttlg_serve::QuotaConfig::default().rate_per_sec;
    for &r in rates {
        if gen::tenant_rate(r) > quota {
            return Err(format!(
                "at {r:.0} req/s a tenant would be offered {:.0}/s, over the {quota}/s quota",
                gen::tenant_rate(r)
            ));
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rungs = ladder::rungs();
    let mut all_rates = rungs.clone();
    all_rates.push(NOMINAL_RPS);
    assert_quota(&all_rates)?;

    let (mut s, setup_s, setup_all) = common::repeated_setup(|| setup(ctx), teardown)?;
    out.note("setup_s.samples", format!("{setup_all:?}"));
    let (_, _) = phase(&mut s, ctx.seed, 1, NOMINAL_RPS, WARMUP, true, Vec::new());

    if ctx.trace {
        return traced(ctx, s, out);
    }

    let mut counts = ServeCounts::default();
    let mut check = ToCheck::default();
    let nominal = ctx.duration(NOMINAL_SHARE);
    let probe = ctx.duration((1.0 - NOMINAL_SHARE) / MAX_PROBES);

    let (runs, _) = phase(
        &mut s,
        ctx.seed,
        NOMINAL_STREAM,
        NOMINAL_RPS,
        nominal,
        true,
        Vec::new(),
    );
    let st = reduce(&runs, &s.pool, &mut counts, &mut check);
    out.attempted += st.attempted;
    out.failed += st.failed;
    // Peak memory of the nominal traffic, before probes above capacity
    // pile up backlog.
    let rss = common::peak_rss_mb();

    // The ladder: bisect for the highest rung that meets the limits.
    let mut probe_failures = 0u64;
    let mut probe_once = |i: usize, attempt: u64| {
        let stream = 100 + 2 * i as u64 + attempt;
        let (runs, _) = phase(&mut s, ctx.seed, stream, rungs[i], probe, true, Vec::new());
        let pst = reduce(&runs, &s.pool, &mut ServeCounts::default(), &mut check);
        probe_failures += pst.failed;
        // Let the backlog of an overloaded probe drain before the next.
        std::thread::sleep(Duration::from_millis(50));
        RungResult {
            rate: rungs[i],
            p99_ms: Summary::of(&pst.lat_ms).map_or(f64::INFINITY, |x| x.p99),
            error_rate: pst.failed as f64 / pst.attempted.max(1) as f64,
            backlog_growing: ladder::backlog_growing(pst.pending, pst.sent),
        }
    };
    // A rung fails only if a second probe on fresh traffic fails too, so
    // one descheduled moment of the host does not end the search.
    let (best, probes) = ladder::search(rungs.len(), |i| {
        let first = probe_once(i, 0);
        if first.passes() {
            first
        } else {
            probe_once(i, 1)
        }
    });
    verify(&check, &s.pool, ctx.nproc, &mut out)?;
    let pool = s.pool.clone();
    teardown(s);

    let lat = Summary::of(&st.lat_ms).ok_or("no gateway request completed")?;
    let samples: Vec<(f64, f64)> = st
        .lat_at_s
        .iter()
        .copied()
        .zip(st.lat_ms.iter().copied())
        .collect();
    let win =
        stats::windowed(&samples, stats::WINDOW_SAMPLES).ok_or("no gateway request completed")?;
    out.metric("setup_s", setup_s, "s");
    out.metric("req_per_s", st.ok as f64 / st.wall_s, "1/s");
    out.metric("host_gbps", st.ok_bytes / st.wall_s / 1e9, "GB/s");
    out.metric("latency_p50_ms", win.p50, "ms");
    out.metric("sim_gbps", nominal_sim_gbps(ctx, &pool)?, "GB/s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.note("latency_p99_ms", win.p99);
    out.note("max_rate_rps", best.map_or(0.0, |i| rungs[i]));
    out.note("latency.samples", lat.tail_note());
    out.note("latency.windows", win.note());
    out.note("latency.timed_from", "due time at the nominal rate");
    out.note("nominal_rps", NOMINAL_RPS);
    out.note(
        "gen.lag_p99_ms",
        Summary::of(&st.lag_ms).map_or(0.0, |x| x.p99),
    );
    out.note("ladder.limit_p99_ms", ladder::LIMIT_P99_MS);
    out.note(
        "ladder.probes",
        probes
            .iter()
            .map(|(_, r)| {
                format!(
                    "{:.0}rps:p99={:.2}ms,err={:.3},backlog={}",
                    r.rate, r.p99_ms, r.error_rate, r.backlog_growing
                )
            })
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.note("ladder.probe_failures", probe_failures);
    out.note(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// `sim_gbps` of the nominal phase: the geometric mean of the simulated
/// bandwidth over every transpose it schedules (a function of the seed).
fn nominal_sim_gbps(ctx: &Ctx, pool: &[Problem]) -> Result<f64, String> {
    let scheduled: Vec<usize> = schedules(
        ctx.seed,
        NOMINAL_STREAM,
        NOMINAL_RPS,
        ctx.duration(NOMINAL_SHARE),
        connections(ctx),
        true,
    )
    .into_iter()
    .flatten()
    .filter_map(|s| match s.op {
        Op::Transpose { problem, .. } => Some(problem),
        _ => None,
    })
    .collect();
    let distinct: Vec<usize> = scheduled
        .iter()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let probs: Vec<&Problem> = distinct.iter().map(|&i| &pool[i]).collect();
    let refs = common::reference_execs(&probs, ctx.nproc, common::iota_input);
    let mut bw = HashMap::new();
    for (i, r) in distinct.into_iter().zip(refs) {
        bw.insert(i, r?.bandwidth_gbps);
    }
    Ok(stats::geo_mean(
        &scheduled.iter().map(|i| bw[i]).collect::<Vec<_>>(),
    ))
}

fn traced(ctx: &Ctx, mut s: Setup, mut out: Outcome) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut counts = ServeCounts::default();
    let mut check = ToCheck::default();
    let half = ctx.duration(0.5);
    // An untraced phase on its own seeded stream, then a traced replay of
    // the untraced run's nominal traffic (stream 2): both meet keys the
    // other has not touched, so neither runs on a cache the other warmed.
    let (runs_u, _) = phase(&mut s, ctx.seed, 3, NOMINAL_RPS, half, true, Vec::new());
    let mut scratch = ServeCounts::default();
    let st_u = reduce(&runs_u, &s.pool, &mut scratch, &mut check);
    let cache0 = s.svc.cache_stats();
    let async0 = s.svc.async_stats().unwrap_or_default();
    let k = s.conns.len();
    let (runs_t, spans_t) = phase(
        &mut s,
        ctx.seed,
        NOMINAL_STREAM,
        NOMINAL_RPS,
        half,
        true,
        (0..k).map(|_| Some(Spans::new(epoch))).collect(),
    );
    let st_t = reduce(&runs_t, &s.pool, &mut counts, &mut check);
    let cache1 = s.svc.cache_stats();
    let async1 = s.svc.async_stats().unwrap_or_default();
    for st in [&st_u, &st_t] {
        out.attempted += st.attempted;
        out.failed += st.failed;
    }
    verify(&check, &s.pool, ctx.nproc, &mut out)?;
    let pool = s.pool.clone();
    teardown(s);

    let mut spans = Spans::new(epoch);
    for sp in spans_t.into_iter().flatten() {
        spans.absorb(sp);
    }
    let mut lm = LayerMetrics::new();
    let top: Vec<Problem> = pool.iter().take(32).cloned().collect();
    let opts = PassOpts {
        reps: 3,
        pace: Duration::from_millis(2),
        exports_per_s: 1e9 / gen::METRICS_EVERY_NS as f64,
    };
    layers::pass(ctx, &top, &opts, &mut spans, &mut out, &mut lm)?;

    // The replay's own figures replace the pass's where the gateway
    // traffic is what they describe.
    counts.fill(&mut lm);
    lm.insert(
        "serve.explain.us_p50",
        stats::median(&spans.durations_us("serve.explain")),
    );
    lm.insert(
        "serve.metrics_scrape.us_p50",
        stats::median(&spans.durations_us("serve.metrics_scrape")),
    );
    lm.insert(
        "gen.lag_p99_ms",
        Summary::of(&st_t.lag_ms).map_or(0.0, |x| x.p99),
    );
    layers::set_cache(&mut lm, cache0, cache1);
    let submitted = (async1.submitted - async0.submitted) as f64;
    lm.insert(
        "runtime.async.coalesced_ratio",
        (async1.coalesced - async0.coalesced) as f64 / submitted.max(1.0),
    );
    lm.insert(
        "runtime.async.rejected",
        (async1.rejected - async0.rejected) as f64,
    );
    let p50 = |st: &PhaseStats| Summary::of(&st.lat_ms).map_or(f64::NAN, |x| x.p50);
    lm.insert("trace.overhead_ratio", p50(&st_t) / p50(&st_u));
    lm.insert(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    crate::write_spans(ctx, "gateway", &spans);
    layers::emit(&lm, &mut out)?;
    Ok(out)
}
