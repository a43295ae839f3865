//! The multi-tenant transposition service.
//!
//! [`TransposeService`] wraps a [`Transposer`] with the things a shared
//! deployment needs:
//!
//! 1. a sharded, bounded, single-flight plan cache
//!    ([`ttlg::ShardedPlanCache`]) so concurrent clients never plan the
//!    same problem twice;
//! 2. batched submission: a batch is grouped by plan key, each distinct
//!    problem is planned once (in parallel across the pool), then every
//!    request executes across scoped worker threads under a configurable
//!    in-flight bound (backpressure for the device);
//! 3. lock-free metrics: per-schema request counters, bytes-moved
//!    totals, plan/execute latency histograms, and a prediction-accuracy
//!    tracker, rendered as plain text, Prometheus text, or JSON;
//! 4. tracing: every request becomes a [`RequestTrace`] decomposed into
//!    queue-wait / plan-fetch / execute with cache hit-miss attribution
//!    and the executor's DRAM-efficiency and shared-memory replay rates,
//!    kept in a bounded ring ([`TransposeService::recent_traces`]) and
//!    emitted as a span to an optional [`Subscriber`].

use crate::async_exec::{
    AsyncConfig, AsyncExecutor, AsyncOutcome, AsyncStatsSnapshot, CompletionHook, TicketHandle,
};
use crate::autotune::{
    run_worker, AutotuneConfig, AutotuneSnapshot, AutotuneStats, AutotunerHandle,
};
use crate::metrics::{Metrics, RequestPhase};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use ttlg::{
    Backend, CacheConfig, CacheStats, DecisionTrace, FetchTiming, Plan, PlanError, PlanKey, Schema,
    ShardedPlanCache, TransposeOptions, TransposeReport, Transposer,
};
use ttlg_obs::{
    clock_ns, profile, shape_class, AttrValue, Event, ExemplarBuckets, ExemplarConfig,
    ExemplarStore, MetricKind, MetricsSnapshot, NullSubscriber, PhaseProfile, ProfileOptions,
    RequestTrace, Sample, SloConfig, SloSnapshot, SloTracker, SpanNode, SpanRecord, Subscriber,
    TimeSeriesStore, TraceRing, TsdbConfig,
};
use ttlg_perfmodel::MeasurementSink;
use ttlg_tensor::{parallel, DenseTensor, Element, Permutation};

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads used to plan and execute a batch.
    pub workers: usize,
    /// Max requests executing concurrently (backpressure bound). `0`
    /// means "same as `workers`".
    pub max_in_flight: usize,
    /// Plan-cache geometry (shards x per-shard LRU capacity).
    pub cache: CacheConfig,
    /// Capacity of the recent-request trace ring.
    pub trace_capacity: usize,
    /// Measure-mode autotuning (disabled by default).
    pub autotune: AutotuneConfig,
    /// Latency objective tracked by the built-in [`SloTracker`].
    pub slo: SloConfig,
    /// Retention policy of the slowest-request [`ExemplarStore`].
    pub exemplars: ExemplarConfig,
    /// Retain the planner's full [`DecisionTrace`] on every built plan
    /// so slow-request exemplars carry the planning decision. Costs one
    /// allocation per *planning* (not per request); on by default.
    pub retain_decision_traces: bool,
    /// Geometry of the lazily started completion-queue executor behind
    /// [`TransposeService::submit_async`] (worker count, queue bounds,
    /// coalescing switch).
    pub async_exec: AsyncConfig,
    /// Metrics-history capture: scrape cadence and the retention rings
    /// of the in-memory [`TimeSeriesStore`].
    pub history: HistoryConfig,
}

/// Configuration of the background metrics-history scraper.
#[derive(Debug, Clone, Copy)]
pub struct HistoryConfig {
    /// Whether [`TransposeService::start_history_scraper`] starts a
    /// scraper at all (manual [`TransposeService::scrape_history_once`]
    /// always works). On by default.
    pub enabled: bool,
    /// Scrape cadence of the background scraper, in milliseconds.
    pub scrape_interval_ms: u64,
    /// Retention rings of the history store.
    pub tsdb: TsdbConfig,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        HistoryConfig {
            enabled: true,
            scrape_interval_ms: 1_000,
            tsdb: TsdbConfig::default(),
        }
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        let workers = parallel::default_threads().min(8);
        RuntimeConfig {
            workers,
            max_in_flight: 0,
            cache: CacheConfig::default(),
            trace_capacity: 256,
            autotune: AutotuneConfig::default(),
            slo: SloConfig::default(),
            exemplars: ExemplarConfig::default(),
            retain_decision_traces: true,
            async_exec: AsyncConfig::default(),
            history: HistoryConfig::default(),
        }
    }
}

/// One unit of client work: transpose `input` by `perm` under `opts`.
#[derive(Clone)]
pub struct TransposeRequest<E: Element> {
    /// Input tensor (shared; batches often reuse one tensor).
    pub input: Arc<DenseTensor<E>>,
    /// The permutation to apply.
    pub perm: Permutation,
    /// Planning options (part of the plan key).
    pub opts: TransposeOptions,
}

impl<E: Element> TransposeRequest<E> {
    /// A request with default planning options.
    pub fn new(input: Arc<DenseTensor<E>>, perm: Permutation) -> Self {
        TransposeRequest {
            input,
            perm,
            opts: TransposeOptions::default(),
        }
    }

    /// The cache fingerprint this request plans under.
    pub fn plan_key(&self) -> PlanKey {
        PlanKey::new(self.input.shape(), &self.perm, &self.opts)
    }
}

/// A completed request.
pub struct TransposeResponse<E: Element> {
    /// The transposed tensor.
    pub output: DenseTensor<E>,
    /// Simulator timing/bandwidth report.
    pub report: TransposeReport,
}

/// Service-level error: cloneable so one failed plan can be fanned out
/// to every request in the batch that shared it.
#[derive(Debug, Clone)]
pub struct ServeError {
    /// Human-readable failure description.
    pub message: String,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ServeError {}

impl From<PlanError> for ServeError {
    fn from(e: PlanError) -> Self {
        ServeError {
            message: e.to_string(),
        }
    }
}

/// Result of one request through the service.
pub type ServeResult<E> = Result<TransposeResponse<E>, ServeError>;

/// Outcome of [`TransposeService::submit_spanned`]: the response, the
/// flat phase trace, a service-side span forest ready to graft under a
/// caller-owned root span, and the planner's decision trace (when
/// retention is on and the plan was built rather than replayed).
pub struct SpannedOutcome<E: Element> {
    /// The request outcome.
    pub result: ServeResult<E>,
    /// Flat queue/plan/execute phase attribution.
    pub trace: RequestTrace,
    /// Service-side spans: `plan` (children `cache-lookup`,
    /// `plan-build` with `alg3-sweep`), `queue-wait`, `execute`
    /// (children `kernel-launch`, `kernel`).
    pub spans: Vec<SpanNode>,
    /// The full planning decision trace, if retained.
    pub decision: Option<Arc<DecisionTrace>>,
}

/// Assemble the service-side span forest for one spanned request. Child
/// starts are laid out sequentially from their parent's start: the
/// phases genuinely are sequential here (lookup then build then sweep;
/// launch then kernel), so the layout is faithful, not cosmetic.
#[allow(clippy::too_many_arguments)]
fn build_service_spans(
    plan_start: u64,
    fetch_ns: u64,
    timing: FetchTiming,
    hit: bool,
    sweep_ns: u64,
    candidates: usize,
    launch_ns: u64,
    trace: &RequestTrace,
) -> Vec<SpanNode> {
    let mut plan_span = SpanNode::new("plan", plan_start, fetch_ns)
        .with_attr("cache", if hit { "hit" } else { "miss" })
        .with_child(SpanNode::new("cache-lookup", plan_start, timing.lookup_ns));
    if !hit && timing.build_ns > 0 {
        let build_start = plan_start + timing.lookup_ns;
        let mut build = SpanNode::new("plan-build", build_start, timing.build_ns);
        if sweep_ns > 0 {
            build = build.with_child(
                SpanNode::new("alg3-sweep", build_start, sweep_ns)
                    .with_attr("candidates", candidates.to_string()),
            );
        }
        plan_span = plan_span.with_child(build);
    }
    let queue_span = SpanNode::new("queue-wait", trace.start_ns, trace.queue_wait_ns);
    let exec_start = trace.start_ns + trace.queue_wait_ns;
    let mut exec_span = SpanNode::new("execute", exec_start, trace.execute_ns)
        .with_attr("schema", trace.schema.clone());
    if let Some(err) = &trace.error {
        exec_span = exec_span.with_attr("error", err.clone());
    }
    if trace.ok {
        let kernel_ns = trace.measured_ns.max(0.0) as u64;
        exec_span = exec_span
            .with_child(SpanNode::new("kernel-launch", exec_start, launch_ns))
            .with_child(
                SpanNode::new("kernel", exec_start + launch_ns, kernel_ns)
                    .with_attr("predicted_ns", format!("{:.0}", trace.predicted_ns))
                    .with_attr("dram_efficiency", format!("{:.3}", trace.dram_efficiency))
                    .with_attr("smem_replay", format!("{:.3}", trace.smem_replay_rate)),
            );
    }
    vec![plan_span, queue_span, exec_span]
}

/// Counting semaphore bounding in-flight executions (std has none).
struct Semaphore {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Semaphore {
    fn new(permits: usize) -> Self {
        Semaphore {
            permits: Mutex::new(permits),
            freed: Condvar::new(),
        }
    }

    /// Take a permit; it returns to the semaphore when the guard drops,
    /// also when the holder panics.
    fn acquire(&self) -> Permit<'_> {
        let mut p = self.permits.lock().expect("semaphore poisoned");
        while *p == 0 {
            p = self.freed.wait(p).expect("semaphore poisoned");
        }
        *p -= 1;
        Permit(self)
    }
}

/// One held [`Semaphore`] permit.
struct Permit<'a>(&'a Semaphore);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // Drop may run while unwinding, where a second panic aborts; the
        // count is a single integer, valid after any interrupted update.
        let mut p = self
            .0
            .permits
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *p += 1;
        self.0.freed.notify_one();
    }
}

/// Hot-key bookkeeping for the autotuner.
#[derive(Debug, Default, Clone, Copy)]
struct HotKeyState {
    /// Requests observed for this key.
    requests: u64,
    /// Candidate measurements already spent on this key.
    measured: usize,
    /// Whether this key has been tuned (or claimed for tuning).
    tuned: bool,
    /// Request count at the last autotune cycle (idle detection).
    seen_requests: u64,
    /// Consecutive autotune cycles with no new requests.
    idle_cycles: u64,
}

/// The concurrent transposition service. See the module docs.
pub struct TransposeService<E: Element> {
    transposer: Transposer,
    cache: ShardedPlanCache<E>,
    metrics: Metrics,
    in_flight: Semaphore,
    workers: usize,
    /// Inner-executor thread cap per request while a batch is running:
    /// the machine's parallelism divided among the in-flight bound, so
    /// concurrent executes share cores instead of oversubscribing.
    exec_threads: usize,
    traces: TraceRing<RequestTrace>,
    subscriber: Arc<dyn Subscriber>,
    next_id: AtomicU64,
    autotune: AutotuneConfig,
    hot: Mutex<HashMap<PlanKey, HotKeyState>>,
    tuner_stats: AutotuneStats,
    sink: Option<Arc<dyn MeasurementSink>>,
    slo: SloTracker,
    exemplars: ExemplarStore<Arc<DecisionTrace>>,
    /// The completion-queue executor, started on first `submit_async`.
    async_core: OnceLock<AsyncExecutor<E>>,
    async_cfg: AsyncConfig,
    /// Metrics history: the delta-encoded time-series store fed by
    /// [`Self::scrape_history_once`] / the background scraper.
    history: TimeSeriesStore,
    history_cfg: HistoryConfig,
    /// Optional snapshot source for scrapes. The gateway installs one
    /// that returns its *merged* snapshot (service + gateway + alert
    /// families) so history covers everything an operator can scrape;
    /// with no source, scrapes fall back to [`Self::metrics_snapshot`].
    history_source: Mutex<Option<HistorySource>>,
    /// Background scraper thread, if started.
    scraper: Mutex<Option<ScraperHandle>>,
    /// History persistence target (`ttlg serve --history-file`).
    history_file: Mutex<Option<PathBuf>>,
    /// Process start, for `ttlg_uptime_seconds`.
    started: Instant,
}

/// Closure producing the snapshot a history scrape ingests. `None`
/// means "skip this scrape" (e.g. the gateway is shutting down).
type HistorySource = Arc<dyn Fn() -> Option<MetricsSnapshot> + Send + Sync>;

/// Stop flag + join handle of the background history scraper.
struct ScraperHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    join: std::thread::JoinHandle<()>,
}

impl<E: Element> TransposeService<E> {
    /// Build a service around an existing transposer.
    pub fn with_config(transposer: Transposer, cfg: RuntimeConfig) -> Self {
        let workers = cfg.workers.max(1);
        let bound = if cfg.max_in_flight == 0 {
            workers
        } else {
            cfg.max_in_flight
        };
        let bound = bound.max(1);
        transposer.set_trace_retention(cfg.retain_decision_traces);
        TransposeService {
            transposer,
            cache: ShardedPlanCache::with_config(cfg.cache),
            metrics: Metrics::new(),
            in_flight: Semaphore::new(bound),
            workers,
            exec_threads: (parallel::default_threads() / bound).max(1),
            traces: TraceRing::new(cfg.trace_capacity),
            subscriber: Arc::new(NullSubscriber),
            next_id: AtomicU64::new(0),
            autotune: cfg.autotune,
            hot: Mutex::new(HashMap::new()),
            tuner_stats: AutotuneStats::default(),
            sink: None,
            slo: SloTracker::new(cfg.slo),
            exemplars: ExemplarStore::new(cfg.exemplars),
            async_core: OnceLock::new(),
            async_cfg: cfg.async_exec,
            history: TimeSeriesStore::new(cfg.history.tsdb),
            history_cfg: cfg.history,
            history_source: Mutex::new(None),
            scraper: Mutex::new(None),
            history_file: Mutex::new(None),
            started: Instant::now(),
        }
    }

    /// A service on the paper's K40c with default configuration.
    pub fn new_k40c() -> Self {
        Self::with_config(Transposer::new_k40c(), RuntimeConfig::default())
    }

    /// Attach a tracing subscriber; every request span and plan-failure
    /// event is delivered to it.
    pub fn with_subscriber(mut self, subscriber: Arc<dyn Subscriber>) -> Self {
        self.subscriber = subscriber;
        self
    }

    /// Attach a measurement sink: every candidate timing the autotuner
    /// measures is streamed to it (e.g. an
    /// [`ttlg_perfmodel::OnlinePredictor`] refining the regression
    /// models online).
    pub fn with_measurement_sink(mut self, sink: Arc<dyn MeasurementSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// The underlying transposer (e.g. for direct plan queries).
    pub fn transposer(&self) -> &Transposer {
        &self.transposer
    }

    /// Cache counters (hits/misses/evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resident plans in the cache.
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }

    /// Service metrics (counters + histograms + prediction tracker).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Render the plain-text metrics report.
    pub fn metrics_report(&self) -> String {
        self.metrics.render(&self.cache.stats())
    }

    /// Capture metrics as a renderer-neutral snapshot, including the
    /// tail-attribution families: trace-ring drops, SLO state, exemplar
    /// retention, and the per-`(schema, shape-class)` phase profiles.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot(&self.cache.stats());
        snap.push_metric(
            "ttlg_trace_dropped_total",
            "Request traces silently dropped before they could be read.",
            MetricKind::Counter,
            vec![Sample::labelled(
                "source",
                "trace-ring",
                self.trace_dropped() as f64,
            )],
        );
        snap.push_metric(
            "ttlg_exemplars_retained",
            "Slow-request exemplars currently retained.",
            MetricKind::Gauge,
            vec![Sample::plain(self.exemplars.total_retained() as f64)],
        );
        snap.push_metric(
            "ttlg_cache_pinned_plans",
            "Measured-best plans pinned in the cache (exempt from LRU eviction).",
            MetricKind::Gauge,
            vec![Sample::plain(self.cache.pinned_plans() as f64)],
        );
        let astats = self.async_stats().unwrap_or_default();
        snap.push_metric(
            "ttlg_completion_queue_depth",
            "Completion records queued for delivery by the async executor.",
            MetricKind::Gauge,
            vec![Sample::plain(astats.completion_depth as f64)],
        );
        self.slo.export_into(&mut snap, clock_ns());
        profile::export_into(&mut snap, &self.phase_profiles());
        snap.push_metric(
            "ttlg_uptime_seconds",
            "Seconds since this service was constructed — a process-restart \
             marker for history consumers (a drop means counter resets follow).",
            MetricKind::Gauge,
            vec![Sample::plain(self.started.elapsed().as_secs_f64())],
        );
        let mut backends: Vec<&str> = Backend::ALL.iter().map(|b| b.label()).collect();
        backends.sort_unstable();
        snap.push_metric(
            "ttlg_build_info",
            "Constant 1 carrying the crate version and compiled backend set.",
            MetricKind::Gauge,
            vec![Sample {
                labels: vec![
                    ("version".to_string(), env!("CARGO_PKG_VERSION").to_string()),
                    ("backend_set".to_string(), backends.join(",")),
                ],
                value: 1.0,
            }],
        );
        self.history.export_into(&mut snap);
        snap
    }

    /// Traces lost to ring wraparound (`pushed - capacity`, saturating).
    pub fn trace_dropped(&self) -> u64 {
        self.traces
            .pushed()
            .saturating_sub(self.traces.capacity() as u64)
    }

    /// Fold the current trace ring into per-`(schema, shape-class)`
    /// phase profiles (hottest first). Offline aggregation: costs
    /// nothing on the request path.
    pub fn phase_profiles(&self) -> Vec<PhaseProfile> {
        profile::aggregate(&self.traces.snapshot(), &ProfileOptions::default())
    }

    /// Render the phase profiles as a flame-style text tree.
    pub fn render_profile(&self) -> String {
        profile::render_flame(&self.phase_profiles())
    }

    /// All retained exemplars, slowest-first within each bucket.
    pub fn exemplars(&self) -> ExemplarBuckets<Arc<DecisionTrace>> {
        self.exemplars.snapshot()
    }

    /// Point-in-time SLO state (hit ratio + burn rates).
    pub fn slo_snapshot(&self) -> SloSnapshot {
        self.slo.snapshot(clock_ns())
    }

    /// Export metrics in Prometheus text exposition format.
    pub fn export_prometheus(&self) -> String {
        ttlg_obs::prom::render(&self.metrics_snapshot())
    }

    /// Export metrics as a JSON document.
    pub fn export_json(&self) -> String {
        ttlg_obs::json::render(&self.metrics_snapshot())
    }

    /// The `n` most recent request traces, newest first.
    pub fn recent_traces(&self, n: usize) -> Vec<RequestTrace> {
        self.traces.recent(n)
    }

    /// Fetch (or build, single-flight) the plan for one request, timing
    /// the fetch into the plan-latency histogram. Returns the plan, a
    /// served-from-cache flag, the lookup/build split, and the fetch
    /// wall time.
    #[allow(clippy::type_complexity)]
    fn fetch_plan(
        &self,
        req: &TransposeRequest<E>,
        key: &PlanKey,
    ) -> (Result<(Arc<Plan<E>>, bool, FetchTiming), ServeError>, u64) {
        let t0 = Instant::now();
        let fetched = self.cache.get_or_plan_keyed_timed(
            &self.transposer,
            key,
            req.input.shape(),
            &req.perm,
            &req.opts,
        );
        let elapsed = t0.elapsed().as_nanos() as u64;
        match fetched {
            Ok((plan, hit, timing)) => {
                self.metrics.plan_latency.record_ns(elapsed);
                (Ok((plan, hit, timing)), elapsed)
            }
            Err(e) => {
                self.metrics.record_failure(RequestPhase::Plan, elapsed);
                self.subscriber.on_event(&Event {
                    name: "plan-failure",
                    at_ns: clock_ns(),
                    attrs: vec![("error", AttrValue::Str(e.to_string()))],
                });
                (Err(ServeError::from(e)), elapsed)
            }
        }
    }

    /// Execute one planned request under the in-flight bound, producing
    /// a fully attributed [`RequestTrace`] (returned alongside the
    /// outcome so callers such as the gateway can fold the exact phase
    /// decomposition into their own accounting).
    fn execute_traced(
        &self,
        req: &TransposeRequest<E>,
        plan: &Arc<Plan<E>>,
        cache_hit: bool,
        plan_fetch_ns: u64,
    ) -> (ServeResult<E>, RequestTrace) {
        let mut trace = RequestTrace {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: clock_ns(),
            cache_hit: Some(cache_hit),
            plan_fetch_ns,
            shape_class: shape_class(req.input.shape().extents()),
            warmed: plan.is_measured(),
            ..Default::default()
        };
        let tq = Instant::now();
        let permit = self.in_flight.acquire();
        trace.queue_wait_ns = tq.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        let result = self.transposer.execute(plan, &req.input);
        let execute_ns = t0.elapsed().as_nanos() as u64;
        drop(permit);
        trace.execute_ns = execute_ns;
        let outcome = match result {
            Ok((output, report)) => {
                self.metrics.exec_latency.record_ns(execute_ns);
                self.metrics.record_backend(plan.backend(), execute_ns);
                let bytes = 2 * req.input.volume() as u64 * E::BYTES as u64;
                self.metrics.record_request(report.schema, bytes);
                self.metrics.record_prediction(
                    report.schema,
                    report.predicted_ns,
                    report.kernel_time_ns,
                );
                // Fold the foreground residual stream into refinement:
                // served requests are also (candidate, measured) training
                // points, so cold keys refine the online model without
                // waiting for the autotuner to re-measure them. A GpuSim
                // plan's simulated time is the same on every execution,
                // so only the request that built the plan feeds it (one
                // point per plan, no overweighted hot keys); CPU
                // wall-clock times really vary and feed on every request.
                let fresh_point = !cache_hit || plan.backend() == Backend::Cpu;
                if let Some(sink) = self.sink.as_ref().filter(|_| fresh_point) {
                    sink.observe_candidate(plan.candidate(), report.kernel_time_ns);
                    self.metrics.record_residual_point();
                }
                trace.ok = true;
                trace.schema = report.schema.to_string();
                trace.predicted_ns = report.predicted_ns;
                trace.measured_ns = report.kernel_time_ns;
                trace.dram_efficiency = report.stats.dram_efficiency(E::BYTES);
                trace.smem_replay_rate = report.stats.smem_replay_rate();
                Ok(TransposeResponse { output, report })
            }
            Err(e) => {
                self.metrics
                    .record_failure(RequestPhase::Execute, execute_ns);
                trace.schema = plan.schema().to_string();
                trace.error = Some(e.to_string());
                Err(ServeError::from(e))
            }
        };
        let copy = trace.clone();
        self.finish_trace(trace, plan.decision_trace().cloned());
        (outcome, copy)
    }

    /// Record a request that died before it had a plan (the cache never
    /// answered, so `cache_hit` stays `None`).
    fn record_plan_failure(
        &self,
        req: &TransposeRequest<E>,
        plan_fetch_ns: u64,
        err: &ServeError,
    ) -> RequestTrace {
        let trace = RequestTrace {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: clock_ns(),
            plan_fetch_ns,
            shape_class: shape_class(req.input.shape().extents()),
            error: Some(err.message.clone()),
            ..Default::default()
        };
        let copy = trace.clone();
        self.finish_trace(trace, None);
        copy
    }

    /// Push a finished trace to the ring, emit its span, and feed the
    /// tail-attribution layer (SLO tracker + exemplar store).
    fn finish_trace(&self, trace: RequestTrace, decision: Option<Arc<DecisionTrace>>) {
        self.subscriber.on_span(&SpanRecord {
            name: "request",
            start_ns: trace.start_ns,
            duration_ns: trace.total_ns(),
            attrs: vec![
                ("id", AttrValue::U64(trace.id)),
                ("schema", AttrValue::Str(trace.schema.clone())),
                ("ok", AttrValue::Bool(trace.ok)),
                (
                    "cache",
                    AttrValue::Str(
                        match trace.cache_hit {
                            Some(true) => "hit",
                            Some(false) => "miss",
                            None => "none",
                        }
                        .to_string(),
                    ),
                ),
                ("queue_wait_ns", AttrValue::U64(trace.queue_wait_ns)),
                ("plan_fetch_ns", AttrValue::U64(trace.plan_fetch_ns)),
                ("execute_ns", AttrValue::U64(trace.execute_ns)),
                ("predicted_ns", AttrValue::F64(trace.predicted_ns)),
                ("measured_ns", AttrValue::F64(trace.measured_ns)),
                ("dram_efficiency", AttrValue::F64(trace.dram_efficiency)),
                ("smem_replay_rate", AttrValue::F64(trace.smem_replay_rate)),
                ("shape_class", AttrValue::Str(trace.shape_class.clone())),
                ("warmed", AttrValue::Bool(trace.warmed)),
            ],
        });
        self.slo.record(trace.total_ns(), clock_ns());
        self.exemplars.offer(&trace, decision.as_ref());
        self.traces.push(trace);
    }

    /// Serve a single request (plan via the shared cache, execute under
    /// the in-flight bound).
    pub fn submit(&self, req: &TransposeRequest<E>) -> ServeResult<E> {
        self.submit_traced(req).0
    }

    /// [`Self::submit`], also returning the request's finished
    /// [`RequestTrace`] so network-facing callers can attribute
    /// queue/plan/execute phases per request without racing the trace
    /// ring.
    pub fn submit_traced(&self, req: &TransposeRequest<E>) -> (ServeResult<E>, RequestTrace) {
        let key = req.plan_key();
        let (fetched, fetch_ns) = self.fetch_plan(req, &key);
        match fetched {
            Ok((plan, hit, _)) => {
                self.note_request(&key);
                self.execute_traced(req, &plan, hit, fetch_ns)
            }
            Err(e) => {
                let trace = self.record_plan_failure(req, fetch_ns, &e);
                (Err(e), trace)
            }
        }
    }

    /// [`Self::submit_traced`], additionally returning a service-side
    /// span forest (plan with cache-lookup / plan-build / alg3-sweep
    /// children; queue-wait; execute with kernel-launch / kernel
    /// children) and the planner's decision trace when retained.
    /// Network-facing callers graft these under their own root span to
    /// form the full request span tree.
    pub fn submit_spanned(&self, req: &TransposeRequest<E>) -> SpannedOutcome<E> {
        let key = req.plan_key();
        let plan_start = clock_ns();
        let (fetched, fetch_ns) = self.fetch_plan(req, &key);
        match fetched {
            Ok((plan, hit, timing)) => {
                self.note_request(&key);
                let decision = plan.decision_trace().cloned();
                let sweep_ns = plan.sweep_wall_ns();
                let candidates = plan.candidates_evaluated();
                let launch_ns = self.transposer.device().launch_overhead_ns as u64;
                let (result, trace) = self.execute_traced(req, &plan, hit, fetch_ns);
                let spans = build_service_spans(
                    plan_start, fetch_ns, timing, hit, sweep_ns, candidates, launch_ns, &trace,
                );
                SpannedOutcome {
                    result,
                    trace,
                    spans,
                    decision,
                }
            }
            Err(e) => {
                let trace = self.record_plan_failure(req, fetch_ns, &e);
                let plan_span = SpanNode::new("plan", plan_start, fetch_ns)
                    .with_attr("error", e.message.clone());
                SpannedOutcome {
                    result: Err(e),
                    trace,
                    spans: vec![plan_span],
                    decision: None,
                }
            }
        }
    }

    /// The latency objective the built-in [`SloTracker`] enforces, so
    /// callers can force-sample requests that missed it.
    pub fn slo_config(&self) -> SloConfig {
        self.slo.config()
    }

    // ---- async submission ---------------------------------------------

    /// Non-blocking submission: hand `req` to the completion-queue
    /// executor and return a [`TicketHandle`] immediately. The handle
    /// can be polled (never blocks) or waited on (parks the calling
    /// thread until a worker finishes the request and the dispatcher
    /// delivers the completion record). Identical in-flight problems —
    /// same plan-key fingerprint, same input tensor `Arc` — coalesce
    /// onto one execution; every coalesced waiter receives the shared
    /// result and its own [`RequestTrace`] marked `coalesced`. When the
    /// submission queue is full the ticket completes inline with an
    /// overload error rather than blocking the caller.
    pub fn submit_async(self: &Arc<Self>, req: TransposeRequest<E>) -> TicketHandle<E> {
        self.async_executor().submit(req, None)
    }

    /// [`Self::submit_async`] with a completion hook: the closure runs
    /// exactly once on the dispatcher thread after the result is
    /// delivered. Push-style consumers (the gateway) use this to drain
    /// the completion queue without parking a thread per request.
    pub fn submit_async_hooked(
        self: &Arc<Self>,
        req: TransposeRequest<E>,
        hook: CompletionHook<E>,
    ) -> TicketHandle<E> {
        self.async_executor().submit(req, Some(hook))
    }

    /// Executor counters, `None` until the first `submit_async` starts
    /// the executor.
    pub fn async_stats(&self) -> Option<AsyncStatsSnapshot> {
        self.async_core.get().map(|c| c.stats())
    }

    fn async_executor(self: &Arc<Self>) -> &AsyncExecutor<E> {
        self.async_core.get_or_init(|| {
            AsyncExecutor::start(Arc::downgrade(self), self.async_cfg, self.workers)
        })
    }

    /// One leader execution on an async worker thread: full
    /// `submit_spanned` semantics with the response `Arc`-wrapped so
    /// coalesced followers can share it.
    pub(crate) fn run_async_leader(&self, req: &TransposeRequest<E>) -> AsyncOutcome<E> {
        let out = self.submit_spanned(req);
        AsyncOutcome {
            result: out.result.map(Arc::new),
            trace: out.trace,
            spans: out.spans,
            decision: out.decision,
            coalesced: false,
        }
    }

    /// Account a leader whose execution panicked on an async worker:
    /// count it in the execute-phase failure series, leave an error
    /// trace, and return the error outcome the leader and its coalesced
    /// followers complete with.
    pub(crate) fn async_leader_panicked(
        &self,
        req: &TransposeRequest<E>,
        elapsed_ns: u64,
        cause: &(dyn std::any::Any + Send),
    ) -> AsyncOutcome<E> {
        let what = cause
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| cause.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        self.metrics
            .record_failure(RequestPhase::Execute, elapsed_ns);
        let err = ServeError {
            message: format!("request panicked: {what}"),
        };
        let trace = RequestTrace {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: clock_ns(),
            execute_ns: elapsed_ns,
            shape_class: shape_class(req.input.shape().extents()),
            error: Some(err.message.clone()),
            ..Default::default()
        };
        self.finish_trace(trace.clone(), None);
        AsyncOutcome {
            result: Err(err),
            trace,
            spans: Vec::new(),
            decision: None,
            coalesced: false,
        }
    }

    /// Account one coalesced delivery: the request is counted
    /// (requests/bytes/SLO/hotness) and leaves its own ring trace marked
    /// `coalesced` with the leader's measured numbers copied in, but no
    /// execution-side series (exec latency, backend histograms,
    /// prediction residuals) are touched — nothing executed.
    pub(crate) fn deliver_coalesced(
        &self,
        req: &TransposeRequest<E>,
        leader: &AsyncOutcome<E>,
    ) -> RequestTrace {
        let schema = leader.result.as_ref().ok().map(|r| r.report.schema);
        self.coalesced_accounting(req, &leader.trace, schema, leader.decision.clone())
    }

    /// Shared bookkeeping for both coalescing paths (async single-flight
    /// and within-batch dedup).
    fn coalesced_accounting(
        &self,
        req: &TransposeRequest<E>,
        leader_trace: &RequestTrace,
        schema: Option<Schema>,
        decision: Option<Arc<DecisionTrace>>,
    ) -> RequestTrace {
        let trace = RequestTrace {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            start_ns: clock_ns(),
            schema: leader_trace.schema.clone(),
            shape_class: leader_trace.shape_class.clone(),
            warmed: leader_trace.warmed,
            ok: leader_trace.ok,
            cache_hit: Some(true),
            queue_wait_ns: 0,
            plan_fetch_ns: 0,
            execute_ns: leader_trace.execute_ns,
            predicted_ns: leader_trace.predicted_ns,
            measured_ns: leader_trace.measured_ns,
            dram_efficiency: leader_trace.dram_efficiency,
            smem_replay_rate: leader_trace.smem_replay_rate,
            coalesced: true,
            error: leader_trace.error.clone(),
        };
        if let Some(schema) = schema {
            let bytes = 2 * req.input.volume() as u64 * E::BYTES as u64;
            self.metrics.record_request(schema, bytes);
        }
        self.metrics.record_coalesced();
        self.note_request(&req.plan_key());
        let copy = trace.clone();
        self.finish_trace(trace, decision);
        copy
    }

    /// Serve a batch: requests are grouped by plan key, each distinct
    /// problem is planned exactly once (in parallel across the worker
    /// pool); then each *unique in-flight problem* — same plan-key
    /// fingerprint, same input tensor — executes exactly once, with
    /// duplicates coalescing onto the representative's execution (their
    /// responses copy the shared output and their traces are marked
    /// `coalesced`). Responses come back in request order.
    pub fn submit_batch(&self, reqs: &[TransposeRequest<E>]) -> Vec<ServeResult<E>> {
        self.metrics.record_batch();
        // Group by plan key so each distinct problem plans once.
        let keys: Vec<PlanKey> = reqs.iter().map(|r| r.plan_key()).collect();
        let mut groups: HashMap<&PlanKey, usize> = HashMap::new();
        let mut distinct: Vec<usize> = Vec::new(); // representative request per key
        for (i, k) in keys.iter().enumerate() {
            groups.entry(k).or_insert_with(|| {
                distinct.push(i);
                distinct.len() - 1
            });
        }
        // Group by execution identity (plan-key fingerprint + input
        // `Arc`) so duplicate identical problems execute once — the
        // within-batch form of the async path's single-flight table.
        let exec_key = |i: usize| {
            (
                keys[i].problem_fingerprint(),
                Arc::as_ptr(&reqs[i].input) as usize,
            )
        };
        let mut exec_groups: HashMap<(u64, usize), usize> = HashMap::new();
        let mut exec_reps: Vec<usize> = Vec::new(); // representative request per execution
        for i in 0..reqs.len() {
            exec_groups.entry(exec_key(i)).or_insert_with(|| {
                exec_reps.push(i);
                exec_reps.len() - 1
            });
        }

        // Phase 1: plan every distinct problem across the pool. Each
        // slot keeps the cache-hit flag and fetch time so phase 2 can
        // attribute them to every request sharing the plan.
        #[allow(clippy::type_complexity)]
        let plans: Vec<
            OnceLock<(Result<(Arc<Plan<E>>, bool, FetchTiming), ServeError>, u64)>,
        > = (0..distinct.len()).map(|_| OnceLock::new()).collect();
        parallel::parallel_for_threads(distinct.len(), 1, self.workers, |g| {
            let i = distinct[g];
            let built = self.fetch_plan(&reqs[i], &keys[i]);
            plans[g].set(built).ok().expect("plan slot set twice");
        });

        // Phase 2: execute one representative per unique problem across
        // the pool, bounded by the in-flight semaphore.
        #[allow(clippy::type_complexity)]
        let executed: Vec<OnceLock<(ServeResult<E>, Option<RequestTrace>)>> =
            (0..exec_reps.len()).map(|_| OnceLock::new()).collect();
        parallel::parallel_for_threads(exec_reps.len(), 1, self.workers, |x| {
            let i = exec_reps[x];
            let g = groups[&keys[i]];
            let (fetched, fetch_ns) = plans[g].get().expect("plan phase completed");
            let outcome = match fetched {
                // Cap the executor's inner parallelism so the batch's
                // concurrent requests share cores instead of each
                // spawning a full-machine pool. Only the plan group's
                // representative actually touched the cache; every other
                // execution was served from the shared plan — a hit.
                Ok((plan, hit, _)) => {
                    self.note_request(&keys[i]);
                    parallel::with_thread_cap(self.exec_threads, || {
                        let hit = *hit || i != distinct[g];
                        let (res, trace) = self.execute_traced(&reqs[i], plan, hit, *fetch_ns);
                        (res, Some(trace))
                    })
                }
                Err(e) => {
                    let _ = self.record_plan_failure(&reqs[i], *fetch_ns, e);
                    (Err(e.clone()), None)
                }
            };
            executed[x]
                .set(outcome)
                .ok()
                .expect("result slot set twice");
        });

        // Phase 3: fan the shared executions out to every request, in
        // order. Duplicates copy the representative's output, are fully
        // accounted (request counters, SLO, hotness), and leave their
        // own ring trace marked `coalesced`; plan failures are
        // re-recorded per request, as before.
        let mut out: Vec<Option<ServeResult<E>>> = Vec::with_capacity(reqs.len());
        out.resize_with(reqs.len(), || None);
        for (i, slot) in out.iter_mut().enumerate() {
            let x = exec_groups[&exec_key(i)];
            if i == exec_reps[x] {
                continue; // takes the original result below
            }
            let (result, leader_trace) = executed[x].get().expect("exec phase completed");
            let g = groups[&keys[i]];
            *slot = Some(match (result, leader_trace) {
                (Ok(resp), Some(trace)) => {
                    let decision = plans[g]
                        .get()
                        .and_then(|(f, _)| f.as_ref().ok())
                        .and_then(|(plan, _, _)| plan.decision_trace().cloned());
                    let _ = self.coalesced_accounting(
                        &reqs[i],
                        trace,
                        Some(resp.report.schema),
                        decision,
                    );
                    Ok(TransposeResponse {
                        output: resp.output.clone(),
                        report: resp.report.clone(),
                    })
                }
                // The shared execution failed: the duplicate shares the
                // failure (and its coalesced trace carries the error).
                (Err(e), Some(trace)) => {
                    let _ = self.coalesced_accounting(&reqs[i], trace, None, None);
                    Err(e.clone())
                }
                // Planning failed: every request that shared the key
                // records its own plan-failure trace.
                (Err(e), None) => {
                    let fetch_ns = plans[g].get().map(|(_, ns)| *ns).unwrap_or(0);
                    let _ = self.record_plan_failure(&reqs[i], fetch_ns, e);
                    Err(e.clone())
                }
                (Ok(_), None) => unreachable!("successful executions always carry a trace"),
            });
        }
        for (x, slot) in executed.into_iter().enumerate() {
            let (result, _) = slot.into_inner().expect("exec phase completed");
            out[exec_reps[x]] = Some(result);
        }
        out.into_iter()
            .map(|r| r.expect("every request produced a result"))
            .collect()
    }

    // ---- measure-mode autotuning -------------------------------------

    /// Count a successfully planned request toward its key's hotness
    /// (no-op unless autotuning is enabled — the kill switch costs one
    /// branch).
    fn note_request(&self, key: &PlanKey) {
        if !self.autotune.enabled {
            return;
        }
        let mut hot = self.hot.lock().expect("hot map poisoned");
        hot.entry(key.clone()).or_default().requests += 1;
    }

    /// Autotuner counters.
    pub fn autotune_stats(&self) -> AutotuneSnapshot {
        self.tuner_stats.snapshot()
    }

    /// Tune every key currently due (hot and not yet tuned). Returns the
    /// number of keys tuned. This is the autotuner's unit of work: call
    /// it directly for deterministic tests/benchmarks, or let the
    /// background worker of [`Self::start_autotuner`] drive it.
    pub fn autotune_once(&self) -> usize {
        if !self.autotune.enabled {
            return 0;
        }
        let due: Vec<PlanKey> = {
            let mut hot = self.hot.lock().expect("hot map poisoned");
            hot.iter_mut()
                .filter(|(_, s)| {
                    !s.tuned
                        && s.requests >= self.autotune.hot_threshold
                        && s.measured < self.autotune.budget_per_key
                })
                .map(|(k, s)| {
                    // Claim eagerly so concurrent tuners never double-tune.
                    s.tuned = true;
                    k.clone()
                })
                .collect()
        };
        for key in &due {
            match self.tune_key(key) {
                Ok(measured) => {
                    self.tuner_stats.keys_tuned.fetch_add(1, Ordering::Relaxed);
                    let mut hot = self.hot.lock().expect("hot map poisoned");
                    if let Some(s) = hot.get_mut(key) {
                        s.measured += measured;
                    }
                }
                Err(e) => {
                    self.tuner_stats.failures.fetch_add(1, Ordering::Relaxed);
                    self.subscriber.on_event(&Event {
                        name: "autotune-failure",
                        at_ns: clock_ns(),
                        attrs: vec![("error", AttrValue::Str(e.to_string()))],
                    });
                }
            }
        }
        self.unpin_idle_keys();
        due.len()
    }

    /// The unpin half of the autotune cycle: a key that accumulated no
    /// new requests for [`AutotuneConfig::unpin_after_idle`] consecutive
    /// cycles is dropped from the hot map, and — if it had been tuned —
    /// its cache pin is released so the LRU can evict it once capacity
    /// pressure arrives. Traffic returning later re-heats the key from
    /// scratch.
    fn unpin_idle_keys(&self) {
        if self.autotune.unpin_after_idle == 0 {
            return;
        }
        let mut cold: Vec<PlanKey> = Vec::new();
        {
            let mut hot = self.hot.lock().expect("hot map poisoned");
            hot.retain(|k, s| {
                if s.requests == s.seen_requests {
                    s.idle_cycles += 1;
                } else {
                    s.idle_cycles = 0;
                    s.seen_requests = s.requests;
                }
                if s.idle_cycles < self.autotune.unpin_after_idle {
                    return true;
                }
                if s.tuned {
                    cold.push(k.clone());
                }
                false
            });
        }
        for key in &cold {
            if self.cache.unpin(key) {
                self.tuner_stats
                    .plans_unpinned
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Measure the top-ranked candidates for one key and install the
    /// measured-best plan. Returns how many measurements were spent.
    fn tune_key(&self, key: &PlanKey) -> Result<usize, PlanError> {
        let (shape, perm, opts) = key.problem_parts();
        let budget = self.autotune.budget_per_key.max(1);
        let topk = self.autotune.topk.max(1).min(budget);
        // Cap the tuner's planning sweep and measurement work so it
        // never competes with foreground batches for the whole machine.
        let (warmed, swapped, measured) =
            parallel::with_thread_cap(self.autotune.threads.max(1), || {
                let (plan, ranked) = self.transposer.plan_topk::<E>(&shape, &perm, &opts, topk)?;
                let mut best: Option<(f64, usize)> = None;
                let mut measured = 0usize;
                for (j, rc) in ranked.iter().enumerate() {
                    let m = self
                        .transposer
                        .measure_candidate::<E>(plan.problem(), &rc.candidate)?;
                    let t = m.timing.time_ns;
                    measured += 1;
                    self.tuner_stats
                        .candidates_measured
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(sink) = &self.sink {
                        sink.observe_candidate(&rc.candidate, t);
                        self.tuner_stats
                            .points_streamed
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    if best.as_ref().map(|&(bt, _)| t < bt).unwrap_or(true) {
                        best = Some((t, j));
                    }
                }
                let (best_ns, j) = best.expect("plan_topk returns at least one candidate");
                // The warmed plan predicts its own measured time, so
                // subsequent residuals for this key collapse to ~1.0.
                let warmed = self.transposer.plan_for_candidate::<E>(
                    &shape,
                    &perm,
                    &opts,
                    ranked[j].candidate.clone(),
                    best_ns,
                )?;
                Ok::<_, PlanError>((warmed, j != 0, measured))
            })?;
        if self.cache.warm(key, Arc::new(warmed)) {
            self.tuner_stats
                .plans_warmed
                .fetch_add(1, Ordering::Relaxed);
            if swapped {
                self.tuner_stats
                    .plans_swapped
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(measured)
    }

    /// Spawn the background autotuner worker. It drains due keys via
    /// [`Self::autotune_once`] and parks for
    /// [`AutotuneConfig::poll_interval_ms`] when idle. Stops when the
    /// returned handle is dropped (or [`AutotunerHandle::stop`] is
    /// called).
    pub fn start_autotuner(self: &Arc<Self>) -> AutotunerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let svc = Arc::clone(self);
        let idle = Duration::from_millis(self.autotune.poll_interval_ms.max(1));
        let join = std::thread::Builder::new()
            .name("ttlg-autotuner".into())
            .spawn(move || run_worker(&flag, idle, || svc.autotune_once()))
            .expect("spawn autotuner thread");
        AutotunerHandle::new(stop, join)
    }

    // ------------------------------------------------- metrics history

    /// The metrics-history store fed by [`Self::scrape_history_once`].
    pub fn history(&self) -> &TimeSeriesStore {
        &self.history
    }

    /// The history configuration this service was built with.
    pub fn history_config(&self) -> HistoryConfig {
        self.history_cfg
    }

    /// Install (or clear) the snapshot source history scrapes ingest.
    /// The gateway installs one returning its merged snapshot so the
    /// store also sees `ttlg_gateway_*` families; `None` falls back to
    /// [`Self::metrics_snapshot`].
    pub fn set_history_source(&self, source: Option<HistorySource>) {
        *self.history_source.lock().expect("history source poisoned") = source;
    }

    /// Capture one snapshot and ingest it into the history store, then
    /// persist the store if a history file is configured. Called by the
    /// background scraper at the configured cadence; callers (tests,
    /// studies) may also drive it manually for deterministic timelines.
    pub fn scrape_history_once(&self) {
        let source = self
            .history_source
            .lock()
            .expect("history source poisoned")
            .clone();
        let snap = match source {
            Some(f) => match f() {
                Some(snap) => snap,
                None => return,
            },
            None => self.metrics_snapshot(),
        };
        let now_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        self.history.ingest(&snap, now_ms);
        self.persist_history();
    }

    /// Configure history persistence. If `path` already holds a saved
    /// store, it is restored first (so a restarted `ttlg serve` keeps
    /// its history); the store is then re-saved after every scrape.
    /// Returns the number of series restored (0 for a fresh file).
    pub fn set_history_file(&self, path: impl Into<PathBuf>) -> Result<usize, String> {
        let path = path.into();
        let restored = match std::fs::read_to_string(&path) {
            Ok(text) => self
                .history
                .hydrate(&text)
                .map_err(|e| format!("history file {}: {e}", path.display()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
            Err(e) => return Err(format!("history file {}: {e}", path.display())),
        };
        *self.history_file.lock().expect("history file poisoned") = Some(path);
        Ok(restored)
    }

    /// Best-effort save of the store to the configured history file
    /// (write-to-temp + rename, so a crash never leaves a torn file).
    fn persist_history(&self) {
        let Some(path) = self
            .history_file
            .lock()
            .expect("history file poisoned")
            .clone()
        else {
            return;
        };
        let tmp = path.with_extension("tmp");
        if std::fs::write(&tmp, self.history.save()).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }

    /// Start the background history scraper (idempotent; a no-op when
    /// `history.enabled` is false or the interval is zero). The thread
    /// holds only a [`Weak`] reference, so it never keeps the service
    /// alive; it stops on [`Self::stop_history_scraper`] or drop.
    pub fn start_history_scraper(self: &Arc<Self>) {
        if !self.history_cfg.enabled || self.history_cfg.scrape_interval_ms == 0 {
            return;
        }
        let mut slot = self.scraper.lock().expect("scraper poisoned");
        if slot.is_some() {
            return;
        }
        let stop: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
        let flag = Arc::clone(&stop);
        let weak: Weak<Self> = Arc::downgrade(self);
        let interval = Duration::from_millis(self.history_cfg.scrape_interval_ms);
        let join = std::thread::Builder::new()
            .name("ttlg-history".into())
            .spawn(move || loop {
                let (lock, cvar) = &*flag;
                let mut stopped = lock.lock().expect("scraper stop poisoned");
                let deadline = Instant::now() + interval;
                while !*stopped {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let (guard, _) = cvar
                        .wait_timeout(stopped, left)
                        .expect("scraper stop poisoned");
                    stopped = guard;
                }
                let done = *stopped;
                drop(stopped);
                if done {
                    return;
                }
                match weak.upgrade() {
                    Some(svc) => svc.scrape_history_once(),
                    None => return,
                }
            })
            .expect("spawn history scraper thread");
        *slot = Some(ScraperHandle { stop, join });
    }

    /// Stop and join the background history scraper, if running.
    pub fn stop_history_scraper(&self) {
        let handle = self.scraper.lock().expect("scraper poisoned").take();
        if let Some(ScraperHandle { stop, join }) = handle {
            *stop.0.lock().expect("scraper stop poisoned") = true;
            stop.1.notify_all();
            // If the scraper thread itself holds the last Arc, drop runs
            // on that thread — joining would deadlock on self.
            if join.thread().id() != std::thread::current().id() {
                let _ = join.join();
            }
        }
    }
}

impl<E: Element> Drop for TransposeService<E> {
    fn drop(&mut self) {
        self.stop_history_scraper();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttlg_obs::CollectingSubscriber;
    use ttlg_tensor::Shape;

    #[test]
    fn single_submit_round_trips() {
        let svc: TransposeService<u64> = TransposeService::new_k40c();
        let shape = Shape::new(&[16, 8, 4]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let input = Arc::new(DenseTensor::<u64>::iota(shape));
        let req = TransposeRequest::new(Arc::clone(&input), perm.clone());
        let resp = svc.submit(&req).unwrap();
        let expect = ttlg_tensor::reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(resp.output.data(), expect.data());
        assert_eq!(svc.cache_stats().misses, 1);
        assert_eq!(svc.metrics().total_requests(), 1);
        // Second submission hits the cache.
        svc.submit(&req).unwrap();
        assert_eq!(svc.cache_stats().hits, 1);
    }

    #[test]
    fn cpu_backend_requests_serve_and_count_per_backend() {
        let svc: TransposeService<f32> = TransposeService::new_k40c();
        let shape = Shape::new(&[24, 12, 10]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let input = Arc::new(DenseTensor::<f32>::iota(shape));
        let mut cpu_req = TransposeRequest::new(Arc::clone(&input), perm.clone());
        cpu_req.opts = TransposeOptions::for_backend(ttlg::Backend::Cpu);
        let gpu_req = TransposeRequest::new(Arc::clone(&input), perm.clone());

        let resp = svc.submit(&cpu_req).unwrap();
        let expect = ttlg_tensor::reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(resp.output.data(), expect.data());
        assert!(resp.report.kernel_time_ns > 0.0, "wall-clock timing");
        svc.submit(&gpu_req).unwrap();

        // The two requests plan under distinct keys (backend is part of
        // the fingerprint) and land on separate backend lanes.
        assert_eq!(svc.cache_stats().misses, 2);
        let m = svc.metrics();
        assert_eq!(m.requests_for_backend(ttlg::Backend::Cpu), 1);
        assert_eq!(m.requests_for_backend(ttlg::Backend::GpuSim), 1);
        assert_eq!(m.backend_exec_latency(ttlg::Backend::Cpu).count(), 1);
        let prom = svc.export_prometheus();
        assert!(
            prom.contains("ttlg_backend_requests_total{backend=\"cpu\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("ttlg_backend_requests_total{backend=\"gpu_sim\"} 1"),
            "{prom}"
        );
        assert!(
            prom.contains("ttlg_backend_exec_latency_us_bucket"),
            "{prom}"
        );
    }

    #[test]
    fn submit_spanned_builds_the_service_span_forest() {
        let svc: TransposeService<f64> = TransposeService::new_k40c();
        let shape = Shape::new(&[16, 8, 4]).unwrap();
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let input = Arc::new(DenseTensor::<f64>::iota(shape));
        let req = TransposeRequest::new(Arc::clone(&input), perm);

        // Cold: plan is built, so the forest carries plan-build with the
        // Alg. 3 sweep child, and the decision trace is retained.
        let cold = svc.submit_spanned(&req);
        assert!(cold.result.is_ok());
        assert!(cold.decision.is_some(), "cold plan retains decision trace");
        let names: Vec<&str> = cold.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["plan", "queue-wait", "execute"]);
        let plan = &cold.spans[0];
        assert!(plan.find("cache-lookup").is_some());
        assert!(plan.find("plan-build").is_some());
        let sweep = plan.find("alg3-sweep").expect("cold plan swept candidates");
        assert!(sweep.duration_ns > 0);
        let exec = &cold.spans[2];
        assert!(exec.find("kernel-launch").is_some());
        let kernel = exec
            .find("kernel")
            .expect("successful execute has kernel span");
        assert!(kernel.duration_ns > 0);

        // Warm: the plan replays from cache — no build, no sweep.
        let warm = svc.submit_spanned(&req);
        assert!(warm.result.is_ok());
        let plan = &warm.spans[0];
        assert!(plan.find("cache-lookup").is_some());
        assert!(plan.find("plan-build").is_none(), "cache hit never builds");
        assert_eq!(
            plan.attrs.iter().find(|(k, _)| k == "cache").unwrap().1,
            "hit"
        );
        assert_eq!(svc.cache_stats().hits, 1);
    }

    #[test]
    fn batch_plans_each_distinct_problem_once() {
        let svc: TransposeService<u32> = TransposeService::new_k40c();
        let shape = Shape::new(&[8, 8, 8]).unwrap();
        let input = Arc::new(DenseTensor::<u32>::iota(shape));
        let perms = [[2usize, 1, 0], [1, 0, 2], [0, 2, 1]];
        // 12 requests over 3 distinct problems.
        let reqs: Vec<TransposeRequest<u32>> = (0..12)
            .map(|i| {
                TransposeRequest::new(
                    Arc::clone(&input),
                    Permutation::new(&perms[i % perms.len()]).unwrap(),
                )
            })
            .collect();
        let results = svc.submit_batch(&reqs);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(svc.cache_stats().misses, 3, "one plan per distinct problem");
        assert_eq!(svc.metrics().total_requests(), 12);
        assert!(svc.metrics().total_bytes() > 0);
        // Every request left a trace; 3 were misses, 9 shared the plans.
        let traces = svc.recent_traces(100);
        assert_eq!(traces.len(), 12);
        let misses = traces.iter().filter(|t| t.cache_hit == Some(false)).count();
        assert_eq!(misses, 3, "batch attribution: one miss per distinct plan");
        assert!(traces.iter().all(|t| t.ok && t.measured_ns > 0.0));
    }

    #[test]
    fn batch_responses_keep_request_order() {
        let svc: TransposeService<u64> = TransposeService::new_k40c();
        let s1 = Shape::new(&[8, 8]).unwrap();
        let s2 = Shape::new(&[4, 4, 4]).unwrap();
        let p1 = Permutation::new(&[1, 0]).unwrap();
        let p2 = Permutation::new(&[2, 0, 1]).unwrap();
        let reqs = vec![
            TransposeRequest::new(Arc::new(DenseTensor::<u64>::iota(s1)), p1),
            TransposeRequest::new(Arc::new(DenseTensor::<u64>::iota(s2)), p2),
        ];
        let results = svc.submit_batch(&reqs);
        for (req, res) in reqs.iter().zip(results.iter()) {
            let out = &res.as_ref().unwrap().output;
            let expect =
                ttlg_tensor::reference::transpose_reference(&req.input, &req.perm).unwrap();
            assert_eq!(out.data(), expect.data());
        }
    }

    #[test]
    fn metrics_report_mentions_schemas_and_latency() {
        let svc: TransposeService<f64> = TransposeService::new_k40c();
        let shape = Shape::new(&[16, 16]).unwrap();
        let input = Arc::new(DenseTensor::<f64>::iota(shape));
        let req = TransposeRequest::new(input, Permutation::new(&[1, 0]).unwrap());
        svc.submit(&req).unwrap();
        let report = svc.metrics_report();
        assert!(report.contains("ttlg-runtime metrics"));
        assert!(report.contains("plan latency"));
        assert!(report.contains("exec latency"));
        assert!(report.contains("requests"));
    }

    #[test]
    fn traces_attribute_cache_and_decompose_phases() {
        let sub = Arc::new(CollectingSubscriber::new());
        let svc: TransposeService<f32> =
            TransposeService::new_k40c().with_subscriber(Arc::clone(&sub) as Arc<dyn Subscriber>);
        let shape = Shape::new(&[32, 16, 8]).unwrap();
        let input = Arc::new(DenseTensor::<f32>::iota(shape));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        svc.submit(&req).unwrap();
        svc.submit(&req).unwrap();

        let traces = svc.recent_traces(10);
        assert_eq!(traces.len(), 2);
        // Newest first: the second request hit the cache.
        assert_eq!(traces[0].cache_hit, Some(true));
        assert_eq!(traces[1].cache_hit, Some(false));
        for t in &traces {
            assert!(t.ok);
            assert!(!t.schema.is_empty());
            assert!(t.execute_ns > 0);
            assert!(t.predicted_ns > 0.0 && t.measured_ns > 0.0);
            assert!(t.dram_efficiency > 0.0 && t.dram_efficiency <= 1.0);
            assert!(t.smem_replay_rate >= 0.0);
        }
        assert!(traces[0].id != traces[1].id);

        let spans = sub.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.name == "request"));
        assert_eq!(spans[0].attr("cache"), Some(&AttrValue::Str("miss".into())));
        assert_eq!(spans[1].attr("cache"), Some(&AttrValue::Str("hit".into())));
        assert!(spans[0].attr("execute_ns").is_some());
    }

    #[test]
    fn failed_requests_record_latency_and_trace() {
        let sub = Arc::new(CollectingSubscriber::new());
        let svc: TransposeService<u32> =
            TransposeService::new_k40c().with_subscriber(Arc::clone(&sub) as Arc<dyn Subscriber>);
        let input = Arc::new(DenseTensor::<u32>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        // Forcing Copy on a non-identity permutation yields no admissible
        // candidate: planning must fail gracefully.
        let mut req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        req.opts.forced_schema = Some(ttlg::Schema::Copy);
        let err = svc.submit(&req).err().expect("forced Copy must fail");
        assert!(err.message.contains("no admissible"), "{}", err.message);
        // Satellite: the failure still left a latency sample.
        assert_eq!(svc.metrics().failures(), 1);
        assert_eq!(svc.metrics().plan_latency.count(), 1);
        assert_eq!(svc.metrics().total_requests(), 0);
        // And a trace with no cache attribution (the cache never answered).
        let traces = svc.recent_traces(10);
        assert_eq!(traces.len(), 1);
        assert!(!traces[0].ok);
        assert_eq!(traces[0].cache_hit, None);
        assert!(traces[0].error.is_some());
        // The subscriber saw both the plan-failure event and the span.
        assert_eq!(sub.events().len(), 1);
        assert_eq!(sub.events()[0].name, "plan-failure");
        assert_eq!(sub.spans().len(), 1);
    }

    #[test]
    fn exporters_emit_live_metrics() {
        let svc: TransposeService<f64> = TransposeService::new_k40c();
        let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[16, 16, 4]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        svc.submit(&req).unwrap();

        let prom = svc.export_prometheus();
        assert!(prom.contains("# TYPE ttlg_requests_total counter"));
        assert!(prom.contains("ttlg_backend_requests_total{backend=\"gpu_sim\"} 1"));
        assert!(prom.contains("ttlg_backend_requests_total{backend=\"cpu\"} 0"));
        assert!(prom.contains("ttlg_plan_latency_us_quantile{quantile=\"0.99\"}"));
        assert!(prom.contains("ttlg_prediction_samples_total"));
        assert!(prom.contains("ttlg_prediction_geo_mean_error"));
        assert!(prom.contains("ttlg_requests_total{schema="));
        assert!(prom.contains("ttlg_exec_latency_us_bucket"));
        for q in ["0.5", "0.95", "0.99"] {
            assert!(prom.contains(&format!(
                "ttlg_exec_latency_us_quantile{{quantile=\"{q}\"}}"
            )));
        }
        // Every non-comment line is `name{labels} value`.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name_part.is_empty());
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "{line}");
        }

        let json = svc.export_json();
        assert!(json.starts_with('{') && json.ends_with("}\n"));
        assert!(json.contains("\"ttlg_requests_total\""));
        assert!(json.contains("\"histograms\""));

        // The ratio histogram for the served schema is non-empty.
        let snap = svc.metrics_snapshot();
        let ratio: u64 = snap
            .histograms
            .iter()
            .filter(|h| h.name == "ttlg_prediction_ratio")
            .map(|h| h.count())
            .sum();
        assert_eq!(ratio, 1);
    }

    /// Ranks candidates *backwards* (fast-by-analysis looks slow and
    /// vice versa) while staying inside the analytic guard band — the
    /// modeled winner is then the worst guard-eligible candidate, so a
    /// measured pass must swap it out.
    struct Inverted(ttlg::AnalyticPredictor);

    impl ttlg::TimePredictor for Inverted {
        fn predict_ns(&self, c: &ttlg::Candidate) -> f64 {
            1.0e12 / self.0.predict_ns(c).max(1.0)
        }
        fn name(&self) -> &str {
            "inverted"
        }
    }

    fn autotuned_config() -> RuntimeConfig {
        RuntimeConfig {
            autotune: crate::autotune::AutotuneConfig {
                enabled: true,
                hot_threshold: 2,
                topk: 4,
                budget_per_key: 8,
                threads: 1,
                poll_interval_ms: 1,
                ..crate::autotune::AutotuneConfig::default()
            },
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn autotuner_swaps_in_measured_best_plan_for_hot_keys() {
        let device = ttlg_gpu_sim::DeviceConfig::k40c();
        let transposer = Transposer::with_predictor(
            device.clone(),
            Arc::new(Inverted(ttlg::AnalyticPredictor::new(device))),
        );
        let svc: TransposeService<f64> =
            TransposeService::with_config(transposer, autotuned_config());
        let input = Arc::new(DenseTensor::<f64>::iota(
            ttlg_tensor::Shape::new(&[16, 16, 16, 16]).unwrap(),
        ));
        let req =
            TransposeRequest::new(Arc::clone(&input), Permutation::new(&[3, 1, 0, 2]).unwrap());

        // Not hot yet: one request is below the threshold.
        svc.submit(&req).unwrap();
        assert_eq!(svc.autotune_once(), 0);
        let before = svc.submit(&req).unwrap();
        assert_eq!(svc.autotune_once(), 1, "key is now hot");
        assert_eq!(svc.autotune_once(), 0, "tuned keys are not re-tuned");

        let stats = svc.autotune_stats();
        assert_eq!(stats.keys_tuned, 1);
        assert_eq!(stats.plans_warmed, 1);
        assert!(stats.candidates_measured >= 2);
        assert_eq!(stats.failures, 0);
        assert!(
            stats.plans_swapped >= 1,
            "inverted model's winner must lose the measured bake-off: {stats:?}"
        );

        // The warmed plan serves from the cache, still correct, and
        // predicts its own measured time.
        let hits_before = svc.cache_stats().hits;
        let after = svc.submit(&req).unwrap();
        assert_eq!(svc.cache_stats().hits, hits_before + 1);
        let expect = ttlg_tensor::reference::transpose_reference(&input, &req.perm).unwrap();
        assert_eq!(after.output.data(), expect.data());
        let rel = (after.report.predicted_ns - after.report.kernel_time_ns).abs()
            / after.report.kernel_time_ns;
        assert!(rel < 1e-9, "warmed plan predicts its measured time: {rel}");
        assert!(
            after.report.kernel_time_ns < before.report.kernel_time_ns,
            "measured-best plan beats the mis-modeled one: {} vs {}",
            after.report.kernel_time_ns,
            before.report.kernel_time_ns
        );
    }

    #[test]
    fn idle_tuned_keys_lose_their_pin_and_become_evictable() {
        let cfg = RuntimeConfig {
            cache: CacheConfig {
                shards: 1,
                capacity_per_shard: 2,
            },
            autotune: crate::autotune::AutotuneConfig {
                enabled: true,
                hot_threshold: 2,
                topk: 2,
                budget_per_key: 4,
                threads: 1,
                poll_interval_ms: 1,
                unpin_after_idle: 2,
            },
            ..RuntimeConfig::default()
        };
        let svc: TransposeService<u32> = TransposeService::with_config(Transposer::new_k40c(), cfg);
        let input = Arc::new(DenseTensor::<u32>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        let req = TransposeRequest::new(Arc::clone(&input), Permutation::new(&[2, 1, 0]).unwrap());

        // Warm: the key goes hot, gets tuned, and its plan is pinned.
        svc.submit(&req).unwrap();
        svc.submit(&req).unwrap();
        assert_eq!(svc.autotune_once(), 1, "key went hot and got tuned");
        assert_eq!(svc.cache.pinned_plans(), 1);

        // Fresh traffic between cycles resets the idle counter.
        svc.submit(&req).unwrap();
        assert_eq!(svc.autotune_once(), 0);
        assert_eq!(svc.cache.pinned_plans(), 1, "traffic keeps the pin");

        // Cool: two request-free cycles cross `unpin_after_idle`.
        assert_eq!(svc.autotune_once(), 0);
        assert_eq!(svc.autotune_once(), 0);
        assert_eq!(svc.cache.pinned_plans(), 0, "idle key unpinned");
        assert_eq!(svc.autotune_stats().plans_unpinned, 1);
        assert!(svc.hot.lock().unwrap().is_empty(), "bookkeeping dropped");

        // The plan is still resident — unpinning is not eviction...
        let hits = svc.cache_stats().hits;
        svc.submit(&req).unwrap();
        assert_eq!(svc.cache_stats().hits, hits + 1);
        // ...but it lost its immunity: flooding the single shard past
        // capacity evicts it like any other LRU entry.
        for p in [[0usize, 2, 1], [1, 2, 0], [1, 0, 2], [2, 0, 1]] {
            let other = TransposeRequest::new(Arc::clone(&input), Permutation::new(&p).unwrap());
            svc.submit(&other).unwrap();
        }
        let misses = svc.cache_stats().misses;
        svc.submit(&req).unwrap();
        assert_eq!(svc.cache_stats().misses, misses + 1, "evicted: replanned");
    }

    #[test]
    fn autotuner_kill_switch_disables_tracking_and_tuning() {
        let svc: TransposeService<u32> = TransposeService::new_k40c();
        let input = Arc::new(DenseTensor::<u32>::iota(
            ttlg_tensor::Shape::new(&[8, 8, 8]).unwrap(),
        ));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        for _ in 0..5 {
            svc.submit(&req).unwrap();
        }
        assert_eq!(svc.autotune_once(), 0);
        assert_eq!(
            svc.autotune_stats(),
            crate::autotune::AutotuneSnapshot::default()
        );
        assert!(svc.hot.lock().unwrap().is_empty(), "no hot-key bookkeeping");
    }

    #[test]
    fn autotuner_streams_measurements_to_the_sink() {
        #[derive(Default)]
        struct Counting(AtomicU64);
        impl MeasurementSink for Counting {
            fn observe_candidate(&self, _c: &ttlg::Candidate, measured_ns: f64) {
                assert!(measured_ns > 0.0);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let sink = Arc::new(Counting::default());
        let svc: TransposeService<f32> =
            TransposeService::with_config(Transposer::new_k40c(), autotuned_config())
                .with_measurement_sink(Arc::clone(&sink) as Arc<dyn MeasurementSink>);
        let input = Arc::new(DenseTensor::<f32>::iota(
            ttlg_tensor::Shape::new(&[12, 10, 8, 6]).unwrap(),
        ));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 3, 1, 0]).unwrap());
        svc.submit(&req).unwrap();
        svc.submit(&req).unwrap();
        // Foreground residual stream: the request that built the GpuSim
        // plan was a training point for the sink (the cache hit repeats
        // the same deterministic point, so it is not fed), counted
        // separately from the autotuner's stream.
        assert_eq!(svc.metrics().residual_points(), 1);
        assert_eq!(sink.0.load(Ordering::Relaxed), 1);
        assert_eq!(svc.autotune_once(), 1);
        let stats = svc.autotune_stats();
        assert_eq!(
            stats.points_streamed + svc.metrics().residual_points(),
            sink.0.load(Ordering::Relaxed)
        );
        assert_eq!(stats.points_streamed, stats.candidates_measured);
        assert!(stats.points_streamed > 0);
        // The snapshot exports the foreground counter.
        let prom = svc.export_prometheus();
        assert!(prom.contains("ttlg_residual_points_total 1"), "{prom}");
    }

    #[test]
    fn background_autotuner_never_disturbs_foreground_batches() {
        // Hammer test: the background worker tunes while foreground
        // threads push batches; totals must come out exact and
        // failure-free (the tuner's thread cap keeps it out of the way).
        let svc: Arc<TransposeService<u64>> = Arc::new(TransposeService::with_config(
            Transposer::new_k40c(),
            autotuned_config(),
        ));
        let handle = svc.start_autotuner();
        let input = Arc::new(DenseTensor::<u64>::iota(
            ttlg_tensor::Shape::new(&[8, 6, 5, 4]).unwrap(),
        ));
        const THREADS: usize = 4;
        const ROUNDS: usize = 3;
        let perms = [[3usize, 1, 0, 2], [2, 3, 1, 0], [1, 0, 3, 2]];
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let svc = Arc::clone(&svc);
                let input = Arc::clone(&input);
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        let reqs: Vec<TransposeRequest<u64>> = perms
                            .iter()
                            .map(|p| {
                                TransposeRequest::new(
                                    Arc::clone(&input),
                                    Permutation::new(p).unwrap(),
                                )
                            })
                            .collect();
                        for r in svc.submit_batch(&reqs) {
                            r.unwrap();
                        }
                    }
                });
            }
        });
        // Drain any keys that went hot after the last worker pass.
        while svc.autotune_once() > 0 {}
        handle.stop();
        assert_eq!(
            svc.metrics().total_requests(),
            (THREADS * ROUNDS * perms.len()) as u64,
            "foreground totals are exact"
        );
        assert_eq!(svc.metrics().failures(), 0);
        let stats = svc.autotune_stats();
        assert_eq!(stats.failures, 0);
        assert_eq!(
            stats.keys_tuned,
            perms.len() as u64,
            "every hot key tuned once"
        );
        assert_eq!(stats.plans_warmed, perms.len() as u64);
    }

    #[test]
    fn trace_ring_keeps_only_recent_requests() {
        let cfg = RuntimeConfig {
            trace_capacity: 4,
            ..RuntimeConfig::default()
        };
        let svc: TransposeService<u32> = TransposeService::with_config(Transposer::new_k40c(), cfg);
        let input = Arc::new(DenseTensor::<u32>::iota(Shape::new(&[8, 8]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[1, 0]).unwrap());
        assert_eq!(svc.trace_dropped(), 0);
        for _ in 0..10 {
            svc.submit(&req).unwrap();
        }
        let traces = svc.recent_traces(100);
        assert_eq!(traces.len(), 4, "bounded by trace_capacity");
        // Newest first and contiguous.
        assert_eq!(traces[0].id, 9);
        assert_eq!(traces[3].id, 6);
        // Satellite: ring wraparound is no longer silent.
        assert_eq!(svc.trace_dropped(), 6);
        let prom = svc.export_prometheus();
        assert!(
            prom.contains("ttlg_trace_dropped_total{source=\"trace-ring\"} 6"),
            "{prom}"
        );
    }

    #[test]
    fn tail_attribution_wires_through_the_service() {
        let svc: TransposeService<f64> = TransposeService::new_k40c();
        let big = Arc::new(DenseTensor::<f64>::iota(
            Shape::new(&[16, 16, 16, 16]).unwrap(),
        ));
        let small = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[8, 8]).unwrap()));
        let r1 = TransposeRequest::new(Arc::clone(&big), Permutation::new(&[3, 1, 0, 2]).unwrap());
        let r2 = TransposeRequest::new(small, Permutation::new(&[1, 0]).unwrap());
        for _ in 0..3 {
            svc.submit(&r1).unwrap();
            svc.submit(&r2).unwrap();
        }
        // Traces carry the new attribution fields.
        let traces = svc.recent_traces(10);
        assert!(traces.iter().all(|t| !t.shape_class.is_empty()));
        assert!(traces.iter().any(|t| t.shape_class == "r4v16")); // 65536 elements
        assert!(traces.iter().all(|t| !t.warmed), "no autotuner ran");
        // Profiles group by (schema, shape-class) and attribute phases.
        let profiles = svc.phase_profiles();
        assert!(profiles.len() >= 2, "two shape classes: {profiles:?}");
        let top = &profiles[0];
        assert_eq!(top.requests, 3);
        assert!(top.shares_at(0.99).is_some());
        let flame = svc.render_profile();
        assert!(flame.contains("execute"), "{flame}");
        assert!(flame.contains(&top.shape_class), "{flame}");
        // Exemplars were captured per bucket, with the planner decision
        // attached (retention is on by default).
        let exemplars = svc.exemplars();
        assert!(exemplars.len() >= 2);
        for ((schema, class), entries) in &exemplars {
            assert!(!entries.is_empty(), "{schema}/{class} retained nothing");
            for e in entries {
                assert_eq!(&e.trace.shape_class, class);
                let d = e.decision.as_ref().expect("decision trace retained");
                assert!(d.chosen.is_some());
            }
        }
        // SLO tracker saw every request.
        let slo = svc.slo_snapshot();
        assert_eq!(slo.total, 6);
        assert!(slo.hit_ratio > 0.0);
    }

    #[test]
    fn disabling_decision_retention_drops_exemplar_payloads() {
        let cfg = RuntimeConfig {
            retain_decision_traces: false,
            ..RuntimeConfig::default()
        };
        let svc: TransposeService<u32> = TransposeService::with_config(Transposer::new_k40c(), cfg);
        let input = Arc::new(DenseTensor::<u32>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        svc.submit(&req).unwrap();
        let exemplars = svc.exemplars();
        assert_eq!(exemplars.len(), 1);
        assert!(exemplars[0].1[0].decision.is_none());
    }

    #[test]
    fn warmed_plans_tag_their_requests() {
        let svc: TransposeService<f64> =
            TransposeService::with_config(Transposer::new_k40c(), autotuned_config());
        let input = Arc::new(DenseTensor::<f64>::iota(
            ttlg_tensor::Shape::new(&[16, 16, 16, 16]).unwrap(),
        ));
        let req = TransposeRequest::new(input, Permutation::new(&[3, 1, 0, 2]).unwrap());
        svc.submit(&req).unwrap();
        svc.submit(&req).unwrap();
        assert_eq!(svc.autotune_once(), 1);
        svc.submit(&req).unwrap();
        let traces = svc.recent_traces(3);
        assert!(traces[0].warmed, "post-warming request tagged");
        assert!(!traces[1].warmed && !traces[2].warmed, "pre-warming not");
        // Satellite: the warmed plan is pinned against LRU eviction and
        // the snapshot exposes the pin count.
        let prom = svc.export_prometheus();
        assert!(prom.contains("ttlg_cache_pinned_plans 1"), "{prom}");
        let profiles = svc.phase_profiles();
        assert_eq!(profiles[0].warmed_requests, 1);
        assert_eq!(profiles[0].requests, 3);
    }

    #[test]
    fn batch_duplicates_execute_once() {
        let svc: TransposeService<u32> = TransposeService::new_k40c();
        let shape = Shape::new(&[8, 8, 8]).unwrap();
        let input = Arc::new(DenseTensor::<u32>::iota(shape));
        let perms = [[2usize, 1, 0], [1, 0, 2], [0, 2, 1]];
        // 12 requests, but only 3 unique in-flight problems: duplicates
        // share the representative's execution.
        let reqs: Vec<TransposeRequest<u32>> = (0..12)
            .map(|i| {
                TransposeRequest::new(
                    Arc::clone(&input),
                    Permutation::new(&perms[i % perms.len()]).unwrap(),
                )
            })
            .collect();
        let results = svc.submit_batch(&reqs);
        for (req, res) in reqs.iter().zip(results.iter()) {
            let out = &res.as_ref().unwrap().output;
            let expect =
                ttlg_tensor::reference::transpose_reference(&req.input, &req.perm).unwrap();
            assert_eq!(out.data(), expect.data(), "coalesced copies stay correct");
        }
        // Executions: one per unique problem. Requests: all twelve.
        assert_eq!(svc.metrics().exec_latency.count(), 3);
        assert_eq!(svc.metrics().total_requests(), 12);
        assert_eq!(svc.metrics().coalesced_requests(), 9);
        let traces = svc.recent_traces(100);
        assert_eq!(traces.len(), 12);
        assert_eq!(traces.iter().filter(|t| t.coalesced).count(), 9);
        assert!(traces.iter().all(|t| t.ok && t.measured_ns > 0.0));
        let prom = svc.export_prometheus();
        assert!(prom.contains("ttlg_coalesced_requests_total 9"), "{prom}");
        assert!(prom.contains("ttlg_coalesced_ratio 0.75"), "{prom}");
    }

    #[test]
    fn submit_async_round_trips_and_never_blocks_the_caller() {
        let cfg = RuntimeConfig {
            async_exec: crate::async_exec::AsyncConfig {
                workers: 1,
                submit_capacity: 4,
                completion_capacity: 4,
                coalesce: false,
            },
            ..RuntimeConfig::default()
        };
        let svc: Arc<TransposeService<u64>> =
            Arc::new(TransposeService::with_config(Transposer::new_k40c(), cfg));
        let input = Arc::new(DenseTensor::<u64>::iota(Shape::new(&[16, 8, 4]).unwrap()));
        let perm = Permutation::new(&[2, 0, 1]).unwrap();

        // A single round trip delivers the correct output.
        let ticket = svc.submit_async(TransposeRequest::new(Arc::clone(&input), perm.clone()));
        let out = ticket.wait();
        let resp = out.result.as_ref().expect("async round trip");
        let expect = ttlg_tensor::reference::transpose_reference(&input, &perm).unwrap();
        assert_eq!(resp.output.data(), expect.data());
        assert!(!out.coalesced);
        assert!(out.trace.ok);
        assert!(!out.spans.is_empty(), "submit_spanned parity");

        // Bounded-time guarantee: flooding far past the submission
        // queue's capacity must never block the caller — each call
        // either enqueues or completes the ticket inline with an
        // overload error, and poll() answers immediately either way.
        let tickets: Vec<_> = (0..64)
            .map(|_| {
                let t0 = Instant::now();
                let t = svc.submit_async(TransposeRequest::new(Arc::clone(&input), perm.clone()));
                let _ = t.poll();
                assert!(
                    t0.elapsed() < Duration::from_millis(250),
                    "submit_async + poll must be bounded-time: {:?}",
                    t0.elapsed()
                );
                t
            })
            .collect();
        let mut ok = 0u64;
        let mut overloaded = 0u64;
        for t in &tickets {
            let out = t
                .wait_timeout(Duration::from_secs(10))
                .expect("every ticket completes");
            match &out.result {
                Ok(resp) => {
                    ok += 1;
                    assert_eq!(resp.output.data(), expect.data());
                }
                Err(e) => {
                    overloaded += 1;
                    assert!(e.message.contains("overloaded"), "{}", e.message);
                }
            }
        }
        let stats = svc.async_stats().expect("executor started");
        assert_eq!(stats.submitted, 65);
        assert_eq!(ok + overloaded + 1, stats.submitted);
        assert_eq!(stats.rejected, overloaded);
        assert_eq!(stats.executed, ok + 1);
        assert_eq!(stats.coalesced, 0, "coalescing disabled");
    }

    /// A panic on an async worker completes the leader and its
    /// followers with an error instead of hanging them, clears the
    /// single-flight key, keeps the worker alive, and is counted.
    #[test]
    fn async_worker_panic_fails_the_request_instead_of_hanging_it() {
        #[derive(Default)]
        struct PanicsOnFirstCall(AtomicBool);
        impl MeasurementSink for PanicsOnFirstCall {
            fn observe_candidate(&self, _c: &ttlg::Candidate, _measured_ns: f64) {
                if !self.0.swap(true, Ordering::SeqCst) {
                    panic!("injected sink fault");
                }
            }
        }
        let cfg = RuntimeConfig {
            async_exec: crate::async_exec::AsyncConfig {
                workers: 1,
                ..Default::default()
            },
            ..RuntimeConfig::default()
        };
        let svc: Arc<TransposeService<u32>> = Arc::new(
            TransposeService::with_config(Transposer::new_k40c(), cfg)
                .with_measurement_sink(Arc::new(PanicsOnFirstCall::default())),
        );
        let input = Arc::new(DenseTensor::<u32>::iota(Shape::new(&[12, 10, 8]).unwrap()));
        let perm = Permutation::new(&[2, 0, 1]).unwrap();
        let req = TransposeRequest::new(Arc::clone(&input), perm.clone());
        let wait = |t: &TicketHandle<u32>| {
            t.wait_timeout(Duration::from_secs(5))
                .expect("ticket completes instead of timing out")
        };

        // The leader panics in the sink; identical submissions either
        // ride it (and share its error) or run after it (and succeed).
        let leader = svc.submit_async(req.clone());
        let riders: Vec<_> = (0..3).map(|_| svc.submit_async(req.clone())).collect();
        let out = wait(&leader);
        let err = out.result.as_ref().err().expect("the panic is an error");
        assert!(
            err.message.contains("injected sink fault"),
            "{}",
            err.message
        );
        assert!(!out.trace.ok && out.trace.error.is_some());
        for t in &riders {
            let out = wait(t);
            assert_eq!(out.coalesced, out.result.is_err(), "only riders share it");
        }
        assert_eq!(svc.metrics().failures(), 1, "counted once, as execute");

        // The key was cleared and the worker survived: an identical
        // follow-up executes, and so do 50 more requests.
        let expect = ttlg_tensor::reference::transpose_reference(&input, &perm).unwrap();
        let out = wait(&svc.submit_async(req.clone()));
        let resp = out.result.as_ref().expect("follow-up succeeds");
        assert_eq!(resp.output.data(), expect.data());
        let perms = [[2usize, 0, 1], [1, 0, 2], [0, 2, 1], [2, 1, 0]];
        let tickets: Vec<_> = (0..50)
            .map(|i| {
                let p = Permutation::new(&perms[i % perms.len()]).unwrap();
                svc.submit_async(TransposeRequest::new(Arc::clone(&input), p))
            })
            .collect();
        for t in &tickets {
            assert!(wait(t).result.is_ok());
        }
        let stats = svc.async_stats().expect("executor started");
        assert_eq!(stats.submitted, 55);
        assert_eq!(
            stats.executed + stats.coalesced + stats.rejected,
            stats.submitted
        );
        assert_eq!(svc.metrics().failures(), 1);
    }

    /// Satellite: 16-thread coalescing hammer. A single async worker is
    /// first pinned down by slow CPU-backend blockers, so every
    /// duplicate submitted while the blockers drain attaches to its
    /// key's single in-flight leader — exactly one execution per unique
    /// in-flight key, deterministically.
    #[test]
    fn coalescing_hammer_executes_each_inflight_key_once() {
        let cfg = RuntimeConfig {
            workers: 1,
            async_exec: crate::async_exec::AsyncConfig {
                workers: 1,
                submit_capacity: 4096,
                completion_capacity: 4096,
                coalesce: true,
            },
            ..RuntimeConfig::default()
        };
        let svc: Arc<TransposeService<f64>> =
            Arc::new(TransposeService::with_config(Transposer::new_k40c(), cfg));

        // Blockers: distinct large CPU-backend problems that keep the
        // single worker busy while the hammer threads submit.
        const BLOCKERS: usize = 3;
        let big = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[96, 96, 48]).unwrap()));
        let blocker_perms = [[2usize, 1, 0], [1, 2, 0], [2, 0, 1]];
        let blockers: Vec<_> = (0..BLOCKERS)
            .map(|b| {
                let mut req = TransposeRequest::new(
                    Arc::clone(&big),
                    Permutation::new(&blocker_perms[b]).unwrap(),
                );
                req.opts = TransposeOptions::for_backend(ttlg::Backend::Cpu);
                svc.submit_async(req)
            })
            .collect();

        // Hammer: 16 threads x 4 rounds x 3 unique problems, all
        // sharing one input Arc — 192 submissions, 3 executions.
        const THREADS: usize = 16;
        const ROUNDS: usize = 4;
        let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[8, 6, 5]).unwrap()));
        let perms = [[2usize, 1, 0], [1, 0, 2], [0, 2, 1]];
        let coalesced_seen = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let svc = Arc::clone(&svc);
                let input = Arc::clone(&input);
                let coalesced_seen = &coalesced_seen;
                s.spawn(move || {
                    let tickets: Vec<_> = (0..ROUNDS)
                        .flat_map(|_| {
                            perms.iter().map(|p| {
                                svc.submit_async(TransposeRequest::new(
                                    Arc::clone(&input),
                                    Permutation::new(p).unwrap(),
                                ))
                            })
                        })
                        .collect();
                    for (t, p) in tickets.iter().zip((0..ROUNDS).flat_map(|_| perms.iter())) {
                        let out = t
                            .wait_timeout(Duration::from_secs(30))
                            .expect("hammer ticket completes");
                        let resp = out.result.as_ref().expect("hammer request ok");
                        let perm = Permutation::new(p).unwrap();
                        let expect =
                            ttlg_tensor::reference::transpose_reference(&input, &perm).unwrap();
                        assert_eq!(
                            resp.output.data(),
                            expect.data(),
                            "every waiter gets a correct result"
                        );
                        if out.coalesced {
                            assert!(out.trace.coalesced);
                            coalesced_seen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        for b in &blockers {
            assert!(b
                .wait_timeout(Duration::from_secs(30))
                .expect("blocker completes")
                .result
                .is_ok());
        }

        let total = (THREADS * ROUNDS * perms.len() + BLOCKERS) as u64;
        let stats = svc.async_stats().expect("executor started");
        assert_eq!(stats.submitted, total);
        assert_eq!(stats.rejected, 0);
        // Exactly one execution per unique in-flight key: the blockers
        // plus one leader per hammer problem.
        assert_eq!(stats.executed, (BLOCKERS + perms.len()) as u64);
        assert_eq!(stats.coalesced, total - stats.executed);
        assert_eq!(coalesced_seen.load(Ordering::Relaxed), stats.coalesced);
        // Metrics reconcile: every submission is a served request, the
        // coalesced counter matches, and nothing failed.
        assert_eq!(svc.metrics().total_requests(), total);
        assert_eq!(svc.metrics().coalesced_requests(), stats.coalesced);
        assert_eq!(svc.metrics().failures(), 0);
        assert_eq!(
            svc.metrics().exec_latency.count(),
            stats.executed,
            "only leaders touch the execution histograms"
        );
        let prom = svc.export_prometheus();
        assert!(prom.contains("# TYPE ttlg_coalesced_requests_total counter"));
        assert!(prom.contains("# TYPE ttlg_completion_queue_depth gauge"));
    }

    /// Prometheus golden test for the new SLO/profile/tail families.
    #[test]
    fn prometheus_exports_slo_and_profile_families() {
        let svc: TransposeService<f64> = TransposeService::new_k40c();
        let input = Arc::new(DenseTensor::<f64>::iota(Shape::new(&[16, 16, 4]).unwrap()));
        let req = TransposeRequest::new(input, Permutation::new(&[2, 1, 0]).unwrap());
        svc.submit(&req).unwrap();

        let prom = svc.export_prometheus();
        for family in [
            "# TYPE ttlg_trace_dropped_total counter",
            "# TYPE ttlg_exemplars_retained gauge",
            "# TYPE ttlg_slo_target_us gauge",
            "# TYPE ttlg_slo_goal gauge",
            "# TYPE ttlg_slo_requests_total counter",
            "# TYPE ttlg_slo_violations_total counter",
            "# TYPE ttlg_slo_hit_ratio gauge",
            "# TYPE ttlg_slo_burn_rate gauge",
            "# TYPE ttlg_profile_requests gauge",
            "# TYPE ttlg_profile_phase_ns gauge",
            "# TYPE ttlg_profile_p99_us gauge",
            "# TYPE ttlg_residual_points_total counter",
        ] {
            assert!(prom.contains(family), "missing {family}\n{prom}");
        }
        assert!(prom.contains("ttlg_slo_requests_total 1"), "{prom}");
        assert!(prom.contains("ttlg_exemplars_retained 1"), "{prom}");
        assert!(
            prom.contains("ttlg_slo_burn_rate{window=\"short\"}"),
            "{prom}"
        );
        assert!(
            prom.contains("ttlg_profile_phase_ns{schema=\"Orthogonal-Distinct\""),
            "{prom}"
        );
        assert!(prom.contains("phase=\"execute\""), "{prom}");
        // Every non-comment line still parses as `name{labels} value`,
        // including the NaN sentinel for empty quantiles.
        for line in prom.lines().filter(|l| !l.starts_with('#')) {
            let (name_part, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name_part.is_empty());
            assert!(value.parse::<f64>().is_ok() || value == "+Inf", "{line}");
        }
        // JSON renderer carries the same families (NaN -> null there).
        let json = svc.export_json();
        assert!(json.contains("\"ttlg_slo_hit_ratio\""));
        assert!(json.contains("\"ttlg_profile_requests\""));
        assert!(json.contains("\"ttlg_trace_dropped_total\""));
    }

    #[test]
    fn snapshot_carries_uptime_build_info_and_tsdb_health() {
        let svc: TransposeService<u64> = TransposeService::new_k40c();
        let snap = svc.metrics_snapshot();
        let uptime = snap
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_uptime_seconds")
            .expect("uptime exported");
        assert!(uptime.samples[0].value >= 0.0);
        let build = snap
            .metrics
            .iter()
            .find(|m| m.name == "ttlg_build_info")
            .expect("build info exported");
        assert_eq!(build.samples[0].value, 1.0);
        let labels = &build.samples[0].labels;
        assert!(labels.iter().any(|(k, v)| k == "version" && !v.is_empty()));
        assert!(labels
            .iter()
            .any(|(k, v)| k == "backend_set" && v.contains("gpu_sim") && v.contains("cpu")));
        assert!(snap
            .metrics
            .iter()
            .any(|m| m.name == "ttlg_tsdb_scrapes_total"));
    }

    #[test]
    fn manual_history_scrapes_populate_the_store() {
        let svc: TransposeService<u64> = TransposeService::new_k40c();
        let input = Arc::new(DenseTensor::<u64>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        let req = TransposeRequest::new(Arc::clone(&input), Permutation::new(&[2, 1, 0]).unwrap());
        svc.scrape_history_once();
        svc.submit(&req).unwrap();
        svc.submit(&req).unwrap();
        svc.scrape_history_once();
        assert_eq!(svc.history().scrapes(), 2);
        let data = svc.history().scalar_data("ttlg_requests_total");
        assert!(!data.is_empty(), "request counter retained");
        let total: f64 = data
            .iter()
            .flat_map(|s| s.points.iter().map(|(_, v)| *v))
            .sum();
        assert_eq!(total, 2.0, "two increments across the scrapes");
    }

    #[test]
    fn history_file_restores_across_service_restarts() {
        let dir = std::env::temp_dir().join("ttlg-runtime-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("hist-{}.ttlg", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let svc: TransposeService<u64> = TransposeService::new_k40c();
        assert_eq!(svc.set_history_file(&path).unwrap(), 0, "fresh file");
        let input = Arc::new(DenseTensor::<u64>::iota(Shape::new(&[8, 8, 8]).unwrap()));
        let req = TransposeRequest::new(Arc::clone(&input), Permutation::new(&[2, 1, 0]).unwrap());
        svc.submit(&req).unwrap();
        svc.scrape_history_once();
        let scrapes = svc.history().scrapes();
        assert!(scrapes > 0);
        drop(svc);

        // A restarted service restores the retained series.
        let svc2: TransposeService<u64> = TransposeService::new_k40c();
        let restored = svc2.set_history_file(&path).unwrap();
        assert!(restored > 0, "series restored from disk");
        assert_eq!(svc2.history().scrapes(), scrapes);
        assert!(!svc2.history().scalar_data("ttlg_requests_total").is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn background_scraper_starts_stops_and_drops_cleanly() {
        let mut cfg = RuntimeConfig::default();
        cfg.history.scrape_interval_ms = 5;
        let svc: Arc<TransposeService<u64>> =
            Arc::new(TransposeService::with_config(Transposer::new_k40c(), cfg));
        svc.start_history_scraper();
        svc.start_history_scraper(); // idempotent
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.history().scrapes() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(svc.history().scrapes() >= 2, "scraper ingested snapshots");
        svc.stop_history_scraper();
        let after = svc.history().scrapes();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(svc.history().scrapes(), after, "no scrapes after stop");
        // Drop with a previously running scraper is clean (Drop joins a
        // second time harmlessly).
        drop(svc);

        // And dropping a service whose scraper is still running joins it.
        let mut cfg = RuntimeConfig::default();
        cfg.history.scrape_interval_ms = 5;
        let svc: Arc<TransposeService<u64>> =
            Arc::new(TransposeService::with_config(Transposer::new_k40c(), cfg));
        svc.start_history_scraper();
        drop(svc);
    }
}
