//! In-tree completion-queue executor: non-blocking submission with
//! single-flight request coalescing.
//!
//! [`TransposeService::submit_async`] hands a request to a small worker
//! pool and returns a [`TicketHandle`] immediately — the caller never
//! blocks, not even when the executor is saturated (a full submission
//! queue completes the ticket with an overload error instead of
//! waiting). The moving parts, all `std`-only:
//!
//! * a **bounded submission queue** workers drain; `submit_async` uses a
//!   non-blocking `try_push` so the caller's latency is bounded by two
//!   short mutex critical sections;
//! * a **bounded MPSC completion queue**: workers push completion
//!   records, a single dispatcher thread pops them, fulfills the
//!   ticket's result slot, wakes waiters, and fires the per-ticket
//!   completion hook — so planning, execution, and result delivery are
//!   three decoupled stages;
//! * a **waiter table with parked-thread wakeups**: [`TicketHandle::wait`]
//!   registers the calling thread and parks; completion unparks every
//!   registered waiter ([`TicketHandle::poll`] never blocks at all);
//! * a **single-flight table** keyed by `(PlanKey problem fingerprint,
//!   input identity)`: identical in-flight problems share one plan *and*
//!   one execution. The first submission becomes the leader and is
//!   enqueued; later identical submissions attach as followers and are
//!   never enqueued. When the leader's execution completes, every
//!   follower receives the shared result (`Arc`) with its own
//!   [`RequestTrace`] marked `coalesced`.
//!
//! A panic while a worker runs a request is caught at the worker
//! boundary: the leader and every follower complete with an error, the
//! single-flight key is cleared, and the failure is counted in the
//! execute-phase failure series.
//!
//! Worker threads hold only a [`Weak`] reference to the service, so
//! dropping the last service `Arc` tears the executor down: queues
//! close, in-flight tickets fail with a shutdown error, threads join.

use crate::service::{ServeError, TransposeRequest, TransposeResponse, TransposeService};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};
use ttlg::DecisionTrace;
use ttlg_obs::{RequestTrace, SpanNode};
use ttlg_tensor::Element;

/// Executor geometry, embedded in
/// [`crate::RuntimeConfig::async_exec`]. `Copy` so the enclosing config
/// stays `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct AsyncConfig {
    /// Executor worker threads; `0` means "same as the service's
    /// `workers`".
    pub workers: usize,
    /// Submission-queue capacity. A full queue rejects (completes the
    /// ticket with an overload error) instead of blocking the caller.
    pub submit_capacity: usize,
    /// Completion-queue capacity. A full queue backpressures *workers*
    /// (never the submitting caller).
    pub completion_capacity: usize,
    /// Single-flight coalescing of identical in-flight problems.
    pub coalesce: bool,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            workers: 0,
            submit_capacity: 256,
            completion_capacity: 256,
            coalesce: true,
        }
    }
}

/// What a completed ticket resolves to. The response is `Arc`-shared:
/// coalesced followers receive the same execution's output without
/// copying it.
pub struct AsyncOutcome<E: Element> {
    /// The request outcome (shared across coalesced waiters).
    pub result: Result<Arc<TransposeResponse<E>>, ServeError>,
    /// This request's own phase trace (followers get their own trace,
    /// marked [`RequestTrace::coalesced`], with the leader's measured
    /// numbers copied in).
    pub trace: RequestTrace,
    /// Service-side span forest (`submit_spanned` parity).
    pub spans: Vec<SpanNode>,
    /// The planner's decision trace, when retained.
    pub decision: Option<Arc<DecisionTrace>>,
    /// Whether this request rode another request's execution.
    pub coalesced: bool,
}

/// Per-ticket completion callback, fired exactly once by the dispatcher
/// thread after the result slot is filled and waiters are woken. This
/// is how push-style consumers (the gateway) drain the completion queue
/// without dedicating a blocked thread per request.
pub type CompletionHook<E> = Box<dyn FnOnce(&Arc<AsyncOutcome<E>>) + Send>;

/// Shared ticket state: the result slot, the done flag, and the parked
/// waiter table.
struct TicketState<E: Element> {
    id: u64,
    done: AtomicBool,
    payload: Mutex<Option<Arc<AsyncOutcome<E>>>>,
    waiters: Mutex<Vec<Thread>>,
    hook: Mutex<Option<CompletionHook<E>>>,
}

impl<E: Element> TicketState<E> {
    fn new(id: u64, hook: Option<CompletionHook<E>>) -> Arc<Self> {
        Arc::new(TicketState {
            id,
            done: AtomicBool::new(false),
            payload: Mutex::new(None),
            waiters: Mutex::new(Vec::new()),
            hook: Mutex::new(hook),
        })
    }

    /// Fill the slot, publish `done`, wake every parked waiter, fire the
    /// hook. Idempotent: later calls are no-ops.
    fn complete(&self, payload: Arc<AsyncOutcome<E>>) {
        {
            let mut slot = self.payload.lock().expect("ticket slot poisoned");
            if slot.is_some() {
                return;
            }
            *slot = Some(Arc::clone(&payload));
        }
        self.done.store(true, Ordering::Release);
        let waiters = std::mem::take(&mut *self.waiters.lock().expect("waiter table poisoned"));
        for w in waiters {
            w.unpark();
        }
        let hook = self.hook.lock().expect("hook slot poisoned").take();
        if let Some(hook) = hook {
            hook(&payload);
        }
    }
}

/// The caller's side of one async submission: poll, park-wait, or both.
pub struct TicketHandle<E: Element> {
    state: Arc<TicketState<E>>,
}

impl<E: Element> TicketHandle<E> {
    /// Monotonic ticket id (unique per executor).
    pub fn id(&self) -> u64 {
        self.state.id
    }

    /// Whether the result is ready. Never blocks.
    pub fn is_done(&self) -> bool {
        self.state.done.load(Ordering::Acquire)
    }

    /// The result, if ready. Never blocks beyond one uncontended mutex.
    pub fn poll(&self) -> Option<Arc<AsyncOutcome<E>>> {
        if !self.is_done() {
            return None;
        }
        self.state
            .payload
            .lock()
            .expect("ticket slot poisoned")
            .clone()
    }

    /// Park the calling thread until the result is ready.
    pub fn wait(&self) -> Arc<AsyncOutcome<E>> {
        loop {
            if let Some(p) = self.poll() {
                return p;
            }
            self.state
                .waiters
                .lock()
                .expect("waiter table poisoned")
                .push(thread::current());
            // Re-check after registering: completion may have drained the
            // table between our poll and our push. The timeout is a
            // belt-and-braces backstop against a lost unpark.
            if !self.is_done() {
                thread::park_timeout(Duration::from_millis(20));
            }
        }
    }

    /// [`Self::wait`] with a deadline; `None` on timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Arc<AsyncOutcome<E>>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(p) = self.poll() {
                return Some(p);
            }
            let now = Instant::now();
            if now >= deadline {
                return self.poll();
            }
            self.state
                .waiters
                .lock()
                .expect("waiter table poisoned")
                .push(thread::current());
            if !self.is_done() {
                thread::park_timeout((deadline - now).min(Duration::from_millis(20)));
            }
        }
    }
}

/// Point-in-time executor counters, exported by the service as the
/// `ttlg_coalesced_*` / `ttlg_completion_queue_depth` families and
/// returned by `TransposeService::async_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AsyncStatsSnapshot {
    /// Tickets issued by `submit_async` (leaders + followers + rejects).
    pub submitted: u64,
    /// Work items actually executed by the worker pool.
    pub executed: u64,
    /// Followers that shared another request's execution.
    pub coalesced: u64,
    /// Submissions rejected because the submission queue was full.
    pub rejected: u64,
    /// Completion records currently queued for delivery.
    pub completion_depth: usize,
    /// Work items currently queued for execution.
    pub submit_depth: usize,
}

/// Bounded two-condvar queue: non-blocking or blocking producers,
/// blocking consumers, explicit close.
struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    added: Condvar,
    removed: Condvar,
}

struct QueueState<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                capacity: capacity.max(1),
                closed: false,
            }),
            added: Condvar::new(),
            removed: Condvar::new(),
        }
    }

    /// Non-blocking push; the item comes back on a full or closed queue.
    fn try_push(&self, item: T) -> Result<(), T> {
        let mut s = self.state.lock().expect("queue poisoned");
        if s.closed || s.items.len() >= s.capacity {
            return Err(item);
        }
        s.items.push_back(item);
        drop(s);
        self.added.notify_one();
        Ok(())
    }

    /// Blocking push: waits for space. `false` if the queue closed (the
    /// item is dropped; callers complete tickets inline in that case).
    fn push_blocking(&self, item: T) -> bool {
        let mut s = self.state.lock().expect("queue poisoned");
        while !s.closed && s.items.len() >= s.capacity {
            s = self.removed.wait(s).expect("queue poisoned");
        }
        if s.closed {
            return false;
        }
        s.items.push_back(item);
        drop(s);
        self.added.notify_one();
        true
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    fn pop_blocking(&self) -> Option<T> {
        let mut s = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.removed.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.added.wait(s).expect("queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.added.notify_all();
        self.removed.notify_all();
    }

    fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").items.len()
    }
}

/// Identity of one in-flight problem: the plan key's stable fingerprint
/// plus the input tensor's `Arc` identity (same allocation ⇒ same
/// bytes). The leader's work item holds the input `Arc` alive for the
/// lifetime of the table entry, so the pointer cannot be recycled while
/// the entry exists.
type CoalesceKey = (u64, usize);

struct WorkItem<E: Element> {
    req: TransposeRequest<E>,
    ticket: Arc<TicketState<E>>,
    key: Option<CoalesceKey>,
}

struct CompletionRecord<E: Element> {
    ticket: Arc<TicketState<E>>,
    payload: Arc<AsyncOutcome<E>>,
}

struct AsyncShared<E: Element> {
    submissions: BoundedQueue<WorkItem<E>>,
    completions: BoundedQueue<CompletionRecord<E>>,
    /// Single-flight table: in-flight problem -> followers awaiting the
    /// leader's execution.
    inflight: Mutex<HashMap<CoalesceKey, Vec<Arc<TicketState<E>>>>>,
    coalesce: bool,
    next_ticket: AtomicU64,
    submitted: AtomicU64,
    executed: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
}

/// The executor: worker pool + dispatcher around the two queues. Owned
/// by the service (lazily created on first `submit_async`); `Drop`
/// closes the queues and joins every thread.
pub struct AsyncExecutor<E: Element> {
    shared: Arc<AsyncShared<E>>,
    workers: Vec<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl<E: Element> AsyncExecutor<E> {
    pub(crate) fn start(svc: Weak<TransposeService<E>>, cfg: AsyncConfig, workers: usize) -> Self {
        let shared = Arc::new(AsyncShared {
            submissions: BoundedQueue::new(cfg.submit_capacity),
            completions: BoundedQueue::new(cfg.completion_capacity),
            inflight: Mutex::new(HashMap::new()),
            coalesce: cfg.coalesce,
            next_ticket: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });
        let n = if cfg.workers == 0 {
            workers
        } else {
            cfg.workers
        }
        .max(1);
        let worker_handles = (0..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let svc = svc.clone();
                thread::Builder::new()
                    .name(format!("ttlg-async-{i}"))
                    .spawn(move || worker_loop(&shared, &svc))
                    .expect("spawn async worker")
            })
            .collect();
        let dispatcher = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("ttlg-async-cq".into())
                .spawn(move || {
                    while let Some(rec) = shared.completions.pop_blocking() {
                        rec.ticket.complete(rec.payload);
                    }
                })
                .expect("spawn completion dispatcher")
        };
        AsyncExecutor {
            shared,
            workers: worker_handles,
            dispatcher: Some(dispatcher),
        }
    }

    /// Issue a ticket for `req`. Never blocks: a coalescible request
    /// attaches to the in-flight leader, a fresh one enqueues, and a
    /// full queue completes the ticket with an overload error inline.
    pub(crate) fn submit(
        &self,
        req: TransposeRequest<E>,
        hook: Option<CompletionHook<E>>,
    ) -> TicketHandle<E> {
        let shared = &self.shared;
        shared.submitted.fetch_add(1, Ordering::Relaxed);
        let ticket = TicketState::new(shared.next_ticket.fetch_add(1, Ordering::Relaxed), hook);
        let key = if shared.coalesce {
            let fp = req.plan_key().problem_fingerprint();
            let identity = Arc::as_ptr(&req.input) as usize;
            let key = (fp, identity);
            let mut tbl = shared.inflight.lock().expect("inflight table poisoned");
            if let Some(followers) = tbl.get_mut(&key) {
                // Single-flight: ride the in-flight leader's execution.
                followers.push(Arc::clone(&ticket));
                return TicketHandle { state: ticket };
            }
            tbl.insert(key, Vec::new());
            Some(key)
        } else {
            None
        };
        let item = WorkItem {
            req,
            ticket: Arc::clone(&ticket),
            key,
        };
        if let Err(item) = shared.submissions.try_push(item) {
            // Saturated: fail fast, inline, without touching the
            // (possibly also full) completion queue. Followers that
            // attached between the table insert and this rejection fail
            // with the same error.
            let orphans = item
                .key
                .and_then(|k| {
                    shared
                        .inflight
                        .lock()
                        .expect("inflight table poisoned")
                        .remove(&k)
                })
                .unwrap_or_default();
            let payload = Arc::new(overload_outcome::<E>(shared.submissions.len()));
            shared.rejected.fetch_add(1, Ordering::Relaxed);
            item.ticket.complete(Arc::clone(&payload));
            for orphan in orphans {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                orphan.complete(Arc::clone(&payload));
            }
        }
        TicketHandle { state: ticket }
    }

    /// Point-in-time counters.
    pub(crate) fn stats(&self) -> AsyncStatsSnapshot {
        AsyncStatsSnapshot {
            submitted: self.shared.submitted.load(Ordering::Relaxed),
            executed: self.shared.executed.load(Ordering::Relaxed),
            coalesced: self.shared.coalesced.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            completion_depth: self.shared.completions.len(),
            submit_depth: self.shared.submissions.len(),
        }
    }
}

impl<E: Element> Drop for AsyncExecutor<E> {
    fn drop(&mut self) {
        // Close the submission queue; workers drain what is already
        // queued (failing tickets if the service is gone) and exit.
        self.shared.submissions.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // All producers are gone: close the completion queue so the
        // dispatcher delivers the remainder and exits.
        self.shared.completions.close();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
    }
}

fn overload_outcome<E: Element>(depth: usize) -> AsyncOutcome<E> {
    AsyncOutcome {
        result: Err(ServeError {
            message: format!("async executor overloaded: submission queue full ({depth} queued)"),
        }),
        trace: RequestTrace {
            error: Some("async executor overloaded".into()),
            ..Default::default()
        },
        spans: Vec::new(),
        decision: None,
        coalesced: false,
    }
}

fn shutdown_outcome<E: Element>() -> AsyncOutcome<E> {
    AsyncOutcome {
        result: Err(ServeError {
            message: "service shut down before the request executed".into(),
        }),
        trace: RequestTrace {
            error: Some("service shut down".into()),
            ..Default::default()
        },
        spans: Vec::new(),
        decision: None,
        coalesced: false,
    }
}

fn worker_loop<E: Element>(shared: &AsyncShared<E>, svc: &Weak<TransposeService<E>>) {
    while let Some(item) = shared.submissions.pop_blocking() {
        let svc = match svc.upgrade() {
            Some(svc) => svc,
            None => {
                let followers = take_followers(shared, item.key);
                let payload = Arc::new(shutdown_outcome::<E>());
                for f in followers {
                    let p = Arc::new(AsyncOutcome {
                        result: payload.result.clone(),
                        trace: payload.trace.clone(),
                        spans: payload.spans.clone(),
                        decision: payload.decision.clone(),
                        coalesced: true,
                    });
                    push_completion(shared, f, p);
                }
                push_completion(shared, Arc::clone(&item.ticket), payload);
                continue;
            }
        };
        shared.executed.fetch_add(1, Ordering::Relaxed);
        // A panic in plan or execute must not kill the worker: the
        // leader and its followers complete with an error and the
        // single-flight key is cleared below like any other.
        let started = Instant::now();
        let leader = panic::catch_unwind(AssertUnwindSafe(|| svc.run_async_leader(&item.req)))
            .unwrap_or_else(|cause| {
                let elapsed_ns = started.elapsed().as_nanos() as u64;
                svc.async_leader_panicked(&item.req, elapsed_ns, cause.as_ref())
            });
        let payload = Arc::new(leader);
        let followers = take_followers(shared, item.key);
        // Per-follower service accounting (request counters, ring
        // trace marked coalesced, SLO) happens before delivery so
        // metrics and results can never disagree.
        let follower_payloads: Vec<Arc<AsyncOutcome<E>>> = followers
            .iter()
            .map(|_| {
                shared.coalesced.fetch_add(1, Ordering::Relaxed);
                let trace = svc.deliver_coalesced(&item.req, &payload);
                Arc::new(AsyncOutcome {
                    result: payload.result.clone(),
                    trace,
                    spans: payload.spans.clone(),
                    decision: payload.decision.clone(),
                    coalesced: true,
                })
            })
            .collect();
        drop(svc);
        for (ticket, p) in followers.into_iter().zip(follower_payloads) {
            push_completion(shared, ticket, p);
        }
        push_completion(shared, Arc::clone(&item.ticket), payload);
    }
}

fn take_followers<E: Element>(
    shared: &AsyncShared<E>,
    key: Option<CoalesceKey>,
) -> Vec<Arc<TicketState<E>>> {
    key.and_then(|k| {
        shared
            .inflight
            .lock()
            .expect("inflight table poisoned")
            .remove(&k)
    })
    .unwrap_or_default()
}

/// Push one completion record, delivering inline if the completion
/// queue has closed (shutdown race).
fn push_completion<E: Element>(
    shared: &AsyncShared<E>,
    ticket: Arc<TicketState<E>>,
    payload: Arc<AsyncOutcome<E>>,
) {
    let rec = CompletionRecord {
        ticket: Arc::clone(&ticket),
        payload: Arc::clone(&payload),
    };
    if !shared.completions.push_blocking(rec) {
        ticket.complete(payload);
    }
}
