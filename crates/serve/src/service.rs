//! The memoising simulation service: solution store + priority queue +
//! scheduler over a long-lived [`SweepEngine`].
//!
//! # Life of a request
//!
//! 1. **submit** — the spec is validated and canonicalised, the family's
//!    registration epoch and builder are read from the registry, and its
//!    [`JobKey`] is folded from the family, the epoch and the quantised
//!    parameters ([`JobSpec::key`]: no circuit is built). Then, under the
//!    owning shard's state lock:
//!    * a **store hit** completes the job instantly with the stored
//!      [`Arc`]'d result (byte-for-byte what the original solve produced —
//!      replay is bit-identical by construction);
//!    * an **in-flight duplicate** (same key queued or solving) is
//!      *coalesced*: the new job id joins the existing execution's waiter
//!      list, so two concurrent identical submits cost one solve;
//!    * otherwise the job is **admitted** to the bounded priority queue —
//!      or rejected with [`ServeError::QueueFull`] backpressure.
//! 2. **schedule** — a scheduler thread drains the queue in priority
//!    order, batches consecutive same-backend jobs, and hands the batch to
//!    the [`SweepEngine`], which groups jobs by circuit structure and runs
//!    the groups on its [`WorkerPool`]. The first circuit build happens
//!    here, so a builder error settles the job [`JobStatus::Failed`].
//! 3. **complete** — results are stored (LRU-evicting at capacity) and
//!    every waiter is completed; `poll`/`wait` observe the transition.
//!
//! # Determinism
//!
//! Every job solves on workspaces of its own from its own initial guess,
//! with no cross-job seeding, so an identical spec re-solved on a fresh
//! service reproduces the stored samples bit-for-bit — the property the
//! memo-hit acceptance test pins.
//!
//! # Sharding
//!
//! With [`ServeConfig::shards`] > 1 the service is a pool of independent
//! shards. Each shard owns its *own* scheduler thread, [`SweepEngine`],
//! solution store and scheduler state; only the family registry and the
//! fault table are shared. Every submit reads the registry under its
//! mutex for one map lookup, then works on its shard's locks alone.
//! Submits route by rendezvous hashing
//! ([`rfsim_rf::key::rendezvous_route`]) over the *routing slot*
//! ([`JobSpec::route_slot`]: the family and the quantised first point),
//! which is computable before any lock is taken. The same spec always
//! routes to the same shard, so no solution is ever stored on two shards.
//! Job ids are allocated in strides (shard `s` of
//! `n` issues `s+1`, `s+1+n`, …), so `poll`/`wait`/`cancel` decode the
//! owning shard from the id alone. `stats` reports both the aggregate
//! view and one [`ShardStats`] per shard.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rfsim_circuit::fault::SolveFault;
use rfsim_circuit::newton::WorkspaceStats;
use rfsim_hb::Hb2Options;
use rfsim_mpde::solver::MpdeOptions;
use rfsim_netlist::{Analysis, DrivePoint, Netlist};
use rfsim_numerics::json::Json;
use rfsim_numerics::telemetry::{LatencyHistogram, Timeline, TimelineEvent, TimelineEventKind};
use rfsim_numerics::{CancelToken, InterruptReason, SolveBudget, SolveInterrupted};
use rfsim_rf::key::{rendezvous_route, JobKey, Quantizer};
use rfsim_rf::pool::WorkerPool;
use rfsim_rf::sweep::{CacheSnapshot, Hb2SweepJob, MpdeSweepJob, PeriodicFdSweepJob, SweepEngine};
use rfsim_shooting::PeriodicFdOptions;

use crate::error::{Result, ServeError};
use crate::queue::{JobQueue, QueuedJob};
use crate::spec::{
    BackendKind, FamilyRegistry, JobResult, JobSpec, PointParams, PointSolution, Priority,
};
use crate::store::{SolutionStore, StoreStats};

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Solutions retained by the LRU store.
    pub store_capacity: usize,
    /// Backpressure bound on waiting jobs.
    pub queue_capacity: usize,
    /// Worker threads of the underlying sweep engine.
    pub threads: usize,
    /// Jobs dispatched per scheduling round (one engine batch).
    pub batch_max: usize,
    /// Settled job records (done/failed) retained for polling. Oldest
    /// records are dropped past this bound — `poll` then reports the id
    /// as unknown — so a long-lived daemon's memory stays flat however
    /// many requests it has served (results themselves are bounded
    /// separately by `store_capacity`).
    pub result_capacity: usize,
    /// Parameter quantisation for store keys.
    pub quantizer: Quantizer,
    /// Start with the scheduler paused (tests and manual embedders;
    /// resume with [`SimService::resume`]).
    pub paused: bool,
    /// Wall-clock deadline (milliseconds, from dispatch) applied to jobs
    /// that carry no [`JobSpec::deadline_ms`] of their own. This is the
    /// scheduler-slot reclamation bound: a hung solve is interrupted
    /// when it expires instead of pinning an engine worker forever.
    /// `None` (the default) leaves such jobs unbounded.
    pub default_deadline_ms: Option<u64>,
    /// Automatic re-dispatches after a *transient* solve failure (a
    /// solver error that is neither a budget interruption nor a panic).
    /// `0` (the default) fails the job on its first error.
    pub retry_max: usize,
    /// Backoff before retry attempt `k`: `retry_backoff_ms << (k-1)`
    /// milliseconds (exponential, first retry waits one unit).
    pub retry_backoff_ms: u64,
    /// Independent engine shards (clamped ≥ 1). Each shard owns its own
    /// scheduler thread, engine (with `threads` workers *each*) and
    /// store; submits route by rendezvous hashing over the
    /// `(family, quantised first point)` slot. See the module docs'
    /// sharding section and `docs/scaling.md` for sizing guidance.
    pub shards: usize,
    /// Per-job lifecycle telemetry: queue-wait / solve / end-to-end
    /// latency histograms per shard, plus a bounded [`Timeline`] of
    /// typed events per job ([`SimService::trace`], the `trace` wire
    /// verb). Default on; when off, jobs carry no timeline, no
    /// histogram is touched, and the solve hot path pays only the
    /// budget's existing off-branch. See `docs/observability.md`.
    pub telemetry: bool,
    /// Emit a one-line timeline to stderr for every job whose
    /// end-to-end latency reaches this many milliseconds (requires
    /// `telemetry`). `None` (the default) logs nothing.
    pub slow_log_ms: Option<u64>,
    /// Settled-job timelines retained per shard for the `trace` verb
    /// (FIFO past the bound, like `result_capacity` for results).
    pub trace_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            store_capacity: 256,
            queue_capacity: 1024,
            threads: WorkerPool::from_available_parallelism().threads(),
            batch_max: 16,
            result_capacity: 1024,
            quantizer: Quantizer::default(),
            paused: false,
            default_deadline_ms: None,
            retry_max: 0,
            retry_backoff_ms: 50,
            shards: 1,
            telemetry: true,
            slow_log_ms: None,
            trace_capacity: 256,
        }
    }
}

/// A submitted job's handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// What [`SimService::submit_netlist`] produced: the admitted job, the
/// content-addressed family it keyed against, and whether this submit
/// registered the family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetlistSubmission {
    /// The submitted job's id.
    pub job_id: JobId,
    /// The content-addressed dynamic family name (`netlist:<16 hex>`).
    pub family: String,
    /// Whether this submit registered the family (false = the same
    /// canonical text is already hosted).
    pub registered: bool,
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Waiting in the admission queue (or coalesced onto a queued twin).
    Queued,
    /// Being solved by the engine (or coalesced onto a running twin).
    Running,
    /// Completed.
    Done {
        /// The solution (shared with the store and any coalesced twins).
        result: Arc<JobResult>,
        /// Whether this job was served from the solution store without a
        /// solve.
        memo_hit: bool,
    },
    /// Failed; the message is the solver or build error.
    Failed {
        /// Human-readable failure description.
        message: String,
        /// Present when the failure was a typed budget interruption
        /// (cancel, deadline, stagnation) rather than a numerical or
        /// structural error.
        interrupted: Option<InterruptSummary>,
    },
}

impl JobStatus {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done { .. } => "done",
            JobStatus::Failed { .. } => "failed",
        }
    }

    /// A plain (non-interrupted) failure.
    pub fn failed(message: impl Into<String>) -> JobStatus {
        JobStatus::Failed {
            message: message.into(),
            interrupted: None,
        }
    }
}

/// A mid-solve snapshot of a running job: which recovery-ladder rung is
/// active, how deep its Newton iteration is, and the best residual seen.
/// Published by the per-job budget's progress observer (the
/// `NewtonDriver` stages every rung's budget child with the rung label),
/// refreshed on every Newton iteration of every row of the job, and
/// dropped when the job settles. Scheduling observability only — never
/// part of a store key or a result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProgress {
    /// Active recovery-ladder rung label (`plain`, `gmin_stepping`,
    /// `source_stepping`, `continuation`, `retry_unseeded`).
    pub rung: &'static str,
    /// Newton iterations completed inside the active rung.
    pub iteration: usize,
    /// Best residual norm seen so far in the active rung.
    pub best_residual: f64,
}

/// Shared slot the solve thread writes progress into and `poll` reads
/// from — one per in-flight execution, alongside its cancel token.
type ProgressSlot = Arc<Mutex<Option<JobProgress>>>;

/// Per-execution control handles: the cancel token fired by
/// [`SimService::cancel`], the backend whose counters a pre-dispatch
/// cancellation must charge, the progress slot `poll` snapshots, and
/// (with telemetry on) the job's lifecycle timeline plus the instants
/// the latency histograms are computed from.
struct JobControl {
    token: CancelToken,
    kind: BackendKind,
    progress: ProgressSlot,
    /// When the execution was admitted (timeline origin).
    admitted_at: Instant,
    /// When the scheduler first handed the execution to the engine
    /// (`None` until dispatch; queue wait = `dispatched_at -
    /// admitted_at`, solve time = settle − `dispatched_at`).
    dispatched_at: Option<Instant>,
    /// The job's lifecycle timeline (`None` with telemetry off). The
    /// mutex is uncontended in practice: the solve thread appends
    /// milestones, everyone else touches it only at dispatch/settle
    /// under the state lock.
    trace: Option<Arc<Mutex<Timeline>>>,
    /// The family name, for the slow-job log line.
    family: String,
}

impl JobControl {
    fn new(
        kind: BackendKind,
        family: String,
        trace: Option<Arc<Mutex<Timeline>>>,
        admitted_at: Instant,
    ) -> Self {
        JobControl {
            token: CancelToken::new(),
            kind,
            progress: Arc::new(Mutex::new(None)),
            admitted_at,
            dispatched_at: None,
            trace,
            family,
        }
    }
}

/// The settle-outcome label of a [`JobStatus`] for timeline events:
/// `hit`, `solved`, `failed`, `cancelled`, `deadline_expired` or
/// `stagnated`.
fn settle_outcome(status: &JobStatus) -> &'static str {
    match status {
        JobStatus::Done { memo_hit: true, .. } => "hit",
        JobStatus::Done { .. } => "solved",
        JobStatus::Failed {
            interrupted: Some(i),
            ..
        } => i.reason.label(),
        JobStatus::Failed { .. } => "failed",
        // Settle is only ever recorded for settled statuses.
        _ => "failed",
    }
}

/// Records memo-hit telemetry for an id settled at submit: the (tiny)
/// end-to-end latency plus a two-event `admitted → settled{hit}` trace.
fn note_memo_hit(inner: &Inner, id: JobId, t0: Instant) {
    if !inner.telemetry.enabled {
        return;
    }
    inner.telemetry.record_e2e(t0.elapsed());
    let mut timeline = Timeline::new(4);
    timeline.record(TimelineEventKind::Admitted);
    timeline.record(TimelineEventKind::Settled { outcome: "hit" });
    inner.telemetry.retain_trace(id.0, Arc::new(timeline));
}

/// Per-dispatch handles the scheduler hands to `execute_batch`: cancel
/// token, shared progress slot, and (telemetry on) the job's timeline.
type DispatchHandles = (CancelToken, ProgressSlot, Option<Arc<Mutex<Timeline>>>);

/// Per-shard latency telemetry plus the bounded settled-trace store.
/// All recording is a no-op when [`ServeConfig::telemetry`] is off.
struct ShardTelemetry {
    enabled: bool,
    queue_wait: Mutex<LatencyHistogram>,
    solve: Mutex<LatencyHistogram>,
    e2e: Mutex<LatencyHistogram>,
    traces: Mutex<TraceStore>,
}

/// Settled timelines keyed by job id, FIFO-bounded like the result
/// window. Coalesced waiters share one [`Arc`]'d timeline.
struct TraceStore {
    capacity: usize,
    map: HashMap<u64, Arc<Timeline>>,
    order: std::collections::VecDeque<u64>,
}

impl TraceStore {
    fn insert(&mut self, id: u64, trace: Arc<Timeline>) {
        if self.capacity == 0 {
            return;
        }
        if self.map.insert(id, trace).is_none() {
            self.order.push_back(id);
        }
        while self.order.len() > self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
    }
}

impl ShardTelemetry {
    /// Events retained per job timeline: enough for admit → dispatch →
    /// a full recovery ladder with power-of-two milestones → settle.
    const TIMELINE_EVENTS: usize = 64;

    fn new(config: &ServeConfig) -> Self {
        ShardTelemetry {
            enabled: config.telemetry,
            queue_wait: Mutex::new(LatencyHistogram::new()),
            solve: Mutex::new(LatencyHistogram::new()),
            e2e: Mutex::new(LatencyHistogram::new()),
            traces: Mutex::new(TraceStore {
                capacity: config.trace_capacity,
                map: HashMap::new(),
                order: std::collections::VecDeque::new(),
            }),
        }
    }

    /// A fresh per-job timeline, or `None` with telemetry off.
    fn new_timeline(&self) -> Option<Arc<Mutex<Timeline>>> {
        self.enabled
            .then(|| Arc::new(Mutex::new(Timeline::new(Self::TIMELINE_EVENTS))))
    }

    fn record_queue_wait(&self, elapsed: Duration) {
        if self.enabled {
            self.queue_wait
                .lock()
                .expect("telemetry poisoned")
                .record(elapsed);
        }
    }

    fn record_solve(&self, elapsed: Duration) {
        if self.enabled {
            self.solve
                .lock()
                .expect("telemetry poisoned")
                .record(elapsed);
        }
    }

    fn record_e2e(&self, elapsed: Duration) {
        if self.enabled {
            self.e2e.lock().expect("telemetry poisoned").record(elapsed);
        }
    }

    fn retain_trace(&self, id: u64, trace: Arc<Timeline>) {
        if self.enabled {
            self.traces
                .lock()
                .expect("telemetry poisoned")
                .insert(id, trace);
        }
    }

    fn trace(&self, id: u64) -> Option<Arc<Timeline>> {
        self.traces
            .lock()
            .expect("telemetry poisoned")
            .map
            .get(&id)
            .cloned()
    }

    fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            queue_wait: self.queue_wait.lock().expect("telemetry poisoned").clone(),
            solve: self.solve.lock().expect("telemetry poisoned").clone(),
            e2e: self.e2e.lock().expect("telemetry poisoned").clone(),
        }
    }
}

/// A point-in-time copy of one scope's latency histograms (one shard,
/// or the cross-shard aggregate). Part of [`ShardStats`]/[`ServeStats`];
/// the full histograms ride along (not just summaries) so the `metrics`
/// exposition can emit counts and sums losslessly.
#[derive(Debug, Clone)]
pub struct LatencySnapshot {
    /// Admission → first dispatch.
    pub queue_wait: LatencyHistogram,
    /// First dispatch → settle (per execution, coalesced waiters
    /// counted once).
    pub solve: LatencyHistogram,
    /// Admission → settle, per job id (memo hits included).
    pub e2e: LatencyHistogram,
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        LatencySnapshot {
            queue_wait: LatencyHistogram::new(),
            solve: LatencyHistogram::new(),
            e2e: LatencyHistogram::new(),
        }
    }
}

impl LatencySnapshot {
    /// Merges `other` into `self` (cross-shard aggregation).
    fn absorb(&mut self, other: &LatencySnapshot) {
        self.queue_wait.absorb(&other.queue_wait);
        self.solve.absorb(&other.solve);
        self.e2e.absorb(&other.e2e);
    }

    /// The `latency` stats section: one summary object per histogram.
    pub fn to_json(&self) -> Json {
        let summary_json = |h: &LatencyHistogram| {
            let s = h.summary();
            Json::object([
                ("count", Json::from(s.count as usize)),
                ("mean_ms", Json::number(s.mean_ms)),
                ("p50_ms", Json::number(s.p50_ms)),
                ("p90_ms", Json::number(s.p90_ms)),
                ("p99_ms", Json::number(s.p99_ms)),
                ("max_ms", Json::number(s.max_ms)),
            ])
        };
        Json::object([
            ("queue_wait", summary_json(&self.queue_wait)),
            ("solve", summary_json(&self.solve)),
            ("e2e", summary_json(&self.e2e)),
        ])
    }
}

/// An ordered view of one job's lifecycle timeline — what
/// [`SimService::trace`] (and the `trace` wire verb) returns.
#[derive(Debug, Clone)]
pub struct TraceView {
    /// The job the timeline belongs to.
    pub job_id: u64,
    /// Whether the job has settled (a live job yields a partial trace).
    pub settled: bool,
    /// The events, in record order; `at_ns` offsets are from admission.
    pub events: Vec<TimelineEvent>,
    /// Events dropped at the timeline's capacity bound.
    pub dropped: usize,
}

impl TraceView {
    /// Wire encoding (the `trace` verb's payload).
    pub fn to_json(&self) -> Json {
        let event_json = |e: &TimelineEvent| {
            let mut members = vec![
                ("t_ms", Json::number(e.at_ns as f64 / 1e6)),
                ("event", Json::string(e.kind.label())),
            ];
            match e.kind {
                TimelineEventKind::Rung { label } => {
                    members.push(("rung", Json::string(label)));
                }
                TimelineEventKind::Iteration {
                    rung,
                    iteration,
                    residual,
                } => {
                    members.push(("rung", Json::string(rung)));
                    members.push(("iteration", Json::from(iteration)));
                    if residual.is_finite() {
                        members.push(("residual", Json::number(residual)));
                    }
                }
                TimelineEventKind::Retry {
                    attempt,
                    backoff_ms,
                } => {
                    members.push(("attempt", Json::from(attempt)));
                    members.push(("backoff_ms", Json::from(backoff_ms as usize)));
                }
                TimelineEventKind::Settled { outcome } => {
                    members.push(("outcome", Json::string(outcome)));
                }
                _ => {}
            }
            Json::object(members)
        };
        Json::object([
            ("job_id", Json::from(self.job_id as usize)),
            ("settled", Json::Bool(self.settled)),
            ("events", Json::array(self.events.iter().map(event_json))),
            ("dropped", Json::from(self.dropped)),
        ])
    }
}

/// One compact line per timeline for the slow-job log:
/// `admitted+0.0ms queued+0.0ms … settled(solved)+812.4ms`.
fn format_timeline(timeline: &Timeline) -> String {
    let mut parts: Vec<String> = timeline
        .events()
        .iter()
        .map(|e| {
            let t_ms = e.at_ns as f64 / 1e6;
            match e.kind {
                TimelineEventKind::Rung { label } => format!("rung({label})+{t_ms:.1}ms"),
                TimelineEventKind::Iteration {
                    iteration, rung, ..
                } => format!("iter({rung}:{iteration})+{t_ms:.1}ms"),
                TimelineEventKind::Retry { attempt, .. } => format!("retry({attempt})+{t_ms:.1}ms"),
                TimelineEventKind::Settled { outcome } => {
                    format!("settled({outcome})+{t_ms:.1}ms")
                }
                ref kind => format!("{}+{t_ms:.1}ms", kind.label()),
            }
        })
        .collect();
    if timeline.dropped() > 0 {
        parts.push(format!("(+{} dropped)", timeline.dropped()));
    }
    parts.join(" ")
}

/// The control-plane outcome of an interrupted job: what a
/// [`SolveInterrupted`] looked like at the moment the budget stopped the
/// solve, flattened to wire-friendly fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptSummary {
    /// Why the solve stopped.
    pub reason: InterruptReason,
    /// Outer iterations completed before the stop.
    pub iterations: usize,
    /// Best residual reached (infinite when no iteration finished).
    pub best_residual: f64,
    /// Wall-clock spent in the solve (milliseconds).
    pub elapsed_ms: u64,
}

impl InterruptSummary {
    /// Wire label of the reason (`cancelled` / `deadline_expired` /
    /// `stagnated`).
    pub fn label(&self) -> &'static str {
        self.reason.label()
    }
}

impl From<&SolveInterrupted> for InterruptSummary {
    fn from(i: &SolveInterrupted) -> Self {
        InterruptSummary {
            reason: i.reason,
            iterations: i.iterations,
            best_residual: i.best_residual,
            elapsed_ms: i.elapsed.as_millis() as u64,
        }
    }
}

/// Per-backend-queue service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Jobs admitted (including coalesced and memo-served ones).
    pub submitted: usize,
    /// Jobs completed instantly from the solution store.
    pub memo_hits: usize,
    /// Jobs coalesced onto an in-flight identical execution.
    pub coalesced: usize,
    /// Unique executions dispatched to the engine.
    pub solves: usize,
    /// Re-dispatches after a transient solve failure (each retry of each
    /// execution counts once).
    pub retried: usize,
    /// Jobs completed successfully (memo hits included).
    pub completed: usize,
    /// Jobs failed.
    pub failed: usize,
    /// Jobs failed *by cancellation* specifically (a subset of
    /// `failed`): the budget's typed `cancelled` interruption, whether
    /// it landed before dispatch or mid-solve.
    pub cancelled: usize,
    /// Submits rejected by queue backpressure.
    pub rejected: usize,
}

impl QueueCounters {
    /// Adds `other`'s counts into `self` (cross-shard aggregation).
    fn absorb(&mut self, other: &QueueCounters) {
        self.submitted += other.submitted;
        self.memo_hits += other.memo_hits;
        self.coalesced += other.coalesced;
        self.solves += other.solves;
        self.retried += other.retried;
        self.completed += other.completed;
        self.failed += other.failed;
        self.cancelled += other.cancelled;
        self.rejected += other.rejected;
    }
}

/// All per-queue counters, indexed by [`BackendKind::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// One counter block per backend queue.
    pub queues: [QueueCounters; 3],
}

impl ServeCounters {
    /// The counter block for `kind`.
    pub fn queue(&self, kind: BackendKind) -> QueueCounters {
        self.queues[kind.index()]
    }

    fn queue_mut(&mut self, kind: BackendKind) -> &mut QueueCounters {
        &mut self.queues[kind.index()]
    }

    /// Totals across the three queues.
    pub fn total(&self) -> QueueCounters {
        let mut t = QueueCounters::default();
        for q in &self.queues {
            t.absorb(q);
        }
        t
    }

    /// Adds `other`'s queues into `self` (cross-shard aggregation).
    fn absorb(&mut self, other: &ServeCounters) {
        for (mine, theirs) in self.queues.iter_mut().zip(&other.queues) {
            mine.absorb(theirs);
        }
    }
}

/// A point-in-time view of one shard: its store, queue, counters and
/// engine. The same shape as the aggregate [`ServeStats`] sections, plus
/// the shard index.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// The shard's index in the pool (`0..shards`).
    pub shard: usize,
    /// Solution-store counters.
    pub store: StoreStats,
    /// Solutions currently retained.
    pub store_len: usize,
    /// Store capacity.
    pub store_capacity: usize,
    /// Jobs waiting for dispatch.
    pub queue_depth: usize,
    /// Queue backpressure bound.
    pub queue_capacity: usize,
    /// Per-backend queue counters.
    pub counters: ServeCounters,
    /// The shard engine's workspace counters (see [`CacheSnapshot`]).
    pub engine_cache: CacheSnapshot,
    /// The shard engine's linear-solver counters.
    pub solver: WorkspaceStats,
    /// Queue-wait / solve / end-to-end latency histograms (empty with
    /// telemetry off).
    pub latency: LatencySnapshot,
}

impl ShardStats {
    /// Store hit rate over all lookups so far (0 when none).
    pub fn store_hit_rate(&self) -> f64 {
        store_hit_rate(&self.store)
    }

    /// Wire encoding: the aggregate sections plus `shard`.
    pub fn to_json(&self) -> Json {
        let mut members = vec![("shard".to_string(), Json::from(self.shard))];
        members.extend(stats_sections(
            &self.store,
            self.store_len,
            self.store_capacity,
            self.queue_depth,
            self.queue_capacity,
            &self.counters,
            &self.engine_cache,
            &self.solver,
            &self.latency,
        ));
        Json::Object(members)
    }
}

/// A point-in-time view of the whole service: every field aggregates
/// across shards; `shards` holds the per-shard breakdown.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Solution-store counters (summed across shards).
    pub store: StoreStats,
    /// Solutions currently retained (all shards).
    pub store_len: usize,
    /// Store capacity (summed across shards).
    pub store_capacity: usize,
    /// Jobs waiting for dispatch (all shards).
    pub queue_depth: usize,
    /// Queue backpressure bound (summed across shards).
    pub queue_capacity: usize,
    /// Per-backend queue counters (summed across shards).
    pub counters: ServeCounters,
    /// Compatibility counters for readers of the retired fingerprint
    /// cache; not on the wire. See [`KeyingStats`].
    pub keying: KeyingStats,
    /// Engine workspace counters (summed across shard engines).
    pub engine_cache: CacheSnapshot,
    /// Aggregated linear-solver counters.
    pub solver: WorkspaceStats,
    /// Latency histograms merged across shards.
    pub latency: LatencySnapshot,
    /// Milliseconds since the service started. A scraper that sees this
    /// decrease between polls is looking at a restarted daemon.
    pub uptime_ms: u64,
    /// Snapshot sequence number (1, 2, 3, … within one service
    /// lifetime); resets on restart, like `uptime_ms`.
    pub stats_generation: u64,
    /// The per-shard breakdown the aggregates above are summed from.
    pub shards: Vec<ShardStats>,
}

impl ServeStats {
    /// Store hit rate over all lookups so far (0 when none).
    pub fn store_hit_rate(&self) -> f64 {
        store_hit_rate(&self.store)
    }

    /// Wire encoding (the `stats` verb's payload): the aggregate
    /// sections, plus `shard_count` and a `shards` array of per-shard
    /// views in the same shape.
    pub fn to_json(&self) -> Json {
        let mut members: Vec<(String, Json)> = stats_sections(
            &self.store,
            self.store_len,
            self.store_capacity,
            self.queue_depth,
            self.queue_capacity,
            &self.counters,
            &self.engine_cache,
            &self.solver,
            &self.latency,
        );
        members.push(("uptime_ms".to_string(), Json::from(self.uptime_ms as usize)));
        members.push((
            "stats_generation".to_string(),
            Json::from(self.stats_generation as usize),
        ));
        members.push(("shard_count".to_string(), Json::from(self.shards.len())));
        members.push((
            "shards".to_string(),
            Json::array(self.shards.iter().map(ShardStats::to_json)),
        ));
        Json::Object(members)
    }
}

fn store_hit_rate(store: &StoreStats) -> f64 {
    let total = store.hits + store.misses;
    if total == 0 {
        0.0
    } else {
        store.hits as f64 / total as f64
    }
}

/// The shared section encoding of [`ServeStats`] and [`ShardStats`]:
/// one shape for the aggregate and every per-shard view, so wire
/// consumers parse both with the same paths.
#[allow(clippy::too_many_arguments)]
fn stats_sections(
    store: &StoreStats,
    store_len: usize,
    store_capacity: usize,
    queue_depth: usize,
    queue_capacity: usize,
    counters: &ServeCounters,
    engine_cache: &CacheSnapshot,
    solver: &WorkspaceStats,
    latency: &LatencySnapshot,
) -> Vec<(String, Json)> {
    let queue_json = |q: QueueCounters| {
        Json::object([
            ("submitted", Json::from(q.submitted)),
            ("memo_hits", Json::from(q.memo_hits)),
            ("coalesced", Json::from(q.coalesced)),
            ("solves", Json::from(q.solves)),
            ("retried", Json::from(q.retried)),
            ("completed", Json::from(q.completed)),
            ("failed", Json::from(q.failed)),
            ("cancelled", Json::from(q.cancelled)),
            ("rejected", Json::from(q.rejected)),
        ])
    };
    vec![
        (
            "store".to_string(),
            Json::object([
                ("len", Json::from(store_len)),
                ("capacity", Json::from(store_capacity)),
                ("hits", Json::from(store.hits)),
                ("misses", Json::from(store.misses)),
                ("hit_rate", Json::number(store_hit_rate(store))),
                ("insertions", Json::from(store.insertions)),
                ("evictions", Json::from(store.evictions)),
                ("explicit_evictions", Json::from(store.explicit_evictions)),
            ]),
        ),
        (
            "queue".to_string(),
            Json::object([
                ("depth", Json::from(queue_depth)),
                ("capacity", Json::from(queue_capacity)),
            ]),
        ),
        (
            "queues".to_string(),
            Json::object(
                BackendKind::ALL
                    .iter()
                    .map(|k| (k.label(), queue_json(counters.queue(*k)))),
            ),
        ),
        (
            "engine".to_string(),
            Json::object([
                ("workspace_hits", Json::from(engine_cache.hits)),
                ("workspace_misses", Json::from(engine_cache.misses)),
                (
                    "full_factorizations",
                    Json::from(solver.full_factorizations),
                ),
                ("refactorizations", Json::from(solver.refactorizations)),
                ("precond_refreshes", Json::from(solver.precond_refreshes)),
                ("rung_attempts", Json::from(solver.rung_attempts)),
                ("rung_successes", Json::from(solver.rung_successes)),
            ]),
        ),
        ("latency".to_string(), latency.to_json()),
    ]
}

/// What the retired per-family fingerprint cache used to count, kept
/// only because the repository benchmark (`perfbench`) still reads it.
/// Every store key is now computed without a circuit build, so every
/// submit counts as a hit. Not part of the `stats` wire payload. Delete
/// it at the next change to the benchmark, once `perfbench` stops
/// reading it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KeyingStats {
    /// Jobs submitted (every key is build-free).
    pub fp_cache_hits: usize,
    /// Always 0: no submit pays a probe build.
    pub fp_cache_misses: usize,
}

/// Scheduler-facing mutable state behind one mutex.
struct SchedState {
    queue: JobQueue,
    /// Every live job id's lifecycle state. Settled entries (done or
    /// failed) are bounded by [`ServeConfig::result_capacity`] via
    /// `settled_order`; queued/running entries live until they settle.
    jobs: HashMap<JobId, JobStatus>,
    /// Settled job ids in settle order — the FIFO that enforces the
    /// record bound.
    settled_order: std::collections::VecDeque<JobId>,
    /// In-flight executions: store key → job ids awaiting that execution.
    /// Presence in this map is what submit coalesces onto.
    waiters: HashMap<JobKey, Vec<JobId>>,
    /// Keys currently being solved by the scheduler. Queue entries whose
    /// key is here (or no longer in `waiters`) are stale duplicates from
    /// priority escalation and are dropped on pop.
    dispatched: std::collections::HashSet<JobKey>,
    /// The best priority each *queued* (not yet dispatched) key holds —
    /// lets a higher-priority coalescing submit escalate its twin.
    queued_priority: HashMap<JobKey, Priority>,
    /// Each in-flight execution's control handles (created at admit):
    /// cancel token, backend kind, progress slot.
    cancels: HashMap<JobKey, JobControl>,
    /// Live job id → execution key, so `cancel(id)` can find the
    /// execution a coalesced id rides on. Entries drop when the id
    /// settles.
    job_keys: HashMap<JobId, JobKey>,
    /// Executions parked for a retry backoff: `(due, job)`. Not in the
    /// heap — the scheduler promotes due entries back into the queue.
    deferred: Vec<(Instant, QueuedJob)>,
    /// Each live job id's admission instant (telemetry only; empty with
    /// telemetry off). Entries drop when the id settles — the e2e
    /// histogram is recorded from the removed instant, so coalesced
    /// waiters each count their own true end-to-end latency.
    admitted: HashMap<JobId, Instant>,
    counters: ServeCounters,
    next_id: u64,
    next_seq: u64,
    paused: bool,
    shutdown: bool,
}

impl SchedState {
    /// Records a settled (done/failed) status for `id`, dropping the
    /// oldest settled records past `capacity`. Returns the id's
    /// admission instant (when telemetry recorded one) so the caller
    /// can charge the e2e histogram.
    fn settle(&mut self, id: JobId, status: JobStatus, capacity: usize) -> Option<Instant> {
        self.job_keys.remove(&id);
        self.jobs.insert(id, status);
        self.settled_order.push_back(id);
        while self.settled_order.len() > capacity.max(1) {
            if let Some(old) = self.settled_order.pop_front() {
                self.jobs.remove(&old);
            }
        }
        self.admitted.remove(&id)
    }
}

/// State shared by every shard: the family registry (builders and
/// epochs), the fault-injection table and the dynamic-family texts.
/// Every submit holds the registry mutex to read the family's epoch and
/// builder; a scheduler holds it while it stores a result, so the epoch check and the insert
/// are atomic against [`SimService::register_family`] and
/// [`SimService::evict`]. Lock order: a shard's `state`, then
/// `registry`, then `dynamic`, then a shard's `store`.
struct Shared {
    registry: Mutex<FamilyRegistry>,
    /// Injected faults by family name (tests and operational drills);
    /// attached to every row of a matching job at dispatch.
    faults: Mutex<HashMap<String, SolveFault>>,
    /// Families registered dynamically from wire-submitted netlists:
    /// content-addressed name → canonical text. Bounded by
    /// [`SimService::MAX_DYNAMIC_FAMILIES`]; locked after `registry`.
    dynamic: Mutex<BTreeMap<String, String>>,
}

/// One shard: a scheduler thread's whole world. Everything here is
/// private to the shard except `shared`; while serving routed traffic,
/// two shards contend only on the registry mutex.
struct Inner {
    config: ServeConfig,
    /// This shard's index in the pool (`0..stride`).
    index: usize,
    /// The pool size; job ids are allocated in strides of it so the
    /// owning shard is decodable from the id alone.
    stride: u64,
    shared: Arc<Shared>,
    engine: SweepEngine,
    store: Mutex<SolutionStore>,
    state: Mutex<SchedState>,
    /// Wakes the scheduler (new work, resume, shutdown).
    work_cv: Condvar,
    /// Wakes pollers (a job completed or failed).
    done_cv: Condvar,
    /// Latency histograms + settled-trace retention (no-ops when
    /// telemetry is off).
    telemetry: ShardTelemetry,
}

/// The memoising simulation service: a pool of one or more shards (see
/// the module docs' sharding section). See the module docs for the
/// request lifecycle; construct with [`SimService::start`], stop with
/// [`SimService::shutdown`] (also run on drop).
pub struct SimService {
    shards: Vec<Arc<Inner>>,
    shared: Arc<Shared>,
    config: ServeConfig,
    schedulers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// When the service started — `uptime_ms` in [`ServeStats`].
    started: Instant,
    /// Bumped on every [`SimService::stats`] snapshot. Monotone within
    /// one service lifetime, so a scraper that sees it (or `uptime_ms`)
    /// go backwards knows the daemon restarted between polls.
    stats_generation: std::sync::atomic::AtomicU64,
}

impl std::fmt::Debug for SimService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimService")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl SimService {
    /// Starts a service with the built-in family catalogue.
    pub fn start(config: ServeConfig) -> Arc<SimService> {
        Self::start_with_registry(config, FamilyRegistry::builtin())
    }

    /// Starts a service hosting `registry`.
    pub fn start_with_registry(config: ServeConfig, registry: FamilyRegistry) -> Arc<SimService> {
        let shard_count = config.shards.max(1);
        let shared = Arc::new(Shared {
            registry: Mutex::new(registry),
            faults: Mutex::new(HashMap::new()),
            dynamic: Mutex::new(BTreeMap::new()),
        });
        let mut shards = Vec::with_capacity(shard_count);
        let mut schedulers = Vec::with_capacity(shard_count);
        for index in 0..shard_count {
            let engine = SweepEngine::with_pool(WorkerPool::new(config.threads));
            let inner = Arc::new(Inner {
                engine,
                index,
                stride: shard_count as u64,
                shared: Arc::clone(&shared),
                store: Mutex::new(SolutionStore::new(config.store_capacity)),
                state: Mutex::new(SchedState {
                    queue: JobQueue::new(config.queue_capacity),
                    jobs: HashMap::new(),
                    settled_order: std::collections::VecDeque::new(),
                    waiters: HashMap::new(),
                    dispatched: std::collections::HashSet::new(),
                    queued_priority: HashMap::new(),
                    cancels: HashMap::new(),
                    job_keys: HashMap::new(),
                    deferred: Vec::new(),
                    admitted: HashMap::new(),
                    counters: ServeCounters::default(),
                    // Stride allocation: shard `s` issues ids s+1,
                    // s+1+n, s+1+2n, … — unique across the pool, and
                    // `(id - 1) % n` recovers the owning shard.
                    next_id: index as u64 + 1,
                    next_seq: 0,
                    paused: config.paused,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                telemetry: ShardTelemetry::new(&config),
                config: config.clone(),
            });
            let sched_inner = Arc::clone(&inner);
            schedulers.push(
                std::thread::Builder::new()
                    .name(format!("rfsim-serve-scheduler-{index}"))
                    .spawn(move || scheduler_loop(&sched_inner))
                    .expect("spawn scheduler thread"),
            );
            shards.push(inner);
        }
        Arc::new(SimService {
            shards,
            shared,
            config,
            schedulers: Mutex::new(schedulers),
            started: Instant::now(),
            stats_generation: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// The configuration this service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The number of shards in the pool.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard that owns job `id` — decodable from the id alone
    /// because ids are allocated in shard strides.
    fn shard_of(&self, id: JobId) -> Result<&Arc<Inner>> {
        if id.0 == 0 {
            return Err(ServeError::UnknownJob(id.0));
        }
        let index = ((id.0 - 1) % self.shards.len() as u64) as usize;
        Ok(&self.shards[index])
    }

    /// Registers (or replaces) a hosted circuit family. Jobs already
    /// submitted keep the builder they were keyed against; *new* submits
    /// key against the replacement, whose fresh epoch
    /// ([`FamilyRegistry::register`]) re-keys them away from every job
    /// and stored result of the old builder — even when the topology is
    /// unchanged.
    pub fn register_family(
        &self,
        name: impl Into<String>,
        build: impl Fn(&PointParams) -> rfsim_circuit::Result<rfsim_circuit::Circuit>
            + Send
            + Sync
            + 'static,
    ) {
        let name = name.into();
        let mut registry = self.shared.registry.lock().expect("registry poisoned");
        registry.register(name.clone(), build);
        // The old builder's stored solutions can no longer be reached
        // (their keys carry the old epoch); free their capacity now.
        // Every shard is swept: a family's specs route to whichever
        // shards their first points land on.
        for shard in &self.shards {
            shard
                .store
                .lock()
                .expect("store poisoned")
                .evict(Some(&name));
        }
    }

    /// Hosted family names.
    pub fn family_names(&self) -> Vec<String> {
        self.shared
            .registry
            .lock()
            .expect("registry poisoned")
            .names()
    }

    /// Submits a job. Returns immediately: with a fresh id whose status
    /// is already [`JobStatus::Done`] on a store hit, an id coalesced
    /// onto an identical in-flight execution, or an id waiting in the
    /// queue. Submit builds no circuit: a family builder that fails, at
    /// the first point as at any later one, settles the job
    /// [`JobStatus::Failed`] at dispatch (retried like any transient
    /// solver error, see [`ServeConfig::retry_max`]).
    ///
    /// # Errors
    ///
    /// Validation errors, [`ServeError::UnknownFamily`],
    /// [`ServeError::QueueFull`] backpressure, or
    /// [`ServeError::Shutdown`].
    pub fn submit(&self, spec: &JobSpec) -> Result<JobId> {
        let t0 = Instant::now();
        let canonical = spec.canonicalize()?;
        let quantizer = self.config.quantizer;
        // Route on the slot, not the store key: specs that differ only
        // past their first point share a shard.
        let inner =
            &self.shards[rendezvous_route(canonical.route_slot(quantizer), self.shards.len())];
        // Epoch and builder come from one registry read, so a concurrent
        // `register_family` hands us either both old or both new.
        let (epoch, builder) = {
            let registry = self.shared.registry.lock().expect("registry poisoned");
            (
                registry.epoch(&canonical.family)?,
                registry.builder(&canonical.family)?,
            )
        };
        let key = canonical.key(epoch, quantizer);
        let kind = canonical.backend;
        // One lock order everywhere: state before store.
        let mut state = inner.state.lock().expect("state poisoned");
        if state.shutdown {
            return Err(ServeError::Shutdown);
        }
        let id = JobId(state.next_id);
        let result_capacity = inner.config.result_capacity;
        // Store hit: complete instantly.
        let stored = inner.store.lock().expect("store poisoned").get(key);
        if let Some(result) = stored {
            state.next_id += inner.stride;
            state.settle(
                id,
                JobStatus::Done {
                    result,
                    memo_hit: true,
                },
                result_capacity,
            );
            let q = state.counters.queue_mut(kind);
            q.submitted += 1;
            q.memo_hits += 1;
            q.completed += 1;
            drop(state);
            note_memo_hit(inner, id, t0);
            inner.done_cv.notify_all();
            return Ok(id);
        }
        // In-flight twin: coalesce. The new id's status mirrors the
        // phase the twin execution is in (queued until the scheduler
        // picks the key up, running afterwards).
        if let Some(waiting) = state.waiters.get_mut(&key) {
            let twin = waiting.first().copied();
            waiting.push(id);
            state.next_id += inner.stride;
            let phase = twin
                .and_then(|t| state.jobs.get(&t).cloned())
                .unwrap_or(JobStatus::Queued);
            state.jobs.insert(id, phase);
            state.job_keys.insert(id, key);
            if inner.telemetry.enabled {
                state.admitted.insert(id, t0);
            }
            let q = state.counters.queue_mut(kind);
            q.submitted += 1;
            q.coalesced += 1;
            // Priority escalation: a higher-priority submit must not wait
            // at its queued twin's position. The heap cannot reprioritise
            // in place, so push an escalated duplicate entry; the
            // scheduler drops whichever entry for this key it sees after
            // the first (stale-entry check on pop). Escalation is
            // best-effort: a full queue just keeps the old position.
            let new_priority = canonical.priority;
            let queued_at = state.queued_priority.get(&key).copied();
            if let Some(current) = queued_at {
                if new_priority > current && !state.dispatched.contains(&key) {
                    let seq = state.next_seq;
                    // Supersedes the queued twin: costs no extra queue
                    // slot (so it cannot be rejected); the old entry is
                    // dropped as stale on pop.
                    state
                        .queue
                        .push(
                            QueuedJob {
                                spec: canonical,
                                key,
                                builder,
                                epoch,
                                seq,
                                attempts: 0,
                            },
                            true,
                        )
                        .expect("superseding pushes bypass the capacity bound");
                    state.next_seq += 1;
                    state.queued_priority.insert(key, new_priority);
                    drop(state);
                    inner.work_cv.notify_one();
                }
            }
            return Ok(id);
        }
        // Fresh execution: admit to the queue (backpressure may reject).
        let seq = state.next_seq;
        let priority = canonical.priority;
        let family = canonical.family.clone();
        let push = state.queue.push(
            QueuedJob {
                spec: canonical,
                key,
                builder,
                epoch,
                seq,
                attempts: 0,
            },
            false,
        );
        if let Err(e) = push {
            state.counters.queue_mut(kind).rejected += 1;
            return Err(e);
        }
        state.next_seq += 1;
        state.next_id += inner.stride;
        state.jobs.insert(id, JobStatus::Queued);
        state.job_keys.insert(id, key);
        state.waiters.insert(key, vec![id]);
        state.queued_priority.insert(key, priority);
        // Every fresh execution gets a cancel token at admit, so a
        // cancel landing while the job is still queued (or mid-solve)
        // always has a handle to fire.
        let trace = inner.telemetry.new_timeline();
        if let Some(trace) = &trace {
            let mut timeline = trace.lock().expect("timeline poisoned");
            timeline.record(TimelineEventKind::Admitted);
            timeline.record(TimelineEventKind::Queued);
        }
        if inner.telemetry.enabled {
            state.admitted.insert(id, t0);
        }
        state
            .cancels
            .insert(key, JobControl::new(kind, family, trace, t0));
        let q = state.counters.queue_mut(kind);
        q.submitted += 1;
        drop(state);
        inner.work_cv.notify_one();
        Ok(id)
    }

    /// Hard cap on families registered dynamically from wire-submitted
    /// netlists. Content addressing dedupes repeat submits of the same
    /// text, so this bounds *distinct* topologies, not traffic; evicting
    /// a netlist family frees its slot.
    pub const MAX_DYNAMIC_FAMILIES: usize = 256;

    /// Parses `text` as a `.rfn` netlist, registers it as a
    /// content-addressed dynamic family (`netlist:<16 hex>`) if absent,
    /// and submits the steady-state job its `.analysis` and `.sweep`
    /// directives describe.
    ///
    /// Registration is *idempotent by content*: the family name is the
    /// hash of the canonical text, so resubmitting the same netlist (in
    /// any spelling) reuses the existing registration — and therefore
    /// hits the solution store — instead of re-registering, which would
    /// evict the family's stored solutions
    /// ([`SimService::register_family`]'s replacement semantics).
    ///
    /// # Errors
    ///
    /// [`ServeError::Netlist`] for parse/validation failures,
    /// [`ServeError::InvalidSpec`] for non-steady-state analyses and the
    /// dynamic-family cap, plus everything [`SimService::submit`]
    /// returns.
    pub fn submit_netlist(
        &self,
        text: &str,
        priority: Priority,
        deadline_ms: Option<u64>,
    ) -> Result<NetlistSubmission> {
        let netlist = Netlist::parse(text)?;
        let backend = match &netlist.analysis {
            Analysis::Mpde { .. } => BackendKind::Mpde,
            Analysis::Hb2 { .. } => BackendKind::Hb2,
            Analysis::PeriodicFd { .. } => BackendKind::PeriodicFd,
            other => {
                return Err(ServeError::InvalidSpec(format!(
                    "netlist analysis '{}' is not servable over the wire; \
                     use a steady-state directive (mpde|hb2|periodic_fd)",
                    other.keyword()
                )))
            }
        };
        let (f1, n1, n2) = match &netlist.analysis {
            Analysis::Mpde { f1, n1, n2, .. } | Analysis::Hb2 { f1, n1, n2, .. } => (*f1, *n1, *n2),
            Analysis::PeriodicFd { f1, n1, .. } => (*f1, *n1, 0),
            _ => unreachable!("matched above"),
        };
        // The parser guarantees steady-state netlists carry a sweep.
        let (amplitudes, spacings) = match &netlist.sweep {
            Some(sweep) => (sweep.amplitudes.clone(), sweep.spacings.clone()),
            None => (Vec::new(), Vec::new()),
        };
        let family = netlist.family_name();
        let spec = JobSpec {
            family: family.clone(),
            backend,
            f1,
            amplitudes,
            spacings,
            n1,
            n2,
            priority,
            deadline_ms,
        };
        // Register-if-absent under the registry lock — deliberately NOT
        // `register_family`, whose replacement semantics would evict the
        // family's store entries and destroy the repeat-submit memo hit.
        // An existing entry under this name is the same circuit by
        // construction (the name is a content hash).
        let registered = {
            let mut registry = self.shared.registry.lock().expect("registry poisoned");
            if registry.builder(&family).is_ok() {
                false
            } else {
                let mut dynamic = self
                    .shared
                    .dynamic
                    .lock()
                    .expect("dynamic families poisoned");
                if dynamic.len() >= Self::MAX_DYNAMIC_FAMILIES {
                    return Err(ServeError::InvalidSpec(format!(
                        "dynamic family capacity reached ({} netlist topologies); \
                         evict one before submitting new ones",
                        Self::MAX_DYNAMIC_FAMILIES
                    )));
                }
                dynamic.insert(family.clone(), netlist.canonical());
                let build = Arc::new(netlist);
                registry.register(family.clone(), move |p: &PointParams| {
                    build.build_circuit(Some(&DrivePoint {
                        amplitude: p.amplitude,
                        f1: p.f1,
                        spacing: p.spacing,
                        two_tone: p.two_tone,
                    }))
                });
                true
            }
        };
        let job_id = self.submit(&spec)?;
        Ok(NetlistSubmission {
            job_id,
            family,
            registered,
        })
    }

    /// Canonical texts of the dynamically registered netlist families,
    /// keyed by family name.
    pub fn dynamic_families(&self) -> Vec<(String, String)> {
        self.shared
            .dynamic
            .lock()
            .expect("dynamic families poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// A snapshot of `id`'s status.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`].
    pub fn poll(&self, id: JobId) -> Result<JobStatus> {
        self.shard_of(id)?
            .state
            .lock()
            .expect("state poisoned")
            .jobs
            .get(&id)
            .cloned()
            .ok_or(ServeError::UnknownJob(id.0))
    }

    /// The latest mid-solve [`JobProgress`] snapshot of a *running* job
    /// (`None` while queued, before the first Newton iteration reports,
    /// or once the job settles). Pure observability — reading it never
    /// perturbs the solve.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`].
    pub fn progress(&self, id: JobId) -> Result<Option<JobProgress>> {
        let state = self.shard_of(id)?.state.lock().expect("state poisoned");
        if !state.jobs.contains_key(&id) {
            return Err(ServeError::UnknownJob(id.0));
        }
        Ok(state
            .job_keys
            .get(&id)
            .and_then(|key| state.cancels.get(key))
            .and_then(|control| *control.progress.lock().expect("progress slot poisoned")))
    }

    /// Blocks until `id` completes or fails, up to `timeout`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`], or [`ServeError::Protocol`] describing
    /// the timeout / failure.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Result<Arc<JobResult>> {
        let deadline = Instant::now() + timeout;
        let inner = self.shard_of(id)?;
        let mut state = inner.state.lock().expect("state poisoned");
        loop {
            match state.jobs.get(&id) {
                None => return Err(ServeError::UnknownJob(id.0)),
                Some(JobStatus::Done { result, .. }) => return Ok(Arc::clone(result)),
                Some(JobStatus::Failed {
                    message,
                    interrupted,
                }) => {
                    let reason = interrupted
                        .as_ref()
                        .map(|i| format!(" [{}]", i.label()))
                        .unwrap_or_default();
                    return Err(ServeError::Protocol(format!(
                        "job {id} failed: {message}{reason}"
                    )));
                }
                Some(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServeError::Protocol(format!(
                    "timed out waiting for job {id}"
                )));
            }
            let (next, _) = inner
                .done_cv
                .wait_timeout(state, deadline - now)
                .expect("state poisoned");
            state = next;
        }
    }

    /// Cancels a job (and, necessarily, every job coalesced onto the
    /// same execution — they share one solve). Idempotent: a settled job
    /// just returns its settled status.
    ///
    /// * **Queued** (or parked for a retry backoff): every waiter
    ///   completes immediately with a `cancelled` failure; the heap
    ///   entry is dropped as stale when the scheduler reaches it.
    /// * **Running**: the execution's [`CancelToken`] is fired; the
    ///   solve observes it at its next budget check and the scheduler
    ///   settles every waiter with the typed interruption. The returned
    ///   status is still [`JobStatus::Running`] — `poll`/`wait` observe
    ///   the settlement.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`].
    pub fn cancel(&self, id: JobId) -> Result<JobStatus> {
        let inner = self.shard_of(id)?;
        let mut state = inner.state.lock().expect("state poisoned");
        let status = state
            .jobs
            .get(&id)
            .cloned()
            .ok_or(ServeError::UnknownJob(id.0))?;
        if matches!(status, JobStatus::Done { .. } | JobStatus::Failed { .. }) {
            return Ok(status);
        }
        let key = match state.job_keys.get(&id).copied() {
            Some(key) => key,
            None => return Ok(status),
        };
        if state.dispatched.contains(&key) {
            if let Some(control) = state.cancels.get(&key) {
                control.token.cancel();
            }
            return Ok(JobStatus::Running);
        }
        // Not yet dispatched: complete all coalesced waiters right now —
        // no solve to wait out.
        let kind = match state.cancels.get(&key) {
            Some(control) => control.kind,
            None => return Ok(status),
        };
        let was_deferred = state.deferred.iter().any(|(_, job)| job.key == key);
        state.deferred.retain(|(_, job)| job.key != key);
        if !was_deferred {
            // The key's live heap entry is now stale; account for it so
            // the backpressure bound frees the slot immediately instead
            // of when the scheduler happens to pop it.
            state.queue.note_stale_enqueued();
        }
        state.queued_priority.remove(&key);
        let cancelled = JobStatus::Failed {
            message: "cancelled before dispatch".into(),
            interrupted: Some(InterruptSummary {
                reason: InterruptReason::Cancelled,
                iterations: 0,
                best_residual: f64::INFINITY,
                elapsed_ms: 0,
            }),
        };
        complete_key(inner, &mut state, key, kind, &cancelled);
        drop(state);
        inner.done_cv.notify_all();
        Ok(cancelled)
    }

    /// Installs a deterministic [`SolveFault`] on every subsequent solve
    /// of `family` (tests and operational drills — see
    /// [`rfsim_circuit::fault`]). Replaces any fault already installed
    /// for the family.
    pub fn inject_fault(&self, family: impl Into<String>, fault: SolveFault) {
        self.shared
            .faults
            .lock()
            .expect("faults poisoned")
            .insert(family.into(), fault);
    }

    /// Removes an injected fault, returning whether one was installed.
    pub fn clear_fault(&self, family: &str) -> bool {
        self.shared
            .faults
            .lock()
            .expect("faults poisoned")
            .remove(family)
            .is_some()
    }

    /// Evicts stored solutions — all, or one family's, across every
    /// shard — returning how many were dropped.
    ///
    /// Every targeted family also leaves its current epoch behind, under
    /// the registry lock, so an in-flight solve of an evicted family
    /// cannot repopulate the store behind the operator's back:
    ///
    /// * Families registered dynamically from wire-submitted netlists are
    ///   *unhosted*: their registration exists only because some submit
    ///   carried the text, and the next identical submit re-registers
    ///   from its own text under a fresh epoch — so evicting one frees
    ///   its [`SimService::MAX_DYNAMIC_FAMILIES`] slot.
    /// * Built-in and programmatically registered families stay
    ///   registered and are retired ([`FamilyRegistry::retire`]) to a
    ///   fresh epoch.
    pub fn evict(&self, family: Option<&str>) -> usize {
        let mut registry = self.shared.registry.lock().expect("registry poisoned");
        let mut dynamic = self
            .shared
            .dynamic
            .lock()
            .expect("dynamic families poisoned");
        let targets: Vec<String> = match family {
            Some(name) => vec![name.to_string()],
            None => registry.names(),
        };
        for name in &targets {
            if dynamic.remove(name).is_some() {
                registry.remove(name);
            } else {
                registry.retire(name);
            }
        }
        self.shards
            .iter()
            .map(|shard| shard.store.lock().expect("store poisoned").evict(family))
            .sum()
    }

    /// A point-in-time stats snapshot: the aggregate view plus one
    /// [`ShardStats`] per shard.
    pub fn stats(&self) -> ServeStats {
        let shards: Vec<ShardStats> = self
            .shards
            .iter()
            .map(|inner| {
                let (store, store_len, store_capacity) = {
                    let store = inner.store.lock().expect("store poisoned");
                    (store.stats(), store.len(), store.capacity())
                };
                let (queue_depth, queue_capacity, counters) = {
                    let state = inner.state.lock().expect("state poisoned");
                    (state.queue.len(), state.queue.capacity(), state.counters)
                };
                ShardStats {
                    shard: inner.index,
                    store,
                    store_len,
                    store_capacity,
                    queue_depth,
                    queue_capacity,
                    counters,
                    engine_cache: inner.engine.cache_stats(),
                    solver: inner.engine.solver_stats(),
                    latency: inner.telemetry.snapshot(),
                }
            })
            .collect();
        let mut agg = ServeStats {
            store: StoreStats::default(),
            store_len: 0,
            store_capacity: 0,
            queue_depth: 0,
            queue_capacity: 0,
            counters: ServeCounters::default(),
            keying: KeyingStats::default(),
            engine_cache: CacheSnapshot::default(),
            solver: WorkspaceStats::default(),
            latency: LatencySnapshot::default(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            stats_generation: self
                .stats_generation
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
                + 1,
            shards,
        };
        for s in &agg.shards {
            agg.store.hits += s.store.hits;
            agg.store.misses += s.store.misses;
            agg.store.insertions += s.store.insertions;
            agg.store.evictions += s.store.evictions;
            agg.store.explicit_evictions += s.store.explicit_evictions;
            agg.store_len += s.store_len;
            agg.store_capacity += s.store_capacity;
            agg.queue_depth += s.queue_depth;
            agg.queue_capacity += s.queue_capacity;
            agg.counters.absorb(&s.counters);
            agg.engine_cache.hits += s.engine_cache.hits;
            agg.engine_cache.misses += s.engine_cache.misses;
            agg.solver.absorb(&s.solver);
            agg.latency.absorb(&s.latency);
        }
        agg.keying.fp_cache_hits = agg.counters.total().submitted;
        agg
    }

    /// The lifecycle timeline of job `id`: the retained trace of a
    /// settled job, or a live partial trace when the job is still in
    /// flight.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] when telemetry is disabled, and
    /// [`ServeError::UnknownJob`] when the id was never seen or its
    /// settled trace aged out of the bounded retention window.
    pub fn trace(&self, id: JobId) -> Result<TraceView> {
        if !self.config.telemetry {
            return Err(ServeError::Protocol(
                "telemetry is disabled on this service".into(),
            ));
        }
        let inner = self.shard_of(id)?;
        if let Some(timeline) = inner.telemetry.trace(id.0) {
            return Ok(TraceView {
                job_id: id.0,
                settled: timeline.is_settled(),
                events: timeline.events().to_vec(),
                dropped: timeline.dropped(),
            });
        }
        // No settled trace retained: a live in-flight job still yields
        // its partial timeline.
        let state = inner.state.lock().expect("state poisoned");
        let live = state
            .job_keys
            .get(&id)
            .and_then(|key| state.cancels.get(key))
            .and_then(|control| control.trace.as_ref())
            .map(|trace| trace.lock().expect("timeline poisoned").clone());
        match live {
            Some(timeline) => Ok(TraceView {
                job_id: id.0,
                settled: timeline.is_settled(),
                events: timeline.events().to_vec(),
                dropped: timeline.dropped(),
            }),
            None => Err(ServeError::UnknownJob(id.0)),
        }
    }

    /// Resumes schedulers started paused ([`ServeConfig::paused`]).
    pub fn resume(&self) {
        for inner in &self.shards {
            inner.state.lock().expect("state poisoned").paused = false;
            inner.work_cv.notify_all();
        }
    }

    /// Stops admitting work, drains nothing further, and joins every
    /// shard's scheduler. Queued jobs fail with a shutdown message;
    /// completed results stay pollable until the service is dropped.
    pub fn shutdown(&self) {
        for inner in &self.shards {
            let mut state = inner.state.lock().expect("state poisoned");
            if state.shutdown {
                continue;
            }
            state.shutdown = true;
            // Fail everything still waiting so pollers do not hang —
            // except keys mid-solve: their queue entries are stale
            // escalation duplicates, and the scheduler will still deliver
            // the real result when the solve finishes.
            let result_capacity = inner.config.result_capacity;
            while let Some(job) = state.queue.pop() {
                if state.dispatched.contains(&job.key) {
                    continue;
                }
                state.cancels.remove(&job.key);
                if let Some(ids) = state.waiters.remove(&job.key) {
                    for id in ids {
                        state.settle(id, JobStatus::failed("service shut down"), result_capacity);
                    }
                }
            }
            // Retry-parked executions are waiting jobs too.
            let deferred = std::mem::take(&mut state.deferred);
            for (_, job) in deferred {
                state.cancels.remove(&job.key);
                if let Some(ids) = state.waiters.remove(&job.key) {
                    for id in ids {
                        state.settle(id, JobStatus::failed("service shut down"), result_capacity);
                    }
                }
            }
            state.queued_priority.clear();
            drop(state);
            inner.work_cv.notify_all();
            inner.done_cv.notify_all();
        }
        let handles =
            std::mem::take(&mut *self.schedulers.lock().expect("scheduler handles poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for SimService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Marks every waiter of `key` with `status` (bounded by the config's
/// result capacity), retires the key's in-flight bookkeeping, and (with
/// telemetry on) settles the execution's timeline, records its solve and
/// per-waiter end-to-end latencies, retains the trace under every waiter
/// id, and emits the slow-job log line when the execution ran past
/// [`ServeConfig::slow_log_ms`].
fn complete_key(
    inner: &Inner,
    state: &mut MutexGuard<'_, SchedState>,
    key: JobKey,
    kind: BackendKind,
    status: &JobStatus,
) {
    let result_capacity = inner.config.result_capacity;
    state.dispatched.remove(&key);
    let control = state.cancels.remove(&key);
    let now = Instant::now();
    // Settle the timeline and snapshot it for retention: the live
    // Arc<Mutex<_>> dies with the control entry, the settled copy is
    // what `trace` serves.
    let trace: Option<Arc<Timeline>> = control
        .as_ref()
        .and_then(|control| control.trace.as_ref())
        .map(|trace| {
            let mut timeline = trace.lock().expect("timeline poisoned");
            timeline.record(TimelineEventKind::Settled {
                outcome: settle_outcome(status),
            });
            Arc::new(timeline.clone())
        });
    if let Some(dispatched) = control.as_ref().and_then(|control| control.dispatched_at) {
        inner.telemetry.record_solve(now.duration_since(dispatched));
    }
    if let Some(ids) = state.waiters.remove(&key) {
        for id in ids {
            if let Some(t0) = state.settle(id, status.clone(), result_capacity) {
                inner.telemetry.record_e2e(now.duration_since(t0));
            }
            if let Some(trace) = &trace {
                inner.telemetry.retain_trace(id.0, Arc::clone(trace));
            }
            let q = state.counters.queue_mut(kind);
            match status {
                JobStatus::Failed { interrupted, .. } => {
                    q.failed += 1;
                    if interrupted
                        .as_ref()
                        .is_some_and(|i| matches!(i.reason, InterruptReason::Cancelled))
                    {
                        q.cancelled += 1;
                    }
                }
                _ => q.completed += 1,
            }
        }
    }
    if let (Some(threshold_ms), Some(control), Some(trace)) =
        (inner.config.slow_log_ms, control.as_ref(), trace.as_ref())
    {
        let e2e_ms = now.duration_since(control.admitted_at).as_millis() as u64;
        if e2e_ms >= threshold_ms {
            eprintln!(
                "rfsim-serve: slow job family={} shard={} e2e_ms={} outcome={}: {}",
                control.family,
                inner.index,
                e2e_ms,
                settle_outcome(status),
                format_timeline(trace),
            );
        }
    }
}

/// The scheduler: drain → batch → solve → store → complete, forever.
fn scheduler_loop(inner: &Arc<Inner>) {
    loop {
        // Phase 1: wait for work, drain a same-backend batch.
        let (batch, tokens): (Vec<QueuedJob>, Vec<DispatchHandles>) = {
            let mut state = inner.state.lock().expect("state poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                // Promote retry-parked executions whose backoff elapsed.
                let now = Instant::now();
                let mut i = 0;
                while i < state.deferred.len() {
                    if state.deferred[i].0 <= now {
                        let (_, job) = state.deferred.swap_remove(i);
                        state.queued_priority.insert(job.key, job.spec.priority);
                        state.queue.requeue(job);
                    } else {
                        i += 1;
                    }
                }
                if !state.paused && !state.queue.is_empty() {
                    break;
                }
                // With retries parked, sleep only until the earliest one
                // is due; otherwise wait for a submit/resume/shutdown.
                let next_due = state.deferred.iter().map(|(due, _)| *due).min();
                state = match next_due {
                    Some(due) => {
                        let wait = due
                            .saturating_duration_since(Instant::now())
                            .max(Duration::from_millis(1));
                        inner
                            .work_cv
                            .wait_timeout(state, wait)
                            .expect("state poisoned")
                            .0
                    }
                    None => inner.work_cv.wait(state).expect("state poisoned"),
                };
            }
            let mut batch: Vec<QueuedJob> = Vec::new();
            let mut tokens: Vec<DispatchHandles> = Vec::new();
            let mut kind: Option<BackendKind> = None;
            while batch.len() < inner.config.batch_max {
                // Stale entries — keys already dispatched (priority-
                // escalation duplicates) or already completed — are
                // dropped without dispatching.
                let stale = match state.queue.peek() {
                    None => break,
                    Some(head) => {
                        if kind.is_some_and(|k| k != head.spec.backend) {
                            break;
                        }
                        !state.waiters.contains_key(&head.key)
                            || state.dispatched.contains(&head.key)
                    }
                };
                let job = state.queue.pop().expect("peeked");
                if stale {
                    state.queue.note_stale_dropped();
                    continue;
                }
                kind = Some(job.spec.backend);
                state.dispatched.insert(job.key);
                state.queued_priority.remove(&job.key);
                // Every waiter of this key is now solving.
                if let Some(ids) = state.waiters.get(&job.key) {
                    for id in ids.clone() {
                        state.jobs.insert(id, JobStatus::Running);
                    }
                }
                state.counters.queue_mut(job.spec.backend).solves += 1;
                let now = Instant::now();
                let handles = match state.cancels.get_mut(&job.key) {
                    Some(control) => {
                        // Queue wait is admission → *first* dispatch; a
                        // retry re-dispatch shows up as solve time.
                        if control.dispatched_at.is_none() {
                            inner
                                .telemetry
                                .record_queue_wait(now.duration_since(control.admitted_at));
                            control.dispatched_at = Some(now);
                        }
                        if let Some(trace) = &control.trace {
                            trace
                                .lock()
                                .expect("timeline poisoned")
                                .record(TimelineEventKind::Dispatched);
                        }
                        (
                            control.token.clone(),
                            Arc::clone(&control.progress),
                            control.trace.clone(),
                        )
                    }
                    None => (CancelToken::default(), Arc::default(), None),
                };
                tokens.push(handles);
                batch.push(job);
            }
            (batch, tokens)
        };
        if batch.is_empty() {
            // Everything drained was stale; go back to waiting.
            continue;
        }

        // Phase 2: solve the batch (no service locks held — submits and
        // polls proceed concurrently). A panicking solve (a bug, or a
        // pathological-but-validated spec) must not kill the scheduler
        // thread — it fails the batch instead.
        let kind = batch[0].spec.backend;
        let outcomes = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_batch(inner, kind, &batch, &tokens)
        }))
        .unwrap_or_else(|panic| {
            let why = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "solver panicked".into());
            batch
                .iter()
                .map(|_| Err(ServeError::Protocol(format!("solve panicked: {why}"))))
                .collect()
        });

        // Phase 3: store and complete.
        let mut state = inner.state.lock().expect("state poisoned");
        for (job, outcome) in batch.into_iter().zip(outcomes) {
            let status = match outcome {
                Ok(result) => {
                    let result = Arc::new(result);
                    // A job keyed against a builder that `register_family`
                    // or `evict` has since moved to a new epoch still
                    // completes its waiters (they asked under the old
                    // builder — that capture is the contract), but its
                    // result must not repopulate the store the move just
                    // flushed. The registry lock makes the check and the
                    // insert atomic against that move.
                    let registry = inner.shared.registry.lock().expect("registry poisoned");
                    if registry
                        .epoch(&job.spec.family)
                        .is_ok_and(|epoch| epoch == job.epoch)
                    {
                        inner.store.lock().expect("store poisoned").insert(
                            job.key,
                            job.spec.family.clone(),
                            Arc::clone(&result),
                        );
                    }
                    JobStatus::Done {
                        result,
                        memo_hit: false,
                    }
                }
                Err(e) => {
                    let interrupted = match &e {
                        ServeError::Circuit(ce) => ce.interrupted().map(InterruptSummary::from),
                        _ => None,
                    };
                    // A *transient* failure — a solver error that is
                    // neither a budget interruption (the control plane
                    // asked for the stop) nor a panic (ServeError::
                    // Protocol; a bug, not weather) — may earn a retry.
                    let transient = interrupted.is_none() && matches!(e, ServeError::Circuit(_));
                    if transient
                        && job.attempts < inner.config.retry_max
                        && state.waiters.contains_key(&job.key)
                    {
                        // Hand the execution back: waiters revert to
                        // Queued, the job parks for an exponential
                        // backoff, and the deferred-promotion pass
                        // re-admits it when due.
                        state.dispatched.remove(&job.key);
                        if let Some(ids) = state.waiters.get(&job.key) {
                            for id in ids.clone() {
                                state.jobs.insert(id, JobStatus::Queued);
                            }
                        }
                        state.counters.queue_mut(kind).retried += 1;
                        let mut job = job;
                        job.attempts += 1;
                        let backoff = inner
                            .config
                            .retry_backoff_ms
                            .saturating_mul(1u64 << (job.attempts - 1).min(16));
                        if let Some(trace) =
                            state.cancels.get(&job.key).and_then(|c| c.trace.as_ref())
                        {
                            let mut timeline = trace.lock().expect("timeline poisoned");
                            timeline.record(TimelineEventKind::Retry {
                                attempt: job.attempts,
                                backoff_ms: backoff,
                            });
                            timeline.record(TimelineEventKind::Queued);
                        }
                        state
                            .deferred
                            .push((Instant::now() + Duration::from_millis(backoff), job));
                        continue;
                    }
                    JobStatus::Failed {
                        message: e.to_string(),
                        interrupted,
                    }
                }
            };
            complete_key(inner, &mut state, job.key, kind, &status);
        }
        drop(state);
        inner.done_cv.notify_all();
    }
}

/// Runs one same-backend batch through the engine and reassembles
/// per-job results (row-major: spacing outer, amplitude inner).
///
/// `tokens` pairs each batch entry with its cancel token; every row of a
/// job solves under a child of one per-job [`SolveBudget`] carrying that
/// token plus the job's deadline ([`JobSpec::deadline_ms`], falling back
/// to [`ServeConfig::default_deadline_ms`]), so one `cancel` — or one
/// expired deadline — stops all of the job's rows without touching batch
/// neighbours.
fn execute_batch(
    inner: &Arc<Inner>,
    kind: BackendKind,
    batch: &[QueuedJob],
    tokens: &[DispatchHandles],
) -> Vec<Result<JobResult>> {
    let budgets: Vec<SolveBudget> = batch
        .iter()
        .zip(tokens)
        .map(|(job, (token, slot, trace))| {
            let slot = Arc::clone(slot);
            let trace = trace.clone();
            let mut budget = SolveBudget::unlimited()
                .with_cancel(token.clone())
                // Publish mid-solve progress: the NewtonDriver stages
                // every rung's budget child with the rung label, so each
                // iteration snapshot names its ladder rung for `poll`.
                // Iteration 0 is the driver's rung announcement — a
                // timeline transition, not a poll-visible iteration.
                .observed(move |p| {
                    if p.iteration > 0 {
                        *slot.lock().expect("progress slot poisoned") = Some(JobProgress {
                            rung: p.stage.unwrap_or("plain"),
                            iteration: p.iteration,
                            best_residual: p.best_residual,
                        });
                    }
                    if let Some(trace) = &trace {
                        trace.lock().expect("timeline poisoned").note_progress(
                            p.stage,
                            p.iteration,
                            p.residual,
                        );
                    }
                });
            if let Some(ms) = job.spec.deadline_ms.or(inner.config.default_deadline_ms) {
                budget = budget.with_timeout(Duration::from_millis(ms));
            }
            budget
        })
        .collect();
    // Snapshot injected faults once per batch; a fault installed
    // mid-batch applies from the next dispatch on (shared across shards
    // — a drill targets a family wherever its jobs route).
    let faults: HashMap<String, SolveFault> =
        inner.shared.faults.lock().expect("faults poisoned").clone();
    // Flatten: one engine sub-job per (job, spacing row).
    struct Row {
        job_idx: usize,
        spacing: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (job_idx, job) in batch.iter().enumerate() {
        if job.spec.spacings.is_empty() {
            rows.push(Row {
                job_idx,
                spacing: 0.0,
            });
        } else {
            for &fd in &job.spec.spacings {
                rows.push(Row {
                    job_idx,
                    spacing: fd,
                });
            }
        }
    }
    let make = |job: &QueuedJob, fd: f64, two_tone: bool| {
        let builder = Arc::clone(&job.builder);
        let f1 = job.spec.f1;
        move |amplitude: f64| {
            builder(&PointParams {
                amplitude,
                f1,
                spacing: fd,
                two_tone,
            })
        }
    };
    // `(amplitude, flattened samples)` per traced point of one row.
    type RowPoints = Vec<(f64, Vec<f64>)>;
    let row_results: Vec<rfsim_circuit::Result<RowPoints>> = match kind {
        BackendKind::Mpde => {
            let jobs: Vec<MpdeSweepJob> = rows
                .iter()
                .map(|row| {
                    let job = &batch[row.job_idx];
                    let options = MpdeOptions {
                        n1: job.spec.n1,
                        n2: job.spec.n2,
                        ..Default::default()
                    };
                    let mut sweep = MpdeSweepJob::new(
                        format!("{}/fd={}", job.spec.family, row.spacing),
                        job.spec.amplitudes.clone(),
                        1.0 / job.spec.f1,
                        1.0 / row.spacing,
                        options,
                        make(job, row.spacing, true),
                    )
                    .with_budget(budgets[row.job_idx].child());
                    if let Some(fault) = faults.get(&job.spec.family) {
                        sweep = sweep.with_fault(fault.clone());
                    }
                    sweep
                })
                .collect();
            inner
                .engine
                .run_mpde_batch(&jobs)
                .into_iter()
                .map(|r| {
                    r.map(|points| {
                        points
                            .into_iter()
                            .map(|p| (p.value, p.solution.solution.data))
                            .collect()
                    })
                })
                .collect()
        }
        BackendKind::Hb2 => {
            let jobs: Vec<Hb2SweepJob> = rows
                .iter()
                .map(|row| {
                    let job = &batch[row.job_idx];
                    let options = Hb2Options {
                        n1: job.spec.n1,
                        n2: job.spec.n2,
                        ..Default::default()
                    };
                    let mut sweep = Hb2SweepJob::new(
                        format!("{}/fd={}", job.spec.family, row.spacing),
                        job.spec.amplitudes.clone(),
                        1.0 / job.spec.f1,
                        1.0 / row.spacing,
                        options,
                        make(job, row.spacing, true),
                    )
                    .with_budget(budgets[row.job_idx].child());
                    if let Some(fault) = faults.get(&job.spec.family) {
                        sweep = sweep.with_fault(fault.clone());
                    }
                    sweep
                })
                .collect();
            inner
                .engine
                .run_hb2_batch(&jobs)
                .into_iter()
                .map(|r| {
                    r.map(|points| {
                        points
                            .into_iter()
                            .map(|p| (p.value, p.solution.samples))
                            .collect()
                    })
                })
                .collect()
        }
        BackendKind::PeriodicFd => {
            let jobs: Vec<PeriodicFdSweepJob> = rows
                .iter()
                .map(|row| {
                    let job = &batch[row.job_idx];
                    let options = PeriodicFdOptions {
                        n_samples: job.spec.n1,
                        ..Default::default()
                    };
                    let mut sweep = PeriodicFdSweepJob::new(
                        job.spec.family.clone(),
                        job.spec.amplitudes.clone(),
                        1.0 / job.spec.f1,
                        options,
                        make(job, 0.0, false),
                    )
                    .with_budget(budgets[row.job_idx].child());
                    if let Some(fault) = faults.get(&job.spec.family) {
                        sweep = sweep.with_fault(fault.clone());
                    }
                    sweep
                })
                .collect();
            inner
                .engine
                .run_periodic_fd_batch(&jobs)
                .into_iter()
                .map(|r| {
                    r.map(|points| {
                        points
                            .into_iter()
                            .map(|p| (p.value, p.solution.samples))
                            .collect()
                    })
                })
                .collect()
        }
    };
    // Regroup rows into per-job results; a job fails on its first
    // failing row.
    let mut outcomes: Vec<Result<JobResult>> = batch
        .iter()
        .map(|_| Ok(JobResult { points: Vec::new() }))
        .collect();
    for (row, result) in rows.iter().zip(row_results) {
        let slot = &mut outcomes[row.job_idx];
        match result {
            Err(e) => {
                if slot.is_ok() {
                    *slot = Err(e.into());
                }
            }
            Ok(points) => {
                if let Ok(job_result) = slot {
                    for (amplitude, samples) in points {
                        job_result.points.push(PointSolution {
                            amplitude,
                            spacing: row.spacing,
                            samples,
                        });
                    }
                }
            }
        }
    }
    outcomes
}
