//! Control-plane robustness: cancellation over the wire, deadline-based
//! scheduler-slot reclamation, typed failures and panic isolation — all
//! driven by deterministic injected faults ([`rfsim_circuit::fault`]), so
//! every scenario is a real hung / failing solve going through the
//! production dispatch path, not a mock.

use std::time::{Duration, Instant};

use rfsim_circuit::fault::SolveFault;
use rfsim_numerics::InterruptReason;
use rfsim_serve::service::{JobStatus, ServeConfig, SimService};
use rfsim_serve::spec::{BackendKind, JobSpec};
use rfsim_serve::wire::WireServer;
use rfsim_serve::ServeClient;

const WAIT: Duration = Duration::from_secs(120);

fn small_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..Default::default()
    }
}

fn spec(amplitude: f64) -> JobSpec {
    let mut s = JobSpec::mpde("rc_lowpass", 1e6, vec![amplitude], vec![10e3]);
    s.n1 = 8;
    s.n2 = 4;
    s
}

/// Polls `id` over the wire until its status matches `want` (bounded).
fn poll_until(client: &mut ServeClient, id: u64, want: &str) -> rfsim_serve::client::PollOutcome {
    let deadline = Instant::now() + WAIT;
    loop {
        let outcome = client.poll(id, 50).expect("poll");
        if outcome.status == want {
            return outcome;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in '{}' waiting for '{want}'",
            outcome.status
        );
    }
}

/// The acceptance scenario: a deliberately-hung (fault-injected) job is
/// cancelled over the wire, and its scheduler slot is reused by a
/// follow-up job.
#[test]
fn hung_job_cancelled_over_wire_frees_its_slot() {
    let service = SimService::start(small_config());
    // Every rc_lowpass solve now hangs: sleeps per residual evaluation,
    // never converges, safety-bounded at 60 s.
    service.inject_fault("rc_lowpass", SolveFault::stall(5, 60_000));
    let server = WireServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let id = client.submit(&spec(0.1)).expect("submit");
    poll_until(&mut client, id, "running");
    // Cancel the hung solve over the wire. It is mid-solve, so the token
    // fires and the settlement arrives via poll.
    let status = client.cancel(id).expect("cancel");
    assert_eq!(status, "running", "a mid-solve cancel settles async");
    let outcome = poll_until(&mut client, id, "failed");
    assert_eq!(
        outcome.interrupt_reason.as_deref(),
        Some("cancelled"),
        "typed interruption on the wire: {outcome:?}"
    );
    // Cancel is idempotent: a settled job reports its settled status.
    assert_eq!(client.cancel(id).expect("re-cancel"), "failed");

    // The slot is free again: un-fault the family and run a real job
    // through the same scheduler and the same (single-thread) engine.
    assert!(service.clear_fault("rc_lowpass"), "fault was installed");
    let (_, follow_up) = client.run(&spec(0.2), WAIT).expect("follow-up job");
    assert_eq!(follow_up.status, "done");

    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.failed, 1);
    assert_eq!(q.completed, 1);
    drop(client);
    server.stop();
    server.join();
}

/// Cancelling a still-queued job settles it — and every submit coalesced
/// onto the same execution — immediately, with the typed cancellation
/// outcome, and frees the queue slot without waiting for the scheduler.
#[test]
fn cancel_before_dispatch_settles_every_coalesced_waiter() {
    let service = SimService::start(ServeConfig {
        paused: true,
        ..small_config()
    });
    let request = spec(0.15);
    let a = service.submit(&request).expect("submit a");
    let b = service.submit(&request).expect("submit b");
    assert_eq!(
        service.stats().counters.queue(BackendKind::Mpde).coalesced,
        1
    );

    // Cancelling either id cancels the shared execution; both waiters
    // get the cancellation outcome.
    let settled = service.cancel(b).expect("cancel");
    assert_eq!(settled.label(), "failed");
    for id in [a, b] {
        match service.poll(id).expect("poll") {
            JobStatus::Failed { interrupted, .. } => {
                let i = interrupted.expect("typed cancellation outcome");
                assert_eq!(i.reason, InterruptReason::Cancelled);
                assert_eq!(i.iterations, 0, "never dispatched");
            }
            other => panic!("expected cancelled failure for {id}, got {other:?}"),
        }
    }
    let stats = service.stats();
    assert_eq!(stats.queue_depth, 0, "the queue slot is free immediately");
    assert_eq!(stats.counters.queue(BackendKind::Mpde).failed, 2);

    // The stale heap entry does not confuse the scheduler: resume and
    // run a fresh job end to end.
    service.resume();
    let done = service
        .wait(service.submit(&spec(0.25)).expect("submit"), WAIT)
        .expect("fresh job after cancel");
    assert!(!done.points.is_empty());
}

/// With a default deadline configured, hung jobs expire instead of
/// pinning engine workers forever — the slots come back and later jobs
/// run normally.
#[test]
fn default_deadline_reclaims_slots_under_load() {
    let service = SimService::start(ServeConfig {
        default_deadline_ms: Some(300),
        ..small_config()
    });
    service.inject_fault("rc_lowpass", SolveFault::stall(5, 60_000));
    // Two distinct hung executions dispatched as one single-threaded
    // batch: both must expire, in order, on the one worker.
    let ids = [
        service.submit(&spec(0.1)).expect("submit"),
        service.submit(&spec(0.2)).expect("submit"),
    ];
    for id in ids {
        let err = service.wait(id, WAIT).expect_err("deadline must fire");
        let why = err.to_string();
        assert!(
            why.contains("deadline_expired"),
            "expected deadline expiry, got: {why}"
        );
        match service.poll(id).expect("poll") {
            JobStatus::Failed { interrupted, .. } => {
                assert_eq!(
                    interrupted.expect("typed interruption").reason,
                    InterruptReason::DeadlineExpired
                );
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }
    // Both slots reclaimed: a real job still fits under the default
    // deadline and completes.
    service.clear_fault("rc_lowpass");
    let mut fast = spec(0.3);
    fast.deadline_ms = Some(60_000); // per-job override beats the default
    let done = service
        .wait(service.submit(&fast).expect("submit"), WAIT)
        .expect("job after reclamation");
    assert!(!done.points.is_empty());
}

/// A panicking solve is isolated by the scheduler: one dispatch,
/// immediate failure, and the scheduler stays alive.
#[test]
fn panics_fail_immediately() {
    let service = SimService::start(small_config());
    service.inject_fault("rc_lowpass", SolveFault::panicking());
    let id = service.submit(&spec(0.1)).expect("submit");
    let err = service.wait(id, WAIT).expect_err("panic fails the job");
    assert!(err.to_string().contains("panicked"), "{err}");
    assert_eq!(service.stats().counters.queue(BackendKind::Mpde).solves, 1);

    // The scheduler survived: clear the fault and solve for real.
    service.clear_fault("rc_lowpass");
    let done = service
        .wait(service.submit(&spec(0.2)).expect("submit"), WAIT)
        .expect("job after panic");
    assert!(!done.points.is_empty());
}

/// A running job's poll carries a `progress` object naming the active
/// recovery-ladder rung, its Newton iteration depth and the best
/// residual — published by the per-job budget's observer from the
/// solve's stage label (none for a first attempt, read as `plain`), all
/// the way out over the wire.
#[test]
fn running_job_reports_rung_progress_over_wire() {
    let service = SimService::start(small_config());
    // A stalling solve iterates forever without converging: plenty of
    // time to observe mid-solve snapshots.
    service.inject_fault("rc_lowpass", SolveFault::stall(2, 60_000));
    let server = WireServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let id = client.submit(&spec(0.1)).expect("submit");
    let deadline = Instant::now() + WAIT;
    let progress = loop {
        let outcome = client.poll(id, 50).expect("poll");
        assert!(
            outcome.status == "queued" || outcome.status == "running",
            "the stalled job must not settle on its own: {outcome:?}"
        );
        if outcome.status == "running" {
            if let Some(p) = outcome.progress {
                break p;
            }
        }
        assert!(
            Instant::now() < deadline,
            "no progress snapshot arrived while running"
        );
    };
    assert_eq!(progress.rung, "plain", "the fault solves on the first rung");
    assert!(progress.iteration >= 1, "snapshot: {progress:?}");
    let best = progress.best_residual.expect("a finite best residual");
    assert!(best.is_finite() && best > 0.0, "snapshot: {progress:?}");

    // Settle the hung job; its progress snapshot dies with it.
    client.cancel(id).expect("cancel");
    let settled = poll_until(&mut client, id, "failed");
    assert!(
        settled.progress.is_none(),
        "settled jobs report no progress"
    );
    drop(client);
    server.stop();
    server.join();
}

/// The diverge fault's *typed* outcome — `Diverged`, produced by the
/// Newton solve when every damping trial is non-finite — survives all
/// the way to a wire poll as the failure message, and is never confused
/// with a budget interruption.
#[test]
fn diverge_fault_typed_outcome_reaches_wire_poll() {
    let service = SimService::start(small_config());
    service.inject_fault("rc_lowpass", SolveFault::diverge());
    let server = WireServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let id = client.submit(&spec(0.1)).expect("submit");
    let outcome = poll_until(&mut client, id, "failed");
    let error = outcome.error.as_deref().expect("failure message");
    assert!(
        error.contains("diverged"),
        "typed divergence on the wire: {outcome:?}"
    );
    assert!(
        outcome.interrupt_reason.is_none(),
        "a divergence is not an interruption: {outcome:?}"
    );
    drop(client);
    server.stop();
    server.join();
}

/// The control plane is shard-transparent: on a 2-shard pool a hung job
/// is cancelled over the wire exactly as on a single scheduler — the
/// cancel routes to the owning shard by job id, the typed outcome comes
/// back, and the other shard keeps solving throughout.
#[test]
fn sharded_cancel_over_wire_matches_single_shard_semantics() {
    let service = SimService::start(ServeConfig {
        shards: 2,
        ..small_config()
    });
    service.inject_fault("rc_lowpass", SolveFault::stall(5, 60_000));
    let server = WireServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let id = client.submit(&spec(0.1)).expect("submit");
    poll_until(&mut client, id, "running");
    client.cancel(id).expect("cancel");
    let outcome = poll_until(&mut client, id, "failed");
    assert_eq!(outcome.interrupt_reason.as_deref(), Some("cancelled"));

    // The cancellation is attributed to exactly one shard's counters —
    // the one that owns the id — and surfaces in the new `cancelled`
    // field of both the per-shard and the aggregate views.
    let stats = service.stats();
    let cancelled_per_shard: Vec<usize> = stats
        .shards
        .iter()
        .map(|s| s.counters.queue(BackendKind::Mpde).cancelled)
        .collect();
    assert_eq!(cancelled_per_shard.iter().sum::<usize>(), 1);
    assert_eq!(stats.counters.queue(BackendKind::Mpde).cancelled, 1);

    // Both shards still take and finish real work after the cancel.
    service.clear_fault("rc_lowpass");
    for amplitude in [0.2, 0.3, 0.4, 0.5] {
        let (_, outcome) = client.run(&spec(amplitude), WAIT).expect("follow-up");
        assert_eq!(outcome.status, "done");
    }
    drop(client);
    server.stop();
    server.join();
}

/// Deadlines behave identically per shard: hung jobs expire on
/// whichever shard owns them.
#[test]
fn sharded_deadlines_are_unchanged() {
    let service = SimService::start(ServeConfig {
        shards: 4,
        default_deadline_ms: Some(300),
        ..small_config()
    });
    // Hung jobs on several shards: all must expire independently.
    service.inject_fault("rc_lowpass", SolveFault::stall(5, 60_000));
    let hung = [
        service.submit(&spec(0.1)).expect("submit"),
        service.submit(&spec(0.2)).expect("submit"),
        service.submit(&spec(0.3)).expect("submit"),
    ];
    for id in hung {
        let err = service.wait(id, WAIT).expect_err("deadline must fire");
        assert!(err.to_string().contains("deadline_expired"), "{err}");
    }
}

/// A cancel for a job that already finished changes nothing and returns
/// the settled status (wire-level idempotency contract).
#[test]
fn cancel_after_completion_is_a_no_op() {
    let service = SimService::start(small_config());
    let id = service.submit(&spec(0.1)).expect("submit");
    let result = service.wait(id, WAIT).expect("solve");
    match service.cancel(id).expect("cancel") {
        JobStatus::Done { result: kept, .. } => {
            assert_eq!(kept.digest(), result.digest());
        }
        other => panic!("expected the settled Done status, got {other:?}"),
    }
    // And the result is still pollable, untouched.
    match service.poll(id).expect("poll") {
        JobStatus::Done { result: kept, .. } => assert_eq!(kept.digest(), result.digest()),
        other => panic!("poll after no-op cancel: {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Timeline telemetry: the control-plane paths above, replayed with the
// trace surface asserted — event ordering, outcome labels, and offsets.
// ---------------------------------------------------------------------

/// The labels of a trace's events, in recorded order, with offsets
/// asserted nondecreasing along the way.
fn trace_labels(service: &SimService, id: rfsim_serve::JobId) -> Vec<&'static str> {
    let view = service.trace(id).expect("trace");
    let mut last = 0u64;
    for event in &view.events {
        assert!(
            event.at_ns >= last,
            "timeline offsets must be nondecreasing: {:?}",
            view.events
        );
        last = event.at_ns;
    }
    view.events.iter().map(|e| e.kind.label()).collect()
}

/// A job cancelled before dispatch settles with a timeline that never
/// saw the engine: admitted → queued → settled(cancelled), and no
/// `dispatched` event.
#[test]
fn cancel_before_dispatch_timeline_has_no_dispatch_event() {
    use rfsim_numerics::telemetry::TimelineEventKind;
    let service = SimService::start(ServeConfig {
        paused: true,
        ..small_config()
    });
    let id = service.submit(&spec(0.1)).expect("submit");
    match service.cancel(id).expect("cancel") {
        JobStatus::Failed { interrupted, .. } => {
            assert!(interrupted.is_some_and(|i| matches!(i.reason, InterruptReason::Cancelled)));
        }
        other => panic!("queued cancel must settle failed, got {other:?}"),
    }
    assert_eq!(
        trace_labels(&service, id),
        vec!["admitted", "queued", "settled"]
    );
    let view = service.trace(id).expect("trace");
    assert!(view.settled);
    assert!(matches!(
        view.events.last().map(|e| e.kind),
        Some(TimelineEventKind::Settled {
            outcome: "cancelled"
        })
    ));
    service.resume();
}

/// A hung job stopped by its deadline settles a timeline that reached
/// the engine (dispatched) and ends settled(deadline_expired).
#[test]
fn deadline_timeline_settles_as_deadline_expired() {
    use rfsim_numerics::telemetry::TimelineEventKind;
    let service = SimService::start(ServeConfig {
        default_deadline_ms: Some(200),
        ..small_config()
    });
    service.inject_fault("rc_lowpass", SolveFault::stall(5, 60_000));
    let id = service.submit(&spec(0.1)).expect("submit");
    let err = service.wait(id, WAIT).expect_err("deadline must fire");
    assert!(err.to_string().contains("deadline_expired"), "{err}");
    let labels = trace_labels(&service, id);
    assert!(labels.contains(&"dispatched"), "{labels:?}");
    let view = service.trace(id).expect("trace");
    assert!(matches!(
        view.events.last().map(|e| e.kind),
        Some(TimelineEventKind::Settled {
            outcome: "deadline_expired"
        })
    ));
}

/// Coalesced waiters share one execution's timeline; a memo hit settled
/// at submit retains the two-event admitted → settled(hit) trace; and
/// with telemetry off the trace surface reports a typed refusal.
#[test]
fn trace_retention_covers_coalesce_memo_and_disabled_paths() {
    let service = SimService::start(ServeConfig {
        paused: true,
        ..small_config()
    });
    let first = service.submit(&spec(0.1)).expect("submit");
    let twin = service.submit(&spec(0.1)).expect("coalesced submit");
    service.resume();
    service.wait(first, WAIT).expect("solve");
    service.wait(twin, WAIT).expect("coalesced result");
    assert_eq!(trace_labels(&service, first), trace_labels(&service, twin));
    let hit = service.submit(&spec(0.1)).expect("memo hit");
    service.wait(hit, WAIT).expect("stored result");
    assert_eq!(trace_labels(&service, hit), vec!["admitted", "settled"]);

    let dark = SimService::start(ServeConfig {
        telemetry: false,
        ..small_config()
    });
    let id = dark.submit(&spec(0.1)).expect("submit");
    dark.wait(id, WAIT).expect("solve");
    let err = dark.trace(id).expect_err("telemetry off refuses traces");
    assert!(err.to_string().contains("telemetry"), "{err}");
}
