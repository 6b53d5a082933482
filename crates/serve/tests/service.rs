//! Service-level behaviour of the memoising layer: LRU eviction,
//! in-flight deduplication, bit-identical memo hits, re-keying on
//! re-registration, build-free submits, backpressure, and the TCP wire
//! round trip.

use std::time::Duration;

use rfsim_circuit::{Circuit, CircuitBuilder, GROUND};
use rfsim_serve::service::{JobStatus, ServeConfig, SimService};
use rfsim_serve::spec::{BackendKind, JobSpec, PointParams};
use rfsim_serve::wire::WireServer;
use rfsim_serve::{ServeClient, ServeError};

const WAIT: Duration = Duration::from_secs(120);

fn small_config() -> ServeConfig {
    ServeConfig {
        threads: 1,
        ..Default::default()
    }
}

/// An RC lowpass family with series resistance `ohms` — one topology,
/// retunable by value.
fn rc(ohms: f64) -> impl Fn(&PointParams) -> rfsim_circuit::Result<Circuit> + Send + Sync {
    move |p| {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource("VRF", inp, GROUND, p.source())?;
        b.resistor("R1", inp, out, ohms)?;
        b.capacitor("C1", out, GROUND, 160e-12)?;
        b.build()
    }
}

fn spec(amplitude: f64) -> JobSpec {
    let mut s = JobSpec::mpde("rc_lowpass", 1e6, vec![amplitude], vec![10e3]);
    s.n1 = 8;
    s.n2 = 4;
    s
}

#[test]
fn memo_hit_is_bit_identical_to_a_fresh_solve() {
    let service = SimService::start(small_config());
    let request = spec(0.1);
    let first = service
        .wait(service.submit(&request).expect("submit"), WAIT)
        .expect("solve");
    // Second identical submit: served from the store, same bytes, and
    // literally the same allocation.
    let id = service.submit(&request).expect("submit");
    match service.poll(id).expect("poll") {
        JobStatus::Done { result, memo_hit } => {
            assert!(memo_hit, "second submit must be a memo hit");
            assert_eq!(result.digest(), first.digest());
            assert_eq!(result.points, first.points);
        }
        other => panic!("expected instant completion, got {other:?}"),
    }
    assert_eq!(service.stats().counters.queue(BackendKind::Mpde).solves, 1);
    // A *fresh* service (deterministic mode) reproduces the stored bytes
    // exactly — the replay guarantee is about the answer, not the cache.
    let fresh = SimService::start(small_config());
    let refreshed = fresh
        .wait(fresh.submit(&request).expect("submit"), WAIT)
        .expect("fresh solve");
    assert_eq!(refreshed.digest(), first.digest());
    for (a, b) in refreshed.points.iter().zip(&first.points) {
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

#[test]
fn healthy_job_enters_no_fallback_rung() {
    // Every point of a 2×2 job converges on its first attempt, so no
    // fallback rung runs and the rung counters stay at zero.
    let service = SimService::start(small_config());
    let mut request = JobSpec::mpde("rc_lowpass", 1e6, vec![0.1, 0.2], vec![10e3, 20e3]);
    request.n1 = 8;
    request.n2 = 4;
    let result = service
        .wait(service.submit(&request).expect("submit"), WAIT)
        .expect("solve");
    assert_eq!(result.points.len(), 4);
    let solver = service.stats().solver;
    assert_eq!(solver.rung_attempts, 0, "{solver:?}");
    assert_eq!(solver.rung_successes, 0, "{solver:?}");
}

#[test]
fn concurrent_identical_submits_coalesce_onto_one_solve() {
    // Start paused so both submits land before the scheduler moves:
    // the second MUST take the coalescing path, deterministically.
    let service = SimService::start(ServeConfig {
        paused: true,
        ..small_config()
    });
    let request = spec(0.15);
    let a = service.submit(&request).expect("submit a");
    let b = service.submit(&request).expect("submit b");
    assert_ne!(a, b, "each submit gets its own id");
    {
        let stats = service.stats();
        let q = stats.counters.queue(BackendKind::Mpde);
        assert_eq!(q.coalesced, 1, "second submit coalesces");
        assert_eq!(stats.queue_depth, 1, "one queued execution for two ids");
    }
    service.resume();
    let ra = service.wait(a, WAIT).expect("result a");
    let rb = service.wait(b, WAIT).expect("result b");
    assert!(
        std::sync::Arc::ptr_eq(&ra, &rb),
        "one solve, one allocation"
    );
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.solves, 1, "two concurrent identical submits → one solve");
    assert_eq!(q.completed, 2, "…and both jobs complete");
}

#[test]
fn lru_store_evicts_at_capacity_and_re_solves() {
    let service = SimService::start(ServeConfig {
        store_capacity: 2,
        ..small_config()
    });
    // Three distinct jobs through a capacity-2 store.
    for (i, a) in [0.1, 0.2, 0.3].iter().enumerate() {
        service
            .wait(service.submit(&spec(*a)).expect("submit"), WAIT)
            .expect("solve");
        assert!(service.stats().store_len <= 2, "bounded at step {i}");
    }
    let stats = service.stats();
    assert_eq!(stats.store_len, 2);
    assert_eq!(stats.store.evictions, 1, "third insert evicted the LRU");
    // The evicted (oldest) job re-solves; the resident ones memo-hit.
    service
        .wait(service.submit(&spec(0.1)).expect("submit"), WAIT)
        .expect("re-solve");
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.solves, 4, "evicted entry pays a fresh solve");
    service
        .wait(service.submit(&spec(0.3)).expect("submit"), WAIT)
        .expect("memo");
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.solves, 4, "resident entry is served from the store");
    assert_eq!(q.memo_hits, 1);
}

#[test]
fn topology_change_re_keys_the_family() {
    let service = SimService::start(small_config());
    // A custom family: plain RC.
    service.register_family("custom", |p| {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource("VRF", inp, GROUND, p.source())?;
        b.resistor("R1", inp, out, 1e3)?;
        b.capacitor("C1", out, GROUND, 160e-12)?;
        b.build()
    });
    let mut request = spec(0.1);
    request.family = "custom".into();
    let first = service
        .wait(service.submit(&request).expect("submit"), WAIT)
        .expect("solve");
    // Same name, new topology (an extra node splits R1): the new
    // registration's epoch is part of the store key, so the identical
    // spec re-solves rather than serving the stale entry.
    service.register_family("custom", |p| {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let mid = b.node("mid");
        let out = b.node("out");
        b.vsource("VRF", inp, GROUND, p.source())?;
        b.resistor("R1a", inp, mid, 0.5e3)?;
        b.resistor("R1b", mid, out, 0.5e3)?;
        b.capacitor("C1", out, GROUND, 160e-12)?;
        b.build()
    });
    let second = service
        .wait(service.submit(&request).expect("submit"), WAIT)
        .expect("re-keyed solve");
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.solves, 2, "topology change must force a fresh solve");
    assert_eq!(q.memo_hits, 0);
    assert_ne!(
        first.points[0].samples.len(),
        second.points[0].samples.len(),
        "the new topology has more unknowns"
    );
    // Re-registration also evicts the family's stored entries, which the
    // old epoch left unreachable; only the new build's entry remains.
    assert_eq!(service.stats().store_len, 1);
    // The already-returned result is untouched by the eviction.
    assert_eq!(first.num_samples(), first.points[0].samples.len());
}

#[test]
fn queue_backpressure_rejects_when_full() {
    let service = SimService::start(ServeConfig {
        queue_capacity: 1,
        paused: true,
        ..small_config()
    });
    let first = service.submit(&spec(0.1)).expect("first fills the queue");
    // An identical submit coalesces (no queue slot needed)…
    service.submit(&spec(0.1)).expect("duplicate coalesces");
    // …but a distinct one needs a slot and bounces.
    match service.submit(&spec(0.2)) {
        Err(ServeError::QueueFull { capacity: 1 }) => {}
        other => panic!("expected backpressure, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.counters.queue(BackendKind::Mpde).rejected, 1);
    service.resume();
    service.wait(first, WAIT).expect("first drains");
    // Once drained, the rejected job is admissible again.
    service
        .wait(service.submit(&spec(0.2)).expect("resubmit"), WAIT)
        .expect("solve");
}

#[test]
fn settled_job_records_are_bounded() {
    // result_capacity bounds the poll-able history: a long-lived daemon
    // must not grow per-request state without limit.
    let service = SimService::start(ServeConfig {
        result_capacity: 2,
        ..small_config()
    });
    let first = service.submit(&spec(0.1)).expect("submit");
    service.wait(first, WAIT).expect("solve");
    // Memo-hit the same job three more times: each settles a new record,
    // pushing the oldest out.
    let mut last = first;
    for _ in 0..3 {
        last = service.submit(&spec(0.1)).expect("memo submit");
    }
    assert!(
        matches!(service.poll(first), Err(ServeError::UnknownJob(_))),
        "the oldest settled record must have been dropped"
    );
    // The newest records are still pollable, and the store still serves.
    assert!(matches!(
        service.poll(last).expect("poll"),
        JobStatus::Done { memo_hit: true, .. }
    ));
    assert_eq!(service.stats().counters.queue(BackendKind::Mpde).solves, 1);
}

#[test]
fn high_priority_coalesce_escalates_a_queued_twin() {
    use rfsim_serve::spec::Priority;
    let service = SimService::start(ServeConfig {
        paused: true,
        ..small_config()
    });
    // A Low-priority job queued behind nothing (scheduler paused)…
    let mut low = spec(0.1);
    low.priority = Priority::Low;
    let a = service.submit(&low).expect("low submit");
    let other = service.submit(&spec(0.2)).expect("normal submit");
    // …then a High-priority identical request coalesces and escalates.
    let mut high = spec(0.1);
    high.priority = Priority::High;
    let b = service.submit(&high).expect("high submit");
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.coalesced, 1);
    service.resume();
    let ra = service.wait(a, WAIT).expect("low id");
    let rb = service.wait(b, WAIT).expect("high id");
    assert!(std::sync::Arc::ptr_eq(&ra, &rb));
    service.wait(other, WAIT).expect("other");
    let q = service.stats().counters.queue(BackendKind::Mpde);
    // The escalated duplicate queue entry must NOT have double-solved:
    // one solve per distinct key, the stale entry dropped on pop.
    assert_eq!(q.solves, 2);
    assert_eq!(q.completed, 3);
}

#[test]
fn evict_clears_by_family_and_wholesale() {
    let service = SimService::start(small_config());
    let mut rc = spec(0.1);
    rc.n1 = 8;
    let mut stiff = spec(0.1);
    stiff.family = "rc_stiff".into();
    service
        .wait(service.submit(&rc).expect("submit"), WAIT)
        .expect("solve rc");
    service
        .wait(service.submit(&stiff).expect("submit"), WAIT)
        .expect("solve stiff");
    assert_eq!(service.stats().store_len, 2);
    assert_eq!(service.evict(Some("rc_lowpass")), 1);
    assert_eq!(service.stats().store_len, 1);
    // The evicted family re-solves; the survivor still memo-hits.
    service
        .wait(service.submit(&rc).expect("submit"), WAIT)
        .expect("re-solve");
    service
        .wait(service.submit(&stiff).expect("submit"), WAIT)
        .expect("memo");
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.solves, 3);
    assert_eq!(q.memo_hits, 1);
    assert_eq!(service.evict(None), 2);
    assert_eq!(service.stats().store_len, 0);
}

#[test]
fn hb2_and_periodic_fd_jobs_serve_and_memoise() {
    let service = SimService::start(small_config());
    let mut hb = spec(0.1);
    hb.backend = BackendKind::Hb2;
    hb.n1 = 8;
    hb.n2 = 4;
    let first = service
        .wait(service.submit(&hb).expect("submit"), WAIT)
        .expect("hb2 solve");
    let again = service
        .wait(service.submit(&hb).expect("submit"), WAIT)
        .expect("hb2 memo");
    assert_eq!(first.digest(), again.digest());
    assert_eq!(
        service.stats().counters.queue(BackendKind::Hb2).memo_hits,
        1
    );

    let mut fd = spec(0.5);
    fd.backend = BackendKind::PeriodicFd;
    fd.f1 = 200e3;
    fd.n1 = 32;
    // Spacings/n2 are ignored by canonicalisation: different spellings
    // of the same single-tone request share one store entry.
    fd.spacings = vec![10e3];
    fd.n2 = 8;
    let a = service
        .wait(service.submit(&fd).expect("submit"), WAIT)
        .expect("fd solve");
    fd.spacings = vec![123.0, 456.0];
    fd.n2 = 2;
    let b = service
        .wait(service.submit(&fd).expect("submit"), WAIT)
        .expect("fd memo");
    assert_eq!(a.digest(), b.digest());
    let q = service.stats().counters.queue(BackendKind::PeriodicFd);
    assert_eq!(q.solves, 1);
    assert_eq!(q.memo_hits, 1);
}

#[test]
fn memo_hit_submits_are_build_free() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // A counting family: every *closure invocation* bumps the counter.
    // Memo-hit submits must not bump it at all.
    let builds = Arc::new(AtomicUsize::new(0));
    let service = SimService::start(small_config());
    let counter = Arc::clone(&builds);
    let build = rc(1e3);
    service.register_family("counted", move |p| {
        counter.fetch_add(1, Ordering::SeqCst);
        build(p)
    });
    let mut request = spec(0.1);
    request.family = "counted".into();
    service
        .wait(service.submit(&request).expect("submit"), WAIT)
        .expect("solve");
    let after_solve = builds.load(Ordering::SeqCst);
    // One build per sweep point: submit builds nothing, and the engine
    // solves the first point on the circuit it keyed the job's group by.
    assert_eq!(after_solve, 1, "a fresh 1×1 solve builds one circuit");
    // Identical submit: the key is folded from the spec and the family's
    // epoch, the result comes from the store — no builder invocation.
    let id = service.submit(&request).expect("memo submit");
    assert!(matches!(
        service.poll(id).expect("poll"),
        JobStatus::Done { memo_hit: true, .. }
    ));
    assert_eq!(
        builds.load(Ordering::SeqCst),
        after_solve,
        "a memo-hit submit must not invoke the family builder"
    );
}

#[test]
fn fresh_submits_build_no_circuit() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    // Paused: the job is admitted but never dispatched, so any builder
    // call could only have come from submit itself.
    let service = SimService::start(ServeConfig {
        paused: true,
        ..small_config()
    });
    let builds = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&builds);
    let build = rc(1e3);
    service.register_family("counted", move |p| {
        counter.fetch_add(1, Ordering::SeqCst);
        build(p)
    });
    let mut request = spec(0.1);
    request.family = "counted".into();
    let id = service.submit(&request).expect("submit");
    assert!(matches!(service.poll(id).expect("poll"), JobStatus::Queued));
    assert_eq!(builds.load(Ordering::SeqCst), 0, "submit builds nothing");
}

#[test]
fn first_point_builder_errors_settle_the_job_failed() {
    // Above 0.5 V this family asks for a negative resistance, so its
    // builder fails at the job's very first point.
    let service = SimService::start(small_config());
    let build = rc(1e3);
    service.register_family("fragile", move |p| {
        if p.amplitude > 0.5 {
            rc(-1.0)(p)
        } else {
            build(p)
        }
    });
    let mut bad = spec(0.9);
    bad.family = "fragile".into();
    let id = service
        .submit(&bad)
        .expect("submit admits: no circuit is built before dispatch");
    service.wait(id, WAIT).expect_err("the build fails the job");
    match service.poll(id).expect("poll") {
        JobStatus::Failed {
            message,
            interrupted,
        } => {
            assert!(message.contains("resistance must be positive"), "{message}");
            assert!(interrupted.is_none());
        }
        other => panic!("expected a failed job, got {other:?}"),
    }
    // The scheduler survived: a good point of the same family solves.
    let mut good = spec(0.1);
    good.family = "fragile".into();
    let done = service
        .wait(service.submit(&good).expect("submit"), WAIT)
        .expect("good job");
    assert!(!done.points.is_empty());
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!((q.failed, q.completed), (1, 1));
}

#[test]
fn failed_solves_repeat_their_error_and_are_not_stored() {
    // Two voltage sources in parallel: the MNA system is singular, so
    // the solve fails in the solver itself, not in the builder. A job
    // solves from its own initial guess on workspaces of its own, so a
    // re-run fails the same way, and a failure never reaches the store.
    let service = SimService::start(small_config());
    service.register_family("shorted", |p: &PointParams| {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource("V1", inp, GROUND, p.source())?;
        b.vsource("V2", inp, GROUND, p.source())?;
        b.resistor("R1", inp, out, 1e3)?;
        b.capacitor("C1", out, GROUND, 160e-12)?;
        b.build()
    });
    let mut request = spec(0.1);
    request.family = "shorted".into();
    let mut messages = Vec::new();
    for _ in 0..2 {
        let id = service.submit(&request).expect("submit");
        service
            .wait(id, WAIT)
            .expect_err("a singular circuit fails");
        match service.poll(id).expect("poll") {
            JobStatus::Failed {
                message,
                interrupted,
            } => {
                assert!(interrupted.is_none(), "a solver failure: {message}");
                messages.push(message);
            }
            other => panic!("expected a failed job, got {other:?}"),
        }
    }
    assert_eq!(messages[0], messages[1], "a re-solve fails the same way");
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!((q.solves, q.failed, q.memo_hits), (2, 2, 0));
}

#[test]
fn topology_dependent_families_solve_each_operating_point() {
    // A family whose *topology* depends on the operating point: above
    // 0.25 V the series resistor splits in two. First points on either
    // side of the threshold must never share a stored solution.
    let service = SimService::start(small_config());
    service.register_family("switching", |p| {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource("VRF", inp, GROUND, p.source())?;
        if p.amplitude > 0.25 {
            let mid = b.node("mid");
            b.resistor("R1a", inp, mid, 0.5e3)?;
            b.resistor("R1b", mid, out, 0.5e3)?;
        } else {
            b.resistor("R1", inp, out, 1e3)?;
        }
        b.capacitor("C1", out, GROUND, 160e-12)?;
        b.build()
    });
    let mut low = spec(0.1);
    low.family = "switching".into();
    let mut high = spec(0.3);
    high.family = "switching".into();
    let below = service
        .wait(service.submit(&low).expect("submit low"), WAIT)
        .expect("solve low");
    let above = service
        .wait(service.submit(&high).expect("submit high"), WAIT)
        .expect("solve high");
    assert_ne!(
        below.points[0].samples.len(),
        above.points[0].samples.len(),
        "the switched-in topology has more unknowns"
    );
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.solves, 2, "distinct operating points must both solve");
    assert_eq!(q.memo_hits, 0);
    // Each operating point now memo-hits its own entry.
    let low_again = service
        .wait(service.submit(&low).expect("resubmit"), WAIT)
        .expect("memo low");
    let high_again = service
        .wait(service.submit(&high).expect("resubmit"), WAIT)
        .expect("memo high");
    assert_eq!(low_again.digest(), below.digest());
    assert_eq!(high_again.digest(), above.digest());
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!((q.solves, q.memo_hits), (2, 2));
}

#[test]
fn register_family_switches_new_submits_to_the_replacement_builder() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let service = SimService::start(small_config());
    service.register_family("swapped", rc(1e3));
    let mut request = spec(0.1);
    request.family = "swapped".into();
    service
        .wait(service.submit(&request).expect("submit"), WAIT)
        .expect("solve v1");
    // Replace the builder (same name, same topology, retuned values):
    // the next submit must solve through the *new* builder.
    let v2_builds = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&v2_builds);
    let build = rc(2e3);
    service.register_family("swapped", move |p| {
        counter.fetch_add(1, Ordering::SeqCst);
        build(p)
    });
    service
        .wait(service.submit(&request).expect("submit"), WAIT)
        .expect("solve v2");
    assert!(
        v2_builds.load(Ordering::SeqCst) >= 1,
        "the replacement builder must solve the new submit"
    );
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.solves, 2, "the retune re-solves (store was evicted)");
}

#[test]
fn reregistered_family_never_coalesces_onto_the_old_builder() {
    let service = SimService::start(ServeConfig {
        paused: true,
        ..small_config()
    });
    service.register_family("retuned", rc(1e3));
    let mut request = spec(0.1);
    request.family = "retuned".into();
    // v1's job is queued (scheduler paused) when the family is retuned
    // to the same topology with a new resistance…
    let old = service.submit(&request).expect("submit v1");
    service.register_family("retuned", rc(2e3));
    // …so the identical spec submitted now asks for v2's answer and must
    // not ride on v1's queued execution.
    let new = service.submit(&request).expect("submit v2");
    service.resume();
    let v1 = service.wait(old, WAIT).expect("v1 result");
    let v2 = service.wait(new, WAIT).expect("v2 result");
    let q = service.stats().counters.queue(BackendKind::Mpde);
    assert_eq!(q.coalesced, 0, "a new epoch is a new key");
    assert_eq!(q.solves, 2);
    // The second answer is exactly what a service that only ever hosted
    // v2 returns.
    let reference = SimService::start(small_config());
    reference.register_family("retuned", rc(2e3));
    let expected = reference
        .wait(reference.submit(&request).expect("submit"), WAIT)
        .expect("v2 reference");
    assert_eq!(v2.digest(), expected.digest());
    assert_ne!(
        v1.digest(),
        expected.digest(),
        "retune must change the solution"
    );
}

#[test]
fn stale_builder_results_do_not_repopulate_the_store() {
    // A job solved by a superseded builder completes its waiters but must
    // not be stored: register_family just flushed the family, and the
    // dead-epoch entry would only take up capacity.
    let service = SimService::start(ServeConfig {
        paused: true,
        ..small_config()
    });
    service.register_family("retuned", rc(1e3));
    let mut request = spec(0.1);
    request.family = "retuned".into();
    // Queued but not yet solving (scheduler paused)…
    let id = service.submit(&request).expect("submit v1");
    // …when the family is retuned (same topology, new resistance).
    service.register_family("retuned", rc(2e3));
    service.resume();
    // The in-flight job still delivers the v1 result it was asked for…
    let v1 = service.wait(id, WAIT).expect("v1 result");
    // …but the identical spec must now re-solve through the v2 builder,
    // not be served the v1 result out of the store.
    let v2 = service
        .wait(service.submit(&request).expect("resubmit"), WAIT)
        .expect("v2 result");
    assert_ne!(v1.digest(), v2.digest(), "retune must change the solution");
    let stats = service.stats();
    let q = stats.counters.queue(BackendKind::Mpde);
    assert_eq!(q.solves, 2, "the stale result must not serve as a memo");
    assert_eq!(q.memo_hits, 0);
    assert_eq!(stats.store_len, 1, "only v2's result is stored");
}

#[test]
fn wire_roundtrip_over_loopback() {
    let service = SimService::start(small_config());
    let server = WireServer::start(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");

    let request = spec(0.12);
    let (_, cold) = client.run(&request, WAIT).expect("cold run");
    assert!(!cold.memo_hit);
    let (_, warm) = client.run(&request, WAIT).expect("memo run");
    assert!(warm.memo_hit, "second run over the wire memo-hits");
    assert_eq!(
        cold.digest, warm.digest,
        "replayed samples must be bit-identical across the wire"
    );
    // A second, concurrent connection sees the same store.
    let mut other = ServeClient::connect(addr).expect("connect 2");
    let stats = other.stats().expect("stats");
    assert!(stats.number_at("store.hits").unwrap_or(0.0) >= 1.0);
    assert_eq!(stats.number_at("store.len"), Some(1.0));
    assert_eq!(other.evict(None).expect("evict"), 1);
    // Shutdown verb stops the accept loop.
    client.shutdown().expect("shutdown");
    server.join();
    assert!(server.stopping());
}
