//! The sharded serve tier: routing stability under shard-count change,
//! per-shard cache isolation, per-client fairness under a flooding
//! connection, and the per-shard stats contract over the wire — every
//! stats field documented in `docs/scaling.md` is asserted present here,
//! so the doc's field reference cannot silently rot.

use std::time::Duration;

use proptest::prelude::*;
use rfsim_rf::key::{rendezvous_route, JobKeyBuilder, Quantizer};
use rfsim_serve::service::{ServeConfig, SimService};
use rfsim_serve::spec::{BackendKind, JobSpec};
use rfsim_serve::wire::{FrontEndConfig, WireServer};
use rfsim_serve::ServeClient;

const WAIT: Duration = Duration::from_secs(120);

fn config(shards: usize) -> ServeConfig {
    ServeConfig {
        threads: 1,
        shards,
        ..Default::default()
    }
}

fn spec(amplitude: f64) -> JobSpec {
    let mut s = JobSpec::mpde("rc_lowpass", 1e6, vec![amplitude], vec![10e3]);
    s.n1 = 8;
    s.n2 = 4;
    s
}

fn key_from(raw: u64) -> rfsim_rf::key::JobKey {
    JobKeyBuilder::new(Quantizer::default())
        .push_u64(raw)
        .finish()
}

proptest! {
    // Routing is a pure function of (key, shard count): the same key
    // always lands on the same shard, and the shard is in range.
    #[test]
    fn routing_is_deterministic_and_in_range(raw in 0u64..u64::MAX, shards in 1usize..16) {
        let key = key_from(raw);
        let a = rendezvous_route(key, shards);
        let b = rendezvous_route(key, shards);
        prop_assert_eq!(a, b);
        prop_assert!(a < shards);
    }

    // The minimal-movement property that makes re-sharding cheap:
    // growing an n-shard pool to n+1 shards moves a key only if it
    // moves *to the new shard* — no key is reshuffled between
    // surviving shards — and the moved fraction stays near 1/(n+1).
    #[test]
    fn resharding_moves_keys_only_to_the_new_shard(
        seed in 0u64..u64::MAX,
        shards in 1usize..8,
    ) {
        let keys: Vec<_> = (0..512u64)
            .map(|i| key_from(seed.wrapping_add(i.wrapping_mul(0x9e3779b97f4a7c15))))
            .collect();
        let mut moved = 0usize;
        for &key in &keys {
            let before = rendezvous_route(key, shards);
            let after = rendezvous_route(key, shards + 1);
            if before != after {
                prop_assert_eq!(
                    after, shards,
                    "a moved key must land on the new shard, not reshuffle"
                );
                moved += 1;
            }
        }
        // Expected fraction is 1/(n+1); allow generous slack for a
        // 512-key sample while still rejecting "everything moved".
        let expected = keys.len() / (shards + 1);
        prop_assert!(moved > 0, "the new shard must take some keys");
        prop_assert!(
            moved <= expected * 2 + 8,
            "moved {moved} of {} keys to the new shard; expected about {expected}",
            keys.len()
        );
    }
}

/// Each (family, first-point) slot is owned by exactly one shard: its
/// solutions are stored there, its memo hits are served there, and the
/// other shards never see the key. The aggregate stats equal the
/// field-by-field sum of the per-shard views.
#[test]
fn per_shard_caches_are_isolated() {
    let service = SimService::start(config(4));
    let amplitudes = [0.1, 0.15, 0.2, 0.25, 0.3, 0.35];
    for &a in &amplitudes {
        let id = service.submit(&spec(a)).expect("submit");
        service.wait(id, WAIT).expect("solve");
    }
    // Re-submit everything: each must be a memo hit on its owning shard.
    for &a in &amplitudes {
        let id = service.submit(&spec(a)).expect("resubmit");
        service.wait(id, WAIT).expect("memo replay");
    }
    let stats = service.stats();
    assert_eq!(stats.shards.len(), 4);
    let q = stats.counters.queue(BackendKind::Mpde);
    assert_eq!(q.submitted, 2 * amplitudes.len());
    assert_eq!(q.memo_hits, amplitudes.len());
    assert_eq!(q.solves, amplitudes.len());

    // Isolation: every solution lives on exactly one shard — the shard
    // store lengths partition the job set, and no shard both solved and
    // missed the same keys (a shard's memo hits can never exceed its
    // own insertions).
    let total_stored: usize = stats.shards.iter().map(|s| s.store_len).sum();
    assert_eq!(total_stored, amplitudes.len(), "stores partition the keys");
    let populated = stats.shards.iter().filter(|s| s.store_len > 0).count();
    assert!(
        populated >= 2,
        "six slots over four shards should populate at least two shards"
    );
    for shard in &stats.shards {
        let sq = shard.counters.queue(BackendKind::Mpde);
        assert_eq!(
            sq.memo_hits, shard.store.insertions,
            "shard {} must serve exactly the keys it stored",
            shard.shard
        );
        assert_eq!(sq.submitted, 2 * shard.store.insertions);
    }
    // Aggregates are the sums of the per-shard views.
    let summed_hits: usize = stats
        .shards
        .iter()
        .map(|s| s.counters.queue(BackendKind::Mpde).memo_hits)
        .sum();
    assert_eq!(summed_hits, q.memo_hits);
    let summed_store_hits: usize = stats.shards.iter().map(|s| s.store.hits).sum();
    assert_eq!(summed_store_hits, stats.store.hits);
}

/// Job ids decode back to their issuing shard: every id handed out by a
/// 4-shard pool polls, cancels, and waits like a single-shard id, and
/// ids never collide across shards.
#[test]
fn job_ids_round_trip_across_shards() {
    let service = SimService::start(config(4));
    let mut ids = Vec::new();
    for i in 0..8 {
        let a = 0.1 + 0.03 * f64::from(i);
        ids.push(service.submit(&spec(a)).expect("submit"));
    }
    let mut sorted: Vec<u64> = ids.iter().map(|id| id.0).collect();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "ids are unique across shards");
    for id in ids {
        let result = service.wait(id, WAIT).expect("every id resolves");
        assert!(!result.points.is_empty());
    }
}

/// Per-client admission control: a connection flooding distinct submits
/// without ever polling hits its in-flight cap and gets the typed
/// `Throttled` refusal — while a second, well-behaved connection on the
/// same server submits unimpeded. Settling a job (here: cancelling it)
/// frees the flooder's slot again via lazy pruning.
#[test]
fn flooding_client_is_throttled_without_starving_others() {
    // Paused scheduler: nothing settles, so owned jobs stay in flight.
    let service = SimService::start(ServeConfig {
        paused: true,
        ..config(2)
    });
    let frontend = FrontEndConfig {
        workers: 2,
        max_inflight: 3,
    };
    let server = WireServer::start_with(service.clone(), "127.0.0.1:0", frontend).expect("bind");
    let mut flooder = ServeClient::connect(server.local_addr()).expect("connect");

    let mut accepted = Vec::new();
    let mut throttled_message = None;
    for i in 0..10 {
        let a = 0.1 + 0.02 * f64::from(i);
        match flooder.submit(&spec(a)) {
            Ok(id) => accepted.push(id),
            Err(e) => {
                throttled_message = Some(e.to_string());
                break;
            }
        }
    }
    assert_eq!(accepted.len(), 3, "the cap admits exactly max_inflight");
    let message = throttled_message.expect("the fourth submit must throttle");
    assert!(
        message.contains("in-flight cap"),
        "typed throttling refusal on the wire: {message}"
    );

    // Fairness: another connection is not affected by the flooder.
    let mut polite = ServeClient::connect(server.local_addr()).expect("connect 2");
    let their_id = polite.submit(&spec(0.9)).expect("unaffected client");
    assert!(their_id > 0);

    // Settling an owned job frees the flooder's slot (lazy pruning).
    assert_eq!(flooder.cancel(accepted[0]).expect("cancel"), "failed");
    flooder
        .submit(&spec(0.8))
        .expect("a freed slot admits the next submit");

    // The refusals are observable in the front-end stats section.
    let stats = polite.stats().expect("stats");
    let throttled = stats.number_at("frontend.throttled").unwrap_or(0.0);
    assert!(throttled >= 1.0, "stats: {}", stats.dump());
    drop(flooder);
    drop(polite);
    server.stop();
    server.join();
}

/// Every stats field documented in `docs/scaling.md`'s field reference
/// is present in a live wire `stats` response from a 2-shard daemon —
/// aggregate sections, the `shards` array with per-shard sections, and
/// the front-end section. Editing the doc table requires editing this
/// list, and vice versa.
#[test]
fn wire_stats_expose_every_documented_field() {
    let service = SimService::start(config(2));
    let server = WireServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    // One solve + one memo hit so the counters are nonzero-capable.
    client.run(&spec(0.1), WAIT).expect("solve");
    client.run(&spec(0.1), WAIT).expect("memo hit");

    let stats = client.stats().expect("stats");
    // Keep in sync with the field reference table in docs/scaling.md.
    const SECTION_FIELDS: &[&str] = &[
        "store.len",
        "store.capacity",
        "store.hits",
        "store.misses",
        "store.hit_rate",
        "store.insertions",
        "store.evictions",
        "store.explicit_evictions",
        "queue.depth",
        "queue.capacity",
        "queues.mpde.submitted",
        "queues.mpde.memo_hits",
        "queues.mpde.coalesced",
        "queues.mpde.solves",
        "queues.mpde.completed",
        "queues.mpde.failed",
        "queues.mpde.cancelled",
        "queues.mpde.rejected",
        "engine.workspace_hits",
        "engine.workspace_misses",
        "engine.full_factorizations",
        "engine.refactorizations",
        "engine.precond_refreshes",
        "engine.rung_attempts",
        "engine.rung_successes",
        "latency.queue_wait.count",
        "latency.queue_wait.mean_ms",
        "latency.queue_wait.p50_ms",
        "latency.queue_wait.p90_ms",
        "latency.queue_wait.p99_ms",
        "latency.queue_wait.max_ms",
        "latency.solve.count",
        "latency.solve.mean_ms",
        "latency.solve.p50_ms",
        "latency.solve.p90_ms",
        "latency.solve.p99_ms",
        "latency.solve.max_ms",
        "latency.e2e.count",
        "latency.e2e.mean_ms",
        "latency.e2e.p50_ms",
        "latency.e2e.p90_ms",
        "latency.e2e.p99_ms",
        "latency.e2e.max_ms",
    ];
    const TOP_FIELDS: &[&str] = &["shard_count", "uptime_ms", "stats_generation"];
    const FRONTEND_FIELDS: &[&str] = &[
        "frontend.workers",
        "frontend.max_inflight",
        "frontend.connections_accepted",
        "frontend.connections_active",
        "frontend.requests",
        "frontend.throttled",
        "frontend.long_poll_parks",
        "frontend.parked",
        "frontend.wakeups",
    ];
    for path in SECTION_FIELDS
        .iter()
        .chain(TOP_FIELDS)
        .chain(FRONTEND_FIELDS)
    {
        assert!(
            stats.number_at(path).is_some(),
            "documented field '{path}' missing from wire stats: {}",
            stats.dump()
        );
    }
    assert_eq!(stats.number_at("shard_count"), Some(2.0));
    let shards = stats.array_at("shards").expect("shards array");
    assert_eq!(shards.len(), 2);
    for (index, shard) in shards.iter().enumerate() {
        assert_eq!(shard.number_at("shard"), Some(index as f64));
        for path in SECTION_FIELDS {
            assert!(
                shard.number_at(path).is_some(),
                "documented per-shard field '{path}' missing from shard {index}: {}",
                shard.dump()
            );
        }
    }
    // The memo hit registered somewhere: aggregate and per-shard sums
    // tell the same story over the wire.
    assert_eq!(stats.number_at("queues.mpde.memo_hits"), Some(1.0));
    let per_shard_hits: f64 = shards
        .iter()
        .map(|s| s.number_at("queues.mpde.memo_hits").unwrap_or(0.0))
        .sum();
    assert_eq!(per_shard_hits, 1.0);
    // The solve and the memo hit both landed in the latency histograms.
    assert_eq!(stats.number_at("latency.solve.count"), Some(1.0));
    assert_eq!(stats.number_at("latency.e2e.count"), Some(2.0));
    // Snapshots are orderable: the generation is strictly monotonic.
    let generation = stats.number_at("stats_generation").expect("generation");
    let again = client.stats().expect("stats again");
    assert!(
        again.number_at("stats_generation").expect("generation") > generation,
        "stats_generation must increase per snapshot"
    );
    assert!(again.number_at("uptime_ms").expect("uptime") >= stats.number_at("uptime_ms").unwrap());
    drop(client);
    server.stop();
    server.join();
}

/// Every `rfsim_*` series named in `docs/observability.md`'s series
/// reference appears in a live `metrics` scrape, and every series the
/// daemon emits is documented — the exposition and the doc cannot drift
/// apart in either direction.
#[test]
fn metrics_exposition_matches_documented_series() {
    let service = SimService::start(config(2));
    let server = WireServer::start(service.clone(), "127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.run(&spec(0.1), WAIT).expect("solve");

    let text = client.metrics().expect("metrics");
    let doc = include_str!("../../../docs/observability.md");
    // The documented names: backtick-quoted `rfsim_*` tokens in the
    // series-reference table rows.
    let mut documented: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for line in doc.lines().filter(|l| l.starts_with("| `rfsim_")) {
        let name = line
            .trim_start_matches("| `")
            .split('`')
            .next()
            .expect("series name");
        documented.insert(name);
    }
    assert!(
        documented.len() > 30,
        "the doc table should be rich, found {}",
        documented.len()
    );

    // Every emitted series is documented (summaries document the base
    // name; `_sum`/`_count` are implicit).
    let mut emitted: std::collections::HashSet<&str> = std::collections::HashSet::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (series, value) = line.rsplit_once(' ').expect("name value");
        assert!(value.parse::<f64>().is_ok(), "numeric sample: {line}");
        let name = series.split('{').next().expect("series name");
        let base = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        assert!(
            documented.contains(base),
            "emitted series '{name}' is not documented in docs/observability.md"
        );
        emitted.insert(base);
    }
    // And every documented series is emitted.
    for name in &documented {
        assert!(
            emitted.contains(name),
            "documented series '{name}' missing from a live scrape"
        );
    }
    drop(client);
    server.stop();
    server.join();
}
