//! `serve_mixed`: `rfsim-serve` traffic over loopback TCP.
//!
//! A `SimService` with two engine threads, one shard and telemetry on as
//! shipped, behind a `WireServer` with the default front-end. Two
//! `ServeClient` connections run a closed loop (each waits for its reply,
//! as `rfsim-client` callers do). Each request is, with seeded even odds,
//! a fresh job with a unique key or a repeat from the hot set primed
//! during set-up: the nine steady-state netlists of `test_cases/`
//! (submitted with `submit_netlist`) plus three built-in family specs.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rfsim_hb::Hb2Options;
use rfsim_mpde::MpdeOptions;
use rfsim_netlist::{Analysis, Netlist};
use rfsim_numerics::json::Json;
use rfsim_rf::pool::WorkerPool;
use rfsim_rf::sweep::{Hb2SweepJob, MpdeSweepJob, SweepEngine};
use rfsim_serve::client::PollOutcome;
use rfsim_serve::service::{JobId, JobStatus, ServeConfig, SimService};
use rfsim_serve::spec::{BackendKind, FamilyRegistry, JobResult, JobSpec, PointParams, Priority};
use rfsim_serve::{ServeClient, WireServer};

use crate::measure::{
    mean, median, ms, peak_rss_mb, quantile, repeat_setup, time_median_ms, Rng, Tally,
};
use crate::replay::{fill_solver_layers, traced_mpde_solve};
use crate::report::{Metrics, Report};
use crate::trace::Tracer;
use crate::RunConfig;

/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Set-ups per run (service start, bind, hot-set priming): at least this
/// many, and for at least [`SETUP_MIN`]; the median is reported.
const SETUP_REPS: usize = 5;
/// Least time spent on set-ups per run: seconds, not one short window,
/// because the host's speed changes over seconds.
const SETUP_MIN: Duration = Duration::from_millis(2000);
/// Longest wait for one reply before the op counts as timed out.
const WAIT: Duration = Duration::from_secs(30);
/// The golden corpus, relative to the checkout root.
const CORPUS_DIR: &str = "test_cases";
/// Carrier of every built-in family request (Hz).
const F1: f64 = 1e6;
/// Tone spacings of every built-in family request (Hz).
const SPACINGS: [f64; 2] = [1e4, 2e4];
/// Families fresh jobs draw from.
const FRESH_FAMILIES: [&str; 2] = ["diode_clipper", "rc_lowpass"];
/// In-process replays per request class in the traced run.
const REPLAYS: usize = 40;

/// What a hot-set entry resubmits.
#[derive(Debug, Clone)]
pub enum HotRequest {
    /// A `.rfn` netlist text, via `submit_netlist`.
    Netlist(String),
    /// A built-in family spec, via `submit`.
    Spec(JobSpec),
}

/// One hot-set entry and the digest recorded when it was primed.
#[derive(Debug, Clone)]
pub struct HotItem {
    /// Corpus file name or spec label.
    pub name: String,
    /// The request.
    pub request: HotRequest,
    /// The pinned golden digest, for single-row corpus netlists.
    pub golden: Option<String>,
    /// The digest the service returned at priming.
    pub digest: String,
}

/// The service configuration under test.
fn config() -> ServeConfig {
    ServeConfig {
        threads: 2,
        shards: 1,
        ..Default::default()
    }
}

/// The hot set's requests: every steady-state corpus netlist (with its
/// golden digest when it has a single spacing row) plus three built-in
/// specs. The multi-row `mpde_grid_sweep.rfn` is checked by replay only:
/// served, it returns `7500be6d5f6e83fd` against a pinned golden of
/// `fa2f6799b8bf4e7e` (see NOTES.md).
///
/// # Errors
///
/// An unreadable corpus or goldens file, or a netlist that fails to parse.
pub fn hot_requests() -> Result<Vec<HotItem>, String> {
    let goldens_path = format!("{CORPUS_DIR}/GOLDENS.json");
    let goldens = std::fs::read_to_string(&goldens_path)
        .map_err(|e| format!("read {goldens_path}: {e}"))
        .and_then(|text| Json::parse(&text))?;
    let mut paths: Vec<_> = std::fs::read_dir(CORPUS_DIR)
        .map_err(|e| format!("read {CORPUS_DIR}/: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "rfn"))
        .collect();
    paths.sort();
    let mut hot = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let netlist = Netlist::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if !matches!(
            netlist.analysis,
            Analysis::Mpde { .. } | Analysis::Hb2 { .. } | Analysis::PeriodicFd { .. }
        ) {
            continue;
        }
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let single_row = netlist
            .sweep
            .as_ref()
            .is_some_and(|s| s.spacings.len() <= 1);
        let golden = match goldens.get(&name) {
            Some(Json::String(d)) if single_row => Some(d.clone()),
            _ => None,
        };
        hot.push(HotItem {
            name,
            request: HotRequest::Netlist(text),
            golden,
            digest: String::new(),
        });
    }
    let hb2 = JobSpec {
        backend: BackendKind::Hb2,
        n1: 8,
        n2: 4,
        ..JobSpec::mpde("rc_stiff", F1, vec![0.5, 1.0], SPACINGS.to_vec())
    };
    for (name, spec) in [
        (
            "rc_lowpass/mpde",
            JobSpec::mpde("rc_lowpass", F1, vec![0.5, 1.0], SPACINGS.to_vec()),
        ),
        (
            "diode_clipper/mpde",
            JobSpec::mpde("diode_clipper", F1, vec![0.4, 0.8], SPACINGS.to_vec()),
        ),
        ("rc_stiff/hb2", hb2),
    ] {
        hot.push(HotItem {
            name: name.to_string(),
            request: HotRequest::Spec(spec),
            golden: None,
            digest: String::new(),
        });
    }
    Ok(hot)
}

/// A fresh job: a unique key from seeded amplitudes, 2 amplitudes × 2
/// spacings, family `diode_clipper` or `rc_lowpass`; MPDE 16×8, or HB2
/// 8×4 one time in four.
pub fn fresh_spec(rng: &mut Rng) -> JobSpec {
    let family = FRESH_FAMILIES[rng.below(FRESH_FAMILIES.len())];
    let amplitudes = vec![0.25 + 0.75 * rng.unit(), 0.25 + 0.75 * rng.unit()];
    let mut spec = JobSpec::mpde(family, F1, amplitudes, SPACINGS.to_vec());
    if rng.below(4) == 0 {
        spec.backend = BackendKind::Hb2;
        spec.n1 = 8;
        spec.n2 = 4;
    }
    spec
}

/// The hex spelling the wire uses for a result digest.
pub fn digest_hex(result: &JobResult) -> String {
    format!("{:016x}", result.digest())
}

/// A hot repeat's check: served from the store, with the digest recorded
/// at priming (both the server's and one recomputed from the received
/// samples). `corrupt` flips the digest's low bit first.
pub fn hit_ok(outcome: &PollOutcome, digest: &str, corrupt: bool) -> bool {
    let mut served = outcome.digest.clone().unwrap_or_default();
    if corrupt {
        served = u64::from_str_radix(&served, 16).map_or(served, |d| format!("{:016x}", d ^ 1));
    }
    outcome.memo_hit
        && served == digest
        && outcome
            .result
            .as_ref()
            .is_some_and(|r| digest_hex(r) == digest)
}

/// A fresh job's check: amplitudes × spacings points, all finite.
pub fn fresh_ok(spec: &JobSpec, result: &JobResult) -> bool {
    result.points.len() == spec.amplitudes.len() * spec.spacings.len()
        && result
            .points
            .iter()
            .all(|p| !p.samples.is_empty() && p.samples.iter().all(|v| v.is_finite()))
}

/// A running service behind a bound wire server; stopped on drop.
struct Session {
    service: Arc<SimService>,
    server: WireServer,
}

impl Session {
    fn start() -> Result<Session, String> {
        let service = SimService::start(config());
        let server = WireServer::start(Arc::clone(&service), "127.0.0.1:0")
            .map_err(|e| format!("bind: {e}"))?;
        Ok(Session { service, server })
    }

    fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect(self.addr()).map_err(|e| format!("connect: {e}"))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.server.stop();
        self.server.join();
        self.service.shutdown();
    }
}

fn submit_hot(client: &mut ServeClient, request: &HotRequest) -> rfsim_serve::Result<u64> {
    match request {
        HotRequest::Netlist(text) => client
            .submit_netlist(text, Priority::Normal, None)
            .map(|(id, _)| id),
        HotRequest::Spec(spec) => client.submit(spec),
    }
}

fn submit_in_process(service: &SimService, request: &HotRequest) -> rfsim_serve::Result<JobId> {
    match request {
        HotRequest::Netlist(text) => service
            .submit_netlist(text, Priority::Normal, None)
            .map(|s| s.job_id),
        HotRequest::Spec(spec) => service.submit(spec),
    }
}

/// Solves every hot request in-process and records its digest, checking
/// pinned goldens; then resubmits each and checks it settles at submit as
/// a store hit with that digest.
///
/// # Errors
///
/// A hot request the service refuses or fails to solve.
fn prime(
    service: &SimService,
    mut hot: Vec<HotItem>,
    tally: &mut Tally,
) -> Result<Vec<HotItem>, String> {
    for item in &mut hot {
        let result = submit_in_process(service, &item.request)
            .and_then(|id| service.wait(id, WAIT))
            .map_err(|e| format!("priming {}: {e}", item.name))?;
        item.digest = digest_hex(&result);
        let golden_ok = item.golden.as_ref().is_none_or(|g| *g == item.digest);
        if !tally.record(golden_ok) {
            eprintln!(
                "serve_mixed: {} digest {} does not match golden {:?}",
                item.name, item.digest, item.golden
            );
        }
    }
    for item in &hot {
        let status = submit_in_process(service, &item.request).and_then(|id| service.poll(id));
        tally.record(matches!(
            status,
            Ok(JobStatus::Done { result, memo_hit: true }) if digest_hex(&result) == item.digest
        ));
    }
    Ok(hot)
}

/// Starts and primes sessions repeatedly (each stopped before the next
/// starts); returns the last, its hot set and the median set-up (s).
fn setup(tally: &mut Tally) -> Result<(Session, Vec<HotItem>, f64), String> {
    let ((session, hot), setup_s) = repeat_setup(SETUP_REPS, SETUP_MIN, || {
        let session = Session::start()?;
        let hot = prime(&session.service, hot_requests()?, tally)?;
        Ok::<_, String>((session, hot))
    })?;
    Ok((session, hot, setup_s))
}

/// One op that passed its checks.
#[derive(Debug, Clone, Copy)]
struct Done {
    /// A hot-set repeat, else a fresh job.
    hit: bool,
    /// Submit-to-result latency over the wire (ms).
    ms: f64,
    /// Whether the op was span-recorded.
    traced: bool,
}

/// What the client connections saw.
#[derive(Debug)]
struct ClientLog {
    tally: Tally,
    done: Vec<Done>,
    tracer: Tracer,
}

impl ClientLog {
    fn new(origin: Instant) -> Self {
        ClientLog {
            tally: Tally::default(),
            done: Vec::new(),
            tracer: Tracer::new(origin),
        }
    }

    fn absorb(&mut self, other: ClientLog) {
        self.tally.absorb(other.tally);
        self.done.extend(other.done);
        self.tracer.absorb(other.tracer);
    }

    /// Latencies (ms) of one class; `traced` picks span-recorded ops
    /// only, or unrecorded ones only.
    fn latencies(&self, hit: bool, traced: Option<bool>) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.hit == hit && traced.is_none_or(|t| d.traced == t))
            .map(|d| d.ms)
            .collect()
    }
}

/// One closed-loop connection from `started` for the run's duration.
/// With `trace`, every second op records a `wire.fresh` / `wire.hit`
/// span, so the traced run can price its own tracing.
fn client_loop(
    addr: SocketAddr,
    hot: &[HotItem],
    cfg: &RunConfig,
    index: usize,
    origin: Instant,
    started: Instant,
) -> Result<ClientLog, String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = Rng::new(cfg.seed, 1 + index as u64);
    let mut log = ClientLog::new(origin);
    let mut op = (index as u64) << 40;
    while started.elapsed() < cfg.duration() {
        op += 1;
        let traced = cfg.trace && op.is_multiple_of(2);
        let hit = rng.below(2) == 0;
        let t0 = Instant::now();
        let ok = if hit {
            let item = &hot[rng.below(hot.len())];
            let outcome =
                submit_hot(&mut client, &item.request).and_then(|id| client.wait(id, WAIT));
            outcome.is_ok_and(|o| hit_ok(&o, &item.digest, cfg.corrupt))
        } else {
            let spec = fresh_spec(&mut rng);
            let outcome = client.submit(&spec).and_then(|id| client.wait(id, WAIT));
            outcome.is_ok_and(|o| o.result.as_ref().is_some_and(|r| fresh_ok(&spec, r)))
        };
        let t1 = Instant::now();
        if traced {
            let name = if hit { "wire.hit" } else { "wire.fresh" };
            log.tracer.record(name, t0, t1, None, op);
        }
        if log.tally.record(ok) {
            log.done.push(Done {
                hit,
                ms: ms(t1 - t0),
                traced,
            });
        }
    }
    Ok(log)
}

/// The timed closed loop over every connection. Returns the merged logs
/// and the loop's wall time, until the last connection's last reply.
fn traffic(
    session: &Session,
    hot: &[HotItem],
    cfg: &RunConfig,
    origin: Instant,
) -> Result<(ClientLog, Duration), String> {
    let started = Instant::now();
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| scope.spawn(move || client_loop(session.addr(), hot, cfg, i, origin, started)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = started.elapsed();
    let mut merged = ClientLog::new(origin);
    for log in logs {
        merged.absorb(log?);
    }
    Ok((merged, elapsed))
}

/// The untraced run: end-to-end metrics. `solve_s_mean` is the fresh jobs'
/// mean latency over the run and `jobs_per_s` the ops completed and
/// checked per second of the loop.
///
/// # Errors
///
/// Set-up failures (corpus, bind, priming) or a client connect failure.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let mut tally = Tally::default();
    let (session, hot, setup_s) = setup(&mut tally)?;
    let (log, elapsed) = traffic(&session, &hot, cfg, Instant::now())?;
    drop(session);
    tally.absorb(log.tally);
    let mut metrics = Metrics::end_to_end();
    metrics.set("setup_s", setup_s);
    metrics.set("solve_s_mean", mean(&log.latencies(false, None)) / 1e3);
    metrics.set("jobs_per_s", log.done.len() as f64 / elapsed.as_secs_f64());
    metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(Report { tally, metrics })
}

/// `rfsim_frontend_request_ms{verb="<verb>",quantile="0.5"}` from the
/// `metrics` exposition text.
fn frontend_p50(exposition: &str, verb: &str) -> Option<f64> {
    let prefix = format!("rfsim_frontend_request_ms{{verb=\"{verb}\",quantile=\"0.5\"}} ");
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .and_then(|v| v.trim().parse().ok())
}

fn ratio(hits: usize, misses: usize) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Engine sub-jobs for `spec`, one per spacing row, built the way the
/// service's scheduler builds them.
fn engine_jobs(
    spec: &JobSpec,
    registry: &FamilyRegistry,
) -> Result<(Vec<MpdeSweepJob>, Vec<Hb2SweepJob>), String> {
    let (mut mpde, mut hb2) = (Vec::new(), Vec::new());
    for &fd in &spec.spacings {
        let builder = registry.builder(&spec.family).map_err(|e| e.to_string())?;
        let f1 = spec.f1;
        let make = move |amplitude: f64| {
            builder(&PointParams {
                amplitude,
                f1,
                spacing: fd,
                two_tone: true,
            })
        };
        let label = format!("{}/fd={fd}", spec.family);
        match spec.backend {
            BackendKind::Hb2 => {
                let options = Hb2Options {
                    n1: spec.n1,
                    n2: spec.n2,
                    ..Default::default()
                };
                hb2.push(Hb2SweepJob::new(
                    label,
                    spec.amplitudes.clone(),
                    1.0 / f1,
                    1.0 / fd,
                    options,
                    make,
                ));
            }
            _ => {
                let options = MpdeOptions {
                    n1: spec.n1,
                    n2: spec.n2,
                    ..Default::default()
                };
                mpde.push(MpdeSweepJob::new(
                    label,
                    spec.amplitudes.clone(),
                    1.0 / f1,
                    1.0 / fd,
                    options,
                    make,
                ));
            }
        }
    }
    Ok((mpde, hb2))
}

/// Re-runs each request class in-process: `SimService::submit`/`wait`
/// with counting copies of the fresh families, `SweepEngine` batches, and
/// `Netlist::parse`. Fills the engine, service, netlist and in-process
/// latency layers; returns the in-process (fresh, hit) p50 latencies (ms).
fn in_process(
    hot: &[HotItem],
    cfg: &RunConfig,
    metrics: &mut Metrics,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(f64, f64), String> {
    let builtin = FamilyRegistry::builtin();
    let service = SimService::start(config());
    let builds = Arc::new(AtomicUsize::new(0));
    for family in FRESH_FAMILIES {
        let builder = builtin.builder(family).map_err(|e| e.to_string())?;
        let builds = Arc::clone(&builds);
        service.register_family(family, move |p: &PointParams| {
            builds.fetch_add(1, Ordering::Relaxed);
            builder(p)
        });
    }
    let hot = prime(&service, hot.to_vec(), tally)?;
    let mut rng = Rng::new(cfg.seed, 100);
    let (mut submit_ms, mut fresh_ms, mut hit_ms) = (Vec::new(), Vec::new(), Vec::new());
    let builds_before = builds.load(Ordering::Relaxed);
    for op in 0..REPLAYS as u64 {
        let spec = fresh_spec(&mut rng);
        let t0 = Instant::now();
        let id = service.submit(&spec);
        let t1 = Instant::now();
        let done = id.and_then(|id| service.wait(id, WAIT));
        let t2 = Instant::now();
        let root = tracer.record("service.fresh", t0, t2, None, op);
        tracer.record("service.submit", t0, t1, Some(root), op);
        tracer.record("service.wait", t1, t2, Some(root), op);
        if tally.record(done.is_ok_and(|r| fresh_ok(&spec, &r))) {
            submit_ms.push(ms(t1 - t0));
            fresh_ms.push(ms(t2 - t0));
        }
    }
    let builds_per_fresh = (builds.load(Ordering::Relaxed) - builds_before) as f64 / REPLAYS as f64;
    for op in 0..REPLAYS as u64 {
        let item = &hot[rng.below(hot.len())];
        let t0 = Instant::now();
        let done = submit_in_process(&service, &item.request).and_then(|id| service.wait(id, WAIT));
        let t1 = Instant::now();
        tracer.record("service.hit", t0, t1, None, op);
        if tally.record(done.is_ok_and(|r| digest_hex(&r) == item.digest)) {
            hit_ms.push(ms(t1 - t0));
        }
    }
    service.shutdown();
    metrics.set("service.submit_ms", median(&submit_ms));
    metrics.set("service.builder_calls_per_fresh", builds_per_fresh);

    // The engine layer alone, configured as the service configures it.
    let engine = SweepEngine::with_pool(WorkerPool::new(config().threads))
        .with_solution_memo(0)
        .chain_topology_groups(false);
    let (mut mpde_ms, mut hb2_ms) = (Vec::new(), Vec::new());
    for op in 0..REPLAYS as u64 {
        let spec = fresh_spec(&mut rng);
        let (mpde, hb2) = engine_jobs(&spec, &builtin)?;
        let t0 = Instant::now();
        let (name, ok) = if mpde.is_empty() {
            (
                "engine.hb2_batch",
                engine.run_hb2_batch(&hb2).iter().all(Result::is_ok),
            )
        } else {
            (
                "engine.mpde_batch",
                engine.run_mpde_batch(&mpde).iter().all(Result::is_ok),
            )
        };
        let t1 = Instant::now();
        tracer.record(name, t0, t1, None, op);
        if tally.record(ok) {
            match name {
                "engine.hb2_batch" => hb2_ms.push(ms(t1 - t0)),
                _ => mpde_ms.push(ms(t1 - t0)),
            }
        }
    }
    metrics.set("engine.mpde_batch_ms", median(&mpde_ms));
    metrics.set("engine.hb2_batch_ms", median(&hb2_ms));

    let texts: Vec<&str> = hot
        .iter()
        .filter_map(|item| match &item.request {
            HotRequest::Netlist(text) => Some(text.as_str()),
            HotRequest::Spec(_) => None,
        })
        .collect();
    let parse_ms = time_median_ms(5, Duration::from_millis(20), || {
        for text in &texts {
            std::hint::black_box(Netlist::parse(text).is_ok());
        }
    });
    metrics.set("netlist.parse_ms", parse_ms / texts.len().max(1) as f64);
    Ok((median(&fresh_ms), median(&hit_ms)))
}

/// Traced MPDE solves of fresh-job `diode_clipper` points (16×8 grid), each
/// priced by a replay of its last Jacobian, for the solver layers.
fn solver_layers(
    cfg: &RunConfig,
    origin: Instant,
    metrics: &mut Metrics,
    tally: &mut Tally,
) -> Result<Tracer, String> {
    let builder = FamilyRegistry::builtin()
        .builder("diode_clipper")
        .map_err(|e| e.to_string())?;
    let options = MpdeOptions {
        n1: 16,
        n2: 8,
        ..Default::default()
    };
    let (t1, t2) = (1.0 / F1, 1.0 / SPACINGS[0]);
    let log = std::cell::RefCell::new(Tracer::new(origin));
    let mut rng = Rng::new(cfg.seed, 200);
    let mut samples = Vec::new();
    for op in 0..REPLAYS as u64 {
        let circuit = builder(&PointParams {
            amplitude: 0.25 + 0.75 * rng.unit(),
            f1: F1,
            spacing: SPACINGS[0],
            two_tone: true,
        })
        .map_err(|e| e.to_string())?;
        let traced = traced_mpde_solve(&circuit, t1, t2, &options, &log, op)
            .ok()
            .filter(|t| t.data.iter().all(|v| v.is_finite()));
        tally.record(traced.is_some());
        samples.extend(traced.map(|t| t.sample));
    }
    if !samples.is_empty() {
        fill_solver_layers(metrics, &samples);
    }
    Ok(log.into_inner())
}

/// The traced run: the same traffic with client-side spans on every
/// second op, the service's own histograms and the front-end's per-verb
/// summaries, then each request class re-run in-process so the wire's
/// share of a request's latency is the difference.
///
/// # Errors
///
/// Set-up, connect or replay failures.
pub fn run_traced(cfg: &RunConfig) -> Result<(Report, Tracer), String> {
    let mut tally = Tally::default();
    let (session, hot, _) = setup(&mut tally)?;
    let origin = Instant::now();
    let (mut log, _) = traffic(&session, &hot, cfg, origin)?;
    tally.absorb(log.tally);
    let exposition = session
        .connect()?
        .metrics()
        .map_err(|e| format!("metrics verb: {e}"))?;
    let stats = session.service.stats();
    drop(session);

    let mut metrics = Metrics::per_layer();
    let summary = |h: &rfsim_numerics::telemetry::LatencyHistogram| h.summary();
    metrics.set(
        "service.queue_wait_ms_p50",
        summary(&stats.latency.queue_wait).p50_ms,
    );
    metrics.set(
        "service.queue_wait_ms_p90",
        summary(&stats.latency.queue_wait).p90_ms,
    );
    metrics.set("service.solve_ms_p50", summary(&stats.latency.solve).p50_ms);
    metrics.set(
        "service.fp_cache_hit_rate",
        ratio(stats.keying.fp_cache_hits, stats.keying.fp_cache_misses),
    );
    metrics.set("store.hit_rate", stats.store_hit_rate());
    metrics.set(
        "engine.workspace_hit_rate",
        ratio(stats.engine_cache.hits, stats.engine_cache.misses),
    );
    metrics.set(
        "wire.request_ms.submit",
        frontend_p50(&exposition, "submit").unwrap_or(0.0),
    );
    metrics.set(
        "wire.request_ms.poll",
        frontend_p50(&exposition, "poll").unwrap_or(0.0),
    );

    let (fresh, hits) = (log.latencies(false, None), log.latencies(true, None));
    metrics.set("serve.fresh_ms_p90", quantile(&fresh, 0.9));
    metrics.set("serve.hit_ms_p50", median(&hits));
    metrics.set("serve.hit_ms_p90", quantile(&hits, 0.9));
    metrics.set(
        "trace.overhead_frac",
        median(&log.latencies(false, Some(true))) / median(&log.latencies(false, Some(false)))
            - 1.0,
    );

    let (fresh_in_process, hit_in_process) =
        in_process(&hot, cfg, &mut metrics, &mut tally, &mut log.tracer)?;
    metrics.set("wire.fresh_overhead_ms", median(&fresh) - fresh_in_process);
    metrics.set("wire.hit_overhead_ms", median(&hits) - hit_in_process);
    let solver_log = solver_layers(cfg, origin, &mut metrics, &mut tally)?;
    log.tracer.absorb(solver_log);
    Ok((Report { tally, metrics }, log.tracer))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim_serve::spec::PointSolution;

    fn outcome(result: &JobResult, memo_hit: bool) -> PollOutcome {
        PollOutcome {
            status: "done".into(),
            result: Some(result.clone()),
            memo_hit,
            digest: Some(digest_hex(result)),
            error: None,
            interrupt_reason: None,
            progress: None,
        }
    }

    fn result(samples: Vec<f64>) -> JobResult {
        JobResult {
            points: (0..4)
                .map(|k| PointSolution {
                    amplitude: 0.5 + k as f64,
                    spacing: 1e4,
                    samples: samples.clone(),
                })
                .collect(),
        }
    }

    #[test]
    fn hit_check_rejects_a_flipped_digest_bit_and_a_miss() {
        let r = result(vec![0.1, -0.2]);
        let digest = digest_hex(&r);
        assert!(hit_ok(&outcome(&r, true), &digest, false));
        assert!(
            !hit_ok(&outcome(&r, true), &digest, true),
            "flipped digest bit"
        );
        assert!(
            !hit_ok(&outcome(&r, false), &digest, false),
            "not a store hit"
        );
        let other = result(vec![0.1, -0.25]);
        assert!(
            !hit_ok(&outcome(&other, true), &digest, false),
            "other samples"
        );
    }

    #[test]
    fn fresh_check_wants_every_point_finite() {
        let mut rng = Rng::new(5, 0);
        let spec = fresh_spec(&mut rng);
        assert!(fresh_ok(&spec, &result(vec![0.1, 0.2])));
        assert!(!fresh_ok(&spec, &result(vec![0.1, f64::NAN])));
        let mut short = result(vec![0.1]);
        short.points.pop();
        assert!(!fresh_ok(&spec, &short));
    }

    #[test]
    fn fresh_specs_follow_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 1);
            (0..8).map(|_| fresh_spec(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let specs = draw(3);
        assert!(specs
            .iter()
            .all(|s| s.amplitudes.len() * s.spacings.len() == 4));
    }
}
