//! The CI bench-regression gate.
//!
//! Measures the refactor, warm-workspace, Krylov-vs-direct,
//! solution-store, netlist-submit, build-free-submit,
//! cancel-latency, recovery-ladder, sharded-throughput and
//! telemetry-overhead scenarios in-process, checks the machine-portable
//! speedup *ratios* against the committed baseline JSON within a
//! relative tolerance and against their hard floors, and writes every
//! measured check to the `--out` JSON (see `docs/benching.md` for the
//! schema and the rationale). Exit code 0 = every check passes; 1 =
//! regression; 2 = an unknown flag or a missing or unparsable value,
//! reported in one stderr line before anything is measured.
//!
//! ```text
//! cargo run --release -p rfsim-bench --bin bench_gate -- \
//!     --baseline BENCH_pr26.json --out BENCH_pr27.json --tolerance 0.25
//! ```

use std::io::Write;
use std::process::ExitCode;
use std::str::FromStr;

use rfsim_bench::gate::{
    bench_json, cancel_latency_scenario, evaluate, keyless_submit_scenario, memo_roundtrip,
    mpde_krylov_vs_direct, mpde_warm_vs_cold, netlist_submit_scenario, recovery_ladder_scenario,
    refactor_vs_full, sharded_throughput_scenario, telemetry_overhead_scenario, GateCheck, Json,
};

struct Args {
    baseline: String,
    out: String,
    tolerance: f64,
    reps: usize,
}

/// The value after `flag`, parsed.
fn parsed<T: FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String> {
    let text = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse '{text}'"))
}

/// Parses the command line; the error is a one-line usage message.
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: "BENCH_pr26.json".into(),
        out: "BENCH_pr27.json".into(),
        // Cross-machine reproducibility of the micro ratios is ~±20%
        // (measured by re-running a pinned build against a baseline
        // recorded on a different container), so a tighter band is
        // flake, not detection. The hard floors carry the
        // machine-portable guarantees.
        tolerance: 0.25,
        reps: 7,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--baseline" => args.baseline = parsed(&mut it, "--baseline")?,
            "--out" => args.out = parsed(&mut it, "--out")?,
            "--tolerance" => args.tolerance = parsed(&mut it, "--tolerance")?,
            "--reps" => args.reps = parsed(&mut it, "--reps")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let Ok(args) = parse_args().map_err(|msg| eprintln!("bench_gate: {msg}")) else {
        return ExitCode::from(2);
    };

    println!("bench_gate: measuring ({} reps per scenario)…", args.reps);
    let (refactor_ns, full_factor_ns) = refactor_vs_full(args.reps);
    let refactor_speedup = full_factor_ns / refactor_ns;
    println!(
        "  refactor {refactor_ns:.0} ns vs full factor {full_factor_ns:.0} ns \
         → {refactor_speedup:.2}x"
    );

    let (warm_ns, cold_ns) = mpde_warm_vs_cold(args.reps);
    let warm_speedup = cold_ns / warm_ns;
    println!("  mpde warm {warm_ns:.0} ns vs cold {cold_ns:.0} ns → {warm_speedup:.2}x");

    let krylov = mpde_krylov_vs_direct(args.reps);
    println!(
        "  mpde 40x30: krylov {:.0} ns vs direct {:.0} ns → {:.2}x, \
         {} Newton iterations, {} Krylov solves, {} matvecs, {} direct fallbacks",
        krylov.krylov_ns,
        krylov.direct_ns,
        krylov.speedup(),
        krylov.newton_iterations,
        krylov.stats.iterative_solves,
        krylov.stats.krylov_matvecs,
        krylov.stats.direct_fallbacks,
    );

    let memo = memo_roundtrip(args.reps);
    println!(
        "  serve: fresh grid {:.0} ns vs memo hit {:.0} ns → {:.1}x, \
         {} memo hits, bit-identical: {}",
        memo.fresh_ns,
        memo.memo_ns,
        memo.speedup(),
        memo.memo_hits,
        memo.bit_identical,
    );

    let netlist = netlist_submit_scenario(args.reps);
    println!(
        "  netlist: cold submit {:.0} ns vs memo hit {:.0} ns → {:.1}x, \
         {} memo hits, bit-identical: {}",
        netlist.fresh_ns,
        netlist.memo_ns,
        netlist.speedup(),
        netlist.memo_hits,
        netlist.bit_identical,
    );

    let keyless = keyless_submit_scenario(args.reps);
    println!(
        "  keyless submit: memo submit {:.0} ns, {} builder calls during \
         {} memo hits → build-free: {}",
        keyless.memo_submit_ns,
        keyless.builder_calls_during_memo,
        keyless.memo_hits,
        keyless.build_free(),
    );

    let cancel = cancel_latency_scenario(args.reps.min(3));
    println!(
        "  cancel: hung-job cancel settles in {:.1} ms (bound {:.0} ms, \
         headroom {:.1}x), typed: {}, slot reclaimed: {}",
        cancel.latency_ns / 1e6,
        cancel.bound_ms,
        cancel.headroom(),
        cancel.typed,
        cancel.reclaimed,
    );

    let ladder = recovery_ladder_scenario(args.reps);
    println!(
        "  ladder: {}/{} diverge faults settled typed in <= {} of {} iterations, \
         {} NaN iterates committed, {}/{} rung rescues",
        ladder.diverged_typed,
        args.reps,
        ladder.iterations_to_diverge,
        ladder.max_iters,
        ladder.nan_iterates_committed,
        ladder.ladder_rescues,
        ladder.ladder_runs,
    );

    let sharded = sharded_throughput_scenario(args.reps, 3);
    println!(
        "  sharded: {} clients vs a hung family ({} ms deadline) — single scheduler \
         {:.0} ns vs {}-shard pool {:.0} ns → {:.2}x, healthy slots on {} shards, \
         hung job isolated: {}, bit-identical: {}",
        sharded.clients,
        sharded.hung_deadline_ms,
        sharded.single_ns,
        sharded.shards,
        sharded.sharded_ns,
        sharded.speedup(),
        sharded.fast_shards,
        sharded.hung_isolated,
        sharded.bit_identical,
    );

    let telemetry = telemetry_overhead_scenario(args.reps);
    println!(
        "  telemetry: fresh solve on {:.0} ns vs off {:.0} ns → ratio {:.3}, \
         traced: {}, bit-identical: {}",
        telemetry.on_ns,
        telemetry.off_ns,
        telemetry.ratio(),
        telemetry.traced,
        telemetry.bit_identical,
    );

    // ------------------------------------------------------------------
    // Gate against the committed baseline.
    // ------------------------------------------------------------------
    let baseline_text = std::fs::read_to_string(&args.baseline)
        .unwrap_or_else(|e| panic!("reading baseline {}: {e}", args.baseline));
    let baseline = Json::parse(&baseline_text)
        .unwrap_or_else(|e| panic!("parsing baseline {}: {e}", args.baseline));

    // BENCH_pr2.json predates the `ratios` section; derive its
    // refactor-adjacent ratios from the component costs it does carry, and
    // fall back to `ratios.*` for any newer baseline that has them.
    let baseline_warm_vs_cold = baseline
        .number_at("ratios.mpde_warm_vs_cold_workspace")
        .or_else(|| {
            let warm = baseline.number_at("component_costs_ns.solve_warm_workspace_cold_guess")?;
            let cold = baseline.number_at("component_costs_ns.solve_cold_workspace_cold_guess")?;
            Some(cold / warm)
        });
    let baseline_refactor = baseline.number_at("ratios.refactor_vs_full_factor");

    let mut checks = vec![
        GateCheck {
            name: "refactor_vs_full_factor".into(),
            measured: refactor_speedup,
            baseline: baseline_refactor,
            // The symbolic split has to stay clearly worth it.
            floor: 2.0,
        },
        GateCheck {
            name: "mpde_warm_vs_cold_workspace".into(),
            measured: warm_speedup,
            baseline: baseline_warm_vs_cold,
            floor: 1.1,
        },
        // The Newton grid policy's GMRES + block-Jacobi against direct LU
        // on the paper's 40x30 fig4 solve, both cold (measured 2.6–3.0x
        // on 2 vCPUs). The floor keeps the policy's choice clearly worth
        // it.
        GateCheck {
            name: "mpde_krylov_vs_direct".into(),
            measured: krylov.speedup(),
            baseline: baseline.number_at("ratios.mpde_krylov_vs_direct"),
            floor: 1.5,
        },
        // The two memo-hit ratios are floor-gated only: their numerator
        // — a ~1 ms fresh solve — swings far more than ±25% with
        // machine state between recording sessions (observed 86x → 58x
        // with the memo-hit side unchanged), so a baseline comparison
        // punishes fresh solves getting *faster*. The 10x floors are the
        // acceptance criteria and carry the machine-portable guarantee.
        GateCheck {
            name: "memo_hit_vs_fresh_solve".into(),
            measured: memo.speedup(),
            baseline: None,
            // PR 4 acceptance criterion: serving a previously solved grid
            // from the solution store is >= 10x faster than re-solving.
            floor: 10.0,
        },
    ];
    checks.push(GateCheck {
        name: "netlist_submit_memo_vs_fresh".into(),
        measured: netlist.speedup(),
        baseline: None,
        // PR 10 acceptance criterion: resubmitting an identical netlist
        // is served from the store >= 10x faster than the cold
        // parse + register + solve path.
        floor: 10.0,
    });
    checks.push(GateCheck {
        name: "netlist_submit_replay_bit_identical".into(),
        measured: if netlist.bit_identical { 1.0 } else { 0.0 },
        baseline: None,
        floor: 1.0,
    });
    // Bit-identical replay is pass/fail, not a ratio: encode it as a
    // 0/1 metric with a floor of 1.
    checks.push(GateCheck {
        name: "memo_replay_bit_identical".into(),
        measured: if memo.bit_identical { 1.0 } else { 0.0 },
        baseline: None,
        floor: 1.0,
    });
    // PR 5 acceptance criterion: memo-hit submits never invoke the
    // family builder (their store key needs no circuit). Pass/fail,
    // floored at 1.
    checks.push(GateCheck {
        name: "keyless_submit_build_free".into(),
        measured: if keyless.build_free() { 1.0 } else { 0.0 },
        baseline: None,
        floor: 1.0,
    });
    // PR 6 acceptance criteria. Headroom = bound / measured latency: a
    // hung solve must settle its cancellation within the bound. The
    // floor is the whole gate — headroom is dominated by scheduler
    // timing noise, so comparing it against a committed baseline would
    // only add flake (unlike the throughput ratios above).
    checks.push(GateCheck {
        name: "cancel_latency_headroom".into(),
        measured: cancel.headroom(),
        baseline: None,
        floor: 1.0,
    });
    checks.push(GateCheck {
        name: "cancel_typed_outcome".into(),
        measured: if cancel.typed { 1.0 } else { 0.0 },
        baseline: None,
        floor: 1.0,
    });
    checks.push(GateCheck {
        name: "cancel_slot_reclaimed".into(),
        measured: if cancel.reclaimed { 1.0 } else { 0.0 },
        baseline: None,
        floor: 1.0,
    });
    // PR 7 acceptance criteria. Every diverge-fault solve must settle
    // with the *typed* `Diverged` outcome (floor: at least one per run,
    // in practice all of them)…
    checks.push(GateCheck {
        name: "ladder_diverged_typed".into(),
        measured: ladder.diverged_typed as f64,
        baseline: None,
        floor: 1.0,
    });
    // …while committing zero NaN iterates — the headline bug. Encoded
    // inverted (1 = the committed-NaN count is exactly zero) because the
    // gate floors from below; the raw count is in the JSON's
    // `recovery_ladder` section.
    checks.push(GateCheck {
        name: "ladder_nan_iterates_zero".into(),
        measured: if ladder.nan_iterates_committed == 0 {
            1.0
        } else {
            0.0
        },
        baseline: None,
        floor: 1.0,
    });
    // Every plain-rung divergence must be rescued by the retry rung —
    // the climb dcop / the sweep retry rely on, end to end.
    checks.push(GateCheck {
        name: "ladder_rescue_rate".into(),
        measured: ladder.ladder_rescues as f64 / ladder.ladder_runs.max(1) as f64,
        baseline: None,
        floor: 1.0,
    });
    // PR 8 acceptance criteria. With one family hung, the shard pool
    // must serve the healthy clients at least as fast as the single
    // scheduler — floor-gated only (the measured value is dominated by
    // the hung job's deadline over the healthy work's machine-bound
    // solve time, so a baseline comparison would add flake)…
    checks.push(GateCheck {
        name: "sharded_throughput".into(),
        measured: sharded.speedup(),
        baseline: None,
        floor: 1.0,
    });
    // …with the hung job observed still pending on the pool after the
    // healthy work completed (the isolation property itself)…
    checks.push(GateCheck {
        name: "sharded_hung_isolated".into(),
        measured: if sharded.hung_isolated { 1.0 } else { 0.0 },
        baseline: None,
        floor: 1.0,
    });
    // …with bit-identical solutions to the single-scheduler service —
    // sharding must never change results.
    checks.push(GateCheck {
        name: "sharded_bit_identical".into(),
        measured: if sharded.bit_identical { 1.0 } else { 0.0 },
        baseline: None,
        floor: 1.0,
    });
    // PR 9 acceptance criteria. Telemetry is designed to be left on:
    // fresh-solve throughput with the full plane (histograms, timelines,
    // trace retention) must stay within 10% of the uninstrumented
    // service. Floor-gated only — the ratio hovers near 1.0 and its
    // residual is scheduler noise, so a baseline comparison would only
    // add flake.
    checks.push(GateCheck {
        name: "telemetry_overhead".into(),
        measured: telemetry.ratio(),
        baseline: None,
        floor: 0.9,
    });
    // …the instrumented service must actually have recorded a settled
    // trace (otherwise the ratio compares two identical code paths)…
    checks.push(GateCheck {
        name: "telemetry_trace_retained".into(),
        measured: if telemetry.traced { 1.0 } else { 0.0 },
        baseline: None,
        floor: 1.0,
    });
    // …and instrumentation must never change results.
    checks.push(GateCheck {
        name: "telemetry_bit_identical".into(),
        measured: if telemetry.bit_identical { 1.0 } else { 0.0 },
        baseline: None,
        floor: 1.0,
    });

    // ------------------------------------------------------------------
    // Emit the bench JSON: every check above lands under `ratios`.
    // ------------------------------------------------------------------
    let benchmarks = [
        ("refactor/refactor_numeric", refactor_ns),
        ("refactor/factor_full", full_factor_ns),
        ("mpde/solve_warm_workspace", warm_ns),
        ("mpde/solve_cold_workspace", cold_ns),
        ("mpde/fig4_cold_krylov", krylov.krylov_ns),
        ("mpde/fig4_cold_direct", krylov.direct_ns),
        ("serve/grid_fresh_solve", memo.fresh_ns),
        ("serve/grid_memo_hit", memo.memo_ns),
        ("serve/netlist_submit_cold", netlist.fresh_ns),
        ("serve/netlist_submit_memo_hit", netlist.memo_ns),
        ("serve/memo_hit_submit", keyless.memo_submit_ns),
        ("serve/cancel_latency", cancel.latency_ns),
        ("serve/hung_family_single_scheduler", sharded.single_ns),
        ("serve/hung_family_shard_pool", sharded.sharded_ns),
        ("serve/fresh_solve_telemetry_on", telemetry.on_ns),
        ("serve/fresh_solve_telemetry_off", telemetry.off_ns),
    ];
    let sections = vec![
        (
            "krylov",
            Json::object([
                ("newton_iterations", Json::from(krylov.newton_iterations)),
                (
                    "iterative_solves",
                    Json::from(krylov.stats.iterative_solves),
                ),
                ("krylov_matvecs", Json::from(krylov.stats.krylov_matvecs)),
                (
                    "direct_fallbacks",
                    Json::from(krylov.stats.direct_fallbacks),
                ),
            ]),
        ),
        (
            "serve",
            Json::object([
                ("memo_hits", Json::from(memo.memo_hits)),
                ("bit_identical_replay", Json::from(memo.bit_identical)),
                (
                    "keyless_builder_calls_during_memo",
                    Json::from(keyless.builder_calls_during_memo),
                ),
            ]),
        ),
        (
            "control_plane",
            Json::object([
                ("cancel_latency_bound_ms", Json::from(cancel.bound_ms)),
                ("cancel_typed_outcome", Json::from(cancel.typed)),
                ("cancel_slot_reclaimed", Json::from(cancel.reclaimed)),
            ]),
        ),
        (
            "recovery_ladder",
            Json::object([
                ("diverged_typed", Json::from(ladder.diverged_typed)),
                (
                    "nan_iterates_committed",
                    Json::from(ladder.nan_iterates_committed),
                ),
                (
                    "iterations_to_diverge",
                    Json::from(ladder.iterations_to_diverge),
                ),
                ("max_iters", Json::from(ladder.max_iters)),
                ("ladder_rescues", Json::from(ladder.ladder_rescues)),
                ("ladder_runs", Json::from(ladder.ladder_runs)),
            ]),
        ),
        (
            "sharded",
            Json::object([
                ("shards", Json::from(sharded.shards)),
                ("clients", Json::from(sharded.clients)),
                (
                    "hung_deadline_ms",
                    Json::number(sharded.hung_deadline_ms as f64),
                ),
                ("fast_shards", Json::from(sharded.fast_shards)),
                ("hung_isolated", Json::from(sharded.hung_isolated)),
                (
                    "bit_identical_across_pools",
                    Json::from(sharded.bit_identical),
                ),
            ]),
        ),
        (
            "telemetry",
            Json::object([
                ("settled_trace_retained", Json::from(telemetry.traced)),
                (
                    "bit_identical_across_planes",
                    Json::from(telemetry.bit_identical),
                ),
            ]),
        ),
    ];
    let json = bench_json(&benchmarks, sections, &checks);
    std::fs::File::create(&args.out)
        .and_then(|mut f| f.write_all(json.as_bytes()))
        .unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("bench_gate: wrote {}", args.out);

    println!(
        "bench_gate: comparing against {} (tolerance ±{:.0}%)",
        args.baseline,
        100.0 * args.tolerance
    );
    if evaluate(&checks, args.tolerance) {
        println!("bench_gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!("bench_gate: FAIL — speedup regression against the committed baseline");
        ExitCode::FAILURE
    }
}
