//! Batched multi-topology sweeps through the [`SweepEngine`]: four circuit
//! families (two Jacobian structures) traced over amplitude in one batch,
//! each job warm-starting point to point on workspaces of its own while
//! the two topology groups run concurrently, plus an amplitude ×
//! tone-spacing grid run as one job per spacing row.
//!
//! Run with: `cargo run --release --example batched_topology_sweep`
//!
//! [`SweepEngine`]: rfsim::rf::sweep::SweepEngine

use rfsim::circuit::{BiWaveform, Circuit, CircuitBuilder, CircuitError, Envelope, GROUND};
use rfsim::mpde::solver::MpdeOptions;
use rfsim::rf::measure::ratio_to_db;
use rfsim::rf::pool::WorkerPool;
use rfsim::rf::sweep::{MpdeSweepJob, SweepEngine};
use std::error::Error;

const F1: f64 = 1e6;
const FD: f64 = 10e3;

/// Linear RC output stage (topology A), parameterised by load resistance.
fn rc_stage(r_load: f64) -> impl Fn(f64) -> Result<Circuit, CircuitError> + Send + Sync {
    move |amplitude: f64| {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let out = b.node("out");
        b.vsource(
            "VRF",
            inp,
            GROUND,
            BiWaveform::ShearedCarrier {
                amplitude,
                k: 1,
                f1: F1,
                fd: FD,
                phase: 0.0,
                envelope: Envelope::Unit,
            },
        )?;
        b.resistor("R1", inp, out, r_load)?;
        b.capacitor("C1", out, GROUND, 160e-12)?;
        b.build()
    }
}

/// Diode limiter stage (topology B — an extra internal node, so a
/// different Jacobian structure): compresses at high drive.
fn limiter_stage(r_series: f64) -> impl Fn(f64) -> Result<Circuit, CircuitError> + Send + Sync {
    move |amplitude: f64| {
        let mut b = CircuitBuilder::new();
        let inp = b.node("in");
        let mid = b.node("mid");
        let out = b.node("out");
        b.vsource(
            "VRF",
            inp,
            GROUND,
            BiWaveform::ShearedCarrier {
                amplitude,
                k: 1,
                f1: F1,
                fd: FD,
                phase: 0.0,
                envelope: Envelope::Unit,
            },
        )?;
        b.resistor("R1", inp, mid, r_series)?;
        b.diode("D1", mid, GROUND, Default::default())?;
        b.resistor("R2", mid, out, r_series)?;
        b.resistor("RL", out, GROUND, 2e3)?;
        b.capacitor("C1", out, GROUND, 160e-12)?;
        b.build()
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let amps: Vec<f64> = vec![0.2, 0.5, 1.0, 2.0];
    let opts = MpdeOptions {
        n1: 24,
        n2: 8,
        ..Default::default()
    };
    let jobs = vec![
        MpdeSweepJob::new("rc/1k", amps.clone(), 1.0 / F1, 1.0 / FD, opts.clone(), {
            rc_stage(1e3)
        }),
        MpdeSweepJob::new("rc/2k", amps.clone(), 1.0 / F1, 1.0 / FD, opts.clone(), {
            rc_stage(2e3)
        }),
        MpdeSweepJob::new(
            "limiter/500",
            amps.clone(),
            1.0 / F1,
            1.0 / FD,
            opts.clone(),
            limiter_stage(500.0),
        ),
        MpdeSweepJob::new(
            "limiter/1k",
            amps.clone(),
            1.0 / F1,
            1.0 / FD,
            opts.clone(),
            limiter_stage(1e3),
        ),
    ];

    let engine = SweepEngine::with_pool(WorkerPool::from_available_parallelism());
    println!(
        "running {} jobs on {} worker thread(s)…\n",
        jobs.len(),
        engine.pool().threads()
    );
    let results = engine.run_mpde_batch(&jobs);

    // Output-node unknown index per family (the limiter has one extra
    // internal node ahead of its output).
    let out_idx = [1usize, 1, 2, 2];
    println!("gain vs drive (fast-axis fundamental, dB re drive):");
    for ((job, result), &out) in jobs.iter().zip(&results).zip(&out_idx) {
        let points = result.as_ref().map_err(|e| e.to_string())?;
        print!("  {:<12}", job.label);
        for p in points {
            let a1 = p.solution.solution.fast_harmonic_magnitude(out, 1);
            print!("  {:>7.2} dB", ratio_to_db(a1 / p.value));
        }
        println!();
    }

    let stats = engine.cache_stats();
    println!(
        "\nworkspaces: {} built (one per job and structure), {} reused on a return to a structure",
        stats.misses, stats.hits
    );

    // The same engine drives a multi-parameter grid: one amplitude-sweep
    // job per tone spacing, one structure for all rows.
    let spacings = [5e3, 10e3, 20e3];
    let grid: Vec<MpdeSweepJob> = spacings
        .iter()
        .map(|&fd| {
            MpdeSweepJob::new(
                format!("rc grid/fd={fd}"),
                vec![0.1, 0.4],
                1.0 / F1,
                1.0 / fd,
                opts.clone(),
                move |a: f64| {
                    let mut b = CircuitBuilder::new();
                    let inp = b.node("in");
                    let out = b.node("out");
                    b.vsource(
                        "VRF",
                        inp,
                        GROUND,
                        BiWaveform::ShearedCarrier {
                            amplitude: a,
                            k: 1,
                            f1: F1,
                            fd,
                            phase: 0.0,
                            envelope: Envelope::Unit,
                        },
                    )?;
                    b.resistor("R1", inp, out, 1e3)?;
                    b.capacitor("C1", out, GROUND, 160e-12)?;
                    b.build()
                },
            )
        })
        .collect();
    println!("\namplitude × tone-spacing grid (|H| at f1 − fd):");
    for (fd, row) in spacings.iter().zip(engine.run_mpde_batch(&grid)) {
        for p in row? {
            let a1 = p.solution.solution.fast_harmonic_magnitude(1, 1);
            println!(
                "  a = {:>4.2} V, fd = {:>5.0} Hz  →  {:.4}",
                p.value,
                fd,
                a1 / p.value
            );
        }
    }
    Ok(())
}
