//! Substrate-stack integration: numerics → circuit → analyses, exercised
//! through public APIs only (what a downstream user of the workspace sees).

use rfsim::circuit::dcop::{dc_operating_point, DcOptions};
use rfsim::circuit::devices::BjtParams;
use rfsim::circuit::newton::{LinearSolver, NewtonOptions};
use rfsim::circuit::transient::{transient, Integrator, TransientOptions};
use rfsim::circuit::{CircuitBuilder, DiodeParams, MosfetParams, Waveform, GROUND};
use rfsim::circuits::fixtures::{rc_lowpass, rlc_series};
use rfsim::numerics::sparse::Triplets;
use rfsim::numerics::sparse_lu::{LuOptions, SparseLu};

#[test]
fn sparse_lu_handles_mna_structure() {
    // MNA matrices have zero diagonals on source rows: the LU must pivot.
    let mut b = CircuitBuilder::new();
    let n1 = b.node("a");
    let n2 = b.node("b");
    b.vsource("V1", n1, GROUND, Waveform::Dc(1.0)).expect("v");
    b.resistor("R1", n1, n2, 1e3).expect("r1");
    b.resistor("R2", n2, GROUND, 1e3).expect("r2");
    let ckt = b.build().expect("build");
    let n = ckt.num_unknowns();
    let x = vec![0.0; n];
    let mut f = vec![0.0; n];
    let mut jac = Triplets::new(n, n);
    ckt.eval_f(&x, &mut f, Some(&mut jac));
    let lu = SparseLu::factor(&jac.to_csc(), LuOptions::default()).expect("factor");
    let mut bvec = vec![0.0; n];
    ckt.eval_b(0.0, &mut bvec);
    let rhs: Vec<f64> = bvec.iter().map(|v| -v).collect();
    let sol = lu.solve(&rhs);
    // Linear circuit: one solve IS the DC solution. v(b) = 0.5 V.
    assert!((sol[1] - 0.5).abs() < 1e-12, "divider: {sol:?}");
}

#[test]
fn gmres_newton_matches_direct_newton_through_dc() {
    let mut b = CircuitBuilder::new();
    let inp = b.node("in");
    let a = b.node("a");
    b.vsource("V1", inp, GROUND, Waveform::Dc(3.0)).expect("v");
    b.resistor("R1", inp, a, 2e3).expect("r");
    b.diode("D1", a, GROUND, DiodeParams::default()).expect("d");
    let ckt = b.build().expect("build");
    let direct = dc_operating_point(&ckt, DcOptions::default()).expect("direct");
    // One block over the whole system: block-Jacobi is an exact inverse,
    // so GMRES converges without falling back on the MNA zero diagonals.
    let gmres = dc_operating_point(
        &ckt,
        DcOptions {
            newton: NewtonOptions {
                linear: LinearSolver::GmresBlockJacobi {
                    block_size: ckt.num_unknowns(),
                    rtol: 1e-10,
                    restart: 20,
                    max_iters: 200,
                },
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("gmres");
    for (d, g) in direct.solution.iter().zip(&gmres.solution) {
        assert!((d - g).abs() < 1e-6, "direct {d} vs gmres {g}");
    }
}

#[test]
fn all_transient_integrators_agree_on_rc() {
    let (ckt, out) = rc_lowpass(1e3, 1e-6, Waveform::sine(1.0, 200.0)).expect("build");
    let run = |integ: Integrator| {
        transient(
            &ckt,
            TransientOptions {
                t_stop: 10e-3,
                dt_init: 10e-6,
                dt_max: 20e-6,
                integrator: integ,
                adaptive: false,
                ..Default::default()
            },
        )
        .expect("transient")
        .sample(out, 9e-3)
    };
    let be = run(Integrator::BackwardEuler);
    let tr = run(Integrator::Trapezoidal);
    let bdf2 = run(Integrator::Bdf2);
    assert!((be - tr).abs() < 0.01, "BE {be} vs TR {tr}");
    assert!((bdf2 - tr).abs() < 0.005, "BDF2 {bdf2} vs TR {tr}");
}

#[test]
fn rlc_energy_decays_monotonically() {
    // Passivity sanity: the RLC step response's envelope decays.
    let (ckt, cap_idx) = rlc_series(50.0, 1e-3, 1e-9).expect("build");
    let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-3f64 * 1e-9).sqrt());
    let res = transient(
        &ckt,
        TransientOptions {
            t_stop: 10.0 / f0,
            dt_init: 0.005 / f0,
            dt_max: 0.01 / f0,
            integrator: Integrator::Trapezoidal,
            ..Default::default()
        },
    )
    .expect("transient");
    // Peak deviation from the final value in each ring period must shrink.
    let sig = res.signal(cap_idx);
    let period_samples = res.len() / 10;
    let mut peaks = Vec::new();
    for chunk in sig.chunks(period_samples.max(1)) {
        let p = chunk.iter().map(|v| (v - 1.0).abs()).fold(0.0f64, f64::max);
        peaks.push(p);
    }
    for w in peaks.windows(2).take(6) {
        assert!(
            w[1] <= w[0] * 1.05,
            "ringing envelope must decay: {peaks:?}"
        );
    }
}

#[test]
fn bjt_common_emitter_amplifier_bias() {
    // Classic CE stage: base divider, emitter degeneration, collector load.
    let mut b = CircuitBuilder::new();
    let vcc = b.node("vcc");
    let base = b.node("base");
    let coll = b.node("coll");
    let emit = b.node("emit");
    // 5 V supply: deep-exponential DC at higher rails needs per-junction
    // limiting (pnjlim), which this Newton does not implement — the global
    // voltage clamp converges one thermal voltage per iteration instead
    // (documented limitation, DESIGN.md §6).
    b.vsource("VCC", vcc, GROUND, Waveform::Dc(5.0))
        .expect("vcc");
    b.resistor("RB1", vcc, base, 27e3).expect("rb1");
    b.resistor("RB2", base, GROUND, 10e3).expect("rb2");
    b.resistor("RC", vcc, coll, 4.7e3).expect("rc");
    b.resistor("RE", emit, GROUND, 1e3).expect("re");
    b.bjt("Q1", coll, base, emit, BjtParams::default())
        .expect("q1");
    let ckt = b.build().expect("build");
    let op = dc_operating_point(&ckt, DcOptions::default()).expect("dc");
    let idx = |n: &str| {
        op.solution[ckt
            .unknown_index_of_node(ckt.node_by_name(n).expect("node"))
            .expect("idx")]
    };
    let (vb, vc, ve) = (idx("base"), idx("coll"), idx("emit"));
    // Textbook estimates: vb ≈ 5·10/37 ≈ 1.35 V, ve ≈ vb − 0.7 ≈ 0.65 V,
    // ic ≈ 0.65 mA, vc ≈ 5 − 0.65m·4.7k ≈ 1.9 V.
    assert!((vb - 1.3).abs() < 0.25, "base bias {vb}");
    assert!((vb - ve - 0.72).abs() < 0.12, "vbe drop {}", vb - ve);
    assert!((vc - 1.9).abs() < 0.8, "collector bias {vc}");
    assert!(vc > ve, "forward active");
}

#[test]
fn mosfet_inverter_transfer_curve() {
    // Sweep a resistor-loaded NMOS inverter through DC: output must fall
    // monotonically as the input rises.
    let mut prev = f64::INFINITY;
    for k in 0..8 {
        let vin = 0.3 + 0.2 * k as f64;
        let mut b = CircuitBuilder::new();
        let vdd = b.node("vdd");
        let g = b.node("g");
        let d = b.node("d");
        b.vsource("VDD", vdd, GROUND, Waveform::Dc(3.0))
            .expect("vdd");
        b.vsource("VIN", g, GROUND, Waveform::Dc(vin)).expect("vin");
        b.resistor("RD", vdd, d, 10e3).expect("rd");
        b.mosfet("M1", d, g, GROUND, MosfetParams::default())
            .expect("m");
        let ckt = b.build().expect("build");
        let op = dc_operating_point(&ckt, DcOptions::default()).expect("dc");
        let vd = op.solution[ckt
            .unknown_index_of_node(ckt.node_by_name("d").expect("d"))
            .expect("idx")];
        assert!(
            vd <= prev + 1e-9,
            "inverter must be monotone: {vd} after {prev}"
        );
        assert!(vd > -0.1 && vd < 3.1, "output within rails: {vd}");
        prev = vd;
    }
    assert!(prev < 0.5, "fully-on inverter output should be low: {prev}");
}
