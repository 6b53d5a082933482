//! End-to-end system tests on the paper's mixers: bit-stream recovery,
//! conversion gain plausibility, ISI metrics, and solver robustness.

use rfsim::circuits::{BalancedMixer, BalancedMixerParams, UnbalancedMixer, UnbalancedMixerParams};
use rfsim::mpde::solver::{solve_mpde, InitialGuess, MpdeOptions};
use rfsim::rf::bits::{decode_bpsk_envelope, Prbs};

use rfsim::rf::measure::{conversion_gain_db, hd_dbc};

/// Scaled balanced mixer for fast tests (10 MHz LO, disparity 500).
fn scaled(bits: Vec<bool>) -> BalancedMixer {
    BalancedMixer::build(BalancedMixerParams {
        f_lo: 10e6,
        fd: 20e3,
        rf_bits: bits,
        ..Default::default()
    })
    .expect("build")
}

fn diff_envelope(mixer: &BalancedMixer, sol: &rfsim::mpde::MpdeSolution) -> Vec<f64> {
    sol.solution
        .envelope(mixer.out_p)
        .iter()
        .zip(sol.solution.envelope(mixer.out_n))
        .map(|(p, n)| p - n)
        .collect()
}

#[test]
fn balanced_mixer_recovers_bit_stream() {
    let sent = vec![true, false, true, true];
    let mixer = scaled(sent.clone());
    let sol = solve_mpde(
        &mixer.circuit,
        mixer.params.t1_period(),
        mixer.params.t2_period(),
        MpdeOptions::default(),
    )
    .expect("solve");
    let env = diff_envelope(&mixer, &sol);
    let decoded = decode_bpsk_envelope(&env, sent.len());
    let inverted: Vec<bool> = decoded.iter().map(|b| !b).collect();
    assert!(
        decoded == sent || inverted == sent,
        "decoded {decoded:?}, sent {sent:?}"
    );
}

#[test]
fn balanced_mixer_recovers_prbs_bits() {
    // A longer pseudo-random pattern with a finer slow grid. Like a real
    // PRBS receiver, we frame-synchronise: the decode is accepted at the
    // best cyclic alignment (and either BPSK polarity) within one slot —
    // raised-cosine bit edges sitting exactly on slot boundaries leave a
    // one-slot alignment ambiguity in the demodulator.
    let sent = Prbs::new(7, 5).take_bits(8);
    let mixer = scaled(sent.clone());
    let sol = solve_mpde(
        &mixer.circuit,
        mixer.params.t1_period(),
        mixer.params.t2_period(),
        MpdeOptions {
            n1: 40,
            n2: 64,
            ..Default::default()
        },
    )
    .expect("solve");
    let env = diff_envelope(&mixer, &sol);
    let decoded = decode_bpsk_envelope(&env, sent.len());
    let nb = sent.len();
    let synced = [0usize, 1, nb - 1].iter().any(|&shift| {
        let direct = (0..nb).all(|k| decoded[(k + shift) % nb] == sent[k]);
        let inverted = (0..nb).all(|k| decoded[(k + shift) % nb] != sent[k]);
        direct || inverted
    });
    assert!(
        synced,
        "decoded {decoded:?} not within 1 slot of sent {sent:?}"
    );
}

#[test]
fn conversion_gain_in_plausible_band() {
    let mixer = scaled(vec![]);
    let sol = solve_mpde(
        &mixer.circuit,
        mixer.params.t1_period(),
        mixer.params.t2_period(),
        MpdeOptions::default(),
    )
    .expect("solve");
    let g = conversion_gain_db(
        &sol.solution,
        mixer.out_p,
        Some(mixer.out_n),
        mixer.params.rf_amplitude,
    );
    assert!(
        (0.0..20.0).contains(&g),
        "active CMOS mixer gain should be a few dB, got {g}"
    );
    // Balanced topology: even-order distortion deeply suppressed.
    let hd2 = hd_dbc(&sol.solution, mixer.out_p, Some(mixer.out_n), 2);
    let hd3 = hd_dbc(&sol.solution, mixer.out_p, Some(mixer.out_n), 3);
    assert!(hd2 < -60.0, "HD2 {hd2} dBc should be very low (balanced)");
    assert!(hd3 < -20.0, "HD3 {hd3} dBc");
}

#[test]
fn matched_filter_margins_stay_open_through_the_mixer() {
    // Per-bit matched-filter correlations (the decision statistic behind
    // the BPSK decoder) must separate cleanly from zero — the ISI question
    // the paper's conclusion raises, in decision-statistic form. A
    // trace-minimum eye would not do here: the envelope still carries the
    // 20 kHz residual carrier, whose nulls would close a naive eye.
    let sent = vec![true, false, true, false, true, true];
    let mixer = scaled(sent.clone());
    let sol = solve_mpde(
        &mixer.circuit,
        mixer.params.t1_period(),
        mixer.params.t2_period(),
        MpdeOptions {
            n1: 40,
            n2: 48,
            ..Default::default()
        },
    )
    .expect("solve");
    let env = diff_envelope(&mixer, &sol);
    let c1 = rfsim::numerics::fft::goertzel(&env, 1);
    let phi = c1.arg();
    let n = env.len();
    let nb = sent.len();
    let mut margins = Vec::new();
    for k in 0..nb {
        let (lo, hi) = (k * n / nb, (k + 1) * n / nb);
        let mut acc = 0.0;
        let mut weight = 0.0;
        for j in lo..hi {
            let u = j as f64 / n as f64;
            let carrier = (2.0 * std::f64::consts::PI * u + phi).cos();
            acc += env[j] * carrier;
            weight += carrier * carrier;
        }
        margins.push(acc / weight.max(1e-12));
    }
    let peak = margins.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    // Consistent polarity with the sent pattern (up to global inversion).
    let direct_ok = margins
        .iter()
        .zip(&sent)
        .all(|(m, &b)| (*m >= 0.0) == b && m.abs() > 0.1 * peak);
    let inverted_ok = margins
        .iter()
        .zip(&sent)
        .all(|(m, &b)| (*m < 0.0) == b && m.abs() > 0.1 * peak);
    assert!(
        direct_ok || inverted_ok,
        "matched-filter margins {margins:?} vs sent {sent:?}"
    );
}

#[test]
fn unbalanced_mixer_downconverts() {
    let mixer = UnbalancedMixer::build(UnbalancedMixerParams {
        f_lo: 10e6,
        fd: 20e3,
        ..Default::default()
    })
    .expect("build");
    let sol = solve_mpde(
        &mixer.circuit,
        1.0 / mixer.params.f_lo,
        1.0 / mixer.params.fd,
        MpdeOptions {
            n1: 40,
            n2: 20,
            ..Default::default()
        },
    )
    .expect("solve");
    let h1 = sol.solution.baseband_harmonic(mixer.out, 1).abs();
    assert!(
        h1 > 0.002,
        "single-device passive mixer should show a baseband tone, got {h1}"
    );
    // Unbalanced topology: no HD2 cancellation — distortion higher than
    // the balanced mixer's (structural contrast from the paper's §1).
    let hd2 = hd_dbc(&sol.solution, mixer.out, None, 2);
    assert!(
        hd2 > -60.0,
        "unbalanced HD2 {hd2} dBc should NOT be deeply suppressed"
    );
}

#[test]
fn warm_started_resweep_is_cheap() {
    let mixer = scaled(vec![]);
    let opts = MpdeOptions {
        n1: 24,
        n2: 12,
        ..Default::default()
    };
    let first = solve_mpde(
        &mixer.circuit,
        mixer.params.t1_period(),
        mixer.params.t2_period(),
        opts.clone(),
    )
    .expect("cold");
    let warm = solve_mpde(
        &mixer.circuit,
        mixer.params.t1_period(),
        mixer.params.t2_period(),
        MpdeOptions {
            initial_guess: InitialGuess::Samples(first.solution.data.clone()),
            ..opts
        },
    )
    .expect("warm");
    assert!(
        warm.stats.total_newton_iterations <= 2,
        "warm start: {} iterations",
        warm.stats.total_newton_iterations
    );
}
