//! Figure 4: the baseband differential output — the envelope along the
//! difference-frequency time scale, i.e. the actual down-converted
//! bit stream of the balanced mixer. Exits with a failure code when the
//! decoded bits do not match the sent pattern (up to BPSK polarity).

use std::process::ExitCode;

use rfsim_bench::output::write_csv;
use rfsim_bench::paper::solve_paper_mixer;
use rfsim_rf::bits::decode_bpsk_envelope;

fn main() -> ExitCode {
    let sent = vec![true, false, true, true];
    let (mixer, sol, _) = solve_paper_mixer(sent.clone());
    let env: Vec<f64> = sol
        .solution
        .envelope(mixer.out_p)
        .iter()
        .zip(sol.solution.envelope(mixer.out_n))
        .map(|(p, n)| p - n)
        .collect();
    let td = sol.grid.t2_period();
    let n2 = env.len();
    let rows = (0..n2).map(|j| vec![td * j as f64 / n2 as f64, env[j]]);
    let path = write_csv("fig4_baseband.csv", "t2,v_baseband", rows).expect("write CSV");

    println!("Figure 4: baseband differential output over one difference period");
    println!(
        "(Td = {:.3} ms; the transmitted bits modulate the 15 kHz tone)\n",
        td * 1e3
    );
    for (j, v) in env.iter().enumerate() {
        let bar = (((v + 0.16) / 0.32 * 56.0).clamp(0.0, 56.0)) as usize;
        println!(
            "{:7.2} µs {:+8.4} V |{}",
            td * 1e6 * j as f64 / n2 as f64,
            v,
            "█".repeat(bar)
        );
    }
    let decoded = decode_bpsk_envelope(&env, sent.len());
    let inverted: Vec<bool> = decoded.iter().map(|b| !b).collect();
    let (verdict, code) = if decoded == sent || inverted == sent {
        ("yes (up to BPSK polarity)", ExitCode::SUCCESS)
    } else {
        ("NO", ExitCode::FAILURE)
    };
    println!("\nsent    : {sent:?}");
    println!("decoded : {decoded:?}");
    println!("recovered: {verdict}");
    println!("CSV: {}", path.display());
    code
}
