//! The Newton grid policy that `MpdeOptions::default()` carries
//! (`LinearSolver::Auto`): below its size threshold it is direct LU bit
//! for bit, and above it a Newton solve driven through a system wrapper
//! that forwards only the three `NewtonSystem` methods — how an external
//! tracer rebuilds the plain rung — takes the same Krylov path as
//! `solve_mpde`.

use rfsim::circuit::dcop::{dc_operating_point, DcOptions};
use rfsim::circuit::newton::{
    newton_solve_budgeted, LinearSolver, LinearSolverWorkspace, NewtonSystem, WorkspaceStats,
};
use rfsim::circuit::Circuit;
use rfsim::circuits::{BalancedMixer, BalancedMixerParams};
use rfsim::mpde::fdtd::MpdeSystem;
use rfsim::mpde::solver::{solve_mpde, solve_mpde_budgeted, MpdeOptions};
use rfsim::mpde::MultitimeGrid;
use rfsim::numerics::sparse::Triplets;
use rfsim::numerics::SolveBudget;
use rfsim::serve::spec::PointParams;
use rfsim::serve::FamilyRegistry;

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn paper_mixer(rf_bits: Vec<bool>) -> BalancedMixer {
    BalancedMixer::build(BalancedMixerParams {
        rf_bits,
        ..Default::default()
    })
    .expect("mixer builds")
}

/// A 16×8 solve of `circuit` with the default options, `linear`
/// overriding the policy when given: the grid samples and the
/// workspace's counters.
fn solve_16x8(
    circuit: &Circuit,
    t1: f64,
    t2: f64,
    linear: Option<LinearSolver>,
) -> (Vec<f64>, WorkspaceStats) {
    let mut options = MpdeOptions {
        n1: 16,
        n2: 8,
        ..Default::default()
    };
    if let Some(linear) = linear {
        options.newton.linear = linear;
    }
    let mut ws = LinearSolverWorkspace::new();
    let sol = solve_mpde_budgeted(circuit, t1, t2, options, &mut ws, &SolveBudget::unlimited())
        .expect("16x8 solve");
    (sol.solution.data, ws.stats)
}

#[test]
fn small_grids_solve_exactly_as_direct_lu() {
    // The fig4 mixer at 16×8 (1 920 unknowns) and the serve
    // `diode_clipper` family at 16×8 (the size of every grid serve
    // solves): both far below the Krylov threshold.
    let mixer = paper_mixer(vec![true, false, true, true]);
    let clipper = FamilyRegistry::builtin()
        .build(
            "diode_clipper",
            &PointParams {
                amplitude: 0.8,
                f1: 1e6,
                spacing: 10e3,
                two_tone: true,
            },
        )
        .expect("diode_clipper builds");
    let cases = [
        (
            "fig4 mixer",
            &mixer.circuit,
            mixer.params.t1_period(),
            mixer.params.t2_period(),
        ),
        ("diode_clipper", &clipper, 1e-6, 1e-4),
    ];
    for (name, circuit, t1, t2) in cases {
        let (auto, auto_stats) = solve_16x8(circuit, t1, t2, None);
        let (direct, direct_stats) = solve_16x8(circuit, t1, t2, Some(LinearSolver::Direct));
        assert_eq!(bits(&auto), bits(&direct), "{name}: samples");
        assert_eq!(auto_stats, direct_stats, "{name}: counters");
        assert_eq!(auto_stats.iterative_solves, 0, "{name}: {auto_stats:?}");
        assert!(
            auto_stats.cached_solves > 0,
            "{name}: chord solves kept: {auto_stats:?}"
        );
    }
}

/// Forwards only `dim`, `residual` and `residual_and_jacobian`, the way
/// a tracing wrapper around the MPDE system does.
struct Forwarding<'a, S>(&'a S);

impl<S: NewtonSystem> NewtonSystem for Forwarding<'_, S> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        self.0.residual(x, out);
    }

    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        self.0.residual_and_jacobian(x, out, jac);
    }
}

#[test]
fn forwarded_plain_rung_matches_solve_mpde_at_40x30() {
    let m = paper_mixer(vec![true, false, true, true]);
    let (t1, t2) = (m.params.t1_period(), m.params.t2_period());
    let options = MpdeOptions::default();
    let reference = solve_mpde(&m.circuit, t1, t2, options.clone()).expect("solve_mpde");

    // The plain rung from public parts: DC seed replicated over the grid,
    // then one Newton solve with the default profile on a fresh workspace.
    let dc = dc_operating_point(&m.circuit, DcOptions::default()).expect("dc");
    let grid = MultitimeGrid::new(options.n1, options.n2, t1, t2);
    let system =
        MpdeSystem::new(&m.circuit, grid, options.scheme1, options.scheme2).expect("system");
    let x0: Vec<f64> = (0..grid.num_points())
        .flat_map(|_| dc.solution.iter().copied())
        .collect();
    let mut ws = LinearSolverWorkspace::new();
    let (data, stats) = newton_solve_budgeted(
        &Forwarding(&system),
        &x0,
        system.kinds(),
        options.newton,
        &mut ws,
        &SolveBudget::unlimited(),
    )
    .expect("forwarded newton");

    assert!(ws.stats.iterative_solves > 0, "{:?}", ws.stats);
    assert_eq!(ws.stats.full_factorizations, 0, "{:?}", ws.stats);
    assert_eq!(stats.iterations, reference.stats.newton_iterations);
    assert_eq!(bits(&data), bits(&reference.solution.data));
}
