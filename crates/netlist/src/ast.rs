//! The `.rfn` abstract syntax tree.
//!
//! The AST stores *resolved* values: every optional parameter a statement
//! may omit is filled with its documented default during parsing, so two
//! netlists are equal iff they describe the same simulation — and the
//! canonical formatter can print every parameter explicitly without
//! changing meaning. `parse(canonical(x)) == x` follows directly.

use crate::parse::NetlistError;
use crate::{fnv1a_bytes, FNV_OFFSET};

/// A parsed `.rfn` netlist: declarations, devices, and the one analysis
/// directive that says what to do with them.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    /// Free-text title (`.title`), if any.
    pub title: Option<String>,
    /// Nodes pre-declared with `.node`, in declaration order. Declaring
    /// nodes is optional — device statements create nodes on first use —
    /// but pins the MNA unknown ordering explicitly.
    pub nodes: Vec<String>,
    /// Device statements in source order.
    pub devices: Vec<Device>,
    /// Operating-point grid for steady-state analyses (`.sweep`).
    pub sweep: Option<Sweep>,
    /// The requested analysis (`.analysis`, exactly one).
    pub analysis: Analysis,
}

/// One named device statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Unique device name.
    pub name: String,
    /// The device body.
    pub kind: DeviceKind,
}

/// Device statement bodies. Node fields hold node *names*; `"0"` and
/// `"gnd"` both denote ground.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceKind {
    /// `R name a b ohms`
    Resistor {
        /// First terminal.
        a: String,
        /// Second terminal.
        b: String,
        /// Resistance in ohms.
        ohms: f64,
    },
    /// `C name a b farads`
    Capacitor {
        /// First terminal.
        a: String,
        /// Second terminal.
        b: String,
        /// Capacitance in farads.
        farads: f64,
    },
    /// `L name a b henries`
    Inductor {
        /// First terminal.
        a: String,
        /// Second terminal.
        b: String,
        /// Inductance in henries.
        henries: f64,
    },
    /// `D name anode cathode [is=] [n=] [cj0=] [tt=]`
    Diode {
        /// Anode terminal.
        anode: String,
        /// Cathode terminal.
        cathode: String,
        /// Saturation current `Is` (amperes).
        is: f64,
        /// Emission coefficient `n`.
        n: f64,
        /// Zero-bias junction capacitance (farads).
        cj0: f64,
        /// Transit time (seconds).
        tt: f64,
    },
    /// `V name p n <source>` — independent voltage source.
    VSource {
        /// Positive terminal.
        p: String,
        /// Negative terminal.
        n: String,
        /// Time behaviour.
        source: Source,
    },
    /// `I name p n <source>` — independent current source.
    ISource {
        /// Positive terminal.
        p: String,
        /// Negative terminal.
        n: String,
        /// Time behaviour.
        source: Source,
    },
    /// `MUL name p n xp xn yp yn gain` — the analog multiplier the mixer
    /// fixtures model: current `gain·v(x)·v(y)` from `p` to `n`.
    Multiplier {
        /// Output positive terminal.
        p: String,
        /// Output negative terminal.
        n: String,
        /// First input, positive.
        xp: String,
        /// First input, negative.
        xn: String,
        /// Second input, positive.
        yp: String,
        /// Second input, negative.
        yn: String,
        /// Transconductance gain (A/V²).
        gain: f64,
    },
    /// `VCCS name p n cp cn gm` — voltage-controlled current source.
    Vccs {
        /// Output positive terminal.
        p: String,
        /// Output negative terminal.
        n: String,
        /// Controlling positive terminal.
        cp: String,
        /// Controlling negative terminal.
        cn: String,
        /// Transconductance (siemens).
        gm: f64,
    },
    /// `VCVS name p n cp cn gain` — voltage-controlled voltage source.
    Vcvs {
        /// Output positive terminal.
        p: String,
        /// Output negative terminal.
        n: String,
        /// Controlling positive terminal.
        cp: String,
        /// Controlling negative terminal.
        cn: String,
        /// Voltage gain.
        gain: f64,
    },
}

impl DeviceKind {
    /// The statement keyword this body prints under.
    #[must_use]
    pub fn keyword(&self) -> &'static str {
        match self {
            DeviceKind::Resistor { .. } => "R",
            DeviceKind::Capacitor { .. } => "C",
            DeviceKind::Inductor { .. } => "L",
            DeviceKind::Diode { .. } => "D",
            DeviceKind::VSource { .. } => "V",
            DeviceKind::ISource { .. } => "I",
            DeviceKind::Multiplier { .. } => "MUL",
            DeviceKind::Vccs { .. } => "VCCS",
            DeviceKind::Vcvs { .. } => "VCVS",
        }
    }

    /// Node names this device touches, in statement order.
    #[must_use]
    pub fn terminals(&self) -> Vec<&str> {
        match self {
            DeviceKind::Resistor { a, b, .. }
            | DeviceKind::Capacitor { a, b, .. }
            | DeviceKind::Inductor { a, b, .. } => vec![a, b],
            DeviceKind::Diode { anode, cathode, .. } => vec![anode, cathode],
            DeviceKind::VSource { p, n, .. } | DeviceKind::ISource { p, n, .. } => vec![p, n],
            DeviceKind::Multiplier {
                p,
                n,
                xp,
                xn,
                yp,
                yn,
                ..
            } => vec![p, n, xp, xn, yp, yn],
            DeviceKind::Vccs { p, n, cp, cn, .. } | DeviceKind::Vcvs { p, n, cp, cn, .. } => {
                vec![p, n, cp, cn]
            }
        }
    }

    /// The independent source's time behaviour, if this is a V/I source.
    #[must_use]
    pub fn source(&self) -> Option<&Source> {
        match self {
            DeviceKind::VSource { source, .. } | DeviceKind::ISource { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The time behaviour of an independent source.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// `dc v` — constant.
    Dc(f64),
    /// `sine amp= freq= [phase=0] [offset=0]` — single-time sinusoid
    /// `offset + amp·sin(2π·freq·t + phase)`.
    Sine {
        /// Amplitude (volts or amperes).
        amplitude: f64,
        /// Frequency (Hz).
        freq: f64,
        /// Phase (radians).
        phase: f64,
        /// DC offset.
        offset: f64,
    },
    /// `pulse v1= v2= period= [delay=0] [rise=p/100] [fall=p/100]
    /// [width=p/2]` — periodic trapezoidal pulse.
    Pulse {
        /// Base level.
        v1: f64,
        /// Pulsed level.
        v2: f64,
        /// Delay before the first edge (seconds).
        delay: f64,
        /// Rise time (seconds).
        rise: f64,
        /// Fall time (seconds).
        fall: f64,
        /// High width (seconds).
        width: f64,
        /// Repetition period (seconds).
        period: f64,
    },
    /// `pwl t:v t:v ...` — piecewise-linear breakpoints with
    /// non-decreasing times.
    Pwl(Vec<(f64, f64)>),
    /// `tone amp= f1= fd= [k=1] [phase=0] [bits=] [edge=0.05]` — the
    /// paper's sheared modulated carrier
    /// `amp·cos(2π(k·f1·t1 − fd·t2) + phase)·m(fd·t2)`, the bivariate
    /// source MPDE/HB2 analyses require. `bits` (a 0/1 string) selects a
    /// raised-cosine bit envelope; empty means the unit envelope.
    Tone {
        /// Carrier amplitude.
        amplitude: f64,
        /// Harmonic multiple of the fast tone.
        k: u32,
        /// Fast (LO) frequency `f1` (Hz).
        f1: f64,
        /// Difference frequency `fd` (Hz).
        fd: f64,
        /// Carrier phase (radians).
        phase: f64,
        /// Bit-envelope pattern (empty = unit envelope).
        bits: Vec<bool>,
        /// Raised-cosine edge fraction of one bit (0 when `bits` empty).
        edge: f64,
    },
    /// `lo amp= freq=` — a fast-axis-only cosine `amp·cos(2π·freq·t1)`,
    /// the LO drive of the mixer fixtures.
    Lo {
        /// Amplitude.
        amplitude: f64,
        /// Frequency (Hz).
        freq: f64,
    },
    /// `drive` — the operating-point placeholder. Exactly one `drive`
    /// source makes a steady-state netlist a sweepable *family*: each
    /// sweep point substitutes the serve tier's standard drive (a sheared
    /// carrier for two-tone backends, a sinusoid for periodic
    /// collocation) at that point's amplitude.
    Drive,
}

impl Source {
    /// The source keyword this body prints under.
    #[must_use]
    pub fn keyword(&self) -> &'static str {
        match self {
            Source::Dc(_) => "dc",
            Source::Sine { .. } => "sine",
            Source::Pulse { .. } => "pulse",
            Source::Pwl(_) => "pwl",
            Source::Tone { .. } => "tone",
            Source::Lo { .. } => "lo",
            Source::Drive => "drive",
        }
    }

    /// Whether MPDE/HB2 analyses can evaluate this source on the
    /// bivariate grid (constant, bivariate, or substituted per point).
    #[must_use]
    pub fn is_bivariate_capable(&self) -> bool {
        matches!(
            self,
            Source::Dc(_) | Source::Tone { .. } | Source::Lo { .. } | Source::Drive
        )
    }
}

/// The requested analysis. All parameters are stored resolved (defaults
/// applied at parse time).
#[derive(Debug, Clone, PartialEq)]
pub enum Analysis {
    /// `.analysis dcop` — DC operating point.
    Dcop,
    /// `.analysis transient tstop= [dt=tstop/200] [out=]` — adaptive
    /// implicit time stepping from the DC operating point.
    Transient {
        /// End time (seconds).
        t_stop: f64,
        /// Initial step size (seconds).
        dt: f64,
        /// Output node (defaults to a node named `out` when present).
        out: Option<String>,
    },
    /// `.analysis mpde f1= [n1=16] [n2=8] [out=]` — the paper's sheared
    /// multi-time PDE method over the `.sweep` grid.
    Mpde {
        /// Fast-axis carrier frequency (Hz).
        f1: f64,
        /// Fast-axis grid points.
        n1: usize,
        /// Slow-axis grid points.
        n2: usize,
        /// Output node.
        out: Option<String>,
    },
    /// `.analysis hb2 f1= [n1=16] [n2=8] [out=]` — two-tone harmonic
    /// balance over the `.sweep` grid.
    Hb2 {
        /// Fast-axis carrier frequency (Hz).
        f1: f64,
        /// Fast-axis grid points.
        n1: usize,
        /// Slow-axis grid points.
        n2: usize,
        /// Output node.
        out: Option<String>,
    },
    /// `.analysis periodic_fd f1= [n1=64] [out=]` — single-tone periodic
    /// collocation over the `.sweep` amplitudes.
    PeriodicFd {
        /// Tone frequency (Hz).
        f1: f64,
        /// Samples over one period.
        n1: usize,
        /// Output node.
        out: Option<String>,
    },
}

impl Analysis {
    /// The analysis keyword (`dcop`, `transient`, `mpde`, `hb2`,
    /// `periodic_fd`).
    #[must_use]
    pub fn keyword(&self) -> &'static str {
        match self {
            Analysis::Dcop => "dcop",
            Analysis::Transient { .. } => "transient",
            Analysis::Mpde { .. } => "mpde",
            Analysis::Hb2 { .. } => "hb2",
            Analysis::PeriodicFd { .. } => "periodic_fd",
        }
    }

    /// Whether this is a steady-state analysis (drive + sweep semantics).
    #[must_use]
    pub fn is_steady_state(&self) -> bool {
        matches!(
            self,
            Analysis::Mpde { .. } | Analysis::Hb2 { .. } | Analysis::PeriodicFd { .. }
        )
    }

    /// Whether this analysis needs a two-tone (bivariate) drive.
    #[must_use]
    pub fn is_two_tone(&self) -> bool {
        matches!(self, Analysis::Mpde { .. } | Analysis::Hb2 { .. })
    }

    /// The requested output node, if any.
    #[must_use]
    pub fn out(&self) -> Option<&str> {
        match self {
            Analysis::Dcop => None,
            Analysis::Transient { out, .. }
            | Analysis::Mpde { out, .. }
            | Analysis::Hb2 { out, .. }
            | Analysis::PeriodicFd { out, .. } => out.as_deref(),
        }
    }
}

/// The steady-state operating-point grid: amplitudes × tone spacings.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Drive amplitudes traced (warm-start chained within a row).
    pub amplitudes: Vec<f64>,
    /// Tone spacings `fd` (Hz), one row each; empty for single-tone
    /// analyses.
    pub spacings: Vec<f64>,
}

impl Netlist {
    /// Parses `.rfn` text. See [`crate::parse`].
    ///
    /// # Errors
    ///
    /// A [`NetlistError`] naming the offending line and rule.
    pub fn parse(text: &str) -> Result<Netlist, NetlistError> {
        crate::parse::parse(text)
    }

    /// The canonical text form. See [`crate::fmt`].
    #[must_use]
    pub fn canonical(&self) -> String {
        crate::fmt::canonical(self)
    }

    /// FNV-1a 64-bit hash of the canonical text — the identity the serve
    /// tier keys dynamic netlist families on.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        fnv1a_bytes(FNV_OFFSET, self.canonical().as_bytes())
    }

    /// The dynamic serve-family name of this netlist:
    /// `netlist:<16-hex content hash>`.
    #[must_use]
    pub fn family_name(&self) -> String {
        format!("netlist:{:016x}", self.content_hash())
    }

    /// Every distinct non-ground node name, in first-appearance order
    /// (declared nodes first, then device terminals).
    #[must_use]
    pub fn node_names(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let declared = self.nodes.iter().map(String::as_str);
        let used = self.devices.iter().flat_map(|d| d.kind.terminals());
        for name in declared.chain(used) {
            if name == "0" || name == "gnd" {
                continue;
            }
            if seen.insert(name.to_string()) {
                out.push(name.to_string());
            }
        }
        out
    }

    /// The node whose waveform the CLI reports: the analysis' `out=`
    /// parameter, else a node literally named `out`, else the first
    /// non-ground node.
    #[must_use]
    pub fn out_node(&self) -> Option<String> {
        if let Some(name) = self.analysis.out() {
            return Some(name.to_string());
        }
        let nodes = self.node_names();
        if nodes.iter().any(|n| n == "out") {
            return Some("out".to_string());
        }
        nodes.first().cloned()
    }
}
