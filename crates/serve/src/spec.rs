//! Job specifications, the hosted circuit-family registry, and result
//! payloads — everything a request names and a response carries.
//!
//! A wire protocol cannot ship closures, so the daemon hosts a
//! [`FamilyRegistry`] of named parametric circuit builders and a
//! [`JobSpec`] names one of them plus the amplitude × tone-spacing grid to
//! trace over it. Specs are *canonicalised* before keying (parameters a
//! backend ignores are dropped), then folded with the family's
//! registration epoch into a quantised [`JobKey`] — the solution store's
//! identity for "the same request".

use std::collections::BTreeMap;
use std::sync::Arc;

use rfsim_circuit::{BiWaveform, Circuit, CircuitBuilder, DiodeParams, Envelope, Waveform, GROUND};
use rfsim_numerics::json::Json;
use rfsim_rf::key::{JobKey, JobKeyBuilder, Quantizer};

use crate::error::{Result, ServeError};

/// Which steady-state backend solves the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The paper's sheared-MPDE method on an `n1 × n2` grid.
    Mpde,
    /// Two-tone harmonic balance on an `n1 × n2` harmonic grid.
    Hb2,
    /// Single-tone periodic collocation with `n1` samples.
    PeriodicFd,
}

impl BackendKind {
    /// Canonical wire label.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Mpde => "mpde",
            BackendKind::Hb2 => "hb2",
            BackendKind::PeriodicFd => "periodic_fd",
        }
    }

    /// Parses a wire label.
    pub fn parse(label: &str) -> Option<BackendKind> {
        match label {
            "mpde" => Some(BackendKind::Mpde),
            "hb2" => Some(BackendKind::Hb2),
            "periodic_fd" => Some(BackendKind::PeriodicFd),
            _ => None,
        }
    }

    /// All backends, in scheduling-queue order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Mpde, BackendKind::Hb2, BackendKind::PeriodicFd];

    /// Dense index into per-queue counter arrays.
    pub fn index(self) -> usize {
        match self {
            BackendKind::Mpde => 0,
            BackendKind::Hb2 => 1,
            BackendKind::PeriodicFd => 2,
        }
    }
}

/// Scheduling priority; higher admits first within the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background regression sweeps.
    Low,
    /// Interactive dashboard traffic.
    #[default]
    Normal,
    /// Latency-sensitive requests; jumps the queue.
    High,
}

impl Priority {
    /// Canonical wire label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parses a wire label.
    pub fn parse(label: &str) -> Option<Priority> {
        match label {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

/// One memoisable request: a hosted family, a backend, and the
/// amplitude × tone-spacing grid to trace.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Name of the hosted circuit family ([`FamilyRegistry`]).
    pub family: String,
    /// Steady-state backend.
    pub backend: BackendKind,
    /// Carrier frequency (Hz). The fast-axis period is `1/f1`.
    pub f1: f64,
    /// Amplitudes traced (warm-start chained within a row).
    pub amplitudes: Vec<f64>,
    /// Tone spacings `fd` (Hz), one row each. Ignored (and dropped at
    /// canonicalisation) by [`BackendKind::PeriodicFd`].
    pub spacings: Vec<f64>,
    /// Fast-axis grid points (sample count for periodic collocation).
    pub n1: usize,
    /// Slow-axis grid points. Ignored by [`BackendKind::PeriodicFd`].
    pub n2: usize,
    /// Scheduling priority.
    pub priority: Priority,
    /// Per-job wall-clock deadline (milliseconds), measured from
    /// dispatch. `None` falls back to the service's
    /// `ServeConfig::default_deadline_ms`. Deadlines are *scheduling*
    /// policy, not solution identity: they are excluded from the job's
    /// store key, so a deadline-carrying replay of a stored request is
    /// still a memo hit.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A default-shaped MPDE grid spec.
    pub fn mpde(
        family: impl Into<String>,
        f1: f64,
        amplitudes: Vec<f64>,
        spacings: Vec<f64>,
    ) -> Self {
        JobSpec {
            family: family.into(),
            backend: BackendKind::Mpde,
            f1,
            amplitudes,
            spacings,
            n1: 16,
            n2: 8,
            priority: Priority::Normal,
            deadline_ms: None,
        }
    }

    /// Largest accepted grid axis. The bound is a *service* guard, not a
    /// solver limit: the spec arrives from untrusted wire input, and an
    /// absurd `n1` (`1e18` saturating through `as usize`) must be
    /// rejected at validation instead of panicking the engine pool on a
    /// capacity-overflow allocation.
    pub const MAX_AXIS_POINTS: usize = 4096;
    /// Largest accepted `n1 × n2` grid.
    pub const MAX_GRID_POINTS: usize = 262_144;
    /// Largest accepted amplitude or spacing list.
    pub const MAX_SWEEP_VALUES: usize = 4096;

    /// Checks the spec is solvable and returns its canonical form: the
    /// form all keying and execution uses, with parameters the chosen
    /// backend ignores dropped (so textually different spellings of the
    /// same physical request memoise together).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSpec`] with the first violated rule.
    pub fn canonicalize(&self) -> Result<JobSpec> {
        let invalid = |why: &str| Err(ServeError::InvalidSpec(why.to_string()));
        if self.family.is_empty() {
            return invalid("family name is empty");
        }
        if !(self.f1 > 0.0 && self.f1.is_finite()) {
            return invalid("carrier f1 must be positive and finite");
        }
        if self.amplitudes.is_empty() {
            return invalid("amplitudes are empty");
        }
        if self.amplitudes.len() > Self::MAX_SWEEP_VALUES
            || self.spacings.len() > Self::MAX_SWEEP_VALUES
        {
            return invalid("too many amplitudes/spacings (max 4096 each)");
        }
        if self.amplitudes.iter().any(|a| !a.is_finite()) {
            return invalid("amplitudes must be finite");
        }
        if self.n1 < 2 {
            return invalid("n1 must be at least 2");
        }
        if self.n1 > Self::MAX_AXIS_POINTS
            || self.n2 > Self::MAX_AXIS_POINTS
            || self.n1.saturating_mul(self.n2.max(1)) > Self::MAX_GRID_POINTS
        {
            return invalid("grid too large (axes max 4096, n1*n2 max 262144)");
        }
        let mut canonical = self.clone();
        match self.backend {
            BackendKind::PeriodicFd => {
                // Single-tone: spacing rows and the slow axis don't exist.
                canonical.spacings = Vec::new();
                canonical.n2 = 0;
            }
            BackendKind::Mpde | BackendKind::Hb2 => {
                if self.spacings.is_empty() {
                    return invalid("two-tone backends need at least one tone spacing");
                }
                if self
                    .spacings
                    .iter()
                    .any(|fd| !(fd.is_finite() && *fd > 0.0))
                {
                    return invalid("tone spacings must be positive and finite");
                }
                if self.n2 < 2 {
                    return invalid("n2 must be at least 2 for two-tone backends");
                }
            }
        }
        Ok(canonical)
    }

    /// The solution-store identity of this (canonical) spec: the family
    /// name and its registration `epoch` ([`FamilyRegistry::epoch`])
    /// folded with the backend and the quantised job parameters. The
    /// epoch stands for the builder: re-registering or retiring a family
    /// gives it a fresh epoch, so keys minted against the old builder can
    /// never meet a new submit. Deadlines and priority are scheduling
    /// policy and stay out of the key.
    pub fn key(&self, epoch: u64, quantizer: Quantizer) -> JobKey {
        JobKeyBuilder::new(quantizer)
            .push_str(&self.family)
            .push_u64(epoch)
            .push_str(self.backend.label())
            .push_u64(self.n1 as u64)
            .push_u64(self.n2 as u64)
            .push_f64(self.f1)
            .push_f64s(&self.amplitudes)
            .push_f64s(&self.spacings)
            .finish()
    }

    /// The shard-routing identity of this (canonical) spec: the family
    /// and the quantised first point (first amplitude, `f1`, first
    /// spacing, one- or two-tone). Coarser than [`JobSpec::key`] on
    /// purpose — specs that differ only past their first point route to
    /// the same shard — and computable with no lock taken.
    pub fn route_slot(&self, quantizer: Quantizer) -> JobKey {
        JobKeyBuilder::new(quantizer)
            .push_str(&self.family)
            .push_f64(self.amplitudes[0])
            .push_f64(self.f1)
            .push_f64(self.spacings.first().copied().unwrap_or(0.0))
            .push_u64(u64::from(self.backend != BackendKind::PeriodicFd))
            .finish()
    }

    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("family", Json::string(&*self.family)),
            ("backend", Json::string(self.backend.label())),
            ("f1", Json::number(self.f1)),
            (
                "amplitudes",
                Json::array(self.amplitudes.iter().map(|&a| Json::number(a))),
            ),
            (
                "spacings",
                Json::array(self.spacings.iter().map(|&s| Json::number(s))),
            ),
            ("n1", Json::from(self.n1)),
            ("n2", Json::from(self.n2)),
            ("priority", Json::string(self.priority.label())),
        ];
        if let Some(ms) = self.deadline_ms {
            members.push(("deadline_ms", Json::from(ms as usize)));
        }
        Json::object(members)
    }

    /// Wire decoding.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] naming the first missing/mistyped field.
    pub fn from_json(json: &Json) -> Result<JobSpec> {
        let field = |name: &str| {
            json.path(name)
                .ok_or_else(|| ServeError::Protocol(format!("job spec missing '{name}'")))
        };
        let number = |name: &str| {
            json.number_at(name).ok_or_else(|| {
                ServeError::Protocol(format!("job spec field '{name}' must be a number"))
            })
        };
        let numbers = |name: &str| -> Result<Vec<f64>> {
            match field(name)? {
                Json::Array(items) => items
                    .iter()
                    .map(|v| match v {
                        Json::Number(x) => Ok(*x),
                        _ => Err(ServeError::Protocol(format!(
                            "job spec field '{name}' must be an array of numbers"
                        ))),
                    })
                    .collect(),
                _ => Err(ServeError::Protocol(format!(
                    "job spec field '{name}' must be an array"
                ))),
            }
        };
        let backend_label = json
            .string_at("backend")
            .ok_or_else(|| ServeError::Protocol("job spec missing 'backend'".into()))?;
        let backend = BackendKind::parse(backend_label).ok_or_else(|| {
            ServeError::Protocol(format!(
                "unknown backend '{backend_label}' (mpde|hb2|periodic_fd)"
            ))
        })?;
        let priority = match json.string_at("priority") {
            None => Priority::Normal,
            Some(label) => Priority::parse(label).ok_or_else(|| {
                ServeError::Protocol(format!("unknown priority '{label}' (low|normal|high)"))
            })?,
        };
        Ok(JobSpec {
            family: json
                .string_at("family")
                .ok_or_else(|| ServeError::Protocol("job spec missing 'family'".into()))?
                .to_string(),
            backend,
            f1: number("f1")?,
            amplitudes: numbers("amplitudes")?,
            spacings: if json.path("spacings").is_some() {
                numbers("spacings")?
            } else {
                Vec::new()
            },
            n1: number("n1")? as usize,
            n2: json.number_at("n2").unwrap_or(0.0) as usize,
            priority,
            deadline_ms: json.number_at("deadline_ms").map(|ms| ms.max(0.0) as u64),
        })
    }
}

/// The operating point one circuit build receives.
#[derive(Debug, Clone, Copy)]
pub struct PointParams {
    /// Drive amplitude (volts).
    pub amplitude: f64,
    /// Carrier frequency (Hz).
    pub f1: f64,
    /// Tone spacing (Hz); 0 for single-tone backends.
    pub spacing: f64,
    /// Whether the backend needs a bivariate (two-tone) source.
    pub two_tone: bool,
}

impl PointParams {
    /// The drive source for this point: a sheared two-tone carrier for
    /// MPDE/HB jobs, a plain sinusoid for periodic collocation.
    pub fn source(&self) -> rfsim_circuit::SourceSpec {
        if self.two_tone {
            BiWaveform::ShearedCarrier {
                amplitude: self.amplitude,
                k: 1,
                f1: self.f1,
                fd: self.spacing,
                phase: 0.0,
                envelope: Envelope::Unit,
            }
            .into()
        } else {
            Waveform::sine(self.amplitude, self.f1).into()
        }
    }
}

/// A hosted circuit family: a named builder from operating point to
/// circuit.
pub type FamilyFn = dyn Fn(&PointParams) -> rfsim_circuit::Result<Circuit> + Send + Sync;

/// The daemon's catalogue of named circuit families.
///
/// Builders are stored behind [`Arc`]s so a job captures *the builder it
/// was keyed against* at submit time. Each hosted family also carries a
/// registration *epoch* from one registry-wide counter: every
/// [`FamilyRegistry::register`] and [`FamilyRegistry::retire`] draws a
/// fresh one, and none is ever reused. Store keys fold the epoch
/// ([`JobSpec::key`]), so re-registering a name (new topology, new
/// element values) re-keys future submissions away from every result the
/// old builder produced, without corrupting in-flight work.
pub struct FamilyRegistry {
    families: BTreeMap<String, (u64, Arc<FamilyFn>)>,
    next_epoch: u64,
}

impl std::fmt::Debug for FamilyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FamilyRegistry")
            .field("families", &self.names())
            .finish()
    }
}

impl Default for FamilyRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl FamilyRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        FamilyRegistry {
            families: BTreeMap::new(),
            next_epoch: 0,
        }
    }

    /// The built-in catalogue: the linear and nonlinear single-stage
    /// families the paper's sweep workloads exercise.
    ///
    /// * `rc_lowpass` — 1 kΩ / 160 pF output stage (linear).
    /// * `rc_stiff` — 10 kΩ / 1 nF stage (linear, slower corner).
    /// * `diode_clipper` — 1 kΩ source resistance into a diode + 1 nF
    ///   tank (nonlinear; compression and harmonic generation).
    pub fn builtin() -> Self {
        let mut registry = FamilyRegistry::empty();
        registry.register("rc_lowpass", |p: &PointParams| {
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource("VRF", inp, GROUND, p.source())?;
            b.resistor("R1", inp, out, 1e3)?;
            b.capacitor("C1", out, GROUND, 160e-12)?;
            b.build()
        });
        registry.register("rc_stiff", |p: &PointParams| {
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource("VRF", inp, GROUND, p.source())?;
            b.resistor("R1", inp, out, 10e3)?;
            b.capacitor("C1", out, GROUND, 1e-9)?;
            b.build()
        });
        registry.register("diode_clipper", |p: &PointParams| {
            let mut b = CircuitBuilder::new();
            let inp = b.node("in");
            let out = b.node("out");
            b.vsource("VRF", inp, GROUND, p.source())?;
            b.resistor("R1", inp, out, 1e3)?;
            b.diode("D1", out, GROUND, DiodeParams::default())?;
            b.capacitor("C1", out, GROUND, 1e-9)?;
            b.build()
        });
        registry
    }

    /// Registers (or replaces) a family under a fresh epoch.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        build: impl Fn(&PointParams) -> rfsim_circuit::Result<Circuit> + Send + Sync + 'static,
    ) {
        self.next_epoch += 1;
        self.families
            .insert(name.into(), (self.next_epoch, Arc::new(build)));
    }

    /// Gives a hosted family a fresh epoch, keeping its builder: every
    /// store key minted under the old epoch is dead from here on.
    /// Returns whether `name` was hosted.
    pub fn retire(&mut self, name: &str) -> bool {
        match self.families.get_mut(name) {
            Some((epoch, _)) => {
                self.next_epoch += 1;
                *epoch = self.next_epoch;
                true
            }
            None => false,
        }
    }

    /// The current registration epoch of `name`.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownFamily`].
    pub fn epoch(&self, name: &str) -> Result<u64> {
        self.families
            .get(name)
            .map(|(epoch, _)| *epoch)
            .ok_or_else(|| ServeError::UnknownFamily(name.to_string()))
    }

    /// The builder for `name`, cloned out so callers can hold it without
    /// the registry lock.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownFamily`].
    pub fn builder(&self, name: &str) -> Result<Arc<FamilyFn>> {
        self.families
            .get(name)
            .map(|(_, build)| Arc::clone(build))
            .ok_or_else(|| ServeError::UnknownFamily(name.to_string()))
    }

    /// Builds `name`'s circuit at one operating point.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownFamily`] or the builder's circuit error.
    pub fn build(&self, name: &str, point: &PointParams) -> Result<Circuit> {
        Ok(self.builder(name)?(point)?)
    }

    /// Unregisters a family, returning whether it was hosted. In-flight
    /// jobs keep the [`Arc`]'d builder they captured at submit time; a
    /// later registration under the same name draws a fresh epoch.
    pub fn remove(&mut self, name: &str) -> bool {
        self.families.remove(name).is_some()
    }

    /// Registered family names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.families.keys().cloned().collect()
    }
}

/// One solved grid point of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSolution {
    /// The amplitude coordinate.
    pub amplitude: f64,
    /// The tone-spacing coordinate (0 for single-tone backends).
    pub spacing: f64,
    /// The flattened steady-state samples.
    pub samples: Vec<f64>,
}

/// A completed job: its points in row-major (spacing-outer,
/// amplitude-inner) order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Solved grid points.
    pub points: Vec<PointSolution>,
}

impl JobResult {
    /// FNV-1a over every sample's bit pattern (and the coordinates') — the
    /// cheap bit-identity witness the client and the replay tests compare.
    pub fn digest(&self) -> u64 {
        use rfsim_rf::key::{fnv1a_bytes, FNV_OFFSET};
        let mut h = FNV_OFFSET;
        for p in &self.points {
            h = fnv1a_bytes(h, &p.amplitude.to_bits().to_le_bytes());
            h = fnv1a_bytes(h, &p.spacing.to_bits().to_le_bytes());
            h = fnv1a_bytes(h, &(p.samples.len() as u64).to_le_bytes());
            for &s in &p.samples {
                h = fnv1a_bytes(h, &s.to_bits().to_le_bytes());
            }
        }
        h
    }

    /// Total sample count across all points.
    pub fn num_samples(&self) -> usize {
        self.points.iter().map(|p| p.samples.len()).sum()
    }

    /// Wire encoding.
    pub fn to_json(&self) -> Json {
        Json::object([(
            "points",
            Json::array(self.points.iter().map(|p| {
                Json::object([
                    ("amplitude", Json::number(p.amplitude)),
                    ("spacing", Json::number(p.spacing)),
                    (
                        "samples",
                        Json::array(p.samples.iter().map(|&s| Json::number(s))),
                    ),
                ])
            })),
        )])
    }

    /// Wire decoding.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] on a malformed payload.
    pub fn from_json(json: &Json) -> Result<JobResult> {
        let points = json
            .array_at("points")
            .ok_or_else(|| ServeError::Protocol("result missing 'points'".into()))?;
        let mut out = Vec::with_capacity(points.len());
        for p in points {
            let samples = p
                .array_at("samples")
                .ok_or_else(|| ServeError::Protocol("point missing 'samples'".into()))?
                .iter()
                .map(|v| match v {
                    Json::Number(x) => Ok(*x),
                    _ => Err(ServeError::Protocol("samples must be numbers".into())),
                })
                .collect::<Result<Vec<f64>>>()?;
            out.push(PointSolution {
                amplitude: p
                    .number_at("amplitude")
                    .ok_or_else(|| ServeError::Protocol("point missing 'amplitude'".into()))?,
                spacing: p.number_at("spacing").unwrap_or(0.0),
                samples,
            });
        }
        Ok(JobResult { points: out })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::mpde("rc_lowpass", 1e6, vec![0.1, 0.2], vec![10e3])
    }

    #[test]
    fn spec_json_roundtrip() {
        let s = spec();
        let back = JobSpec::from_json(&s.to_json()).expect("decode");
        assert_eq!(back, s);
        // A deadline rides the wire but stays out of the store key.
        let mut dl = spec();
        dl.deadline_ms = Some(1500);
        let back = JobSpec::from_json(&dl.to_json()).expect("decode");
        assert_eq!(back, dl);
        let q = Quantizer::default();
        assert_eq!(
            dl.key(1, q),
            spec().key(1, q),
            "deadline_ms is scheduling policy, not solution identity"
        );
        // Missing fields are named.
        let err = JobSpec::from_json(&Json::parse(r#"{"backend":"mpde"}"#).expect("json"))
            .expect_err("missing f1");
        assert!(err.to_string().contains("family"), "{err}");
    }

    #[test]
    fn canonicalize_validates_and_drops_ignored_params() {
        assert!(spec().canonicalize().is_ok());
        let mut bad = spec();
        bad.amplitudes.clear();
        assert!(bad.canonicalize().is_err());
        let mut bad = spec();
        bad.f1 = -1.0;
        assert!(bad.canonicalize().is_err());
        let mut bad = spec();
        bad.spacings.clear();
        assert!(bad.canonicalize().is_err());
        // PeriodicFd ignores spacings and n2 — both fold away, so the
        // same physical request keys identically however they were set.
        let mut fd1 = spec();
        fd1.backend = BackendKind::PeriodicFd;
        fd1.spacings = vec![10e3];
        fd1.n2 = 8;
        let mut fd2 = spec();
        fd2.backend = BackendKind::PeriodicFd;
        fd2.spacings = vec![99e3, 1.0];
        fd2.n2 = 2;
        let (c1, c2) = (
            fd1.canonicalize().expect("fd1"),
            fd2.canonicalize().expect("fd2"),
        );
        assert_eq!(c1, c2);
        let q = Quantizer::default();
        assert_eq!(c1.key(1, q), c2.key(1, q));
    }

    #[test]
    fn keys_track_family_topology_and_params() {
        let q = Quantizer::default();
        let base = spec().canonicalize().expect("canonical");
        let k = base.key(1, q);
        // Same spec, same key.
        assert_eq!(k, base.key(1, q));
        // rc_lowpass and rc_stiff share a topology (same MNA pattern) but
        // the family name is part of the key.
        let mut other = base.clone();
        other.family = "rc_stiff".into();
        assert_ne!(k, other.key(1, q));
        // A new epoch (re-registered or retired builder) re-keys the same
        // spec.
        assert_ne!(k, base.key(2, q));
        // Grid shape and values are keyed.
        let mut n = base.clone();
        n.n1 = 32;
        assert_ne!(k, n.key(1, q));
        let mut a = base.clone();
        a.amplitudes = vec![0.1, 0.3];
        assert_ne!(k, a.key(1, q));
        // Routing looks at the first point only: a second amplitude moves
        // the key but not the slot.
        assert_eq!(base.route_slot(q), a.route_slot(q));
        let mut first = base.clone();
        first.amplitudes = vec![0.3, 0.2];
        assert_ne!(base.route_slot(q), first.route_slot(q));
    }

    #[test]
    fn registry_epochs_are_fresh_and_never_reused() {
        let mut registry = FamilyRegistry::builtin();
        let lowpass = registry.epoch("rc_lowpass").expect("hosted");
        assert_ne!(lowpass, registry.epoch("rc_stiff").expect("hosted"));
        assert!(matches!(
            registry.epoch("nope"),
            Err(ServeError::UnknownFamily(_))
        ));
        // Retiring keeps the builder and draws a fresh epoch.
        assert!(registry.retire("rc_lowpass"));
        let retired = registry.epoch("rc_lowpass").expect("still hosted");
        assert_ne!(retired, lowpass);
        assert!(registry.builder("rc_lowpass").is_ok());
        assert!(!registry.retire("nope"));
        // Removing and re-registering never meets an old epoch.
        assert!(registry.remove("rc_lowpass"));
        registry.register("rc_lowpass", |_: &PointParams| {
            CircuitBuilder::new().build()
        });
        let again = registry.epoch("rc_lowpass").expect("re-hosted");
        assert!(again != lowpass && again != retired);
    }

    #[test]
    fn result_digest_and_json_roundtrip() {
        let result = JobResult {
            points: vec![
                PointSolution {
                    amplitude: 0.1,
                    spacing: 10e3,
                    samples: vec![1.0 / 3.0, -2.5e-7, 0.0],
                },
                PointSolution {
                    amplitude: 0.2,
                    spacing: 10e3,
                    samples: vec![4.0, 5.0],
                },
            ],
        };
        let back = JobResult::from_json(&result.to_json()).expect("decode");
        assert_eq!(back, result);
        assert_eq!(back.digest(), result.digest());
        assert_eq!(result.num_samples(), 5);
        let mut tweaked = result.clone();
        tweaked.points[0].samples[0] = f64::from_bits(tweaked.points[0].samples[0].to_bits() ^ 1);
        assert_ne!(tweaked.digest(), result.digest());
    }
}
