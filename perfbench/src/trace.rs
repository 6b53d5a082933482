//! Spans recorded from outside the program: the benchmark times its own
//! calls into each layer's public functions, keeps the spans in memory and
//! writes them out when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use rfsim_circuit::newton::NewtonSystem;
use rfsim_numerics::sparse::Triplets;

/// One timed call: offsets in nanoseconds from the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`newton.solve`, `mpde.residual`, …).
    pub name: &'static str,
    /// Start offset (ns).
    pub start_ns: u64,
    /// End offset (ns).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The op (solve or request) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span log.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose offsets count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Opens a span at `now`; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    /// Ends span `id` at `now`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.offset_ns(Instant::now());
    }

    /// Every span so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Direct children of span `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Appends `other`'s spans (same origin assumed), re-pointing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Writes one JSON object per span to `path`.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// A [`NewtonSystem`] wrapper that records a span around every residual
/// and residual-and-Jacobian call, and keeps the state of the last
/// Jacobian so its linear algebra can be replayed afterwards. Numerically
/// transparent: it forwards every call unchanged.
pub struct TracedSystem<'a, S> {
    inner: &'a S,
    tracer: &'a RefCell<Tracer>,
    parent: usize,
    op: u64,
    last_jacobian_x: RefCell<Vec<f64>>,
}

impl<'a, S: NewtonSystem> TracedSystem<'a, S> {
    /// Wraps `inner`; spans go under `parent`.
    pub fn new(inner: &'a S, tracer: &'a RefCell<Tracer>, parent: usize, op: u64) -> Self {
        TracedSystem {
            inner,
            tracer,
            parent,
            op,
            last_jacobian_x: RefCell::new(Vec::new()),
        }
    }

    /// The state the last Jacobian was evaluated at.
    pub fn into_last_jacobian_x(self) -> Vec<f64> {
        self.last_jacobian_x.into_inner()
    }
}

impl<S: NewtonSystem> NewtonSystem for TracedSystem<'_, S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) {
        let t0 = Instant::now();
        self.inner.residual(x, out);
        let t1 = Instant::now();
        self.tracer
            .borrow_mut()
            .record("mpde.residual", t0, t1, Some(self.parent), self.op);
    }

    fn residual_and_jacobian(&self, x: &[f64], out: &mut [f64], jac: &mut Triplets) {
        let t0 = Instant::now();
        self.inner.residual_and_jacobian(x, out, jac);
        let t1 = Instant::now();
        self.tracer
            .borrow_mut()
            .record("mpde.jacobian", t0, t1, Some(self.parent), self.op);
        let mut last = self.last_jacobian_x.borrow_mut();
        last.clear();
        last.extend_from_slice(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_repoints_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.open("a.root", None, 0);
        let mut b = Tracer::new(origin);
        let root = b.open("b.root", None, 1);
        b.open("b.child", Some(root), 1);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.children(1).count(), 1);
    }
}
