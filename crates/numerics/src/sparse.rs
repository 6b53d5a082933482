//! Sparse matrix containers: triplet builder, CSR and CSC forms, and
//! pattern-caching assemblers.
//!
//! The circuit stamps assemble into [`Triplets`] (duplicates allowed and
//! summed), which convert to [`CsrMatrix`] for matvecs and the block-Jacobi
//! preconditioner and [`CscMatrix`] for the sparse LU factorisation.
//!
//! MNA and MPDE Jacobians have a sparsity pattern that is fixed for the life
//! of a circuit while their *values* change every Newton iteration.
//! [`CscAssembly`] and [`CsrAssembly`] exploit this: built once from a
//! representative [`Triplets`], they record the mapping from each triplet
//! slot to its compressed value slot, so every subsequent assembly is a
//! single allocation-free scatter pass (no counting sort, no per-column
//! sort, no dedup). The scatter verifies the `(row, col)` sequence as it
//! goes and reports a mismatch instead of producing a wrong matrix, so
//! callers can rebuild the cache on the rare pattern change.

use crate::{NumericsError, Result};

/// A 64-bit hash of a sparse matrix's *structure* — dimensions, column (or
/// row) pointers and index arrays — independent of the stored values.
///
/// Fingerprints are cache **keys**, not proofs of equality: two different
/// patterns hashing to the same value is astronomically unlikely (FNV-1a
/// over the full index arrays) but not impossible, so anything keyed by a
/// fingerprint must still verify the pattern before trusting it. Every
/// consumer in this workspace does: [`CscAssembly::scatter`] checks each
/// stamp position and [`crate::sparse_lu::SymbolicLu::matches`] compares
/// the stored pattern outright, so a collision costs a transparent rebuild,
/// never a wrong solve.
///
/// Obtain one from [`CscMatrix::pattern_fingerprint`],
/// [`CsrMatrix::pattern_fingerprint`], [`Triplets::pattern_fingerprint`] or
/// [`CscAssembly::pattern_fingerprint`]; combine domain context (grid
/// shape, scheme identity) into a key with [`PatternFingerprint::mix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternFingerprint(u64);

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn fnv1a_u64(mut h: u64, v: u64) -> u64 {
    for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
        h ^= (v >> shift) & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl PatternFingerprint {
    /// Hashes a compressed pattern: dimensions, then both index arrays.
    pub(crate) fn of_parts(rows: usize, cols: usize, indptr: &[usize], indices: &[usize]) -> Self {
        let mut h = FNV_OFFSET;
        h = fnv1a_u64(h, rows as u64);
        h = fnv1a_u64(h, cols as u64);
        h = fnv1a_u64(h, indptr.len() as u64);
        for &p in indptr {
            h = fnv1a_u64(h, p as u64);
        }
        h = fnv1a_u64(h, indices.len() as u64);
        for &i in indices {
            h = fnv1a_u64(h, i as u64);
        }
        PatternFingerprint(h)
    }

    /// Folds extra context (a grid dimension, a scheme discriminant, a
    /// sibling fingerprint's [`PatternFingerprint::as_u64`]) into this
    /// fingerprint, producing a new key. Order matters: `a.mix(b) ≠
    /// b.mix(a)` in general.
    #[must_use]
    pub fn mix(self, context: u64) -> Self {
        PatternFingerprint(fnv1a_u64(self.0, context))
    }

    /// The raw hash value (for display/diagnostics and for
    /// [`PatternFingerprint::mix`]).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for PatternFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Coordinate-format (COO) builder for sparse matrices.
///
/// Duplicate `(row, col)` entries are *summed* on conversion, which is
/// exactly the semantics MNA device stamping wants.
#[derive(Debug, Clone, Default)]
pub struct Triplets {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
    /// Diagonal block size declared by the assembler, if any.
    block_size: Option<usize>,
}

impl Triplets {
    /// Creates an empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::new(),
            block_size: None,
        }
    }

    /// Creates an empty builder with pre-allocated capacity.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Triplets {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
            block_size: None,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of raw (pre-dedup) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `value` at `(row, col)`. Duplicates are summed on conversion.
    ///
    /// Exact zeros are kept as structural entries: device stamps always
    /// contribute their full pattern, so the Jacobian sparsity structure —
    /// and with it every [`CscAssembly`] slot map and cached symbolic LU —
    /// stays identical across Newton iterations even when a conductance
    /// passes through 0 (a MOSFET entering cutoff, a ramped source at 0).
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "Triplets::push: ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Removes all entries and the declared block size, keeping the
    /// allocation (for re-assembly).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.block_size = None;
    }

    /// Declares that the matrix is built from `block_size × block_size`
    /// diagonal blocks that are each nonsingular on their own, as an MPDE
    /// grid Jacobian is (one circuit block per grid point). Newton's grid
    /// policy reads it to pick a block-Jacobi preconditioned Krylov solve.
    /// It is not part of the pattern:
    /// [`Triplets::pattern_fingerprint`] ignores it.
    pub fn declare_block_size(&mut self, block_size: usize) {
        self.block_size = Some(block_size);
    }

    /// The block size declared since the last [`Triplets::clear`], if any.
    pub fn block_size(&self) -> Option<usize> {
        self.block_size
    }

    /// Converts to compressed-sparse-row form, summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut out = CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr: Vec::new(),
            indices: Vec::new(),
            data: Vec::new(),
        };
        self.to_csr_into(&mut out);
        out
    }

    /// [`Triplets::to_csr`] written over `out`, reusing its allocations:
    /// the same pattern and the same duplicate sums, bit for bit. For
    /// assembly loops that convert many small stamp sets.
    pub fn to_csr_into(&self, out: &mut CsrMatrix) {
        out.rows = self.rows;
        out.cols = self.cols;
        compress(
            self.rows,
            &self.entries,
            |&(r, c, v)| (r, c, v),
            &mut out.indptr,
            &mut out.indices,
            &mut out.data,
        );
    }

    /// Converts to compressed-sparse-column form, summing duplicates.
    pub fn to_csc(&self) -> CscMatrix {
        let (mut indptr, mut indices, mut data) = (Vec::new(), Vec::new(), Vec::new());
        compress(
            self.cols,
            &self.entries,
            |&(r, c, v)| (c, r, v),
            &mut indptr,
            &mut indices,
            &mut data,
        );
        CscMatrix {
            rows: self.rows,
            cols: self.cols,
            indptr,
            indices,
            data,
        }
    }

    /// Fingerprint of the *compressed CSC structure* these entries produce:
    /// duplicates fold into one slot and exact-zero entries stay structural,
    /// so any two triplet sequences yielding the same CSC pattern — however
    /// the stamps were ordered — fingerprint identically.
    pub fn pattern_fingerprint(&self) -> PatternFingerprint {
        let (indptr, indices, _) = build_slot_map(self.cols, &self.entries, |&(r, c, _)| (c, r));
        PatternFingerprint::of_parts(self.rows, self.cols, &indptr, &indices)
    }
}

/// Shared compression kernel: groups entries by `major`, sorts by `minor`,
/// sums duplicates. Writes over `indptr`, `indices` and `data`, keeping
/// their allocations.
fn compress<F>(
    majors: usize,
    entries: &[(usize, usize, f64)],
    proj: F,
    indptr: &mut Vec<usize>,
    indices: &mut Vec<usize>,
    data: &mut Vec<f64>,
) where
    F: Fn(&(usize, usize, f64)) -> (usize, usize, f64),
{
    // Counting sort by major index into `(minor, value)` runs. It is
    // stable, so each run keeps insertion order. While placing,
    // `indptr[m + 1]` walks from run m's start to its end; the pass below
    // then overwrites it with the compressed end.
    indptr.clear();
    indptr.resize(majors + 1, 0);
    for e in entries {
        indptr[proj(e).0 + 1] += 1;
    }
    let mut start = 0;
    for slot in &mut indptr[1..] {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut runs = vec![(0usize, 0.0f64); entries.len()];
    for e in entries {
        let (maj, min, v) = proj(e);
        runs[indptr[maj + 1]] = (min, v);
        indptr[maj + 1] += 1;
    }
    indices.clear();
    data.clear();
    indices.reserve(entries.len());
    data.reserve(entries.len());
    let mut lo = 0;
    for m in 0..majors {
        let hi = indptr[m + 1];
        let run = &mut runs[lo..hi];
        run.sort_unstable_by_key(|&(min, _)| min);
        let mut i = 0;
        while i < run.len() {
            let (min, mut v) = run[i];
            let mut j = i + 1;
            while j < run.len() && run[j].0 == min {
                v += run[j].1;
                j += 1;
            }
            indices.push(min);
            data.push(v);
            i = j;
        }
        indptr[m + 1] = indices.len();
        lo = hi;
    }
}

/// Compressed sparse row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Row pointer array (length `rows + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices, row by row.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values, row by row.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable stored values (pattern is fixed).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// Value at `(i, j)`, or 0 if not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: x dimension");
        assert_eq!(y.len(), self.rows, "matvec: y dimension");
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let mut s = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                s += v * x[*c];
            }
            y[i] = s;
        }
    }

    /// Matrix–vector product returning a fresh vector.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// Converts to CSC form.
    pub fn to_csc(&self) -> CscMatrix {
        let mut t = Triplets::with_capacity(self.rows, self.cols, self.nnz());
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                t.push(i, *c, *v);
            }
        }
        t.to_csc()
    }

    /// Converts to a dense matrix (diagnostics and tests).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        let mut m = crate::dense::DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                m[(i, *c)] += *v;
            }
        }
        m
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        crate::vector::norm_inf(&self.data)
    }

    /// Fingerprint of this matrix's structure (dimensions, row pointers and
    /// column indices), independent of the stored values. Note that CSR and
    /// CSC fingerprints of the same matrix differ — key caches by one form.
    pub fn pattern_fingerprint(&self) -> PatternFingerprint {
        PatternFingerprint::of_parts(self.rows, self.cols, &self.indptr, &self.indices)
    }
}

/// Compressed sparse column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<f64>,
}

impl CscMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Column pointer array (length `cols + 1`).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Row indices, column by column.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Stored values, column by column.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Row indices and values of column `j`.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let lo = self.indptr[j];
        let hi = self.indptr[j + 1];
        (&self.indices[lo..hi], &self.data[lo..hi])
    }

    /// Value at `(i, j)`, or 0 if not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (rows, vals) = self.col(j);
        match rows.binary_search(&i) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Matrix–vector product `y = A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: x dimension");
        let mut y = vec![0.0; self.rows];
        for j in 0..self.cols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            let (rows, vals) = self.col(j);
            for (r, v) in rows.iter().zip(vals) {
                y[*r] += v * xj;
            }
        }
        y
    }

    /// Converts to CSR form.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut t = Triplets::with_capacity(self.rows, self.cols, self.nnz());
        for j in 0..self.cols {
            let (rows, vals) = self.col(j);
            for (r, v) in rows.iter().zip(vals) {
                t.push(*r, j, *v);
            }
        }
        t.to_csr()
    }

    /// Converts to a dense matrix (diagnostics and tests).
    pub fn to_dense(&self) -> crate::dense::DenseMatrix {
        self.to_csr().to_dense()
    }

    /// Checks the structural symmetry of the pattern of `A + Aᵀ`
    /// adjacency — returns the undirected adjacency lists used by ordering
    /// algorithms.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] for non-square matrices.
    pub fn symmetrized_adjacency(&self) -> Result<Vec<Vec<usize>>> {
        if self.rows != self.cols {
            return Err(NumericsError::DimensionMismatch {
                context: format!("symmetrized_adjacency: {}x{}", self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut adj = vec![Vec::new(); n];
        for j in 0..n {
            let (rows, _) = self.col(j);
            for &i in rows {
                if i != j {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        Ok(adj)
    }

    /// Fingerprint of this matrix's structure (dimensions, column pointers
    /// and row indices), independent of the stored values. This is the key
    /// the sweep engine's workspace cache routes by.
    pub fn pattern_fingerprint(&self) -> PatternFingerprint {
        PatternFingerprint::of_parts(self.rows, self.cols, &self.indptr, &self.indices)
    }
}

/// Builds a compressed pattern from projected `(major, minor)` entry
/// positions and records, for each original entry, the value slot it folds
/// into. Shared by [`CscAssembly`] (major = column) and [`CsrAssembly`]
/// (major = row).
fn build_slot_map<F>(
    majors: usize,
    entries: &[(usize, usize, f64)],
    proj: F,
) -> (Vec<usize>, Vec<usize>, Vec<usize>)
where
    F: Fn(&(usize, usize, f64)) -> (usize, usize),
{
    // Counting sort by major index, keeping track of which original
    // entry lands where.
    let mut counts = vec![0usize; majors + 1];
    for e in entries {
        counts[proj(e).0 + 1] += 1;
    }
    for m in 0..majors {
        counts[m + 1] += counts[m];
    }
    let mut order = vec![0usize; entries.len()];
    {
        let mut cursor = counts.clone();
        for (k, e) in entries.iter().enumerate() {
            let (maj, _) = proj(e);
            order[cursor[maj]] = k;
            cursor[maj] += 1;
        }
    }
    let mut indptr = Vec::with_capacity(majors + 1);
    let mut indices = Vec::new();
    let mut slot = vec![0usize; entries.len()];
    indptr.push(0);
    let mut scratch: Vec<(usize, usize)> = Vec::new(); // (minor, entry index)
    for m in 0..majors {
        scratch.clear();
        for &k in &order[counts[m]..counts[m + 1]] {
            scratch.push((proj(&entries[k]).1, k));
        }
        scratch.sort_unstable_by_key(|&(min, _)| min);
        let mut i = 0;
        while i < scratch.len() {
            let min = scratch[i].0;
            let s = indices.len();
            indices.push(min);
            while i < scratch.len() && scratch[i].0 == min {
                slot[scratch[i].1] = s;
                i += 1;
            }
        }
        indptr.push(indices.len());
    }
    (indptr, indices, slot)
}

/// Shared core of [`CscAssembly`] and [`CsrAssembly`]: the compressed
/// pattern, the recorded triplet positions, and the verified value scatter.
#[derive(Debug, Clone)]
struct SlotMap {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    /// `(row, col)` of each triplet slot at build time, for verification.
    positions: Vec<(usize, usize)>,
    /// Compressed data slot each triplet slot folds into.
    slot: Vec<usize>,
}

impl SlotMap {
    fn new<F>(t: &Triplets, majors: usize, proj: F) -> Self
    where
        F: Fn(&(usize, usize, f64)) -> (usize, usize),
    {
        let (indptr, indices, slot) = build_slot_map(majors, &t.entries, proj);
        SlotMap {
            rows: t.rows,
            cols: t.cols,
            indptr,
            indices,
            positions: t.entries.iter().map(|&(r, c, _)| (r, c)).collect(),
            slot,
        }
    }

    fn nnz(&self) -> usize {
        self.indices.len()
    }

    fn matches(&self, t: &Triplets) -> bool {
        t.rows == self.rows
            && t.cols == self.cols
            && t.entries.len() == self.positions.len()
            && t.entries
                .iter()
                .zip(&self.positions)
                .all(|(&(r, c, _), &(pr, pc))| r == pr && c == pc)
    }

    /// Scatters `t`'s values into `data` (duplicates summed), verifying the
    /// slot sequence entry by entry. `false` — with `data` unspecified — on
    /// the first mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `data` does not have this pattern's nnz.
    fn scatter_values(&self, t: &Triplets, data: &mut [f64]) -> bool {
        assert_eq!(data.len(), self.nnz(), "SlotMap::scatter_values: nnz");
        if t.entries.len() != self.positions.len() || t.rows != self.rows || t.cols != self.cols {
            return false;
        }
        data.fill(0.0);
        for (k, &(r, c, v)) in t.entries.iter().enumerate() {
            let (pr, pc) = self.positions[k];
            if r != pr || c != pc {
                return false;
            }
            data[self.slot[k]] += v;
        }
        true
    }
}

/// Pattern-caching CSC assembler: maps triplet slots to CSC value slots so
/// repeated Jacobian assemblies scatter in place with no sort, dedup or
/// allocation.
///
/// Build it once from a representative assembly, then call
/// [`CscAssembly::scatter`] with each fresh [`Triplets`] of the *same stamp
/// sequence*. The scatter verifies every entry's `(row, col)` against the
/// recorded sequence and returns `false` on the first mismatch (leaving the
/// output contents unspecified), so a caller can detect structural changes
/// and rebuild.
#[derive(Debug, Clone)]
pub struct CscAssembly {
    map: SlotMap,
}

impl CscAssembly {
    /// Records the pattern and slot map of `t`.
    pub fn new(t: &Triplets) -> Self {
        CscAssembly {
            map: SlotMap::new(t, t.cols, |&(r, c, _)| (c, r)),
        }
    }

    /// Stored entries in the compressed pattern (after summing duplicates).
    pub fn nnz(&self) -> usize {
        self.map.nnz()
    }

    /// Number of triplet slots the map was built from.
    pub fn num_slots(&self) -> usize {
        self.map.slot.len()
    }

    /// Fingerprint of the compressed CSC pattern this assembly scatters
    /// into (equal to the fingerprint of any matrix it produces).
    pub fn pattern_fingerprint(&self) -> PatternFingerprint {
        PatternFingerprint::of_parts(
            self.map.rows,
            self.map.cols,
            &self.map.indptr,
            &self.map.indices,
        )
    }

    /// A zero-valued matrix with this pattern, ready for [`Self::scatter`].
    pub fn zero_matrix(&self) -> CscMatrix {
        CscMatrix {
            rows: self.map.rows,
            cols: self.map.cols,
            indptr: self.map.indptr.clone(),
            indices: self.map.indices.clone(),
            data: vec![0.0; self.map.nnz()],
        }
    }

    /// Whether `t` still has the exact `(row, col)` slot sequence the map
    /// was built from.
    pub fn matches(&self, t: &Triplets) -> bool {
        self.map.matches(t)
    }

    /// Scatters `t`'s values into `out` in place (duplicates summed).
    ///
    /// Returns `false` — leaving `out`'s values unspecified — if `t`'s slot
    /// sequence no longer matches the recorded pattern; the caller should
    /// rebuild the assembly.
    ///
    /// # Panics
    ///
    /// Panics if `out` was not produced from this assembly's pattern
    /// (dimension or nnz mismatch).
    pub fn scatter(&self, t: &Triplets, out: &mut CscMatrix) -> bool {
        assert_eq!(out.rows, self.map.rows, "CscAssembly::scatter: rows");
        assert_eq!(out.cols, self.map.cols, "CscAssembly::scatter: cols");
        self.map.scatter_values(t, &mut out.data)
    }

    /// The scatter-or-rebuild idiom in one place: scatters `t` through the
    /// cached assembly into the cached matrix, rebuilding both on
    /// structural change (or first use). Returns `true` when a rebuild
    /// happened, so callers can invalidate anything derived from the old
    /// pattern (a cached factorisation, a preconditioner).
    pub fn assemble_cached(
        cache: &mut Option<CscAssembly>,
        matrix: &mut Option<CscMatrix>,
        t: &Triplets,
    ) -> bool {
        let scattered = match (&*cache, matrix.as_mut()) {
            (Some(asm), Some(m)) => asm.scatter(t, m),
            _ => false,
        };
        if !scattered {
            let asm = CscAssembly::new(t);
            let mut m = asm.zero_matrix();
            let ok = asm.scatter(t, &mut m);
            debug_assert!(ok, "fresh assembly must accept its own triplets");
            *cache = Some(asm);
            *matrix = Some(m);
        }
        !scattered
    }
}

/// Pattern-caching CSR assembler: the row-major sibling of [`CscAssembly`],
/// used for the Krylov path (matvecs and the block-Jacobi preconditioner
/// consume CSR).
#[derive(Debug, Clone)]
pub struct CsrAssembly {
    map: SlotMap,
}

impl CsrAssembly {
    /// Records the pattern and slot map of `t`.
    pub fn new(t: &Triplets) -> Self {
        CsrAssembly {
            map: SlotMap::new(t, t.rows, |&(r, c, _)| (r, c)),
        }
    }

    /// Stored entries in the compressed pattern (after summing duplicates).
    pub fn nnz(&self) -> usize {
        self.map.nnz()
    }

    /// A zero-valued matrix with this pattern, ready for [`Self::scatter`].
    pub fn zero_matrix(&self) -> CsrMatrix {
        CsrMatrix {
            rows: self.map.rows,
            cols: self.map.cols,
            indptr: self.map.indptr.clone(),
            indices: self.map.indices.clone(),
            data: vec![0.0; self.map.nnz()],
        }
    }

    /// Whether `t` still has the exact `(row, col)` slot sequence the map
    /// was built from.
    pub fn matches(&self, t: &Triplets) -> bool {
        self.map.matches(t)
    }

    /// Scatters `t`'s values into `out` in place (duplicates summed).
    ///
    /// Returns `false` — leaving `out`'s values unspecified — on slot
    /// sequence mismatch.
    ///
    /// # Panics
    ///
    /// Panics if `out` was not produced from this assembly's pattern.
    pub fn scatter(&self, t: &Triplets, out: &mut CsrMatrix) -> bool {
        assert_eq!(out.rows, self.map.rows, "CsrAssembly::scatter: rows");
        assert_eq!(out.cols, self.map.cols, "CsrAssembly::scatter: cols");
        self.map.scatter_values(t, &mut out.data)
    }

    /// Row-major sibling of [`CscAssembly::assemble_cached`]; returns
    /// `true` when the caches were rebuilt.
    pub fn assemble_cached(
        cache: &mut Option<CsrAssembly>,
        matrix: &mut Option<CsrMatrix>,
        t: &Triplets,
    ) -> bool {
        let scattered = match (&*cache, matrix.as_mut()) {
            (Some(asm), Some(m)) => asm.scatter(t, m),
            _ => false,
        };
        if !scattered {
            let asm = CsrAssembly::new(t);
            let mut m = asm.zero_matrix();
            let ok = asm.scatter(t, &mut m);
            debug_assert!(ok, "fresh assembly must accept its own triplets");
            *cache = Some(asm);
            *matrix = Some(m);
        }
        !scattered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn example() -> Triplets {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(0, 2, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        t
    }

    #[test]
    fn csr_roundtrip_values() {
        let a = example().to_csr();
        assert_eq!(a.nnz(), 5);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 0, 2.5);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 0), 3.5);
        let b = t.to_csc();
        assert_eq!(b.get(0, 0), 3.5);
    }

    #[test]
    fn zero_entries_kept_as_structural() {
        // Explicit zeros stay in the pattern: assembly-slot caches and
        // symbolic factorisations rely on a value-independent structure.
        let mut t = Triplets::new(2, 2);
        t.push(0, 1, 0.0);
        assert_eq!(t.len(), 1);
        let a = t.to_csc();
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn csr_matvec_matches_dense() {
        let a = example().to_csr();
        let x = vec![1.0, 2.0, 3.0];
        let y = a.matvec(&x);
        assert_eq!(y, vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn csc_matvec_matches_csr() {
        let t = example();
        let x = vec![-1.0, 0.5, 2.0];
        assert_eq!(t.to_csr().matvec(&x), t.to_csc().matvec(&x));
    }

    #[test]
    fn csr_csc_roundtrip() {
        let a = example().to_csr();
        let back = a.to_csc().to_csr();
        assert_eq!(a, back);
    }

    #[test]
    fn adjacency_symmetrizes() {
        // Asymmetric pattern: (0,2) present, (2,0) absent.
        let mut t = Triplets::new(3, 3);
        t.push(0, 2, 1.0);
        t.push(1, 1, 1.0);
        let adj = t.to_csc().symmetrized_adjacency().expect("square");
        assert_eq!(adj[0], vec![2]);
        assert_eq!(adj[2], vec![0]);
        assert!(adj[1].is_empty()); // diagonal ignored
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut t = Triplets::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn csc_assembly_matches_to_csc() {
        let mut t = example();
        t.push(2, 0, -1.5); // duplicate of (2,0): must fold into one slot
        let asm = CscAssembly::new(&t);
        assert_eq!(asm.num_slots(), 6);
        assert_eq!(asm.nnz(), 5);
        let mut m = asm.zero_matrix();
        assert!(asm.scatter(&t, &mut m));
        assert_eq!(m, t.to_csc());
    }

    #[test]
    fn csc_assembly_rescatter_new_values() {
        let mut t = example();
        let asm = CscAssembly::new(&t);
        let mut m = asm.zero_matrix();
        // Re-stamp the same pattern with different values (one of them 0).
        t.clear();
        t.push(0, 0, 7.0);
        t.push(0, 2, 0.0);
        t.push(1, 1, -3.0);
        t.push(2, 0, 1.0);
        t.push(2, 2, 2.0);
        assert!(asm.matches(&t));
        assert!(asm.scatter(&t, &mut m));
        assert_eq!(m, t.to_csc());
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.nnz(), 5); // the zero stays structural
    }

    #[test]
    fn csc_assembly_detects_pattern_change() {
        let t = example();
        let asm = CscAssembly::new(&t);
        let mut m = asm.zero_matrix();
        // Different length.
        let mut t2 = example();
        t2.push(1, 0, 1.0);
        assert!(!asm.matches(&t2));
        assert!(!asm.scatter(&t2, &mut m));
        // Same length, different position sequence.
        let mut t3 = Triplets::new(3, 3);
        t3.push(0, 0, 1.0);
        t3.push(0, 2, 2.0);
        t3.push(1, 1, 3.0);
        t3.push(2, 0, 4.0);
        t3.push(2, 1, 5.0); // was (2,2)
        assert!(!asm.matches(&t3));
        assert!(!asm.scatter(&t3, &mut m));
    }

    #[test]
    fn csr_assembly_matches_to_csr() {
        let mut t = example();
        t.push(0, 0, 0.5); // duplicate
        let asm = CsrAssembly::new(&t);
        let mut m = asm.zero_matrix();
        assert!(asm.scatter(&t, &mut m));
        assert_eq!(m, t.to_csr());
        // New values, same pattern.
        t.clear();
        t.push(0, 0, 1.0);
        t.push(0, 2, 1.0);
        t.push(1, 1, 1.0);
        t.push(2, 0, 1.0);
        t.push(2, 2, 1.0);
        t.push(0, 0, 2.0);
        assert!(asm.scatter(&t, &mut m));
        assert_eq!(m.get(0, 0), 3.0);
    }

    #[test]
    fn fingerprint_is_value_independent() {
        let t1 = example();
        // Same positions, different values, different push order.
        let mut t2 = Triplets::new(3, 3);
        t2.push(2, 2, -5.0);
        t2.push(1, 1, 0.0);
        t2.push(0, 0, 9.0);
        t2.push(2, 0, 4.5);
        t2.push(0, 2, 2.0);
        assert_eq!(t1.pattern_fingerprint(), t2.pattern_fingerprint());
        assert_eq!(
            t1.to_csc().pattern_fingerprint(),
            t2.to_csc().pattern_fingerprint()
        );
        // Duplicates fold into the same compressed slot.
        let mut t3 = example();
        t3.push(0, 0, 3.0);
        assert_eq!(t1.pattern_fingerprint(), t3.pattern_fingerprint());
        // Assembly, CSC matrix and triplets all agree on the fingerprint.
        let asm = CscAssembly::new(&t1);
        assert_eq!(asm.pattern_fingerprint(), t1.to_csc().pattern_fingerprint());
        assert_eq!(asm.pattern_fingerprint(), t1.pattern_fingerprint());
    }

    #[test]
    fn declared_block_size_is_not_pattern_and_clears() {
        let mut t = example();
        let plain = t.pattern_fingerprint();
        assert_eq!(t.block_size(), None);
        t.declare_block_size(3);
        assert_eq!(t.block_size(), Some(3));
        assert_eq!(t.pattern_fingerprint(), plain);
        t.clear();
        assert_eq!(t.block_size(), None);
    }

    #[test]
    fn fingerprint_distinguishes_patterns() {
        let t1 = example();
        let mut t2 = example();
        t2.push(1, 0, 1.0); // extra structural entry
        assert_ne!(t1.pattern_fingerprint(), t2.pattern_fingerprint());
        // Different dimensions, same (empty) entry set.
        let e1 = Triplets::new(3, 3);
        let e2 = Triplets::new(3, 4);
        assert_ne!(e1.pattern_fingerprint(), e2.pattern_fingerprint());
        // `mix` derives distinct keys from the same base pattern.
        let f = t1.pattern_fingerprint();
        assert_ne!(f.mix(16), f.mix(8));
        assert_ne!(f.mix(16).mix(8), f.mix(8).mix(16));
    }

    proptest! {
        #[test]
        fn prop_assembly_equals_compression(entries in proptest::collection::vec(
            (0usize..8, 0usize..8, -10.0f64..10.0), 0..40)) {
            let mut t = Triplets::new(8, 8);
            for (r, c, v) in entries {
                t.push(r, c, v);
            }
            let csc_asm = CscAssembly::new(&t);
            let mut csc = csc_asm.zero_matrix();
            prop_assert!(csc_asm.scatter(&t, &mut csc));
            prop_assert!(csc == t.to_csc());
            let csr_asm = CsrAssembly::new(&t);
            let mut csr = csr_asm.zero_matrix();
            prop_assert!(csr_asm.scatter(&t, &mut csr));
            prop_assert!(csr == t.to_csr());
        }
    }

    /// A straightforward compression kernel (an `order` index, a
    /// per-major `scratch` copy, fresh outputs): the bit-identity
    /// reference for `compress`.
    fn reference_compress<F>(
        majors: usize,
        entries: &[(usize, usize, f64)],
        proj: F,
    ) -> (Vec<usize>, Vec<usize>, Vec<f64>)
    where
        F: Fn(&(usize, usize, f64)) -> (usize, usize, f64),
    {
        let mut counts = vec![0usize; majors + 1];
        for e in entries {
            counts[proj(e).0 + 1] += 1;
        }
        for m in 0..majors {
            counts[m + 1] += counts[m];
        }
        let mut order = vec![0usize; entries.len()];
        let mut cursor = counts.clone();
        for (k, e) in entries.iter().enumerate() {
            let (maj, _, _) = proj(e);
            order[cursor[maj]] = k;
            cursor[maj] += 1;
        }
        let (mut indptr, mut indices, mut data) = (vec![0], Vec::new(), Vec::new());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for m in 0..majors {
            scratch.clear();
            for &k in &order[counts[m]..counts[m + 1]] {
                let (_, min, v) = proj(&entries[k]);
                scratch.push((min, v));
            }
            scratch.sort_unstable_by_key(|&(min, _)| min);
            let mut i = 0;
            while i < scratch.len() {
                let (min, mut v) = scratch[i];
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == min {
                    v += scratch[j].1;
                    j += 1;
                }
                indices.push(min);
                data.push(v);
                i = j;
            }
            indptr.push(indices.len());
        }
        (indptr, indices, data)
    }

    proptest! {
        #[test]
        fn prop_compress_matches_reference_bit_for_bit(entries in proptest::collection::vec(
            (0usize..5, 0usize..4, -10.0f64..10.0), 0..160)) {
            // Few positions, many entries: rows past the small-sort cutoff,
            // full of duplicates whose summation order shows in the bits.
            let mut t = Triplets::new(5, 4);
            for (r, c, v) in entries {
                t.push(r, c, v);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (indptr, indices, data) = reference_compress(5, &t.entries, |&(r, c, v)| (r, c, v));
            // Reuse a matrix of another shape with stale contents.
            let mut reused = Triplets::new(7, 9);
            reused.push(6, 8, 1.5);
            let mut reused = reused.to_csr();
            t.to_csr_into(&mut reused);
            prop_assert!(reused == t.to_csr());
            prop_assert_eq!((reused.rows(), reused.cols()), (5, 4));
            prop_assert_eq!(reused.indptr(), &indptr[..]);
            prop_assert_eq!(reused.indices(), &indices[..]);
            prop_assert_eq!(bits(reused.data()), bits(&data));
            let (indptr, indices, data) = reference_compress(4, &t.entries, |&(r, c, v)| (c, r, v));
            let csc = t.to_csc();
            prop_assert_eq!(csc.indptr(), &indptr[..]);
            prop_assert_eq!(csc.indices(), &indices[..]);
            prop_assert_eq!(bits(csc.data()), bits(&data));
        }
    }

    proptest! {
        #[test]
        fn prop_csr_csc_same_dense(entries in proptest::collection::vec(
            (0usize..8, 0usize..8, -10.0f64..10.0), 0..40)) {
            let mut t = Triplets::new(8, 8);
            for (r, c, v) in entries {
                t.push(r, c, v);
            }
            let d1 = t.to_csr().to_dense();
            let d2 = t.to_csc().to_dense();
            for i in 0..8 {
                for j in 0..8 {
                    prop_assert!((d1[(i, j)] - d2[(i, j)]).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn prop_matvec_linear(entries in proptest::collection::vec(
            (0usize..6, 0usize..6, -5.0f64..5.0), 0..30),
            x in proptest::collection::vec(-3.0f64..3.0, 6),
            alpha in -2.0f64..2.0) {
            let mut t = Triplets::new(6, 6);
            for (r, c, v) in entries {
                t.push(r, c, v);
            }
            let a = t.to_csr();
            let ax = a.matvec(&x);
            let sx: Vec<f64> = x.iter().map(|v| alpha * v).collect();
            let asx = a.matvec(&sx);
            for i in 0..6 {
                prop_assert!((asx[i] - alpha * ax[i]).abs() < 1e-9);
            }
        }
    }
}
