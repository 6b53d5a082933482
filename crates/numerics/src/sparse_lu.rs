//! Left-looking sparse LU factorisation (Gilbert–Peierls) with threshold
//! partial pivoting, a reverse Cuthill–McKee fill-reducing ordering, and a
//! KLU-style symbolic/numeric split for pattern-invariant refactorisation.
//!
//! This is the direct solver behind both the circuit Newton iterations and
//! the large MPDE grid Jacobians (`n·N1·N2` unknowns). The algorithm follows
//! the classic CSparse `cs_lu` structure: for each column, a depth-first
//! reach over the partially built `L` determines the pattern of the sparse
//! triangular solve, after which a pivot row is chosen among the not yet
//! pivoted rows.
//!
//! # Symbolic reuse
//!
//! MNA/MPDE Jacobians keep a fixed sparsity pattern for the life of a
//! circuit while their values change every Newton iteration. A full
//! [`SparseLu::factor`] therefore wastes most of its time rediscovering
//! structure: the RCM ordering, the per-column DFS reach, and the pivot
//! order. The split captures that structure once in a [`SymbolicLu`]
//! (row/column permutations plus the exact `L`/`U` elimination patterns)
//! and re-runs only the numeric sparse triangular solves on new values:
//!
//! * [`SparseLu::symbolic_shared`] — the structure a full
//!   [`SparseLu::factor`] of a representative matrix found.
//! * [`SymbolicLu::refactor_shared`] — numeric-only factorisation of a
//!   same-pattern matrix into a fresh [`SparseLu`] that shares the
//!   structure.
//! * [`SparseLu::refactor_in_place`] — the hot path: overwrite this factor's
//!   values from a same-pattern matrix with **zero** allocation, no DFS and
//!   no pivot search.
//!
//! # Vanished pivots
//!
//! Refactorisation keeps the recorded pivot order. The pivot at column `k`
//! has vanished when `|u_kk| ≤ max(1e-300, REFACTOR_REL_THRESHOLD ·
//! colmax)`, where `colmax` is the largest candidate magnitude in the
//! column (the diagonal plus the recorded `L` pattern). The test is
//! relative, so a badly scaled circuit (mA stamps against kΩ stamps) never
//! trips it just because its pivots are small in absolute terms. A
//! vanished pivot ends the refactorisation with
//! [`NumericsError::SingularMatrix`]; callers then run a fresh
//! [`SparseLu::factor`], which is free to pick a new pivot order.
//!
//! # Kernel invariant
//!
//! Every stored `L`/`U` row index is `< n`. The numeric kernels
//! (`factor`'s triangular solve, the refactorisation sweep and both
//! triangular solves of [`SparseLu::solve`]) update their length-`n`
//! dense accumulator by these indices without a per-element bounds check.
//! [`SparseLu::factor`] asserts the invariant once before it builds the
//! [`SymbolicLu`], which nothing mutates afterwards. Its own triangular
//! solve runs earlier, on indices that each passed a bounds-checked
//! index into a length-`n` array when the reach was computed.

use std::sync::Arc;

use crate::sparse::CscMatrix;
use crate::{NumericsError, Result};

const NONE: usize = usize::MAX;

/// Column ordering strategy applied before factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ordering {
    /// Use columns in their natural order.
    Natural,
    /// Reverse Cuthill–McKee on the symmetrised pattern: reduces bandwidth,
    /// and therefore fill, for grid-structured Jacobians.
    #[default]
    Rcm,
}

/// Diagonal preference threshold of [`SparseLu::factor`]: the diagonal
/// entry is accepted as pivot if its magnitude is at least this times the
/// column maximum.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Pivots of at most this magnitude are treated as singular, by both
/// [`SparseLu::factor`] and [`SparseLu::refactor_in_place`].
const PIVOT_ABS_MIN: f64 = 1e-300;

/// Refactorisation treats a recorded pivot as vanished when its magnitude
/// is at most this times the largest candidate magnitude in its column
/// (diagonal plus recorded `L` pattern). Relative, so badly scaled
/// circuits (mA device stamps against kΩ resistor stamps) don't trigger
/// spurious full re-factorisations; `1e-300` remains the absolute floor.
pub const REFACTOR_REL_THRESHOLD: f64 = 1e-3;

/// Options controlling [`SparseLu::factor`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LuOptions {
    /// Column ordering strategy.
    pub ordering: Ordering,
}

/// The structure of a sparse LU factorisation, independent of values: the
/// fill-reducing column ordering, the pivot order chosen on the analysed
/// matrix, and the exact `L`/`U` elimination patterns.
///
/// Captured from a full [`SparseLu::factor`] via
/// [`SparseLu::symbolic_shared`]; consumed by
/// [`SymbolicLu::refactor_shared`] and [`SparseLu::refactor_in_place`],
/// which redo only the numeric work on a same-pattern matrix.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    /// The analysed matrix's pattern (column pointers and row indices);
    /// refactorisation requires an exact match. Stored outright — a
    /// fingerprint would admit silent wrong-matrix factorisation on
    /// collision — and shared via the factor's `Arc`.
    a_indptr: Vec<usize>,
    a_indices: Vec<usize>,
    // L: strictly lower pattern, CSC, row indices in factor (pivot) space.
    lp: Vec<usize>,
    li: Vec<usize>,
    // U: strictly upper pattern, CSC, factor-space rows, ascending per
    // column (the refactor elimination order).
    up: Vec<usize>,
    ui: Vec<usize>,
    /// `p[k]` = original row sitting in factor row `k`.
    p: Vec<usize>,
    /// `pinv[i]` = factor row of original row `i`.
    pinv: Vec<usize>,
    /// `q[k]` = original column sitting in factor column `k`.
    q: Vec<usize>,
}

impl SymbolicLu {
    /// Numeric-only factorisation of `a`, which must have exactly the
    /// analysed pattern. The factor shares this `Arc`, so only the numeric
    /// arrays are allocated (shooting keeps one factor per time step this
    /// way); use [`SparseLu::refactor_in_place`] to reuse one factor
    /// across iterations instead.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::InvalidArgument`] if `a`'s pattern differs from
    ///   the analysed pattern.
    /// * [`NumericsError::SingularMatrix`] if a recorded pivot vanishes for
    ///   the new values.
    pub fn refactor_shared(self: &Arc<Self>, a: &CscMatrix) -> Result<SparseLu> {
        let mut lu = SparseLu {
            sym: Arc::clone(self),
            lx: vec![0.0; self.li.len()],
            ux: vec![0.0; self.ui.len()],
            udiag: vec![0.0; self.n],
            scratch: vec![0.0; self.n],
        };
        lu.refactor_in_place(a)?;
        Ok(lu)
    }

    /// Stored entries in the `L`/`U` patterns, diagonal included
    /// (fill diagnostic).
    pub fn nnz(&self) -> usize {
        self.li.len() + self.ui.len() + self.n
    }

    /// Whether `a` has exactly the pattern this analysis was built from
    /// (dimensions, column pointers and row indices; a slice compare, so
    /// cheap next to the numeric work it gates).
    pub fn matches(&self, a: &CscMatrix) -> bool {
        a.rows() == self.n
            && a.cols() == self.n
            && a.indptr() == &self.a_indptr[..]
            && a.indices() == &self.a_indices[..]
    }
}

/// Sparse LU factors `P·A·Q = L·U` with unit lower-triangular `L`.
#[derive(Debug, Clone)]
pub struct SparseLu {
    /// The structure: permutations and `L`/`U` patterns, shareable between
    /// factors of the same pattern.
    sym: Arc<SymbolicLu>,
    lx: Vec<f64>,
    ux: Vec<f64>,
    udiag: Vec<f64>,
    /// Dense accumulator reused by [`Self::refactor_in_place`]
    /// (kept zeroed between calls).
    scratch: Vec<f64>,
}

impl SparseLu {
    /// Factors a square sparse matrix.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::DimensionMismatch`] for non-square input.
    /// * [`NumericsError::SingularMatrix`] if no acceptable pivot exists in
    ///   some column.
    pub fn factor(a: &CscMatrix, options: LuOptions) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(NumericsError::DimensionMismatch {
                context: format!("SparseLu: matrix is {}x{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let q = match options.ordering {
            Ordering::Natural => (0..n).collect::<Vec<_>>(),
            Ordering::Rcm => rcm_ordering(a)?,
        };

        let mut pinv = vec![NONE; n];
        let nnz_guess = 4 * a.nnz() + n;
        let mut lp = Vec::with_capacity(n + 1);
        let mut li: Vec<usize> = Vec::with_capacity(nnz_guess);
        let mut lx: Vec<f64> = Vec::with_capacity(nnz_guess);
        let mut up = Vec::with_capacity(n + 1);
        let mut ui: Vec<usize> = Vec::with_capacity(nnz_guess);
        let mut ux: Vec<f64> = Vec::with_capacity(nnz_guess);
        let mut udiag = vec![0.0; n];
        lp.push(0);
        up.push(0);

        // Dense workspace and DFS state, reused across columns.
        let mut x = vec![0.0f64; n];
        let mut mark = vec![0u32; n];
        let mut generation = 0u32;
        let mut node_stack: Vec<usize> = Vec::with_capacity(n);
        let mut edge_stack: Vec<usize> = Vec::with_capacity(n);
        let mut post: Vec<usize> = Vec::with_capacity(n);

        for k in 0..n {
            generation += 1;
            post.clear();

            // --- Symbolic: reach of A[:, q[k]] through the graph of L. ---
            let (brows, bvals) = a.col(q[k]);
            for &i in brows {
                if mark[i] != generation {
                    dfs_reach(
                        i,
                        &lp,
                        &li,
                        &pinv,
                        &mut mark,
                        generation,
                        &mut node_stack,
                        &mut edge_stack,
                        &mut post,
                    );
                }
            }

            // --- Numeric: sparse triangular solve x = L \ A[:, q[k]]. ---
            for &i in &post {
                x[i] = 0.0;
            }
            for (&i, &v) in brows.iter().zip(bvals) {
                x[i] = v;
            }
            // `post` is in DFS postorder; topological order is its reverse.
            for &i in post.iter().rev() {
                let col = pinv[i];
                if col == NONE {
                    continue; // not yet pivoted: belongs to L-part, no elimination
                }
                let xi = x[i];
                if xi == 0.0 {
                    continue;
                }
                let (l0, l1) = (lp[col], lp[col + 1]);
                for (&r, &l) in li[l0..l1].iter().zip(&lx[l0..l1]) {
                    // SAFETY: every stored L row index is < n = x.len().
                    // Each was pushed from an earlier column's `post`,
                    // whose nodes `dfs_reach` all indexed into the
                    // length-n `mark` with bounds checks.
                    unsafe { *x.get_unchecked_mut(r) -= l * xi };
                }
            }

            // --- Pivot selection among unpivoted rows. ---
            let mut max_val = 0.0f64;
            let mut max_row = NONE;
            for &i in &post {
                if pinv[i] == NONE {
                    let v = x[i].abs();
                    if v > max_val {
                        max_val = v;
                        max_row = i;
                    }
                }
            }
            if max_row == NONE || max_val <= PIVOT_ABS_MIN {
                return Err(NumericsError::SingularMatrix {
                    index: k,
                    pivot: max_val,
                });
            }
            // Prefer the "diagonal" row (original row q[k]) when acceptable:
            // keeps near-symmetric patterns banded under RCM. The row must
            // be part of this column's reach (`mark` check): `x` holds
            // stale values outside `post`, and a stale-valued pivot would
            // silently produce a factorisation of the wrong matrix.
            let diag_row = q[k];
            let mut piv_row = max_row;
            if pinv[diag_row] == NONE
                && mark[diag_row] == generation
                && x[diag_row].abs() >= PIVOT_THRESHOLD * max_val
                && x[diag_row].abs() > PIVOT_ABS_MIN
            {
                piv_row = diag_row;
            }
            let piv_val = x[piv_row];
            pinv[piv_row] = k;
            udiag[k] = piv_val;

            // --- Scatter into U (pivoted rows) and L (unpivoted rows). ---
            // Numerically zero entries are kept: the stored pattern must be
            // the full structural reach so that refactorisation with
            // different values stays exact.
            for &i in &post {
                if i == piv_row {
                    continue;
                }
                let xi = x[i];
                let row = pinv[i];
                if row != NONE {
                    ui.push(row); // factor-space row, final
                    ux.push(xi);
                } else {
                    li.push(i); // original-space row, remapped after the loop
                    lx.push(xi / piv_val);
                }
            }
            lp.push(li.len());
            up.push(ui.len());
        }

        // Remap L row indices from original space to factor space.
        for idx in li.iter_mut() {
            *idx = pinv[*idx];
        }
        // Build p from pinv.
        let mut p = vec![0usize; n];
        for (orig, &fact) in pinv.iter().enumerate() {
            p[fact] = orig;
        }
        // Sort each U column's entries by factor row: ascending row order is
        // the topological elimination order `refactor_in_place` replays.
        // Rows within a column are distinct, so the order is unique.
        let mut column: Vec<(usize, f64)> = Vec::new();
        for k in 0..n {
            let (lo, hi) = (up[k], up[k + 1]);
            if hi - lo > 1 {
                column.clear();
                column.extend(ui[lo..hi].iter().copied().zip(ux[lo..hi].iter().copied()));
                column.sort_unstable_by_key(|&(row, _)| row);
                for ((row, val), &(r, v)) in ui[lo..hi].iter_mut().zip(&mut ux[lo..hi]).zip(&column)
                {
                    *row = r;
                    *val = v;
                }
            }
        }
        // The kernel invariant (module docs): the unchecked accumulator
        // updates of `refactor_in_place` and `solve` rely on it, and the
        // `SymbolicLu` built below is never mutated.
        assert!(
            li.iter().chain(&ui).all(|&i| i < n),
            "SparseLu::factor: stored L/U row index out of range"
        );
        Ok(SparseLu {
            sym: Arc::new(SymbolicLu {
                n,
                a_indptr: a.indptr().to_vec(),
                a_indices: a.indices().to_vec(),
                lp,
                li,
                up,
                ui,
                p,
                pinv,
                q,
            }),
            lx,
            ux,
            udiag,
            scratch: vec![0.0; n],
        })
    }

    /// Overwrites this factor's values from `a`, which must have exactly
    /// the pattern of the originally factored matrix. Reuses the recorded
    /// permutations and elimination patterns: no ordering, no DFS reach, no
    /// pivot search, and no allocation — only the numeric sparse triangular
    /// solves. This is the Newton hot path.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::InvalidArgument`] if `a`'s pattern differs from
    ///   the factored pattern (the factor is left unchanged).
    /// * [`NumericsError::SingularMatrix`] if a recorded pivot vanishes for
    ///   the new values (relative to its column — see
    ///   [`REFACTOR_REL_THRESHOLD`]). The new matrix may still be
    ///   factorable under a different pivot order, so callers should retry
    ///   with a full [`SparseLu::factor`]. The factor's values are
    ///   unspecified after this error.
    pub fn refactor_in_place(&mut self, a: &CscMatrix) -> Result<()> {
        if !self.sym.matches(a) {
            return Err(NumericsError::InvalidArgument {
                context: format!(
                    "SparseLu::refactor_in_place: pattern of {}x{} matrix (nnz {}) differs \
                     from the factored pattern",
                    a.rows(),
                    a.cols(),
                    a.nnz()
                ),
            });
        }
        let SparseLu {
            sym,
            lx,
            ux,
            udiag,
            scratch,
        } = self;
        let sym: &SymbolicLu = sym;
        let n = sym.n;
        let x = &mut scratch[..n];
        debug_assert!(x.iter().all(|&v| v == 0.0), "scratch not cleared");
        for k in 0..n {
            let (u0, u1) = (sym.up[k], sym.up[k + 1]);
            let (l0, l1) = (sym.lp[k], sym.lp[k + 1]);
            // Scatter A[:, q[k]] into factor space. Every position lies in
            // {k} ∪ U-pattern(k) ∪ L-pattern(k): the stored pattern is the
            // full structural reach of this column.
            let (rows, vals) = a.col(sym.q[k]);
            for (&i, &v) in rows.iter().zip(vals) {
                x[sym.pinv[i]] += v;
            }
            // Left-looking elimination over the recorded U pattern.
            // Ascending factor-row order is topological (L is strictly
            // lower), so each x[i] is final when read.
            for (&i, u) in sym.ui[u0..u1].iter().zip(&mut ux[u0..u1]) {
                let xi = x[i];
                *u = xi;
                if xi != 0.0 {
                    let (i0, i1) = (sym.lp[i], sym.lp[i + 1]);
                    for (&r, &l) in sym.li[i0..i1].iter().zip(&lx[i0..i1]) {
                        // SAFETY: every stored L/U row index is < n =
                        // x.len() (asserted in `factor`; the structure is
                        // immutable since).
                        unsafe { *x.get_unchecked_mut(r) -= l * xi };
                    }
                }
            }
            // Vanished-pivot detection, relative to the column's pivot
            // candidates (the diagonal plus the recorded L pattern).
            let piv = x[k];
            let mut colmax = piv.abs();
            for &r in &sym.li[l0..l1] {
                colmax = colmax.max(x[r].abs());
            }
            let vanish = PIVOT_ABS_MIN.max(REFACTOR_REL_THRESHOLD * colmax);
            if piv.abs() <= vanish || piv.is_nan() {
                // Clear the touched entries so the scratch stays zeroed
                // for the next attempt, then report the vanished pivot.
                x[k] = 0.0;
                for &i in sym.ui[u0..u1].iter().chain(&sym.li[l0..l1]) {
                    x[i] = 0.0;
                }
                return Err(NumericsError::SingularMatrix {
                    index: k,
                    pivot: piv.abs(),
                });
            }
            udiag[k] = piv;
            // Re-zero the touched entries for the next column, taking the
            // L multipliers on the way. L rows are distinct from k and
            // from the U rows, so zeroing those first leaves every
            // multiplier's entry intact.
            x[k] = 0.0;
            for &i in &sym.ui[u0..u1] {
                // SAFETY: every stored L/U row index is < n = x.len()
                // (asserted in `factor`; the structure is immutable since).
                unsafe { *x.get_unchecked_mut(i) = 0.0 };
            }
            for (&r, l) in sym.li[l0..l1].iter().zip(&mut lx[l0..l1]) {
                // SAFETY: as above — every stored L/U row index is < n.
                let xr = unsafe { x.get_unchecked_mut(r) };
                *l = *xr / piv;
                *xr = 0.0;
            }
        }
        Ok(())
    }

    /// A shared handle to the symbolic structure, for spawning further
    /// same-pattern factors without copying it
    /// (see [`SymbolicLu::refactor_shared`]).
    pub fn symbolic_shared(&self) -> Arc<SymbolicLu> {
        Arc::clone(&self.sym)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// Total stored entries in `L` and `U` (fill diagnostic).
    pub fn nnz(&self) -> usize {
        self.sym.nnz()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let sym = &self.sym;
        assert_eq!(b.len(), sym.n, "SparseLu::solve: dimension mismatch");
        let n = sym.n;
        // x = P·b.
        let mut x: Vec<f64> = sym.p.iter().map(|&pi| b[pi]).collect();
        let x = &mut x[..n];
        // Forward: L·y = x (unit diagonal; column-oriented scatter).
        for k in 0..n {
            let xk = x[k];
            if xk != 0.0 {
                let (l0, l1) = (sym.lp[k], sym.lp[k + 1]);
                for (&r, &l) in sym.li[l0..l1].iter().zip(&self.lx[l0..l1]) {
                    // SAFETY: every stored L/U row index is < n = x.len()
                    // (asserted in `factor`; the structure is immutable
                    // since).
                    unsafe { *x.get_unchecked_mut(r) -= l * xk };
                }
            }
        }
        // Backward: U·z = y.
        for k in (0..n).rev() {
            x[k] /= self.udiag[k];
            let xk = x[k];
            if xk != 0.0 {
                let (u0, u1) = (sym.up[k], sym.up[k + 1]);
                for (&r, &u) in sym.ui[u0..u1].iter().zip(&self.ux[u0..u1]) {
                    // SAFETY: as above — every stored L/U row index is < n.
                    unsafe { *x.get_unchecked_mut(r) -= u * xk };
                }
            }
        }
        // Undo column permutation: out[q[k]] = z[k].
        let mut out = vec![0.0; n];
        for (&qk, &zk) in sym.q.iter().zip(x.iter()) {
            out[qk] = zk;
        }
        out
    }
}

/// Iterative depth-first search over the graph of `L`, collecting reached
/// nodes in postorder.
#[allow(clippy::too_many_arguments)]
fn dfs_reach(
    start: usize,
    lp: &[usize],
    li: &[usize],
    pinv: &[usize],
    mark: &mut [u32],
    generation: u32,
    node_stack: &mut Vec<usize>,
    edge_stack: &mut Vec<usize>,
    post: &mut Vec<usize>,
) {
    node_stack.clear();
    edge_stack.clear();
    node_stack.push(start);
    edge_stack.push(0);
    mark[start] = generation;
    while let Some(&node) = node_stack.last() {
        let col = pinv[node];
        let (lo, hi) = if col == NONE {
            (0, 0)
        } else {
            (lp[col], lp[col + 1])
        };
        let e = edge_stack.last_mut().expect("stacks in sync");
        let rest = &li[lo + *e..hi];
        match rest.iter().position(|&child| mark[child] != generation) {
            Some(off) => {
                let child = rest[off];
                *e += off + 1;
                mark[child] = generation;
                node_stack.push(child);
                edge_stack.push(0);
            }
            None => {
                post.push(node);
                node_stack.pop();
                edge_stack.pop();
            }
        }
    }
}

/// Reverse Cuthill–McKee ordering on the symmetrised pattern of `a`.
///
/// Returns a permutation `q` such that column `k` of the reordered matrix is
/// original column `q[k]`. Disconnected components are each started from a
/// minimum-degree node.
///
/// # Errors
///
/// Returns [`NumericsError::DimensionMismatch`] for non-square input.
pub fn rcm_ordering(a: &CscMatrix) -> Result<Vec<usize>> {
    let adj = a.symmetrized_adjacency()?;
    let n = adj.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut frontier: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    // Nodes sorted by degree: candidate BFS roots.
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&i| adj[i].len());
    for &root in &by_degree {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        frontier.push_back(root);
        while let Some(u) = frontier.pop_front() {
            order.push(u);
            let mut children: Vec<usize> =
                adj[u].iter().copied().filter(|&v| !visited[v]).collect();
            children.sort_by_key(|&v| adj[v].len());
            for v in children {
                visited[v] = true;
                frontier.push_back(v);
            }
        }
    }
    order.reverse();
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use crate::vector::{norm_inf, sub};
    use proptest::prelude::*;

    fn solve_and_check(t: &Triplets, b: &[f64], opts: LuOptions) {
        let a = t.to_csc();
        let lu = SparseLu::factor(&a, opts).expect("factor");
        let x = lu.solve(b);
        let r = sub(&a.matvec(&x), b);
        let scale = norm_inf(b).max(1.0);
        assert!(
            norm_inf(&r) < 1e-9 * scale,
            "residual too large: {}",
            norm_inf(&r)
        );
    }

    fn tridiag(n: usize) -> Triplets {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
                t.push(i - 1, i, -1.5);
            }
        }
        t
    }

    #[test]
    fn solves_tridiagonal_natural() {
        let t = tridiag(50);
        let b: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        solve_and_check(
            &t,
            &b,
            LuOptions {
                ordering: Ordering::Natural,
            },
        );
    }

    #[test]
    fn solves_tridiagonal_rcm() {
        let t = tridiag(50);
        let b: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).cos()).collect();
        solve_and_check(&t, &b, LuOptions::default());
    }

    #[test]
    fn handles_permutation_matrix() {
        // Anti-diagonal: needs pivoting away from zero diagonal.
        let n = 5;
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, n - 1 - i, (i + 1) as f64);
        }
        let b = vec![1.0; n];
        solve_and_check(&t, &b, LuOptions::default());
    }

    #[test]
    fn singular_detected() {
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        // column 2 entirely empty
        let a = t.to_csc();
        match SparseLu::factor(&a, LuOptions::default()) {
            Err(NumericsError::SingularMatrix { .. }) => {}
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn rank_deficient_detected() {
        // Two identical columns.
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 1, 2.0);
        assert!(SparseLu::factor(&t.to_csc(), LuOptions::default()).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let t = Triplets::new(2, 3);
        assert!(matches!(
            SparseLu::factor(&t.to_csc(), LuOptions::default()),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn grid_laplacian_2d() {
        // 2-D periodic grid stencil: the structural shape of MPDE Jacobians.
        let (n1, n2) = (8, 6);
        let n = n1 * n2;
        let mut t = Triplets::new(n, n);
        for j in 0..n2 {
            for i in 0..n1 {
                let me = j * n1 + i;
                t.push(me, me, 4.2);
                t.push(me, j * n1 + (i + 1) % n1, -1.0);
                t.push(me, j * n1 + (i + n1 - 1) % n1, -1.0);
                t.push(me, ((j + 1) % n2) * n1 + i, -1.0);
                t.push(me, ((j + n2 - 1) % n2) * n1 + i, -1.0);
            }
        }
        let b: Vec<f64> = (0..n).map(|k| ((k * 37 % 11) as f64) - 5.0).collect();
        solve_and_check(&t, &b, LuOptions::default());
    }

    #[test]
    fn rcm_is_permutation() {
        let a = tridiag(20).to_csc();
        let q = rcm_ordering(&a).expect("rcm");
        let mut seen = [false; 20];
        for &c in &q {
            assert!(!seen[c], "duplicate column in ordering");
            seen[c] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rcm_reduces_bandwidth_on_shuffled_band() {
        // A banded matrix with shuffled labels: RCM should recover a narrow band.
        let n = 30;
        let shuffle: Vec<usize> = (0..n).map(|i| (i * 17) % n).collect();
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(shuffle[i], shuffle[i], 4.0);
            if i > 0 {
                t.push(shuffle[i], shuffle[i - 1], -1.0);
                t.push(shuffle[i - 1], shuffle[i], -1.0);
            }
        }
        let a = t.to_csc();
        let lu_nat = SparseLu::factor(
            &a,
            LuOptions {
                ordering: Ordering::Natural,
            },
        )
        .expect("factor natural");
        let lu_rcm = SparseLu::factor(&a, LuOptions::default()).expect("factor rcm");
        assert!(
            lu_rcm.nnz() <= lu_nat.nnz(),
            "rcm fill {} > natural fill {}",
            lu_rcm.nnz(),
            lu_nat.nnz()
        );
    }

    /// Asserts that a numeric-only refactorisation of `t2` (same pattern as
    /// `t1`) solves as accurately as a from-scratch factorisation.
    fn check_refactor_equivalence(t1: &Triplets, t2: &Triplets, b: &[f64]) {
        let a1 = t1.to_csc();
        let a2 = t2.to_csc();
        let mut lu = SparseLu::factor(&a1, LuOptions::default()).expect("factor a1");
        let fresh = SparseLu::factor(&a2, LuOptions::default()).expect("factor a2");
        lu.refactor_in_place(&a2).expect("refactor");
        let x_re = lu.solve(b);
        let x_fresh = fresh.solve(b);
        let scale = norm_inf(&x_fresh).max(1.0);
        for (xr, xf) in x_re.iter().zip(&x_fresh) {
            assert!(
                (xr - xf).abs() < 1e-12 * scale,
                "refactor vs factor solutions differ: {xr} vs {xf}"
            );
        }
        // And the refactored solve truly solves A2.
        let r = sub(&a2.matvec(&x_re), b);
        assert!(norm_inf(&r) < 1e-9 * norm_inf(b).max(1.0));
        // The symbolic API produces the same numeric factor.
        let from_sym = lu
            .symbolic_shared()
            .refactor_shared(&a2)
            .expect("symbolic refactor");
        let x_sym = from_sym.solve(b);
        for (xs, xr) in x_sym.iter().zip(&x_re) {
            assert!((xs - xr).abs() < 1e-14 * scale);
        }
    }

    /// Same positions as `t`, values transformed by `f(row, col, v)`.
    fn remap_values(t: &Triplets, f: impl Fn(usize, usize, f64) -> f64) -> Triplets {
        let mut out = Triplets::new(t.rows(), t.cols());
        let csr = t.to_csr();
        for i in 0..t.rows() {
            let (cols, vals) = csr.row(i);
            for (c, v) in cols.iter().zip(vals) {
                out.push(i, *c, f(i, *c, *v));
            }
        }
        out
    }

    #[test]
    fn refactor_matches_factor_tridiagonal() {
        let t1 = tridiag(60);
        let t2 = remap_values(&t1, |i, j, v| v * (1.0 + 0.05 * ((i + 2 * j) as f64).sin()));
        let b: Vec<f64> = (0..60).map(|i| (i as f64 * 0.9).cos()).collect();
        check_refactor_equivalence(&t1, &t2, &b);
    }

    #[test]
    fn refactor_matches_factor_shuffled_band() {
        let n = 40;
        let shuffle: Vec<usize> = (0..n).map(|i| (i * 17) % n).collect();
        let mut t1 = Triplets::new(n, n);
        for i in 0..n {
            t1.push(shuffle[i], shuffle[i], 4.0 + 0.1 * i as f64);
            if i > 0 {
                t1.push(shuffle[i], shuffle[i - 1], -1.0);
                t1.push(shuffle[i - 1], shuffle[i], -1.3);
            }
        }
        let t2 = remap_values(&t1, |i, _, v| v + 0.01 * (i as f64 + 1.0));
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 2.0).collect();
        check_refactor_equivalence(&t1, &t2, &b);
    }

    /// MNA-style system with structurally zero diagonals (voltage-source
    /// branch rows): refactor must reproduce the off-diagonal pivoting.
    fn mna_zero_diag(g: f64, scale: f64) -> Triplets {
        // Nodes 0,1 with conductances, branch current unknown 2 enforcing
        // v0 = V via a source row with zero diagonal.
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, g);
        t.push(0, 1, -g);
        t.push(1, 0, -g);
        t.push(1, 1, g + 0.5 * scale);
        t.push(0, 2, 1.0); // branch current into node 0
        t.push(2, 0, 1.0); // v0 = V row, zero diagonal
        t
    }

    #[test]
    fn refactor_matches_factor_mna_zero_diagonal() {
        let t1 = mna_zero_diag(1e-3, 1.0);
        let t2 = mna_zero_diag(2.7e-3, 3.0);
        let b = vec![0.0, 1e-3, 5.0];
        check_refactor_equivalence(&t1, &t2, &b);
    }

    #[test]
    fn refactor_matches_factor_grid_value_change() {
        // Same-pattern, value-changed 2-D periodic grid (the MPDE shape).
        let (n1, n2) = (8, 6);
        let n = n1 * n2;
        let mut t1 = Triplets::new(n, n);
        for j in 0..n2 {
            for i in 0..n1 {
                let me = j * n1 + i;
                t1.push(me, me, 4.2);
                t1.push(me, j * n1 + (i + 1) % n1, -1.0);
                t1.push(me, j * n1 + (i + n1 - 1) % n1, -1.0);
                t1.push(me, ((j + 1) % n2) * n1 + i, -1.0);
                t1.push(me, ((j + n2 - 1) % n2) * n1 + i, -1.0);
            }
        }
        let t2 = remap_values(&t1, |i, j, v| {
            if i == j {
                v + 1.0 + (i as f64 * 0.1).sin()
            } else {
                v * 0.8
            }
        });
        let b: Vec<f64> = (0..n).map(|k| ((k * 37 % 11) as f64) - 5.0).collect();
        check_refactor_equivalence(&t1, &t2, &b);
    }

    #[test]
    fn refactor_repeated_reuse_stays_exact() {
        // Many refactor cycles on one factor object: no state leaks between
        // calls (the scratch accumulator must come back zeroed).
        let t = tridiag(30);
        let a0 = t.to_csc();
        let mut lu = SparseLu::factor(&a0, LuOptions::default()).expect("factor");
        let b: Vec<f64> = (0..30).map(|i| (i as f64).sin()).collect();
        for step in 1..6 {
            let tk = remap_values(&t, |i, _, v| {
                v * (1.0 + 0.1 * step as f64 + 0.01 * i as f64)
            });
            let ak = tk.to_csc();
            lu.refactor_in_place(&ak).expect("refactor");
            let x = lu.solve(&b);
            let r = sub(&ak.matvec(&x), &b);
            assert!(
                norm_inf(&r) < 1e-9,
                "step {step}: residual {}",
                norm_inf(&r)
            );
        }
    }

    #[test]
    fn refactor_rejects_different_pattern() {
        let t1 = tridiag(10);
        let mut lu = SparseLu::factor(&t1.to_csc(), LuOptions::default()).expect("factor");
        let mut t2 = tridiag(10);
        t2.push(0, 9, 0.5); // extra entry: different pattern
        assert!(matches!(
            lu.refactor_in_place(&t2.to_csc()),
            Err(NumericsError::InvalidArgument { .. })
        ));
        // The factor is untouched and still solves the original system.
        let b = vec![1.0; 10];
        let x = lu.solve(&b);
        let r = sub(&t1.to_csc().matvec(&x), &b);
        assert!(norm_inf(&r) < 1e-9);
    }

    #[test]
    fn refactor_reports_vanished_pivot() {
        // Same pattern, but the new values make the matrix singular under
        // the recorded pivot order: refactor must error cleanly (and the
        // object must survive for a subsequent full factor).
        let mut t1 = Triplets::new(2, 2);
        t1.push(0, 0, 1.0);
        t1.push(0, 1, 2.0);
        t1.push(1, 0, 3.0);
        t1.push(1, 1, 4.0);
        let mut lu = SparseLu::factor(&t1.to_csc(), LuOptions::default()).expect("factor");
        // Rank-1 values on the same pattern.
        let mut t2 = Triplets::new(2, 2);
        t2.push(0, 0, 1.0);
        t2.push(0, 1, 2.0);
        t2.push(1, 0, 2.0);
        t2.push(1, 1, 4.0);
        match lu.refactor_in_place(&t2.to_csc()) {
            Err(NumericsError::SingularMatrix { pivot, .. }) => {
                assert!(pivot.abs() < 1e-12, "vanished pivot reported: {pivot}");
            }
            other => panic!("expected SingularMatrix, got {other:?}"),
        }
        // Recovery path: refactor with good values works again.
        lu.refactor_in_place(&t1.to_csc()).expect("refactor back");
        let x = lu.solve(&[5.0, 11.0]);
        assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn relatively_vanished_pivot_reports_singular() {
        // A pivot far above the absolute floor (1e-300) but tiny against its column
        // has vanished: the refactor reports it, and a full factor
        // recovers by repivoting.
        let t1 = tridiag(8);
        let mut lu = SparseLu::factor(&t1.to_csc(), natural_opts()).expect("factor");
        let t2 = remap_values(&t1, |i, j, v| if i == 0 && j == 0 { 1e-9 } else { v });
        match lu.refactor_in_place(&t2.to_csc()) {
            Err(NumericsError::SingularMatrix { index, pivot }) => {
                assert_eq!((index, pivot), (0, 1e-9));
            }
            other => panic!("expected a vanished pivot, got {other:?}"),
        }
        let lu = SparseLu::factor(&t2.to_csc(), natural_opts()).expect("fallback");
        let b = vec![1.0; 8];
        let r = sub(&t2.to_csc().matvec(&lu.solve(&b)), &b);
        assert!(norm_inf(&r) < 1e-9);
    }

    #[test]
    fn badly_scaled_rows_do_not_trip_detection() {
        // mA-scale stamps against kΩ-scale stamps in separate dense
        // blocks: pivots live at wildly different absolute magnitudes,
        // but each is healthy *relative to its own column*, so the
        // refresh keeps the recorded pivots.
        let t1 = dense_blocks(3, 2, 3);
        let scale = |i: usize| if i < 3 { 1e-6 } else { 1e3 };
        let t1 = remap_values(&t1, |i, _, v| v * scale(i));
        let mut lu = SparseLu::factor(&t1.to_csc(), natural_opts()).expect("factor");
        let t2 = remap_values(&t1, |i, j, v| v * (1.0 + 0.05 * ((i + 2 * j) as f64).sin()));
        lu.refactor_in_place(&t2.to_csc()).expect("refresh");
        let b = vec![1.0; 6];
        let fresh = SparseLu::factor(&t2.to_csc(), natural_opts()).expect("fresh");
        assert_solutions_match_1e12(&lu.solve(&b), &fresh.solve(&b));
    }

    #[test]
    fn symbolic_structures_are_send_and_sync() {
        // The sweep engine moves workspaces (and with them factors and
        // shared symbolic structures) across worker threads; this must
        // stay true by construction.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SymbolicLu>();
        assert_send_sync::<Arc<SymbolicLu>>();
        assert_send_sync::<SparseLu>();
    }

    #[test]
    fn symbolic_analyze_reports_structure() {
        let t = tridiag(20);
        let a = t.to_csc();
        let lu = SparseLu::factor(&a, LuOptions::default()).expect("factor");
        let sym = lu.symbolic_shared();
        assert!(sym.matches(&a));
        assert!(sym.nnz() >= a.nnz());
        let other = tridiag(21).to_csc();
        assert!(!sym.matches(&other));
    }

    /// Random diagonally dominant matrix with a dense first column (so a
    /// vanished leading pivot always leaves an alternative pivot row) and a
    /// deterministic value stream for refreshes.
    fn random_dominant_full_col0(seed: u64, n: usize) -> (Triplets, impl FnMut() -> f64) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            let mut offdiag = 0.0;
            if i > 0 {
                let v = next() - 0.5;
                t.push(i, 0, v);
                offdiag += v.abs();
            }
            for _ in 0..3 {
                let j = 1 + (next() * (n - 1) as f64) as usize % (n - 1);
                if j != i {
                    let v = next() * 2.0 - 1.0;
                    t.push(i, j, v);
                    offdiag += v.abs();
                }
            }
            t.push(i, i, offdiag + 1.0 + next());
        }
        (t, next)
    }

    fn natural_opts() -> LuOptions {
        LuOptions {
            ordering: Ordering::Natural,
        }
    }

    /// Block-diagonal matrix of dense, diagonally dominant `bs × bs`
    /// blocks.
    fn dense_blocks(seed: u64, nblocks: usize, bs: usize) -> Triplets {
        let mut state = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(0x2545F4914F6CDD1D);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = nblocks * bs;
        let mut t = Triplets::new(n, n);
        for blk in 0..nblocks {
            let base = blk * bs;
            for i in 0..bs {
                let mut offdiag = 0.0;
                for j in 0..bs {
                    if i != j {
                        let v = next() * 2.0 - 1.0;
                        t.push(base + i, base + j, v);
                        offdiag += v.abs();
                    }
                }
                t.push(base + i, base + i, offdiag + 1.0 + next());
            }
        }
        t
    }

    /// `x_re` must match `x_fresh` to 1e-12 relative to the solution scale.
    fn assert_solutions_match_1e12(x_re: &[f64], x_fresh: &[f64]) {
        let scale = norm_inf(x_fresh).max(1.0);
        for (r, f) in x_re.iter().zip(x_fresh) {
            assert!(
                (r - f).abs() < 1e-12 * scale,
                "refactor vs fresh factor differ beyond 1e-12: {r} vs {f}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_refactor_tracks_fresh_factor_across_refreshes(seed in 0u64..10_000) {
            // Satellite property: over a fixed pattern, every random value
            // refresh refactored in place must solve within 1e-12 of a
            // from-scratch factorisation of the same values — and a refresh
            // that vanishes the recorded pivot must take the documented
            // error + full-refactor fallback path and then keep working.
            let n = 18;
            let (t1, mut next) = random_dominant_full_col0(seed, n);
            // Natural ordering pins factor column 0 to original column 0,
            // whose recorded pivot is the dominant diagonal — so zeroing
            // (0,0) later vanishes that pivot deterministically.
            let opts = LuOptions {
                ordering: Ordering::Natural,
            };
            let mut lu = SparseLu::factor(&t1.to_csc(), opts).expect("factor");
            let b: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
            for _refresh in 0..4 {
                let shift = next() + 0.5;
                let gain = 0.5 + next();
                let tk = remap_values(&t1, |i, j, v| {
                    if i == j { v * gain + shift } else { v * gain }
                });
                let ak = tk.to_csc();
                lu.refactor_in_place(&ak).expect("refactor");
                let fresh = SparseLu::factor(&ak, opts).expect("fresh factor");
                assert_solutions_match_1e12(&lu.solve(&b), &fresh.solve(&b));
            }
            // Vanishing-pivot refresh: kill the recorded column-0 pivot.
            // The refactor must report it at column 0.
            let tv = remap_values(&t1, |i, j, v| if i == 0 && j == 0 { 0.0 } else { v });
            let av = tv.to_csc();
            match lu.refactor_in_place(&av) {
                Err(NumericsError::SingularMatrix { index, pivot }) => {
                    prop_assert_eq!(index, 0);
                    prop_assert!(pivot.abs() < 1e-300);
                }
                other => panic!("expected a vanished pivot, got {other:?}"),
            }
            // The fallback a caller performs: full factorisation, free to
            // repivot away from the vanished diagonal.
            lu = SparseLu::factor(&av, opts).expect("fallback full factor");
            let x = lu.solve(&b);
            let r = sub(&av.matvec(&x), &b);
            prop_assert!(norm_inf(&r) < 1e-9 * norm_inf(&b).max(1.0));
            // And the recovered factor keeps tracking fresh factorisations
            // on its (new) recorded pattern through further refreshes.
            let tb = remap_values(&tv, |i, j, v| {
                if i == j { v * 1.25 + 0.25 } else { v * 0.75 }
            });
            let ab = tb.to_csc();
            lu.refactor_in_place(&ab).expect("refactor after fallback");
            let fresh = SparseLu::factor(&ab, opts).expect("fresh factor");
            assert_solutions_match_1e12(&lu.solve(&b), &fresh.solve(&b));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_refactor_matches_factor(seed in 0u64..200) {
            let n = 20;
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut t1 = Triplets::new(n, n);
            for i in 0..n {
                let mut offdiag = 0.0;
                for _ in 0..3 {
                    let j = (next() * n as f64) as usize % n;
                    if j != i {
                        let v = next() * 2.0 - 1.0;
                        t1.push(i, j, v);
                        offdiag += v.abs();
                    }
                }
                t1.push(i, i, offdiag + 1.0 + next());
            }
            let t2 = remap_values(&t1, |i, j, v| {
                if i == j { v + 0.5 } else { v * 0.9 }
            });
            let b: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
            let a2 = t2.to_csc();
            let mut lu = SparseLu::factor(&t1.to_csc(), LuOptions::default()).expect("factor");
            lu.refactor_in_place(&a2).expect("refactor");
            let x = lu.solve(&b);
            let r = sub(&a2.matvec(&x), &b);
            prop_assert!(norm_inf(&r) < 1e-9);
        }

        #[test]
        fn prop_random_dominant_systems(seed in 0u64..500) {
            let n = 25;
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut t = Triplets::new(n, n);
            for i in 0..n {
                let mut offdiag_sum = 0.0;
                for _ in 0..4 {
                    let j = (next() * n as f64) as usize % n;
                    if j != i {
                        let v = next() * 2.0 - 1.0;
                        t.push(i, j, v);
                        offdiag_sum += v.abs();
                    }
                }
                t.push(i, i, offdiag_sum + 1.0 + next());
            }
            let b: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
            let a = t.to_csc();
            let lu = SparseLu::factor(&a, LuOptions::default()).expect("factor");
            let x = lu.solve(&b);
            let r = sub(&a.matvec(&x), &b);
            prop_assert!(norm_inf(&r) < 1e-9);
        }

        #[test]
        fn prop_matches_dense_solver(seed in 0u64..200) {
            let n = 8;
            let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            };
            let mut t = Triplets::new(n, n);
            for i in 0..n {
                for j in 0..n {
                    if next() > 0.2 {
                        t.push(i, j, next());
                    }
                }
                t.push(i, i, 5.0);
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let a = t.to_csc();
            let sparse_x = SparseLu::factor(&a, LuOptions::default()).expect("factor").solve(&b);
            let dense_x = a.to_dense().solve(&b).expect("dense solve");
            for i in 0..n {
                prop_assert!((sparse_x[i] - dense_x[i]).abs() < 1e-8);
            }
        }
    }
}

#[cfg(test)]
mod mna_pivot_regression {
    use super::*;
    use crate::sparse::Triplets;
    use crate::vector::{norm_inf, sub};

    /// The balanced-mixer DC Jacobian that exposed a pivoting bug: with
    /// threshold diagonal preference, the preferred row must be part of the
    /// column's reach — the dense workspace holds stale values outside it,
    /// and a stale-valued pivot silently factors the wrong matrix.
    fn mixer_dc_jacobian() -> Triplets {
        let entries: &[(usize, usize, f64)] = &[
            (0, 0, 2.0e-3),
            (1, 0, -1.0e-3),
            (2, 0, -1.0e-3),
            (9, 0, 1.0),
            (0, 1, -1.0e-3),
            (1, 1, 1.0424e-3),
            (3, 1, -4.239969e-5),
            (0, 2, -1.0e-3),
            (2, 2, 1.021714e-3),
            (3, 2, -2.171433e-5),
            (1, 3, -5.108931e-3),
            (2, 3, -3.720911e-3),
            (3, 3, 8.894128e-3),
            (3, 4, 5.425287e-3),
            (10, 4, 1.0),
            (3, 5, 5.425287e-3),
            (11, 5, 1.0),
            (1, 6, 5.066531e-3),
            (3, 6, -5.066531e-3),
            (13, 6, 1.0),
            (2, 7, 3.699197e-3),
            (3, 7, -3.699197e-3),
            (14, 7, 1.0),
            (12, 8, 1.0),
            (13, 8, -1.0),
            (14, 8, -1.0),
            (0, 9, 1.0),
            (4, 10, 1.0),
            (5, 11, 1.0),
            (8, 12, 1.0),
            (6, 13, 1.0),
            (8, 13, -1.0),
            (7, 14, 1.0),
            (8, 14, -1.0),
        ];
        let mut t = Triplets::new(15, 15);
        for &(r, c, v) in entries {
            t.push(r, c, v);
        }
        t
    }

    #[test]
    fn factor_is_exact_on_mna_with_unreachable_diagonal() {
        let a = mixer_dc_jacobian().to_csc();
        let lu = SparseLu::factor(&a, LuOptions::default()).expect("factor");
        let b: Vec<f64> = (0..15).map(|i| (i as f64 * 0.3).sin()).collect();
        let x = lu.solve(&b);
        let r = sub(&a.matvec(&x), &b);
        assert!(
            norm_inf(&r) < 1e-12,
            "factorisation must reproduce A exactly, residual {}",
            norm_inf(&r)
        );
    }

    #[test]
    fn refactor_is_exact_on_mna_with_unreachable_diagonal() {
        let a = mixer_dc_jacobian().to_csc();
        let mut lu = SparseLu::factor(&a, LuOptions::default()).expect("factor");
        lu.refactor_in_place(&a)
            .expect("refactor of identical values");
        let b: Vec<f64> = (0..15).map(|i| (i as f64 * 0.7).cos()).collect();
        let x = lu.solve(&b);
        let r = sub(&a.matvec(&x), &b);
        assert!(norm_inf(&r) < 1e-12, "residual {}", norm_inf(&r));
    }
}

/// Bit-identity oracle for the numeric kernels: plain index-loop
/// `refactor_in_place` and `solve`, every access bounds-checked, in the
/// same floating-point operation order. The tuned kernels must reproduce
/// them bit for bit.
#[cfg(test)]
mod kernel_oracle {
    use super::*;
    use crate::sparse::Triplets;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The reference numeric refactorisation (same contract as
    /// [`SparseLu::refactor_in_place`]).
    fn reference_refactor_in_place(lu: &mut SparseLu, a: &CscMatrix) -> Result<()> {
        if !lu.sym.matches(a) {
            return Err(NumericsError::InvalidArgument {
                context: "reference refactor: pattern differs".into(),
            });
        }
        let SparseLu {
            sym,
            lx,
            ux,
            udiag,
            scratch,
        } = lu;
        let sym: &SymbolicLu = sym;
        let n = sym.n;
        let x = scratch;
        for k in 0..n {
            let (rows, vals) = a.col(sym.q[k]);
            for (&i, &v) in rows.iter().zip(vals) {
                x[sym.pinv[i]] += v;
            }
            for t in sym.up[k]..sym.up[k + 1] {
                let i = sym.ui[t];
                let xi = x[i];
                ux[t] = xi;
                if xi != 0.0 {
                    for idx in sym.lp[i]..sym.lp[i + 1] {
                        x[sym.li[idx]] -= lx[idx] * xi;
                    }
                }
            }
            let piv = x[k];
            let mut colmax = piv.abs();
            for idx in sym.lp[k]..sym.lp[k + 1] {
                colmax = colmax.max(x[sym.li[idx]].abs());
            }
            let vanish = PIVOT_ABS_MIN.max(REFACTOR_REL_THRESHOLD * colmax);
            if piv.abs() <= vanish || piv.is_nan() {
                x[k] = 0.0;
                for t in sym.up[k]..sym.up[k + 1] {
                    x[sym.ui[t]] = 0.0;
                }
                for idx in sym.lp[k]..sym.lp[k + 1] {
                    x[sym.li[idx]] = 0.0;
                }
                return Err(NumericsError::SingularMatrix {
                    index: k,
                    pivot: piv.abs(),
                });
            }
            udiag[k] = piv;
            for idx in sym.lp[k]..sym.lp[k + 1] {
                lx[idx] = x[sym.li[idx]] / piv;
            }
            x[k] = 0.0;
            for t in sym.up[k]..sym.up[k + 1] {
                x[sym.ui[t]] = 0.0;
            }
            for idx in sym.lp[k]..sym.lp[k + 1] {
                x[sym.li[idx]] = 0.0;
            }
        }
        Ok(())
    }

    /// The reference triangular solve (same contract as
    /// [`SparseLu::solve`]).
    fn reference_solve(lu: &SparseLu, b: &[f64]) -> Vec<f64> {
        let sym = &lu.sym;
        let n = sym.n;
        let mut x: Vec<f64> = sym.p.iter().map(|&pi| b[pi]).collect();
        for k in 0..n {
            let xk = x[k];
            if xk != 0.0 {
                for idx in sym.lp[k]..sym.lp[k + 1] {
                    x[sym.li[idx]] -= lu.lx[idx] * xk;
                }
            }
        }
        for k in (0..n).rev() {
            x[k] /= lu.udiag[k];
            let xk = x[k];
            if xk != 0.0 {
                for idx in sym.up[k]..sym.up[k + 1] {
                    x[sym.ui[idx]] -= lu.ux[idx] * xk;
                }
            }
        }
        let mut out = vec![0.0; n];
        for k in 0..n {
            out[sym.q[k]] = x[k];
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Asserts two factors of one structure hold the same bits: pivots,
    /// `L`/`U` values and (zeroed) accumulator.
    fn assert_same_factor(got: &SparseLu, want: &SparseLu) {
        assert_eq!(bits(&got.udiag), bits(&want.udiag), "udiag");
        assert_eq!(bits(&got.lx), bits(&want.lx), "L values");
        assert_eq!(bits(&got.ux), bits(&want.ux), "U values");
        assert_eq!(bits(&got.scratch), bits(&want.scratch), "accumulator");
    }

    /// Deterministic xorshift stream in `[0, 1)`.
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0x51);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A backward-Euler MPDE-shaped Jacobian on an `n1 × n2` periodic grid
    /// of `bs`-unknown points: block row `p` holds `G_p + C_p/h1 + C_p/h2`
    /// at `p` and `−C/h` couplings to its two upstream neighbours. `G` is
    /// dense and dominant; `C` is dense or follows one random pattern
    /// shared by every point. Entries keyed by `(row, col)`.
    fn periodic_grid(
        next: &mut impl FnMut() -> f64,
        bs: usize,
        n1: usize,
        n2: usize,
    ) -> BTreeMap<(usize, usize), f64> {
        let dense_c = next() < 0.5;
        let c_pattern: Vec<bool> = (0..bs * bs)
            .map(|e| dense_c || e % (bs + 1) == 0 || next() < 0.4)
            .collect();
        let (h1, h2) = (0.5 + next(), 0.5 + next());
        let point = |i: usize, j: usize| (j % n2) * n1 + (i % n1);
        let mut entries = BTreeMap::new();
        for j in 0..n2 {
            for i in 0..n1 {
                let p = point(i, j);
                let couplings = [
                    (p, 1.0 / h1 + 1.0 / h2),
                    (point(i + n1 - 1, j), -1.0 / h1),
                    (point(i, j + n2 - 1), -1.0 / h2),
                ];
                for (col_point, coeff) in couplings {
                    for r in 0..bs {
                        for c in 0..bs {
                            if c_pattern[r * bs + c] {
                                let v = coeff * (next() * 2.0 - 1.0);
                                *entries
                                    .entry((p * bs + r, col_point * bs + c))
                                    .or_insert(0.0) += v;
                            }
                        }
                    }
                }
                for r in 0..bs {
                    for c in 0..bs {
                        let v = if r == c {
                            4.0 * bs as f64 + next()
                        } else {
                            next() * 2.0 - 1.0
                        };
                        *entries.entry((p * bs + r, p * bs + c)).or_insert(0.0) += v;
                    }
                }
            }
        }
        entries
    }

    fn to_csc(n: usize, entries: &BTreeMap<(usize, usize), f64>) -> CscMatrix {
        let mut t = Triplets::new(n, n);
        for (&(r, c), &v) in entries {
            t.push(r, c, v);
        }
        t.to_csc()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_kernels_match_reference_bit_for_bit(seed in 0u64..1_000_000) {
            let mut next = rng(seed);
            let bs = 2 + (next() * 5.0) as usize;
            let n1 = 2 + (next() * 7.0) as usize;
            let n2 = 2 + (next() * 5.0) as usize;
            let n = bs * n1 * n2;
            let base = periodic_grid(&mut next, bs, n1, n2);
            let opts = LuOptions {
                ordering: if next() < 0.5 { Ordering::Natural } else { Ordering::Rcm },
            };
            let mut lu = SparseLu::factor(&to_csc(n, &base), opts).expect("dominant grid factors");
            let mut reference = lu.clone();
            let b: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
            prop_assert_eq!(bits(&lu.solve(&b)), bits(&reference_solve(&reference, &b)));
            for _refresh in 0..5 {
                let mut values: BTreeMap<(usize, usize), f64> = base
                    .iter()
                    .map(|(&pos, &v)| (pos, v * (0.6 + 0.8 * next())))
                    .collect();
                // Drive the pivot of one factor column to (near) zero: subtract
                // its current value from the pivot entry, when that entry is
                // stored. Both kernels must agree on the outcome, a vanished
                // pivot included.
                if next() < 0.7 {
                    let mut probe = reference.clone();
                    if reference_refactor_in_place(&mut probe, &to_csc(n, &values)).is_ok() {
                        let k = ((next() * n as f64) as usize).min(n - 1);
                        let pos = (probe.sym.p[k], probe.sym.q[k]);
                        if let Some(v) = values.get_mut(&pos) {
                            *v -= probe.udiag[k];
                        }
                    }
                }
                let a = to_csc(n, &values);
                let got = lu.refactor_in_place(&a);
                let want = reference_refactor_in_place(&mut reference, &a);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                assert_same_factor(&lu, &reference);
                prop_assert_eq!(bits(&lu.solve(&b)), bits(&reference_solve(&reference, &b)));
                if got.is_err() {
                    // A caller's fallback: a fresh factor on the new values.
                    match SparseLu::factor(&a, opts) {
                        Ok(fresh) => {
                            lu = fresh;
                            reference = lu.clone();
                        }
                        Err(_) => break,
                    }
                }
            }
        }
    }

    #[test]
    fn grid_stress_exercises_exchanges_and_refusals() {
        // The property above only bites if its kills really reach the
        // vanished-pivot refusal; count them over a fixed seed set.
        let mut refused = 0usize;
        for seed in 0..40u64 {
            let mut next = rng(seed);
            let (bs, n1, n2) = (2 + (seed % 5) as usize, 4, 3);
            let n = bs * n1 * n2;
            let base = periodic_grid(&mut next, bs, n1, n2);
            let lu = SparseLu::factor(&to_csc(n, &base), LuOptions::default()).expect("factor");
            for k in 0..n {
                let mut values = base.clone();
                let pos = (lu.sym.p[k], lu.sym.q[k]);
                let Some(v) = values.get_mut(&pos) else {
                    continue;
                };
                *v -= lu.udiag[k];
                let a = to_csc(n, &values);
                let mut got = lu.clone();
                let mut want = lu.clone();
                let result = got.refactor_in_place(&a);
                assert_eq!(
                    format!("{result:?}"),
                    format!("{:?}", reference_refactor_in_place(&mut want, &a))
                );
                assert_same_factor(&got, &want);
                if let Err(NumericsError::SingularMatrix { .. }) = result {
                    refused += 1;
                }
            }
        }
        assert!(refused >= 100, "only {refused} kills were refused");
    }
}
