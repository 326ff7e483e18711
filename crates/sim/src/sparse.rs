//! Sparse MNA solver with a symbolic/numeric split.
//!
//! MNA matrices of analog cells are tiny but *very* sparse (a few nonzeros
//! per row) and — crucially — **pattern-stable**: every Newton iteration,
//! AC frequency point, noise point and transient step refactorises a
//! matrix with the exact same sparsity structure, only the numeric values
//! change. The dense kernel in [`crate::num`] pays O(n³) per
//! factorisation regardless; this module splits the work the way
//! production SPICE engines do:
//!
//! * **Symbolic analysis** ([`SparsePattern::build`]) — once per pattern:
//!   a fill-reducing minimum-degree ordering over the symmetrised
//!   structure, the elimination (filled-graph) structure, and preallocated
//!   CSC storage for the L/U factors. Counted by
//!   `sim.matrix.symbolic_analyses`; the factor size is published on the
//!   `sim.sparse.nnz` gauge.
//! * **Numeric refactorisation** ([`SparsePattern::factor`],
//!   [`SparseAcSolver::refactor`]) — per solve: a left-looking column LU
//!   over the cached structure with **no pivoting**, writing into the
//!   preallocated factor arrays. Counted by `sim.matrix.numeric_refactors`
//!   *and* by the universal `sim.matrix.factorizations` work counter.
//!
//! Pivot-free elimination on an MNA matrix is safe because the ordering is
//! **constrained**: node unknowns (whose diagonals carry at least the gmin
//! conductance) are eliminated before voltage-source branch unknowns
//! (whose diagonals are structurally zero but receive fill from their
//! node neighbours). When a pivot still breaks down — a genuinely singular
//! system, or a pathological cancellation the constrained ordering cannot
//! see — the caller falls back to the dense partially-pivoted kernel for
//! that solve (`sim.matrix.sparse_fallbacks`), so error semantics match
//! the dense path exactly.
//!
//! The AC kernel ([`SparseAcSolver`]) additionally stores the complex
//! factors as structure-of-arrays (separate re/im slot arrays): the
//! per-frequency `ω·C` stamp update is one flat multiply over the
//! capacitance slot array, and the elimination inner loops run over
//! parallel `f64` arrays the compiler can vectorise — an entire sweep
//! refactorises one symbolic pattern at many frequencies.

use crate::num::{Complex, Matrix, Scalar, SingularMatrix};
use losac_obs::{Counter, Gauge};
use std::sync::Arc;

/// Symbolic analyses performed (one per distinct pattern lifetime).
static SYMBOLIC_ANALYSES: Counter = Counter::new("sim.matrix.symbolic_analyses");
/// Sparse numeric refactorisations (each also counts as a factorization).
static NUMERIC_REFACTORS: Counter = Counter::new("sim.matrix.numeric_refactors");
/// Sparse solves that broke down and fell back to the dense kernel.
static SPARSE_FALLBACKS: Counter = Counter::new("sim.matrix.sparse_fallbacks");
/// Factor nonzeros (L + U + diagonal) of the most recent symbolic analysis.
static SPARSE_NNZ: Gauge = Gauge::new("sim.sparse.nnz");

pub(crate) fn record_sparse_fallback() {
    SPARSE_FALLBACKS.incr();
}

// ---------------------------------------------------------------------------
// Stamp sink
// ---------------------------------------------------------------------------

/// Sink for MNA matrix stamps, so one assembly routine can fill a dense
/// matrix, collect a sparsity pattern, or restamp cached sparse values.
pub trait MatrixStamp {
    /// Prepare to receive the stamps of an `n × n` assembly.
    fn reset(&mut self, n: usize);
    /// Add `v` to entry (i, j).
    fn stamp(&mut self, i: usize, j: usize, v: f64);
}

impl MatrixStamp for Matrix<f64> {
    fn reset(&mut self, n: usize) {
        if self.n() != n {
            *self = Matrix::zeros(n);
        } else {
            self.clear();
        }
    }
    fn stamp(&mut self, i: usize, j: usize, v: f64) {
        self.add(i, j, v);
    }
}

// ---------------------------------------------------------------------------
// Symbolic analysis
// ---------------------------------------------------------------------------

/// The cached symbolic analysis of one MNA sparsity pattern: the
/// fill-reducing permutation, the A-pattern in permuted CSC form (for
/// scatter and stamping), and the elimination structure of L and U.
#[derive(Debug)]
pub struct SparsePattern {
    n: usize,
    /// `perm[k]` = original index eliminated at step `k` (new → old).
    perm: Vec<usize>,
    /// `iperm[old]` = elimination step of original index (old → new).
    iperm: Vec<usize>,
    /// A-pattern, permuted CSC: column pointers into `a_rows`.
    a_colptr: Vec<usize>,
    /// Permuted row indices per column, ascending.
    a_rows: Vec<usize>,
    /// Strictly-lower factor pattern, permuted CSC.
    l_colptr: Vec<usize>,
    l_rows: Vec<usize>,
    /// Strictly-upper factor pattern by *column*: `u_rows` lists the rows
    /// `k < j` of column `j`, ascending — the left-looking update order.
    u_colptr: Vec<usize>,
    u_rows: Vec<usize>,
}

impl SparsePattern {
    /// Run the symbolic analysis for the structural entries `entries`
    /// (duplicates allowed) of an `n × n` system.
    ///
    /// Unknowns at index `branch_start..` (voltage-source branch
    /// currents, whose diagonals are structurally zero) are constrained
    /// to be eliminated after all node unknowns, so their diagonals have
    /// received fill by the time they pivot. The ordering within each
    /// class is greedy minimum-degree on the symmetrised structure with
    /// lowest-index tie-breaking — fully deterministic.
    pub fn build(n: usize, branch_start: usize, entries: &[(usize, usize)]) -> Self {
        SYMBOLIC_ANALYSES.incr();
        let branch_start = branch_start.min(n);
        // Symmetrised adjacency of the structure (dense bitmap: n is a
        // few dozen, and this runs once per pattern lifetime).
        let mut adj = vec![false; n * n];
        for &(i, j) in entries {
            debug_assert!(i < n && j < n, "entry ({i}, {j}) out of bounds for n = {n}");
            if i != j {
                adj[i * n + j] = true;
                adj[j * n + i] = true;
            }
        }

        // Constrained greedy minimum-degree with explicit fill: at each
        // step eliminate the eligible vertex of minimum degree in the
        // *current* (filled) graph; its surviving neighbours form the
        // column's L pattern and are clique-connected (the fill).
        let mut alive = vec![true; n];
        let mut perm = Vec::with_capacity(n);
        let mut l_of_step: Vec<Vec<usize>> = Vec::with_capacity(n);
        let mut neighbors = Vec::with_capacity(n);
        for _ in 0..n {
            let nodes_left = alive[..branch_start].iter().any(|&a| a);
            let mut best: Option<(usize, usize)> = None; // (degree, index)
            for (i, &ai) in alive.iter().enumerate() {
                if !ai || (nodes_left && i >= branch_start) {
                    continue;
                }
                let deg = adj[i * n..(i + 1) * n]
                    .iter()
                    .zip(&alive)
                    .filter(|(&e, &a)| e && a)
                    .count();
                if best.is_none_or(|(bd, _)| deg < bd) {
                    best = Some((deg, i));
                }
            }
            let (_, p) = best.expect("alive vertex must exist");
            neighbors.clear();
            for (j, &aj) in alive.iter().enumerate() {
                if aj && adj[p * n + j] {
                    neighbors.push(j);
                }
            }
            for &a in &neighbors {
                for &b in &neighbors {
                    if a != b {
                        adj[a * n + b] = true;
                    }
                }
            }
            alive[p] = false;
            perm.push(p);
            l_of_step.push(neighbors.clone());
        }
        let mut iperm = vec![0usize; n];
        for (k, &p) in perm.iter().enumerate() {
            iperm[p] = k;
        }

        // L pattern in permuted indices (every neighbour is eliminated
        // after its pivot, so its permuted index is > the step).
        let mut l_colptr = Vec::with_capacity(n + 1);
        let mut l_rows = Vec::new();
        l_colptr.push(0);
        for cols in &l_of_step {
            let mut rows: Vec<usize> = cols.iter().map(|&c| iperm[c]).collect();
            rows.sort_unstable();
            l_rows.extend_from_slice(&rows);
            l_colptr.push(l_rows.len());
        }

        // U pattern by column, from L's symmetry: k ∈ Ucol(j) ⇔ j ∈ Lcol(k).
        let mut u_cols: Vec<Vec<usize>> = vec![Vec::new(); n];
        for k in 0..n {
            for &r in &l_rows[l_colptr[k]..l_colptr[k + 1]] {
                u_cols[r].push(k); // pushed in ascending k
            }
        }
        let mut u_colptr = Vec::with_capacity(n + 1);
        let mut u_rows = Vec::new();
        u_colptr.push(0);
        for col in &u_cols {
            u_rows.extend_from_slice(col);
            u_colptr.push(u_rows.len());
        }

        // A-pattern in permuted CSC (deduplicated, sorted).
        let mut permuted: Vec<(usize, usize)> = entries
            .iter()
            .map(|&(i, j)| (iperm[j], iperm[i])) // (column, row)
            .collect();
        permuted.sort_unstable();
        permuted.dedup();
        let mut a_colptr = vec![0usize; n + 1];
        let mut a_rows = Vec::with_capacity(permuted.len());
        for &(c, r) in &permuted {
            a_colptr[c + 1] += 1;
            a_rows.push(r);
        }
        for c in 0..n {
            a_colptr[c + 1] += a_colptr[c];
        }

        SPARSE_NNZ.set((l_rows.len() + u_rows.len() + n) as f64);
        Self {
            n,
            perm,
            iperm,
            a_colptr,
            a_rows,
            l_colptr,
            l_rows,
            u_colptr,
            u_rows,
        }
    }

    /// Symbolic analysis from the nonzero structure of dense `G` and
    /// (optionally) `C` matrices — the [`crate::linear::Linearized`]
    /// entry point, where the values are already assembled densely once.
    pub fn from_dense(g: &Matrix<f64>, c: Option<&Matrix<f64>>, branch_start: usize) -> Self {
        let n = g.n();
        let mut entries = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let nz = g.get(i, j) != 0.0 || c.is_some_and(|c| c.get(i, j) != 0.0);
                if nz {
                    entries.push((i, j));
                }
            }
        }
        Self::build(n, branch_start, &entries)
    }

    /// System dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored structural nonzeros of A.
    pub fn nnz(&self) -> usize {
        self.a_rows.len()
    }

    /// Factor nonzeros (L + U + diagonal).
    pub fn factor_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len() + self.n
    }

    /// Value-slot index of original entry (i, j), or `None` if the entry
    /// is not part of the pattern. Slots index the value arrays passed to
    /// [`SparsePattern::factor`] (and [`SparseAcSolver`]'s g/c arrays).
    pub fn slot(&self, i: usize, j: usize) -> Option<usize> {
        let (c, r) = (self.iperm[j], self.iperm[i]);
        let rows = &self.a_rows[self.a_colptr[c]..self.a_colptr[c + 1]];
        rows.binary_search(&r).ok().map(|k| self.a_colptr[c] + k)
    }

    /// Numeric refactorisation: left-looking column LU without pivoting
    /// over the cached structure, reading A's values from `vals` (indexed
    /// by slot, see [`SparsePattern::slot`]) and writing into `f`'s
    /// preallocated factor storage.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] (with the *original* column index) when
    /// a pivot is zero or non-finite. The caller should retry the solve
    /// with the dense pivoted kernel — breakdown without pivoting does
    /// not by itself prove the system singular.
    // The elimination loops walk `u_rows`/`u` and `l_rows`/`l` as parallel
    // arrays sharing one position index; an enumerate() rewrite would split
    // that coupling across adaptors.
    #[allow(clippy::needless_range_loop)]
    pub fn factor<T: Scalar>(
        &self,
        vals: &[T],
        f: &mut SparseFactors<T>,
    ) -> Result<(), SingularMatrix> {
        crate::num::record_factorization();
        NUMERIC_REFACTORS.incr();
        assert_eq!(vals.len(), self.a_rows.len(), "value slot count mismatch");
        f.ensure(self);
        let SparseFactors { l, u, d, work, .. } = f;
        for j in 0..self.n {
            // Scatter A'(:, j); `work` is all-zero outside the pattern.
            for idx in self.a_colptr[j]..self.a_colptr[j + 1] {
                work[self.a_rows[idx]] = vals[idx];
            }
            // Left-looking updates in ascending k; each upper entry is
            // finalised exactly when consumed.
            for pos in self.u_colptr[j]..self.u_colptr[j + 1] {
                let k = self.u_rows[pos];
                let ukj = work[k];
                work[k] = T::zero();
                u[pos] = ukj;
                if ukj != T::zero() {
                    for lp in self.l_colptr[k]..self.l_colptr[k + 1] {
                        work[self.l_rows[lp]] -= l[lp] * ukj;
                    }
                }
            }
            let piv = work[j];
            work[j] = T::zero();
            let mag = piv.magnitude();
            if !(mag.is_finite() && mag > 0.0) {
                // Restore the all-zero work invariant before bailing.
                for lp in self.l_colptr[j]..self.l_colptr[j + 1] {
                    work[self.l_rows[lp]] = T::zero();
                }
                f.factored = false;
                return Err(SingularMatrix {
                    column: self.perm[j],
                });
            }
            d[j] = piv;
            for lp in self.l_colptr[j]..self.l_colptr[j + 1] {
                let i = self.l_rows[lp];
                l[lp] = work[i] / piv;
                work[i] = T::zero();
            }
        }
        f.factored = true;
        Ok(())
    }

    /// Solve `A·x = b` against the factors of the last successful
    /// [`SparsePattern::factor`], handling the fill-reducing permutation
    /// internally (`b` and `x` are in original index order).
    ///
    /// # Panics
    ///
    /// Panics if `f` holds no factorisation or `b.len()` ≠ n.
    pub fn solve_into<T: Scalar>(&self, f: &mut SparseFactors<T>, b: &[T], x: &mut Vec<T>) {
        assert!(f.factored, "no sparse factorisation available");
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let SparseFactors { l, u, d, y, .. } = f;
        y.clear();
        y.extend(self.perm.iter().map(|&p| b[p]));
        for j in 0..self.n {
            let yj = y[j];
            if yj != T::zero() {
                for lp in self.l_colptr[j]..self.l_colptr[j + 1] {
                    y[self.l_rows[lp]] -= l[lp] * yj;
                }
            }
        }
        for j in (0..self.n).rev() {
            let xj = y[j] / d[j];
            y[j] = xj;
            if xj != T::zero() {
                for up in self.u_colptr[j]..self.u_colptr[j + 1] {
                    y[self.u_rows[up]] -= u[up] * xj;
                }
            }
        }
        x.clear();
        x.resize(self.n, T::zero());
        for (k, &p) in self.perm.iter().enumerate() {
            x[p] = y[k];
        }
    }
}

/// Preallocated factor storage for [`SparsePattern::factor`]: L and U
/// values in pattern order, the pivot diagonal, and scatter/solve scratch.
#[derive(Debug, Default)]
pub struct SparseFactors<T> {
    l: Vec<T>,
    u: Vec<T>,
    d: Vec<T>,
    work: Vec<T>,
    y: Vec<T>,
    factored: bool,
}

impl<T: Scalar> SparseFactors<T> {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self {
            l: Vec::new(),
            u: Vec::new(),
            d: Vec::new(),
            work: Vec::new(),
            y: Vec::new(),
            factored: false,
        }
    }

    fn ensure(&mut self, p: &SparsePattern) {
        self.l.resize(p.l_rows.len(), T::zero());
        self.u.resize(p.u_rows.len(), T::zero());
        self.d.resize(p.n, T::zero());
        // `work` must stay all-zero between factorisations; resizing with
        // zero fill preserves that for fresh entries, and the factor loop
        // clears every entry it touches.
        self.work.resize(p.n, T::zero());
    }
}

// ---------------------------------------------------------------------------
// Real Newton system (pattern collection + cached values)
// ---------------------------------------------------------------------------

/// A pattern-cached real sparse system for Newton loops.
///
/// Life cycle: the first assembly runs in *collection* mode (stamps record
/// structure only); [`SparseRealSystem::finalize`] then performs the
/// symbolic analysis **and** converts the recorded stamp sequence into a
/// slot replay list — the assembler emits stamps in a deterministic,
/// pattern-stable order, so every later assembly is a straight cursor
/// walk (`vals[slot_seq[cursor++]] += v`) with no index lookups at all,
/// checked stamp by stamp against the recorded `(i, j)` sequence.
/// The DC/transient Newton loops keep one of these per
/// [`crate::dc::NewtonScratch`], so a whole transient run refactorises a
/// single symbolic pattern.
#[derive(Debug, Default)]
pub struct SparseRealSystem {
    pattern: Option<Arc<SparsePattern>>,
    /// Entry of each stamp of one assembly, in emission order.
    collect: Vec<(usize, usize)>,
    /// Value-slot of each stamp of one assembly, in emission order.
    slot_seq: Vec<u32>,
    /// Position in `slot_seq` during a value assembly.
    cursor: usize,
    n: usize,
    vals: Vec<f64>,
    factors: SparseFactors<f64>,
}

impl SparseRealSystem {
    /// Whether the symbolic analysis has not run yet (the next assembly
    /// is a structure-collection pass).
    pub fn needs_pattern(&self) -> bool {
        self.pattern.is_none()
    }

    /// Like [`Self::needs_pattern`], but also true when the cached
    /// pattern was built for a different unknown count — a reused
    /// [`crate::dc::DcSession`] that moved to another circuit must run a
    /// fresh collection pass, not replay a stale slot sequence.
    pub fn needs_pattern_for(&self, n: usize) -> bool {
        self.pattern.as_ref().is_none_or(|p| p.n() != n)
    }

    /// Run the symbolic analysis on the collected structure; unknowns at
    /// `branch_start..` are eliminated last (see [`SparsePattern::build`]).
    pub fn finalize(&mut self, branch_start: usize) {
        let p = SparsePattern::build(self.n, branch_start, &self.collect);
        self.vals.resize(p.nnz(), 0.0);
        // The collection pass recorded every stamp in emission order;
        // resolve each to its value slot once, here, so value assemblies
        // never search.
        self.slot_seq = self
            .collect
            .iter()
            .map(|&(i, j)| p.slot(i, j).expect("collected entry is in the pattern") as u32)
            .collect();
        self.pattern = Some(Arc::new(p));
    }

    /// Numeric refactorisation of the last-stamped values.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] on pivot breakdown; see
    /// [`SparsePattern::factor`].
    pub fn factor(&mut self) -> Result<(), SingularMatrix> {
        assert_eq!(
            self.cursor,
            self.slot_seq.len(),
            "assembly emitted a different stamp count than the collection \
             pass — assembly is not pattern-stable"
        );
        let p = self.pattern.as_ref().expect("pattern not finalized");
        p.factor(&self.vals, &mut self.factors)
    }

    /// Solve against the last successful [`SparseRealSystem::factor`].
    pub fn solve_into(&mut self, b: &[f64], x: &mut Vec<f64>) {
        let p = self.pattern.as_ref().expect("pattern not finalized");
        p.solve_into(&mut self.factors, b, x);
    }
}

impl MatrixStamp for SparseRealSystem {
    fn reset(&mut self, n: usize) {
        match &self.pattern {
            None => {
                self.n = n;
                self.collect.clear();
            }
            Some(p) if p.n() == n => {
                self.vals.fill(0.0);
                self.cursor = 0;
            }
            Some(_) => {
                // A different unknown count under a cached pattern means the
                // caller reuses this system across circuits (a [`crate::dc::
                // DcSession`] moved on): drop the stale pattern and start a
                // fresh collection pass instead of poisoning the restamp.
                self.pattern = None;
                self.slot_seq.clear();
                self.vals.clear();
                self.cursor = 0;
                self.n = n;
                self.collect.clear();
            }
        }
    }
    fn stamp(&mut self, i: usize, j: usize, v: f64) {
        if self.pattern.is_none() {
            self.collect.push((i, j));
            return;
        }
        // Hot path: replay the recorded slot. The check holds in release
        // builds: a stamp that leaves the collected sequence would
        // otherwise be added into another entry's slot.
        let k = self.cursor;
        assert!(
            self.collect.get(k) == Some(&(i, j)),
            "stamp at ({i}, {j}) deviates from the collected sequence — \
             assembly is not pattern-stable"
        );
        self.vals[self.slot_seq[k] as usize] += v;
        self.cursor = k + 1;
    }
}

// ---------------------------------------------------------------------------
// Complex AC kernel (structure of arrays)
// ---------------------------------------------------------------------------

/// Sparse `(G + jωC)` solver for AC/noise sweeps: one symbolic pattern
/// shared by every frequency point, with G and C values stored as flat
/// slot arrays so the per-ω imaginary stamp update is a single
/// vectorisable multiply.
#[derive(Debug)]
pub struct SparseAcSolver {
    pattern: Arc<SparsePattern>,
    g_vals: Vec<f64>,
    c_vals: Vec<f64>,
}

impl SparseAcSolver {
    /// Build from dense `G`/`C` matrices (structural union of their
    /// nonzeros); `branch_start` as in [`SparsePattern::build`].
    pub fn build(g: &Matrix<f64>, c: &Matrix<f64>, branch_start: usize) -> Self {
        let pattern = SparsePattern::from_dense(g, Some(c), branch_start);
        let nnz = pattern.nnz();
        let mut g_vals = vec![0.0; nnz];
        let mut c_vals = vec![0.0; nnz];
        for i in 0..pattern.n {
            for j in 0..pattern.n {
                if let Some(s) = pattern.slot(i, j) {
                    g_vals[s] = g.get(i, j);
                    c_vals[s] = c.get(i, j);
                }
            }
        }
        Self {
            pattern: Arc::new(pattern),
            g_vals,
            c_vals,
        }
    }

    /// The shared symbolic pattern.
    pub fn pattern(&self) -> &SparsePattern {
        &self.pattern
    }

    /// Numeric refactorisation of `G + jωC` into `f` — the SoA complex
    /// twin of [`SparsePattern::factor`], arithmetic-for-arithmetic
    /// identical to the generic kernel on [`Complex`] values (verified by
    /// a bitwise test).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] on pivot breakdown; callers retry the
    /// point on the dense kernel.
    pub fn refactor(&self, omega: f64, f: &mut SparseAcFactors) -> Result<(), SingularMatrix> {
        crate::num::record_factorization();
        NUMERIC_REFACTORS.incr();
        let p = &*self.pattern;
        f.ensure(p);
        // ω-dependent stamp update: one flat pass over the C slot array.
        for (iv, &cv) in f.im_vals.iter_mut().zip(&self.c_vals) {
            *iv = omega * cv;
        }
        for j in 0..p.n {
            for idx in p.a_colptr[j]..p.a_colptr[j + 1] {
                let r = p.a_rows[idx];
                f.w_re[r] = self.g_vals[idx];
                f.w_im[r] = f.im_vals[idx];
            }
            for pos in p.u_colptr[j]..p.u_colptr[j + 1] {
                let k = p.u_rows[pos];
                let (ur, ui) = (f.w_re[k], f.w_im[k]);
                f.w_re[k] = 0.0;
                f.w_im[k] = 0.0;
                f.u_re[pos] = ur;
                f.u_im[pos] = ui;
                if ur != 0.0 || ui != 0.0 {
                    for lp in p.l_colptr[k]..p.l_colptr[k + 1] {
                        let i = p.l_rows[lp];
                        let (lr, li) = (f.l_re[lp], f.l_im[lp]);
                        f.w_re[i] -= lr * ur - li * ui;
                        f.w_im[i] -= lr * ui + li * ur;
                    }
                }
            }
            let (pr, pi) = (f.w_re[j], f.w_im[j]);
            f.w_re[j] = 0.0;
            f.w_im[j] = 0.0;
            let mag = pr.hypot(pi);
            if !(mag.is_finite() && mag > 0.0) {
                for lp in p.l_colptr[j]..p.l_colptr[j + 1] {
                    let i = p.l_rows[lp];
                    f.w_re[i] = 0.0;
                    f.w_im[i] = 0.0;
                }
                f.factored = false;
                return Err(SingularMatrix { column: p.perm[j] });
            }
            f.d_re[j] = pr;
            f.d_im[j] = pi;
            // Division by reciprocal multiplication, mirroring
            // `Complex::div` exactly (same expression order).
            let den = pr * pr + pi * pi;
            let (qr, qi) = (pr / den, -pi / den);
            for lp in p.l_colptr[j]..p.l_colptr[j + 1] {
                let i = p.l_rows[lp];
                let (wr, wi) = (f.w_re[i], f.w_im[i]);
                f.l_re[lp] = wr * qr - wi * qi;
                f.l_im[lp] = wr * qi + wi * qr;
                f.w_re[i] = 0.0;
                f.w_im[i] = 0.0;
            }
        }
        f.pattern = Some(self.pattern.clone());
        f.factored = true;
        Ok(())
    }
}

/// SoA complex factor storage for [`SparseAcSolver::refactor`], plus the
/// pattern reference the solve needs — a factored `SparseAcFactors` is
/// self-contained, so `AcWorkspace::solve` keeps its signature.
#[derive(Debug, Default)]
pub struct SparseAcFactors {
    pattern: Option<Arc<SparsePattern>>,
    im_vals: Vec<f64>,
    l_re: Vec<f64>,
    l_im: Vec<f64>,
    u_re: Vec<f64>,
    u_im: Vec<f64>,
    d_re: Vec<f64>,
    d_im: Vec<f64>,
    w_re: Vec<f64>,
    w_im: Vec<f64>,
    y_re: Vec<f64>,
    y_im: Vec<f64>,
    factored: bool,
}

impl SparseAcFactors {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, p: &SparsePattern) {
        self.im_vals.resize(p.a_rows.len(), 0.0);
        self.l_re.resize(p.l_rows.len(), 0.0);
        self.l_im.resize(p.l_rows.len(), 0.0);
        self.u_re.resize(p.u_rows.len(), 0.0);
        self.u_im.resize(p.u_rows.len(), 0.0);
        self.d_re.resize(p.n, 0.0);
        self.d_im.resize(p.n, 0.0);
        self.w_re.resize(p.n, 0.0);
        self.w_im.resize(p.n, 0.0);
    }

    /// Solve `(G + jωC)·x = b` against the last successful
    /// [`SparseAcSolver::refactor`] (`b`/`x` in original index order).
    ///
    /// # Panics
    ///
    /// Panics if no factorisation is held or `b.len()` ≠ n.
    pub fn solve_into(&mut self, b: &[Complex], x: &mut Vec<Complex>) {
        assert!(self.factored, "no sparse AC factorisation available");
        let p = self
            .pattern
            .as_ref()
            .expect("factored workspace holds a pattern")
            .clone();
        assert_eq!(b.len(), p.n, "rhs length mismatch");
        self.y_re.clear();
        self.y_im.clear();
        self.y_re.extend(p.perm.iter().map(|&q| b[q].re));
        self.y_im.extend(p.perm.iter().map(|&q| b[q].im));
        for j in 0..p.n {
            let (yr, yi) = (self.y_re[j], self.y_im[j]);
            if yr != 0.0 || yi != 0.0 {
                for lp in p.l_colptr[j]..p.l_colptr[j + 1] {
                    let i = p.l_rows[lp];
                    let (lr, li) = (self.l_re[lp], self.l_im[lp]);
                    self.y_re[i] -= lr * yr - li * yi;
                    self.y_im[i] -= lr * yi + li * yr;
                }
            }
        }
        for j in (0..p.n).rev() {
            let (dr, di) = (self.d_re[j], self.d_im[j]);
            let den = dr * dr + di * di;
            let (qr, qi) = (dr / den, -di / den);
            let (yr, yi) = (self.y_re[j], self.y_im[j]);
            let (xr, xi) = (yr * qr - yi * qi, yr * qi + yi * qr);
            self.y_re[j] = xr;
            self.y_im[j] = xi;
            if xr != 0.0 || xi != 0.0 {
                for up in p.u_colptr[j]..p.u_colptr[j + 1] {
                    let k = p.u_rows[up];
                    let (ur, ui) = (self.u_re[up], self.u_im[up]);
                    self.y_re[k] -= ur * xr - ui * xi;
                    self.y_im[k] -= ur * xi + ui * xr;
                }
            }
        }
        x.clear();
        x.resize(p.n, Complex::ZERO);
        for (k, &q) in p.perm.iter().enumerate() {
            x[q] = Complex::new(self.y_re[k], self.y_im[k]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    }

    /// A random diagonally-dominant sparse system with a deterministic
    /// structure: a ring plus a few chords.
    fn ring_system(n: usize, seed: u64) -> (Vec<(usize, usize)>, Matrix<f64>) {
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i));
            entries.push((i, (i + 1) % n));
            entries.push(((i + 1) % n, i));
        }
        for i in 0..n / 3 {
            let j = (i * 7 + 3) % n;
            if i != j {
                entries.push((i, j));
            }
        }
        let mut s = seed;
        let mut dense = Matrix::zeros(n);
        for &(i, j) in &entries {
            dense.add(i, j, lcg(&mut s));
        }
        for i in 0..n {
            dense.add(i, i, 4.0);
        }
        (entries, dense)
    }

    fn vals_from_dense(p: &SparsePattern, dense: &Matrix<f64>) -> Vec<f64> {
        let mut vals = vec![0.0; p.nnz()];
        for i in 0..p.n() {
            for j in 0..p.n() {
                if let Some(s) = p.slot(i, j) {
                    vals[s] = dense.get(i, j);
                }
            }
        }
        vals
    }

    #[test]
    fn sparse_matches_dense_on_random_patterns() {
        for seed in [1u64, 9, 101, 77, 123456] {
            let n = 17;
            let (entries, dense) = ring_system(n, seed);
            let p = SparsePattern::build(n, n, &entries);
            let vals = vals_from_dense(&p, &dense);
            let mut f = SparseFactors::new();
            p.factor(&vals, &mut f).unwrap();
            let mut s = seed ^ 0xdead;
            let b: Vec<f64> = (0..n).map(|_| lcg(&mut s)).collect();
            let mut x = Vec::new();
            p.solve_into(&mut f, &b, &mut x);
            let xd = dense.clone().lu().unwrap().solve(&b);
            for (a, d) in x.iter().zip(&xd) {
                assert!((a - d).abs() <= 1e-12 * d.abs().max(1.0), "{a} vs {d}");
            }
            // Residual check, independent of the dense reference.
            let back = dense.mul_vec(&x);
            for (r, bb) in back.iter().zip(&b) {
                assert!((r - bb).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn refactor_with_new_values_reuses_pattern() {
        let n = 12;
        let (entries, dense1) = ring_system(n, 5);
        let (_, dense2) = ring_system(n, 6);
        let p = SparsePattern::build(n, n, &entries);
        let mut f = SparseFactors::new();
        for dense in [&dense1, &dense2] {
            let vals = vals_from_dense(&p, dense);
            p.factor(&vals, &mut f).unwrap();
            let b = vec![1.0; n];
            let mut x = Vec::new();
            p.solve_into(&mut f, &b, &mut x);
            let xd = dense.clone().lu().unwrap().solve(&b);
            for (a, d) in x.iter().zip(&xd) {
                assert!((a - d).abs() <= 1e-12 * d.abs().max(1.0));
            }
        }
        // The symbolic-analysis count is asserted in
        // `tests/symbolic_reuse.rs`, a binary of its own: the counter is
        // process-global and sibling tests here build patterns too.
    }

    #[test]
    fn branch_rows_eliminated_last() {
        // MNA-shaped system: node rows 0..2 with diagonals, one branch
        // row 2 with a structurally-zero diagonal (vsource on node 0).
        let entries = vec![(0, 0), (1, 1), (0, 1), (1, 0), (0, 2), (2, 0)];
        let p = SparsePattern::build(3, 2, &entries);
        assert_eq!(p.perm[2], 2, "branch row must pivot last");
        let mut dense = Matrix::zeros(3);
        dense.set(0, 0, 2.0);
        dense.set(1, 1, 3.0);
        dense.set(0, 1, -1.0);
        dense.set(1, 0, -1.0);
        dense.set(0, 2, 1.0);
        dense.set(2, 0, 1.0);
        let vals = vals_from_dense(&p, &dense);
        let mut f = SparseFactors::new();
        p.factor(&vals, &mut f).unwrap();
        let b = vec![0.0, 1.0, 2.0];
        let mut x = Vec::new();
        p.solve_into(&mut f, &b, &mut x);
        let xd = dense.clone().lu().unwrap().solve(&b);
        for (a, d) in x.iter().zip(&xd) {
            assert!((a - d).abs() < 1e-12);
        }
    }

    #[test]
    fn pivot_breakdown_is_reported_not_mislabelled() {
        // [[0, 1], [1, 0]] is nonsingular but pivot-free elimination in
        // natural order breaks down — the error must surface so callers
        // can fall back to the pivoted dense kernel.
        let entries = vec![(0, 1), (1, 0)];
        let p = SparsePattern::build(2, 2, &entries);
        let mut vals = vec![0.0; p.nnz()];
        vals[p.slot(0, 1).unwrap()] = 1.0;
        vals[p.slot(1, 0).unwrap()] = 1.0;
        let mut f = SparseFactors::new();
        let err = p.factor(&vals, &mut f).unwrap_err();
        assert!(err.column < 2);
        // The workspace stays reusable: a factorable system still works.
        let entries = vec![(0, 0), (1, 1)];
        let p2 = SparsePattern::build(2, 2, &entries);
        let vals2 = vec![2.0, 4.0];
        p2.factor(&vals2, &mut f).unwrap();
        let mut x = Vec::new();
        p2.solve_into(&mut f, &[2.0, 8.0], &mut x);
        assert_eq!(x, [1.0, 2.0]);
    }

    #[test]
    fn singular_system_detected() {
        let entries = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
        let p = SparsePattern::build(2, 2, &entries);
        let mut vals = vec![0.0; p.nnz()];
        vals[p.slot(0, 0).unwrap()] = 1.0;
        vals[p.slot(0, 1).unwrap()] = 2.0;
        vals[p.slot(1, 0).unwrap()] = 2.0;
        vals[p.slot(1, 1).unwrap()] = 4.0;
        let mut f = SparseFactors::new();
        assert!(p.factor(&vals, &mut f).is_err());
    }

    #[test]
    fn soa_complex_kernel_matches_generic_bitwise() {
        // The SoA refactor must reproduce the generic Scalar kernel on
        // Complex values bit for bit — same expression order everywhere.
        let n = 14;
        let (entries, g_dense) = ring_system(n, 21);
        let (_, c_seed) = ring_system(n, 22);
        // C values scaled to capacitance-like magnitudes.
        let mut c_dense = Matrix::zeros(n);
        for i in 0..n {
            for j in 0..n {
                c_dense.set(i, j, c_seed.get(i, j) * 1e-12);
            }
        }
        let mut g = Matrix::zeros(n);
        for &(i, j) in &entries {
            g.set(i, j, g_dense.get(i, j));
        }
        let solver = SparseAcSolver::build(&g, &c_dense, n);
        let p = solver.pattern();
        let omega = 2.0 * std::f64::consts::PI * 1e6;
        let mut soa = SparseAcFactors::new();
        solver.refactor(omega, &mut soa).unwrap();

        let mut vals = vec![Complex::ZERO; p.nnz()];
        for i in 0..n {
            for j in 0..n {
                if let Some(s) = p.slot(i, j) {
                    vals[s] = Complex::new(g.get(i, j), omega * c_dense.get(i, j));
                }
            }
        }
        let mut gen = SparseFactors::<Complex>::new();
        solver.pattern.factor(&vals, &mut gen).unwrap();

        let mut seed = 99u64;
        let b: Vec<Complex> = (0..n)
            .map(|_| Complex::new(lcg(&mut seed), lcg(&mut seed)))
            .collect();
        let mut x_soa = Vec::new();
        soa.solve_into(&b, &mut x_soa);
        let mut x_gen = Vec::new();
        solver.pattern.solve_into(&mut gen, &b, &mut x_gen);
        for (a, d) in x_soa.iter().zip(&x_gen) {
            assert_eq!(a.re.to_bits(), d.re.to_bits());
            assert_eq!(a.im.to_bits(), d.im.to_bits());
        }
    }

    #[test]
    fn real_system_collects_then_restamps() {
        let mut sys = SparseRealSystem::default();
        assert!(sys.needs_pattern());
        sys.reset(2);
        sys.stamp(0, 0, 0.0); // structure pass ignores values
        sys.stamp(1, 1, 0.0);
        sys.stamp(0, 1, 0.0);
        sys.finalize(2);
        assert!(!sys.needs_pattern());
        for scale in [1.0, 3.0] {
            sys.reset(2);
            sys.stamp(0, 0, 2.0 * scale);
            sys.stamp(1, 1, 4.0 * scale);
            sys.stamp(0, 1, 1.0 * scale);
            sys.factor().unwrap();
            let mut x = Vec::new();
            sys.solve_into(&[3.0 * scale, 8.0 * scale], &mut x);
            assert!((x[1] - 2.0).abs() < 1e-15);
            assert!((x[0] - 0.5).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "not pattern-stable")]
    fn pattern_violation_panics() {
        let mut sys = SparseRealSystem::default();
        sys.reset(2);
        sys.stamp(0, 0, 0.0);
        sys.stamp(1, 1, 0.0);
        sys.finalize(2);
        sys.reset(2);
        sys.stamp(0, 1, 1.0); // not in the collected structure
    }
}
