//! Numeric kernel: complex arithmetic and dense LU factorisation.
//!
//! The dense solver with partial pivoting is the fallback of the sparse
//! kernel in [`crate::sparse`]: a solve whose pivot-free sparse
//! elimination breaks down is retried here. It is generic over [`Scalar`]
//! and instantiated at `f64` (DC, transient) and [`Complex`] (AC, noise);
//! [`Matrix::lu`] and [`Matrix::factor_into`] both produce one factor
//! type, [`LuWorkspace`].

use losac_obs::Counter;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// LU factorisations performed, real and complex alike — every DC Newton
/// iteration, AC frequency point, noise point and transient step pays
/// exactly one, so this counter is the simulator's work unit.
static FACTORIZATIONS: Counter = Counter::new("sim.matrix.factorizations");

/// Count one factorisation against `sim.matrix.factorizations` on behalf
/// of another kernel (the sparse solver), keeping the counter a single
/// universal work unit across dense and sparse paths.
pub(crate) fn record_factorization() {
    FACTORIZATIONS.incr();
}

/// A complex number (cartesian form).
///
/// A tiny self-contained implementation — the workspace deliberately avoids
/// external numeric dependencies (see `DESIGN.md` §6).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// 0 + 0i.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// 1 + 0i.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// 0 + 1i.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Construct from parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real value.
    pub fn real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Magnitude |z|, overflow-safe.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude |z|².
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in (−π, π].
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Reciprocal 1/z.
    ///
    /// Division by exact zero yields infinities, mirroring `f64` semantics.
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Phase in degrees.
    pub fn arg_degrees(self) -> f64 {
        self.arg().to_degrees()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division by reciprocal multiplication is the intended formula, not
    // a copy-paste slip.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

/// Field-like scalar usable by the LU solver.
pub trait Scalar:
    Copy
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + PartialEq
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Magnitude, used for pivot selection.
    fn magnitude(self) -> f64;
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn magnitude(self) -> f64 {
        self.abs()
    }
}

impl Scalar for Complex {
    fn zero() -> Self {
        Complex::ZERO
    }
    fn one() -> Self {
        Complex::ONE
    }
    fn magnitude(self) -> f64 {
        self.abs()
    }
}

/// Dense square matrix in row-major order.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Scalar> Default for Matrix<T> {
    /// A 0 × 0 matrix (useful as an unsized scratch buffer).
    fn default() -> Self {
        Matrix::zeros(0)
    }
}

impl<T: Scalar> Matrix<T> {
    /// An `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![T::zero(); n * n],
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Read entry (i, j).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.n && j < self.n,
            "index ({i}, {j}) out of bounds for n = {}",
            self.n
        );
        self.data[i * self.n + j]
    }

    /// Set entry (i, j).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        assert!(
            i < self.n && j < self.n,
            "index ({i}, {j}) out of bounds for n = {}",
            self.n
        );
        self.data[i * self.n + j] = v;
    }

    /// Add `v` to entry (i, j) — the canonical MNA "stamp" operation.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn add(&mut self, i: usize, j: usize, v: T) {
        assert!(
            i < self.n && j < self.n,
            "index ({i}, {j}) out of bounds for n = {}",
            self.n
        );
        self.data[i * self.n + j] += v;
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![T::zero(); self.n];
        for (i, y_i) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            let mut acc = T::zero();
            for (&m, &v) in row.iter().zip(x) {
                acc += m * v;
            }
            *y_i = acc;
        }
        y
    }

    /// Reset every entry to zero without releasing storage — the cheap
    /// way to reuse one matrix across repeated MNA assemblies.
    pub fn clear(&mut self) {
        self.data.fill(T::zero());
    }

    /// The raw row-major entries.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The raw row-major entries, mutably (for bulk re-stamping into a
    /// reused matrix; indices are `i * n + j`).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// LU-factorise with partial pivoting, in place: the matrix's storage
    /// becomes the returned workspace's factors.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] when no usable pivot exists (the system
    /// has no unique solution — e.g. a floating circuit node).
    pub fn lu(mut self) -> Result<LuWorkspace<T>, SingularMatrix> {
        let mut perm = Vec::new();
        factor_in_place(self.n, &mut self.data, &mut perm)?;
        Ok(LuWorkspace {
            n: self.n,
            factored: true,
            data: self.data,
            perm,
        })
    }

    /// LU-factorise into a reusable workspace, leaving `self` untouched.
    ///
    /// The workspace's factor storage and pivot vector are reused across
    /// calls, so a Newton loop / frequency sweep performs zero allocations
    /// after the first factorisation. The factors are **bitwise identical**
    /// to [`Matrix::lu`]'s (same elimination kernel).
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] when no usable pivot exists.
    pub fn factor_into(&self, ws: &mut LuWorkspace<T>) -> Result<(), SingularMatrix> {
        ws.n = self.n;
        ws.data.clear();
        ws.data.extend_from_slice(&self.data);
        let res = factor_in_place(self.n, &mut ws.data, &mut ws.perm);
        ws.factored = res.is_ok();
        res
    }
}

/// The shared elimination kernel behind [`Matrix::lu`] and
/// [`Matrix::factor_into`]: LU with partial pivoting, factors stored in
/// place over `data`, permutation written to `perm`.
///
/// Every call increments the `sim.matrix.factorizations` counter — this
/// is the simulator's unit of work regardless of the entry point.
fn factor_in_place<T: Scalar>(
    n: usize,
    data: &mut [T],
    perm: &mut Vec<usize>,
) -> Result<(), SingularMatrix> {
    FACTORIZATIONS.incr();
    debug_assert_eq!(data.len(), n * n);
    perm.clear();
    perm.extend(0..n);
    for k in 0..n {
        // Pivot: largest magnitude in column k at/below the diagonal.
        let mut p = k;
        let mut best = data[k * n + k].magnitude();
        for i in (k + 1)..n {
            let m = data[i * n + k].magnitude();
            if m > best {
                best = m;
                p = i;
            }
        }
        let usable = best.is_finite() && best > 0.0;
        if !usable {
            return Err(SingularMatrix { column: k });
        }
        if p != k {
            perm.swap(k, p);
            for j in 0..n {
                data.swap(k * n + j, p * n + j);
            }
        }
        let (upper, lower) = data.split_at_mut((k + 1) * n);
        let row_k = &upper[k * n..];
        let pivot = row_k[k];
        for row_i in lower.chunks_exact_mut(n) {
            let factor = row_i[k] / pivot;
            row_i[k] = factor;
            if factor != T::zero() {
                for (v, &u) in row_i[(k + 1)..].iter_mut().zip(&row_k[(k + 1)..]) {
                    *v -= factor * u;
                }
            }
        }
    }
    Ok(())
}

/// Reusable LU factor storage: one backing buffer and pivot vector that
/// survive across factorisations, so hot loops (Newton iterations, AC
/// frequency points, transient steps) stop allocating per solve.
///
/// ```
/// use losac_sim::num::{LuWorkspace, Matrix};
///
/// let mut m = Matrix::<f64>::zeros(2);
/// m.set(0, 0, 2.0);
/// m.set(1, 1, 4.0);
/// let mut ws = LuWorkspace::new();
/// let mut x = Vec::new();
/// m.factor_into(&mut ws).unwrap();
/// ws.solve_into(&[2.0, 8.0], &mut x);
/// assert_eq!(x, [1.0, 2.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace<T> {
    n: usize,
    factored: bool,
    data: Vec<T>,
    perm: Vec<usize>,
}

impl<T: Scalar> LuWorkspace<T> {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self {
            n: 0,
            factored: false,
            data: Vec::new(),
            perm: Vec::new(),
        }
    }

    /// Dimension of the last factorised system.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solve `A·x = b` against the factors of the last successful
    /// [`Matrix::factor_into`] or [`Matrix::lu`], writing into `x`
    /// (resized as needed, no allocation once capacity is reached).
    ///
    /// # Panics
    ///
    /// Panics if the workspace holds no factorisation or `b.len()` does
    /// not match its dimension.
    pub fn solve_into(&self, b: &[T], x: &mut Vec<T>) {
        assert!(self.factored, "workspace holds no LU factorisation");
        let (n, data) = (self.n, &self.data);
        assert_eq!(b.len(), n, "rhs length mismatch");
        x.clear();
        x.extend(self.perm.iter().map(|&p| b[p]));
        // Forward substitution (L has unit diagonal).
        for i in 1..n {
            let row = &data[i * n..i * n + i];
            let mut acc = x[i];
            for (&m, &xv) in row.iter().zip(x.iter()) {
                acc -= m * xv;
            }
            x[i] = acc;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let row = &data[i * n..(i + 1) * n];
            let mut acc = x[i];
            for (&m, &xv) in row[(i + 1)..].iter().zip(x[(i + 1)..].iter()) {
                acc -= m * xv;
            }
            x[i] = acc / row[i];
        }
    }

    /// Convenience wrapper over [`LuWorkspace::solve_into`] that
    /// allocates the solution vector.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x);
        x
    }
}

/// Error: the matrix has no usable pivot in some column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Column at which elimination broke down (often maps to a floating
    /// node or a loop of ideal voltage sources).
    pub column: usize,
}

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "singular matrix at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

/// Why the linear system of one frequency point was not solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointFailure {
    /// The system is singular at that frequency.
    Singular(SingularMatrix),
    /// A failure injected at the named fail point: a testing hook, not a
    /// property of the circuit.
    Injected(&'static str),
}

impl From<SingularMatrix> for PointFailure {
    fn from(s: SingularMatrix) -> Self {
        PointFailure::Singular(s)
    }
}

impl fmt::Display for PointFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointFailure::Singular(s) => write!(f, "{s}"),
            PointFailure::Injected(site) => write!(f, "injected failure at `{site}`"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_field_ops() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < 1e-12);
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert!((a.abs() - 5.0_f64.sqrt()).abs() < 1e-15);
        assert!((Complex::I.arg_degrees() - 90.0).abs() < 1e-12);
    }

    #[test]
    fn complex_display() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn lu_solves_known_real_system() {
        // [[2, 1], [1, 3]] x = [5, 10] → x = [1, 3]
        let mut m = Matrix::<f64>::zeros(2);
        m.set(0, 0, 2.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 3.0);
        let lu = m.lu().unwrap();
        let x = lu.solve(&[5.0, 10.0]);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let mut m = Matrix::<f64>::zeros(2);
        m.set(0, 0, 0.0);
        m.set(0, 1, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 0.0);
        let lu = m.lu().unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let mut m = Matrix::<f64>::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        assert!(m.lu().is_err());
    }

    #[test]
    fn lu_complex_system() {
        // (1 + j)·x = 2 → x = 1 − j
        let mut m = Matrix::<Complex>::zeros(1);
        m.set(0, 0, Complex::new(1.0, 1.0));
        let lu = m.lu().unwrap();
        let x = lu.solve(&[Complex::real(2.0)]);
        assert!((x[0] - Complex::new(1.0, -1.0)).abs() < 1e-12);
    }

    #[test]
    fn lu_random_roundtrip() {
        // Deterministic pseudo-random matrix; check A·x = b round trip.
        let n = 12;
        let mut seed = 42u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut m = Matrix::<f64>::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, rnd());
            }
            m.add(i, i, 3.0); // diagonally dominant → nonsingular
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let x = m.clone().lu().unwrap().solve(&b);
        let back = m.mul_vec(&x);
        for i in 0..n {
            assert!((back[i] - b[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn workspace_factors_match_fresh_lu_bitwise() {
        // Equivalence gate: factor_into/solve_into must reproduce
        // lu()/solve() bit for bit on a random well-conditioned system.
        let n = 16;
        let mut seed = 7u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut m = Matrix::<f64>::zeros(n);
        for i in 0..n {
            for j in 0..n {
                m.set(i, j, rnd());
            }
            m.add(i, i, 4.0);
        }
        let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let fresh = m.clone().lu().unwrap().solve(&b);

        let mut ws = LuWorkspace::new();
        let mut x = Vec::new();
        // Twice, to prove reuse of a dirty workspace stays identical.
        for _ in 0..2 {
            m.factor_into(&mut ws).unwrap();
            ws.solve_into(&b, &mut x);
            assert_eq!(x.len(), n);
            for (a, f) in x.iter().zip(&fresh) {
                assert_eq!(a.to_bits(), f.to_bits());
            }
        }
    }

    #[test]
    fn workspace_reports_singular() {
        let mut m = Matrix::<f64>::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        let mut ws = LuWorkspace::new();
        assert!(m.factor_into(&mut ws).is_err());
    }

    #[test]
    fn lu_solve_into_reuses_buffer() {
        let mut m = Matrix::<f64>::zeros(2);
        m.set(0, 0, 2.0);
        m.set(1, 1, 4.0);
        let lu = m.lu().unwrap();
        let mut x = vec![9.0; 17]; // dirty, wrong-sized buffer
        lu.solve_into(&[2.0, 8.0], &mut x);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn matrix_mul_vec() {
        let mut m = Matrix::<f64>::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 3.0);
        m.set(1, 1, 4.0);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn matrix_bounds_checked() {
        let m = Matrix::<f64>::zeros(2);
        let _ = m.get(2, 0);
    }
}
