//! Dense row-major `f32` matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

use crate::kernels;

/// A dense matrix of `f32` in row-major order.
///
/// Vectors are represented as `1×n` or `n×1` matrices; scalars as `1×1`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a tensor filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or the input is empty.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A `1×1` tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::from_vec(1, 1, vec![v])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Flat row-major view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_accum_into(other, &mut out);
        out
    }

    /// Accumulates `self × other` into `out` (`out += self × other`).
    ///
    /// Both modes run one loop nest ([`kernels::bodies`]): 64×64 tiles of
    /// `other` stay L1-resident while every row of `self` streams over
    /// them, and the inner columns run as explicit 8-wide
    /// register-accumulator blocks.
    ///
    /// In [`KernelMode::Strict`](kernels::KernelMode) the accumulators
    /// fold `acc + a * b`. For each output element the partial products
    /// are summed in ascending `k` — unroll lanes are independent
    /// elements — so results are bitwise-identical to the textbook i-k-j
    /// loop, which is what keeps batched forwards equal to per-sample
    /// forwards. Dense data takes no branches in the inner loop and
    /// `0 × NaN` propagates as NaN (IEEE semantics, no zero-skip).
    ///
    /// In [`KernelMode::Fast`](kernels::KernelMode) the accumulators fold
    /// with fused `mul_add` where the CPU has FMA — still one ascending-`k`
    /// chain per element, ε-close to strict, identical `NaN`/`±∞`
    /// propagation, identical decisions.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn matmul_accum_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        kernels::matmul_accum(
            &self.data,
            &other.data,
            self.rows,
            self.cols,
            other.cols,
            &mut out.data,
        );
    }

    /// `selfᵀ × other` without materializing the transpose.
    ///
    /// This is the `xᵀ·g` shape reverse-mode matmul produces for its
    /// weight gradient: both inputs are read where they lie, a block of
    /// output elements at a time held in registers over the whole
    /// reduction, where transposing first would allocate and fill a
    /// copy. Accumulation per output element is ascending `k`, matching
    /// `self.transposed().matmul(other)` bitwise.
    ///
    /// # Panics
    ///
    /// Panics unless `self.rows == other.rows`.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_tn_accum_into(other, &mut out);
        out
    }

    /// Accumulates `selfᵀ × other` into `out` (see [`Tensor::matmul_tn`]).
    ///
    /// Same parity contract as `Tensor::matmul_accum_into`; blocks of
    /// output elements stay in registers across the whole reduction
    /// ([`kernels::matmul_tn_accum`]).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_tn_accum_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn shape mismatch: {}x{} ᵀ× {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, n) = (self.cols, other.cols);
        assert_eq!(out.shape(), (m, n), "matmul_tn output shape mismatch");
        let _timer = nvc_obs::time_op(nvc_obs::Op::MatMulTn);
        kernels::matmul_tn_accum(&self.data, &other.data, self.rows, m, n, &mut out.data);
    }

    /// `self × otherᵀ` without materializing the transpose.
    ///
    /// The `g·wᵀ` shape of reverse-mode matmul's right-operand gradient:
    /// every output element is a dot product of two rows, so both inputs
    /// are read sequentially. Ascending-`k` accumulation matches
    /// `self.matmul(&other.transposed())` bitwise.
    ///
    /// # Panics
    ///
    /// Panics unless `self.cols == other.cols`.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_nt_accum_into(other, &mut out);
        out
    }

    /// Accumulates `self × otherᵀ` into `out` (see [`Tensor::matmul_nt`]).
    ///
    /// Same parity contract as `Tensor::matmul_accum_into`; 16, 8 or 4
    /// output columns run as the lanes of one block of independent
    /// dot-product accumulators over a packed `otherᵀ`
    /// (`kernels::matmul_nt_accum`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn matmul_nt_accum_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt shape mismatch: {}x{} ×ᵀ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let (m, kd, n) = (self.rows, self.cols, other.rows);
        assert_eq!(out.shape(), (m, n), "matmul_nt output shape mismatch");
        let _timer = nvc_obs::time_op(nvc_obs::Op::MatMulNt);
        kernels::matmul_nt_accum(&self.data, &other.data, m, kd, n, &mut out.data);
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Consumes the tensor, returning its backing buffer (used by the
    /// arena to recycle allocations across graphs).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Elementwise map in place (no allocation).
    pub(crate) fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// In-place elementwise combination: `self[i] = f(self[i], other[i])`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub(crate) fn zip_inplace(&mut self, other: &Tensor, f: impl Fn(f32, f32) -> f32) {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Tensor, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += scale * b;
        }
    }

    /// Sum of all elements.
    pub(crate) fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Tensor::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let b = Tensor::from_rows(&[vec![4.0], vec![5.0], vec![6.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (1, 1));
        assert_eq!(c.data()[0], 32.0);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed().shape(), (3, 2));
        assert_eq!(a.transposed()[(2, 1)], 6.0);
    }

    #[test]
    fn indexing() {
        let mut a = Tensor::zeros(2, 2);
        a[(1, 0)] = 7.0;
        assert_eq!(a[(1, 0)], 7.0);
        assert_eq!(a.row(1), &[7.0, 0.0]);
    }

    /// The seed kernel skipped `a == 0.0` rows entirely, which silently
    /// swallowed NaNs in the right operand (`0 × NaN` is NaN, not 0).
    /// The tiled kernel must follow IEEE semantics.
    #[test]
    fn matmul_propagates_nan_through_zero_lhs() {
        let a = Tensor::from_rows(&[vec![0.0, 0.0]]);
        let b = Tensor::from_rows(&[vec![f32::NAN, 1.0], vec![2.0, 3.0]]);
        let c = a.matmul(&b);
        assert!(c[(0, 0)].is_nan(), "0 × NaN must propagate NaN");
        assert_eq!(c[(0, 1)], 0.0);
    }

    /// Textbook i-k-j reference the tiled kernel must match bitwise
    /// (identical ascending-k accumulation order).
    fn matmul_reference(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                for j in 0..b.cols() {
                    out[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        out
    }

    fn random_tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.gen_range(-2.0..2.0)).collect(),
        )
    }

    /// Tiled kernel on shapes spanning several tile boundaries, including
    /// dimensions beyond one 64-wide block and widths that straddle the 8-
    /// and 32-wide unroll blocks.
    #[test]
    fn tiled_matmul_matches_reference_across_blocks() {
        // Deployed-vs-reference bitwise equality is a *strict*-contract
        // claim; pin the mode so the NVC_KERNEL_MODE=fast CI leg keeps
        // asserting it (fast is covered by tests/fast_parity.rs).
        let _guard = crate::kernels::KNOB_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::kernels::set_kernel_mode(crate::kernels::KernelMode::Strict);
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 70, 5),
            (17, 130, 65),
            (64, 64, 64),
            (2, 200, 130),
            (5, 70, 13),
            (9, 3, 100),
        ] {
            let a = random_tensor(m, k, (m * 1000 + n) as u64);
            let b = random_tensor(k, n, (k * 7 + 3) as u64);
            let tiled = a.matmul(&b);
            let reference = matmul_reference(&a, &b);
            assert_eq!(tiled, reference, "tiled kernel diverged at {m}x{k}x{n}");
        }
        crate::kernels::set_kernel_mode(crate::kernels::default_kernel_mode());
    }

    /// `tn`/`nt` against transpose-then-`matmul`, bit for bit, in **both**
    /// modes — both sides fold one madd chain per element, whichever madd
    /// the mode picks — run to run. The shapes are the kernel-parity tier's
    /// edge list plus one width per `nt` panel class (16/8/4/1), the
    /// `n == 1` score column and `n % 8` leftovers (`tn`'s row-lane path,
    /// with 8, 16 and 17 output rows) and `m`, `k`, `n` ∈ {0, 1}.
    #[test]
    fn matmul_tn_nt_match_materialized_transposes() {
        use crate::kernels::KernelMode;
        let _guard = crate::kernels::KNOB_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let bits = |t: Tensor| t.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mode in [KernelMode::Strict, KernelMode::Fast] {
            crate::kernels::set_kernel_mode(mode);
            for &(m, k, n) in &[
                (1usize, 4usize, 3usize),
                (9, 70, 11),
                (33, 5, 80),
                (0, 5, 3),
                (4, 0, 3),
                (4, 5, 0),
                (3, 7, 1),
                (1, 1, 1),
                (2, 3, 8),
                (2, 3, 16),
                (5, 9, 7),
                (5, 9, 9),
                (9, 130, 67),
                (8, 23, 1),
                (16, 23, 7),
                (17, 23, 12),
                (19, 40, 29),
                (2, 340, 64),
            ] {
                let ctx = format!("{mode} m={m} k={k} n={n}");
                // tn: aᵀ·b where a is k×m (shared leading dim k).
                let a = random_tensor(k, m, 11 + m as u64);
                let b = random_tensor(k, n, 13 + n as u64);
                // nt: g·wᵀ where g is m×k, w is n×k (shared trailing dim k).
                let g = random_tensor(m, k, 17 + m as u64);
                let w = random_tensor(n, k, 19 + n as u64);
                let want_tn = bits(a.transposed().matmul(&b));
                let want_nt = bits(g.matmul(&w.transposed()));
                for run in 0..2 {
                    assert_eq!(bits(a.matmul_tn(&b)), want_tn, "tn [{ctx} run={run}]");
                    assert_eq!(bits(g.matmul_nt(&w)), want_nt, "nt [{ctx} run={run}]");
                }
            }
        }
        crate::kernels::set_kernel_mode(crate::kernels::default_kernel_mode());
    }

    #[test]
    fn inplace_helpers_match_allocating_versions() {
        let a = random_tensor(4, 5, 23);
        let b = random_tensor(4, 5, 29);
        let mut m = a.clone();
        m.map_inplace(|x| x * 2.0 + 1.0);
        let mapped = a.data().iter().map(|x| x * 2.0 + 1.0).collect();
        assert_eq!(m, Tensor::from_vec(4, 5, mapped));
        let mut z = a.clone();
        z.zip_inplace(&b, |x, y| x - y);
        let diff = a.data().iter().zip(b.data()).map(|(x, y)| x - y).collect();
        assert_eq!(z, Tensor::from_vec(4, 5, diff));
    }

    #[test]
    fn into_data_roundtrip() {
        let a = Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let buf = a.clone().into_data();
        assert_eq!(Tensor::from_vec(2, 3, buf), a);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        a.add_scaled(&b, 0.5);
        assert_eq!(a, Tensor::full(2, 2, 2.0));
    }

    proptest! {
        /// The tiled kernel is bitwise-identical to the textbook i-k-j
        /// loop on arbitrary shapes (tile-boundary straddling included).
        #[test]
        fn prop_tiled_matmul_matches_reference(
            m in 1usize..12, n in 1usize..80, k in 1usize..80,
            seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            // Strict-contract claim: pin the mode for this case (fast is
            // covered ε-wise in tests/fast_parity.rs).
            let _guard = crate::kernels::KNOB_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            crate::kernels::set_kernel_mode(crate::kernels::KernelMode::Strict);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::from_vec(m, k, (0..m*k).map(|_| rng.gen_range(-2.0..2.0)).collect());
            let b = Tensor::from_vec(k, n, (0..k*n).map(|_| rng.gen_range(-2.0..2.0)).collect());
            let got = a.matmul(&b);
            crate::kernels::set_kernel_mode(crate::kernels::default_kernel_mode());
            prop_assert_eq!(got, matmul_reference(&a, &b));
        }

        /// Transpose-free kernels agree bitwise with transpose-then-matmul.
        #[test]
        fn prop_tn_nt_match_transposed_matmul(
            m in 1usize..8, n in 1usize..40, k in 1usize..40,
            seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            // Mode-stable comparison (see matmul_tn_nt_match_...).
            let _guard = crate::kernels::KNOB_LOCK
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::from_vec(k, m, (0..k*m).map(|_| rng.gen_range(-2.0..2.0)).collect());
            let b = Tensor::from_vec(k, n, (0..k*n).map(|_| rng.gen_range(-2.0..2.0)).collect());
            prop_assert_eq!(a.matmul_tn(&b), a.transposed().matmul(&b));
            let g = Tensor::from_vec(m, k, (0..m*k).map(|_| rng.gen_range(-2.0..2.0)).collect());
            let w = Tensor::from_vec(n, k, (0..n*k).map(|_| rng.gen_range(-2.0..2.0)).collect());
            prop_assert_eq!(g.matmul_nt(&w), g.matmul(&w.transposed()));
        }

        /// (A B)ᵀ = Bᵀ Aᵀ
        #[test]
        fn prop_transpose_of_product(
            m in 1usize..5, n in 1usize..5, k in 1usize..5,
            seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::from_vec(m, k, (0..m*k).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let b = Tensor::from_vec(k, n, (0..k*n).map(|_| rng.gen_range(-1.0..1.0)).collect());
            let lhs = a.matmul(&b).transposed();
            let rhs = b.transposed().matmul(&a.transposed());
            for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// Matmul distributes over addition.
        #[test]
        fn prop_matmul_distributes(
            m in 1usize..4, n in 1usize..4, k in 1usize..4,
            seed in 0u64..1000
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut t = |r: usize, c: usize| {
                Tensor::from_vec(r, c, (0..r*c).map(|_| rng.gen_range(-1.0..1.0)).collect())
            };
            let a = t(m, k);
            let b = t(k, n);
            let c = t(k, n);
            let add = |x: &Tensor, y: &Tensor| {
                let mut s = x.clone();
                s.zip_inplace(y, |p, q| p + q);
                s
            };
            let lhs = a.matmul(&add(&b, &c));
            let rhs = add(&a.matmul(&b), &a.matmul(&c));
            for (x, y) in lhs.data().iter().zip(rhs.data().iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        /// Sum is invariant under transpose.
        #[test]
        fn prop_sum_transpose_invariant(m in 1usize..6, n in 1usize..6, seed in 0u64..100) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let a = Tensor::from_vec(m, n, (0..m*n).map(|_| rng.gen_range(-1.0..1.0)).collect());
            prop_assert!((a.sum() - a.transposed().sum()).abs() < 1e-4);
        }
    }
}
