use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// All tensors in this workspace are rank-2 matrices `[rows, cols]`; vectors
/// are `[1, d]` rows and scalars are `[1, 1]`. Keeping a single canonical
/// layout keeps every kernel a simple loop and removes stride bookkeeping
/// from the autograd engine.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows × cols` tensor filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// A `1 × 1` tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Tensor { rows: 1, cols: 1, data: vec![value] }
    }

    /// Builds a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length must match shape");
        Tensor { rows, cols, data }
    }

    /// Builds a tensor from row slices (all rows must share a length).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor { rows: rows.len(), cols, data }
    }

    /// A `1 × d` row vector.
    pub fn row_vector(values: &[f32]) -> Self {
        Tensor { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn at2(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    #[inline]
    pub fn set2(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// The single element of a `1 × 1` tensor.
    ///
    /// # Panics
    /// Panics if the tensor is not a scalar.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Immutable slice of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable slice of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new tensor with the given rows copied, in order.
    pub fn gather_rows(&self, indices: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(indices.len(), self.cols);
        for (i, &ix) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(ix));
        }
        out
    }

    /// Applies `f` elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = Vec::with_capacity(self.data.len());
        data.extend(self.data.iter().map(|&x| f(x)));
        Tensor { rows: self.rows, cols: self.cols, data }
    }

    /// Elementwise `self[i] += alpha * other[i]`.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn add_scaled(&mut self, other: &Tensor, alpha: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scales all elements in place.
    pub fn scale_in_place(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Resets all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Matrix product `self [m,k] × rhs [k,n] → [m,n]`.
    ///
    /// Cache-blocked i-k-j kernel (see the `kernels` module); splits output
    /// rows across the global `ner-par` pool above the FLOP threshold.
    /// Parallel and serial results are bit-identical — blocking and row
    /// splitting never reorder the per-element accumulation.
    ///
    /// # Panics
    /// Panics on an inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.rows, "matmul inner dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Tensor::zeros(m, n);
        crate::kernels::matmul(&self.data, &rhs.data, &mut out.data, m, k, n);
        out
    }

    /// `selfᵀ × rhs`, computed without materializing the transpose.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "matmul_tn dimension mismatch");
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Tensor::zeros(m, n);
        crate::kernels::matmul_tn(&self.data, &rhs.data, &mut out.data, k, m, n);
        out
    }

    /// `self × rhsᵀ`, computed without materializing the transpose.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.cols, "matmul_nt dimension mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let mut out = Tensor::zeros(m, n);
        crate::kernels::matmul_nt(&self.data, &rhs.data, &mut out.data, m, k, n);
        out
    }

    /// Returns the transposed tensor (tiled kernel, parallel when large).
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        crate::kernels::transpose(&self.data, &mut out.data, self.rows, self.cols);
        out
    }

    /// Index of the maximum element in row `r` (ties go to the first).
    pub fn argmax_row(&self, r: usize) -> usize {
        let row = self.row(r);
        let mut best = 0;
        for (i, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = i;
            }
        }
        best
    }

    /// True when all elements are finite (no NaN/inf). Useful in debug
    /// assertions around numerically delicate code.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(t.shape(), (2, 2));
        assert_eq!(t.at2(1, 0), 3.0);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.sum(), 10.0);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(5.5).item(), 5.5);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_shape() {
        let _ = Tensor::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_tn_transposes_the_left_operand() {
        // a is [k=2, m=3]; a.matmul_tn(b) computes aᵀ × b, so b must have
        // k=2 rows and the result is [3, n].
        let a = Tensor::from_rows(&[&[1.0, -2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let b = Tensor::from_rows(&[&[2.0, 1.0], &[0.0, -1.0]]);
        let tn = a.matmul_tn(&b);
        let explicit = a.transposed().matmul(&b);
        assert_eq!(tn.shape(), (3, 2));
        assert_eq!(tn.shape(), explicit.shape());
        for (x, y) in tn.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn matmul_nt_transposes_the_right_operand() {
        // a is [m=2, k=3]; a.matmul_nt(a) computes a × aᵀ — the [2, 2]
        // Gram matrix of a's rows.
        let a = Tensor::from_rows(&[&[1.0, -2.0, 0.5], &[3.0, 4.0, -1.0]]);
        let nt = a.matmul_nt(&a);
        let explicit = a.matmul(&a.transposed());
        assert_eq!(nt.shape(), (2, 2));
        for (x, y) in nt.data().iter().zip(explicit.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn gather_rows_copies_in_order() {
        let t = Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = t.gather_rows(&[2, 0, 2]);
        assert_eq!(g.data(), &[3.0, 1.0, 3.0]);
    }

    #[test]
    fn add_scaled_and_norms() {
        let mut a = Tensor::from_rows(&[&[1.0, 1.0]]);
        let b = Tensor::from_rows(&[&[2.0, -2.0]]);
        a.add_scaled(&b, 0.5);
        assert_eq!(a.data(), &[2.0, 0.0]);
        assert_eq!(a.sq_norm(), 4.0);
    }

    #[test]
    fn argmax_row_first_tie_wins() {
        let t = Tensor::from_rows(&[&[1.0, 3.0, 3.0, 2.0]]);
        assert_eq!(t.argmax_row(0), 1);
    }
}
