//! Fused inference kernels: `matmul + bias + activation` and
//! `softmax-in-place`, plus a fused 1-D convolution.
//!
//! The training path builds these operations as separate tape nodes
//! (`matmul` → `add_bias` → `tanh`, …), each of which clones its input into
//! a fresh node buffer so the backward pass can replay it. Inference needs
//! none of that: these kernels write the bias and the nonlinearity straight
//! into the matmul's output buffer.
//!
//! **Determinism contract.** Every fused kernel applies its extra stages
//! only *after* the underlying accumulation has fully finished, touching
//! each element exactly once with the same scalar function the tape ops
//! use. The per-element accumulation order of the matmul/convolution is
//! untouched, so fused and unfused results are bit-identical (see
//! DESIGN.md) — the property `tests/prop_fused.rs` checks at 1/2/4
//! threads.

use crate::{math, simd, Tensor};

/// A nonlinearity fused into [`affine_act`] / [`conv1d_act`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity — the fused op is just `x·w + b`.
    None,
    /// `v.max(0.0)`, exactly as `Tape::relu`.
    Relu,
    /// [`math::tanh`], exactly as `Tape::tanh`.
    Tanh,
    /// [`math::sigmoid`] (`1 / (1 + e^{-v})`), exactly as `Tape::sigmoid`.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a scalar (the same functions the tape's
    /// elementwise ops apply to their inputs).
    #[inline]
    pub fn eval(self, v: f32) -> f32 {
        match self {
            Activation::None => v,
            Activation::Relu => v.max(0.0),
            Activation::Tanh => math::tanh(v),
            Activation::Sigmoid => math::sigmoid(v),
        }
    }

    /// Applies the activation elementwise in place, across [`simd`] lanes.
    ///
    /// Each lane reproduces [`Activation::eval`] bit for bit: `Relu` is
    /// `MAXPS` with the value as first operand (scalar `v.max(0.0)`,
    /// including the NaN and `-0.0` cases), and `Tanh` and `Sigmoid` run
    /// [`math`]'s operation sequence per lane — both pinned by unit tests
    /// in `simd.rs`.
    pub fn apply(self, t: &mut Tensor) {
        let lvl = simd::active();
        match self {
            Activation::None => {}
            Activation::Relu => simd::relu_in_place(lvl, t.data_mut()),
            Activation::Tanh => simd::tanh_in_place(lvl, t.data_mut()),
            Activation::Sigmoid => simd::sigmoid_in_place(lvl, t.data_mut()),
        }
    }
}

/// Broadcast-adds the row vector `b [1, d]` to every row of `out [n, d]`,
/// in place — the same per-row, left-to-right sweep as `Tape::add_bias`,
/// minus the clone.
pub fn add_bias_in_place(out: &mut Tensor, b: &Tensor) {
    assert_eq!(b.rows(), 1, "bias must be a row vector");
    assert_eq!(out.cols(), b.cols(), "bias width mismatch");
    let lvl = simd::active();
    for r in 0..out.rows() {
        simd::add_in_place(lvl, out.row_mut(r), b.data());
    }
}

/// Fused affine layer: `act(x·w + b)` for `x [n, k]`, `w [k, d]`,
/// `b [1, d]` in a single output buffer.
///
/// Bit-identical to the tape sequence `matmul` → `add_bias` → activation:
/// the matmul accumulates each output element in the same ascending-`p`
/// order, and the bias/activation stages run only after that accumulation
/// is complete.
pub fn affine_act(x: &Tensor, w: &Tensor, b: &Tensor, act: Activation) -> Tensor {
    let mut out = x.matmul(w);
    add_bias_in_place(&mut out, b);
    act.apply(&mut out);
    out
}

/// Row-wise softmax in place — the exact loop behind `Tape::softmax_rows`
/// (max-subtraction, [`math::exp`], an ascending running sum, then one
/// multiply by the reciprocal), without the output clone.
pub fn softmax_rows_in_place(t: &mut Tensor) {
    let lvl = simd::active();
    for r in 0..t.rows() {
        let row = t.row_mut(r);
        // The max fold and the running sum are sequential reductions —
        // they stay scalar to keep the bits; the exp and the reciprocal
        // scale are independent-lane sweeps.
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        for v in row.iter_mut() {
            *v -= max;
        }
        simd::exp_in_place(lvl, row);
        let mut z = 0.0;
        for &v in row.iter() {
            z += v;
        }
        let inv = 1.0 / z;
        simd::scale_in_place(lvl, row, inv);
    }
}

/// Fused same-padded 1-D convolution + activation over `x [n, d_in]` with
/// the filter bank `w [k·d_in, d_out]` and `b [1, d_out]` (the layouts of
/// `Tape::conv1d`). The accumulation (bias first, then taps `j` ascending,
/// input features ascending, zero inputs skipped) matches the tape kernel
/// exactly; the activation runs after each row is complete.
pub fn conv1d_act(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    k: usize,
    dilation: usize,
    act: Activation,
) -> Tensor {
    assert!(k % 2 == 1, "conv1d requires an odd filter width");
    assert!(dilation >= 1, "dilation must be >= 1");
    let (n, d_in) = x.shape();
    let d_out = w.cols();
    assert_eq!(w.rows(), k * d_in, "filter bank shape must be [k*d_in, d_out]");
    assert_eq!(b.shape(), (1, d_out), "bias shape must be [1, d_out]");

    let half = (k / 2) as isize;
    let lvl = simd::active();
    let mut out = Tensor::zeros(n, d_out);
    for t in 0..n as isize {
        let out_row = out.row_mut(t as usize);
        out_row.copy_from_slice(b.row(0));
        for j in 0..k as isize {
            let src = t + (j - half) * dilation as isize;
            if src < 0 || src >= n as isize {
                continue;
            }
            let x_row = x.row(src as usize);
            for (i, &xv) in x_row.iter().enumerate() {
                if xv == 0.0 {
                    continue;
                }
                let w_row = w.row(j as usize * d_in + i);
                simd::axpy_in_place(lvl, out_row, w_row, xv);
            }
        }
    }
    act.apply(&mut out);
    out
}

/// Tape-free row-wise layer normalization — the forward half of
/// `Tape::layer_norm`, same per-row statistics in the same order.
pub fn layer_norm(x: &Tensor, gain: &Tensor, bias: &Tensor) -> Tensor {
    const EPS: f32 = 1e-5;
    let (n, d) = x.shape();
    assert_eq!(gain.shape(), (1, d), "gain must be [1, d]");
    assert_eq!(bias.shape(), (1, d), "bias must be [1, d]");
    let lvl = simd::active();
    let mut out = Tensor::zeros(n, d);
    for r in 0..n {
        let row = x.row(r);
        // Mean/variance are sequential reductions: scalar for bit-identity.
        let mu: f32 = row.iter().sum::<f32>() / d as f32;
        let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
        let istd = 1.0 / (var + EPS).sqrt();
        simd::norm_scale_shift(lvl, out.row_mut(r), row, gain.data(), bias.data(), mu, istd);
    }
    out
}

/// Tape-free column-wise max over rows (`[n, d] → [1, d]`, first-row tie
/// wins) — the forward half of `Tape::max_over_rows`.
pub fn max_over_rows(x: &Tensor) -> Tensor {
    let (n, d) = x.shape();
    assert!(n > 0, "max_over_rows on empty tensor");
    let lvl = simd::active();
    let mut out = Tensor::zeros(1, d);
    // Row-major fold with columns as lanes: each column sees the same
    // ascending-`r` sequence of `v > best` comparisons as the scalar
    // column-at-a-time loop, so ties (first row wins) and NaN handling
    // are unchanged — and the walk is now cache-friendly.
    out.row_mut(0).copy_from_slice(x.row(0));
    for r in 1..n {
        simd::colmax_in_place(lvl, out.row_mut(0), x.row(r));
    }
    out
}

/// Copies columns `[start, start+len)` into a fresh tensor (the
/// data movement of `Tape::slice_cols`).
pub fn slice_cols(x: &Tensor, start: usize, len: usize) -> Tensor {
    assert!(start + len <= x.cols(), "slice_cols out of bounds");
    let mut out = Tensor::zeros(x.rows(), len);
    for r in 0..x.rows() {
        out.row_mut(r).copy_from_slice(&x.row(r)[start..start + len]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize, scale: f32) -> Tensor {
        Tensor::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| ((i % 11) as f32 - 5.0) * scale).collect(),
        )
    }

    #[test]
    fn affine_act_matches_unfused_sequence() {
        let x = ramp(5, 7, 0.3);
        let w = ramp(7, 4, 0.2);
        let b = ramp(1, 4, 0.1);
        for act in [Activation::None, Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
            let fused = affine_act(&x, &w, &b, act);
            let mut unfused = x.matmul(&w);
            for r in 0..unfused.rows() {
                for (o, &bv) in unfused.row_mut(r).iter_mut().zip(b.data()) {
                    *o += bv;
                }
            }
            let expect = unfused.map(|v| act.eval(v));
            assert_eq!(fused.data(), expect.data(), "{act:?}");
        }
    }

    #[test]
    fn softmax_rows_are_normalized_and_stable() {
        let mut t = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 999.0]]);
        softmax_rows_in_place(&mut t);
        for r in 0..2 {
            let s: f32 = t.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r} sums to {s}");
            assert!(t.row(r).iter().all(|v| v.is_finite()));
        }
        assert!(t.at2(0, 2) > t.at2(0, 1));
    }

    #[test]
    fn conv1d_act_moving_sum_with_relu() {
        // d_in = d_out = 1, all-ones width-3 filter → padded moving sum.
        let x = Tensor::from_rows(&[&[1.0], &[-10.0], &[3.0], &[4.0]]);
        let w = Tensor::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        let b = Tensor::zeros(1, 1);
        let y = conv1d_act(&x, &w, &b, 3, 1, Activation::Relu);
        // sums: -9, -6, -3, 7 → relu
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 7.0]);
    }
}
