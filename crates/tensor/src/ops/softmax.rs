//! Softmax family: softmax, log-softmax and log-sum-exp, all row-wise and
//! numerically stabilized by max subtraction.

use crate::{simd, OpClass, SimdLevel, Tape, Tensor, Var};

pub(crate) fn softmax_rows_tensor(x: &Tensor) -> Tensor {
    // One implementation shared with the tape-free inference path: the
    // fused in-place kernel IS the tape kernel, so the two cannot diverge.
    let mut out = x.clone();
    crate::fused::softmax_rows_in_place(&mut out);
    out
}

/// `max + ln Σ exp(x − max)` over one row: the shifted exponentials run
/// across `lvl`'s lanes into `scratch`, and the sum stays in row order.
fn logsumexp(lvl: SimdLevel, row: &[f32], scratch: &mut Vec<f32>) -> f32 {
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    scratch.clear();
    scratch.extend(row.iter().map(|&x| x - max));
    simd::exp_in_place(lvl, scratch);
    max + scratch.iter().sum::<f32>().ln()
}

impl Tape {
    /// Row-wise softmax: each row of `[n,d]` becomes a probability vector.
    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let out = softmax_rows_tensor(self.value(a));
        let y = out.clone();
        self.custom_in_class(OpClass::Softmax, out, &[a], move |g| {
            // dL/dx = y ⊙ (g − ⟨g, y⟩ per row)
            let mut ga = g.clone();
            for r in 0..ga.rows() {
                let yr = y.row(r);
                let dot: f32 = ga.row(r).iter().zip(yr).map(|(a, b)| a * b).sum();
                for (o, &yv) in ga.row_mut(r).iter_mut().zip(yr) {
                    *o = yv * (*o - dot);
                }
            }
            vec![Some(ga)]
        })
    }

    /// Row-wise log-softmax (the numerically preferred input to NLL losses).
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        let v = self.value(a);
        let lvl = simd::active();
        let mut out = v.clone();
        let mut shifted = Vec::with_capacity(out.cols());
        for r in 0..out.rows() {
            let row = out.row_mut(r);
            let lse = logsumexp(lvl, row, &mut shifted);
            row.iter_mut().for_each(|x| *x -= lse);
        }
        let mut probs = out.clone();
        simd::exp_in_place(lvl, probs.data_mut());
        self.custom_in_class(OpClass::Softmax, out, &[a], move |g| {
            // dL/dx = g − softmax(x) · rowsum(g)
            let mut ga = g.clone();
            for r in 0..ga.rows() {
                let gs: f32 = g.row(r).iter().sum();
                for (o, &p) in ga.row_mut(r).iter_mut().zip(probs.row(r)) {
                    *o -= p * gs;
                }
            }
            vec![Some(ga)]
        })
    }

    /// Row-wise log-sum-exp: `[n,d] → [n,1]`.
    pub fn logsumexp_rows(&mut self, a: Var) -> Var {
        let v = self.value(a);
        let (n, d) = v.shape();
        let lvl = simd::active();
        let mut out = Tensor::zeros(n, 1);
        let mut shifted = Vec::with_capacity(d);
        for r in 0..n {
            out.set2(r, 0, logsumexp(lvl, v.row(r), &mut shifted));
        }
        let probs = softmax_rows_tensor(v);
        self.custom_in_class(OpClass::Softmax, out, &[a], move |g| {
            let mut ga = Tensor::zeros(n, d);
            for r in 0..n {
                let gv = g.at2(r, 0);
                for (o, &p) in ga.row_mut(r).iter_mut().zip(probs.row(r)) {
                    *o = gv * p;
                }
            }
            vec![Some(ga)]
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::ops::gradcheck::assert_grads;
    use crate::{Tape, Tensor};

    fn probe() -> Tensor {
        Tensor::from_rows(&[&[0.3, -0.7, 1.2], &[5.0, 0.1, 0.4]])
    }

    #[test]
    fn softmax_rows_normalize() {
        let mut t = Tape::new();
        let x = t.constant(probe());
        let s = t.softmax_rows(x);
        for r in 0..2 {
            let sum: f32 = t.value(s).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_grads() {
        assert_grads(probe(), 1e-2, |t, x| {
            let s = t.softmax_rows(x);
            let w = t.constant(Tensor::from_rows(&[&[1.0, 2.0, -1.0], &[0.5, 1.5, 0.2]]));
            let p = t.mul(s, w);
            t.sum(p)
        });
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let mut t = Tape::new();
        let x = t.constant(probe());
        let ls = t.log_softmax_rows(x);
        let s = t.softmax_rows(x);
        for (a, b) in t.value(ls).data().iter().zip(t.value(s).data()) {
            assert!((a - b.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_grads() {
        assert_grads(probe(), 1e-2, |t, x| {
            let ls = t.log_softmax_rows(x);
            let w = t.constant(Tensor::from_rows(&[&[1.0, 0.0, -2.0], &[0.3, 1.1, 0.7]]));
            let p = t.mul(ls, w);
            t.sum(p)
        });
    }

    #[test]
    fn logsumexp_is_stable_for_large_inputs() {
        let mut t = Tape::new();
        let x = t.constant(Tensor::row_vector(&[1000.0, 1000.0]));
        let l = t.logsumexp_rows(x);
        assert!((t.value(l).item() - (1000.0 + 2.0_f32.ln())).abs() < 1e-3);
    }

    #[test]
    fn logsumexp_grads() {
        assert_grads(probe(), 1e-2, |t, x| {
            let l = t.logsumexp_rows(x);
            let sq = t.mul(l, l);
            t.sum(sq)
        });
    }
}
