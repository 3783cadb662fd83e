//! The optimizer: Adam with bias correction, the one update rule every
//! trainer steps.
//!
//! [`Adam::step`] consumes the gradients accumulated in a [`ParamStore`]
//! and clears them afterwards, so the training loop is simply
//! `forward → backward → clip → opt.step(&mut store)`. [`fit_per_example`]
//! is that loop, one update per example, for the trainers outside
//! `ner-core`'s batched trainer.

use crate::{ParamStore, Tape, Tensor, Var};

/// Adam (Kingma & Ba) with bias correction and the conventional β₁ = 0.9,
/// β₂ = 0.999, ε = 1e-8.
pub struct Adam {
    /// Learning rate of the next step; a trainer's schedule sets it per
    /// epoch.
    pub lr: f32,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Adam with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Adam { lr, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Applies one update from the accumulated gradients of every unfrozen
    /// parameter, then zeroes the gradients.
    pub fn step(&mut self, store: &mut ParamStore) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        if self.m.len() < store.len() {
            self.m.resize(store.len(), None);
            self.v.resize(store.len(), None);
        }
        self.t += 1;
        let lr = self.lr;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        let (ms, vs) = (&mut self.m, &mut self.v);
        store.for_each_unfrozen(|i, value, grad| {
            let m = ms[i].get_or_insert_with(|| Tensor::zeros(value.rows(), value.cols()));
            let v = vs[i].get_or_insert_with(|| Tensor::zeros(value.rows(), value.cols()));
            for (((w, &g), mi), vi) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut().iter_mut())
                .zip(v.data_mut().iter_mut())
            {
                *mi = B1 * *mi + (1.0 - B1) * g;
                *vi = B2 * *vi + (1.0 - B2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *w -= lr * mhat / (vhat.sqrt() + EPS);
            }
        });
        store.zero_grad();
    }
}

/// The global gradient-norm bound every trainer clips to — the clip of
/// Ma & Hovy (2016).
pub const CLIP_NORM: f32 = 5.0;

/// What [`fit_per_example`] saw.
#[derive(Debug)]
pub struct PerExampleFit {
    /// `(loss sum, prediction count)` per epoch, over the items whose update
    /// was applied.
    pub epochs: Vec<(f64, usize)>,
    /// Updates skipped because the loss or gradient norm was non-finite.
    pub skipped: usize,
}

/// One [`Adam`] update per example: for each of `epochs` passes over
/// `items` in order, `loss` records an item's loss on a fresh [`Tape`] and
/// says how many predictions it scores (`None` skips the item); the loop
/// back-propagates into `store(model)`, clips the global gradient norm to
/// [`CLIP_NORM`] and steps.
///
/// A non-finite loss skips that item's backward and step; a non-finite
/// gradient norm zeroes the gradients and skips the step. Skipped items add
/// nothing to their epoch's sums.
pub fn fit_per_example<M, T>(
    model: &mut M,
    store: fn(&mut M) -> &mut ParamStore,
    items: &[T],
    epochs: usize,
    lr: f32,
    mut loss: impl FnMut(&M, &mut Tape, &T) -> Option<(Var, usize)>,
) -> PerExampleFit {
    let mut opt = Adam::new(lr);
    let mut fit = PerExampleFit { epochs: Vec::with_capacity(epochs), skipped: 0 };
    for _ in 0..epochs {
        let (mut sum, mut count) = (0.0f64, 0usize);
        for item in items {
            let mut tape = Tape::new();
            let Some((var, preds)) = loss(model, &mut tape, item) else {
                continue;
            };
            let value = tape.value(var).item();
            let store = store(model);
            if !value.is_finite() {
                fit.skipped += 1;
                continue;
            }
            tape.backward(var, store);
            if !store.clip_grad_norm(CLIP_NORM).is_finite() {
                store.zero_grad();
                fit.skipped += 1;
                continue;
            }
            opt.step(store);
            sum += value as f64;
            count += preds;
        }
        fit.epochs.push((sum, count));
    }
    fit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::Linear;
    use crate::ParamId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimize (w−3)² with Adam; it should approach w = 3.
    fn run_quadratic(opt: &mut Adam, steps: usize) -> f32 {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::scalar(0.0));
        for _ in 0..steps {
            let mut tape = Tape::new();
            let w = tape.param(&store, p);
            let c = tape.constant(Tensor::scalar(3.0));
            let d = tape.sub(w, c);
            let loss = tape.mul(d, d);
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        store.value(p).item()
    }

    #[test]
    fn adam_converges() {
        assert!((run_quadratic(&mut Adam::new(0.2), 300) - 3.0).abs() < 0.01);
    }

    #[test]
    fn frozen_params_are_skipped() {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::scalar(1.0));
        store.set_frozen(p, true);
        store.accumulate_grad(p, &Tensor::scalar(100.0));
        Adam::new(0.1).step(&mut store);
        assert_eq!(store.value(p).item(), 1.0);
    }

    /// A tiny `Linear` regression problem: items are (input row, target).
    fn linear_problem() -> (ParamStore, Linear, Vec<(Tensor, Tensor)>) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, &mut rng, "lin", 3, 2);
        let items = (0..6)
            .map(|i| {
                let x = crate::init::uniform(&mut rng, 1, 3, 1.0 + i as f32);
                let y = crate::init::uniform(&mut rng, 1, 2, 1.0);
                (x, y)
            })
            .collect();
        (store, lin, items)
    }

    fn squared_error(
        lin: &Linear,
        store: &ParamStore,
        tape: &mut Tape,
        (x, y): &(Tensor, Tensor),
    ) -> Var {
        let x = tape.constant(x.clone());
        let y = tape.constant(y.clone());
        let out = lin.forward(tape, store, x);
        let d = tape.sub(out, y);
        let sq = tape.mul(d, d);
        tape.sum(sq)
    }

    fn bits(store: &ParamStore) -> Vec<Vec<u32>> {
        (0..store.len())
            .map(|i| store.value(ParamId(i)).data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn fit_per_example_matches_the_hand_written_loop() {
        let (mut want_store, lin, items) = linear_problem();
        let mut opt = Adam::new(0.05);
        let mut want_epochs = Vec::new();
        for _ in 0..3 {
            let mut sum = 0.0f64;
            for item in &items {
                let mut tape = Tape::new();
                let loss = squared_error(&lin, &want_store, &mut tape, item);
                sum += tape.value(loss).item() as f64;
                tape.backward(loss, &mut want_store);
                want_store.clip_grad_norm(5.0);
                opt.step(&mut want_store);
            }
            want_epochs.push((sum, 2 * items.len()));
        }

        let (mut store, lin, items) = linear_problem();
        let fit = fit_per_example(
            &mut store,
            |s| s,
            &items,
            3,
            0.05,
            |s, tape, item| Some((squared_error(&lin, s, tape, item), 2)),
        );
        assert_eq!(fit.skipped, 0);
        let bits_of = |e: &[(f64, usize)]| -> Vec<(u64, usize)> {
            e.iter().map(|&(s, n)| (s.to_bits(), n)).collect()
        };
        assert_eq!(bits_of(&fit.epochs), bits_of(&want_epochs));
        assert_eq!(bits(&store), bits(&want_store));
    }

    #[test]
    fn a_non_finite_loss_skips_its_item_and_changes_no_weight() {
        let (mut clean, lin, items) = linear_problem();
        let kept: Vec<(usize, &(Tensor, Tensor))> =
            items.iter().enumerate().filter(|&(i, _)| i != 2).collect();
        let want = fit_per_example(
            &mut clean,
            |s| s,
            &kept,
            2,
            0.05,
            |s, tape, (_, item)| Some((squared_error(&lin, s, tape, item), 1)),
        );

        let (mut store, lin, items) = linear_problem();
        let all: Vec<(usize, &(Tensor, Tensor))> = items.iter().enumerate().collect();
        let fit = fit_per_example(
            &mut store,
            |s| s,
            &all,
            2,
            0.05,
            |s, tape, &(i, item)| {
                let loss = squared_error(&lin, s, tape, item);
                if i != 2 {
                    return Some((loss, 1));
                }
                let nan = tape.constant(Tensor::scalar(f32::NAN));
                Some((tape.mul(loss, nan), 1))
            },
        );
        assert_eq!(fit.skipped, 2, "the NaN item is skipped once per epoch");
        assert_eq!(fit.epochs, want.epochs);
        assert_eq!(bits(&store), bits(&clean));
    }
}
