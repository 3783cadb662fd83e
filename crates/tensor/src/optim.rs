//! First-order optimizers and learning-rate schedules.
//!
//! Every optimizer consumes the gradients accumulated in a [`ParamStore`]
//! and clears them afterwards, so the training loop is simply
//! `forward → backward → opt.step(&mut store)`. [`fit_per_example`] is that
//! loop, one update per example, for the trainers outside `ner-core`'s
//! batched trainer.

use crate::{ParamStore, Tape, Tensor, Var};

/// A gradient-descent-family optimizer over a [`ParamStore`].
pub trait Optimizer {
    /// Applies one update from the accumulated gradients, then zeroes them.
    fn step(&mut self, store: &mut ParamStore);
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Overrides the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain SGD with optional classical momentum and L2 weight decay.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Option<Tensor>>,
}

impl Sgd {
    /// SGD with learning rate `lr`, no momentum, no weight decay.
    pub fn new(lr: f32) -> Self {
        Sgd { lr, momentum: 0.0, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// Adds classical momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore) {
        if self.velocity.len() < store.len() {
            self.velocity.resize(store.len(), None);
        }
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        store.for_each_unfrozen(|i, value, grad| {
            if mu == 0.0 {
                if wd > 0.0 {
                    value.scale_in_place(1.0 - lr * wd);
                }
                value.add_scaled(grad, -lr);
            } else {
                let v =
                    velocity[i].get_or_insert_with(|| Tensor::zeros(value.rows(), value.cols()));
                v.scale_in_place(mu);
                v.add_scaled(grad, 1.0);
                if wd > 0.0 {
                    value.scale_in_place(1.0 - lr * wd);
                }
                value.add_scaled(v, -lr);
            }
        });
        store.zero_grad();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adagrad: per-weight learning rates from accumulated squared gradients.
pub struct Adagrad {
    lr: f32,
    eps: f32,
    accum: Vec<Option<Tensor>>,
}

impl Adagrad {
    /// Adagrad with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Adagrad { lr, eps: 1e-8, accum: Vec::new() }
    }
}

impl Optimizer for Adagrad {
    fn step(&mut self, store: &mut ParamStore) {
        if self.accum.len() < store.len() {
            self.accum.resize(store.len(), None);
        }
        let (lr, eps) = (self.lr, self.eps);
        let accum = &mut self.accum;
        store.for_each_unfrozen(|i, value, grad| {
            let a = accum[i].get_or_insert_with(|| Tensor::zeros(value.rows(), value.cols()));
            for ((v, &g), acc) in
                value.data_mut().iter_mut().zip(grad.data()).zip(a.data_mut().iter_mut())
            {
                *acc += g * g;
                *v -= lr * g / (acc.sqrt() + eps);
            }
        });
        store.zero_grad();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// RMSProp: exponentially decayed squared-gradient scaling.
pub struct RmsProp {
    lr: f32,
    decay: f32,
    eps: f32,
    accum: Vec<Option<Tensor>>,
}

impl RmsProp {
    /// RMSProp with learning rate `lr` and the conventional 0.9 decay.
    pub fn new(lr: f32) -> Self {
        RmsProp { lr, decay: 0.9, eps: 1e-8, accum: Vec::new() }
    }
}

impl Optimizer for RmsProp {
    fn step(&mut self, store: &mut ParamStore) {
        if self.accum.len() < store.len() {
            self.accum.resize(store.len(), None);
        }
        let (lr, decay, eps) = (self.lr, self.decay, self.eps);
        let accum = &mut self.accum;
        store.for_each_unfrozen(|i, value, grad| {
            let a = accum[i].get_or_insert_with(|| Tensor::zeros(value.rows(), value.cols()));
            for ((v, &g), acc) in
                value.data_mut().iter_mut().zip(grad.data()).zip(a.data_mut().iter_mut())
            {
                *acc = decay * *acc + (1.0 - decay) * g * g;
                *v -= lr * g / (acc.sqrt() + eps);
            }
        });
        store.zero_grad();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with bias correction; `decoupled = true` turns it into
/// AdamW (weight decay applied to the weights, not the gradient).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    decoupled: bool,
    t: u64,
    m: Vec<Option<Tensor>>,
    v: Vec<Option<Tensor>>,
}

impl Adam {
    /// Adam with the conventional β₁=0.9, β₂=0.999.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            decoupled: false,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// AdamW: decoupled weight decay `wd`.
    pub fn adamw(lr: f32, wd: f32) -> Self {
        let mut a = Adam::new(lr);
        a.weight_decay = wd;
        a.decoupled = true;
        a
    }

    /// Overrides the β coefficients.
    pub fn with_betas(mut self, beta1: f32, beta2: f32) -> Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        if self.m.len() < store.len() {
            self.m.resize(store.len(), None);
            self.v.resize(store.len(), None);
        }
        self.t += 1;
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let (wd, decoupled) = (self.weight_decay, self.decoupled);
        let (ms, vs) = (&mut self.m, &mut self.v);
        store.for_each_unfrozen(|i, value, grad| {
            let m = ms[i].get_or_insert_with(|| Tensor::zeros(value.rows(), value.cols()));
            let v = vs[i].get_or_insert_with(|| Tensor::zeros(value.rows(), value.cols()));
            if decoupled && wd > 0.0 {
                value.scale_in_place(1.0 - lr * wd);
            }
            for (((w, &g), mi), vi) in value
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut().iter_mut())
                .zip(v.data_mut().iter_mut())
            {
                let g = if !decoupled && wd > 0.0 { g + wd * *w } else { g };
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *w -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
        store.zero_grad();
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Learning-rate schedules, applied per epoch via [`LrSchedule::apply`].
#[derive(Clone, Copy, Debug)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// `lr₀ / (1 + decay · epoch)` — the schedule of Ma & Hovy (2016).
    InverseTime {
        /// Decay coefficient per epoch.
        decay: f32,
    },
    /// Multiply by `gamma` every `every` epochs.
    Step {
        /// Epoch interval between decays.
        every: usize,
        /// Multiplicative factor applied at each step.
        gamma: f32,
    },
}

impl LrSchedule {
    /// The learning rate for `epoch` (0-based) given the base rate.
    pub fn lr_at(&self, base_lr: f32, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base_lr,
            LrSchedule::InverseTime { decay } => base_lr / (1.0 + decay * epoch as f32),
            LrSchedule::Step { every, gamma } => {
                base_lr * gamma.powi((epoch / every.max(1)) as i32)
            }
        }
    }

    /// Sets the optimizer's learning rate for `epoch`.
    pub fn apply(&self, opt: &mut dyn Optimizer, base_lr: f32, epoch: usize) {
        opt.set_learning_rate(self.lr_at(base_lr, epoch));
    }
}

/// The global gradient-norm bound [`fit_per_example`] clips to.
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

    /// Minimize (w−3)² with each optimizer; all should approach w = 3.
    fn run_quadratic(opt: &mut dyn Optimizer, steps: usize) -> f32 {
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
    fn sgd_converges() {
        assert!((run_quadratic(&mut Sgd::new(0.1), 100) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn sgd_momentum_converges() {
        let mut o = Sgd::new(0.05).with_momentum(0.9);
        assert!((run_quadratic(&mut o, 200) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn adagrad_converges() {
        assert!((run_quadratic(&mut Adagrad::new(0.9), 500) - 3.0).abs() < 0.05);
    }

    #[test]
    fn rmsprop_converges() {
        assert!((run_quadratic(&mut RmsProp::new(0.05), 500) - 3.0).abs() < 0.05);
    }

    #[test]
    fn adam_converges() {
        assert!((run_quadratic(&mut Adam::new(0.2), 300) - 3.0).abs() < 0.01);
    }

    #[test]
    fn adamw_decays_weights_toward_zero_without_gradient_signal() {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::scalar(10.0));
        let mut opt = Adam::adamw(0.01, 0.5);
        // No gradient at all: pure decoupled decay shrinks the weight.
        for _ in 0..10 {
            opt.step(&mut store);
        }
        assert!(store.value(p).item() < 10.0);
    }

    #[test]
    fn frozen_params_are_skipped() {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::scalar(1.0));
        store.set_frozen(p, true);
        store.accumulate_grad(p, &Tensor::scalar(100.0));
        Sgd::new(0.1).step(&mut store);
        assert_eq!(store.value(p).item(), 1.0);
    }

    #[test]
    fn schedules_compute_expected_rates() {
        assert_eq!(LrSchedule::Constant.lr_at(0.1, 5), 0.1);
        assert!((LrSchedule::InverseTime { decay: 0.5 }.lr_at(0.1, 2) - 0.05).abs() < 1e-7);
        assert!((LrSchedule::Step { every: 2, gamma: 0.1 }.lr_at(1.0, 4) - 0.01).abs() < 1e-7);
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
