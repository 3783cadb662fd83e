//! Reusable neural building blocks: linear layers, embeddings, LSTM/GRU
//! cells with sequence runners, multi-head self-attention and (pre-LN)
//! Transformer blocks.
//!
//! Every block has exactly **one** forward implementation, written against
//! the [`Exec`] backend: run it with a [`crate::Tape`] to record autograd
//! nodes for training, or with a [`crate::BatchedExec`] for tape-free pooled
//! inference. The backends produce bit-identical forward values (see
//! [`crate::exec`]).
//!
//! These are substrate components shared by the embedding pretrainers
//! (`ner-embed`) and the NER models (`ner-core`); everything here is
//! architecture-agnostic.

use crate::exec::{Exec, PackedExec};
use crate::fused::Activation;
use crate::{init, ParamId, ParamStore, Tensor};
use rand::Rng;

/// A fully connected layer `y = x·W + b`.
#[derive(Clone, Copy, Debug)]
pub struct Linear {
    /// Weight matrix `[d_in, d_out]`.
    pub w: ParamId,
    /// Bias row `[1, d_out]`.
    pub b: ParamId,
}

impl Linear {
    /// Registers a Xavier-initialized linear layer under `name`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_out: usize,
    ) -> Self {
        Linear {
            w: store.register(&format!("{name}.w"), init::xavier(rng, d_in, d_out)),
            b: store.register(&format!("{name}.b"), init::zeros(1, d_out)),
        }
    }

    /// Registers a He-initialized layer (use before ReLU).
    pub fn new_he(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        d_out: usize,
    ) -> Self {
        Linear {
            w: store.register(&format!("{name}.w"), init::he(rng, d_in, d_out)),
            b: store.register(&format!("{name}.b"), init::zeros(1, d_out)),
        }
    }

    /// Applies the layer to `x [n, d_in] → [n, d_out]`.
    pub fn forward<E: Exec>(&self, ex: &mut E, store: &ParamStore, x: E::V) -> E::V {
        self.forward_act(ex, store, x, Activation::None)
    }

    /// [`forward`](Self::forward) with a fused activation — on a tape this
    /// is the `affine` node followed by the activation's node.
    pub fn forward_act<E: Exec>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        x: E::V,
        act: Activation,
    ) -> E::V {
        let w = ex.param(store, self.w);
        let b = ex.param(store, self.b);
        ex.affine_act(x, w, b, act)
    }
}

/// An embedding table with gather-based lookup.
#[derive(Clone, Copy, Debug)]
pub struct Embedding {
    /// The table parameter `[vocab, dim]`.
    pub table: ParamId,
}

impl Embedding {
    /// Registers a small-uniform-initialized table.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        vocab: usize,
        dim: usize,
    ) -> Self {
        Embedding { table: store.register(name, init::embedding(rng, vocab, dim)) }
    }

    /// Looks up `ids`, producing `[ids.len(), dim]`. On a tape, gradients
    /// scatter-add into the selected rows only.
    pub fn lookup<E: Exec>(&self, ex: &mut E, store: &ParamStore, ids: &[usize]) -> E::V {
        ex.lookup(store, self.table, ids)
    }
}

/// A long short-term memory cell (gate order i, f, g, o; forget bias 1).
#[derive(Clone, Copy, Debug)]
pub struct LstmCell {
    w_ih: ParamId,
    w_hh: ParamId,
    b: ParamId,
    hidden: usize,
}

/// Running state of an LSTM on some backend: leased weights plus `(h, c)`.
pub struct LstmRun<V> {
    w_ih: V,
    w_hh: V,
    b: V,
    /// Current hidden state `[1, h]`.
    pub h: V,
    /// Current cell state `[1, h]`.
    pub c: V,
}

impl LstmCell {
    /// Registers an LSTM cell mapping `d_in → hidden`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        hidden: usize,
    ) -> Self {
        let w_ih = store.register(&format!("{name}.w_ih"), init::xavier(rng, d_in, 4 * hidden));
        let w_hh = store.register(&format!("{name}.w_hh"), init::xavier(rng, hidden, 4 * hidden));
        let mut bias = init::zeros(1, 4 * hidden);
        // Forget-gate bias of 1: the standard trick to ease long-range
        // gradient flow early in training.
        for i in hidden..2 * hidden {
            bias.set2(0, i, 1.0);
        }
        let b = store.register(&format!("{name}.b"), bias);
        LstmCell { w_ih, w_hh, b, hidden }
    }

    /// Hidden dimensionality.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Leases weights into the backend and returns zeroed `(h, c)` state.
    pub fn begin<E: Exec>(&self, ex: &mut E, store: &ParamStore) -> LstmRun<E::V> {
        LstmRun {
            w_ih: ex.param(store, self.w_ih),
            w_hh: ex.param(store, self.w_hh),
            b: ex.param(store, self.b),
            h: ex.constant(Tensor::zeros(1, self.hidden)),
            c: ex.constant(Tensor::zeros(1, self.hidden)),
        }
    }

    /// One timestep on input `x [1, d_in]`; updates `run.h` / `run.c`.
    pub fn step<E: Exec>(&self, ex: &mut E, run: &mut LstmRun<E::V>, x: E::V) {
        let xp = ex.matmul(x, run.w_ih);
        let hp = ex.matmul(run.h, run.w_hh);
        let s = ex.add(xp, hp);
        let pre = ex.add_bias(s, run.b);
        let (h, c) = ex.lstm_gates(pre, run.c, self.hidden);
        run.h = h;
        run.c = c;
    }

    /// Runs the whole sequence `xs [n, d_in] → [n, hidden]` left to right
    /// via [`Exec::lstm_sequence`] (the tape expands it to the per-step
    /// chain of [`LstmCell::step`]; the packed backends batch it).
    pub fn sequence<E: Exec>(&self, ex: &mut E, store: &ParamStore, xs: E::V) -> E::V {
        ex.lstm_sequence(store, self.w_ih, self.w_hh, self.b, self.hidden, xs)
    }

    /// Runs right to left, returning outputs aligned with the input order
    /// (row `t` is the backward state at position `t`).
    pub fn sequence_rev<E: Exec>(&self, ex: &mut E, store: &ParamStore, xs: E::V) -> E::V {
        let rev = ex.reverse_rows(xs);
        let out = self.sequence(ex, store, rev);
        ex.reverse_rows(out)
    }
}

/// A gated recurrent unit cell (PyTorch gate conventions).
#[derive(Clone, Copy, Debug)]
pub struct GruCell {
    w_ih: ParamId,
    w_hh: ParamId,
    b_ih: ParamId,
    b_hh: ParamId,
    hidden: usize,
}

/// Running state of a GRU on some backend.
pub struct GruRun<V> {
    w_ih: V,
    w_hh: V,
    b_ih: V,
    b_hh: V,
    /// Current hidden state `[1, h]`.
    pub h: V,
}

impl GruCell {
    /// Registers a GRU cell mapping `d_in → hidden`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_in: usize,
        hidden: usize,
    ) -> Self {
        GruCell {
            w_ih: store.register(&format!("{name}.w_ih"), init::xavier(rng, d_in, 3 * hidden)),
            w_hh: store.register(&format!("{name}.w_hh"), init::xavier(rng, hidden, 3 * hidden)),
            b_ih: store.register(&format!("{name}.b_ih"), init::zeros(1, 3 * hidden)),
            b_hh: store.register(&format!("{name}.b_hh"), init::zeros(1, 3 * hidden)),
            hidden,
        }
    }

    /// Hidden dimensionality.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Leases weights and returns a zeroed state.
    pub fn begin<E: Exec>(&self, ex: &mut E, store: &ParamStore) -> GruRun<E::V> {
        GruRun {
            w_ih: ex.param(store, self.w_ih),
            w_hh: ex.param(store, self.w_hh),
            b_ih: ex.param(store, self.b_ih),
            b_hh: ex.param(store, self.b_hh),
            h: ex.constant(Tensor::zeros(1, self.hidden)),
        }
    }

    /// One timestep on `x [1, d_in]`; updates `run.h`.
    pub fn step<E: Exec>(&self, ex: &mut E, run: &mut GruRun<E::V>, x: E::V) {
        let xp0 = ex.matmul(x, run.w_ih);
        let xp = ex.add_bias(xp0, run.b_ih);
        let hp0 = ex.matmul(run.h, run.w_hh);
        let hp = ex.add_bias(hp0, run.b_hh);
        run.h = ex.gru_gates(xp, hp, run.h, self.hidden);
    }

    /// Runs the whole sequence left to right, `[n, d_in] → [n, hidden]`,
    /// via [`Exec::gru_sequence`] (the tape expands it to the per-step
    /// chain of [`GruCell::step`]; the packed backends batch it).
    pub fn sequence<E: Exec>(&self, ex: &mut E, store: &ParamStore, xs: E::V) -> E::V {
        ex.gru_sequence(store, self.w_ih, self.w_hh, self.b_ih, self.b_hh, self.hidden, xs)
    }

    /// Runs right to left with outputs aligned to input order.
    pub fn sequence_rev<E: Exec>(&self, ex: &mut E, store: &ParamStore, xs: E::V) -> E::V {
        let rev = ex.reverse_rows(xs);
        let out = self.sequence(ex, store, rev);
        ex.reverse_rows(out)
    }
}

/// Concatenates a forward and a backward recurrent pass: `[n, 2·hidden]`.
/// This is the "bidirectional RNN as de-facto standard" of paper §3.3.2.
pub fn bidirectional<E: Exec>(
    ex: &mut E,
    store: &ParamStore,
    forward: &LstmCell,
    backward: &LstmCell,
    xs: E::V,
) -> E::V {
    let fw = forward.sequence(ex, store, xs);
    let bw = backward.sequence_rev(ex, store, xs);
    ex.concat_cols(&[fw, bw])
}

/// Sinusoidal positional encodings `[n, d]` (Vaswani et al. 2017).
pub fn positional_encoding(n: usize, d: usize) -> Tensor {
    let mut pe = Tensor::zeros(n, d);
    for pos in 0..n {
        for i in 0..d {
            let angle = pos as f64 / 10_000f64.powf((2 * (i / 2)) as f64 / d as f64);
            let v = if i % 2 == 0 { angle.sin() } else { angle.cos() };
            pe.set2(pos, i, v as f32);
        }
    }
    pe
}

/// Multi-head scaled-dot-product self-attention.
#[derive(Clone, Copy, Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    d_model: usize,
}

impl MultiHeadAttention {
    /// Registers an attention layer with `heads` heads over `d_model`
    /// (must divide evenly).
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_model: usize,
        heads: usize,
    ) -> Self {
        assert!(heads > 0 && d_model.is_multiple_of(heads), "d_model must be divisible by heads");
        MultiHeadAttention {
            wq: Linear::new(store, rng, &format!("{name}.wq"), d_model, d_model),
            wk: Linear::new(store, rng, &format!("{name}.wk"), d_model, d_model),
            wv: Linear::new(store, rng, &format!("{name}.wv"), d_model, d_model),
            wo: Linear::new(store, rng, &format!("{name}.wo"), d_model, d_model),
            heads,
            d_model,
        }
    }

    /// Self-attention over `x [n, d_model]`. With `causal = true`, position
    /// `t` may only attend to positions `≤ t` (the GPT-style mask); with
    /// `false`, attention is bidirectional (the BERT-style encoder).
    ///
    /// The per-head scores are `q_h · (k_h)ᵀ` via an explicit transpose +
    /// `matmul` — NOT `matmul_nt`, whose register-accumulator dot products
    /// round differently and would break bit-identity between backends.
    pub fn forward<E: Exec>(&self, ex: &mut E, store: &ParamStore, x: E::V, causal: bool) -> E::V {
        let n = ex.value(x).rows();
        let dk = self.d_model / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let q = self.wq.forward(ex, store, x);
        let k = self.wk.forward(ex, store, x);
        let v = self.wv.forward(ex, store, x);

        let mask = causal.then(|| {
            let mut m = Tensor::zeros(n, n);
            for r in 0..n {
                for c in (r + 1)..n {
                    m.set2(r, c, -1e9);
                }
            }
            ex.constant(m)
        });

        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let qh = ex.slice_cols(q, h * dk, dk);
            let kh = ex.slice_cols(k, h * dk, dk);
            let vh = ex.slice_cols(v, h * dk, dk);
            let kt = ex.transpose(kh);
            let scores0 = ex.matmul(qh, kt);
            let mut scores = ex.scale(scores0, scale);
            if let Some(m) = mask {
                scores = ex.add(scores, m);
            }
            let attn = ex.softmax_rows(scores);
            head_outputs.push(ex.matmul(attn, vh));
        }
        let concat = ex.concat_cols(&head_outputs);
        self.wo.forward(ex, store, concat)
    }

    /// Self-attention over a packed batch of segments: the q/k/v and
    /// output projections run as single GEMMs over all `[N, d_model]`
    /// packed rows, while the per-head attention core (scores, softmax,
    /// weighted sum) runs per segment inside [`PackedExec::scoped`] —
    /// attention must not mix tokens from different sentences. Each
    /// segment's output rows are bit-identical to
    /// [`MultiHeadAttention::forward`] on that segment alone, on both the
    /// inference ([`crate::BatchedExec`]) and training
    /// ([`crate::BatchedTapeExec`]) backends.
    pub fn forward_batch<P: PackedExec>(
        &self,
        bx: &mut P,
        store: &ParamStore,
        x: P::V,
        causal: bool,
    ) -> P::V {
        let dk = self.d_model / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let q = self.wq.forward(bx, store, x);
        let k = self.wk.forward(bx, store, x);
        let v = self.wv.forward(bx, store, x);

        let mut seg_outputs = Vec::with_capacity(bx.segments());
        for s in 0..bx.segments() {
            let qs = bx.slice_segment(q, s);
            let ks = bx.slice_segment(k, s);
            let vs = bx.slice_segment(v, s);
            let n = bx.len_of(s);
            let out = bx.scoped(s, |ex| {
                let mask = causal.then(|| {
                    let mut m = Tensor::zeros(n, n);
                    for r in 0..n {
                        for c in (r + 1)..n {
                            m.set2(r, c, -1e9);
                        }
                    }
                    ex.constant(m)
                });
                let mut head_outputs = Vec::with_capacity(self.heads);
                for h in 0..self.heads {
                    let qh = ex.slice_cols(qs, h * dk, dk);
                    let kh = ex.slice_cols(ks, h * dk, dk);
                    let vh = ex.slice_cols(vs, h * dk, dk);
                    let kt = ex.transpose(kh);
                    let scores0 = ex.matmul(qh, kt);
                    let mut scores = ex.scale(scores0, scale);
                    if let Some(m) = mask {
                        scores = ex.add(scores, m);
                    }
                    let attn = ex.softmax_rows(scores);
                    head_outputs.push(ex.matmul(attn, vh));
                }
                ex.concat_cols(&head_outputs)
            });
            seg_outputs.push(out);
        }
        let concat = bx.concat_rows(&seg_outputs);
        self.wo.forward(bx, store, concat)
    }
}

/// A pre-LN Transformer block: `x + Attn(LN(x))` then `· + FF(LN(·))`.
#[derive(Clone, Copy, Debug)]
pub struct TransformerBlock {
    attn: MultiHeadAttention,
    ln1_g: ParamId,
    ln1_b: ParamId,
    ln2_g: ParamId,
    ln2_b: ParamId,
    ff1: Linear,
    ff2: Linear,
}

impl TransformerBlock {
    /// Registers a block over `d_model` with `heads` heads and a feed-forward
    /// hidden width of `d_ff`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        d_model: usize,
        heads: usize,
        d_ff: usize,
    ) -> Self {
        TransformerBlock {
            attn: MultiHeadAttention::new(store, rng, &format!("{name}.attn"), d_model, heads),
            ln1_g: store.register(&format!("{name}.ln1.g"), Tensor::full(1, d_model, 1.0)),
            ln1_b: store.register(&format!("{name}.ln1.b"), init::zeros(1, d_model)),
            ln2_g: store.register(&format!("{name}.ln2.g"), Tensor::full(1, d_model, 1.0)),
            ln2_b: store.register(&format!("{name}.ln2.b"), init::zeros(1, d_model)),
            ff1: Linear::new_he(store, rng, &format!("{name}.ff1"), d_model, d_ff),
            ff2: Linear::new(store, rng, &format!("{name}.ff2"), d_ff, d_model),
        }
    }

    /// Applies the block to `x [n, d_model]`.
    pub fn forward<E: Exec>(&self, ex: &mut E, store: &ParamStore, x: E::V, causal: bool) -> E::V {
        let g1 = ex.param(store, self.ln1_g);
        let b1 = ex.param(store, self.ln1_b);
        let normed = ex.layer_norm(x, g1, b1);
        let attended = self.attn.forward(ex, store, normed, causal);
        let x = ex.add(x, attended);

        let g2 = ex.param(store, self.ln2_g);
        let b2 = ex.param(store, self.ln2_b);
        let normed = ex.layer_norm(x, g2, b2);
        let h = self.ff1.forward_act(ex, store, normed, Activation::Relu);
        let h = self.ff2.forward(ex, store, h);
        ex.add(x, h)
    }

    /// Applies the block to a packed batch `x [N, d_model]`: layer norm,
    /// residual adds and the feed-forward are row-wise and run over the
    /// whole packed matrix; only the attention core is segment-aware (via
    /// [`MultiHeadAttention::forward_batch`]).
    pub fn forward_batch<P: PackedExec>(
        &self,
        bx: &mut P,
        store: &ParamStore,
        x: P::V,
        causal: bool,
    ) -> P::V {
        let g1 = bx.param(store, self.ln1_g);
        let b1 = bx.param(store, self.ln1_b);
        let normed = bx.layer_norm(x, g1, b1);
        let attended = self.attn.forward_batch(bx, store, normed, causal);
        let x = bx.add(x, attended);

        let g2 = bx.param(store, self.ln2_g);
        let b2 = bx.param(store, self.ln2_b);
        let normed = bx.layer_norm(x, g2, b2);
        let h = self.ff1.forward_act(bx, store, normed, Activation::Relu);
        let h = self.ff2.forward(bx, store, h);
        bx.add(x, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use crate::{BatchedExec, Tape, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn train_sequence_task(
        forward: impl Fn(&mut Tape, &ParamStore, Var) -> Var,
        store: &mut ParamStore,
    ) -> (f32, f32) {
        // Task: given a 4-step sequence of 2-d inputs, predict at each step
        // whether the *first* step's first feature was positive — requires
        // carrying information across time.
        let mut opt = Adam::new(0.02);
        let inputs = [
            (Tensor::from_rows(&[&[1.0, 0.2], &[0.0, 1.0], &[0.3, 0.3], &[0.1, 0.9]]), 1.0),
            (Tensor::from_rows(&[&[-1.0, 0.2], &[0.0, 1.0], &[0.3, 0.3], &[0.1, 0.9]]), 0.0),
            (Tensor::from_rows(&[&[0.8, -0.5], &[0.5, 0.5], &[-0.2, 0.1], &[0.9, 0.0]]), 1.0),
            (Tensor::from_rows(&[&[-0.7, -0.5], &[0.5, 0.5], &[-0.2, 0.1], &[0.9, 0.0]]), 0.0),
        ];
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        for epoch in 0..150 {
            let mut total = 0.0;
            for (x, y) in &inputs {
                let mut tape = Tape::new();
                let xs = tape.constant(x.clone());
                let probs = forward(&mut tape, store, xs);
                let labels = Tensor::full(tape.value(probs).rows(), tape.value(probs).cols(), *y);
                let loss = tape.binary_cross_entropy_sum(probs, &labels);
                total += tape.value(loss).item();
                tape.backward(loss, store);
                opt.step(store);
            }
            if epoch == 0 {
                first_loss = total;
            }
            last_loss = total;
        }
        (first_loss, last_loss)
    }

    #[test]
    fn lstm_learns_to_carry_state() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let cell = LstmCell::new(&mut store, &mut rng, "lstm", 2, 8);
        let head = Linear::new(&mut store, &mut rng, "head", 8, 1);
        let (first, last) = train_sequence_task(
            |tape, store, xs| {
                let hs = cell.sequence(tape, store, xs);
                let logits = head.forward(tape, store, hs);
                tape.sigmoid(logits)
            },
            &mut store,
        );
        assert!(last < first * 0.3, "LSTM loss should fall sharply: {first} -> {last}");
    }

    #[test]
    fn gru_learns_to_carry_state() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let cell = GruCell::new(&mut store, &mut rng, "gru", 2, 8);
        let head = Linear::new(&mut store, &mut rng, "head", 8, 1);
        let (first, last) = train_sequence_task(
            |tape, store, xs| {
                let hs = cell.sequence(tape, store, xs);
                let logits = head.forward(tape, store, hs);
                tape.sigmoid(logits)
            },
            &mut store,
        );
        assert!(last < first * 0.3, "GRU loss should fall sharply: {first} -> {last}");
    }

    #[test]
    fn bidirectional_sees_both_directions() {
        // Predict at every position whether the LAST step's first feature is
        // positive — impossible for a forward-only pass at position 0, easy
        // for a bidirectional one.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let fw = LstmCell::new(&mut store, &mut rng, "fw", 2, 6);
        let bw = LstmCell::new(&mut store, &mut rng, "bw", 2, 6);
        let head = Linear::new(&mut store, &mut rng, "head", 12, 1);
        let mut opt = Adam::new(0.02);
        let inputs = [
            (Tensor::from_rows(&[&[0.1, 0.2], &[0.0, 1.0], &[1.0, 0.3]]), 1.0),
            (Tensor::from_rows(&[&[0.1, 0.2], &[0.0, 1.0], &[-1.0, 0.3]]), 0.0),
        ];
        let mut last = 0.0;
        for _ in 0..150 {
            last = 0.0;
            for (x, y) in &inputs {
                let mut tape = Tape::new();
                let xs = tape.constant(x.clone());
                let hs = bidirectional(&mut tape, &store, &fw, &bw, xs);
                let logits = head.forward(&mut tape, &store, hs);
                let probs = tape.sigmoid(logits);
                let labels = Tensor::full(3, 1, *y);
                let loss = tape.binary_cross_entropy_sum(probs, &labels);
                last += tape.value(loss).item();
                tape.backward(loss, &mut store);
                opt.step(&mut store);
            }
        }
        assert!(last < 0.5, "bidirectional loss at position 0 should vanish, got {last}");
    }

    #[test]
    fn attention_output_shape_and_causality() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let attn = MultiHeadAttention::new(&mut store, &mut rng, "attn", 8, 2);
        let x1 = Tensor::from_rows(&[&[0.1; 8], &[0.5; 8], &[0.9; 8]]);
        let mut x2 = x1.clone();
        // Change only the LAST row; causal attention must leave row 0 unchanged.
        x2.row_mut(2).iter_mut().for_each(|v| *v = -1.0);

        let mut t1 = Tape::new();
        let v1 = t1.constant(x1);
        let o1 = attn.forward(&mut t1, &store, v1, true);
        let mut t2 = Tape::new();
        let v2 = t2.constant(x2);
        let o2 = attn.forward(&mut t2, &store, v2, true);
        assert_eq!(t1.value(o1).shape(), (3, 8));
        for (a, b) in t1.value(o1).row(0).iter().zip(t2.value(o2).row(0)) {
            assert!((a - b).abs() < 1e-6, "causal row 0 must not see future tokens");
        }
        // Bidirectional attention DOES propagate the change to row 0.
        let mut t3 = Tape::new();
        let v3 = t3.constant(t2.value(v2).clone());
        let o3 = attn.forward(&mut t3, &store, v3, false);
        let differs =
            t1.value(o1).row(0).iter().zip(t3.value(o3).row(0)).any(|(a, b)| (a - b).abs() > 1e-6);
        assert!(differs, "bidirectional row 0 should see the changed future token");
    }

    #[test]
    fn transformer_block_trains() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let block = TransformerBlock::new(&mut store, &mut rng, "blk", 8, 2, 16);
        let head = Linear::new(&mut store, &mut rng, "head", 8, 1);
        let proj = Linear::new(&mut store, &mut rng, "proj", 2, 8);
        let (first, last) = train_sequence_task(
            |tape, store, xs| {
                let x = proj.forward(tape, store, xs);
                let h = block.forward(tape, store, x, false);
                let logits = head.forward(tape, store, h);
                tape.sigmoid(logits)
            },
            &mut store,
        );
        assert!(last < first, "transformer loss should decrease: {first} -> {last}");
    }

    #[test]
    fn positional_encoding_shape_and_range() {
        let pe = positional_encoding(10, 8);
        assert_eq!(pe.shape(), (10, 8));
        assert!(pe.data().iter().all(|v| v.abs() <= 1.0 + 1e-6));
        // Row 0 alternates sin(0)=0, cos(0)=1.
        assert_eq!(pe.at2(0, 0), 0.0);
        assert!((pe.at2(0, 1) - 1.0).abs() < 1e-6);
    }

    /// One forward, two backends: the tape-free backend (a batch of one)
    /// must reproduce the tape's forward values bit for bit on every layer
    /// family.
    #[test]
    fn fused_backend_matches_tape_on_every_layer() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, &mut rng, "lin", 6, 5);
        let emb = Embedding::new(&mut store, &mut rng, "emb", 9, 6);
        let lstm_fw = LstmCell::new(&mut store, &mut rng, "lstm.fw", 6, 4);
        let lstm_bw = LstmCell::new(&mut store, &mut rng, "lstm.bw", 6, 4);
        let gru = GruCell::new(&mut store, &mut rng, "gru", 6, 4);
        let block = TransformerBlock::new(&mut store, &mut rng, "blk", 6, 2, 12);
        let ids = [3usize, 1, 7, 7, 0];

        fn run<E: Exec>(
            ex: &mut E,
            store: &ParamStore,
            layers: &(Linear, Embedding, LstmCell, LstmCell, GruCell, TransformerBlock),
            ids: &[usize],
        ) -> Vec<Vec<f32>> {
            let (lin, emb, fw, bw, gru, block) = layers;
            let x = emb.lookup(ex, store, ids);
            let mut outs = Vec::new();
            for act in [Activation::None, Activation::Relu, Activation::Tanh, Activation::Sigmoid] {
                let y = lin.forward_act(ex, store, x, act);
                outs.push(ex.value(y).data().to_vec());
            }
            let bi = bidirectional(ex, store, fw, bw, x);
            outs.push(ex.value(bi).data().to_vec());
            let g = gru.sequence(ex, store, x);
            outs.push(ex.value(g).data().to_vec());
            let t = block.forward(ex, store, x, false);
            outs.push(ex.value(t).data().to_vec());
            let pe = ex.positional_encoding(5, 6);
            let xp = ex.add(x, pe);
            outs.push(ex.value(xp).data().to_vec());
            outs
        }

        let layers = (lin, emb, lstm_fw, lstm_bw, gru, block);
        let mut tape = Tape::new();
        let expect = run(&mut tape, &store, &layers, &ids);
        let mut fe = BatchedExec::new(&store, &[ids.len()]);
        let got = run(&mut fe, &store, &layers, &ids);
        assert_eq!(expect.len(), got.len());
        for (i, (e, g)) in expect.iter().zip(&got).enumerate() {
            assert_eq!(e, g, "layer output {i} diverged between backends");
        }
    }
}
