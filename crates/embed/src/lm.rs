//! The two language-model cores the contextual embedders share (paper
//! §3.3.4–3.3.5, Fig. 11): a forward+backward LSTM LM ([`BiLstmLm`]) under
//! ELMo-lite (word ids) and the char-LM (character ids), and a Transformer
//! LM ([`TransformerLm`]) under GPT-lite (causal) and BERT-lite (masked).
//!
//! The cores own the parameters and the forward passes; each embedder keeps
//! its vocabulary, its id mapping, its training objective (for the
//! Transformer) and which positions `embed` reads. Every trainer runs
//! through [`fit_per_example`].

use ner_tensor::nn::{positional_encoding, Embedding, Linear, LstmCell, TransformerBlock};
use ner_tensor::optim::{fit_per_example, PerExampleFit};
use ner_tensor::{ParamStore, Tape, Tensor, Var};
use rand::Rng;

/// Per-epoch mean loss per prediction.
pub(crate) fn per_prediction(fit: &PerExampleFit) -> Vec<f32> {
    fit.epochs.iter().map(|&(sum, preds)| (sum / preds.max(1) as f64) as f32).collect()
}

/// Mean loss per prediction of `loss` over held-out id sequences, one
/// fresh tape each.
pub(crate) fn held_out_nll(
    seqs: impl IntoIterator<Item = Vec<usize>>,
    loss: impl Fn(&mut Tape, &[usize]) -> Option<(Var, usize)>,
) -> f64 {
    let (mut total, mut preds) = (0.0f64, 0usize);
    for ids in seqs {
        let mut tape = Tape::new();
        if let Some((l, n)) = loss(&mut tape, &ids) {
            total += tape.value(l).item() as f64;
            preds += n;
        }
    }
    total / preds.max(1) as f64
}

/// A forward LM predicting the next id and an independent backward LM
/// predicting the previous one; the two share only the input embedding.
pub(crate) struct BiLstmLm {
    emb: Embedding,
    fw: LstmCell,
    bw: LstmCell,
    out_fw: Linear,
    out_bw: Linear,
    store: ParamStore,
    hidden: usize,
}

impl BiLstmLm {
    /// Registers `{prefix}.emb`, `.fw`, `.bw`, `.out_fw` and `.out_bw`, in
    /// that order.
    pub(crate) fn new(
        prefix: &str,
        vocab_len: usize,
        dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, rng, &format!("{prefix}.emb"), vocab_len, dim);
        let fw = LstmCell::new(&mut store, rng, &format!("{prefix}.fw"), dim, hidden);
        let bw = LstmCell::new(&mut store, rng, &format!("{prefix}.bw"), dim, hidden);
        let out_fw = Linear::new(&mut store, rng, &format!("{prefix}.out_fw"), hidden, vocab_len);
        let out_bw = Linear::new(&mut store, rng, &format!("{prefix}.out_bw"), hidden, vocab_len);
        BiLstmLm { emb, fw, bw, out_fw, out_bw, store, hidden }
    }

    /// Width of one position's state: forward and backward concatenated.
    pub(crate) fn dim(&self) -> usize {
        2 * self.hidden
    }

    /// Trains on id sequences (each framed by boundary ids; shorter than 3
    /// is skipped); returns the per-epoch mean NLL per prediction.
    pub(crate) fn fit(&mut self, seqs: &[Vec<usize>], epochs: usize, lr: f32) -> Vec<f32> {
        let fit = fit_per_example(
            self,
            |lm| &mut lm.store,
            seqs,
            epochs,
            lr,
            |lm, tape, ids| lm.loss(tape, ids),
        );
        per_prediction(&fit)
    }

    /// Summed forward+backward NLL of one id sequence and its prediction
    /// count, or `None` when it has fewer than 3 ids.
    fn loss(&self, tape: &mut Tape, ids: &[usize]) -> Option<(Var, usize)> {
        let n = ids.len();
        if n < 3 {
            return None;
        }
        // Forward: consume ids[..n-1], predict ids[1..].
        let x = self.emb.lookup(tape, &self.store, &ids[..n - 1]);
        let hs = self.fw.sequence(tape, &self.store, x);
        let logits = self.out_fw.forward(tape, &self.store, hs);
        let loss_f = tape.cross_entropy_sum(logits, &ids[1..]);
        // Backward: consume reversed ids[1..], predict the id before each.
        let rev: Vec<usize> = ids[1..].iter().rev().copied().collect();
        let targets_rev: Vec<usize> = ids[..n - 1].iter().rev().copied().collect();
        let xb = self.emb.lookup(tape, &self.store, &rev);
        let hb = self.bw.sequence(tape, &self.store, xb);
        let logits_b = self.out_bw.forward(tape, &self.store, hb);
        let loss_b = tape.cross_entropy_sum(logits_b, &targets_rev);
        Some((tape.add(loss_f, loss_b), 2 * (n - 1)))
    }

    /// Mean NLL per prediction over held-out id sequences.
    pub(crate) fn nll(&self, seqs: impl IntoIterator<Item = Vec<usize>>) -> f64 {
        held_out_nll(seqs, |tape, ids| self.loss(tape, ids))
    }

    /// The forward and backward hidden states `[ids.len(), hidden]` at every
    /// position of `ids`.
    pub(crate) fn states(&self, ids: &[usize]) -> (Tensor, Tensor) {
        let mut tape = Tape::new();
        let x = self.emb.lookup(&mut tape, &self.store, ids);
        let fw = self.fw.sequence(&mut tape, &self.store, x);
        let bw = self.bw.sequence_rev(&mut tape, &self.store, x);
        (tape.value(fw).clone(), tape.value(bw).clone())
    }
}

/// Token embedding plus sinusoidal positions, a stack of Transformer
/// blocks, and an output projection onto the vocabulary.
pub(crate) struct TransformerLm {
    emb: Embedding,
    blocks: Vec<TransformerBlock>,
    out: Linear,
    store: ParamStore,
    d_model: usize,
}

impl TransformerLm {
    /// Registers `{prefix}.emb`, `.block0` … `.block{layers-1}` and `.out`,
    /// in that order.
    pub(crate) fn new(
        prefix: &str,
        vocab_len: usize,
        d_model: usize,
        heads: usize,
        layers: usize,
        d_ff: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, rng, &format!("{prefix}.emb"), vocab_len, d_model);
        let blocks = (0..layers)
            .map(|i| {
                let name = format!("{prefix}.block{i}");
                TransformerBlock::new(&mut store, rng, &name, d_model, heads, d_ff)
            })
            .collect();
        let out = Linear::new(&mut store, rng, &format!("{prefix}.out"), d_model, vocab_len);
        TransformerLm { emb, blocks, out, store, d_model }
    }

    /// Model width.
    pub(crate) fn dim(&self) -> usize {
        self.d_model
    }

    /// Final hidden states `[ids.len(), d_model]`; `causal` masks attention
    /// to the left context.
    pub(crate) fn encode(&self, tape: &mut Tape, ids: &[usize], causal: bool) -> Var {
        let e = self.emb.lookup(tape, &self.store, ids);
        let pe = tape.constant(positional_encoding(ids.len(), self.d_model));
        let mut h = tape.add(e, pe);
        for block in &self.blocks {
            h = block.forward(tape, &self.store, h, causal);
        }
        h
    }

    /// Vocabulary logits for hidden states `h`.
    pub(crate) fn logits(&self, tape: &mut Tape, h: Var) -> Var {
        self.out.forward(tape, &self.store, h)
    }

    /// Trains with `loss` as the per-sequence objective; returns the
    /// per-epoch mean loss per prediction.
    pub(crate) fn fit(
        &mut self,
        seqs: &[Vec<usize>],
        epochs: usize,
        lr: f32,
        loss: impl FnMut(&Self, &mut Tape, &Vec<usize>) -> Option<(Var, usize)>,
    ) -> Vec<f32> {
        per_prediction(&fit_per_example(self, |lm| &mut lm.store, seqs, epochs, lr, loss))
    }
}
