//! RNN tag decoder (paper §3.4.3, Fig. 12(c); Shen et al. 2017).
//!
//! An LSTM consumes, at each step, the encoder state for the current token
//! concatenated with the embedding of the *previous* tag (\[GO\] at step 0),
//! and emits a softmax over tags. Training uses teacher forcing on the gold
//! previous tag; decoding is greedy, feeding back the argmax — the
//! serialization cost the paper's §3.5 comparison calls out.

use ner_tensor::nn::{Embedding, Linear, LstmCell};
use ner_tensor::{Exec, ParamStore, Tape, Var};
use rand::Rng;

/// An LSTM-based greedy tag decoder.
pub struct RnnDecoder {
    tag_emb: Embedding,
    cell: LstmCell,
    out: Linear,
    k: usize,
}

impl RnnDecoder {
    /// Registers the decoder: tag embeddings of width `tag_dim`, an LSTM of
    /// width `hidden` over `[encoder_state ; prev_tag]`, and a projection to
    /// `k` tags. The embedding table holds `k + 1` rows; row `k` is \[GO\].
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        enc_dim: usize,
        tag_dim: usize,
        hidden: usize,
        k: usize,
    ) -> Self {
        RnnDecoder {
            tag_emb: Embedding::new(store, rng, &format!("{name}.tag_emb"), k + 1, tag_dim),
            cell: LstmCell::new(store, rng, &format!("{name}.cell"), enc_dim + tag_dim, hidden),
            out: Linear::new(store, rng, &format!("{name}.out"), hidden, k),
            k,
        }
    }

    /// Number of tags.
    pub fn num_tags(&self) -> usize {
        self.k
    }

    /// Teacher-forced summed cross-entropy of `tags` given encoder states
    /// `enc [n, enc_dim]`.
    pub fn nll(&self, tape: &mut Tape, store: &ParamStore, enc: Var, tags: &[usize]) -> Var {
        let n = tape.value(enc).rows();
        assert_eq!(tags.len(), n, "one tag per encoder state");
        let mut run = self.cell.begin(tape, store);
        let mut logit_rows = Vec::with_capacity(n);
        for t in 0..n {
            let prev = if t == 0 { self.k } else { tags[t - 1] };
            let prev_emb = self.tag_emb.lookup(tape, store, &[prev]);
            let enc_t = tape.row(enc, t);
            let x = tape.concat_cols(&[enc_t, prev_emb]);
            self.cell.step(tape, &mut run, x);
            logit_rows.push(self.out.forward(tape, store, run.h));
        }
        let logits = tape.concat_rows(&logit_rows);
        tape.cross_entropy_sum(logits, tags)
    }

    /// Greedy decoding: predicts a tag sequence for `enc [n, enc_dim]` on
    /// any backend — the same feedback loop (and the same floats) whether
    /// or not a graph is being recorded.
    pub fn decode<E: Exec>(&self, ex: &mut E, store: &ParamStore, enc: E::V) -> Vec<usize> {
        let n = ex.value(enc).rows();
        let mut run = self.cell.begin(ex, store);
        let mut tags = Vec::with_capacity(n);
        let mut prev = self.k;
        for t in 0..n {
            let prev_emb = self.tag_emb.lookup(ex, store, &[prev]);
            let enc_t = ex.row(enc, t);
            let x = ex.concat_cols(&[enc_t, prev_emb]);
            self.cell.step(ex, &mut run, x);
            let logits = self.out.forward(ex, store, run.h);
            prev = ex.value(logits).argmax_row(0);
            tags.push(prev);
        }
        tags
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_tensor::optim::Adam;
    use ner_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn learns_emission_driven_tags() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let dec = RnnDecoder::new(&mut store, &mut rng, "dec", 2, 4, 8, 3);
        let enc = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[0.0, 0.0]]);
        let tags = [1usize, 2, 0, 1];
        let mut opt = Adam::new(0.05);
        for _ in 0..120 {
            let mut tape = Tape::new();
            let e = tape.constant(enc.clone());
            let loss = dec.nll(&mut tape, &store, e, &tags);
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let mut tape = Tape::new();
        let e = tape.constant(enc);
        assert_eq!(dec.decode(&mut tape, &store, e), tags.to_vec());
    }

    #[test]
    fn decode_output_length_matches_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let dec = RnnDecoder::new(&mut store, &mut rng, "dec", 3, 4, 8, 5);
        let mut tape = Tape::new();
        let e = tape.constant(Tensor::zeros(7, 3));
        let out = dec.decode(&mut tape, &store, e);
        assert_eq!(out.len(), 7);
        assert!(out.iter().all(|&t| t < 5));
    }
}
