//! Pointer-network tag decoder (paper §3.4.4, Fig. 12(d); Zhai et al. 2017).
//!
//! Chunk-then-label: standing at position `s`, an additive-attention pointer
//! scores every candidate segment end `e ∈ (s, s+max_len]`; the segment
//! `[s, e)` is then classified into an entity type or `O`. Training teacher-
//! forces the gold segmentation (entities plus length-1 `O` chunks);
//! decoding repeats greedily until the sentence is consumed.

use crate::decoder::semicrf::Segment;
use ner_tensor::nn::Linear;
use ner_tensor::{init, Exec, ParamId, ParamStore, Tape, Var};
use rand::Rng;

/// A greedy segment-and-label pointer decoder.
pub struct PointerDecoder {
    // Additive attention: score(s, e) = v · tanh(W_s h_s + W_e h_{e-1}).
    w_start: Linear,
    w_end: Linear,
    v: ParamId,
    // Segment classifier over [h_s ; h_{e−1}] → labels (0 = O).
    classify: Linear,
    labels: usize,
    max_len: usize,
}

impl PointerDecoder {
    /// Registers the decoder over `entity_types` types (+`O`) with segments
    /// of at most `max_len` tokens; `att` is the attention width.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        enc_dim: usize,
        att: usize,
        entity_types: usize,
        max_len: usize,
    ) -> Self {
        PointerDecoder {
            w_start: Linear::new(store, rng, &format!("{name}.w_start"), enc_dim, att),
            w_end: Linear::new(store, rng, &format!("{name}.w_end"), enc_dim, att),
            v: store.register(&format!("{name}.v"), init::xavier(rng, att, 1)),
            classify: Linear::new(
                store,
                rng,
                &format!("{name}.classify"),
                2 * enc_dim,
                entity_types + 1,
            ),
            labels: entity_types + 1,
            max_len,
        }
    }

    /// Number of labels including `O`.
    pub fn num_labels(&self) -> usize {
        self.labels
    }

    /// Maximum segment length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Pointer logits over candidate ends `e ∈ (s, s+cands]` as `[1, cands]`.
    fn pointer_logits<E: Exec>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        enc: E::V,
        s: usize,
        cands: usize,
    ) -> E::V {
        let h_s = ex.row(enc, s);
        let proj_s = self.w_start.forward(ex, store, h_s); // [1, att]
        let ends = ex.slice_rows(enc, s, cands); // h_s .. h_{s+cands-1}
        let proj_e = self.w_end.forward(ex, store, ends); // [cands, att]
        let summed = ex.add_bias(proj_e, proj_s); // broadcast start proj
        let act = ex.activation(summed, ner_tensor::fused::Activation::Tanh);
        let v = ex.param(store, self.v);
        let scores = ex.matmul(act, v); // [cands, 1]
        ex.transpose(scores) // [1, cands]
    }

    fn segment_logits<E: Exec>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        enc: E::V,
        s: usize,
        e: usize,
    ) -> E::V {
        let h_s = ex.row(enc, s);
        let h_e = ex.row(enc, e - 1);
        let rep = ex.concat_cols(&[h_s, h_e]);
        self.classify.forward(ex, store, rep)
    }

    /// Teacher-forced loss over the gold segmentation.
    pub fn nll(&self, tape: &mut Tape, store: &ParamStore, enc: Var, gold: &[Segment]) -> Var {
        let n = tape.value(enc).rows();
        let mut losses = Vec::with_capacity(2 * gold.len());
        for seg in gold {
            debug_assert!(seg.end <= n);
            let cands = self.max_len.min(n - seg.start);
            // Pointer loss: which candidate end is correct.
            if cands > 1 {
                let logits = self.pointer_logits(tape, store, enc, seg.start, cands);
                let target = seg.end - seg.start - 1;
                losses.push(tape.cross_entropy_sum(logits, &[target]));
            }
            // Label loss.
            let logits = self.segment_logits(tape, store, enc, seg.start, seg.end);
            losses.push(tape.cross_entropy_sum(logits, &[seg.label]));
        }
        let total = tape.concat_cols(&losses);
        tape.sum(total)
    }

    /// Greedy decoding into a segmentation covering the whole sentence, on
    /// any backend — identical floats and tie-breaking either way.
    pub fn decode<E: Exec>(&self, ex: &mut E, store: &ParamStore, enc: E::V) -> Vec<Segment> {
        let n = ex.value(enc).rows();
        let mut segs = Vec::new();
        let mut s = 0;
        while s < n {
            let cands = self.max_len.min(n - s);
            let len = if cands > 1 {
                let logits = self.pointer_logits(ex, store, enc, s, cands);
                ex.value(logits).argmax_row(0) + 1
            } else {
                1
            };
            let e = s + len;
            let logits = self.segment_logits(ex, store, enc, s, e);
            let label = ex.value(logits).argmax_row(0);
            segs.push(Segment { start: s, end: e, label });
            s = e;
        }
        segs
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
    fn learns_a_fixed_segmentation() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let dec = PointerDecoder::new(&mut store, &mut rng, "ptr", 3, 8, 2, 3);
        // Encoder states distinguish entity tokens (feature 0) from O.
        let enc = Tensor::from_rows(&[
            &[0.0, 1.0, 0.2],
            &[1.0, 0.0, 0.5],
            &[1.0, 0.0, -0.5],
            &[0.0, 1.0, 0.1],
        ]);
        let gold = vec![
            Segment { start: 0, end: 1, label: 0 },
            Segment { start: 1, end: 3, label: 1 },
            Segment { start: 3, end: 4, label: 0 },
        ];
        let mut opt = Adam::new(0.05);
        for _ in 0..150 {
            let mut tape = Tape::new();
            let e = tape.constant(enc.clone());
            let loss = dec.nll(&mut tape, &store, e, &gold);
            tape.backward(loss, &mut store);
            opt.step(&mut store);
        }
        let mut tape = Tape::new();
        let e = tape.constant(enc);
        let decoded = dec.decode(&mut tape, &store, e);
        assert_eq!(decoded, gold);
    }

    #[test]
    fn decode_tiles_the_sentence() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let dec = PointerDecoder::new(&mut store, &mut rng, "ptr", 4, 8, 3, 4);
        let mut tape = Tape::new();
        let e = tape.constant(init::uniform(&mut rng, 11, 4, 1.0));
        let segs = dec.decode(&mut tape, &store, e);
        let mut pos = 0;
        for s in &segs {
            assert_eq!(s.start, pos);
            assert!(s.end - s.start <= 4);
            assert!(s.label < 4);
            pos = s.end;
        }
        assert_eq!(pos, 11);
    }
}
