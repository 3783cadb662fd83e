//! Deep multi-task learning for NER (paper §4.1; Rei 2017, Fig. 9;
//! Aguilar et al. 2017).
//!
//! A BiLSTM-CRF tagger is co-trained with auxiliary objectives sharing the
//! same representation and encoder:
//!
//! * **language modeling** (Fig. 9) — the forward half of the BiLSTM
//!   predicts the next word, the backward half the previous word;
//! * **entity segmentation** — a binary inside-an-entity head, the
//!   "segmentation subtask" of Aguilar et al.
//!
//! The total loss is `ner + λ_lm·lm + λ_seg·seg`. Setting both λ to 0 makes
//! this exactly the single-task baseline, so ablations are one knob away.

use ner_core::config::{CharRepr, NerConfig, WordRepr};
use ner_core::decoder::Crf;
use ner_core::encoder::Encoder;
use ner_core::metrics::EvalResult;
use ner_core::repr::{EncodedSentence, InputLayer, SentenceEncoder};
use ner_tensor::nn::Linear;
use ner_tensor::optim::fit_per_example;
use ner_tensor::{BatchedExec, Exec, ParamStore, Tape};
use ner_text::{EntitySpan, TagSet};
use rand::Rng;
use serde::Serialize;

/// Multi-task training weights.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct MultitaskWeights {
    /// Weight of the bidirectional LM objective (Rei's γ).
    pub lm: f32,
    /// Weight of the binary segmentation objective.
    pub segmentation: f32,
}

/// A BiLSTM-CRF with optional LM and segmentation co-training heads.
pub struct MultitaskNer {
    /// All trainable parameters.
    pub store: ParamStore,
    /// Tag inventory.
    pub tag_set: TagSet,
    input: InputLayer,
    encoder: Encoder,
    proj: Linear,
    crf: Crf,
    lm_fw: Linear,
    lm_bw: Linear,
    seg_head: Linear,
    hidden: usize,
    vocab_len: usize,
    weights: MultitaskWeights,
}

impl MultitaskNer {
    /// Builds the model. The encoder is fixed to a single-layer BiLSTM of
    /// width `hidden` per direction (the LM heads need the two directions
    /// separable, which `nn::bidirectional`'s `[fw ; bw]` layout provides).
    pub fn new(
        encoder: &SentenceEncoder,
        word_dim: usize,
        hidden: usize,
        weights: MultitaskWeights,
        rng: &mut impl Rng,
    ) -> Self {
        let cfg = NerConfig {
            scheme: encoder.tag_set.scheme(),
            word: WordRepr::Random { dim: word_dim },
            char_repr: CharRepr::None,
            encoder: ner_core::config::EncoderKind::Lstm { hidden, bidirectional: true, layers: 1 },
            dropout: 0.2,
            ..NerConfig::default()
        };
        let mut store = ParamStore::new();
        let input = InputLayer::new(
            &mut store,
            rng,
            &cfg,
            encoder.word_vocab.len(),
            encoder.char_vocab.len(),
            encoder.feat_dim(),
            None,
        );
        let enc = Encoder::new(&mut store, rng, "encoder", input.out_dim(), &cfg.encoder);
        let k = encoder.tag_set.len();
        let vocab_len = encoder.word_vocab.len();
        MultitaskNer {
            proj: Linear::new(&mut store, rng, "head.proj", enc.out_dim(), k),
            crf: Crf::new(&mut store, rng, "head.crf", k),
            lm_fw: Linear::new(&mut store, rng, "aux.lm_fw", hidden, vocab_len),
            lm_bw: Linear::new(&mut store, rng, "aux.lm_bw", hidden, vocab_len),
            seg_head: Linear::new(&mut store, rng, "aux.seg", enc.out_dim(), 2),
            input,
            encoder: enc,
            store,
            tag_set: encoder.tag_set.clone(),
            hidden,
            vocab_len,
            weights,
        }
    }

    /// Combined multi-task loss for one sentence.
    pub fn loss(
        &self,
        tape: &mut Tape,
        enc: &EncodedSentence,
        rng: &mut impl Rng,
    ) -> ner_tensor::Var {
        let x0 = self.input.forward(tape, &self.store, &[enc]);
        let x = if self.input.dropout() > 0.0 {
            tape.dropout(x0, self.input.dropout(), rng)
        } else {
            x0
        };
        let h = self.encoder.forward(tape, &self.store, x);
        let emissions = self.proj.forward(tape, &self.store, h);
        let mut total = self.crf.nll(tape, &self.store, emissions, &enc.tag_ids);

        let n = enc.len();
        if self.weights.lm > 0.0 && n >= 2 {
            // Forward half predicts the NEXT word id; backward half the
            // PREVIOUS one (Fig. 9's two auxiliary softmaxes).
            let fw = tape.slice_cols(h, 0, self.hidden);
            let bw = tape.slice_cols(h, self.hidden, self.hidden);
            let fw_ctx = tape.slice_rows(fw, 0, n - 1);
            let fw_logits = self.lm_fw.forward(tape, &self.store, fw_ctx);
            let next: Vec<usize> = enc.word_ids[1..].to_vec();
            debug_assert!(next.iter().all(|&w| w < self.vocab_len));
            let lm_f = tape.cross_entropy_sum(fw_logits, &next);

            let bw_ctx = tape.slice_rows(bw, 1, n - 1);
            let bw_logits = self.lm_bw.forward(tape, &self.store, bw_ctx);
            let prev: Vec<usize> = enc.word_ids[..n - 1].to_vec();
            let lm_b = tape.cross_entropy_sum(bw_logits, &prev);

            let lm = tape.add(lm_f, lm_b);
            let lm_scaled = tape.scale(lm, self.weights.lm);
            total = tape.add(total, lm_scaled);
        }

        if self.weights.segmentation > 0.0 {
            let seg_logits = self.seg_head.forward(tape, &self.store, h);
            let inside: Vec<usize> = inside_entity_flags(enc);
            let seg = tape.cross_entropy_sum(seg_logits, &inside);
            let seg_scaled = tape.scale(seg, self.weights.segmentation);
            total = tape.add(total, seg_scaled);
        }
        total
    }

    /// Predicted spans (constrained Viterbi), from a packed
    /// [`BatchedExec`] forward of one sentence. An empty sentence has no
    /// spans.
    pub fn predict_spans(&self, enc: &EncodedSentence) -> Vec<EntitySpan> {
        if enc.is_empty() {
            return Vec::new();
        }
        let mut bx = BatchedExec::new(&self.store, &[enc.len()]);
        let x = self.input.forward(&mut bx, &self.store, &[enc]);
        let h = self.encoder.forward(&mut bx, &self.store, x);
        let emissions = self.proj.forward(&mut bx, &self.store, h);
        let (tags, _) = self.crf.viterbi(&self.store, bx.value(emissions), Some(&self.tag_set));
        let labels = self.tag_set.decode(&tags);
        self.tag_set.scheme().tags_to_spans(&labels)
    }

    /// Trains for `epochs`; returns per-epoch mean losses over the
    /// non-empty sentences (an empty one adds no loss and takes no step).
    pub fn fit(
        &mut self,
        data: &[EncodedSentence],
        epochs: usize,
        lr: f32,
        rng: &mut impl Rng,
    ) -> Vec<f64> {
        let fit = fit_per_example(
            self,
            |m| &mut m.store,
            data,
            epochs,
            lr,
            |m, tape, enc| (!enc.is_empty()).then(|| (m.loss(tape, enc, rng), enc.len())),
        );
        let live = data.iter().filter(|e| !e.is_empty()).count().max(1) as f64;
        fit.epochs.iter().map(|&(sum, _)| sum / live).collect()
    }

    /// Evaluates exact-match span metrics on encoded data.
    pub fn evaluate(&self, data: &[EncodedSentence]) -> EvalResult {
        let golds: Vec<Vec<EntitySpan>> = data.iter().map(|e| e.gold.clone()).collect();
        let preds: Vec<Vec<EntitySpan>> = data.iter().map(|e| self.predict_spans(e)).collect();
        ner_core::metrics::evaluate(&golds, &preds)
    }
}

/// 0/1 per-token inside-an-entity flags.
fn inside_entity_flags(enc: &EncodedSentence) -> Vec<usize> {
    let mut flags = vec![0usize; enc.len()];
    for e in &enc.gold {
        for f in flags.iter_mut().take(e.end).skip(e.start) {
            *f = 1;
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use ner_text::TagScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn data(seed: u64, n: usize) -> (SentenceEncoder, Vec<EncodedSentence>) {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let ds = gen.dataset(&mut StdRng::seed_from_u64(seed), n);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let encoded = enc.encode_dataset(&ds, None);
        (enc, encoded)
    }

    #[test]
    fn inside_flags_mark_entity_tokens() {
        let (enc, encoded) = data(1, 3);
        let _ = enc;
        let e = &encoded[0];
        let flags = inside_entity_flags(e);
        let expected: usize = e.gold.iter().map(|g| g.len()).sum();
        assert_eq!(flags.iter().sum::<usize>(), expected);
    }

    #[test]
    fn multitask_loss_exceeds_single_task_and_both_train() {
        let (enc, encoded) = data(2, 40);
        let mut rng = StdRng::seed_from_u64(3);
        let mut single = MultitaskNer::new(
            &enc,
            16,
            16,
            MultitaskWeights { lm: 0.0, segmentation: 0.0 },
            &mut rng,
        );
        let mut multi = MultitaskNer::new(
            &enc,
            16,
            16,
            MultitaskWeights { lm: 0.1, segmentation: 0.5 },
            &mut rng,
        );
        let mut t1 = Tape::new();
        let l1 = single.loss(&mut t1, &encoded[0], &mut rng);
        let mut t2 = Tape::new();
        let l2 = multi.loss(&mut t2, &encoded[0], &mut rng);
        assert!(t2.value(l2).item() > t1.value(l1).item(), "aux objectives should add loss mass");
        let s_losses = single.fit(&encoded, 2, 0.01, &mut rng);
        let m_losses = multi.fit(&encoded, 2, 0.01, &mut rng);
        assert!(s_losses[1] < s_losses[0]);
        assert!(m_losses[1] < m_losses[0]);
    }

    #[test]
    fn empty_sentences_change_no_mean_and_no_weight() {
        let (enc, encoded) = data(6, 12);
        let mut padded = encoded.clone();
        padded.extend(std::iter::repeat_with(EncodedSentence::default).take(5));
        let weights = MultitaskWeights { lm: 0.1, segmentation: 0.2 };
        let run = |data: &[EncodedSentence]| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut model = MultitaskNer::new(&enc, 16, 16, weights, &mut rng);
            let losses = model.fit(data, 2, 0.01, &mut rng);
            (losses, model)
        };
        let (want, plain) = run(&encoded);
        let (got, model) = run(&padded);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "epoch means");
        for id in plain.store.ids() {
            let weight_bits = |m: &MultitaskNer| {
                m.store.value(id).data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(weight_bits(&model), weight_bits(&plain), "weight {id:?}");
        }
    }

    #[test]
    fn predictions_are_well_formed() {
        let (enc, encoded) = data(4, 30);
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = MultitaskNer::new(
            &enc,
            16,
            16,
            MultitaskWeights { lm: 0.1, segmentation: 0.2 },
            &mut rng,
        );
        model.fit(&encoded, 3, 0.01, &mut rng);
        // The packed forward reproduces the per-sentence tape's decode.
        for e in &encoded {
            let mut tape = Tape::new();
            let x = model.input.forward(&mut tape, &model.store, &[e]);
            let h = model.encoder.forward(&mut tape, &model.store, x);
            let em = model.proj.forward(&mut tape, &model.store, h);
            let (tags, _) = model.crf.viterbi(&model.store, tape.value(em), Some(&model.tag_set));
            let want = model.tag_set.scheme().tags_to_spans(&model.tag_set.decode(&tags));
            assert_eq!(model.predict_spans(e), want);
        }
        let result = model.evaluate(&encoded);
        assert!(result.micro.f1 > 0.2, "trained multitask model should fit train data somewhat");
    }
}
