//! The assembled NER model: input representation → context encoder → tag
//! decoder, exactly the pipeline of the survey's Fig. 2 taxonomy.

use crate::config::{DecoderKind, NerConfig};
use crate::decoder::crf::CrfDecodeTables;
use crate::decoder::{Crf, PointerDecoder, RnnDecoder, Segment, SemiCrf};
use crate::encoder::Encoder;
use crate::plan::{self, ForwardPlan};
use crate::repr::{EncodedSentence, InputLayer, SentenceEncoder};
use ner_embed::WordEmbeddings;
use ner_tensor::nn::Linear;
use ner_tensor::{BatchedExec, BatchedTapeExec, BatchedVal, Exec, ParamStore, Tape, Tensor, Var};
use ner_text::{EntitySpan, TagSet};
use rand::{Rng, RngCore};

enum Head {
    Softmax { proj: Linear },
    Crf { proj: Linear, crf: Crf },
    SemiCrf { proj: Linear, crf: SemiCrf },
    Rnn { dec: RnnDecoder },
    Pointer { dec: PointerDecoder },
}

/// Wall-clock split of one batched forward
/// ([`NerModel::predict_spans_batch`]) across the inference stages, in
/// microseconds. These cover the *whole batch*; the caller amortizes or
/// attributes them per sentence.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStageMicros {
    /// Input-layer time (embeddings + char composition + cache traffic).
    pub embed_us: f64,
    /// Context-encoder time.
    pub encode_us: f64,
    /// Decode time (emission projection + per-sentence search).
    pub decode_us: f64,
}

/// One sentence's decoder output: a tag-id sequence from a token-level
/// head (softmax, CRF, RNN), or labelled segments from a segment-level
/// head (semi-CRF, pointer).
enum Decoded {
    Tags(Vec<usize>),
    Segments(Vec<Segment>),
}

/// A complete neural NER model.
pub struct NerModel {
    /// The architecture this model was built from.
    pub cfg: NerConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    /// Tag inventory.
    pub tag_set: TagSet,
    /// Entity-type names (sorted) for segment-level decoders.
    pub entity_types: Vec<String>,
    input: InputLayer,
    encoder: Encoder,
    head: Head,
}

impl NerModel {
    /// Builds a model for the vocabularies of `encoder`; `pretrained` is
    /// required iff the config selects pretrained word embeddings.
    pub fn new(
        cfg: NerConfig,
        encoder: &SentenceEncoder,
        pretrained: Option<&WordEmbeddings>,
        rng: &mut impl Rng,
    ) -> Self {
        let mut store = ParamStore::new();
        let input = InputLayer::new(
            &mut store,
            rng,
            &cfg,
            encoder.word_vocab.len(),
            encoder.char_vocab.len(),
            encoder.feat_dim(),
            pretrained,
        );
        let ctx_encoder = Encoder::new(&mut store, rng, "encoder", input.out_dim(), &cfg.encoder);
        let enc_dim = ctx_encoder.out_dim();
        let k = encoder.tag_set.len();
        let types = encoder.entity_types.len();
        let head = match &cfg.decoder {
            DecoderKind::Softmax => {
                Head::Softmax { proj: Linear::new(&mut store, rng, "head.proj", enc_dim, k) }
            }
            DecoderKind::Crf => Head::Crf {
                proj: Linear::new(&mut store, rng, "head.proj", enc_dim, k),
                crf: Crf::new(&mut store, rng, "head.crf", k),
            },
            DecoderKind::SemiCrf { max_len } => Head::SemiCrf {
                proj: Linear::new(&mut store, rng, "head.proj", enc_dim, types + 1),
                crf: SemiCrf::new(&mut store, rng, "head.semicrf", types, *max_len),
            },
            DecoderKind::Rnn { tag_dim, hidden } => Head::Rnn {
                dec: RnnDecoder::new(&mut store, rng, "head.rnn", enc_dim, *tag_dim, *hidden, k),
            },
            DecoderKind::Pointer { att, max_len } => Head::Pointer {
                dec: PointerDecoder::new(
                    &mut store, rng, "head.ptr", enc_dim, *att, types, *max_len,
                ),
            },
        };
        NerModel {
            cfg,
            store,
            tag_set: encoder.tag_set.clone(),
            entity_types: encoder.entity_types.clone(),
            input,
            encoder: ctx_encoder,
            head,
        }
    }

    /// Total number of scalar weights.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// Runs representation + context encoding on a tape; dropout only when
    /// `train`. `input`, when given, replaces the input layer as a
    /// constant (already perturbed, so it is not dropped out). Returns the
    /// input matrix `x` the encoder read — the node FGM training
    /// differentiates against (paper §4.5) — and the encoder states `h`.
    fn encode(
        &self,
        tape: &mut Tape,
        enc: &EncodedSentence,
        input: Option<Tensor>,
        train: bool,
        rng: &mut impl Rng,
    ) -> (Var, Var) {
        // Dropout at p = 0 is the identity: no node, no rng draw.
        let p = if train { self.cfg.dropout } else { 0.0 };
        let x = match input {
            Some(t) => tape.constant(t),
            None => {
                let x0 = self.input.forward(tape, &self.store, &[enc]);
                tape.dropout(x0, p, rng)
            }
        };
        let h = self.encoder.forward(tape, &self.store, x);
        (x, tape.dropout(h, p, rng))
    }

    /// Evaluation-mode (no dropout) encoding of one sentence on `tape`,
    /// through the head's projection.
    fn eval_states(&self, tape: &mut Tape, enc: &EncodedSentence) -> Var {
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let (_, h) = self.encode(tape, enc, None, false, &mut rng);
        self.project(tape, h)
    }

    /// The head's emission projection. The RNN and pointer decoders read
    /// the encoder states directly, so for them this is the identity.
    fn project<E: Exec>(&self, ex: &mut E, h: E::V) -> E::V {
        match &self.head {
            Head::Softmax { proj } | Head::Crf { proj, .. } | Head::SemiCrf { proj, .. } => {
                proj.forward(ex, &self.store, h)
            }
            Head::Rnn { .. } | Head::Pointer { .. } => h,
        }
    }

    /// One sentence's structured loss over its projected states `v`
    /// ([`Self::project`]) against the gold annotation of `enc`.
    fn head_nll(&self, tape: &mut Tape, v: Var, enc: &EncodedSentence) -> Var {
        match &self.head {
            Head::Softmax { .. } => tape.cross_entropy_sum(v, &enc.tag_ids),
            Head::Crf { crf, .. } => crf.nll(tape, &self.store, v, &enc.tag_ids),
            Head::SemiCrf { crf, .. } => {
                crf.nll(tape, &self.store, v, &self.gold_segments(enc, crf.max_len()))
            }
            Head::Rnn { dec } => dec.nll(tape, &self.store, v, &enc.tag_ids),
            Head::Pointer { dec } => {
                dec.nll(tape, &self.store, v, &self.gold_segments(enc, dec.max_len()))
            }
        }
    }

    /// The gold segmentation for a segment-level decoder: gold spans as
    /// segments (labels `1..=Y`; spans of unknown type or excess length
    /// degraded gracefully), the gaps filled with length-1 `O` segments.
    fn gold_segments(&self, enc: &EncodedSentence, max_len: usize) -> Vec<Segment> {
        let ents: Vec<Segment> = enc
            .gold
            .iter()
            .filter_map(|e| {
                let label = self.entity_types.iter().position(|t| *t == e.label)? + 1;
                Some(Segment { start: e.start, end: e.end.min(e.start + max_len), label })
            })
            .collect();
        SemiCrf::gold_segments(enc.len(), &ents)
    }

    /// Differentiable training loss for one sentence.
    pub fn loss(&self, tape: &mut Tape, enc: &EncodedSentence, rng: &mut impl Rng) -> Var {
        self.loss_with_input(tape, enc, true, rng).0
    }

    /// Differentiable training loss for a packed bucket of (non-empty)
    /// sentences, recorded through [`BatchedTapeExec`]: the input layer,
    /// the encoder and the head's emission projection run as batch-wide
    /// packed operations, while each sentence's structured loss (CRF /
    /// semi-CRF partition, decoder steps) is recorded in that sentence's
    /// segment scope so its parameter gradients land in the owning
    /// [`ner_tensor::GradBuffer`] of a segmented backward.
    ///
    /// `rngs[s]` drives sentence `s`'s dropout masks; passing the same
    /// streams the per-sentence oracle would use makes every loss value —
    /// and, through `Tape::backward_into_segmented`, every applied
    /// gradient — bit-identical to one tape per sentence.
    ///
    /// Returns the summed loss (each sentence's term receives exactly the
    /// oracle's 1.0 gradient seed) plus the per-sentence loss values in
    /// caller order.
    pub fn loss_batch(
        &self,
        tape: &mut Tape,
        encs: &[&EncodedSentence],
        rngs: &mut [&mut dyn RngCore],
    ) -> (Var, Vec<f64>) {
        assert_eq!(encs.len(), rngs.len(), "one dropout stream per sentence");
        let lens: Vec<usize> = encs.iter().map(|e| e.len()).collect();
        let mut bx = BatchedTapeExec::new(tape, &lens);
        let x0 = self.input.forward(&mut bx, &self.store, encs);
        let x = bx.dropout_packed(x0, self.cfg.dropout, rngs);
        let h0 = self.encoder.forward(&mut bx, &self.store, x);
        let h = bx.dropout_packed(h0, self.cfg.dropout, rngs);
        let v = self.project(&mut bx, h);
        let losses: Vec<Var> = (0..encs.len())
            .map(|s| {
                let vs = bx.slice_segment(v, s);
                bx.scoped(s, |ex| self.head_nll(ex.tape_mut(), vs, encs[s]))
            })
            .collect();

        let mut total = losses[0];
        for &l in &losses[1..] {
            total = Exec::add(&mut bx, total, l);
        }
        drop(bx);
        let per_sentence = losses.iter().map(|&l| tape.value(l).item() as f64).collect();
        (total, per_sentence)
    }

    /// Predicted entity spans for one sentence (evaluation mode): a batch
    /// of one through `Self::predict_bucketed`, the packed forward
    /// serving and evaluation run. An empty sentence has no spans.
    pub fn predict_spans(&self, enc: &EncodedSentence) -> Vec<EntitySpan> {
        let plan = self.compile_plan(0);
        let mut out = self.predict_bucketed(&plan, std::slice::from_ref(enc), |_, _, _| {});
        out.pop().expect("one result per sentence")
    }

    /// Predicted per-token tag strings (all decoders; segment decoders are
    /// rendered through the tag scheme), through [`Self::predict_spans`].
    pub fn predict_tags(&self, enc: &EncodedSentence) -> Vec<String> {
        let spans = self.predict_spans(enc);
        self.tag_set.scheme().spans_to_tags(enc.len(), &spans)
    }

    /// Predicts from an externally supplied input-representation matrix
    /// (evaluation mode) — used by test-time adversarial-attack evaluation
    /// (§4.5), which perturbs the representation directly. The matrix
    /// enters the packed forward as a constant in place of the input layer.
    pub fn predict_spans_from_input(
        &self,
        enc: &EncodedSentence,
        input: Tensor,
    ) -> Vec<EntitySpan> {
        debug_assert_eq!(input.rows(), enc.len());
        let (mut out, _) = self.decode_batch(&self.compile_plan(0), &[enc], Some(input));
        self.decoded_to_spans(out.pop().expect("one segment"))
    }

    /// The decoder's *raw* tag sequence for token-level decoders (softmax,
    /// CRF, RNN) — may be structurally ill-formed for greedy decoders, which
    /// is exactly what the Fig. 12 analysis measures. Segment-level decoders
    /// (semi-CRF, pointer) return `None`: their output is well-formed by
    /// construction. Runs the same packed forward and decode as
    /// [`Self::predict_spans`].
    pub fn predict_raw_tags(&self, enc: &EncodedSentence) -> Option<Vec<String>> {
        let (mut out, _) = self.decode_batch(&self.compile_plan(0), &[enc], None);
        match out.pop().expect("one segment") {
            Decoded::Tags(ids) => Some(self.tag_set.decode(&ids)),
            Decoded::Segments(_) => None,
        }
    }

    /// The per-sentence autograd-tape predictor: one [`Tape`] per sentence,
    /// no plan, no caches. This is the **reference** the packed path is
    /// verified against (`tests/plan_parity.rs`, `tests/prop_batched.rs`);
    /// no production prediction runs it.
    pub fn predict_spans_tape(&self, enc: &EncodedSentence) -> Vec<EntitySpan> {
        let mut tape = Tape::new();
        let v = self.eval_states(&mut tape, enc);
        let decoded = self.decode_states(&mut tape, v, None);
        self.decoded_to_spans(decoded)
    }

    /// [`Self::predict_tags`] through the tape reference
    /// ([`Self::predict_spans_tape`]).
    pub fn predict_tags_tape(&self, enc: &EncodedSentence) -> Vec<String> {
        let spans = self.predict_spans_tape(enc);
        self.tag_set.scheme().spans_to_tags(enc.len(), &spans)
    }

    /// Decodes one sentence's projected states `v` ([`Self::project`]).
    /// A CRF head runs Viterbi over the plan's precompiled `tables` when
    /// given (the packed path) and over its own parameters otherwise (the
    /// tape reference).
    fn decode_states<E: Exec>(
        &self,
        ex: &mut E,
        v: E::V,
        tables: Option<&CrfDecodeTables>,
    ) -> Decoded {
        match &self.head {
            Head::Softmax { .. } => {
                let t = ex.value(v);
                Decoded::Tags((0..t.rows()).map(|r| t.argmax_row(r)).collect())
            }
            Head::Crf { crf, .. } => Decoded::Tags(match tables {
                Some(tables) => tables.viterbi(ex.value(v)).0,
                None => {
                    let constraints = self.cfg.constrained_decoding.then_some(&self.tag_set);
                    crf.viterbi(&self.store, ex.value(v), constraints).0
                }
            }),
            Head::SemiCrf { crf, .. } => Decoded::Segments(crf.decode(&self.store, ex.value(v))),
            Head::Rnn { dec } => Decoded::Tags(dec.decode(ex, &self.store, v)),
            Head::Pointer { dec } => Decoded::Segments(dec.decode(ex, &self.store, v)),
        }
    }

    /// Compiles the tape-free inference plan for this model: precomputed
    /// CRF decode tables plus an LRU token-feature cache of the given
    /// capacity (`0` disables caching). The plan snapshots the CRF
    /// parameters — recompile after any parameter update.
    pub fn compile_plan(&self, token_cache_capacity: usize) -> ForwardPlan {
        let crf_tables = match &self.head {
            Head::Crf { crf, .. } => {
                let constraints = self.cfg.constrained_decoding.then_some(&self.tag_set);
                Some(crf.decode_tables(&self.store, constraints))
            }
            _ => None,
        };
        ForwardPlan::new(crf_tables, token_cache_capacity)
    }

    /// The bucket engine every span prediction runs through: groups the
    /// non-empty sentences into length-sorted buckets ([`plan::buckets`]),
    /// scores each bucket as one packed forward
    /// ([`Self::predict_spans_batch`]; buckets fan out over the global
    /// `ner-par` pool when it has threads to spare), runs `attribute` per
    /// bucket on the calling thread with the bucket's member indices, its
    /// stage split and its wall time in microseconds, and returns one span
    /// list per input (empty for empty sentences). Bucket composition
    /// cannot change a prediction, so the result is identical at any
    /// thread count.
    pub(crate) fn predict_bucketed(
        &self,
        plan: &ForwardPlan,
        encs: &[EncodedSentence],
        mut attribute: impl FnMut(&[usize], &BatchStageMicros, f64),
    ) -> Vec<Vec<EntitySpan>> {
        let lens: Vec<usize> = encs.iter().map(EncodedSentence::len).collect();
        let pool = ner_par::global();
        let buckets = plan::buckets(&lens, pool.threads());
        let score = |b: usize| {
            let members: Vec<&EncodedSentence> = buckets[b].iter().map(|&i| &encs[i]).collect();
            let t = std::time::Instant::now();
            let (spans, stages) = self.predict_spans_batch(plan, &members);
            (spans, stages, t.elapsed().as_secs_f64() * 1e6)
        };
        let scored: Vec<_> = if pool.threads() > 1 && buckets.len() > 1 {
            pool.map(buckets.len(), score)
        } else {
            (0..buckets.len()).map(score).collect()
        };
        let mut results: Vec<Vec<EntitySpan>> = vec![Vec::new(); encs.len()];
        for (bucket, (spans, stages, bucket_us)) in buckets.iter().zip(scored) {
            attribute(bucket, &stages, bucket_us);
            for (&i, s) in bucket.iter().zip(spans) {
                results[i] = s;
            }
        }
        results
    }

    /// Scores a whole batch of (non-empty) sentences as one packed
    /// [`BatchedExec`] forward: the input layer, the encoder and the
    /// decoder's emission projection each run as single batch-wide
    /// operations; only the structured decode (Viterbi / segment DP /
    /// greedy steps) runs per sentence, over that sentence's slice of the
    /// batched emissions. Its predictions are bit-identical to
    /// [`Self::predict_spans_tape`] (the tape reference) on each sentence
    /// alone.
    ///
    /// Returns one span list per input (same order) plus the wall-clock
    /// split across the embed/encode/decode stages — the caller decides
    /// how to attribute those to histograms and traces, since one batch
    /// serves many requests.
    pub fn predict_spans_batch(
        &self,
        plan: &ForwardPlan,
        encs: &[&EncodedSentence],
    ) -> (Vec<Vec<EntitySpan>>, BatchStageMicros) {
        let (decoded, stages) = self.decode_batch(plan, encs, None);
        (decoded.into_iter().map(|d| self.decoded_to_spans(d)).collect(), stages)
    }

    /// The packed forward behind every prediction: input layer (or the
    /// given `input` matrix as a constant), encoder, and the batched
    /// decode, timed per stage.
    fn decode_batch(
        &self,
        plan: &ForwardPlan,
        encs: &[&EncodedSentence],
        input: Option<Tensor>,
    ) -> (Vec<Decoded>, BatchStageMicros) {
        assert!(!encs.is_empty(), "a packed forward needs at least one sentence");
        let lens: Vec<usize> = encs.iter().map(|e| e.len()).collect();
        let mut bx = BatchedExec::new(&self.store, &lens).with_pe_cache(plan.pe_cache());
        let t0 = std::time::Instant::now();
        let x = match input {
            Some(t) => bx.constant(t),
            None => self.input.forward_batch_cached(&mut bx, &self.store, encs, plan.token_cache()),
        };
        let t1 = std::time::Instant::now();
        let h = self.encoder.forward(&mut bx, &self.store, x);
        let t2 = std::time::Instant::now();
        let decoded = self.decode_from_states_batch(&mut bx, h, plan);
        let stages = BatchStageMicros {
            embed_us: (t1 - t0).as_secs_f64() * 1e6,
            encode_us: (t2 - t1).as_secs_f64() * 1e6,
            decode_us: t2.elapsed().as_secs_f64() * 1e6,
        };
        (decoded, stages)
    }

    /// Batched decode: the emission projection runs as one GEMM over the
    /// packed encoder states wherever the head has one (softmax, CRF,
    /// semi-CRF); the structured search itself stays per sentence, in that
    /// sentence's scope. Yields each segment's decoder output once.
    fn decode_from_states_batch(
        &self,
        bx: &mut BatchedExec<'_>,
        h: BatchedVal,
        plan: &ForwardPlan,
    ) -> Vec<Decoded> {
        let tables = plan.crf_tables();
        let v = self.project(bx, h);
        (0..bx.segments())
            .map(|s| {
                let vs = bx.slice_segment(v, s);
                bx.scoped(s, |ex| self.decode_states(ex, vs, tables))
            })
            .collect()
    }

    fn decoded_to_spans(&self, d: Decoded) -> Vec<EntitySpan> {
        match d {
            Decoded::Tags(tags) => self.tag_set.scheme().tags_to_spans(&self.tag_set.decode(&tags)),
            Decoded::Segments(segs) => SemiCrf::segments_to_spans(&segs, &self.entity_types),
        }
    }

    /// Sentence-level confidence: length-normalized log-probability of the
    /// decoded analysis — the MNLP criterion of Shen et al. (paper §4.3).
    /// Lower = less confident = more informative to annotate. An empty
    /// sentence scores 0.0.
    pub fn confidence(&self, enc: &EncodedSentence) -> f64 {
        if enc.is_empty() {
            return 0.0;
        }
        let mut tape = Tape::new();
        let v = self.eval_states(&mut tape, enc);
        let n = enc.len() as f64;
        match &self.head {
            Head::Crf { crf, .. } => {
                let e = tape.value(v);
                let (_, best) = crf.viterbi(&self.store, e, None);
                (best - crf.log_partition(&self.store, e)) / n
            }
            // The semi-CRF (a segment-level decoder) uses the same
            // emission-softmax proxy.
            Head::Softmax { .. } | Head::SemiCrf { .. } => {
                let ls = tape.log_softmax_rows(v);
                let t = tape.value(ls);
                (0..t.rows())
                    .map(|r| t.row(r).iter().cloned().fold(f32::NEG_INFINITY, f32::max) as f64)
                    .sum::<f64>()
                    / n
            }
            // Greedy decoders expose no tractable sequence probability;
            // report the neutral value (uncertainty sampling degrades to
            // random selection, which the caller can detect via 0.0).
            Head::Pointer { .. } | Head::Rnn { .. } => 0.0,
        }
    }

    /// Per-token posterior entropies (nats) — the token-entropy acquisition
    /// signal for active learning. Supported for softmax and CRF heads; the
    /// semi-CRF falls back to the emission-softmax entropy, and the greedy
    /// RNN and pointer decoders report 0.0 per token. An empty sentence has
    /// none.
    pub fn token_entropies(&self, enc: &EncodedSentence) -> Vec<f64> {
        if enc.is_empty() {
            return Vec::new();
        }
        let mut tape = Tape::new();
        let v = self.eval_states(&mut tape, enc);
        let probs: Tensor = match &self.head {
            Head::Crf { crf, .. } => crf.marginals(&self.store, tape.value(v)),
            Head::Softmax { .. } | Head::SemiCrf { .. } => {
                let sm = tape.softmax_rows(v);
                tape.value(sm).clone()
            }
            Head::Rnn { .. } | Head::Pointer { .. } => return vec![0.0; enc.len()],
        };
        (0..probs.rows())
            .map(|r| {
                probs
                    .row(r)
                    .iter()
                    .filter(|&&p| p > 1e-12)
                    .map(|&p| -(p as f64) * (p as f64).ln())
                    .sum()
            })
            .collect()
    }

    /// Evaluation-mode negative log-likelihood of the sentence's *given*
    /// labels, normalized per token. High values flag annotations the model
    /// finds implausible — the standard noisy-label signal used by the
    /// §4.4 instance selector. An empty sentence scores 0.0.
    pub fn nll_of_labels(&self, enc: &EncodedSentence) -> f64 {
        if enc.is_empty() {
            return 0.0;
        }
        let mut tape = Tape::new();
        let v = self.eval_states(&mut tape, enc);
        let loss = self.head_nll(&mut tape, v, enc);
        tape.value(loss).item() as f64 / enc.len() as f64
    }

    /// The loss alongside the raw input-representation node — the hook
    /// adversarial (FGM) training needs to read ∂loss/∂input (paper §4.5).
    /// `train` toggles dropout: `true` for FGM training passes, `false`
    /// when computing test-time attacks (robustness evaluation).
    pub fn loss_with_input(
        &self,
        tape: &mut Tape,
        enc: &EncodedSentence,
        train: bool,
        rng: &mut impl Rng,
    ) -> (Var, Var) {
        let (x, h) = self.encode(tape, enc, None, train, rng);
        let v = self.project(tape, h);
        (self.head_nll(tape, v, enc), x)
    }

    /// Training loss computed from an externally supplied input matrix
    /// (used for the FGM second pass on perturbed inputs).
    pub fn loss_from_input_override(
        &self,
        tape: &mut Tape,
        enc: &EncodedSentence,
        input: Tensor,
        rng: &mut impl Rng,
    ) -> Var {
        let (_, h) = self.encode(tape, enc, Some(input), true, rng);
        let v = self.project(tape, h);
        self.head_nll(tape, v, enc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CharRepr, EncoderKind, WordRepr};
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use ner_text::{Dataset, TagScheme};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(cfg: NerConfig) -> (NerModel, Vec<EncodedSentence>) {
        let ds: Dataset = NewsGenerator::new(GeneratorConfig::default())
            .dataset(&mut StdRng::seed_from_u64(1), 25);
        let enc = SentenceEncoder::from_dataset(&ds, cfg.scheme, 1);
        let encoded = enc.encode_dataset(&ds, None);
        let model = NerModel::new(cfg, &enc, None, &mut StdRng::seed_from_u64(2));
        (model, encoded)
    }

    fn small(decoder: DecoderKind) -> NerConfig {
        NerConfig {
            word: WordRepr::Random { dim: 12 },
            char_repr: CharRepr::None,
            encoder: EncoderKind::Lstm { hidden: 10, bidirectional: true, layers: 1 },
            decoder,
            dropout: 0.0,
            scheme: TagScheme::Bio,
            ..NerConfig::default()
        }
    }

    #[test]
    fn every_decoder_produces_finite_loss_and_valid_predictions() {
        for decoder in [
            DecoderKind::Softmax,
            DecoderKind::Crf,
            DecoderKind::SemiCrf { max_len: 4 },
            DecoderKind::Rnn { tag_dim: 6, hidden: 10 },
            DecoderKind::Pointer { att: 8, max_len: 4 },
        ] {
            let (mut model, encoded) = setup(small(decoder.clone()));
            let mut rng = StdRng::seed_from_u64(3);
            let mut tape = Tape::new();
            let loss = model.loss(&mut tape, &encoded[0], &mut rng);
            let v = tape.value(loss).item();
            assert!(v.is_finite() && v > 0.0, "{decoder:?} loss was {v}");
            tape.backward(loss, &mut model.store);
            assert!(model.store.grad_global_norm() > 0.0, "{decoder:?} produced no gradient");

            let spans = model.predict_spans(&encoded[0]);
            for s in &spans {
                assert!(s.end <= encoded[0].len());
            }
            let tags = model.predict_tags(&encoded[0]);
            assert_eq!(tags.len(), encoded[0].len());
        }
    }

    #[test]
    fn an_empty_sentence_predicts_no_spans() {
        let ds: Dataset = NewsGenerator::new(GeneratorConfig::default())
            .dataset(&mut StdRng::seed_from_u64(1), 6);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let full = enc.encode_dataset(&ds, None);
        let mut data = full.clone();
        data.insert(2, enc.encode(&ner_text::Sentence::default()));
        let model =
            NerModel::new(small(DecoderKind::Crf), &enc, None, &mut StdRng::seed_from_u64(2));
        assert!(model.predict_spans(&data[2]).is_empty());
        assert!(model.predict_tags(&data[2]).is_empty());
        assert_eq!(model.confidence(&data[2]), 0.0);
        assert!(model.token_entropies(&data[2]).is_empty());
        assert_eq!(model.nll_of_labels(&data[2]), 0.0);
        let preds = crate::trainer::predict_all(&model, &data);
        assert!(preds[2].is_empty());
        assert_eq!(preds[3], model.predict_spans(&data[3]));
        // No gold and no prediction: the empty sentence leaves every count
        // where the non-empty sentences put it.
        let with_empty = crate::trainer::evaluate_model(&model, &data).micro;
        let without = crate::trainer::evaluate_model(&model, &full).micro;
        assert_eq!(
            (with_empty.precision, with_empty.recall, with_empty.f1),
            (without.precision, without.recall, without.f1)
        );
    }

    #[test]
    fn constrained_crf_predictions_are_well_formed() {
        let mut cfg = small(DecoderKind::Crf);
        cfg.scheme = TagScheme::Bioes;
        cfg.constrained_decoding = true;
        let (model, encoded) = setup(cfg);
        for e in encoded.iter().take(10) {
            let tags = model.predict_tags(e);
            assert!(TagScheme::Bioes.is_valid(&tags), "invalid: {tags:?}");
        }
    }

    #[test]
    fn confidence_and_entropy_are_finite() {
        for decoder in [
            DecoderKind::Softmax,
            DecoderKind::Crf,
            DecoderKind::SemiCrf { max_len: 4 },
            DecoderKind::Rnn { tag_dim: 6, hidden: 10 },
            DecoderKind::Pointer { att: 8, max_len: 4 },
        ] {
            let greedy = matches!(decoder, DecoderKind::Rnn { .. } | DecoderKind::Pointer { .. });
            let (model, encoded) = setup(small(decoder.clone()));
            let c = model.confidence(&encoded[0]);
            assert!(
                c.is_finite() && c <= 0.0,
                "{decoder:?}: confidence (log prob) should be <= 0, got {c}"
            );
            let ent = model.token_entropies(&encoded[0]);
            assert_eq!(ent.len(), encoded[0].len());
            assert!(ent.iter().all(|e| e.is_finite() && *e >= 0.0));
            if greedy {
                assert_eq!(c, 0.0, "{decoder:?} has no sequence probability");
                assert!(ent.iter().all(|&e| e == 0.0), "{decoder:?} has no token posterior");
            } else {
                assert!(c < 0.0, "{decoder:?}: an untrained model is not certain, got {c}");
                assert!(ent.iter().any(|&e| e > 0.0), "{decoder:?}: entropies all zero");
            }
        }
    }

    #[test]
    fn loss_with_input_exposes_gradient_on_representation() {
        // With dropout on, the bit-for-bit check below also pins the order
        // in which the two passes draw their masks.
        let (mut model, encoded) = setup(NerConfig { dropout: 0.3, ..small(DecoderKind::Crf) });
        let mut rng = StdRng::seed_from_u64(4);
        let mut tape = Tape::new();
        let (loss, x) = model.loss_with_input(&mut tape, &encoded[0], true, &mut rng);
        // The clean FGM pass is the training loss, bit for bit.
        let mut plain = Tape::new();
        let plain_loss = model.loss(&mut plain, &encoded[0], &mut StdRng::seed_from_u64(4));
        assert_eq!(tape.value(loss).item().to_bits(), plain.value(plain_loss).item().to_bits());
        tape.backward(loss, &mut model.store);
        let g = tape.grad(x).expect("input grad must exist");
        assert!(g.sq_norm() > 0.0);
        // Second pass on a perturbed copy also yields a finite loss.
        let perturbed = {
            let mut t = tape.value(x).clone();
            t.add_scaled(g, 0.01);
            t
        };
        let mut tape2 = Tape::new();
        let loss2 = model.loss_from_input_override(&mut tape2, &encoded[0], perturbed, &mut rng);
        assert!(tape2.value(loss2).item().is_finite());
    }

    #[test]
    fn param_count_is_positive_and_reported() {
        let (model, _) = setup(small(DecoderKind::Crf));
        assert!(model.num_params() > 1000);
    }
}
