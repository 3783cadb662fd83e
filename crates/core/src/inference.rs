//! End-user inference pipeline: raw string in, annotated sentence out
//! (the paper's Fig. 1 task illustration).
//!
//! There is one tape-free inference path: texts are featurized here, then
//! the model's bucket engine (`NerModel::predict_bucketed`) groups them
//! into length-sorted compute buckets ([`crate::plan::buckets`]) and
//! scores each bucket as one packed [`ner_tensor::BatchedExec`] forward
//! ([`NerModel::predict_spans_batch`]). The trainer's dev evaluation
//! ([`crate::trainer::predict_all`]) runs the same engine; the pipeline
//! only adds its trace and histogram attribution and its token cache. The
//! single-text entry points ([`NerPipeline::extract`],
//! [`NerPipeline::annotate`]) are batches of one. The `*_tape` methods
//! keep the autograd-tape path — the per-sentence reference the batched
//! path is verified against, which no production path runs — and both
//! produce bit-identical predictions.

use crate::model::NerModel;
use crate::plan::{stage, ForwardPlan, DEFAULT_TOKEN_CACHE};
use crate::repr::{EncodedSentence, SentenceEncoder};
use ner_text::{tokenize, EntitySpan, Sentence};

/// A trained model bundled with its data encoder — the deployable artifact.
///
/// Construction compiles a [`ForwardPlan`], so `extract`/`annotate` (and
/// their batch variants) run the tape-free batched inference path; the
/// `*_tape` methods keep the autograd-tape reference available for
/// verification and benchmarking. Both paths are bit-identical.
pub struct NerPipeline {
    /// The data encoder (vocabularies, tag set, feature switches).
    pub encoder: SentenceEncoder,
    /// The trained model.
    pub model: NerModel,
    plan: ForwardPlan,
}

impl NerPipeline {
    /// Bundles an encoder and a model, compiling the inference plan with
    /// the default token-cache capacity.
    pub fn new(encoder: SentenceEncoder, model: NerModel) -> Self {
        let plan = model.compile_plan(DEFAULT_TOKEN_CACHE);
        NerPipeline { encoder, model, plan }
    }

    /// Recompiles the plan with the given token-cache capacity (`0`
    /// disables the cache).
    pub fn with_token_cache_capacity(mut self, capacity: usize) -> Self {
        self.plan = self.model.compile_plan(capacity);
        self
    }

    /// Recompiles the inference plan. Call after mutating
    /// [`model`](Self::model)'s parameters (e.g. further training): the
    /// plan snapshots the CRF decode tables and caches token features, so a
    /// stale plan would serve outputs from the old weights.
    pub fn refresh_plan(&mut self) {
        self.plan = self.model.compile_plan(self.plan.token_cache_capacity());
    }

    /// The compiled inference plan (cache statistics live here).
    pub fn plan(&self) -> &ForwardPlan {
        &self.plan
    }

    /// Tokenizes raw text and annotates it with predicted entities — a
    /// batch of one through [`extract_batch`](Self::extract_batch).
    pub fn extract(&self, text: &str) -> Sentence {
        self.extract_batch(&[text]).pop().expect("one result per text")
    }

    /// Annotates a pre-tokenized sentence (existing entities are ignored;
    /// an empty sentence comes back empty) — a batch of one through
    /// [`annotate_batch`](Self::annotate_batch).
    ///
    /// Feeds the `infer.sentence_us` latency histogram and the
    /// `infer.tokens` counter, from which tokens/sec throughput is derived,
    /// plus the per-stage `infer.{featurize,embed,encode,decode}_us`
    /// histograms and the `infer.cache.*` counters.
    pub fn annotate(&self, sentence: &Sentence) -> Sentence {
        self.annotate_batch(std::slice::from_ref(sentence)).pop().expect("one result per sentence")
    }

    /// [`extract`](Self::extract) through the original autograd-tape path
    /// — the reference implementation the plan is verified against.
    pub fn extract_tape(&self, text: &str) -> Sentence {
        let tokens = tokenize::tokenize(text);
        if tokens.is_empty() {
            return Sentence::default();
        }
        self.annotate_tape(&Sentence::unlabeled(&tokens))
    }

    /// [`annotate`](Self::annotate) through the autograd-tape reference
    /// ([`NerModel::predict_spans_tape`]: no plan, no caches).
    /// Bit-identical to the batched path.
    pub fn annotate_tape(&self, sentence: &Sentence) -> Sentence {
        let t = std::time::Instant::now();
        let enc = self.encoder.encode(sentence);
        let spans = self.model.predict_spans_tape(&enc);
        ner_obs::observe("infer.sentence_us", t.elapsed().as_secs_f64() * 1e6);
        ner_obs::counter("infer.tokens", sentence.len() as f64);
        Sentence { tokens: sentence.tokens.clone(), entities: spans }
    }

    /// Publishes the plan's token-cache hit/miss deltas to `ner-obs`.
    fn export_cache_stats(&self) {
        let (hits, misses) = self.plan.take_token_cache_stats();
        if hits + misses > 0 {
            ner_obs::counter("infer.cache.hits", hits as f64);
            ner_obs::counter("infer.cache.misses", misses as f64);
        }
        let batch_lookups = self.plan.take_token_cache_batch_lookups();
        if batch_lookups > 0 {
            ner_obs::counter("infer.cache.batch_lookups", batch_lookups as f64);
        }
    }

    /// Tokenizes and annotates a batch of raw texts through the **packed
    /// batched forward**: sentences are grouped into length-sorted compute
    /// buckets ([`crate::plan::buckets`]) and each bucket scores as one
    /// [`NerModel::predict_spans_batch`] call — one GEMM per op (and per
    /// timestep for the recurrent encoders) across the whole bucket,
    /// instead of one forward per sentence. Buckets fan out over the
    /// global `ner-par` pool. The batched backend is bit-identical to the
    /// tape per sentence, so the output equals calling
    /// [`extract_tape`](Self::extract_tape) per text, at any thread count.
    pub fn extract_batch(&self, texts: &[&str]) -> Vec<Sentence> {
        self.extract_batch_traced(texts, &[])
    }

    /// [`extract_batch`](Self::extract_batch) with per-request trace
    /// attribution: `traces[i]` (when present) receives a `batch_form`
    /// stage (dequeue → scoring start), its sentence's `featurize` stage,
    /// and the `embed`/`encode`/`decode` timings of the compute bucket the
    /// sentence scored in. Bucket stages land on every member trace in
    /// full — for batched requests the per-stage sum can exceed the
    /// request's wall time, which [`ner_obs::trace::TraceRecord`]
    /// documents. `traces` may be shorter than `texts` (missing entries
    /// score untraced); outputs are byte-identical either way.
    pub fn extract_batch_traced(
        &self,
        texts: &[&str],
        traces: &[Option<ner_obs::trace::TraceCtx>],
    ) -> Vec<Sentence> {
        let sentences: Vec<Sentence> =
            texts.iter().map(|t| Sentence::unlabeled(&tokenize::tokenize(t))).collect();
        let spans = self.score(&sentences, traces);
        sentences.into_iter().zip(spans).map(|(s, entities)| Sentence { entities, ..s }).collect()
    }

    /// Annotates a batch of pre-tokenized sentences through the same
    /// packed batched forward as [`extract_batch`](Self::extract_batch)
    /// (existing entities are ignored; empty sentences come back empty).
    pub fn annotate_batch(&self, sentences: &[Sentence]) -> Vec<Sentence> {
        let spans = self.score(sentences, &[]);
        sentences
            .iter()
            .zip(spans)
            .map(|(s, entities)| Sentence { tokens: s.tokens.clone(), entities })
            .collect()
    }

    /// Featurizes each sentence on the calling thread (with its trace, if
    /// any, installed so `infer.featurize_us` tees to it), scores them
    /// through the model's bucket engine (`NerModel::predict_bucketed`)
    /// on this pipeline's plan, and attributes the work: one
    /// `infer.{embed,encode,decode}_us` observation per packed forward, the
    /// bucket's stages on each member's trace, and per sentence its
    /// featurize time plus an equal share of its bucket's time as
    /// `infer.sentence_us`.
    fn score(
        &self,
        sentences: &[Sentence],
        traces: &[Option<ner_obs::trace::TraceCtx>],
    ) -> Vec<Vec<EntitySpan>> {
        let trace_of = |i: usize| traces.get(i).and_then(Option::as_ref);
        let mut encs: Vec<EncodedSentence> = Vec::with_capacity(sentences.len());
        let mut featurize_us: Vec<f64> = vec![0.0; sentences.len()];
        for (i, s) in sentences.iter().enumerate() {
            if let Some(trace) = trace_of(i) {
                trace.stage_since_mark(stage::BATCH_FORM, stage::MARK_DEQUEUE);
            }
            if s.is_empty() {
                encs.push(EncodedSentence::default());
                continue;
            }
            let t = std::time::Instant::now();
            let _active = trace_of(i).map(|tr| tr.install());
            encs.push(self.encoder.encode(s));
            let us = t.elapsed().as_secs_f64() * 1e6;
            ner_obs::trace::observe_stage(stage::FEATURIZE_US, stage::FEATURIZE, us);
            featurize_us[i] = us;
        }
        let spans = self.model.predict_bucketed(&self.plan, &encs, |bucket, stages, bucket_us| {
            ner_obs::observe(stage::EMBED_US, stages.embed_us);
            ner_obs::observe(stage::ENCODE_US, stages.encode_us);
            ner_obs::observe(stage::DECODE_US, stages.decode_us);
            let share = bucket_us / bucket.len() as f64;
            for &i in bucket {
                if let Some(trace) = trace_of(i) {
                    trace.stage(stage::EMBED, stages.embed_us);
                    trace.stage(stage::ENCODE, stages.encode_us);
                    trace.stage(stage::DECODE, stages.decode_us);
                }
                ner_obs::observe("infer.sentence_us", featurize_us[i] + share);
                ner_obs::counter("infer.tokens", encs[i].len() as f64);
            }
        });
        self.export_cache_stats();
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
    use crate::trainer::{self, TrainConfig};
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use ner_text::TagScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pipeline_round_trip_on_raw_text() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let train_ds = gen.dataset(&mut rng, 120);
        let encoder = SentenceEncoder::from_dataset(&train_ds, TagScheme::Bio, 1);
        let cfg = NerConfig {
            scheme: TagScheme::Bio,
            word: WordRepr::Random { dim: 16 },
            char_repr: CharRepr::None,
            encoder: EncoderKind::Lstm { hidden: 16, bidirectional: true, layers: 1 },
            decoder: DecoderKind::Crf,
            dropout: 0.1,
            ..NerConfig::default()
        };
        let mut model = NerModel::new(cfg, &encoder, None, &mut rng);
        let train_enc = encoder.encode_dataset(&train_ds, None);
        trainer::train(
            &mut model,
            &train_enc,
            None,
            &TrainConfig { epochs: 5, ..Default::default() },
            &mut rng,
        );
        let pipeline = NerPipeline::new(encoder, model);
        let out = pipeline.extract("Michael Jordan was born in Brooklyn.");
        assert_eq!(out.len(), 7, "tokenization: Michael Jordan was born in Brooklyn .");
        // A trained model should find at least one entity in this sentence.
        assert!(!out.entities.is_empty(), "expected entities in: {}", out.render_brackets());
        assert!(out.entities.iter().all(|e| e.end <= out.len()));
    }

    #[test]
    fn refresh_plan_preserves_custom_token_cache_capacity() {
        // Regression: refresh_plan used to reset any custom capacity to
        // DEFAULT_TOKEN_CACHE (and a disabled cache stayed disabled only by
        // luck of the map_or arm ordering).
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let ds = gen.dataset(&mut rng, 20);
        let encoder = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let model = NerModel::new(
            NerConfig {
                word: WordRepr::Random { dim: 8 },
                char_repr: CharRepr::None,
                encoder: EncoderKind::Identity,
                decoder: DecoderKind::Softmax,
                dropout: 0.0,
                scheme: TagScheme::Bio,
                ..NerConfig::default()
            },
            &encoder,
            None,
            &mut rng,
        );
        let mut pipeline = NerPipeline::new(encoder, model).with_token_cache_capacity(7);
        pipeline.refresh_plan();
        assert_eq!(pipeline.plan().token_cache_capacity(), 7);
        let cache = pipeline.plan().token_cache().expect("cache stays enabled across refresh");
        assert_eq!(cache.capacity(), 7);
        // Insert more distinct tokens than the capacity: the refreshed
        // cache must still hold exactly 7.
        for i in 0..10 {
            cache.insert(&format!("tok{i}"), vec![i as f32]);
        }
        assert_eq!(cache.len(), 7);

        // And a refresh must not resurrect a deliberately disabled cache.
        pipeline = pipeline.with_token_cache_capacity(0);
        pipeline.refresh_plan();
        assert!(pipeline.plan().token_cache().is_none());
        assert_eq!(pipeline.plan().token_cache_capacity(), 0);
    }

    /// An untrained softmax-over-embeddings pipeline: enough to exercise
    /// the plumbing, not the predictions.
    fn identity_softmax_pipeline(seed: u64) -> NerPipeline {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = gen.dataset(&mut rng, 20);
        let encoder = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let model = NerModel::new(
            NerConfig {
                word: WordRepr::Random { dim: 8 },
                char_repr: CharRepr::None,
                encoder: EncoderKind::Identity,
                decoder: DecoderKind::Softmax,
                dropout: 0.0,
                scheme: TagScheme::Bio,
                ..NerConfig::default()
            },
            &encoder,
            None,
            &mut rng,
        );
        NerPipeline::new(encoder, model)
    }

    #[test]
    fn empty_text_is_handled() {
        let pipeline = identity_softmax_pipeline(2);
        let out = pipeline.extract("   ");
        assert!(out.is_empty());
    }

    #[test]
    fn annotate_returns_an_empty_sentence_empty() {
        // An empty sentence has nothing to score: `annotate` must hand it
        // back empty, exactly as `annotate_batch` does.
        let pipeline = identity_softmax_pipeline(2);
        let out = pipeline.annotate(&Sentence::default());
        assert!(out.is_empty() && out.entities.is_empty());
        assert_eq!(pipeline.annotate_batch(&[Sentence::default()]), vec![out]);
    }
}
