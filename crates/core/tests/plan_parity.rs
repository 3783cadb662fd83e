//! Parity of the compiled tape-free inference path with the autograd-tape
//! path, across every zoo architecture: identical predicted tag sequences
//! on every sentence, with the token cache cold and warm. This is the
//! integration-level counterpart of `ner-tensor/tests/prop_fused.rs` —
//! the fused kernels are bit-identical op by op, so the assembled plan
//! must be prediction-identical end to end.

use ner_core::prelude::*;
use ner_core::zoo;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SENTENCES: usize = 12;

/// Tags through the tape-free path: the sentence scored as a batch of one.
fn planned_tags(model: &NerModel, plan: &ForwardPlan, enc: &EncodedSentence) -> Vec<String> {
    let (mut spans, _) = model.predict_spans_batch(plan, &[enc]);
    model.tag_set.scheme().spans_to_tags(enc.len(), &spans.pop().expect("one result"))
}

/// Zoo presets with pretrained embeddings swapped for random ones (as the
/// CLI does when no embedding file is supplied).
fn materialized_zoo() -> Vec<(String, NerConfig)> {
    zoo::zoo()
        .into_iter()
        .map(|e| {
            let mut cfg = e.config;
            if matches!(cfg.word, WordRepr::Pretrained { .. }) {
                cfg.word = WordRepr::Random { dim: 32 };
            }
            (e.name.to_string(), cfg)
        })
        .collect()
}

#[test]
fn planned_predictions_match_tape_predictions_for_every_zoo_model() {
    let ds = NewsGenerator::new(GeneratorConfig::default())
        .dataset(&mut StdRng::seed_from_u64(11), SENTENCES);
    for (name, cfg) in materialized_zoo() {
        let encoder = SentenceEncoder::from_dataset(&ds, cfg.scheme, 1);
        let encoded = encoder.encode_dataset(&ds, None);
        let model = NerModel::new(cfg, &encoder, None, &mut StdRng::seed_from_u64(7));
        let plan = model.compile_plan(256);
        // Two passes: the first runs with a cold token cache, the second
        // must reproduce the same tags entirely from cached base rows.
        for pass in 0..2 {
            for (i, enc) in encoded.iter().enumerate() {
                let tape_tags = model.predict_tags_tape(enc);
                let plan_tags = planned_tags(&model, &plan, enc);
                assert_eq!(
                    plan_tags, tape_tags,
                    "{name}: divergence on sentence {i} (pass {pass})"
                );
            }
        }
        let (hits, misses) = plan.token_cache_stats();
        assert!(hits > 0, "{name}: second pass should hit the token cache");
        assert!(misses > 0, "{name}: first pass should miss the token cache");
        // Dev evaluation buckets the same sentences (fanning out over the
        // pool at NER_THREADS > 1) and must reproduce the tape per sentence.
        let all = predict_all(&model, &encoded);
        assert_eq!(all.len(), encoded.len());
        for (i, (got, enc)) in all.iter().zip(&encoded).enumerate() {
            assert_eq!(
                *got,
                model.predict_spans_tape(enc),
                "{name}: predict_all diverges on sentence {i}"
            );
        }
    }
}

#[test]
fn parity_survives_a_training_step_and_plan_refresh_for_every_zoo_model() {
    // A stale plan is the classic failure mode: training mutates the CRF
    // parameters the plan snapshotted at compile time. After one optimizer
    // step plus `refresh_plan`, the planned path must agree with the tape
    // path again on every preset.
    let ds = NewsGenerator::new(GeneratorConfig::default())
        .dataset(&mut StdRng::seed_from_u64(19), SENTENCES);
    for (name, cfg) in materialized_zoo() {
        let encoder = SentenceEncoder::from_dataset(&ds, cfg.scheme, 1);
        let encoded = encoder.encode_dataset(&ds, None);
        let mut rng = StdRng::seed_from_u64(23);
        let model = NerModel::new(cfg, &encoder, None, &mut rng);
        let mut pipeline = NerPipeline::new(encoder, model);

        let train_cfg =
            TrainConfig { epochs: 1, patience: None, shuffle: false, ..Default::default() };
        ner_core::trainer::train(&mut pipeline.model, &encoded[..1], None, &train_cfg, &mut rng);
        pipeline.refresh_plan();

        for (i, enc) in encoded.iter().enumerate() {
            let tape_tags = pipeline.model.predict_tags_tape(enc);
            let plan_tags = planned_tags(&pipeline.model, pipeline.plan(), enc);
            assert_eq!(plan_tags, tape_tags, "{name}: post-training divergence on sentence {i}");
        }
    }
}

#[test]
fn plan_without_cache_also_matches() {
    let ds = NewsGenerator::new(GeneratorConfig::default())
        .dataset(&mut StdRng::seed_from_u64(13), SENTENCES);
    let cfg = NerConfig::default();
    let encoder = SentenceEncoder::from_dataset(&ds, cfg.scheme, 1);
    let encoded = encoder.encode_dataset(&ds, None);
    let model = NerModel::new(cfg, &encoder, None, &mut StdRng::seed_from_u64(3));
    let plan = model.compile_plan(0);
    assert_eq!(plan.token_cache_stats(), (0, 0));
    for enc in &encoded {
        assert_eq!(planned_tags(&model, &plan, enc), model.predict_tags_tape(enc));
    }
}

/// Raw-text pipeline parity: `extract` (the packed forward, a batch of
/// one) reproduces `extract_tape`; and over a hundred generated sentences
/// `annotate` reproduces `annotate_tape`, and `annotate_batch`
/// (length-sorted buckets fanned over the pool) reproduces `annotate` with
/// the token cache warm and again after `refresh_plan` empties it. The
/// default configuration carries the char CNN; the char-free BiLSTM-CRF
/// stacks sweep the hidden size, where the packed GEMMs grow widest.
#[test]
fn pipeline_tape_and_planned_paths_agree_on_raw_text() {
    let ds =
        NewsGenerator::new(GeneratorConfig::default()).dataset(&mut StdRng::seed_from_u64(29), 100);
    let bilstm = |hidden| NerConfig {
        word: WordRepr::Random { dim: 64 },
        char_repr: CharRepr::None,
        encoder: EncoderKind::Lstm { hidden, bidirectional: true, layers: 1 },
        ..NerConfig::default()
    };
    let configs = [
        ("default", NerConfig::default()),
        ("bilstm-48", bilstm(48)),
        ("bilstm-128", bilstm(128)),
        ("bilstm-256", bilstm(256)),
    ];
    for (name, cfg) in configs {
        let encoder = SentenceEncoder::from_dataset(&ds, cfg.scheme, 1);
        let model = NerModel::new(cfg, &encoder, None, &mut StdRng::seed_from_u64(5));
        let mut pipeline = NerPipeline::new(encoder, model);
        for text in [
            "Michael Jordan was born in Brooklyn.",
            "The European Commission met in Brussels on Tuesday.",
            "Prices rose 4.2 percent, Reuters reported.",
        ] {
            let planned = pipeline.extract(text);
            let tape = pipeline.extract_tape(text);
            assert_eq!(planned.entities, tape.entities, "{name}: divergence on {text:?}");
        }
        let single: Vec<Sentence> = ds.sentences.iter().map(|s| pipeline.annotate(s)).collect();
        for (i, (got, s)) in single.iter().zip(&ds.sentences).enumerate() {
            assert_eq!(
                got.entities,
                pipeline.annotate_tape(s).entities,
                "{name}: annotate diverges from the tape on sentence {i}"
            );
        }
        for pass in ["warm", "refreshed"] {
            if pass == "refreshed" {
                pipeline.refresh_plan();
            }
            let batched = pipeline.annotate_batch(&ds.sentences);
            assert_eq!(batched.len(), single.len());
            for (i, (got, want)) in batched.iter().zip(&single).enumerate() {
                assert_eq!(
                    got.entities, want.entities,
                    "{name}: annotate_batch ({pass} cache) diverges on sentence {i}"
                );
            }
        }
    }
}
