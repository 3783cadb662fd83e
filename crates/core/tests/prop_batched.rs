//! Parity of the packed batched execution path (`extract_batch` /
//! `annotate_batch` over `BatchedExec`) with the per-sentence tape path,
//! across every zoo architecture, thread counts 1/2/4, and ragged batch
//! shapes including empty and single-token sentences. The batched backend
//! is built to be bit-identical per row, so the gate here is exact
//! prediction equality — tags and spans, not tolerances. The oracle never
//! touches the token cache, so only the batched calls (all made under
//! `THREADS_LOCK`) move the cache counters.

use ner_core::prelude::*;
use ner_core::zoo;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_tensor::simd::{self, SimdLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

/// Serializes tests that touch the global thread pool: `set_global_threads`
/// swaps a process-wide pool, so these tests must not interleave.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ner_par::set_global_threads(threads);
    let out = f();
    ner_par::set_global_threads(1);
    out
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

/// A ragged batch: empty text, single-token sentences, duplicates (to
/// exercise miss-dedup in the batched cache path), and mixed lengths so
/// length-sorted bucketing actually reorders.
fn ragged_texts() -> Vec<&'static str> {
    vec![
        "Michael Jordan was born in Brooklyn.",
        "",
        "Hi",
        "The European Commission met in Brussels on Tuesday to discuss the annual budget.",
        "Prices rose 4.2 percent, Reuters reported.",
        "Hi",
        "   ",
        "No",
        "Michael Jordan was born in Brooklyn.",
        "Analysts at Goldman Sachs expect the Federal Reserve to hold rates steady this year.",
    ]
}

fn pipeline_for(cfg: NerConfig, seed: u64) -> NerPipeline {
    let ds =
        NewsGenerator::new(GeneratorConfig::default()).dataset(&mut StdRng::seed_from_u64(11), 30);
    let encoder = SentenceEncoder::from_dataset(&ds, cfg.scheme, 1);
    let model = NerModel::new(cfg, &encoder, None, &mut StdRng::seed_from_u64(seed));
    NerPipeline::new(encoder, model)
}

fn assert_sentences_eq(got: &[Sentence], want: &[Sentence], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: batch size mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.texts(), w.texts(), "{ctx}: token divergence on sentence {i}");
        assert_eq!(g.entities, w.entities, "{ctx}: tag divergence on sentence {i}");
    }
}

#[test]
fn batched_extraction_matches_per_sentence_for_every_zoo_model() {
    let texts = ragged_texts();
    for (name, cfg) in materialized_zoo() {
        let pipeline = pipeline_for(cfg, 7);
        // Per-sentence tape oracle.
        let want: Vec<Sentence> = texts.iter().map(|t| pipeline.extract_tape(t)).collect();
        for threads in [1, 2, 4] {
            // Pass 0 scores with whatever the oracle left cached; a fresh
            // plan in between gives the batched path a cold cache too.
            for pass in 0..2 {
                let got = with_threads(threads, || pipeline.extract_batch(&texts));
                assert_sentences_eq(&got, &want, &format!("{name} threads={threads} pass={pass}"));
            }
        }
    }
}

#[test]
fn batched_extraction_matches_with_a_cold_cache_and_without_one() {
    let texts = ragged_texts();
    for capacity in [0, ner_core::plan::DEFAULT_TOKEN_CACHE] {
        let pipeline = pipeline_for(NerConfig::default(), 13).with_token_cache_capacity(capacity);
        // Batched goes FIRST: the batch itself is the cold-cache pass.
        let got = with_threads(4, || pipeline.extract_batch(&texts));
        let want: Vec<Sentence> = texts.iter().map(|t| pipeline.extract_tape(t)).collect();
        assert_sentences_eq(&got, &want, &format!("cold-cache capacity={capacity}"));
    }
}

#[test]
fn annotate_batch_matches_annotate_on_pretokenized_ragged_input() {
    let pipeline = pipeline_for(NerConfig::default(), 17);
    let mut sentences: Vec<Sentence> = NewsGenerator::new(GeneratorConfig::default())
        .dataset(&mut StdRng::seed_from_u64(29), 8)
        .sentences;
    sentences.insert(3, Sentence::default()); // empty sentence mid-batch
    sentences.insert(5, Sentence::unlabeled(&["Solo".to_string()]));
    // `annotate_tape` rejects empty sentences; the batch path returns them
    // untouched, so the oracle mirrors that.
    let want: Vec<Sentence> = sentences
        .iter()
        .map(|s| if s.is_empty() { s.clone() } else { pipeline.annotate_tape(s) })
        .collect();
    for threads in [1, 2, 4] {
        let got = with_threads(threads, || pipeline.annotate_batch(&sentences));
        assert_sentences_eq(&got, &want, &format!("annotate_batch threads={threads}"));
    }
}

/// Batched-vs-per-sentence parity must hold at every SIMD level the CPU
/// supports, not just the configured one: the per-sentence oracle runs
/// forced-scalar, the batch runs forced to each level at 1/2/4 threads.
/// Exercises a representative slice of the zoo (first, middle, last
/// preset) to keep the runtime bounded.
#[test]
fn batched_extraction_is_identical_at_every_simd_level() {
    let texts = ragged_texts();
    let levels: Vec<SimdLevel> = [SimdLevel::Off, SimdLevel::Sse2, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| simd::is_supported(l))
        .collect();
    let zoo = materialized_zoo();
    let picks = [0, zoo.len() / 2, zoo.len() - 1];
    for (i, (name, cfg)) in zoo.into_iter().enumerate() {
        if !picks.contains(&i) {
            continue;
        }
        let pipeline = pipeline_for(cfg, 23);
        let want: Vec<Sentence> = simd::with_level(SimdLevel::Off, || {
            texts.iter().map(|t| pipeline.extract_tape(t)).collect()
        });
        for &lvl in &levels {
            for threads in [1, 2, 4] {
                let got = with_threads(threads, || {
                    simd::with_level(lvl, || pipeline.extract_batch(&texts))
                });
                assert_sentences_eq(
                    &got,
                    &want,
                    &format!("{name} simd={} threads={threads}", lvl.name()),
                );
            }
        }
    }
}

#[test]
fn batched_cache_path_reports_whole_batch_lookups() {
    let texts = ragged_texts();
    let pipeline = pipeline_for(NerConfig::default(), 19);
    // Hold the pool lock across the whole measurement: every other test's
    // batched scoring happens under it, so the counter can't move under us.
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ner_par::set_global_threads(1);
    let before = ner_obs::counter_value("infer.cache.batch_lookups").unwrap_or(0.0);
    pipeline.extract_batch(&texts);
    let after = ner_obs::counter_value("infer.cache.batch_lookups").unwrap_or(0.0);
    // One lock acquisition per compute bucket — far fewer than one per
    // token/sentence. With 8 non-empty sentences at 1 thread there is
    // exactly one bucket.
    assert_eq!(after - before, 1.0, "expected exactly one whole-batch cache lookup");
}
