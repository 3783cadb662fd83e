//! Everything a run needs before its measured phase: the served model's
//! checkpoint (a fixture, the same for every seed) and the seeded inputs.

use ner_core::config::WordRepr;
use ner_core::prelude::*;
use ner_corpus::noise::{corrupt_dataset, NoiseModel};
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_text::tokenize::tokenize;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of the served model. Fixed, so every workload seed is scored by
/// the same weights.
const FIXTURE_SEED: u64 = 20_230_401;

/// The survey's dominant architecture (char-CNN + BiLSTM + CRF) as the
/// CLI trains it by default: `charcnn-bilstm-crf` with trainable random
/// word embeddings and BIO tags.
pub fn default_config() -> NerConfig {
    let mut cfg = ner_core::zoo::preset("charcnn-bilstm-crf").expect("default preset exists");
    cfg.word = WordRepr::Random { dim: 32 };
    cfg.scheme = TagScheme::Bio;
    cfg
}

/// Trains the served model on clean news and writes its checkpoint.
pub fn write_fixture(path: &std::path::Path) -> std::io::Result<()> {
    let mut rng = StdRng::seed_from_u64(FIXTURE_SEED);
    let train_ds = NewsGenerator::new(GeneratorConfig::default()).dataset(&mut rng, 600);
    let cfg = default_config();
    let encoder = SentenceEncoder::from_dataset(&train_ds, cfg.scheme, 1);
    let mut model = NerModel::new(cfg, &encoder, None, &mut rng);
    let train_enc = encoder.encode_dataset(&train_ds, None);
    let tc = TrainConfig { epochs: 3, batch: 8, patience: None, ..TrainConfig::default() };
    ner_core::trainer::train(&mut model, &train_enc, None, &tc, &mut rng);
    Checkpoint::capture(&NerPipeline::new(encoder, model)).save(path)
}

/// One request's input and what a correct answer must contain.
pub struct Item {
    /// The raw text sent.
    pub text: String,
    /// Gold entity spans, or `None` when tokenizing the text does not give
    /// back the generator's tokens, so the spans cannot be aligned.
    pub gold: Option<Vec<EntitySpan>>,
}

fn items(ds: &Dataset) -> Vec<Item> {
    ds.sentences
        .iter()
        .map(|s| {
            let gen_tokens: Vec<&str> = s.tokens.iter().map(|t| t.text.as_str()).collect();
            let text = gen_tokens.join(" ");
            let gold = (tokenize(&text) == gen_tokens).then(|| s.entities.clone());
            Item { text, gold }
        })
        .collect()
}

/// A bounded pool of clean news sentences; requests repeat its entries,
/// so its small vocabulary keeps the server's token cache warm. One entity
/// mention in ten is a name the served model never saw in training.
pub fn clean_pool(seed: u64, n: usize) -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = GeneratorConfig { unseen_entity_rate: 0.1, ..GeneratorConfig::default() };
    items(&NewsGenerator::new(cfg).dataset(&mut rng, n))
}

/// Sentences per independently seeded chunk of [`noisy_stream`].
const CHUNK: usize = 4096;

/// `n` fresh W-NUT-style sentences: news with a share of unseen entities,
/// passed through the social-media noise channel. Each is sent once, and
/// the long tail of misspelled surface forms defeats the token cache.
/// Chunks are seeded from `(seed, chunk index)` alone, so the stream is
/// the same however many threads generate it.
pub fn noisy_stream(seed: u64, n: usize) -> Vec<Item> {
    let chunks = n.div_ceil(CHUNK);
    let chunk = |k: usize| {
        let mut rng =
            StdRng::seed_from_u64(seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let cfg = GeneratorConfig { unseen_entity_rate: 0.3, ..GeneratorConfig::default() };
        let ds = NewsGenerator::new(cfg).dataset(&mut rng, CHUNK.min(n - k * CHUNK));
        items(&corrupt_dataset(&ds, &NoiseModel::social_media(), &mut rng))
    };
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(chunks).max(1);
    let mut parts: Vec<(usize, Vec<Item>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    (w..chunks).step_by(workers).map(|k| (k, chunk(k))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("input generator thread")).collect()
    });
    parts.sort_by_key(|(k, _)| *k);
    parts.into_iter().flat_map(|(_, items)| items).collect()
}

/// Distinct surface forms over a set of items.
pub fn vocabulary(items: &[Item]) -> usize {
    items.iter().flat_map(|i| tokenize(&i.text)).collect::<std::collections::HashSet<_>>().len()
}
