//! Bit-identity of the batched trainer (`trainer::train`, packed autograd
//! through `BatchedTapeExec`) against the per-sentence oracle
//! (`trainer::train_tape`, one tape per sentence) under the *same*
//! bucketed schedule: identical per-epoch loss curves
//! (compared as f64 bits), identical final weights (f32 bits) and
//! identical final F1, for every zoo preset, at several thread counts.
//! CI reruns this suite under `NER_THREADS=1/4` × `NER_SIMD=off/default`,
//! so the packed gradient path is pinned against the oracle on every
//! kernel dispatch configuration.
//!
//! Also covers the gradient scatter through odd bucket shapes (adjacent
//! empty sentences, all-equal lengths, single-sentence buckets) and the
//! non-finite guard's whole-bucket rollback.

use ner_core::prelude::*;
use ner_core::trainer::{train_tape, TrainReport};
use ner_core::zoo;
use ner_corpus::{GeneratorConfig, NewsGenerator};
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

/// Everything a training run pins: the loss curve, the final parameters
/// and the resulting test F1.
struct Run {
    losses: Vec<f64>,
    weights: Vec<(String, Vec<f32>)>,
    f1: f64,
}

fn run_of(model: NerModel, report: &TrainReport, test: &[EncodedSentence]) -> Run {
    let losses = report.epochs.iter().map(|e| e.train_loss).collect();
    let weights = model
        .store
        .ids()
        .map(|id| (model.store.name(id).to_string(), model.store.value(id).data().to_vec()))
        .collect();
    let f1 = evaluate_model(&model, test).micro.f1;
    Run { losses, weights, f1 }
}

/// A trainer entry point: `train` or the oracle `train_tape`.
type Trainer = fn(
    &mut NerModel,
    &[EncodedSentence],
    Option<&[EncodedSentence]>,
    &TrainConfig,
    &mut StdRng,
) -> TrainReport;

/// Trains one preset from a fixed init with a fixed schedule rng.
fn train_run(
    cfg: &NerConfig,
    trainer: Trainer,
    batch: usize,
    train_enc: &[EncodedSentence],
    test_enc: &[EncodedSentence],
    encoder: &SentenceEncoder,
    epochs: usize,
) -> Run {
    let mut model = NerModel::new(cfg.clone(), encoder, None, &mut StdRng::seed_from_u64(5));
    let tcfg = TrainConfig { epochs, patience: None, batch, ..TrainConfig::default() };
    let report = trainer(&mut model, train_enc, None, &tcfg, &mut StdRng::seed_from_u64(77));
    run_of(model, &report, test_enc)
}

fn assert_runs_bit_identical(got: &Run, want: &Run, ctx: &str) {
    assert_eq!(got.losses.len(), want.losses.len(), "{ctx}: epoch count");
    for (e, (g, w)) in got.losses.iter().zip(&want.losses).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: loss curve diverges at epoch {e}: batched {g} vs oracle {w}"
        );
    }
    assert_eq!(got.weights.len(), want.weights.len(), "{ctx}: param count");
    for ((gn, gw), (wn, ww)) in got.weights.iter().zip(&want.weights) {
        assert_eq!(gn, wn, "{ctx}: param order");
        assert_eq!(gw.len(), ww.len(), "{ctx}: {gn}: param size");
        for (i, (a, b)) in gw.iter().zip(ww).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{ctx}: final weight diverges at {gn}[{i}]: batched {a} vs oracle {b}"
            );
        }
    }
    assert_eq!(got.f1.to_bits(), want.f1.to_bits(), "{ctx}: final F1");
}

fn parity_data(n_train: usize) -> (Vec<EncodedSentence>, Vec<EncodedSentence>, SentenceEncoder) {
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let mut rng = StdRng::seed_from_u64(33);
    let train_ds = gen.dataset(&mut rng, n_train);
    let test_ds = gen.dataset(&mut rng, 10);
    let encoder = SentenceEncoder::from_dataset(&train_ds, TagScheme::Bio, 1);
    let train_enc = encoder.encode_dataset(&train_ds, None);
    let test_enc = encoder.encode_dataset(&test_ds, None);
    (train_enc, test_enc, encoder)
}

/// Every zoo preset in buckets of 3, plus wide recurrent buckets: a
/// BiLSTM-CRF with no char channel over 64-wide random word vectors at
/// hidden 48/128/256 in buckets of 16 sentences — the shapes where the
/// packed GEMMs and the packed BPTT do the most work per bucket.
#[test]
fn batched_trainer_is_bit_identical_to_per_sentence_oracle_for_every_zoo_preset() {
    let zoo_data = parity_data(18);
    let wide_data = parity_data(40);
    let mut cases: Vec<_> = materialized_zoo()
        .into_iter()
        .map(|(name, mut cfg)| {
            // The parity data is encoded under BIO; train each preset
            // under the scheme the data was encoded with.
            cfg.scheme = TagScheme::Bio;
            (name, cfg, 3, &zoo_data)
        })
        .collect();
    for hidden in [48usize, 128, 256] {
        let cfg = NerConfig {
            scheme: TagScheme::Bio,
            word: WordRepr::Random { dim: 64 },
            char_repr: CharRepr::None,
            encoder: EncoderKind::Lstm { hidden, bidirectional: true, layers: 1 },
            decoder: DecoderKind::Crf,
            ..NerConfig::default()
        };
        cases.push((format!("bilstm-crf hidden {hidden}"), cfg, 16, &wide_data));
    }
    for (name, cfg, batch, (train_enc, test_enc, encoder)) in cases {
        for threads in [1usize, 4] {
            let (got, want) = with_threads(threads, || {
                let got = train_run(&cfg, train, batch, train_enc, test_enc, encoder, 2);
                let want = train_run(&cfg, train_tape, batch, train_enc, test_enc, encoder, 2);
                (got, want)
            });
            assert_runs_bit_identical(&got, &want, &format!("{name} @ {threads} threads"));
        }
    }
}

/// Odd bucket shapes: adjacent empty sentences, buckets of all-equal
/// lengths, a single-sentence tail bucket, and a one-sentence epoch — the
/// gradient scatter must stay bit-identical through every packing.
#[test]
fn gradient_scatter_survives_odd_length_mixes() {
    let (base, test_enc, encoder) = parity_data(9);
    let empty = encoder.encode(&Sentence::new::<&str>(&[], vec![]));
    // Equal lengths: duplicate one sentence so a bucket packs
    // all-equal-length segments (no live-prefix shrink until the end).
    let equal = base[0].clone();

    let mixes: Vec<Vec<EncodedSentence>> = vec![
        // empty-adjacent: two empties in a row inside a bucket
        vec![
            base[0].clone(),
            empty.clone(),
            empty.clone(),
            base[1].clone(),
            base[2].clone(),
            empty.clone(),
            base[3].clone(),
        ],
        // all-equal lengths in every bucket
        vec![equal.clone(), equal.clone(), equal.clone(), equal.clone()],
        // single sentence: one one-bucket epoch
        vec![base[4].clone()],
        // ragged tail: last bucket has a single sentence
        base.iter().take(7).cloned().collect(),
    ];

    let cfg = NerConfig {
        scheme: TagScheme::Bio,
        word: WordRepr::Random { dim: 12 },
        char_repr: CharRepr::None,
        encoder: EncoderKind::Lstm { hidden: 10, bidirectional: true, layers: 1 },
        decoder: DecoderKind::Crf,
        dropout: 0.2,
        ..NerConfig::default()
    };
    for (m, train_enc) in mixes.iter().enumerate() {
        for threads in [1usize, 2] {
            let (got, want) = with_threads(threads, || {
                let got = train_run(&cfg, train, 3, train_enc, &test_enc, &encoder, 2);
                let want = train_run(&cfg, train_tape, 3, train_enc, &test_enc, &encoder, 2);
                (got, want)
            });
            assert_runs_bit_identical(&got, &want, &format!("mix {m} @ {threads} threads"));
        }
    }
}

/// One poisoned sentence must roll back its *whole* bucket in batched
/// mode: innocent bucket-mates contribute nothing (their finite losses are
/// discarded), sentences in other buckets still update. The per-sentence
/// oracle, by contrast, skips only the poisoned sentence.
#[test]
fn non_finite_loss_rolls_back_the_whole_batched_bucket() {
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let mut rng = StdRng::seed_from_u64(41);
    let train_ds = gen.dataset(&mut rng, 6);
    let encoder = SentenceEncoder::from_dataset(&train_ds, TagScheme::Bio, 1).with_features(true);
    let mut train_enc = encoder.encode_dataset(&train_ds, None);

    let cfg = NerConfig {
        scheme: TagScheme::Bio,
        word: WordRepr::Random { dim: 12 },
        char_repr: CharRepr::None,
        encoder: EncoderKind::Lstm { hidden: 8, bidirectional: false, layers: 1 },
        decoder: DecoderKind::Crf,
        dropout: 0.0,
        use_features: true,
        ..NerConfig::default()
    };
    // Poison exactly one sentence through its feature row: its loss — and
    // only its — comes out NaN.
    assert!(!train_enc[1].feats.is_empty(), "use_features should produce feature rows");
    train_enc[1].feats[0][0] = f32::NAN;

    with_threads(1, || {
        // Batch of 3, shuffle off: bucket 0 = sentences {0 poisoned-mate,
        // 1 poisoned, 2}, bucket 1 = sentences {3, 4, 5}.
        let tcfg = TrainConfig {
            epochs: 1,
            shuffle: false,
            patience: None,
            batch: 3,
            ..TrainConfig::default()
        };
        let mut model = NerModel::new(cfg.clone(), &encoder, None, &mut StdRng::seed_from_u64(5));
        let report = train(&mut model, &train_enc, None, &tcfg, &mut StdRng::seed_from_u64(7));
        assert_eq!(
            report.epochs[0].skipped_updates, 3,
            "the poisoned bucket's three sentences must all be rolled back"
        );

        // The oracle under the same schedule skips only the poisoned one.
        let mut model = NerModel::new(cfg.clone(), &encoder, None, &mut StdRng::seed_from_u64(5));
        let report = train_tape(&mut model, &train_enc, None, &tcfg, &mut StdRng::seed_from_u64(7));
        assert_eq!(
            report.epochs[0].skipped_updates, 1,
            "the per-sentence oracle skips just the poisoned sentence"
        );
    });
}
