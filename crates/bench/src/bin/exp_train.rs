//! Training throughput: the batched packed-autograd trainer
//! (`trainer::train`) vs the per-sentence oracle (`trainer::train_tape`)
//! under the *same* bucketed schedule.
//!
//! Both trainers run identical chunk/bucket/seed schedules (see
//! DESIGN.md, "Batched training"), so their per-epoch loss curves must be
//! **bit-identical** — any divergence makes the harness exit non-zero (CI
//! runs this via `--smoke` at `NER_THREADS=1` and `4`). What differs is
//! wall clock: the batched trainer records one autodiff tape over the
//! packed `[N,d]` row matrix per bucket, amortizing the recurrent GEMMs
//! across sentences, while the oracle builds one tape per sentence.
//!
//! The sweep trains a BiLSTM-CRF at hidden sizes 48/128/256 and 1/4
//! worker threads, reporting per-epoch wall clock, tokens/s and the
//! batched-vs-per-sentence epoch-throughput speedup. As in `exp_inference`,
//! the batched win is bounded by the GEMM share of a sentence's cost, so
//! the ratio grows with `hidden`.
//!
//! Results land in `results/exp_train.json` (with a run manifest) and,
//! for the repo-level benchmark snapshot, `BENCH_train.json`.

use ner_bench::{init_harness, print_table, write_report, Scale};
use ner_core::config::{CharRepr, EncoderKind, NerConfig, WordRepr};
use ner_core::prelude::*;
use ner_core::trainer::{train_tape, TrainReport};
use ner_corpus::{GeneratorConfig, NewsGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

const SEED: u64 = 31;

/// Sentences per packed training bucket (per worker). Independent of the
/// inference bucket cap (`plan::DEFAULT_COMPUTE_BATCH`, 8 sentences).
const BATCH: usize = 16;

/// One epoch of the headline configuration.
#[derive(Serialize)]
struct EpochRow {
    epoch: usize,
    trainer: String,
    wall_ms: u64,
    tokens_per_s: f64,
    train_loss: f64,
}

/// Batched vs per-sentence epoch throughput at one (hidden, threads) cell.
#[derive(Serialize)]
struct SweepRow {
    hidden: usize,
    threads: usize,
    epochs: usize,
    tokens_per_epoch: usize,
    /// Mean epoch wall clock, per-sentence oracle.
    per_sentence_ms: f64,
    /// Mean epoch wall clock, batched trainer.
    batched_ms: f64,
    per_sentence_tokens_per_s: f64,
    batched_tokens_per_s: f64,
    /// per_sentence_ms / batched_ms; >1 means packing won.
    batched_speedup: f64,
    /// Epochs whose training loss differed in any f64 bit between the two
    /// trainers. Must be zero: both run the same schedule.
    loss_curve_divergences: usize,
}

#[derive(Serialize)]
struct Report {
    experiment: String,
    description: String,
    seed: u64,
    smoke: bool,
    /// Worker threads requested via `NER_THREADS` at launch.
    requested_threads: usize,
    /// True `available_parallelism` of the host the run executed on.
    host_parallelism: usize,
    kernel_backend: String,
    batch: usize,
    /// Batched over per-sentence epoch throughput at hidden=128, 1 thread
    /// — the headline number of this experiment (acceptance: >= 1.5x on a
    /// SIMD-enabled host at hidden >= 128).
    batched_speedup_hidden128_1thr: f64,
    meets_1_5x_target_at_hidden128: bool,
    /// Honest read of the headline on the measured host.
    analysis: String,
    sweep: Vec<SweepRow>,
    /// Per-epoch detail for hidden=128 at 1 thread, both trainers.
    epochs_hidden128_1thr: Vec<EpochRow>,
    loss_curve_divergences: usize,
}

/// A trainer entry point: `train` or the oracle `train_tape`.
type Trainer = fn(
    &mut NerModel,
    &[EncodedSentence],
    Option<&[EncodedSentence]>,
    &TrainConfig,
    &mut StdRng,
) -> TrainReport;

/// Trains the given config from a fixed init with a fixed schedule rng;
/// the returned report carries per-epoch wall clock and tokens/s.
fn run(
    cfg: &NerConfig,
    trainer: Trainer,
    train_enc: &[EncodedSentence],
    encoder: &SentenceEncoder,
    epochs: usize,
) -> TrainReport {
    let mut model = NerModel::new(cfg.clone(), encoder, None, &mut StdRng::seed_from_u64(SEED));
    let tc = TrainConfig { epochs, patience: None, batch: BATCH, ..TrainConfig::default() };
    trainer(&mut model, train_enc, None, &tc, &mut StdRng::seed_from_u64(SEED ^ 0x5A5A))
}

fn mean_wall_ms(r: &TrainReport) -> f64 {
    r.epochs.iter().map(|e| e.wall_ms as f64).sum::<f64>() / r.epochs.len().max(1) as f64
}

fn mean_tokens_per_s(r: &TrainReport) -> f64 {
    r.epochs.iter().map(|e| e.tokens_per_s).sum::<f64>() / r.epochs.len().max(1) as f64
}

/// Bitwise loss-curve comparison: the two trainers run the same schedule,
/// so every epoch's mean loss must agree in every f64 bit.
fn curve_divergences(batched: &TrainReport, oracle: &TrainReport, ctx: &str) -> usize {
    let mut n = 0;
    for (b, o) in batched.epochs.iter().zip(&oracle.epochs) {
        if b.train_loss.to_bits() != o.train_loss.to_bits() {
            n += 1;
            if n <= 5 {
                eprintln!(
                    "loss-curve divergence [{ctx}] epoch {}: batched {} vs per-sentence {}",
                    b.epoch, b.train_loss, o.train_loss
                );
            }
        }
    }
    n += batched.epochs.len().abs_diff(oracle.epochs.len());
    n
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::Quick } else { Scale::from_args() };
    init_harness("exp_train", SEED, scale);
    let requested_threads = ner_par::default_threads();

    let mut rng = StdRng::seed_from_u64(SEED);
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let corpus = gen.dataset(&mut rng, scale.size(160));
    let encoder = SentenceEncoder::from_dataset(&corpus, TagScheme::Bio, 1);
    let train_enc = encoder.encode_dataset(&corpus, None);
    let tokens_per_epoch: usize = train_enc.iter().map(|s| s.len()).sum();
    let epochs = scale.epochs(4);

    // A pure BiLSTM+CRF stack (no char channel) isolates the recurrent
    // GEMMs that packing amortizes, mirroring exp_inference's sweep.
    let cfg_at = |hidden: usize| NerConfig {
        scheme: TagScheme::Bio,
        word: WordRepr::Random { dim: 64 },
        char_repr: CharRepr::None,
        encoder: EncoderKind::Lstm { hidden, bidirectional: true, layers: 1 },
        decoder: ner_core::config::DecoderKind::Crf,
        ..NerConfig::default()
    };

    let mut sweep = Vec::new();
    let mut epochs_detail = Vec::new();
    let mut divergences = 0usize;
    let mut speedup_128_1thr = f64::NAN;
    for &hidden in &[48usize, 128, 256] {
        let cfg = cfg_at(hidden);
        for &threads in &[1usize, 4] {
            ner_par::set_global_threads(threads);
            let batched = run(&cfg, train, &train_enc, &encoder, epochs);
            let oracle = run(&cfg, train_tape, &train_enc, &encoder, epochs);
            let ctx = format!("hidden={hidden} threads={threads}");
            let diverged = curve_divergences(&batched, &oracle, &ctx);
            divergences += diverged;
            let row = SweepRow {
                hidden,
                threads,
                epochs,
                tokens_per_epoch,
                per_sentence_ms: mean_wall_ms(&oracle),
                batched_ms: mean_wall_ms(&batched),
                per_sentence_tokens_per_s: mean_tokens_per_s(&oracle),
                batched_tokens_per_s: mean_tokens_per_s(&batched),
                batched_speedup: mean_wall_ms(&oracle) / mean_wall_ms(&batched),
                loss_curve_divergences: diverged,
            };
            if hidden == 128 && threads == 1 {
                speedup_128_1thr = row.batched_speedup;
                for (name, r) in [("batched", &batched), ("per-sentence", &oracle)] {
                    for e in &r.epochs {
                        epochs_detail.push(EpochRow {
                            epoch: e.epoch,
                            trainer: name.to_string(),
                            wall_ms: e.wall_ms,
                            tokens_per_s: e.tokens_per_s,
                            train_loss: e.train_loss,
                        });
                    }
                }
            }
            sweep.push(row);
        }
    }
    ner_par::set_global_threads(1);

    print_table(
        "batched vs per-sentence training, mean epoch wall clock",
        &["hidden", "thr", "per-sentence ms", "batched ms", "batched tok/s", "speedup", "diverged"],
        &sweep
            .iter()
            .map(|r| {
                vec![
                    r.hidden.to_string(),
                    r.threads.to_string(),
                    format!("{:.1}", r.per_sentence_ms),
                    format!("{:.1}", r.batched_ms),
                    format!("{:.0}", r.batched_tokens_per_s),
                    format!("{:.2}", r.batched_speedup),
                    r.loss_curve_divergences.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "per-epoch detail, hidden=128, 1 thread",
        &["epoch", "trainer", "wall ms", "tok/s", "loss"],
        &epochs_detail
            .iter()
            .map(|e| {
                vec![
                    e.epoch.to_string(),
                    e.trainer.clone(),
                    e.wall_ms.to_string(),
                    format!("{:.0}", e.tokens_per_s),
                    format!("{:.6}", e.train_loss),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let meets = speedup_128_1thr >= 1.5;
    let analysis = if meets {
        format!(
            "batched epoch throughput beat the per-sentence oracle {speedup_128_1thr:.2}x at \
             hidden=128, 1 thread, with bit-identical loss curves"
        )
    } else {
        format!(
            "batched epoch throughput reached {speedup_128_1thr:.2}x (< 1.5x target) at \
             hidden=128, 1 thread on this host ({}); the packed win is bounded by the GEMM \
             share of the step — backward's scatter and the per-row CRF/decoder losses run \
             at per-sentence cost regardless of packing, and smoke-scale corpora keep \
             buckets short. Loss curves stayed bit-identical, so the speedup is free of \
             accuracy cost wherever the host realizes it.",
            ner_tensor::simd::descriptor()
        )
    };
    println!("\nbatched vs per-sentence @ hidden=128, 1 thread: {speedup_128_1thr:.2}x");
    println!("{analysis}");

    let report = Report {
        experiment: "exp_train".into(),
        description: "Training throughput of the batched packed-autograd trainer vs the \
                      per-sentence oracle under the same bucketed schedule; loss curves must \
                      be bit-identical, wall clock is the variable"
            .into(),
        seed: SEED,
        smoke,
        requested_threads,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel_backend: ner_tensor::simd::descriptor(),
        batch: BATCH,
        batched_speedup_hidden128_1thr: speedup_128_1thr,
        meets_1_5x_target_at_hidden128: meets,
        analysis,
        sweep,
        epochs_hidden128_1thr: epochs_detail,
        loss_curve_divergences: divergences,
    };
    let path = write_report("exp_train", &report);
    let bench_json = serde_json::to_string_pretty(&report).expect("serialize BENCH report");
    std::fs::write("BENCH_train.json", bench_json).expect("write BENCH_train.json");
    println!("report: {} (+ BENCH_train.json)", path.display());

    if divergences > 0 {
        eprintln!(
            "{divergences} loss-curve divergence(s); the batched trainer must reproduce the \
             per-sentence oracle bit for bit under the shared schedule"
        );
        std::process::exit(1);
    }
}
