//! Serving-path latency: autograd tape vs compiled `ForwardPlan` vs
//! plan + token-feature cache.
//!
//! Measures single-sentence `annotate` latency (p50/p90 at 1 thread) and
//! batch throughput at thread counts 1/2/4 on the global `ner-par` pool,
//! for three variants of the same model:
//!
//! * **tape** — the original autograd-tape forward ([`NerPipeline::annotate_tape`]);
//! * **plan** — the tape-free batched backend scoring one sentence (a batch
//!   of one) with the token cache disabled;
//! * **plan+cache** — the same with the LRU token-feature cache, measured
//!   both cold (first pass after compilation) and warm (steady state).
//!
//! Batch throughput compares scoring sentences one at a time (fanned over
//! the pool) against the **batched** backend — `annotate_batch` packs each
//! length-sorted bucket into one padded `[B,T]` forward — and reports the
//! per-row `batch_compute_efficiency` (per-sentence wall time over batched
//! wall time at the same thread count).
//!
//! The plan and the batched backend are *verified*, not trusted: before
//! any timing, every sentence is decoded through the tape, alone as a batch
//! of one, and in packed buckets, and the predicted tag sequences must be identical
//! — any divergence makes the harness exit non-zero (CI runs this via
//! `--smoke` at `NER_THREADS=1` and `4`).
//!
//! Results land in `results/exp_inference.json` (with a run manifest)
//! and, for the repo-level benchmark snapshot, `BENCH_inference.json`.

use ner_bench::{init_harness, print_table, write_report, Scale};
use ner_core::config::NerConfig;
use ner_core::model::NerModel;
use ner_core::prelude::NerPipeline;
use ner_core::repr::SentenceEncoder;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_text::Sentence;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 29;

/// Token-cache capacity for the cached variants (the pipeline default).
const CACHE_CAPACITY: usize = 4096;

/// Single-sentence latency percentiles for one variant, at 1 thread.
#[derive(Serialize)]
struct LatencyRow {
    variant: String,
    sentences: usize,
    p50_us: f64,
    p90_us: f64,
    mean_us: f64,
}

/// Batch throughput for one variant at one thread count.
#[derive(Serialize)]
struct ThroughputRow {
    variant: String,
    threads: usize,
    sentences: usize,
    tokens: usize,
    best_ms: f64,
    tokens_per_sec: f64,
    speedup_vs_tape_1thr: f64,
    /// Per-row efficiency of this variant against scoring each sentence
    /// individually at the same thread count: per-sentence wall time over
    /// this variant's wall time. 1.0 for the per-sentence baseline itself;
    /// >1 means batching made each row cheaper.
    batch_compute_efficiency: f64,
}

/// Batched-vs-per-sentence wall time across LSTM hidden sizes, 1 thread.
///
/// The batched backend's win is bounded by how much of a sentence's cost
/// is GEMM: gate activations and decode are per-row at any batch width.
/// Sweeping `hidden` moves the GEMM share, so this row set shows where
/// cross-sentence batching pays on the measured host.
#[derive(Serialize)]
struct HiddenSweepRow {
    hidden: usize,
    per_sentence_ms: f64,
    batched_ms: f64,
    /// per_sentence_ms / batched_ms; >1 means the `[B,T]` forward beat
    /// scoring the same sentences one at a time.
    batched_speedup: f64,
}

/// Warm-cache token-feature statistics over the timed passes.
#[derive(Serialize)]
struct CacheReport {
    hits: u64,
    misses: u64,
    hit_rate: f64,
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
    /// Warm plan+cache p50 over tape p50 at 1 thread (>1 means the plan
    /// wins) — the headline number of this experiment.
    p50_speedup_plan_cache_vs_tape: f64,
    /// Whole-batch wall time scoring one sentence at a time over the
    /// batched `[B,T]` backend, at 1 thread — the offline batched-
    /// throughput headline (compute buckets cap at
    /// `plan::DEFAULT_COMPUTE_BATCH` = 8 sentences).
    batched_speedup_vs_per_sentence_1thr: f64,
    latency: Vec<LatencyRow>,
    throughput: Vec<ThroughputRow>,
    /// Batched-vs-per-sentence ratio as the LSTM grows: the GEMM share
    /// of a sentence rises with `hidden`, and with it the batched win.
    batched_hidden_sweep: Vec<HiddenSweepRow>,
    token_cache: CacheReport,
    divergence_failures: usize,
}

/// Per-sentence best-of-`rounds` latencies, in microseconds.
///
/// `reset` runs before each round (used to re-chill the token cache for
/// the cold variant); keeping the per-sentence minimum across rounds
/// filters scheduler noise without mixing cold and warm states, because
/// every round starts from the same state.
fn time_per_sentence(
    sentences: &[Sentence],
    rounds: usize,
    mut reset: impl FnMut(),
    mut f: impl FnMut(&Sentence),
) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; sentences.len()];
    for _ in 0..rounds {
        reset();
        for (i, s) in sentences.iter().enumerate() {
            let t = Instant::now();
            f(s);
            best[i] = best[i].min(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    best
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn latency_row(variant: &str, mut us: Vec<f64>) -> LatencyRow {
    us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    LatencyRow {
        variant: variant.to_string(),
        sentences: us.len(),
        p50_us: quantile(&us, 0.5),
        p90_us: quantile(&us, 0.9),
        mean_us: us.iter().sum::<f64>() / us.len() as f64,
    }
}

/// Best-of-`rounds` wall time for annotating the whole batch.
fn time_batch(rounds: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::Quick } else { Scale::from_args() };
    init_harness("exp_inference", SEED, scale);
    let requested_threads = ner_par::default_threads();

    // An untrained default-config model is the right latency subject: the
    // forward pass does identical work at any weight values, and skipping
    // training keeps the harness fast enough for CI.
    let mut rng = StdRng::seed_from_u64(SEED);
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let corpus = gen.dataset(&mut rng, scale.size(400));
    let cfg = NerConfig::default();
    let encoder = SentenceEncoder::from_dataset(&corpus, cfg.scheme, 1);
    let model = NerModel::new(cfg, &encoder, None, &mut rng);
    let sentences: Vec<Sentence> = corpus.sentences.clone();
    let tokens: usize = sentences.iter().map(|s| s.len()).sum();
    let rounds = match scale {
        Scale::Full => 5,
        Scale::Quick => 2,
    };

    let mut pipeline = NerPipeline::new(encoder, model).with_token_cache_capacity(CACHE_CAPACITY);

    // -- correctness gate: a batch of one must reproduce the tape, and the
    // packed buckets must reproduce the batch of one, exactly ------------
    ner_par::set_global_threads(1);
    let mut failures = 0usize;
    let mut planned_all = Vec::with_capacity(sentences.len());
    for (i, s) in sentences.iter().enumerate() {
        let planned = pipeline.annotate(s);
        let tape = pipeline.annotate_tape(s);
        if planned.entities != tape.entities {
            failures += 1;
            if failures <= 5 {
                eprintln!("plan/tape divergence on sentence {i}: {:?}", s.tokens);
            }
        }
        planned_all.push(planned);
    }
    // Batched pass twice: once against the cache the gate loop warmed,
    // once cold after a plan refresh.
    for pass in ["warm", "cold"] {
        if pass == "cold" {
            pipeline.refresh_plan();
        }
        for (i, (b, p)) in pipeline.annotate_batch(&sentences).iter().zip(&planned_all).enumerate()
        {
            if b.entities != p.entities {
                failures += 1;
                if failures <= 5 {
                    eprintln!("batched ({pass}) divergence on sentence {i}: {:?}", p.tokens);
                }
            }
        }
    }
    println!("verified {} sentences x 3 paths: {} divergence(s)", sentences.len(), failures);

    // -- single-sentence latency at 1 thread -----------------------------
    let tape_us = time_per_sentence(&sentences, rounds, || {}, |s| drop(pipeline.annotate_tape(s)));

    pipeline = pipeline.with_token_cache_capacity(0);
    let plan_us = time_per_sentence(&sentences, rounds, || {}, |s| drop(pipeline.annotate(s)));

    // Cold: `refresh_plan` before every round empties the token cache, so
    // each pass starts from compilation state; warm: one untimed priming
    // pass, then steady state.
    pipeline = pipeline.with_token_cache_capacity(CACHE_CAPACITY);
    let mut cold_us = vec![f64::INFINITY; sentences.len()];
    for _ in 0..rounds {
        pipeline.refresh_plan();
        for (i, s) in sentences.iter().enumerate() {
            let t = Instant::now();
            drop(pipeline.annotate(s));
            cold_us[i] = cold_us[i].min(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    for s in &sentences {
        drop(pipeline.annotate(s)); // prime
    }
    let hits0 = ner_obs::counter_value("infer.cache.hits").unwrap_or(0.0);
    let misses0 = ner_obs::counter_value("infer.cache.misses").unwrap_or(0.0);
    let warm_us = time_per_sentence(&sentences, rounds, || {}, |s| drop(pipeline.annotate(s)));
    let hits = (ner_obs::counter_value("infer.cache.hits").unwrap_or(0.0) - hits0) as u64;
    let misses = (ner_obs::counter_value("infer.cache.misses").unwrap_or(0.0) - misses0) as u64;
    let token_cache =
        CacheReport { hits, misses, hit_rate: hits as f64 / ((hits + misses).max(1)) as f64 };

    let latency = vec![
        latency_row("tape", tape_us),
        latency_row("plan", plan_us),
        latency_row("plan+cache(cold)", cold_us),
        latency_row("plan+cache(warm)", warm_us),
    ];
    let p50_speedup = latency[0].p50_us / latency[3].p50_us;

    // -- batch throughput at 1/2/4 threads -------------------------------
    // Three ways to score the same corpus: the tape, batches of one
    // fanned over the pool, and the batched [B,T] backend
    // (length-sorted buckets of up to `plan::DEFAULT_COMPUTE_BATCH` = 8
    // sentences, one packed forward each).
    let mut throughput = Vec::new();
    let mut tape_1thr_ms = f64::NAN;
    let mut batched_speedup_1thr = f64::NAN;
    for &t in &[1usize, 2, 4] {
        ner_par::set_global_threads(t);
        let pool = ner_par::global();
        let tape_ms = time_batch(rounds, || {
            drop(pool.map(sentences.len(), |i| pipeline.annotate_tape(&sentences[i])));
        });
        if t == 1 {
            tape_1thr_ms = tape_ms;
        }
        let per_sentence_ms = time_batch(rounds, || {
            drop(pool.map(sentences.len(), |i| pipeline.annotate(&sentences[i])));
        });
        let batched_ms = time_batch(rounds, || {
            drop(pipeline.annotate_batch(&sentences));
        });
        if t == 1 {
            batched_speedup_1thr = per_sentence_ms / batched_ms;
        }
        for (variant, ms) in
            [("tape", tape_ms), ("per-sentence", per_sentence_ms), ("batched", batched_ms)]
        {
            throughput.push(ThroughputRow {
                variant: variant.to_string(),
                threads: t,
                sentences: sentences.len(),
                tokens,
                best_ms: ms,
                tokens_per_sec: tokens as f64 / (ms / 1e3),
                speedup_vs_tape_1thr: tape_1thr_ms / ms,
                batch_compute_efficiency: per_sentence_ms / ms,
            });
        }
    }
    ner_par::set_global_threads(1);

    // -- batched win vs hidden size, 1 thread ----------------------------
    // A pure BiLSTM+CRF stack (no char channel) isolates the recurrent
    // GEMMs the batched backend amortizes; parity is asserted per size.
    let mut batched_hidden_sweep = Vec::new();
    for &hidden in &[48usize, 128, 256] {
        let cfg = NerConfig {
            word: ner_core::config::WordRepr::Random { dim: 64 },
            char_repr: ner_core::config::CharRepr::None,
            encoder: ner_core::config::EncoderKind::Lstm { hidden, bidirectional: true, layers: 1 },
            ..NerConfig::default()
        };
        let enc = SentenceEncoder::from_dataset(&corpus, cfg.scheme, 1);
        let model = NerModel::new(cfg, &enc, None, &mut rng);
        let swept = NerPipeline::new(enc, model);
        let batched = swept.annotate_batch(&sentences); // warm + parity input
        for (i, (b, s)) in batched.iter().zip(&sentences).enumerate() {
            if b.entities != swept.annotate(s).entities {
                failures += 1;
                if failures <= 5 {
                    eprintln!("hidden={hidden} batched divergence on sentence {i}");
                }
            }
        }
        let per_sentence_ms = time_batch(rounds, || {
            for s in &sentences {
                drop(swept.annotate(s));
            }
        });
        let batched_ms = time_batch(rounds, || drop(swept.annotate_batch(&sentences)));
        batched_hidden_sweep.push(HiddenSweepRow {
            hidden,
            per_sentence_ms,
            batched_ms,
            batched_speedup: per_sentence_ms / batched_ms,
        });
    }

    print_table(
        "single-sentence latency, 1 thread",
        &["variant", "sent", "p50 µs", "p90 µs", "mean µs"],
        &latency
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    r.sentences.to_string(),
                    format!("{:.1}", r.p50_us),
                    format!("{:.1}", r.p90_us),
                    format!("{:.1}", r.mean_us),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "batch throughput",
        &["variant", "thr", "sent", "tokens", "ms", "tok/s", "×tape@1", "eff/row"],
        &throughput
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    r.threads.to_string(),
                    r.sentences.to_string(),
                    r.tokens.to_string(),
                    format!("{:.1}", r.best_ms),
                    format!("{:.0}", r.tokens_per_sec),
                    format!("{:.2}", r.speedup_vs_tape_1thr),
                    format!("{:.2}", r.batch_compute_efficiency),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "batched [B,T] vs per-sentence across LSTM hidden sizes, 1 thread",
        &["hidden", "per-sentence ms", "batched ms", "batched ×"],
        &batched_hidden_sweep
            .iter()
            .map(|r| {
                vec![
                    r.hidden.to_string(),
                    format!("{:.1}", r.per_sentence_ms),
                    format!("{:.1}", r.batched_ms),
                    format!("{:.2}", r.batched_speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\ntoken cache (warm): {} hits / {} misses ({:.1}% hit rate)",
        token_cache.hits,
        token_cache.misses,
        100.0 * token_cache.hit_rate
    );
    println!("p50 speedup, plan+cache(warm) vs tape @1 thread: {p50_speedup:.2}×");
    println!("batched [B,T] vs batches of one @1 thread: {batched_speedup_1thr:.2}×");

    let report = Report {
        experiment: "exp_inference".into(),
        description: "Single-sentence latency and batch throughput: autograd tape vs compiled ForwardPlan vs plan + token-feature cache vs the batched [B,T] backend; every path must reproduce the tape's tags exactly".into(),
        seed: SEED,
        smoke,
        requested_threads,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        p50_speedup_plan_cache_vs_tape: p50_speedup,
        batched_speedup_vs_per_sentence_1thr: batched_speedup_1thr,
        latency,
        throughput,
        batched_hidden_sweep,
        token_cache,
        divergence_failures: failures,
    };
    let path = write_report("exp_inference", &report);
    let bench_json = serde_json::to_string_pretty(&report).expect("serialize BENCH report");
    std::fs::write("BENCH_inference.json", bench_json).expect("write BENCH_inference.json");
    println!("report: {} (+ BENCH_inference.json)", path.display());

    if failures > 0 {
        eprintln!(
            "{failures} divergence failure(s); plan and batched paths must reproduce the tape exactly"
        );
        std::process::exit(1);
    }
}
