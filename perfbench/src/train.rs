//! The training workload: `ner_core::trainer::train` called in-process on
//! a generated news corpus, repeated from the same initial weights until
//! the run length is used up.

use crate::inputs::default_config;
use crate::procfs;
use crate::stats::{self, ratio};
use crate::trace::Tracer;
use crate::{Ctx, Metric, Outcome};
use ner_core::prelude::*;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::time::Instant;

/// `NER_THREADS` of the training process.
pub const TRAIN_THREADS: usize = 2;
/// Busy threads: the calling thread plus `TRAIN_THREADS - 1` pool workers.
pub const TRAIN_BUSY_THREADS: usize = TRAIN_THREADS;
/// Sentences per packed bucket of the batched trainer.
const BATCH: usize = 8;
/// Training and dev corpus sizes.
const TRAIN_SENTENCES: usize = 400;
const DEV_SENTENCES: usize = 400;
/// Epochs per training round; every round restarts from the same weights.
const EPOCHS: usize = 3;

/// What a training round must reproduce bit for bit in every repeat.
#[derive(PartialEq)]
struct Fingerprint {
    losses: Vec<u64>,
    dev_f1: Option<u64>,
}

/// Runs the training workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    ner_par::set_global_threads(TRAIN_THREADS);
    let root = tracer.open("train", None);
    let gen = tracer.open("generate_inputs", root);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let news = NewsGenerator::new(GeneratorConfig::default());
    let train_ds = news.dataset(&mut rng, TRAIN_SENTENCES);
    let dev_ds = news.dataset(&mut rng, DEV_SENTENCES);
    tracer.close(gen);

    let cfg = default_config();
    // Every round sets up afresh — encoder, encoded corpora, initial
    // weights — so set-up is timed as often as training, spread over the
    // whole run; `setup_s` is the median.
    let (mut setups, mut encode_ms) = (Vec::new(), Vec::new());
    let mut set_up = |tracer: &mut Tracer, parent| {
        let span = tracer.open("setup", parent);
        let t = Instant::now();
        let encoder =
            SentenceEncoder::from_dataset(&train_ds, cfg.scheme, 1).with_features(cfg.use_features);
        let train_enc = encoder.encode_dataset(&train_ds, None);
        let dev_enc = encoder.encode_dataset(&dev_ds, None);
        encode_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let model =
            NerModel::new(cfg.clone(), &encoder, None, &mut StdRng::seed_from_u64(ctx.seed));
        setups.push(t.elapsed().as_secs_f64());
        tracer.close(span);
        (train_enc, dev_enc, model)
    };

    let tc = TrainConfig { epochs: EPOCHS, batch: BATCH, patience: None, ..TrainConfig::default() };
    let pool0 = (counter("pool.hits"), counter("pool.misses"));
    let (mut wall, mut cpu_s, mut par_s) = (0.0, 0.0, 0.0);
    // Per round: host steal share, seconds, CPU seconds.
    let mut per_round: Vec<(f64, f64, f64)> = Vec::new();
    let (mut rounds, mut attempted, mut failed) = (0usize, 0u64, 0u64);
    let mut epoch_tokens: usize;
    let mut reference: Option<(Fingerprint, Option<f64>)> = None;
    let mut epochs = Vec::new();
    // After every round one pass over the dev set is timed a sentence at
    // a time: the per-sentence latency of the trainer's dev evaluation, on
    // one thread. Each pass is a window: (host steal share, latencies).
    let mut passes: Vec<(f64, Vec<f64>)> = Vec::new();
    let phase = tracer.open("measured_phase", root);
    let t_phase = Instant::now();
    let steal0 = host_steal()?;
    let (model, dev_enc) = loop {
        let (train_enc, dev_enc, mut model) = set_up(tracer, phase);
        epoch_tokens = train_enc.iter().map(|s| s.len()).sum();
        let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x7452_4149_4E00);
        let span = tracer.open("train_round", phase);
        let cpu0 = procfs::snapshot(std::process::id()).map_err(|e| format!("/proc: {e}"))?;
        let round_steal0 = host_steal()?;
        let t = Instant::now();
        let report =
            ner_core::trainer::train(&mut model, &train_enc, Some(&dev_enc), &tc, &mut rng);
        let round_s = t.elapsed().as_secs_f64();
        wall += round_s;
        let round_steal = procfs::steal_share(round_steal0, host_steal()?);
        let cpu1 = procfs::snapshot(std::process::id()).map_err(|e| format!("/proc: {e}"))?;
        let cpu = procfs::delta(&cpu0, &cpu1);
        cpu_s += cpu.process_s;
        per_round.push((round_steal, round_s, cpu.process_s));
        par_s += cpu.by_prefix("ner-par");
        tracer.field(span, "cpu_s", cpu.process_s);
        tracer.field(span, "par_cpu_s", cpu.by_prefix("ner-par"));
        tracer.close(span);
        rounds += 1;

        let print = Fingerprint {
            losses: report.epochs.iter().map(|e| e.train_loss.to_bits()).collect(),
            dev_f1: report.best_dev_f1.map(f64::to_bits),
        };
        let bad_epochs = report
            .epochs
            .iter()
            .filter(|e| e.skipped_updates > 0 || !e.train_loss.is_finite())
            .count() as u64;
        attempted += report.epochs.len() as u64;
        match &reference {
            None => {
                failed += bad_epochs;
                reference = Some((print, report.best_dev_f1));
            }
            // A repeat from the same weights, data and seed must retrace
            // the first round exactly.
            Some((first, _)) if *first != print => failed += report.epochs.len() as u64,
            Some(_) => failed += bad_epochs,
        }
        epochs.extend(report.epochs);

        let span = tracer.open("dev_latency_pass", phase);
        let pass_steal0 = host_steal()?;
        let pass: Vec<f64> = dev_enc
            .iter()
            .map(|s| {
                let t = Instant::now();
                std::hint::black_box(model.predict_spans(s));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        passes.push((procfs::steal_share(pass_steal0, host_steal()?), pass));
        tracer.close(span);
        if t_phase.elapsed().as_secs_f64() >= ctx.seconds as f64 {
            break (model, dev_enc);
        }
    };
    tracer.close(phase);
    let steal = procfs::steal_share(steal0, host_steal()?);
    let pool = (counter("pool.hits") - pool0.0, counter("pool.misses") - pool0.1);
    let (_, dev_f1) = reference.expect("at least one round");
    let f1 = dev_f1.unwrap_or(0.0);
    let rss_mb = procfs::vm_hwm_mb(std::process::id()).map_err(|e| format!("/proc: {e}"))?;

    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.1.iter().copied()).collect();
    let lat = stats::summarize(&latencies);
    let quiet_passes = stats::quiet_half(&passes.iter().map(|p| p.0).collect::<Vec<_>>());
    let quiet_lat: Vec<f64> =
        quiet_passes.iter().flat_map(|&k| passes[k].1.iter().copied()).collect();
    let span = tracer.open("dev_eval", root);
    let t = Instant::now();
    std::hint::black_box(evaluate_model(&model, &dev_enc));
    let dev_eval_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.close(span);
    tracer.close(root);

    let tokens = (rounds * EPOCHS * epoch_tokens) as f64;
    let quiet_rounds = stats::quiet_half(&per_round.iter().map(|r| r.0).collect::<Vec<_>>());
    let quiet_ktok = (quiet_rounds.len() * EPOCHS * epoch_tokens) as f64 / 1e3;
    let quiet_s: f64 = quiet_rounds.iter().map(|&k| per_round[k].1).sum();
    let quiet_cpu_s: f64 = quiet_rounds.iter().map(|&k| per_round[k].2).sum();
    let epoch_ms: Vec<f64> = epochs.iter().map(|e| e.wall_ms as f64).collect();
    let mut problems = Vec::new();
    if failed > 0 {
        problems.push(format!(
            "{failed} of {attempted} epochs skipped updates or diverged from the first round"
        ));
    }
    if f1 <= 0.0 {
        problems.push("dev F1 is zero: the model learned nothing".into());
    }
    Ok(Outcome {
        attempted,
        failed,
        problems,
        e2e: vec![
            Metric::new("setup_s", stats::median(&setups), "s"),
            Metric::new("cpu_ms_per_ktok", ratio(quiet_cpu_s * 1e3, quiet_ktok), "ms/ktok"),
            Metric::new("f1", f1, "ratio"),
            Metric::new("peak_rss_mb", rss_mb, "MiB"),
        ],
        layers: vec![
            Metric::new("trainer.epoch_ms_p50", stats::median(&epoch_ms), "ms"),
            Metric::new(
                "trainer.peak_tape_nodes",
                epochs.iter().map(|e| e.peak_tape_nodes).max().unwrap_or(0) as f64,
                "count",
            ),
            Metric::new(
                "trainer.skipped_updates",
                epochs.iter().map(|e| e.skipped_updates).sum::<usize>() as f64,
                "count",
            ),
            Metric::new("trainer.dev_eval_ms", dev_eval_ms, "ms"),
            Metric::new("par.worker_cpu_share", ratio(par_s, cpu_s), "ratio"),
            Metric::new("repr.encode_dataset_ms", stats::median(&encode_ms), "ms"),
            Metric::new("tensor.pool_hit_ratio", ratio(pool.0, pool.0 + pool.1), "ratio"),
            Metric::new("throughput.tokens_per_s", ratio(quiet_ktok * 1e3, quiet_s), "tok/s"),
            Metric::new("latency.p50_ms", stats::summarize(&quiet_lat).p50, "ms"),
            Metric::new("latency.p99_ms", lat.p99, "ms"),
            Metric::new("latency.samples", lat.count as f64, "count"),
        ],
        details: vec![
            ("rounds".to_string(), Value::Num(rounds as f64)),
            ("host_steal_share".to_string(), Value::Num(steal)),
            ("epochs_per_round".to_string(), Value::Num(EPOCHS as f64)),
            ("tokens_per_epoch".to_string(), Value::Num(epoch_tokens as f64)),
            ("measured_wall_s".to_string(), Value::Num(wall)),
            ("whole_phase_tokens_per_s".to_string(), Value::Num(ratio(tokens, wall))),
            (
                "whole_phase_cpu_ms_per_ktok".to_string(),
                Value::Num(ratio(cpu_s * 1e3, tokens / 1e3)),
            ),
            ("whole_phase_latency_p50_ms".to_string(), Value::Num(lat.p50)),
            ("whole_phase_latency_p99_ms".to_string(), Value::Num(lat.p99)),
            (
                "round_steal_share".to_string(),
                Value::Array(per_round.iter().map(|r| Value::Num(r.0)).collect()),
            ),
            (
                "round_s".to_string(),
                Value::Array(per_round.iter().map(|r| Value::Num(r.1)).collect()),
            ),
            ("quiet_rounds".to_string(), Value::Num(quiet_rounds.len() as f64)),
            ("quiet_latency_samples".to_string(), Value::Num(quiet_lat.len() as f64)),
            ("latency".to_string(), Value::Str("per-sentence dev prediction, one thread".into())),
            ("latency_samples".to_string(), Value::Num(lat.count as f64)),
            ("latency_samples_beyond_p99".to_string(), Value::Num(lat.beyond_p99 as f64)),
            (
                "setup_s_each".to_string(),
                Value::Array(setups.iter().map(|&s| Value::Num(s)).collect()),
            ),
        ],
    })
}

fn host_steal() -> Result<(u64, u64), String> {
    procfs::host_steal().map_err(|e| format!("/proc/stat: {e}"))
}

fn counter(name: &str) -> f64 {
    ner_obs::counter_value(name).unwrap_or(0.0)
}
