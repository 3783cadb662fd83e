//! # ner-bench — experiment harnesses for `neural-ner`
//!
//! One binary per table/figure of the survey (see DESIGN.md §3 for the
//! index and EXPERIMENTS.md for paper-vs-measured results). This library
//! holds the shared experimental setup so every harness runs on identical
//! data splits, plus the table, report and timing helpers.

#![warn(missing_docs)]

use ner_core::prelude::*;
use ner_corpus::noise::{corrupt_dataset, NoiseModel};
use ner_corpus::{GeneratorConfig, NewsGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Run identity registered by [`init_harness`], consumed by [`write_report`]
/// to stamp the run manifest.
struct RunInfo {
    name: String,
    seed: u64,
    scale: Scale,
}

static RUN: Mutex<Option<RunInfo>> = Mutex::new(None);

/// Standard harness prologue: installs the observability layer from the
/// process arguments and environment (`--log-json <path>`, `--verbosity
/// <level>`, `NER_LOG_JSON`, `NER_VERBOSITY`) and records the run identity
/// so [`write_report`] can emit a manifest alongside the results.
pub fn init_harness(name: &str, seed: u64, scale: Scale) {
    ner_obs::init_from_process_args();
    *RUN.lock().expect("run info lock") = Some(RunInfo { name: name.to_string(), seed, scale });
    ner_obs::info(format!("harness {name}: seed={seed} scale={scale:?}"));
}

/// The standard experimental split shared by all harnesses.
pub struct ExperimentData {
    /// Clean news training set.
    pub train: Dataset,
    /// Clean news dev set.
    pub dev: Dataset,
    /// Clean in-distribution test set.
    pub test: Dataset,
    /// Test set with 40% held-out (unseen) entity surfaces — the harder
    /// evaluation that differentiates architectures (paper §5.1).
    pub test_unseen: Dataset,
    /// The unseen-entity test set passed through the W-NUT noise channel.
    pub test_noisy: Dataset,
}

/// Sizing knob: `full` is the default for harness binaries; `quick` keeps
/// CI/test runs fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Full experiment scale.
    Full,
    /// Reduced scale for smoke tests (`--quick`).
    Quick,
}

impl Scale {
    /// Reads `--quick` from the process arguments.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Scales a size down in quick mode.
    pub fn size(&self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 4).max(10),
        }
    }

    /// Scales an epoch count down in quick mode.
    pub fn epochs(&self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 2).max(2),
        }
    }
}

/// Builds the standard split deterministically from a seed.
pub fn standard_data(seed: u64, scale: Scale) -> ExperimentData {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let unseen = NewsGenerator::new(GeneratorConfig {
        unseen_entity_rate: 0.4,
        ..GeneratorConfig::default()
    });
    let train = gen.dataset(&mut rng, scale.size(240));
    let dev = gen.dataset(&mut rng, scale.size(80));
    let test = gen.dataset(&mut rng, scale.size(150));
    let test_unseen = unseen.dataset(&mut rng, scale.size(150));
    let test_noisy = corrupt_dataset(&test_unseen, &NoiseModel::social_media(), &mut rng);
    ExperimentData { train, dev, test, test_unseen, test_noisy }
}

/// The default training configuration for harnesses.
pub fn harness_train_config(scale: Scale) -> TrainConfig {
    TrainConfig { epochs: scale.epochs(10), patience: None, ..TrainConfig::default() }
}

/// Trains `cfg` on `train` and returns the model plus its encoder.
pub fn train_model(
    cfg: NerConfig,
    train: &Dataset,
    tc: &TrainConfig,
    seed: u64,
) -> (SentenceEncoder, NerModel) {
    let mut rng = StdRng::seed_from_u64(seed);
    let encoder = SentenceEncoder::from_dataset(train, cfg.scheme, 1);
    let mut model = NerModel::new(cfg, &encoder, None, &mut rng);
    let encoded = encoder.encode_dataset(train, None);
    ner_core::trainer::train(&mut model, &encoded, None, tc, &mut rng);
    (encoder, model)
}

/// Evaluates a trained model on a dataset via its encoder.
pub fn eval_on(encoder: &SentenceEncoder, model: &NerModel, ds: &Dataset) -> EvalResult {
    let encoded = encoder.encode_dataset(ds, None);
    evaluate_model(model, &encoded)
}

/// Renders an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        let mut parts = Vec::new();
        for (w, c) in widths.iter().zip(cells) {
            parts.push(format!("{c:<w$}"));
        }
        writeln!(out, "| {} |", parts.join(" | ")).expect("write to String");
    };
    line(&mut out, &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>());
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&mut out, &sep);
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Prints a table with a title banner.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    print!("{}", render_table(headers, rows));
}

/// Best-of-`reps` wall time of `f`, in microseconds per call. Each rep
/// times `inner` back-to-back calls, so calls shorter than the clock's
/// resolution still time; the minimum filters scheduler noise.
pub fn best_us(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e6 / inner as f64);
    }
    best
}

/// Formats a fraction as a percent with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Writes a JSON report next to the experiment outputs
/// (`results/<name>.json`, creating the directory on demand) and prints its
/// path. A run [`init_harness`] recorded as [`Scale::Quick`] writes no
/// file: its numbers are smoke-test numbers, not results.
///
/// When the harness went through [`init_harness`], a run manifest (seed,
/// config signature, wall clock, peak tape nodes, flattened final metrics)
/// is written to `results/<name>.manifest.json` (full runs only), emitted
/// to any installed sinks, and the observability layer is drained via
/// [`ner_obs::finish`].
pub fn write_report<T: Serialize>(name: &str, value: &T) {
    let quick =
        RUN.lock().expect("run info lock").as_ref().is_some_and(|r| r.scale == Scale::Quick);
    let manifest = build_manifest(name, value);
    if quick {
        println!("report: not written (--quick run)");
    } else {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir).expect("create results dir");
        let path = dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(value).expect("serialize report");
        std::fs::write(&path, json).expect("write report");
        if let Some(manifest) = &manifest {
            let mjson = serde_json::to_string_pretty(manifest).expect("serialize manifest");
            std::fs::write(dir.join(format!("{name}.manifest.json")), mjson)
                .expect("write manifest");
        }
        println!("report: {}", path.display());
    }
    if let Some(manifest) = manifest {
        ner_obs::emit_manifest(&manifest);
        ner_obs::finish();
    }
}

/// Builds the run manifest for a report, or `None` when [`init_harness`]
/// was never called (library tests, ad-hoc binaries).
fn build_manifest<T: Serialize>(name: &str, value: &T) -> Option<ner_obs::RunManifest> {
    let run = RUN.lock().expect("run info lock");
    let run = run.as_ref()?;
    let mut final_metrics = Vec::new();
    numeric_leaves("", &value.serialize(), &mut final_metrics);
    Some(ner_obs::RunManifest {
        name: name.to_string(),
        version: env!("CARGO_PKG_VERSION").to_string(),
        seed: run.seed,
        config_signature: format!("{}:seed={}:{:?}", run.name, run.seed, run.scale),
        wall_clock_secs: ner_obs::elapsed_secs(),
        peak_tape_nodes: ner_obs::gauge_value("tape.peak_nodes").unwrap_or(0.0) as u64,
        kernel_backend: ner_tensor::simd::descriptor(),
        final_metrics,
    })
}

/// Collects every numeric leaf of a serialized report as a dotted-path
/// metric, so manifests stay comparable across heterogeneous report shapes.
fn numeric_leaves(prefix: &str, v: &serde::Value, out: &mut Vec<(String, f64)>) {
    match v {
        serde::Value::Num(n) => out.push((prefix.to_string(), *n)),
        serde::Value::Object(fields) => {
            for (k, val) in fields {
                let p = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                numeric_leaves(&p, val, out);
            }
        }
        serde::Value::Array(items) => {
            for (i, val) in items.iter().enumerate() {
                numeric_leaves(&format!("{prefix}[{i}]"), val, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_data_is_deterministic_and_disjointly_noisy() {
        let a = standard_data(7, Scale::Quick);
        let b = standard_data(7, Scale::Quick);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test_noisy, b.test_noisy);
        assert_ne!(a.test_unseen, a.test_noisy, "noise channel must change text");
    }

    #[test]
    fn scale_reduces_sizes() {
        assert_eq!(Scale::Quick.size(240), 60);
        assert_eq!(Scale::Full.size(240), 240);
        assert!(Scale::Quick.epochs(10) < Scale::Full.epochs(10));
    }

    #[test]
    fn table_rendering_aligns() {
        let s = render_table(
            &["arch", "F1"],
            &[vec!["a".into(), "0.9".into()], vec!["longer-name".into(), "0.85".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "rows must align");
    }

    #[test]
    fn quick_end_to_end_through_helpers() {
        let data = standard_data(3, Scale::Quick);
        let tc = TrainConfig { epochs: 3, patience: None, ..Default::default() };
        let (enc, model) = train_model(NerConfig::default(), &data.train, &tc, 1);
        let clean = eval_on(&enc, &model, &data.test);
        let noisy = eval_on(&enc, &model, &data.test_noisy);
        assert!(
            clean.micro.f1 > noisy.micro.f1,
            "noise must hurt: {} vs {}",
            clean.micro.f1,
            noisy.micro.f1
        );
    }
}
