//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <serve-steady|serve-saturate|train> --seed N --seconds S --trace 0|1
//!           --server-bin PATH --out-dir DIR
//! ```
//!
//! `perfbench/run.sh` builds `neural-ner` and this program from the
//! checkout and supplies the last two flags. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! A fuller report, with the environment block, sample counts and, for
//! traced runs, the spans, is written under `DIR/reports/`. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod inputs;
mod procfs;
mod serve;
mod stats;
mod trace;
mod train;
mod verify;
mod wire;

use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// One measured number.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload measured and whether its outputs were right.
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed: wrong, malformed or missing output.
    pub failed: u64,
    /// Every correctness check that did not hold.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics this workload exercises.
    pub layers: Vec<Metric>,
    /// Sample counts and other context for the report.
    pub details: Vec<(String, Value)>,
}

/// Run parameters.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured phase, in seconds.
    pub seconds: u64,
    /// The `neural-ner` binary under test.
    pub server_bin: PathBuf,
    /// Checkpoint the serving workloads serve.
    pub ckpt: PathBuf,
}

/// Every per-layer metric: name, unit, and the end-to-end metric it
/// should move on which workload. A workload that does not exercise a
/// layer reports it as 0.
const PER_LAYER: [(&str, &str, &str); 31] = [
    ("server.poll_cpu_ms_per_ktok", "ms/ktok", "cpu_ms_per_ktok, latency.p50_ms on serve-steady"),
    ("server.accept_cpu_ms_per_ktok", "ms/ktok", "cpu_ms_per_ktok on serve-steady"),
    ("server.unattributed_us_mean", "us", "latency.p50_ms on serve-steady"),
    (
        "batcher.cpu_ms_per_ktok",
        "ms/ktok",
        "throughput.tokens_per_s, cpu_ms_per_ktok on serve-saturate",
    ),
    ("batcher.queue_wait_us_mean", "us", "latency.p50_ms on serve-saturate"),
    (
        "batcher.batch_size_mean",
        "count",
        "throughput.tokens_per_s, cpu_ms_per_ktok on serve-saturate",
    ),
    ("batcher.failed", "count", "failed share on both serving workloads"),
    (
        "plan.token_cache_hit_ratio",
        "ratio",
        "cpu_ms_per_ktok on serve-saturate (low), serve-steady (high)",
    ),
    ("repr.featurize_us_per_ktok", "us/ktok", "cpu_ms_per_ktok on both serving workloads"),
    ("model.embed_us_per_ktok", "us/ktok", "cpu_ms_per_ktok on both serving workloads"),
    ("model.encode_us_per_ktok", "us/ktok", "cpu_ms_per_ktok on both serving workloads"),
    ("model.decode_us_per_ktok", "us/ktok", "cpu_ms_per_ktok on both serving workloads"),
    ("tensor.pool_hit_ratio", "ratio", "cpu_ms_per_ktok on serve-saturate and train"),
    ("tokenize.us_per_ktok", "us/ktok", "cpu_ms_per_ktok on both serving workloads"),
    ("http.parse_us_per_req", "us", "latency.p50_ms, cpu_ms_per_ktok on serve-steady"),
    ("serde_json.body_us_per_req", "us", "cpu_ms_per_ktok on serve-saturate"),
    ("persist.load_ms", "ms", "setup_s on both serving workloads"),
    ("persist.restore_ms", "ms", "setup_s on both serving workloads"),
    ("trainer.epoch_ms_p50", "ms", "cpu_ms_per_ktok, throughput.tokens_per_s on train"),
    ("trainer.peak_tape_nodes", "count", "peak_rss_mb on train"),
    ("trainer.skipped_updates", "count", "f1 on train"),
    ("trainer.dev_eval_ms", "ms", "cpu_ms_per_ktok, throughput.tokens_per_s on train"),
    ("par.worker_cpu_share", "ratio", "cpu_ms_per_ktok, throughput.tokens_per_s on train"),
    ("repr.encode_dataset_ms", "ms", "setup_s on train"),
    ("generator.send_lateness_p50_ms", "ms", "latency.p50_ms (host, not server)"),
    ("generator.send_lateness_p99_ms", "ms", "latency.p99_ms (host, not server)"),
    ("throughput.tokens_per_s", "tok/s", "unbounded: follows the host's steal"),
    ("latency.p50_ms", "ms", "unbounded: follows the host's steal"),
    ("latency.p99_ms", "ms", "unbounded tail, whole phase"),
    ("latency.samples", "count", "sample count behind the latencies"),
    ("f1.excluded", "count", "requests left out of f1"),
];

/// The workloads.
const WORKLOADS: [&str; 3] = ["serve-steady", "serve-saturate", "train"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = raw.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        raw.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|_| format!("{flag} wants a whole number"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (want one of {WORKLOADS:?})"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        server_bin: PathBuf::from(get("--server-bin")?),
        out_dir: PathBuf::from(get("--out-dir")?),
    })
}

fn num(v: f64) -> Value {
    Value::Num(v)
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The environment block every report carries.
fn environment(args: &Args) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (threads, flags, busy) = if args.workload == "train" {
        let flags = format!("trainer batched, batch 8, NER_THREADS={}", train::TRAIN_THREADS);
        (train::TRAIN_THREADS, flags, train::TRAIN_BUSY_THREADS)
    } else {
        (serve::SERVE_THREADS, serve::SERVE_FLAGS.join(" "), serve::SERVE_BUSY_THREADS)
    };
    object(vec![
        ("simd", Value::Str(ner_tensor::simd::descriptor())),
        ("host_parallelism", num(nproc as f64)),
        ("ner_threads", num(threads as f64)),
        ("ner_simd_env", std::env::var("NER_SIMD").map_or(Value::Null, Value::Str)),
        ("flags", Value::Str(flags)),
        ("seed", num(args.seed as f64)),
        ("seconds", num(args.seconds as f64)),
        ("trace", Value::Bool(args.trace)),
        ("busy_threads", num(busy as f64)),
        ("oversubscribed", Value::Bool(busy > nproc)),
    ])
}

fn metric_map(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    object(vec![("value", num(m.value)), ("unit", Value::Str(m.unit.into()))]),
                )
            })
            .collect(),
    )
}

/// Every per-layer metric, zero where this workload has no such layer.
fn all_layers(measured: &[Metric]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = measured.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// The untraced report a traced run is compared with: written by this
/// build for the same workload and run length, of the same seed when there
/// is one, else the newest.
fn untraced_baseline(
    reports: &std::path::Path,
    workload: &str,
    seed: u64,
    seconds: u64,
) -> Option<(String, Value)> {
    let built =
        std::env::current_exe().and_then(std::fs::metadata).and_then(|m| m.modified()).ok()?;
    let prefix = format!("{workload}-seed");
    let mut candidates: Vec<(bool, std::time::SystemTime, String)> = std::fs::read_dir(reports)
        .ok()?
        .filter_map(|e| {
            let e = e.ok()?;
            let name = e.file_name().into_string().ok()?;
            let seed_part = name.strip_prefix(&prefix)?.strip_suffix("-untraced.json")?;
            let written = e.metadata().and_then(|m| m.modified()).ok().filter(|&w| w >= built)?;
            Some((seed_part == seed.to_string(), written, name))
        })
        .collect();
    candidates.sort();
    candidates.into_iter().rev().find_map(|(_, _, name)| {
        let report: Value =
            serde_json::from_str(&std::fs::read_to_string(reports.join(&name)).ok()?).ok()?;
        let length = report.get("environment")?.get("seconds")?.as_f64()?;
        (length == seconds as f64).then_some((name, report))
    })
}

/// Traced-minus-untraced end-to-end difference, as a share of the
/// untraced value.
fn tracing_overhead(baseline: Option<(String, Value)>, traced: &[Metric]) -> Value {
    let Some((name, report)) = baseline else {
        return Value::Str("no untraced report of this build, workload and run length".into());
    };
    let shares = traced
        .iter()
        .filter_map(|m| {
            let base = report.get("end_to_end")?.get(m.name)?.get("value")?.as_f64()?;
            Some((m.name.to_string(), num(stats::ratio(m.value - base, base))))
        })
        .collect();
    object(vec![("against", Value::Str(name)), ("share", Value::Object(shares))])
}

/// The layer table of a traced report: each per-layer metric next to the
/// end-to-end metric it is expected to move.
fn layer_table(layers: &[Metric]) -> Value {
    Value::Array(
        layers
            .iter()
            .zip(PER_LAYER)
            .map(|(m, (_, _, moves))| {
                object(vec![
                    ("metric", Value::Str(m.name.into())),
                    ("value", num(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                    ("moves", Value::Str(moves.into())),
                ])
            })
            .collect(),
    )
}

fn run(args: &Args) -> Result<Value, String> {
    let reports = args.out_dir.join("reports");
    std::fs::create_dir_all(&reports)
        .map_err(|e| format!("cannot create {}: {e}", reports.display()))?;
    let ckpt = args.out_dir.join("fixture-model.json");
    let ctx =
        Ctx { seed: args.seed, seconds: args.seconds, server_bin: args.server_bin.clone(), ckpt };
    let mut tracer = trace::Tracer::new(args.trace);

    let outcome = if args.workload == "train" {
        train::run(&ctx, &mut tracer)?
    } else {
        if !ctx.server_bin.is_file() {
            return Err(format!("no server binary at {}", ctx.server_bin.display()));
        }
        ner_par::set_global_threads(1);
        tracer
            .scope("fixture", None, || inputs::write_fixture(&ctx.ckpt))
            .map_err(|e| format!("cannot write the served checkpoint: {e}"))?;
        let mix =
            if args.workload == "serve-steady" { serve::Mix::Steady } else { serve::Mix::Saturate };
        serve::run(mix, &ctx, &mut tracer)?
    };

    let stem = format!("{}-seed{}", args.workload, args.seed);
    let correct = outcome.problems.is_empty() && outcome.failed == 0;
    let layers = all_layers(&outcome.layers);
    let mut report = vec![
        ("workload", Value::Str(args.workload.clone())),
        ("environment", environment(args)),
        ("correct", Value::Bool(correct)),
        ("problems", Value::Array(outcome.problems.iter().cloned().map(Value::Str).collect())),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("end_to_end", metric_map(&outcome.e2e)),
        ("details", Value::Object(outcome.details)),
    ];
    if args.trace {
        let batcher =
            layers.iter().find(|m| m.name == "batcher.cpu_ms_per_ktok").map_or(0.0, |m| m.value);
        let replayed_us: f64 = layers
            .iter()
            .filter(|m| {
                matches!(
                    m.name,
                    "tokenize.us_per_ktok"
                        | "repr.featurize_us_per_ktok"
                        | "model.embed_us_per_ktok"
                        | "model.encode_us_per_ktok"
                        | "model.decode_us_per_ktok"
                )
            })
            .map(|m| m.value)
            .sum();
        report.push(("per_layer", layer_table(&layers)));
        report.push(("batcher_cpu_minus_layer_sum_ms_per_ktok", num(batcher - replayed_us / 1e3)));
        let baseline = untraced_baseline(&reports, &args.workload, args.seed, args.seconds);
        report.push(("tracing_overhead", tracing_overhead(baseline, &outcome.e2e)));
        let summary = tracer
            .summary()
            .into_iter()
            .map(|(name, count, total, own)| {
                object(vec![
                    ("span", Value::Str(name)),
                    ("count", num(count as f64)),
                    ("total_us", num(total)),
                    ("self_us", num(own)),
                ])
            })
            .collect();
        report.push(("spans", Value::Array(summary)));
        let spans = reports.join(format!("{stem}-spans.jsonl"));
        tracer.write_jsonl(&spans).map_err(|e| format!("cannot write spans: {e}"))?;
        report.push(("spans_file", Value::Str(spans.display().to_string())));
    }
    let report = object(report);
    let name = format!("{stem}-{}.json", if args.trace { "traced" } else { "untraced" });
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(reports.join(&name), text).map_err(|e| format!("cannot write report: {e}"))?;

    for p in &outcome.problems {
        println!("check failed: {p}");
    }
    println!("environment: {}", serde_json::to_string(&environment(args)).expect("serializes"));
    println!("report: {}", reports.join(&name).display());
    let shown = if args.trace { layers } else { outcome.e2e };
    Ok(object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", metric_map(&shown)),
    ]))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{}", serde_json::to_string(&result).expect("result serializes"));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
