//! The CLI subcommands.

use crate::args::{parse, Args};
use ner_core::persist::Checkpoint;
use ner_core::prelude::*;
use ner_corpus::noise::{corrupt_dataset, NoiseModel};
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_text::conll;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::io::Read;

type CmdResult = Result<(), Box<dyn Error>>;

/// `generate` — write a synthetic CoNLL corpus.
pub fn generate(raw: Vec<String>) -> CmdResult {
    let a: Args = parse(raw, &["out", "n", "seed", "unseen-rate", "scheme"])?;
    let out = a.require("out")?.to_string();
    let n = a.get_parsed("n", 200usize)?;
    let seed = a.get_parsed("seed", 42u64)?;
    let unseen = a.get_parsed("unseen-rate", 0.0f64)?;
    let scheme = parse_scheme(a.get("scheme").unwrap_or("bio"))?;

    let cfg = GeneratorConfig {
        unseen_entity_rate: unseen,
        fine_grained: a.flag("fine-grained"),
        annotate_nested: a.flag("nested"),
        institution_rate: if a.flag("nested") { 0.4 } else { 0.15 },
        ..GeneratorConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ds = NewsGenerator::new(cfg).dataset(&mut rng, n);
    if a.flag("noisy") {
        ds = corrupt_dataset(&ds, &NoiseModel::social_media(), &mut rng);
    }
    std::fs::write(&out, conll::write_conll(&ds.sentences, scheme))?;
    let stats = ds.stats();
    ner_obs::info(format!(
        "wrote {} sentences / {} tokens / {} entities ({} types) to {out}",
        stats.sentences, stats.tokens, stats.entities, stats.entity_types
    ));
    Ok(())
}

/// `train` — fit a preset on a CoNLL file, checkpoint to JSON.
pub fn train(raw: Vec<String>) -> CmdResult {
    let a = parse(
        raw,
        &["train", "dev", "model", "preset", "epochs", "seed", "scheme", "lr", "batch"],
    )?;
    let train_path = a.require("train")?.to_string();
    let model_path = a.require("model")?.to_string();
    let preset_name = a.get("preset").unwrap_or("charcnn-bilstm-crf");
    let epochs = a.get_parsed("epochs", 12usize)?;
    let seed = a.get_parsed("seed", 42u64)?;
    let lr = a.get_parsed("lr", 0.01f32)?;
    let scheme = parse_scheme(a.get("scheme").unwrap_or("bio"))?;
    let batch = a.get_parsed("batch", TrainConfig::default().batch)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }

    let mut cfg = ner_core::zoo::preset(preset_name)
        .ok_or_else(|| format!("unknown preset {preset_name:?}; run `neural-ner zoo`"))?;
    cfg.scheme = scheme;
    // Presets declaring pretrained embeddings fall back to trainable random
    // tables in the CLI (no embedding file plumbing here).
    if matches!(cfg.word, ner_core::config::WordRepr::Pretrained { .. }) {
        cfg.word = ner_core::config::WordRepr::Random { dim: 32 };
    }

    let train_ds = read_dataset(&train_path, scheme)?;
    let dev_ds = match a.get("dev") {
        Some(p) => Some(read_dataset(p, scheme)?),
        None => None,
    };
    if a.flag("quiet") {
        ner_obs::set_verbosity(ner_obs::Verbosity::Quiet);
    }
    ner_obs::info(format!(
        "training {} ({}) on {} sentences ...",
        preset_name,
        cfg.signature(),
        train_ds.len()
    ));

    let mut rng = StdRng::seed_from_u64(seed);
    let encoder =
        SentenceEncoder::from_dataset(&train_ds, scheme, 1).with_features(cfg.use_features);
    let mut model = NerModel::new(cfg, &encoder, None, &mut rng);
    let train_enc = encoder.encode_dataset(&train_ds, None);
    let dev_enc = dev_ds.map(|d| encoder.encode_dataset(&d, None));
    let tc = TrainConfig { epochs, lr, batch, ..TrainConfig::default() };
    // Per-epoch progress is emitted by the trainer itself through the
    // observability sinks (stderr at normal verbosity, JSONL when enabled).
    let report =
        ner_core::trainer::train(&mut model, &train_enc, dev_enc.as_deref(), &tc, &mut rng);
    if let Some(f1) = report.best_dev_f1 {
        ner_obs::info(format!("best dev F1 {:.2}% at epoch {}", 100.0 * f1, report.best_epoch));
    }

    Checkpoint::capture(&NerPipeline::new(encoder, model)).save(&model_path)?;
    ner_obs::info(format!("checkpoint written to {model_path}"));
    Ok(())
}

/// `eval` — metrics of a checkpoint on a CoNLL file.
pub fn eval(raw: Vec<String>) -> CmdResult {
    let a = parse(raw, &["model", "data"])?;
    let pipeline = Checkpoint::load(a.require("model")?)?.restore()?;
    let scheme = pipeline.encoder.tag_set.scheme();
    let ds = read_dataset(a.require("data")?, scheme)?;
    let encoded = pipeline.encoder.encode_dataset(&ds, None);
    let r = ner_core::trainer::evaluate_model(&pipeline.model, &encoded);
    println!(
        "sentences: {}   gold entities: {}   predicted: {}",
        encoded.len(),
        r.gold_entities,
        r.pred_entities
    );
    println!(
        "exact micro   P {:.2}%  R {:.2}%  F1 {:.2}%",
        100.0 * r.micro.precision,
        100.0 * r.micro.recall,
        100.0 * r.micro.f1
    );
    println!("exact macro-F1  {:.2}%", 100.0 * r.macro_f1);
    println!(
        "relaxed type F1 {:.2}%   boundary F1 {:.2}%",
        100.0 * r.relaxed_type.f1,
        100.0 * r.boundary.f1
    );
    for (ty, prf) in &r.per_type {
        println!(
            "  {ty:<10} P {:.2}%  R {:.2}%  F1 {:.2}%",
            100.0 * prf.precision,
            100.0 * prf.recall,
            100.0 * prf.f1
        );
    }
    Ok(())
}

/// `tag` — annotate raw text (arguments or stdin).
pub fn tag(raw: Vec<String>) -> CmdResult {
    let a = parse(raw, &["model"])?;
    let pipeline = Checkpoint::load(a.require("model")?)?.restore()?;
    let inputs: Vec<String> = if a.positional().is_empty() {
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        buf.lines().filter(|l| !l.trim().is_empty()).map(str::to_string).collect()
    } else {
        a.positional().to_vec()
    };
    // Batch annotation fans out over the global thread pool; output order
    // (and content) is identical to tagging one line at a time.
    let refs: Vec<&str> = inputs.iter().map(String::as_str).collect();
    for sentence in pipeline.extract_batch(&refs) {
        println!("{}", sentence.render_brackets());
    }
    Ok(())
}

/// `serve` — run the batching HTTP server over a checkpoint.
pub fn serve(raw: Vec<String>) -> CmdResult {
    let a = parse(
        raw,
        &[
            "ckpt",
            "addr",
            "max-batch",
            "queue-cap",
            "timeout-ms",
            "slo-ms",
            "replicas",
            "poll-shards",
            "read-timeout-ms",
            "trace-ring",
        ],
    )?;
    let ckpt = a.require("ckpt")?.to_string();
    let addr = a.get("addr").unwrap_or("127.0.0.1:8080").to_string();
    let defaults = ner_serve::ServeConfig::default();
    // One pipeline replica per core by default: each gets its own
    // dispatcher thread, compiled plan, and caches.
    let default_replicas =
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let config = ner_serve::ServeConfig {
        max_batch: a.get_parsed("max-batch", defaults.max_batch)?,
        queue_cap: a.get_parsed("queue-cap", defaults.queue_cap)?,
        request_timeout: std::time::Duration::from_millis(
            a.get_parsed("timeout-ms", defaults.request_timeout.as_millis() as u64)?,
        ),
        slo_p99: std::time::Duration::from_millis(
            a.get_parsed("slo-ms", defaults.slo_p99.as_millis() as u64)?,
        ),
        replicas: a.get_parsed("replicas", default_replicas)?,
        poll_shards: a.get_parsed("poll-shards", defaults.poll_shards)?,
        read_timeout: std::time::Duration::from_millis(
            a.get_parsed("read-timeout-ms", defaults.read_timeout.as_millis() as u64)?,
        ),
        trace_recent: a.get_parsed("trace-ring", defaults.trace_recent)?,
        ..defaults
    };
    if config.max_batch == 0 || config.queue_cap == 0 {
        return Err("--max-batch and --queue-cap must be >= 1".into());
    }
    if config.replicas == 0 || config.poll_shards == 0 {
        return Err("--replicas and --poll-shards must be >= 1".into());
    }
    let pipeline = Checkpoint::load(&ckpt)?.restore()?;
    ner_obs::info(format!(
        "serving {} ({} replicas, {} poll shards, max-batch {}, queue {}, slo {}ms)",
        pipeline.model.cfg.signature(),
        config.replicas,
        config.poll_shards,
        config.max_batch,
        config.queue_cap,
        config.slo_p99.as_millis()
    ));
    let state = ner_serve::ServeState::new(pipeline, Some(ckpt.into()), config);
    let server = ner_serve::Server::bind(addr.as_str(), state)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    server.run()?;
    Ok(())
}

/// `zoo` — list presets.
pub fn zoo(_raw: Vec<String>) -> CmdResult {
    println!("{:<22} {:<44} survey reference", "PRESET", "ARCHITECTURE");
    for entry in ner_core::zoo::zoo() {
        println!("{:<22} {:<44} {}", entry.name, entry.config.signature(), entry.reference);
    }
    Ok(())
}

/// `report` — summarize a JSONL run log produced with `--log-json`.
pub fn report(raw: Vec<String>) -> CmdResult {
    let a = parse(raw, &[])?;
    let pos = a.positional();
    if pos.len() != 1 {
        return Err("usage: neural-ner report RUN.jsonl".into());
    }
    let path = &pos[0];
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let mut manifest: Option<ner_obs::RunManifest> = None;
    let mut warnings: Vec<(u64, String)> = Vec::new();
    let mut epochs: Vec<serde::Value> = Vec::new();
    let mut histograms: Vec<ner_obs::HistogramSummary> = Vec::new();
    let mut spans: Vec<(String, u64, f64, f64)> = Vec::new();
    let mut counters: Vec<(String, f64)> = Vec::new();
    let mut gauges: Vec<(String, f64)> = Vec::new();
    let mut last_t_ms = 0u64;
    let mut n_lines = 0usize;
    for (i, l) in text.lines().enumerate() {
        if l.trim().is_empty() {
            continue;
        }
        let line: ner_obs::LogLine = serde_json::from_str(l)
            .map_err(|e| format!("{path}:{}: not a run-log line ({e:?})", i + 1))?;
        n_lines += 1;
        last_t_ms = last_t_ms.max(line.t_ms);
        match line.event {
            ner_obs::Event::Manifest(m) => manifest = Some(m),
            ner_obs::Event::Message { level, text } if level == "warn" => {
                warnings.push((line.t_ms, text));
            }
            ner_obs::Event::Record { kind, body } if kind == "epoch" => epochs.push(body),
            // `finish` re-emits each histogram; keep the latest per name.
            ner_obs::Event::Histogram(h) => {
                histograms.retain(|o| o.name != h.name);
                histograms.push(h);
            }
            ner_obs::Event::SpanSummary { path, count, total_ms, max_ms } => {
                spans.retain(|(p, ..)| *p != path);
                spans.push((path, count, total_ms, max_ms));
            }
            ner_obs::Event::Counter { name, value } => {
                counters.retain(|(n, _)| *n != name);
                counters.push((name, value));
            }
            ner_obs::Event::Gauge { name, value } => {
                gauges.retain(|(n, _)| *n != name);
                gauges.push((name, value));
            }
            _ => {}
        }
    }
    println!("{path}: {n_lines} events over {:.2} s", last_t_ms as f64 / 1e3);

    if let Some(m) = &manifest {
        println!("\n== run manifest ==");
        println!("name {}   version {}   seed {}", m.name, m.version, m.seed);
        println!("config {}", m.config_signature);
        println!("wall clock {:.2} s   peak tape nodes {}", m.wall_clock_secs, m.peak_tape_nodes);
        if !m.kernel_backend.is_empty() {
            println!("kernel backend {}", m.kernel_backend);
        }
        if !m.final_metrics.is_empty() {
            println!("final metrics:");
            let shown = m.final_metrics.len().min(16);
            for (k, v) in &m.final_metrics[..shown] {
                println!("  {k:<32} {v:.4}");
            }
            if m.final_metrics.len() > shown {
                println!("  ... and {} more", m.final_metrics.len() - shown);
            }
        }
    }

    if !epochs.is_empty() {
        let num = |v: &serde::Value, k: &str| v.get(k).and_then(|x| x.as_f64());
        println!("\n== loss curve ==");
        let gauge = |n: &str| gauges.iter().find(|(g, _)| g == n).map(|(_, v)| *v);
        if let Some(batch) = gauge("train.batch") {
            match gauge("train.tokens_per_s") {
                Some(tps) => println!("trainer batch {batch}   peak {tps:.0} tokens/sec"),
                None => println!("trainer batch {batch}"),
            }
        }
        println!(
            "{:>5}  {:>10}  {:>9}  {:>8}  {:>7}  {:>8}  {:>8}  {:>7}",
            "epoch", "loss", "grad", "lr", "dev-F1", "wall", "tok/s", "skipped"
        );
        for e in &epochs {
            println!(
                "{:>5}  {:>10.4}  {:>9.3}  {:>8.5}  {:>7}  {:>6.1}ms  {:>8}  {:>7}",
                num(e, "epoch").unwrap_or(0.0) as u64,
                num(e, "train_loss").unwrap_or(f64::NAN),
                num(e, "grad_norm").unwrap_or(f64::NAN),
                num(e, "lr").unwrap_or(f64::NAN),
                num(e, "dev_f1").map_or("-".to_string(), |f| format!("{:.2}%", 100.0 * f)),
                num(e, "wall_ms").unwrap_or(0.0),
                num(e, "tokens_per_s").map_or("-".to_string(), |t| format!("{t:.0}")),
                num(e, "skipped_updates").unwrap_or(0.0) as u64,
            );
        }
    }

    if !histograms.is_empty() {
        println!("\n== latency ==");
        for h in &histograms {
            println!(
                "{}: n={}  mean={:.1}  p50={:.1}  p90={:.1}  p99={:.1}  max={:.1}",
                h.name, h.count, h.mean, h.p50, h.p90, h.p99, h.max
            );
            if h.name == "infer.sentence_us" && h.count > 0 && h.mean > 0.0 {
                if let Some((_, tokens)) = counters.iter().find(|(n, _)| n == "infer.tokens") {
                    let secs = h.count as f64 * h.mean / 1e6;
                    println!("  throughput ~{:.0} tokens/sec", tokens / secs);
                }
            }
        }
        // Per-stage share of the planned inference path, when present.
        let stage = |n: &str| histograms.iter().find(|h| h.name == n).map(|h| h.mean);
        if let (Some(e), Some(c), Some(d)) =
            (stage("infer.embed_us"), stage("infer.encode_us"), stage("infer.decode_us"))
        {
            let total = e + c + d;
            if total > 0.0 {
                println!(
                    "stage split (mean): embed {:.0}%  encode {:.0}%  decode {:.0}%",
                    100.0 * e / total,
                    100.0 * c / total,
                    100.0 * d / total
                );
            }
        }
    }

    let counter = |name: &str| counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    if let (Some(hits), Some(misses)) = (counter("infer.cache.hits"), counter("infer.cache.misses"))
    {
        println!("\n== token-feature cache ==");
        let total = hits + misses;
        let rate = if total > 0.0 { 100.0 * hits / total } else { 0.0 };
        println!("hits {hits:.0}  misses {misses:.0}  hit-rate {rate:.1}%");
    }

    if let Some(skipped) = counter("train.skipped_updates") {
        println!("\n== training stability ==");
        if skipped > 0.0 {
            println!("{skipped:.0} optimizer updates skipped on non-finite loss/gradient");
        } else {
            println!("no updates skipped (all losses and gradient norms finite)");
        }
    }

    if !spans.is_empty() {
        spans.sort_by(|a, b| b.2.total_cmp(&a.2));
        println!("\n== slowest spans ==");
        println!("{:<28} {:>8}  {:>10}  {:>9}", "span", "count", "total", "max");
        for (p, count, total_ms, max_ms) in spans.iter().take(10) {
            println!("{p:<28} {count:>8}  {total_ms:>8.1}ms  {max_ms:>7.1}ms");
        }
    }

    if !warnings.is_empty() {
        println!("\n== warnings ({}) ==", warnings.len());
        for (t, w) in warnings.iter().take(20) {
            println!("[{:>8.2}s] {w}", *t as f64 / 1e3);
        }
        if warnings.len() > 20 {
            println!("... and {} more", warnings.len() - 20);
        }
    }
    Ok(())
}

/// `trace` — render per-request waterfalls from a serving flight recorder
/// (`http://HOST:PORT`, fetched via `GET /admin/trace`) or from the
/// `"trace"` records of a JSONL run log.
pub fn trace(raw: Vec<String>) -> CmdResult {
    let a = parse(raw, &["top"])?;
    let top = a.get_parsed("top", 8usize)?;
    let pos = a.positional();
    if pos.len() != 1 {
        return Err("usage: neural-ner trace <RUN.jsonl|http://HOST:PORT> [--top N]".into());
    }
    let source = &pos[0];
    let mut records = if let Some(addr) = source.strip_prefix("http://") {
        fetch_traces(addr.trim_end_matches('/'))?
    } else {
        read_traces_jsonl(source)?
    };
    if records.is_empty() {
        return Err(format!(
            "no traces in {source} (serve some /v1/extract traffic first, or pass a \
             run log written with --log-json while serving)"
        )
        .into());
    }
    // Dedup (a trace can be both "recent" and "slowest"), slowest first.
    records.sort_by(|x, y| y.total_us.total_cmp(&x.total_us));
    records.dedup_by(|x, y| x.id == y.id);
    render_trace_split(&records);
    println!();
    for rec in records.iter().take(top) {
        render_trace_waterfall(rec);
    }
    if records.len() > top {
        println!("... and {} more traces (raise --top to see them)", records.len() - top);
    }
    Ok(())
}

/// Pulls `GET /admin/trace` from a running server.
fn fetch_traces(addr: &str) -> Result<Vec<ner_obs::trace::TraceRecord>, Box<dyn Error>> {
    use std::net::ToSocketAddrs;
    let sock = addr
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("cannot resolve {addr}"))?;
    let resp = ner_serve::client::get(sock, "/admin/trace")
        .map_err(|e| format!("GET http://{addr}/admin/trace failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /admin/trace returned {}: {}", resp.status, resp.body).into());
    }
    let snap: ner_obs::trace::FlightSnapshot = serde_json::from_str(&resp.body)
        .map_err(|e| format!("cannot parse /admin/trace body: {e:?}"))?;
    let mut records = snap.slowest;
    records.extend(snap.recent);
    Ok(records)
}

/// Collects the `"trace"` records of a JSONL run log.
fn read_traces_jsonl(path: &str) -> Result<Vec<ner_obs::trace::TraceRecord>, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut records = Vec::new();
    for (i, l) in text.lines().enumerate() {
        if l.trim().is_empty() {
            continue;
        }
        let line: ner_obs::LogLine = serde_json::from_str(l)
            .map_err(|e| format!("{path}:{}: not a run-log line ({e:?})", i + 1))?;
        if let ner_obs::Event::Record { kind, body } = line.event {
            if kind == "trace" {
                let rec = serde::Deserialize::deserialize(&body)
                    .map_err(|e| format!("{path}:{}: bad trace record ({e:?})", i + 1))?;
                records.push(rec);
            }
        }
    }
    Ok(records)
}

/// The queue-vs-compute split aggregated over every trace: where does a
/// served request's wall time go, on average?
fn render_trace_split(records: &[ner_obs::trace::TraceRecord]) {
    let mut queue = 0.0;
    let mut compute = 0.0;
    let mut respond = 0.0;
    let mut other = 0.0;
    for rec in records {
        for s in &rec.stages {
            match s.stage.as_str() {
                "queue_wait" | "batch_form" => queue += s.us,
                "featurize" | "embed" | "encode" | "decode" => compute += s.us,
                "respond" => respond += s.us,
                _ => other += s.us,
            }
        }
    }
    let sum = queue + compute + respond + other;
    println!("== queue vs compute ({} traces) ==", records.len());
    if sum <= 0.0 {
        println!("no stage data");
        return;
    }
    let pct = |v: f64| 100.0 * v / sum;
    print!(
        "queue {:.0}% (wait+batch-form)   compute {:.0}% (featurize+embed+encode+decode)   \
         respond {:.0}%",
        pct(queue),
        pct(compute),
        pct(respond)
    );
    if other > 0.0 {
        print!("   other {:.0}%", pct(other));
    }
    println!();
}

/// One trace as a per-stage waterfall, stage durations aggregated by
/// label (a batch request repeats labels per item).
fn render_trace_waterfall(rec: &ner_obs::trace::TraceRecord) {
    print!(
        "trace {}  {}  status {}  total {:.0}us",
        rec.id, rec.endpoint, rec.status, rec.total_us
    );
    if rec.batch_id > 0 {
        print!("  batch #{} (size {})", rec.batch_id, rec.batch_size);
    }
    println!();
    let mut stages: Vec<(String, f64)> = Vec::new();
    for s in &rec.stages {
        match stages.iter_mut().find(|(n, _)| *n == s.stage) {
            Some((_, us)) => *us += s.us,
            None => stages.push((s.stage.clone(), s.us)),
        }
    }
    const BAR: usize = 36;
    for (name, us) in &stages {
        let frac = if rec.total_us > 0.0 { (us / rec.total_us).clamp(0.0, 1.0) } else { 0.0 };
        let filled = (frac * BAR as f64).round() as usize;
        println!(
            "  {name:<12} {us:>9.0}us {:>5.1}%  |{}{}|",
            100.0 * frac,
            "#".repeat(filled),
            " ".repeat(BAR - filled)
        );
    }
}

fn parse_scheme(s: &str) -> Result<TagScheme, Box<dyn Error>> {
    match s.to_lowercase().as_str() {
        "io" => Ok(TagScheme::Io),
        "bio" => Ok(TagScheme::Bio),
        "bioes" | "bilou" | "iobes" => Ok(TagScheme::Bioes),
        other => Err(format!("unknown tag scheme {other:?} (io|bio|bioes)").into()),
    }
}

fn read_dataset(path: &str, scheme: TagScheme) -> Result<Dataset, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let sentences = conll::read_conll(&text, scheme);
    if sentences.is_empty() {
        return Err(format!("{path} contains no sentences").into());
    }
    Ok(Dataset::new(sentences))
}
