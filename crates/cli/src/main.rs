//! `neural-ner` — the command-line face of the toolkit the survey's
//! future-work section calls for: generate corpora, train any architecture
//! of the taxonomy, evaluate with the paper's metrics, checkpoint, and tag
//! raw text.

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
neural-ner — deep-learning NER toolkit (synthetic-corpus reproduction of
\"A Survey on Deep Learning for Named Entity Recognition\")

USAGE:
  neural-ner generate --out FILE [--n N] [--seed S] [--noisy] [--nested] [--fine-grained] [--unseen-rate R]
  neural-ner train    --train FILE --model FILE [--dev FILE] [--preset NAME] [--epochs N] [--seed S] [--batch N] [--quiet]
  neural-ner eval     --model FILE --data FILE
  neural-ner tag      --model FILE [TEXT ...]        (reads stdin when no TEXT)
  neural-ner serve    --ckpt FILE [--addr A] [--replicas N] [--poll-shards S] [--max-batch N] [--queue-cap Q] [--timeout-ms D] [--slo-ms B] [--read-timeout-ms R] [--trace-ring N]
  neural-ner zoo
  neural-ner report   RUN.jsonl
  neural-ner trace    <RUN.jsonl|http://HOST:PORT> [--top N]

COMMANDS:
  generate   write a synthetic annotated corpus in CoNLL format
  train      train a model preset on a CoNLL corpus and save a checkpoint
  eval       exact + relaxed span metrics of a checkpoint on a corpus
  tag        annotate raw text with a trained checkpoint
  serve      HTTP server (Linux): sharded epoll event loop, per-core pipeline
             replicas with dynamic micro-batching, SLO-aware admission
             (POST /v1/extract and /v1/extract_batch; GET /healthz, /metrics
              in Prometheus format, /admin/trace for the flight recorder;
              POST /admin/reload swaps all replicas atomically, no downtime;
              every response carries an x-trace-id, ?trace=1 inlines stages)
  zoo        list the available architecture presets (Table 3 families)
  report     summarize a JSONL run log (loss curve, latency, slowest spans)
  trace      per-request waterfalls and queue-vs-compute split from a live
             server's /admin/trace or a run log's \"trace\" records

GLOBAL OPTIONS (any command):
  --verbosity LEVEL   stderr chatter: quiet|normal|verbose|trace (or 0-3)
  --log-json FILE     append every event as one JSON object per line
  --threads N         worker threads for kernels, training and batch tagging
                      (default: NER_THREADS env var, else the core count;
                      1 = fully serial, bit-identical to historical runs)
";

/// Strips a global `--threads N` from the argument list, mirroring how the
/// observability flags are taken before command dispatch.
fn take_threads(rest: &mut Vec<String>) -> Result<Option<usize>, String> {
    let Some(pos) = rest.iter().position(|a| a == "--threads") else {
        return Ok(None);
    };
    if pos + 1 >= rest.len() {
        return Err("--threads requires a value".into());
    }
    let value = rest.remove(pos + 1);
    rest.remove(pos);
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(format!("--threads has invalid value {value:?} (want an integer >= 1)")),
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let mut rest: Vec<String> = argv.collect();
    let obs_cfg = match ner_obs::ObsConfig::from_env().take_args(&mut rest) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = ner_obs::init(obs_cfg) {
        eprintln!("error: cannot open run log: {e}");
        return ExitCode::FAILURE;
    }
    match take_threads(&mut rest) {
        Ok(Some(n)) => ner_par::set_global_threads(n),
        Ok(None) => {} // NER_THREADS / core count via ner_par::default_threads
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let result = match command.as_str() {
        "generate" => commands::generate(rest),
        "train" => commands::train(rest),
        "eval" => commands::eval(rest),
        "tag" => commands::tag(rest),
        "serve" => commands::serve(rest),
        "zoo" => commands::zoo(rest),
        "report" => commands::report(rest),
        "trace" => commands::trace(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; run `neural-ner help`").into()),
    };
    // Drain accumulated metrics (counters, histograms, span summaries)
    // into the sinks before exiting; a no-op when nothing was recorded.
    ner_obs::finish();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
