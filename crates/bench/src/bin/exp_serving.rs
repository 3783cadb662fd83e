//! Soak test of the `ner-serve` batching server under overload.
//!
//! Runs one long-lived server (two replicas, artificial per-row scoring
//! cost, a tight `slo_p99` budget) through a latency-under-load ladder and
//! a sustain → overload → recovery arc, with a hot reload and a
//! just-under-1 MiB JSON string body (which must get a 400 inside the
//! request deadline) fired mid-sustain, and a graceful shutdown fired into
//! live traffic at the end. The overload phase must shed with 429s
//! (SLO-aware admission), recovery must stop shedding, every 200 must match
//! offline `extract` byte-for-byte, and no response may arrive malformed
//! (`lost` stays zero) — violations exit non-zero (CI runs this via
//! `--smoke` at `NER_THREADS=1` and `4`).
//!
//! Throughput and CPU cost of serving are measured by the repo's
//! benchmark, `perfbench/`; byte-identity of batched replies at every
//! `max_batch` is asserted by `crates/serve/tests/serve_integration.rs`.
//!
//! Results land in `results/exp_serving.json` (with a run manifest).

use ner_bench::{init_harness, print_table, write_report, Scale};
use ner_core::config::NerConfig;
use ner_core::model::NerModel;
use ner_core::prelude::NerPipeline;
use ner_core::repr::SentenceEncoder;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_serve::{client, ServeConfig, ServeState, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Value};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const SEED: u64 = 31;

/// Whole-run percentiles of one per-stage latency histogram.
#[derive(Serialize)]
struct StageQuantiles {
    stage: String,
    count: u64,
    p50_us: f64,
    p99_us: f64,
}

/// One phase of the soak arc (sustain → overload → recovery → drain).
#[derive(Serialize)]
struct SoakPhase {
    phase: String,
    clients: usize,
    seconds: f64,
    /// Requests that received any HTTP response.
    requests: usize,
    /// 200s whose payload matched the offline reference.
    ok: usize,
    /// 429s — SLO-aware admission (or the queue-cap backstop) shed these.
    shed: usize,
    /// 408s — the request's deadline expired while queued.
    expired: usize,
    /// 503s — the server was draining.
    draining: usize,
    /// Goodput: matched 200s per second of phase wall clock.
    req_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    divergences: usize,
    /// Responses that arrived malformed or truncated — an accepted
    /// request the server failed to answer whole. Must stay zero.
    lost: usize,
}

/// One rung of the latency-under-load ladder.
#[derive(Serialize)]
struct LoadPoint {
    clients: usize,
    req_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    /// Fraction of responses that were 429s at this load.
    shed_rate: f64,
}

/// The soak harness verdict.
#[derive(Serialize)]
struct SoakReport {
    replicas: usize,
    poll_shards: usize,
    slo_p99_ms: u64,
    score_delay_ms: u64,
    /// Throughput/latency/shedding as offered load rises.
    latency_curve: Vec<LoadPoint>,
    /// The sustain → overload → recovery → drain arc.
    phases: Vec<SoakPhase>,
    /// Completed hot reloads during the soak (fired mid-sustain).
    reloads: u64,
    /// Overload shed load and recovery stopped shedding.
    recovered: bool,
    lost_total: usize,
    divergences: usize,
}

#[derive(Serialize)]
struct Report {
    experiment: String,
    description: String,
    seed: u64,
    smoke: bool,
    /// Worker threads of the scoring pool (`NER_THREADS` at launch).
    requested_threads: usize,
    host_parallelism: usize,
    /// Whole-run p50/p99 of every serving stage (queue wait, featurize,
    /// embed, encode, decode) plus end-to-end `serve.request_us` — the
    /// attribution columns traces are reconciled against.
    stage_percentiles: Vec<StageQuantiles>,
    /// Latency-under-load ladder plus the overload-and-recovery arc.
    soak: SoakReport,
}

/// The workload: raw sentences plus the offline payload each one must
/// serve back (the exact JSON the server is expected to emit).
struct Workload {
    texts: Vec<String>,
    expected: Vec<Value>,
}

fn offline_payload(pipeline: &NerPipeline, text: &str) -> Value {
    let s = pipeline.extract(text);
    let entities = s
        .entities
        .iter()
        .map(|e| {
            Value::Object(vec![
                ("start".into(), Value::Num(e.start as f64)),
                ("end".into(), Value::Num(e.end as f64)),
                ("label".into(), Value::Str(e.label.clone())),
            ])
        })
        .collect();
    Value::Object(vec![
        (
            "tokens".into(),
            Value::Array(s.tokens.iter().map(|t| Value::Str(t.text.clone())).collect()),
        ),
        ("entities".into(), Value::Array(entities)),
        ("render".into(), Value::Str(s.render_brackets())),
    ])
}

/// Per-worker tally of one soak phase.
#[derive(Default)]
struct PhaseStats {
    requests: usize,
    ok: usize,
    shed: usize,
    expired: usize,
    draining: usize,
    divergences: usize,
    lost: usize,
    latencies: Vec<f64>,
}

impl PhaseStats {
    fn absorb(&mut self, other: PhaseStats) {
        self.requests += other.requests;
        self.ok += other.ok;
        self.shed += other.shed;
        self.expired += other.expired;
        self.draining += other.draining;
        self.divergences += other.divergences;
        self.lost += other.lost;
        self.latencies.extend(other.latencies);
    }

    fn quantile(&mut self, q: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        self.latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        self.latencies[((self.latencies.len() - 1) as f64 * q).round() as usize]
    }
}

/// One closed-loop soak client. With `until`, runs until the instant
/// passes; without, runs until the server drains (first 503 or a
/// connection the listener no longer answers).
fn soak_worker(
    addr: SocketAddr,
    workload: &Workload,
    worker: usize,
    until: Option<Instant>,
) -> PhaseStats {
    let mut stats = PhaseStats::default();
    let Ok(mut conn) = client::Conn::connect(addr) else {
        return stats;
    };
    let mut i = 0usize;
    loop {
        if let Some(t) = until {
            if Instant::now() >= t {
                break;
            }
        }
        let idx = (worker * 31 + i) % workload.texts.len();
        i += 1;
        let body = format!("{{\"text\": \"{}\"}}", workload.texts[idx].replace('"', "\\\""));
        let t0 = Instant::now();
        match conn.post("/v1/extract", &body) {
            Ok(resp) => {
                stats.requests += 1;
                match resp.status {
                    200 => {
                        stats.latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                        // A 200 must be whole and byte-identical to the
                        // offline reference — under overload, during a
                        // reload, and mid-drain alike.
                        match serde_json::from_str::<Value>(&resp.body) {
                            Ok(served) if served == workload.expected[idx] => stats.ok += 1,
                            Ok(_) => {
                                stats.ok += 1;
                                stats.divergences += 1;
                            }
                            Err(_) => stats.lost += 1,
                        }
                    }
                    429 => {
                        stats.shed += 1;
                        // Brief backoff: a shed closed-loop client
                        // yielding keeps the phase from being pure 429s.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    408 => stats.expired += 1,
                    503 => {
                        stats.draining += 1;
                        if until.is_none() {
                            break;
                        }
                    }
                    _ => stats.lost += 1,
                }
            }
            Err(_) => {
                // The keep-alive socket closed under us (idle reap or
                // drain); a fresh connection tells churn from shutdown.
                match client::Conn::connect(addr) {
                    Ok(c) => conn = c,
                    Err(_) => break,
                }
            }
        }
    }
    stats
}

/// Runs `clients` closed-loop workers for `duration` (or, with `None`,
/// until the server drains) and merges their tallies.
fn soak_clients(
    addr: SocketAddr,
    workload: &Workload,
    clients: usize,
    duration: Option<Duration>,
) -> (PhaseStats, f64) {
    let until = duration.map(|d| Instant::now() + d);
    let started = Instant::now();
    let mut merged = PhaseStats::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|worker| scope.spawn(move || soak_worker(addr, workload, worker, until)))
            .collect();
        for w in workers {
            merged.absorb(w.join().expect("soak client"));
        }
    });
    let wall = started.elapsed().as_secs_f64();
    (merged, wall)
}

fn phase_row(name: &str, clients: usize, mut stats: PhaseStats, wall: f64) -> SoakPhase {
    SoakPhase {
        phase: name.to_string(),
        clients,
        seconds: wall,
        requests: stats.requests,
        ok: stats.ok,
        shed: stats.shed,
        expired: stats.expired,
        draining: stats.draining,
        req_per_s: stats.ok as f64 / wall.max(1e-9),
        p50_us: stats.quantile(0.5),
        p99_us: stats.quantile(0.99),
        divergences: stats.divergences,
        lost: stats.lost,
    }
}

/// The soak harness: one long-lived replicated server under a deliberate
/// per-row scoring cost and a tight SLO budget, pushed through a load
/// ladder and a sustain → overload → recovery → drain arc.
fn run_soak(pipeline: NerPipeline, workload: &Workload, smoke: bool) -> SoakReport {
    // 20 ms per single-row batch across 2 replicas ≈ 100 rows/s capacity.
    // A 4-client sustain sits well inside the 150 ms SLO budget; a
    // 32-client flood predicts ~300 ms queue waits and must be shed.
    let config = ServeConfig {
        max_batch: 1,
        replicas: 2,
        poll_shards: 2,
        score_delay: Duration::from_millis(20),
        slo_p99: Duration::from_millis(150),
        request_timeout: Duration::from_secs(10),
        ..ServeConfig::default()
    };
    let (replicas, poll_shards, deadline) =
        (config.replicas, config.poll_shards, config.request_timeout);
    let slo_ms = config.slo_p99.as_millis() as u64;
    let delay_ms = config.score_delay.as_millis() as u64;
    // The checkpoint for the mid-soak reload is the same model, saved to a
    // temp path — the swap must be invisible in the responses.
    let ckpt_path =
        std::env::temp_dir().join(format!("exp-serving-soak-{}.json", std::process::id()));
    ner_core::persist::Checkpoint::capture(&pipeline).save(&ckpt_path).expect("save checkpoint");
    let state = ServeState::new(pipeline, Some(ckpt_path.clone()), config);
    let server = Server::bind("127.0.0.1:0", std::sync::Arc::clone(&state)).expect("bind");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    // Prime the token-feature caches and the admission cost model.
    let (_, _) = soak_clients(addr, workload, 1, Some(Duration::from_millis(200)));

    let phase_len = if smoke { Duration::from_millis(1200) } else { Duration::from_secs(12) };
    let rung_len = if smoke { Duration::from_millis(600) } else { Duration::from_secs(3) };
    let ladder: &[usize] = if smoke { &[1, 4, 16] } else { &[1, 2, 4, 8, 16, 32] };

    // Latency under load: goodput, percentiles, and shed rate as offered
    // load climbs past capacity.
    let mut latency_curve = Vec::new();
    for &clients in ladder {
        let (mut stats, wall) = soak_clients(addr, workload, clients, Some(rung_len));
        latency_curve.push(LoadPoint {
            clients,
            req_per_s: stats.ok as f64 / wall.max(1e-9),
            p50_us: stats.quantile(0.5),
            p99_us: stats.quantile(0.99),
            shed_rate: stats.shed as f64 / stats.requests.max(1) as f64,
        });
    }

    let mut phases = Vec::new();

    // Sustain, with a hot reload and a just-under-1 MiB string body fired
    // into the middle of it. The body lacks "text", so it must get a 400
    // within the request deadline; a poll shard stalled parsing it would
    // also hold up the sustain clients it serves.
    let large_body =
        format!("{{\"pad\":\"{}\"}}", "a".repeat(ner_serve::http::MAX_BODY_BYTES - 16));
    let (stats, wall) = std::thread::scope(|scope| {
        let worker = scope.spawn(move || soak_clients(addr, workload, 4, Some(phase_len)));
        std::thread::sleep(phase_len / 3);
        let resp = client::post(addr, "/admin/reload", "").expect("mid-sustain reload");
        assert_eq!(resp.status, 200, "reload under load must succeed: {}", resp.body);
        let sent = Instant::now();
        let resp = client::post(addr, "/v1/extract", &large_body).expect("mid-sustain large body");
        assert_eq!(resp.status, 400, "a large body without text must be refused: {}", resp.body);
        let took = sent.elapsed();
        assert!(took < deadline, "the large body took {took:?}, past the request deadline");
        worker.join().expect("sustain clients")
    });
    phases.push(phase_row("sustain+reload", 4, stats, wall));

    // Overload: far more closed-loop clients than capacity.
    let (stats, wall) = soak_clients(addr, workload, 32, Some(phase_len));
    phases.push(phase_row("overload", 32, stats, wall));

    // Recovery: back to the sustain load; shedding must stop.
    let (stats, wall) = soak_clients(addr, workload, 4, Some(phase_len));
    phases.push(phase_row("recovery", 4, stats, wall));

    // Drain: shutdown fired into live traffic. Workers run until the
    // first 503 / refused connection; everything answered 200 before that
    // must still be whole and correct.
    let (stats, wall) = std::thread::scope(|scope| {
        let worker = scope.spawn(move || soak_clients(addr, workload, 8, None));
        std::thread::sleep(Duration::from_millis(300));
        let resp = client::post(addr, "/admin/shutdown", "").expect("shutdown under load");
        assert_eq!(resp.status, 200);
        worker.join().expect("drain clients")
    });
    phases.push(phase_row("drain", 8, stats, wall));
    server_thread.join().expect("server drains and exits");
    let _ = std::fs::remove_file(ckpt_path);

    let overload_shed = phases.iter().find(|p| p.phase == "overload").map_or(0, |p| p.shed);
    let recovery = phases.iter().find(|p| p.phase == "recovery");
    let recovered =
        overload_shed > 0 && recovery.is_some_and(|p| p.shed == 0 && p.ok > 0 && p.lost == 0);
    SoakReport {
        replicas,
        poll_shards,
        slo_p99_ms: slo_ms,
        score_delay_ms: delay_ms,
        latency_curve,
        reloads: state.reload_count(),
        recovered,
        lost_total: phases.iter().map(|p| p.lost).sum(),
        divergences: phases.iter().map(|p| p.divergences).sum(),
        phases,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::Quick } else { Scale::from_args() };
    init_harness("exp_serving", SEED, scale);
    let requested_threads = ner_par::default_threads();

    // An untrained default-config model serves identically-shaped work at
    // any weight values; skipping training keeps the harness CI-fast. Two
    // pipelines from the same seed: one deployed, one as the offline
    // reference (so the check cannot share cache state with the server).
    let build = || {
        let mut rng = StdRng::seed_from_u64(SEED);
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let corpus = gen.dataset(&mut rng, 60);
        let cfg = NerConfig::default();
        let encoder = SentenceEncoder::from_dataset(&corpus, cfg.scheme, 1);
        let model = NerModel::new(cfg, &encoder, None, &mut rng);
        (corpus, NerPipeline::new(encoder, model))
    };
    let (corpus, offline) = build();
    let texts: Vec<String> = corpus
        .sentences
        .iter()
        .map(|s| s.tokens.iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" "))
        .collect();
    let expected: Vec<Value> = texts.iter().map(|t| offline_payload(&offline, t)).collect();
    let workload = Workload { texts, expected };

    // The soak arc: latency under load, overload shedding, recovery,
    // reload and shutdown under live traffic.
    let (_, soak_pipeline) = build();
    let soak = run_soak(soak_pipeline, &workload, smoke);

    // Whole-run per-stage percentiles: the global histograms accumulated
    // over the soak, the same data request traces attribute from.
    let stage_percentiles: Vec<StageQuantiles> = [
        "serve.queue_wait_us",
        "infer.featurize_us",
        "infer.embed_us",
        "infer.encode_us",
        "infer.decode_us",
        "serve.request_us",
    ]
    .iter()
    .filter_map(|name| {
        ner_obs::histogram_summary(name).map(|h| StageQuantiles {
            stage: name.to_string(),
            count: h.count,
            p50_us: h.p50,
            p99_us: h.p99,
        })
    })
    .collect();
    println!("\nper-stage attribution over the whole run (p50 / p99 µs):");
    for s in &stage_percentiles {
        println!("  {:<22} {:>8.0} / {:>8.0}  (n={})", s.stage, s.p50_us, s.p99_us, s.count);
    }

    print_table(
        "latency under load (soak server: 2 replicas, 20ms/row, 150ms SLO)",
        &["clients", "req/s", "p50 µs", "p99 µs", "shed rate"],
        &soak
            .latency_curve
            .iter()
            .map(|p| {
                vec![
                    p.clients.to_string(),
                    format!("{:.0}", p.req_per_s),
                    format!("{:.0}", p.p50_us),
                    format!("{:.0}", p.p99_us),
                    format!("{:.2}", p.shed_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "soak arc: sustain -> overload -> recovery -> drain",
        &["phase", "clients", "s", "reqs", "ok", "429", "408", "503", "req/s", "p99 µs", "lost"],
        &soak
            .phases
            .iter()
            .map(|p| {
                vec![
                    p.phase.clone(),
                    p.clients.to_string(),
                    format!("{:.1}", p.seconds),
                    p.requests.to_string(),
                    p.ok.to_string(),
                    p.shed.to_string(),
                    p.expired.to_string(),
                    p.draining.to_string(),
                    format!("{:.0}", p.req_per_s),
                    format!("{:.0}", p.p99_us),
                    p.lost.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\nsoak: overload shed then recovered = {}, reloads under load = {}, lost = {}, divergences = {}",
        soak.recovered, soak.reloads, soak.lost_total, soak.divergences
    );

    let report = Report {
        experiment: "exp_serving".into(),
        description: "Soak test of the ner-serve micro-batching server: latency-under-load ladder, overload-and-recovery arc, reload and shutdown under live traffic; every response checked against offline extract".into(),
        seed: SEED,
        smoke,
        requested_threads,
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        stage_percentiles,
        soak,
    };
    let path = write_report("exp_serving", &report);
    println!("report: {}", path.display());

    let mut failures = Vec::new();
    if report.soak.divergences > 0 {
        failures.push(format!("{} soak divergence(s) under load", report.soak.divergences));
    }
    if report.soak.lost_total > 0 {
        failures.push(format!(
            "{} malformed/truncated response(s) in the soak",
            report.soak.lost_total
        ));
    }
    if !report.soak.recovered {
        failures.push("soak did not show overload shedding followed by a clean recovery".into());
    }
    if report.soak.reloads == 0 {
        failures.push("mid-sustain reload did not complete".into());
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("{f}");
        }
        std::process::exit(1);
    }
}
