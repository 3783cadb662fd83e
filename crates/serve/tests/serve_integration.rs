//! End-to-end tests over a real socket: batched serving must be
//! byte-identical to offline annotation, overload must shed load without
//! taking the server down, a hot reload must lose no in-flight request,
//! and the poll loop must survive hostile clients — slowloris heads,
//! dribbled bodies, disconnects while queued, shutdown racing traffic.

use std::io::{BufRead, BufReader, Read, Write};

use ner_core::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
use ner_core::model::NerModel;
use ner_core::persist::Checkpoint;
use ner_core::prelude::NerPipeline;
use ner_core::repr::SentenceEncoder;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_serve::client;
use ner_serve::{ServeConfig, ServeState, Server};
use ner_text::TagScheme;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn tiny_pipeline() -> NerPipeline {
    tiny_pipeline_seeded(11)
}

fn tiny_pipeline_seeded(seed: u64) -> NerPipeline {
    let mut rng = StdRng::seed_from_u64(seed);
    let ds = NewsGenerator::new(GeneratorConfig::default()).dataset(&mut rng, 40);
    let encoder = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
    let cfg = NerConfig {
        scheme: TagScheme::Bio,
        word: WordRepr::Random { dim: 8 },
        char_repr: CharRepr::None,
        encoder: EncoderKind::Lstm { hidden: 8, bidirectional: true, layers: 1 },
        decoder: DecoderKind::Crf,
        dropout: 0.0,
        ..NerConfig::default()
    };
    let model = NerModel::new(cfg, &encoder, None, &mut rng);
    NerPipeline::new(encoder, model)
}

/// Starts a server on an ephemeral port; returns its address, state, and
/// the thread to join after shutdown.
fn start_server(
    cfg: ServeConfig,
    ckpt_path: Option<std::path::PathBuf>,
) -> (SocketAddr, Arc<ServeState>, std::thread::JoinHandle<()>) {
    let state = ServeState::new(tiny_pipeline(), ckpt_path, cfg);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, state, handle)
}

fn stop_server(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    let resp = client::post(addr, "/admin/shutdown", "").expect("shutdown request");
    assert_eq!(resp.status, 200);
    handle.join().expect("server thread");
}

/// The serialized form the server sends for one sentence — built from the
/// offline pipeline so equality is checked on the exact wire payload.
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

fn json_escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

#[test]
fn concurrent_batched_responses_match_offline_annotate() {
    let cfg = ServeConfig { max_batch: 16, ..ServeConfig::default() };
    let (addr, state, handle) = start_server(cfg, None);
    let offline = state.pipeline();

    let texts: Vec<String> = (0..24)
        .map(|i| format!("Alice Smith flew to Paris with delegation number {i} yesterday ."))
        .collect();
    let results: Vec<(String, Value)> = std::thread::scope(|scope| {
        let workers: Vec<_> = texts
            .chunks(6)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut conn = client::Conn::connect(addr).expect("connect");
                    chunk
                        .iter()
                        .map(|text| {
                            let body = format!("{{\"text\": \"{}\"}}", json_escape(text));
                            let resp = conn.post("/v1/extract", &body).expect("extract");
                            assert_eq!(resp.status, 200, "body: {}", resp.body);
                            let parsed: Value =
                                serde_json::from_str(&resp.body).expect("response json");
                            (text.clone(), parsed)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect()
    });
    for (text, served) in &results {
        assert_eq!(
            *served,
            offline_payload(&offline, text),
            "served response diverged from offline extract for {text:?}"
        );
    }

    // The batch endpoint returns the same payloads, in request order.
    let mut conn = client::Conn::connect(addr).expect("connect");
    let batch_body = format!(
        "{{\"texts\": [{}]}}",
        texts
            .iter()
            .take(5)
            .map(|t| format!("\"{}\"", json_escape(t)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let resp = conn.post("/v1/extract_batch", &batch_body).expect("extract_batch");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let parsed: Value = serde_json::from_str(&resp.body).expect("batch json");
    let results = parsed.get("results").and_then(|r| r.as_array()).expect("results array");
    assert_eq!(results.len(), 5);
    for (text, served) in texts.iter().take(5).zip(results) {
        assert_eq!(*served, offline_payload(&offline, text));
    }

    stop_server(addr, handle);
}

/// `(batches scored, requests scored)` so far — the `serve.batch_size`
/// histogram's count and sum. Deltas of these give the mean batch width
/// over a window even while other tests observe into the same registry.
fn batch_size_totals() -> (u64, f64) {
    ner_obs::histogram_snapshots()
        .into_iter()
        .find(|h| h.name == "serve.batch_size")
        .map(|h| (h.count, h.sum))
        .unwrap_or((0, 0.0))
}

#[test]
fn concurrent_load_forms_batches_wider_than_one() {
    // A scoring delay long enough that a burst piles up behind the first
    // dispatch: the batcher must drain the pile as real multi-request
    // batches, not as a serial stream of singletons. This regression-tests
    // the fill target — it must not be capped below `max_batch` (e.g. at
    // the thread-pool width) now that scoring packs the whole batch into
    // one [B,T] forward.
    let cfg = ServeConfig {
        max_batch: 32,
        score_delay: Duration::from_millis(25),
        ..ServeConfig::default()
    };
    let (addr, _state, handle) = start_server(cfg, None);

    let (batches_before, requests_before) = batch_size_totals();
    std::thread::scope(|scope| {
        for i in 0..32 {
            scope.spawn(move || {
                let body = format!("{{\"text\": \"batched burst probe {i} .\"}}");
                let resp = client::post(addr, "/v1/extract", &body).expect("extract");
                assert_eq!(resp.status, 200, "body: {}", resp.body);
            });
        }
    });
    let (batches_after, requests_after) = batch_size_totals();

    let batches = batches_after - batches_before;
    let requests = requests_after - requests_before;
    assert!(requests >= 32.0, "all 32 burst requests must be scored, saw {requests}");
    let mean_batch = requests / batches as f64;
    assert!(
        mean_batch > 1.0,
        "a 32-request burst against 25ms scoring must batch: \
         {requests} requests over {batches} batches (mean {mean_batch:.2})"
    );

    stop_server(addr, handle);
}

#[test]
fn overflow_sheds_load_with_429_and_keeps_serving() {
    // A deliberately tiny queue and slow scoring: most of a burst must be
    // rejected, but the server itself must stay responsive throughout.
    let cfg = ServeConfig {
        max_batch: 1,
        queue_cap: 2,
        score_delay: Duration::from_millis(120),
        ..ServeConfig::default()
    };
    let (addr, _state, handle) = start_server(cfg, None);

    let (oks, rejected) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..12)
            .map(|i| {
                scope.spawn(move || {
                    let body = format!("{{\"text\": \"burst request number {i} .\"}}");
                    let resp = client::post(addr, "/v1/extract", &body).expect("request");
                    resp.status
                })
            })
            .collect();
        // While the burst is in flight, liveness must not degrade.
        let health = client::get(addr, "/healthz").expect("healthz during burst");
        assert_eq!(health.status, 200);
        let mut oks = 0;
        let mut rejected = 0;
        for w in workers {
            match w.join().expect("client thread") {
                200 => oks += 1,
                429 => rejected += 1,
                other => panic!("unexpected status {other} during overload"),
            }
        }
        (oks, rejected)
    });
    assert!(oks >= 1, "some of the burst must be served");
    assert!(rejected >= 1, "a 2-slot queue must shed most of a 12-request burst");

    // Shed load is advisory: the client that retries after the burst wins.
    let resp = client::post(addr, "/v1/extract", "{\"text\": \"after the storm .\"}")
        .expect("post-burst request");
    assert_eq!(resp.status, 200);
    // And the 429s told it when to come back.
    stop_server(addr, handle);
}

#[test]
fn reload_mid_traffic_loses_no_requests() {
    let ckpt_path =
        std::env::temp_dir().join(format!("ner-serve-reload-test-{}.json", std::process::id()));
    // The checkpoint on disk is captured from an identical pipeline, so
    // predictions stay comparable across the swap.
    Checkpoint::capture(&tiny_pipeline()).save(&ckpt_path).expect("save checkpoint");

    let cfg = ServeConfig { max_batch: 8, ..ServeConfig::default() };
    let (addr, state, handle) = start_server(cfg, Some(ckpt_path.clone()));
    let offline = state.pipeline();

    let reload_status = std::thread::scope(|scope| {
        let traffic: Vec<_> = (0..4)
            .map(|worker| {
                let offline = &offline;
                scope.spawn(move || {
                    let mut conn = client::Conn::connect(addr).expect("connect");
                    for i in 0..25 {
                        let text = format!("Bob Jones works in London office {worker}-{i} .");
                        let body = format!("{{\"text\": \"{text}\"}}");
                        let resp = conn.post("/v1/extract", &body).expect("extract");
                        assert_eq!(
                            resp.status, 200,
                            "request {worker}-{i} dropped during reload: {}",
                            resp.body
                        );
                        let parsed: Value = serde_json::from_str(&resp.body).expect("json");
                        assert_eq!(parsed, offline_payload(offline, &text));
                    }
                })
            })
            .collect();
        // Fire the reload while the traffic threads are mid-stream.
        std::thread::sleep(Duration::from_millis(30));
        let resp = client::post(addr, "/admin/reload", "").expect("reload");
        for t in traffic {
            t.join().expect("traffic thread");
        }
        resp.status
    });
    assert_eq!(reload_status, 200, "reload must succeed");
    assert_eq!(state.reload_count(), 1);

    // The reloaded model keeps serving.
    let resp = client::post(addr, "/v1/extract", "{\"text\": \"Carol visited Berlin .\"}")
        .expect("post-reload request");
    assert_eq!(resp.status, 200);

    stop_server(addr, handle);
    let _ = std::fs::remove_file(ckpt_path);
}

#[test]
fn health_metrics_and_errors_speak_http() {
    let (addr, _state, handle) = start_server(ServeConfig::default(), None);

    let health = client::get(addr, "/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.header("content-type"), Some("application/json"));
    let parsed: Value = serde_json::from_str(&health.body).expect("health json");
    assert_eq!(parsed.get("status").and_then(|s| s.as_str()), Some("ok"));

    // Generate some traffic so the serving histograms exist.
    let resp = client::post(addr, "/v1/extract", "{\"text\": \"Dana met Erik in Oslo .\"}")
        .expect("extract");
    assert_eq!(resp.status, 200);

    // The default is Prometheus text exposition: typed families, the
    // batcher's histograms as cumulative bucket series, and the queue
    // depth as a *gauge* (current depth), not a histogram of past depths.
    let metrics = client::get(addr, "/metrics").expect("metrics");
    assert_eq!(metrics.status, 200);
    assert_eq!(metrics.header("content-type"), Some(ner_serve::prometheus::CONTENT_TYPE));
    for needle in [
        "# TYPE ner_serve_queue_depth gauge",
        "# TYPE ner_serve_batch_size histogram",
        "# TYPE ner_serve_queue_wait_us histogram",
        "ner_serve_batch_size_bucket{le=\"",
        "ner_serve_queue_wait_us_bucket{le=\"+Inf\"}",
        "ner_serve_request_us_count",
    ] {
        assert!(metrics.body.contains(needle), "missing {needle:?} in:\n{}", metrics.body);
    }
    ner_serve::prometheus::lint(&metrics.body).expect("live /metrics must pass the lint");
    let also_prom = client::get(addr, "/metrics?format=prometheus").expect("explicit format");
    assert_eq!(also_prom.status, 200);
    assert_eq!(also_prom.header("content-type"), Some(ner_serve::prometheus::CONTENT_TYPE));

    // `?format=json` keeps the structured form; unknown formats are a 400.
    let json = client::get(addr, "/metrics?format=json").expect("metrics json");
    assert_eq!(json.status, 200);
    assert_eq!(json.header("content-type"), Some("application/json"));
    let parsed: Value = serde_json::from_str(&json.body).expect("metrics json body");
    for key in ["counters", "gauges", "histograms"] {
        assert!(parsed.get(key).is_some(), "metrics json lacks {key:?}: {}", json.body);
    }
    let histograms = parsed.get("histograms").and_then(|h| h.as_array()).expect("histograms");
    assert!(histograms
        .iter()
        .any(|h| h.get("name").and_then(|n| n.as_str()) == Some("serve.batch_size")));
    let unknown = client::get(addr, "/metrics?format=xml").expect("unknown format");
    assert_eq!(unknown.status, 400);

    // Error surfaces: bad JSON, wrong method, unknown route, no reload path.
    let bad = client::post(addr, "/v1/extract", "{not json").expect("bad body");
    assert_eq!(bad.status, 400);
    let wrong = client::get(addr, "/v1/extract").expect("wrong method");
    assert_eq!(wrong.status, 405);
    let missing = client::get(addr, "/nope").expect("unknown route");
    assert_eq!(missing.status, 404);
    let reload = client::post(addr, "/admin/reload", "").expect("reload without path");
    assert_eq!(reload.status, 500);
    let bad_trace =
        client::post(addr, "/v1/extract?trace=2", "{\"text\": \"x\"}").expect("bad trace flag");
    assert_eq!(bad_trace.status, 400);

    stop_server(addr, handle);
}

#[test]
fn deeply_nested_body_gets_400_and_the_server_stays_live() {
    let (addr, _state, handle) = start_server(ServeConfig::default(), None);
    // Just under the 1 MiB body cap of '[': unbounded recursive parsing
    // would overflow the shard's stack and abort the whole process.
    let hostile = "[".repeat(ner_serve::http::MAX_BODY_BYTES - 1);
    let resp = client::post(addr, "/v1/extract", &hostile).expect("hostile body");
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("nesting deeper than"), "{}", resp.body);
    let ok = client::post(addr, "/v1/extract", "{\"text\": \"Dana met Erik in Oslo .\"}")
        .expect("extract after the hostile body");
    assert_eq!(ok.status, 200);
    stop_server(addr, handle);
}

#[test]
fn megabyte_string_body_does_not_stall_its_poll_shard() {
    // One shard parses every body. A just-under-1 MiB string once took
    // that shard tens of seconds to parse, stalling every connection on it.
    let cfg = ServeConfig { poll_shards: 1, ..ServeConfig::default() };
    let (addr, _state, handle) = start_server(cfg, None);
    let body = format!("{{\"pad\":\"{}\"}}", "a".repeat(ner_serve::http::MAX_BODY_BYTES - 16));
    let head = format!("POST /v1/extract HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len());

    let started = std::time::Instant::now();
    let mut big = std::net::TcpStream::connect(addr).expect("connect");
    big.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    big.write_all(head.as_bytes()).expect("write head");
    big.write_all(body.as_bytes()).expect("write body");
    big.flush().unwrap();
    let small = client::post(addr, "/v1/extract", "{\"text\": \"Dana met Erik in Oslo .\"}")
        .expect("small request beside the big body");
    let small_elapsed = started.elapsed();
    let (big_status, _) = read_raw_response(big);
    let big_elapsed = started.elapsed();

    assert_eq!(small.status, 200);
    assert_eq!(big_status, 400, "a body without \"text\" is a bad request");
    let limit = Duration::from_secs(2);
    assert!(small_elapsed < limit, "small request answered after {small_elapsed:?}");
    assert!(big_elapsed < limit, "big body answered after {big_elapsed:?}");
    stop_server(addr, handle);
}

#[test]
fn every_extraction_response_carries_a_unique_trace_id() {
    let (addr, _state, handle) = start_server(ServeConfig::default(), None);

    let mut ids: Vec<String> = Vec::new();
    let mut take_id = |resp: &client::ClientResponse| {
        let id = resp.header("x-trace-id").expect("x-trace-id header").to_string();
        assert_eq!(id.len(), 16, "trace id {id:?} is not 16 hex digits");
        assert!(id.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        ids.push(id);
    };

    let mut conn = client::Conn::connect(addr).expect("connect");
    for i in 0..6 {
        let body = format!("{{\"text\": \"Frank toured museum {i} in Rome .\"}}");
        let resp = conn.post("/v1/extract", &body).expect("extract");
        assert_eq!(resp.status, 200);
        take_id(&resp);
    }
    let resp = conn
        .post("/v1/extract_batch", "{\"texts\": [\"Gina sang .\", \"Hugo danced .\"]}")
        .expect("extract_batch");
    assert_eq!(resp.status, 200);
    take_id(&resp);
    // Error responses are traced too — a 400 still identifies itself.
    let resp = conn.post("/v1/extract", "{broken").expect("bad body");
    assert_eq!(resp.status, 400);
    take_id(&resp);

    let mut unique = ids.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "trace ids must be unique: {ids:?}");

    stop_server(addr, handle);
}

/// Parses the inline `"trace"` object out of a `?trace=1` response body.
fn inline_trace(body: &str) -> ner_obs::trace::TraceRecord {
    let parsed: Value = serde_json::from_str(body).expect("response json");
    let trace = parsed.get("trace").expect("inline trace object");
    serde::Deserialize::deserialize(trace).expect("trace record json")
}

#[test]
fn inline_trace_stage_timings_account_for_the_total() {
    // A few ms of artificial scoring delay (attributed to `batch_form`:
    // it sits between dequeue and the scoring slot) keeps the request
    // long enough that the fixed per-request bookkeeping — channel hops,
    // clock reads — cannot eat the 10% attribution budget by itself.
    let cfg = ServeConfig { score_delay: Duration::from_millis(5), ..ServeConfig::default() };
    let (addr, _state, handle) = start_server(cfg, None);
    let mut conn = client::Conn::connect(addr).expect("connect");

    // The default body must stay byte-identical to offline extraction: no
    // "trace" key unless asked for.
    let resp = conn.post("/v1/extract", "{\"text\": \"Ivy left Lisbon .\"}").expect("extract");
    assert_eq!(resp.status, 200);
    let parsed: Value = serde_json::from_str(&resp.body).expect("json");
    assert!(parsed.get("trace").is_none(), "untraced body grew a trace key: {}", resp.body);

    // `?trace=1` inlines the per-stage record; the pipeline stages plus
    // queue accounting must explain (nearly) all of the wall clock. The
    // gap is scheduler noise, so take the best of a few tries before
    // calling the attribution broken.
    let mut best_gap = f64::INFINITY;
    let mut last = None;
    for i in 0..5 {
        let body = format!("{{\"text\": \"Judy met partner {i} in Kyoto .\"}}");
        let resp = conn.post("/v1/extract?trace=1", &body).expect("traced extract");
        assert_eq!(resp.status, 200);
        let record = inline_trace(&resp.body);
        assert_eq!(Some(record.id.as_str()), resp.header("x-trace-id"));
        assert_eq!(record.endpoint, "/v1/extract");
        assert_eq!(record.status, 200);
        assert!(record.batch_id >= 1, "scored request must carry its batch id");
        assert!(record.batch_size >= 1);
        for stage in ["queue_wait", "batch_form", "featurize", "embed", "encode", "decode"] {
            assert!(
                record.stages.iter().any(|s| s.stage == stage),
                "stage {stage:?} missing from {:?}",
                record.stages
            );
        }
        assert!(record.total_us > 0.0);
        let gap = (record.total_us - record.stage_sum_us()).abs() / record.total_us;
        best_gap = best_gap.min(gap);
        last = Some(record);
    }
    assert!(
        best_gap <= 0.10,
        "stage timings leave {:.1}% of the total unattributed: {:?}",
        best_gap * 100.0,
        last
    );

    // A batch request shares one trace across its items: each item
    // contributes its own decode stage to the same record.
    let resp = conn
        .post(
            "/v1/extract_batch?trace=1",
            "{\"texts\": [\"Kim ran .\", \"Lee swam .\", \"Max rowed .\"]}",
        )
        .expect("traced batch");
    assert_eq!(resp.status, 200);
    let record = inline_trace(&resp.body);
    assert_eq!(record.endpoint, "/v1/extract_batch");
    assert_eq!(record.stages.iter().filter(|s| s.stage == "decode").count(), 3);

    stop_server(addr, handle);
}

#[test]
fn flight_recorder_pins_the_slowest_request() {
    // Serial scoring with an artificial per-batch delay: later arrivals
    // queue behind earlier ones, so the burst produces a wide spread of
    // totals with a clear slowest request.
    let cfg = ServeConfig {
        max_batch: 1,
        score_delay: Duration::from_millis(40),
        ..ServeConfig::default()
    };
    let (addr, _state, handle) = start_server(cfg, None);

    let mine: Vec<(String, f64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|i| {
                scope.spawn(move || {
                    let body = format!("{{\"text\": \"recorder probe {i} .\"}}");
                    let resp =
                        client::post(addr, "/v1/extract?trace=1", &body).expect("traced extract");
                    assert_eq!(resp.status, 200, "body: {}", resp.body);
                    let record = inline_trace(&resp.body);
                    (record.id, record.total_us)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread")).collect()
    });
    let (slowest_id, slowest_us) =
        mine.iter().max_by(|a, b| a.1.total_cmp(&b.1)).cloned().expect("eight results");
    // With a 40ms serial floor per request the worst of eight must be slow.
    assert!(slowest_us >= 40_000.0, "slowest request took only {slowest_us}µs");

    let resp = client::get(addr, "/admin/trace").expect("admin trace");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/json"));
    let snap: ner_obs::trace::FlightSnapshot =
        serde_json::from_str(&resp.body).expect("flight snapshot json");

    // The slowest list is ordered, and pinning holds: nothing in the
    // recent ring may be slower than the slowest pinned trace.
    assert!(!snap.slowest.is_empty());
    for pair in snap.slowest.windows(2) {
        assert!(pair[0].total_us >= pair[1].total_us);
    }
    let ring_max = snap.recent.iter().map(|r| r.total_us).fold(0.0, f64::max);
    assert!(ring_max <= snap.slowest[0].total_us);
    // And the burst's genuinely slowest request survived the churn.
    assert!(
        snap.slowest.iter().any(|r| r.id == slowest_id),
        "slowest request {slowest_id} ({slowest_us}µs) missing from {:?}",
        snap.slowest.iter().map(|r| (&r.id, r.total_us)).collect::<Vec<_>>()
    );

    stop_server(addr, handle);
}

/// Reads one HTTP response off a raw socket: status code and whether the
/// server closed the connection afterwards. For the hostile-client tests
/// that drive sockets directly instead of through the client module.
fn read_raw_response(stream: std::net::TcpStream) -> (u16, bool) {
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length value");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    // EOF after the body means the server closed the connection; probe
    // briefly so a keep-alive socket doesn't hold the test for its full
    // read timeout.
    reader.get_ref().set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    let closed = matches!(reader.read(&mut [0u8; 1]), Ok(0));
    (status, closed)
}

#[test]
fn dribbled_body_is_waited_for_not_dropped() {
    // Regression for the slow-body drop: the old blocking reader's 250 ms
    // socket poll surfaced as an I/O error mid-`read_exact`, so a client
    // pausing longer than that between headers and body was disconnected
    // without a response. The poll loop must wait (the per-request read
    // deadline, default 10 s, is the only bound).
    let (addr, state, handle) = start_server(ServeConfig::default(), None);
    let body = "{\"text\": \"Pat ran home .\"}";

    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let head = format!(
        "POST /v1/extract HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.flush().unwrap();
    // Well past the old 250 ms poll window.
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(body.as_bytes()).expect("write dribbled body");
    stream.flush().unwrap();
    let (status, _) = read_raw_response(stream);
    assert_eq!(status, 200, "a 400 ms body pause must not drop the connection");

    // Same request again, body split mid-JSON this time.
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(&body.as_bytes()[..5]).expect("first body fragment");
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(&body.as_bytes()[5..]).expect("second body fragment");
    stream.flush().unwrap();
    let (status, _) = read_raw_response(stream);
    assert_eq!(status, 200, "a split body must reassemble");

    drop(state);
    stop_server(addr, handle);
}

#[test]
fn slowloris_partial_headers_get_408_and_the_server_stays_live() {
    // A head that never finishes must be answered 408 and closed once the
    // per-request read deadline expires — one buffered parser per socket,
    // no thread held hostage — while well-behaved clients keep being
    // served throughout.
    let cfg = ServeConfig { read_timeout: Duration::from_millis(300), ..ServeConfig::default() };
    let (addr, _state, handle) = start_server(cfg, None);

    let mut loris = std::net::TcpStream::connect(addr).expect("connect");
    loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    loris.write_all(b"POST /v1/extract HTTP/1.1\r\ncontent-le").expect("partial head");
    loris.flush().unwrap();

    // While the slowloris connection dangles, normal traffic flows.
    let resp = client::post(addr, "/v1/extract", "{\"text\": \"Sam kept serving .\"}")
        .expect("concurrent request");
    assert_eq!(resp.status, 200);

    let (status, closed) = read_raw_response(loris);
    assert_eq!(status, 408, "an unfinished head must time out with 408");
    assert!(closed, "a timed-out connection must be closed");

    // A head dribbled *within* the deadline still completes: the timeout
    // bounds the whole request read, it is not a per-read trigger.
    let mut slow = std::net::TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    slow.write_all(b"GET /healthz HTT").expect("fragment");
    slow.flush().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    slow.write_all(b"P/1.1\r\n\r\n").expect("rest");
    slow.flush().unwrap();
    let (status, _) = read_raw_response(slow);
    assert_eq!(status, 200);

    stop_server(addr, handle);
}

#[test]
fn client_disconnect_while_queued_is_harmless() {
    // A client that hangs up while its request waits for the scorer
    // exercises the reply-channel send-failure path: the dispatcher's
    // answer has nowhere to go and must be dropped without disturbing
    // anything else in the batch.
    let cfg = ServeConfig {
        max_batch: 1,
        replicas: 1,
        score_delay: Duration::from_millis(120),
        ..ServeConfig::default()
    };
    let (addr, _state, handle) = start_server(cfg, None);

    // Occupy the single dispatcher so the deserter's request queues.
    let occupant = std::thread::spawn(move || {
        let resp = client::post(addr, "/v1/extract", "{\"text\": \"first in line .\"}")
            .expect("occupant request");
        assert_eq!(resp.status, 200);
    });
    std::thread::sleep(Duration::from_millis(30));
    for i in 0..4 {
        let mut deserter = std::net::TcpStream::connect(addr).expect("connect");
        let body = format!("{{\"text\": \"deserter {i} gives up .\"}}");
        let head = format!(
            "POST /v1/extract HTTP/1.1\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        deserter.write_all(head.as_bytes()).expect("write request");
        deserter.flush().unwrap();
        // Hang up without reading the response.
        drop(deserter);
    }
    occupant.join().expect("occupant thread");

    // The server shrugged it off: later requests still score correctly.
    let resp = client::post(addr, "/v1/extract", "{\"text\": \"still standing .\"}")
        .expect("post-desertion request");
    assert_eq!(resp.status, 200);
    stop_server(addr, handle);
}

#[test]
fn shutdown_racing_http_traffic_loses_no_accepted_request() {
    // Fire shutdown into the middle of live traffic. Every request that
    // gets an HTTP response must be whole: 200 with a full payload, or an
    // orderly rejection (503 draining, 429 shed, 408 expired). A connection
    // error is only legitimate for a request the server never accepted
    // (the socket closed between requests during drain).
    let cfg = ServeConfig {
        max_batch: 4,
        score_delay: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let (addr, state, handle) = start_server(cfg, None);
    let offline = state.pipeline();

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..6)
            .map(|worker| {
                let offline = &offline;
                scope.spawn(move || {
                    let mut served = 0usize;
                    'outer: loop {
                        let Ok(mut conn) = client::Conn::connect(addr) else { break };
                        loop {
                            let text = format!("Racer {worker} lap {served} in Madrid .");
                            let body = format!("{{\"text\": \"{text}\"}}");
                            match conn.post("/v1/extract", &body) {
                                Ok(resp) => match resp.status {
                                    200 => {
                                        let parsed: Value = serde_json::from_str(&resp.body)
                                            .expect("a 200 during shutdown must be whole");
                                        assert_eq!(parsed, offline_payload(offline, &text));
                                        served += 1;
                                    }
                                    503 => break 'outer,
                                    429 | 408 => {}
                                    other => panic!("unexpected status {other} during drain"),
                                },
                                // The drain closed this keep-alive socket
                                // between requests; try a fresh connection
                                // (refused once the listener is gone).
                                Err(_) => break,
                            }
                        }
                    }
                    served
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(60));
        let resp = client::post(addr, "/admin/shutdown", "").expect("shutdown");
        assert_eq!(resp.status, 200);
        let served: usize = workers.into_iter().map(|w| w.join().expect("racer")).sum();
        assert!(served > 0, "some pre-shutdown traffic must have been served");
    });
    handle.join().expect("server drains and exits");
}

#[test]
fn a_scored_reply_wakes_its_blocked_shard() {
    // The shard that submitted an extraction blocks until the dispatcher
    // wakes it. Without that wake it would only notice the reply when the
    // request's 10 s deadline timer fires, still answering 200.
    let (addr, _state, handle) = start_server(ServeConfig::default(), None);
    std::thread::sleep(Duration::from_millis(100));
    let t0 = std::time::Instant::now();
    let resp =
        client::post(addr, "/v1/extract", "{\"text\": \"Ann met Bo in Oslo .\"}").expect("extract");
    assert_eq!(resp.status, 200);
    assert!(t0.elapsed() < Duration::from_secs(2), "the reply took {:?}", t0.elapsed());
    stop_server(addr, handle);
}

#[test]
fn shutdown_from_another_thread_wakes_an_idle_server() {
    // No connection and no request: every poll shard is blocked in its
    // wait with no timeout. `begin_shutdown` from outside the router must
    // still wake them, or `run` never returns.
    let (_addr, state, handle) = start_server(ServeConfig::default(), None);
    std::thread::sleep(Duration::from_millis(100));
    let t0 = std::time::Instant::now();
    std::thread::spawn(move || state.begin_shutdown()).join().expect("shutdown thread");
    while !handle.is_finished() {
        assert!(t0.elapsed() < Duration::from_secs(1), "the server did not stop within 1 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.join().expect("server thread");
}

#[test]
fn replicas_serve_identically_and_reload_swaps_them_all() {
    // Four replicas, four dispatchers: every response must match replica
    // 0's offline extraction, and a reload must swap *all* replicas — a
    // stale replica would keep answering with the old model's predictions.
    let ckpt_path =
        std::env::temp_dir().join(format!("ner-serve-swap-test-{}.json", std::process::id()));
    // The checkpoint on disk is a *different* model (different seed), so a
    // replica that misses the swap is detectable.
    let incoming = tiny_pipeline_seeded(23);
    Checkpoint::capture(&incoming).save(&ckpt_path).expect("save checkpoint");

    let cfg = ServeConfig { replicas: 4, max_batch: 2, ..ServeConfig::default() };
    let (addr, state, handle) = start_server(cfg, Some(ckpt_path.clone()));
    let offline = state.pipeline();

    let texts: Vec<String> =
        (0..24).map(|i| format!("Nora Qvist opened branch {i} in Geneva .")).collect();
    std::thread::scope(|scope| {
        for chunk in texts.chunks(6) {
            let offline = &offline;
            scope.spawn(move || {
                for text in chunk {
                    let body = format!("{{\"text\": \"{}\"}}", json_escape(text));
                    let resp = client::post(addr, "/v1/extract", &body).expect("extract");
                    assert_eq!(resp.status, 200);
                    let parsed: Value = serde_json::from_str(&resp.body).expect("json");
                    assert_eq!(
                        parsed,
                        offline_payload(offline, text),
                        "a replica diverged from replica 0 on {text:?}"
                    );
                }
            });
        }
    });

    let resp = client::post(addr, "/admin/reload", "").expect("reload");
    assert_eq!(resp.status, 200);
    assert_eq!(state.reload_count(), 1);

    // Enough traffic to hit every dispatcher: all answers must now come
    // from the new model.
    std::thread::scope(|scope| {
        for chunk in texts.chunks(6) {
            let incoming = &incoming;
            scope.spawn(move || {
                for text in chunk {
                    let body = format!("{{\"text\": \"{}\"}}", json_escape(text));
                    let resp = client::post(addr, "/v1/extract", &body).expect("extract");
                    assert_eq!(resp.status, 200);
                    let parsed: Value = serde_json::from_str(&resp.body).expect("json");
                    assert_eq!(
                        parsed,
                        offline_payload(incoming, text),
                        "a replica kept the old model after reload for {text:?}"
                    );
                }
            });
        }
    });

    stop_server(addr, handle);
    let _ = std::fs::remove_file(ckpt_path);
}
