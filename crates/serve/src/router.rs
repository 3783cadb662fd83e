//! Maps parsed requests onto the serving endpoints.
//!
//! | route                    | behaviour                                      |
//! |--------------------------|------------------------------------------------|
//! | `POST /v1/extract`       | `{"text": …}` → one annotated sentence         |
//! | `POST /v1/extract_batch` | `{"texts": […]}` → one result per text         |
//! | `GET /healthz`           | liveness + drain status                        |
//! | `GET /metrics`           | Prometheus exposition (`?format=json` for JSON)|
//! | `GET /admin/trace`       | flight-recorder dump (recent + slowest traces) |
//! | `POST /admin/reload`     | atomically swap the checkpoint into all replicas |
//! | `POST /admin/shutdown`   | begin graceful drain                           |
//!
//! Routing is **nonblocking**: `dispatch` either answers immediately
//! ([`Routed::Done`] — admin and introspection routes, and every error
//! path) or submits the texts to the [`Batcher`] and hands back a
//! [`PendingExtract`] ([`Routed::Pending`]). The dispatcher that answers
//! it wakes the poll shard that submitted it, which then polls it. No
//! connection ever holds a thread hostage waiting for the scorer.
//!
//! Every extraction response — success or error — carries the request's
//! trace id as an `x-trace-id` header, and `?trace=1` inlines the full
//! per-stage [`TraceRecord`](ner_obs::trace::TraceRecord) into the JSON
//! body under a `"trace"` key (the default body is unchanged, preserving
//! byte-identity with offline extraction).

use crate::batcher::{Batcher, Outcome, SubmitError};
use crate::http::{Request, Response};
use crate::prometheus;
use crate::state::ServeState;
use crate::sys::Waker;
use ner_obs::trace::TraceCtx;
use ner_text::Sentence;
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Slack past the request deadline before the router gives up on the
/// reply channel itself: the dispatcher answers `TimedOut` for expired
/// requests, so the slack only covers scheduling skew — we prefer its
/// verdict over racing it.
const DEADLINE_SLACK: Duration = Duration::from_millis(100);

#[derive(Deserialize)]
struct ExtractRequest {
    text: String,
}

#[derive(Deserialize)]
struct ExtractBatchRequest {
    texts: Vec<String>,
}

/// One annotated sentence as the wire format: surface tokens, entity spans
/// (token-index `[start, end)` plus label), and the bracket rendering.
#[derive(Serialize)]
struct ExtractResponse {
    tokens: Vec<String>,
    entities: Vec<ner_text::EntitySpan>,
    render: String,
}

impl ExtractResponse {
    fn from_sentence(s: Sentence) -> ExtractResponse {
        ExtractResponse {
            render: s.render_brackets(),
            tokens: s.tokens.into_iter().map(|t| t.text).collect(),
            entities: s.entities,
        }
    }
}

#[derive(Serialize)]
struct ExtractBatchResponse {
    results: Vec<ExtractResponse>,
}

#[derive(Serialize)]
struct HealthResponse {
    status: String,
    reloads: u64,
}

#[derive(Serialize)]
struct ReloadResponse {
    status: String,
    reloads: u64,
}

/// The result of routing one request.
pub enum Routed {
    /// The response is ready now.
    Done(Response),
    /// The request was accepted by the batcher; poll
    /// [`PendingExtract::poll`] until it yields the response.
    Pending(PendingExtract),
}

/// An extraction in flight: reply channels the dispatchers will answer,
/// polled without blocking from the connection's poll loop.
pub struct PendingExtract {
    /// One receiver per submitted text, in response order.
    receivers: Vec<std::sync::mpsc::Receiver<Outcome>>,
    /// Scored sentences as they resolve (index-aligned with `receivers`).
    scored: Vec<Option<Sentence>>,
    /// `extract_batch` wraps results in `{"results": […]}`; a single
    /// extract answers the bare object.
    batch: bool,
    inline_trace: bool,
    deadline: Instant,
    trace: TraceCtx,
}

impl PendingExtract {
    /// Checks the reply channels; `Some` once the response is ready. Never
    /// blocks. After it yields, further calls would answer 503 — callers
    /// consume the pending on `Some`.
    pub fn poll(&mut self) -> Option<Response> {
        for (i, rx) in self.receivers.iter().enumerate() {
            if self.scored[i].is_some() {
                continue;
            }
            match rx.try_recv() {
                Ok(Outcome::Scored(sentence)) => self.scored[i] = Some(sentence),
                Ok(Outcome::TimedOut) => {
                    return Some(finish_trace(
                        Response::text(408, "request deadline expired"),
                        &self.trace,
                    ));
                }
                Err(std::sync::mpsc::TryRecvError::Empty) => {}
                Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                    // The dispatcher dropped the channel without answering
                    // — only possible if it is gone; surface as
                    // unavailable.
                    return Some(finish_trace(
                        Response::text(503, "scoring backend unavailable"),
                        &self.trace,
                    ));
                }
            }
        }
        if self.scored.iter().all(Option::is_some) {
            return Some(self.render());
        }
        if Instant::now() > self.deadline + DEADLINE_SLACK {
            return Some(finish_trace(
                Response::text(408, "request deadline expired"),
                &self.trace,
            ));
        }
        None
    }

    /// When [`poll`](PendingExtract::poll) gives up on the reply channels
    /// and answers 408 itself, if no reply has come by then.
    pub(crate) fn expires_at(&self) -> Instant {
        self.deadline + DEADLINE_SLACK
    }

    /// Serializes the completed extraction, sealing the trace.
    fn render(&mut self) -> Response {
        let sentences: Vec<Sentence> =
            self.scored.iter_mut().map(|s| s.take().expect("all scored")).collect();
        let mut body = if self.batch {
            ExtractBatchResponse {
                results: sentences.into_iter().map(ExtractResponse::from_sentence).collect(),
            }
            .serialize()
        } else {
            let sentence = sentences.into_iter().next().expect("one scored sentence");
            ExtractResponse::from_sentence(sentence).serialize()
        };
        let record = self.trace.finish(200);
        if self.inline_trace {
            attach_trace(&mut body, &record);
        }
        json_ok(serde_json::to_string(&body)).with_header("x-trace-id", record.id)
    }
}

/// Dispatches one request without blocking. Never panics on malformed
/// input — every error path maps to a 4xx/5xx. `trace` is the per-request
/// context opened at ingress; the extraction routes seal it and stamp its
/// id onto the response. `waker` is the calling poll shard's, woken once
/// a pending extraction's replies arrive.
pub(crate) fn dispatch(
    req: &Request,
    state: &ServeState,
    batcher: &Batcher,
    trace: &TraceCtx,
    waker: Option<&Arc<Waker>>,
) -> Routed {
    match (req.method.as_str(), req.route_path()) {
        ("POST", "/v1/extract") => begin_extract(req, state, batcher, trace, waker, false),
        ("POST", "/v1/extract_batch") => begin_extract(req, state, batcher, trace, waker, true),
        ("GET", "/healthz") => Routed::Done(healthz(state)),
        ("GET", "/metrics") => Routed::Done(metrics(req)),
        ("GET", "/admin/trace") => Routed::Done(admin_trace()),
        ("POST", "/admin/reload") => Routed::Done(reload(state)),
        ("POST", "/admin/shutdown") => Routed::Done(shutdown(state)),
        (_, "/v1/extract" | "/v1/extract_batch" | "/admin/reload" | "/admin/shutdown") => {
            Routed::Done(Response::text(405, "use POST").with_header("allow", "POST"))
        }
        (_, "/healthz" | "/metrics" | "/admin/trace") => {
            Routed::Done(Response::text(405, "use GET").with_header("allow", "GET"))
        }
        _ => Routed::Done(Response::text(404, format!("no route for {}", req.route_path()))),
    }
}

/// Whether the client opted into an inline `"trace"` object. Unknown
/// values are a client error, mirroring `?format=` on `/metrics`.
fn wants_trace(req: &Request) -> Result<bool, Response> {
    match req.query_param("trace") {
        None | Some("0") | Some("false") => Ok(false),
        Some("1") | Some("true") => Ok(true),
        Some(other) => {
            Err(Response::text(400, format!("unknown ?trace= value {other:?} (1|0|true|false)")))
        }
    }
}

/// Seals the trace with the response's status and stamps `x-trace-id`.
fn finish_trace(resp: Response, trace: &TraceCtx) -> Response {
    let record = trace.finish(u64::from(resp.status));
    resp.with_header("x-trace-id", record.id)
}

/// Appends the sealed trace record under a `"trace"` key. The default
/// response body never carries the key, keeping successful extraction
/// bodies byte-identical to offline `extract`.
fn attach_trace(body: &mut Value, record: &ner_obs::trace::TraceRecord) {
    if let Value::Object(fields) = body {
        fields.push(("trace".to_string(), record.serialize()));
    }
}

/// Parses an extraction request and submits its text(s) to the batcher.
/// Each text is its own queue entry, so one large client request still
/// interleaves fairly with concurrent single extractions; the entries are
/// admitted together or not at all. Every entry carries a clone of the
/// same request trace, so stage events from all items accumulate on it
/// (they may overlap in time when items score in parallel).
fn begin_extract(
    req: &Request,
    state: &ServeState,
    batcher: &Batcher,
    trace: &TraceCtx,
    waker: Option<&Arc<Waker>>,
    batch: bool,
) -> Routed {
    let inline_trace = match wants_trace(req) {
        Ok(w) => w,
        Err(resp) => return Routed::Done(finish_trace(resp, trace)),
    };
    let texts: Vec<String> = if batch {
        match parse_body::<ExtractBatchRequest>(req) {
            Ok(p) => p.texts,
            Err(resp) => return Routed::Done(finish_trace(resp, trace)),
        }
    } else {
        match parse_body::<ExtractRequest>(req) {
            Ok(p) => vec![p.text],
            Err(resp) => return Routed::Done(finish_trace(resp, trace)),
        }
    };
    let deadline = Instant::now() + state.config.request_timeout;
    let receivers = match batcher.submit_all(texts, deadline, Some(trace.clone()), waker.cloned()) {
        Ok(receivers) => receivers,
        Err(e) => return Routed::Done(finish_trace(submit_error(e), trace)),
    };
    let scored = receivers.iter().map(|_| None).collect();
    Routed::Pending(PendingExtract {
        receivers,
        scored,
        batch,
        inline_trace,
        deadline,
        trace: trace.clone(),
    })
}

fn submit_error(e: SubmitError) -> Response {
    match e {
        SubmitError::QueueFull => {
            Response::text(429, "queue full, retry shortly").with_header("retry-after", "1")
        }
        SubmitError::Overloaded(predicted) => {
            let retry_s = predicted.as_secs().clamp(1, 30);
            Response::text(
                429,
                format!(
                    "predicted queue wait {:.0}ms exceeds the latency budget, retry shortly",
                    predicted.as_secs_f64() * 1e3
                ),
            )
            .with_header("retry-after", retry_s.to_string())
        }
        SubmitError::TooLarge => {
            Response::text(413, "more texts than the queue holds, split the batch")
        }
        SubmitError::ShuttingDown => Response::text(503, "server is draining"),
    }
}

fn healthz(state: &ServeState) -> Response {
    let status = if state.is_shutting_down() { "draining" } else { "ok" };
    let body = HealthResponse { status: status.to_string(), reloads: state.reload_count() };
    json_ok(serde_json::to_string(&body))
}

/// Renders the live `ner-obs` registry. The default (and
/// `?format=prometheus`) is Prometheus text exposition with `# TYPE`
/// lines and cumulative histogram buckets; `?format=json` returns a JSON
/// object of counters, gauges, and histogram summaries; anything else is
/// a 400.
fn metrics(req: &Request) -> Response {
    match req.query_param("format") {
        None | Some("prometheus") => {
            Response::text(200, prometheus::render()).with_content_type(prometheus::CONTENT_TYPE)
        }
        Some("json") => {
            let pairs = |kv: Vec<(String, f64)>| {
                Value::Object(kv.into_iter().map(|(n, v)| (n, Value::Num(v))).collect())
            };
            let histograms = Value::Array(
                ner_obs::histogram_summaries().iter().map(|h| h.serialize()).collect(),
            );
            let body = Value::Object(vec![
                ("counters".to_string(), pairs(ner_obs::counters())),
                ("gauges".to_string(), pairs(ner_obs::gauges())),
                ("histograms".to_string(), histograms),
            ]);
            json_ok(serde_json::to_string(&body))
        }
        Some(other) => {
            Response::text(400, format!("unknown ?format= value {other:?} (prometheus|json)"))
        }
    }
}

/// Dumps the flight recorder: the last completed traces plus the pinned
/// slowest ones, as one JSON object.
fn admin_trace() -> Response {
    json_ok(serde_json::to_string(&ner_obs::trace::flight_snapshot()))
}

fn reload(state: &ServeState) -> Response {
    if state.is_shutting_down() {
        return Response::text(503, "server is draining");
    }
    match state.reload_from_disk() {
        Ok(reloads) => {
            ner_obs::info(format!("checkpoint reloaded into all replicas (#{reloads})"));
            json_ok(serde_json::to_string(&ReloadResponse {
                status: "reloaded".to_string(),
                reloads,
            }))
        }
        Err(e) => Response::text(500, format!("reload failed: {e}")),
    }
}

fn shutdown(state: &ServeState) -> Response {
    state.begin_shutdown();
    ner_obs::info("shutdown requested; draining");
    Response::text(200, "draining")
}

fn parse_body<T: Deserialize>(req: &Request) -> Result<T, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| Response::text(400, "body is not UTF-8"))?;
    serde_json::from_str(text).map_err(|e| Response::text(400, format!("bad request body: {e}")))
}

fn json_ok(body: Result<String, serde_json::Error>) -> Response {
    match body {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::text(500, format!("serialization error: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpVersion;
    use crate::state::ServeConfig;
    use crate::test_support::tiny_pipeline;
    use std::sync::Arc;

    /// Polls a routed extraction until its response is ready.
    fn resolve(routed: Routed) -> Response {
        let mut pending = match routed {
            Routed::Done(resp) => return resp,
            Routed::Pending(pending) => pending,
        };
        loop {
            if let Some(resp) = pending.poll() {
                return resp;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_batch_is_admitted_whole_or_not_at_all() {
        // A slow first row holds the only dispatcher and a second request
        // takes one of the two queue slots, so a 2-text batch cannot fit.
        // It must be refused whole: admitting its first text before
        // refusing the second would leave that row to be scored for nobody.
        let cfg = ServeConfig {
            queue_cap: 2,
            max_batch: 1,
            replicas: 1,
            score_delay: Duration::from_millis(300),
            ..ServeConfig::default()
        };
        let state = ServeState::new(tiny_pipeline(), None, cfg);
        let batcher = Batcher::start(Arc::clone(&state));
        let route = |path: &str, body: String, trace: &TraceCtx| {
            let req = Request {
                method: "POST".into(),
                path: path.into(),
                version: HttpVersion::Http11,
                headers: Vec::new(),
                body: body.into_bytes(),
            };
            dispatch(&req, &state, &batcher, trace, None)
        };
        let extract = |text: &str| {
            route("/v1/extract", format!("{{\"text\": \"{text}\"}}"), &TraceCtx::new("/v1/extract"))
        };
        let busy = extract("Alice went to Paris .");
        // Give the dispatcher time to claim the first row, so one queue
        // slot is left and a partial admission could happen. The
        // assertions hold whether or not it has: with both rows still
        // queued the batch does not fit either.
        std::thread::sleep(Duration::from_millis(30));
        let queued = extract("Bob stayed in Rome .");
        let batch_trace = TraceCtx::new("/v1/extract_batch");
        let texts = r#"{"texts": ["Carol flew to Oslo .", "Dan drove to Lima ."]}"#;
        let refused = route("/v1/extract_batch", texts.into(), &batch_trace);
        assert_eq!(resolve(refused).status, 429);
        assert_eq!(resolve(busy).status, 200);
        assert_eq!(resolve(queued).status, 200);
        // One dispatcher drains the queue in order, so a row the refused
        // batch left behind would be scored before this one.
        assert_eq!(resolve(extract("Eve met Frank .")).status, 200);
        assert_eq!(batch_trace.finish(429).batch_id, 0, "a row of the refused batch was scored");

        // More texts than the queue can ever hold: not worth a retry.
        let texts = r#"{"texts": ["a .", "b .", "c ."]}"#;
        let oversized =
            route("/v1/extract_batch", texts.into(), &TraceCtx::new("/v1/extract_batch"));
        assert_eq!(resolve(oversized).status, 413);
    }
}
