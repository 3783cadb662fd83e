//! # ner-serve — the HTTP serving layer of `neural-ner`
//!
//! The survey's future-work call is an *easy-to-use, end-to-end* NER
//! toolkit; this crate is the "end" of end-to-end: it loads a
//! [`Checkpoint`](ner_core::persist::Checkpoint) and serves it over a
//! dependency-free HTTP/1.1 server built on `std::net` and the Linux
//! `epoll`/`eventfd` calls, so serving is Linux-only.
//!
//! ## The sharded event loop
//!
//! Connections are not threads. A fixed set of `poll_shards` I/O threads
//! each block in `epoll_wait` over the shared listener, the connections
//! they accepted, a `Waker` and the shutdown signal. A shard drives its
//! connections with nonblocking reads and writes, feeding bytes to a
//! per-connection incremental [`http::RequestParser`] and writing
//! pipelined responses in request order. A slow client costs a buffer,
//! not a blocked thread, and an idle one costs no CPU; a client that
//! dribbles one request past `read_timeout` gets `408`, and idle
//! keep-alives are reaped after 30 s. Routing is nonblocking too:
//! extraction requests come back from the [`router`] as pending handles,
//! and the dispatcher that answers one wakes its shard, so the event loop
//! never waits on the scorer.
//!
//! ## Replicated dynamic micro-batching
//!
//! The throughput device is the [`batcher::Batcher`] over `replicas`
//! pipeline replicas. Shards enqueue raw texts onto a bounded queue; one
//! dispatcher per replica drains up to `max_batch` requests the moment it
//! is free — batches widen from what accumulates while the previous batch
//! scores, never by holding the scorer idle — and scores them together
//! with one
//! [`NerPipeline::extract_batch`](ner_core::prelude::NerPipeline::extract_batch)
//! call on its **own** replica: parameters restored bit-identically from
//! one checkpoint, but a private compiled plan and token-feature cache,
//! so the scoring hot path touches no shared lock.
//! `extract_batch` packs the batch into padded `[B,T]` buckets whose
//! backend is bit-identical to per-sentence evaluation, so a batched
//! response from any replica is **byte-identical** to scoring the same
//! text alone — concurrency buys throughput, never different answers.
//! The `exp_serving` soak harness and this crate's integration tests
//! verify that equivalence over a real socket, including under overload.
//!
//! ## Request tracing
//!
//! Every request gets a [`ner_obs::trace::TraceCtx`] at ingress. The
//! batcher stamps queue wait and batch id/size onto it, the scoring
//! dispatcher installs it thread-locally so the model's per-stage
//! `infer.{featurize,embed,encode,decode}_us` timings attribute to the
//! owning request, and the router seals it into a
//! [`TraceRecord`](ner_obs::trace::TraceRecord). Extraction responses
//! carry the id as an `x-trace-id` header; `?trace=1` inlines the full
//! per-stage record; `GET /admin/trace` dumps the always-on flight
//! recorder (last-N completed traces, slowest-K pinned).
//!
//! ## Overload & operations
//!
//! * **SLO-aware admission**: each request carries a deadline into the
//!   batcher, which predicts its completion from an EWMA of measured
//!   per-row scoring cost, the queue backlog, and the replica count — a
//!   request predicted to miss its deadline or the `slo_p99` budget is
//!   shed with `429` + `Retry-After` at the door, keeping the queue
//!   shallow enough that accepted requests meet their SLO;
//! * the bounded queue is a hard backstop (overflow → `429`); a request
//!   whose deadline passes while queued → `408` without being scored;
//! * `GET /healthz` liveness, `GET /metrics` Prometheus text exposition
//!   of the live `ner-obs` registry (`serve.queue_depth`,
//!   `serve.batch_size`, `serve.queue_wait_us`, `serve.row_cost_us`,
//!   `serve.shed_slo`, the `infer.*` family, …) — `?format=json` for the
//!   JSON form;
//! * `POST /admin/reload` rebuilds **all** replicas from a freshly
//!   restored checkpoint and flips them atomically behind a generation
//!   counter — in-flight batches finish on the old model, and no two
//!   replicas ever serve different models to the same batch;
//! * `POST /admin/shutdown` drains gracefully: accepting stops, live
//!   connections finish what they started, everything the batcher
//!   accepted is answered, then [`server::Server::run`] returns.
//!
//! Wired into the CLI as `neural-ner serve --ckpt model.json --addr
//! 127.0.0.1:8080 [--replicas N] [--poll-shards S] [--max-batch N]
//! [--queue-cap Q] [--slo-ms B] [--timeout-ms D] [--read-timeout-ms R]
//! [--threads K] [--trace-ring N]`.

#![warn(missing_docs)]

pub mod batcher;
pub mod http;
pub mod prometheus;
pub mod router;
pub mod server;
pub mod state;
mod sys;

pub use server::{client, Server};
pub use state::{ServeConfig, ServeState};

/// Shared fixture for this crate's unit tests: a tiny untrained pipeline
/// (deterministic predictions are all the serving layer needs).
#[cfg(test)]
pub(crate) mod test_support {
    use ner_core::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
    use ner_core::model::NerModel;
    use ner_core::prelude::NerPipeline;
    use ner_core::repr::SentenceEncoder;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use ner_text::TagScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    pub fn tiny_pipeline() -> NerPipeline {
        let mut rng = StdRng::seed_from_u64(7);
        let ds = NewsGenerator::new(GeneratorConfig::default()).dataset(&mut rng, 30);
        let encoder = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let cfg = NerConfig {
            scheme: TagScheme::Bio,
            word: WordRepr::Random { dim: 8 },
            char_repr: CharRepr::None,
            encoder: EncoderKind::Lstm { hidden: 8, bidirectional: false, layers: 1 },
            decoder: DecoderKind::Crf,
            dropout: 0.0,
            ..NerConfig::default()
        };
        let model = NerModel::new(cfg, &encoder, None, &mut rng);
        NerPipeline::new(encoder, model)
    }
}
