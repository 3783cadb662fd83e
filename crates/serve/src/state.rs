//! State shared by every poll-loop shard and dispatcher: the sharded,
//! hot-swappable pipeline replicas, the serving configuration, and
//! lifecycle flags.

use crate::sys::EventFd;
use ner_core::persist::Checkpoint;
use ner_core::prelude::NerPipeline;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tunables for the serving layer. The CLI flags map onto these 1:1.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Largest batch a dispatcher scores in one `extract_batch` call.
    pub max_batch: usize,
    /// Hard backstop on queue depth; requests beyond it get 429 +
    /// `Retry-After` regardless of what the SLO model predicts.
    pub queue_cap: usize,
    /// Per-request deadline: a request that has not been scored this long
    /// after arrival is answered 408 instead (queued or in flight).
    pub request_timeout: Duration,
    /// Tail-latency budget for SLO-aware admission: a request whose
    /// predicted completion (queue backlog × measured per-row cost ÷
    /// replicas) would overshoot this budget — or its own deadline — is
    /// shed with 429 at submit time, before it can rot in the queue.
    pub slo_p99: Duration,
    /// Pipeline replicas: dispatcher threads, each owning its own
    /// compiled plan and token-feature cache, so scoring never contends on
    /// a shared lock.
    pub replicas: usize,
    /// Poll-loop shards: connection I/O threads, each owning a subset of
    /// the live sockets.
    pub poll_shards: usize,
    /// Overall per-request read deadline (request line through last body
    /// byte). Slow-loris heads and dribbled bodies are answered 408 when
    /// it expires; pauses shorter than this never drop a connection.
    pub read_timeout: Duration,
    /// Artificial per-batch scoring delay — load-test instrumentation for
    /// exercising overload behaviour with a fast model. Zero in production.
    pub score_delay: Duration,
    /// How many recently completed request traces the flight recorder
    /// ring retains for `GET /admin/trace`.
    pub trace_recent: usize,
    /// How many slowest traces stay pinned alongside the ring.
    pub trace_slowest: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 32,
            queue_cap: 1024,
            request_timeout: Duration::from_secs(10),
            slo_p99: Duration::from_secs(10),
            replicas: 1,
            poll_shards: 2,
            read_timeout: Duration::from_secs(10),
            score_delay: Duration::ZERO,
            trace_recent: ner_obs::trace::DEFAULT_RECENT_CAP,
            trace_slowest: ner_obs::trace::DEFAULT_SLOWEST_CAP,
        }
    }
}

/// Shared, thread-safe serving state.
///
/// The deployed model lives as `replicas` independent [`NerPipeline`]s,
/// each rebuilt from the same checkpoint so their parameters — and
/// therefore their predictions — are bit-identical, while their compiled
/// plans and token-feature caches are private. A dispatcher pins one
/// replica and touches no shared lock while scoring: it holds a cached
/// `Arc` and re-fetches only when the [`generation`] counter says a reload
/// happened.
///
/// [`generation`]: ServeState::generation
pub struct ServeState {
    /// One slot per replica. The `Mutex` is only taken at fetch/swap time
    /// — never on the scoring hot path, which runs on a cached `Arc`.
    replicas: Vec<Mutex<Arc<NerPipeline>>>,
    /// Bumped once per completed swap, *after* every slot holds the fresh
    /// pipeline — dispatchers watching it switch atomically between
    /// batches, never mid-batch.
    generation: AtomicU64,
    /// Where `/admin/reload` restores from (`None` disables reload).
    ckpt_path: Option<PathBuf>,
    /// The serving tunables.
    pub config: ServeConfig,
    /// Set when a graceful shutdown has been requested.
    shutting_down: AtomicBool,
    /// Signalled with `shutting_down`: every poll shard watches it, so a
    /// shutdown from any thread wakes shards blocked on idle sockets.
    shutdown_signal: EventFd,
    /// Completed reloads since boot.
    reloads: AtomicU64,
}

impl ServeState {
    /// Wraps a pipeline for serving, cloning it into
    /// `config.replicas` independent replicas (each with its own plan and
    /// caches). `ckpt_path` enables `/admin/reload`.
    pub fn new(
        pipeline: NerPipeline,
        ckpt_path: Option<PathBuf>,
        config: ServeConfig,
    ) -> Arc<ServeState> {
        // The flight recorder is process-global; the serving layer is its
        // only producer, so sizing it from the serve config is sound.
        ner_obs::trace::configure_flight_recorder(config.trace_recent, config.trace_slowest);
        let n = config.replicas.max(1);
        let mut replicas = Vec::with_capacity(n);
        let template = Checkpoint::capture(&pipeline);
        replicas.push(Mutex::new(Arc::new(pipeline)));
        for _ in 1..n {
            replicas.push(Mutex::new(Arc::new(restore_replica(&template))));
        }
        Arc::new(ServeState {
            replicas,
            generation: AtomicU64::new(1),
            ckpt_path,
            config,
            shutting_down: AtomicBool::new(false),
            shutdown_signal: EventFd::new().expect("an eventfd for the shutdown signal"),
            reloads: AtomicU64::new(0),
        })
    }

    /// How many pipeline replicas are deployed.
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// The current swap generation. Dispatchers compare this (one atomic
    /// load per batch) against the generation their cached `Arc` was
    /// fetched at, and call [`replica`](ServeState::replica) again only
    /// when it moved — the hot path never takes a lock.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Fetches replica `index`'s current pipeline with the generation it
    /// belongs to. Callers hold the returned `Arc` for the whole batch
    /// they score, so a concurrent reload cannot pull the model out from
    /// under them.
    pub fn replica(&self, index: usize) -> (u64, Arc<NerPipeline>) {
        let gen = self.generation();
        let slot = &self.replicas[index % self.replicas.len()];
        (gen, Arc::clone(&slot.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// The current pipeline (replica 0) — the reference for parity checks
    /// and admin introspection.
    pub fn pipeline(&self) -> Arc<NerPipeline> {
        self.replica(0).1
    }

    /// Atomically replaces the served pipeline across **all** replicas:
    /// every slot is rebuilt from the new model's checkpoint, then the
    /// generation bumps once, so dispatchers switch together at their next
    /// batch boundary. In-flight batches finish on the old model.
    pub fn swap_pipeline(&self, fresh: NerPipeline) {
        let template = Checkpoint::capture(&fresh);
        let mut incoming = Vec::with_capacity(self.replicas.len());
        incoming.push(Arc::new(fresh));
        for _ in 1..self.replicas.len() {
            incoming.push(Arc::new(restore_replica(&template)));
        }
        for (slot, fresh) in self.replicas.iter().zip(incoming) {
            *slot.lock().unwrap_or_else(|e| e.into_inner()) = fresh;
        }
        self.generation.fetch_add(1, Ordering::Release);
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Restores the checkpoint from disk and swaps it into every replica.
    /// Returns the reload count after the swap.
    pub fn reload_from_disk(&self) -> Result<u64, String> {
        let path = self.ckpt_path.as_ref().ok_or("no checkpoint path configured")?;
        let fresh = Checkpoint::load(path)
            .map_err(|e| format!("cannot load {}: {e}", path.display()))?
            .restore()
            .map_err(|e| format!("cannot restore {}: {e}", path.display()))?;
        self.swap_pipeline(fresh);
        ner_obs::counter("serve.reloads", 1.0);
        Ok(self.reloads.load(Ordering::Relaxed))
    }

    /// Completed reloads since boot.
    pub fn reload_count(&self) -> u64 {
        self.reloads.load(Ordering::Relaxed)
    }

    /// Flags the server as draining and wakes its poll shards; new
    /// requests are refused with 503. Callable from any thread.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        self.shutdown_signal.signal();
    }

    /// The fd [`begin_shutdown`](ServeState::begin_shutdown) makes
    /// readable, for the poll shards' epoll sets.
    pub(crate) fn shutdown_fd(&self) -> std::os::fd::RawFd {
        self.shutdown_signal.fd()
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }
}

/// Rebuilds one replica from a captured checkpoint. Restoration is exact —
/// the replica's parameters are byte-for-byte the template's, so replicas
/// cannot diverge — only its plan, caches, and buffers are private.
fn restore_replica(template: &Checkpoint) -> NerPipeline {
    let copy = Checkpoint {
        config: template.config.clone(),
        encoder: template.encoder.clone(),
        params: template.params.clone(),
    };
    copy.restore().expect("a captured checkpoint must restore onto its own architecture")
}
