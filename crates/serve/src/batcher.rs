//! The dynamic micro-batcher, sharded across pipeline replicas.
//!
//! Poll-loop shards `submit_all` raw texts onto a bounded queue and
//! receive a per-text reply channel, handing over their `Waker` so that a
//! dispatcher which answers them can wake them. A dispatcher wakes each
//! distinct shard of a batch once, after the batch's replies are sent, and
//! only when that shard is blocked or about to block. One dispatcher thread
//! per pipeline replica drains up to `max_batch` requests the moment it is
//! free to score — batches widen work-conservingly, from requests that
//! accumulate while previous batches score, never by holding an idle
//! scorer back — and scores the whole batch with one
//! [`ner_core::inference::NerPipeline::extract_batch`] call on its **own**
//! replica: a private compiled plan and token-feature cache, so
//! concurrent dispatchers never contend on a shared lock. Batching and
//! replication are throughput devices only: every replica's parameters are
//! bit-identical and the batched backend is bit-identical to per-sentence
//! evaluation, so any scheduling of a text yields a byte-identical
//! response.
//!
//! Overload is handled at admission, never by buffering without bound:
//!
//! * **SLO-aware shedding** — each dispatcher feeds an EWMA of measured
//!   per-row scoring cost; `submit` predicts a request's completion time
//!   from the queue backlog, in-flight rows, and replica count, and sheds
//!   ([`SubmitError::Overloaded`] → 429 + `Retry-After`) when the
//!   prediction overshoots the `slo_p99` budget or the request's own
//!   deadline — the queue stays shallow enough that accepted requests
//!   meet their SLO, instead of a deep queue timing everyone out;
//! * the bounded queue is a hard backstop ([`SubmitError::QueueFull`] →
//!   429) for before the cost model has its first measurement;
//! * a request's texts are admitted all at once or not at all
//!   (`submit_all`), so a refusal never leaves part of a request queued
//!   to be scored for nobody; a request with more texts than the queue
//!   holds is refused for good
//!   ([`SubmitError::TooLarge`] → 413);
//! * a request whose deadline passes while queued is answered
//!   [`Outcome::TimedOut`] (→ 408) without being scored;
//! * shutdown stops intake ([`SubmitError::ShuttingDown`] → 503) and the
//!   dispatchers drain every request already accepted before exiting. The
//!   stop flag is checked **under the queue lock** — the same lock the
//!   exiting dispatchers hold for their final-drain check — so a submit
//!   can never slip a request into the queue after the last dispatcher
//!   has decided it is empty (the accepted-but-never-answered race).

use crate::state::ServeState;
use crate::sys::Waker;
use ner_core::plan::stage;
use ner_obs::trace::TraceCtx;
use ner_text::Sentence;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// EWMA weight of the newest per-row cost sample (out of
/// [`EWMA_DENOM`]): the cost model tracks load shifts within a few
/// batches without whipsawing on one slow outlier.
const EWMA_NUM: u64 = 1;
const EWMA_DENOM: u64 = 4;

/// Why a request was not accepted onto the queue.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at its hard capacity — shed load (429).
    QueueFull,
    /// Admission control predicts this request would miss its deadline or
    /// the `slo_p99` budget; the payload is the predicted queue wait (429
    /// + `Retry-After`).
    Overloaded(Duration),
    /// The request has more texts than `queue_cap`, so no retry can ever
    /// admit it (413).
    TooLarge,
    /// The server is draining for shutdown (503).
    ShuttingDown,
}

/// What a dispatcher eventually answers for one accepted request.
#[derive(Debug)]
pub enum Outcome {
    /// The annotated sentence, identical to offline `extract` of the text.
    Scored(Sentence),
    /// The request's deadline expired before it could be scored (408).
    TimedOut,
}

/// One queued request.
struct Pending {
    text: String,
    enqueued: Instant,
    deadline: Instant,
    reply: mpsc::SyncSender<Outcome>,
    /// The owning request's trace, when the caller wants queue-wait and
    /// per-stage scoring timings attributed to it.
    trace: Option<TraceCtx>,
    /// The poll shard to wake once the reply is sent.
    waker: Option<Arc<Waker>>,
}

struct Shared {
    queue: Mutex<VecDeque<Pending>>,
    arrived: Condvar,
    state: Arc<ServeState>,
    stop: AtomicBool,
    /// EWMA of per-row batch service time, in nanoseconds. `0` means no
    /// batch has completed yet — admission stays optimistic until the
    /// first measurement.
    row_cost_ns: AtomicU64,
    /// Rows currently being scored across all dispatchers; part of the
    /// backlog the admission predictor charges a new arrival for.
    inflight_rows: AtomicUsize,
}

impl Shared {
    /// Records one batch's measured per-row cost into the EWMA.
    fn observe_batch_cost(&self, elapsed: Duration, rows: usize) {
        if rows == 0 {
            return;
        }
        let per_row = (elapsed.as_nanos() as u64) / rows as u64;
        let old = self.row_cost_ns.load(Ordering::Relaxed);
        let new = if old == 0 {
            per_row
        } else {
            (old * (EWMA_DENOM - EWMA_NUM) + per_row * EWMA_NUM) / EWMA_DENOM
        };
        // Racy store is fine: any interleaving lands on a recent sample.
        self.row_cost_ns.store(new.max(1), Ordering::Relaxed);
        ner_obs::gauge("serve.row_cost_us", new as f64 / 1e3);
    }

    /// Predicted wait until a request admitted now would start scoring.
    fn predicted_wait(&self, queued: usize) -> Option<Duration> {
        let row_ns = self.row_cost_ns.load(Ordering::Relaxed);
        if row_ns == 0 {
            return None; // no measurement yet: admit optimistically
        }
        let backlog = queued + self.inflight_rows.load(Ordering::Relaxed);
        let replicas = self.state.replica_count().max(1) as u64;
        Some(Duration::from_nanos(row_ns.saturating_mul(backlog as u64) / replicas))
    }
}

/// Handle to the dispatchers; dropping it (or calling
/// [`shutdown`](Batcher::shutdown)) drains the queue and joins the
/// threads.
pub struct Batcher {
    shared: Arc<Shared>,
    dispatchers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Starts one dispatcher thread per pipeline replica of `state`.
    pub fn start(state: Arc<ServeState>) -> Batcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
            state,
            stop: AtomicBool::new(false),
            row_cost_ns: AtomicU64::new(0),
            inflight_rows: AtomicUsize::new(0),
        });
        let dispatchers = (0..shared.state.replica_count())
            .map(|replica| {
                let loop_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ner-serve-batcher-{replica}"))
                    .spawn(move || dispatch_loop(loop_shared, replica))
                    .expect("spawn batcher dispatcher")
            })
            .collect();
        Batcher { shared, dispatchers: Mutex::new(dispatchers) }
    }

    /// Enqueues one text. On success the caller receives the channel a
    /// dispatcher will answer on; wait on it with `recv_timeout` bounded by
    /// the same deadline.
    pub fn submit(
        &self,
        text: String,
        deadline: Instant,
    ) -> Result<mpsc::Receiver<Outcome>, SubmitError> {
        let mut receivers = self.submit_all(vec![text], deadline, None, None)?;
        Ok(receivers.pop().expect("one receiver per text"))
    }

    /// Enqueues every text of one request all at once or not at all: one
    /// queue lock, one capacity check and one SLO prediction (for the last
    /// row), so a refusal never strands part of the request in the queue.
    /// Receivers come back in text order. With a `trace`, the dispatcher
    /// records each entry's queue wait and batch id/size on it, and
    /// installs it while the text scores so the `infer.*` stage timings
    /// attribute to the owning request. With a `waker`, the dispatcher
    /// wakes the caller's poll shard once the replies are sent, so the
    /// shard can block until then instead of polling `try_recv`.
    pub(crate) fn submit_all(
        &self,
        texts: Vec<String>,
        deadline: Instant,
        trace: Option<TraceCtx>,
        waker: Option<Arc<Waker>>,
    ) -> Result<Vec<mpsc::Receiver<Outcome>>, SubmitError> {
        let n = texts.len();
        if n > self.shared.state.config.queue_cap {
            return Err(SubmitError::TooLarge);
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut receivers = Vec::with_capacity(n);
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            // The stop check must happen under the queue lock: dispatchers
            // decide "stopped and drained, exit" while holding it, so a
            // request admitted here is guaranteed a live dispatcher.
            // Checking before taking the lock (as this code once did)
            // loses the request that lands between the final drain and the
            // push — accepted, never answered.
            if self.shared.state.is_shutting_down() || self.shared.stop.load(Ordering::Acquire) {
                return Err(SubmitError::ShuttingDown);
            }
            if queue.len() + n > self.shared.state.config.queue_cap {
                ner_obs::counter("serve.rejected", 1.0);
                return Err(SubmitError::QueueFull);
            }
            // SLO-aware admission: predict when the request's last row
            // would finish and shed it now if that misses its deadline or
            // the p99 budget — a 429 the client can retry beats a 408
            // after rotting in a queue that was never going to drain in
            // time.
            let now = Instant::now();
            if let Some(wait) = self.shared.predicted_wait(queue.len() + n - 1) {
                let misses_deadline = now + wait > deadline;
                let misses_slo = wait > self.shared.state.config.slo_p99;
                if misses_deadline || misses_slo {
                    ner_obs::counter("serve.rejected", 1.0);
                    ner_obs::counter("serve.shed_slo", 1.0);
                    return Err(SubmitError::Overloaded(wait));
                }
            }
            for text in texts {
                let (reply, rx) = mpsc::sync_channel(1);
                let (trace, waker) = (trace.clone(), waker.clone());
                queue.push_back(Pending { text, enqueued: now, deadline, reply, trace, waker });
                receivers.push(rx);
            }
            ner_obs::gauge("serve.queue_depth", queue.len() as f64);
        }
        for _ in 0..n {
            self.shared.arrived.notify_one();
        }
        Ok(receivers)
    }

    /// Stops intake, drains everything already queued, and joins the
    /// dispatchers. Idempotent, and callable from a shared reference so
    /// the server can trigger the drain while poll shards still hold the
    /// batcher.
    pub fn shutdown(&self) {
        {
            // Setting stop under the queue lock orders it against every
            // submit: a submit holding the lock either sees stop and
            // refuses, or completes its push before stop lands — and the
            // dispatchers drain everything pushed before exiting.
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.stop.store(true, Ordering::Release);
        }
        self.shared.arrived.notify_all();
        let mut dispatchers = self.dispatchers.lock().unwrap_or_else(|e| e.into_inner());
        for handle in dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatch_loop(shared: Arc<Shared>, replica: usize) {
    let cfg = shared.state.config.clone();
    // The replica pinned to this dispatcher, cached outside the loop. One
    // atomic generation load per batch detects a reload; the slot lock is
    // taken only then — the scoring hot path holds no shared lock.
    let (mut generation, mut pipeline) = shared.state.replica(replica);
    // Scored-batch ids, unique per process; traces carry them so a slow
    // request can be correlated with its batch mates.
    static BATCH_SEQ: AtomicU64 = AtomicU64::new(0);
    loop {
        // Batching is work-conserving: a dispatcher scores whatever has
        // queued the moment it is free, up to `max_batch` rows. Width is
        // not bought with waiting — it comes from requests that accumulate
        // while previous batches score, and the scorer packs however many
        // there are into one padded [B,T] forward. Holding requests back
        // to grow the batch would only add latency: an idle scorer plus a
        // non-empty queue means nothing is gained by waiting.
        let mut batch: Vec<Pending> = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                let stopping = shared.stop.load(Ordering::Acquire);
                if queue.is_empty() {
                    if stopping {
                        // Drained, and `submit` checks the stop flag under
                        // this same lock: nothing accepted can be lost.
                        return;
                    }
                    // Every submit and the shutdown change the queue state
                    // under this lock and then notify, so an untimed wait
                    // cannot miss a wakeup.
                    queue = shared.arrived.wait(queue).unwrap_or_else(|e| e.into_inner());
                    continue;
                }
                let n = queue.len().min(cfg.max_batch);
                let batch: Vec<Pending> = queue.drain(..n).collect();
                // Count the claimed rows as in-flight before releasing the
                // lock, so admission never sees them vanish from both the
                // queue and the in-flight backlog at once.
                shared.inflight_rows.fetch_add(batch.len(), Ordering::Relaxed);
                ner_obs::gauge("serve.queue_depth", queue.len() as f64);
                break batch;
            }
        };

        // Dequeue is the end of queue wait for everything in the batch —
        // including requests about to be shed as expired (their traces
        // should still show where the time went).
        let now = Instant::now();
        let mut wakes = ShardWakes(Vec::new());
        for p in &mut batch {
            if let Some(waker) = p.waker.take() {
                if !wakes.0.iter().any(|w| Arc::ptr_eq(w, &waker)) {
                    wakes.0.push(waker);
                }
            }
            let wait_us = now.duration_since(p.enqueued).as_secs_f64() * 1e6;
            ner_obs::observe("serve.queue_wait_us", wait_us);
            if let Some(trace) = &p.trace {
                trace.stage(stage::QUEUE_WAIT, wait_us);
                trace.mark(stage::MARK_DEQUEUE);
            }
        }
        // Expired requests are answered without being scored; the rest
        // form the scoring batch.
        let (expired, live): (Vec<Pending>, Vec<Pending>) =
            batch.into_iter().partition(|p| p.deadline <= now);
        if !expired.is_empty() {
            shared.inflight_rows.fetch_sub(expired.len(), Ordering::Relaxed);
        }
        for p in expired {
            ner_obs::counter("serve.timeouts", 1.0);
            let _ = p.reply.send(Outcome::TimedOut);
        }
        if live.is_empty() {
            continue;
        }

        if !cfg.score_delay.is_zero() {
            std::thread::sleep(cfg.score_delay);
        }
        let batch_seq = BATCH_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
        for p in &live {
            if let Some(trace) = &p.trace {
                trace.set_batch(batch_seq, live.len() as u64);
            }
        }
        // A reload bumps the generation after refilling every slot;
        // batches never switch models mid-flight, and all replicas move
        // together at their next batch boundary.
        if shared.state.generation() != generation {
            let (fresh_gen, fresh) = shared.state.replica(replica);
            generation = fresh_gen;
            pipeline = fresh;
        }
        let texts: Vec<&str> = live.iter().map(|p| p.text.as_str()).collect();
        let traces: Vec<Option<TraceCtx>> = live.iter().map(|p| p.trace.clone()).collect();
        let scored = pipeline.extract_batch_traced(&texts, &traces);
        let done = Instant::now();
        shared.observe_batch_cost(done.duration_since(now), live.len());
        shared.inflight_rows.fetch_sub(live.len(), Ordering::Relaxed);
        ner_obs::observe("serve.batch_size", scored.len() as f64);

        for (pending, sentence) in live.into_iter().zip(scored) {
            ner_obs::observe(
                "serve.request_us",
                done.duration_since(pending.enqueued).as_secs_f64() * 1e6,
            );
            ner_obs::counter("serve.requests", 1.0);
            // A send error means the client already gave up (e.g. it
            // disconnected and the poll loop dropped the receiver); the
            // result is simply dropped.
            let _ = pending.reply.send(Outcome::Scored(sentence));
        }
    }
}

/// The poll shards behind one batch, each listed once, woken on drop. It
/// drops after the `expired` and `live` requests declared below it, so a
/// shard is woken once every reply it waits for has been sent or its
/// channel dropped — also when scoring unwinds, so a shard never waits
/// out a deadline for a reply that cannot come.
struct ShardWakes(Vec<Arc<Waker>>);

impl Drop for ShardWakes {
    fn drop(&mut self) {
        for waker in &self.0 {
            waker.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServeConfig;
    use crate::test_support::tiny_pipeline;
    use std::time::Duration;

    fn state_with(cfg: ServeConfig) -> Arc<ServeState> {
        ServeState::new(tiny_pipeline(), None, cfg)
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn scores_a_single_request() {
        let state = state_with(ServeConfig::default());
        let batcher = Batcher::start(Arc::clone(&state));
        let rx = batcher.submit("Alice went to Paris .".into(), far_deadline()).unwrap();
        let Outcome::Scored(got) = rx.recv_timeout(Duration::from_secs(5)).unwrap() else {
            panic!("expected a scored outcome");
        };
        assert_eq!(got, state.pipeline().extract("Alice went to Paris ."));
    }

    #[test]
    fn replicated_dispatchers_agree_with_replica_zero() {
        // Four replicas scoring a spread of texts must all answer exactly
        // what replica 0 (the parity oracle) answers offline.
        let state = state_with(ServeConfig { replicas: 4, ..ServeConfig::default() });
        assert_eq!(state.replica_count(), 4);
        let batcher = Batcher::start(Arc::clone(&state));
        let texts: Vec<String> =
            (0..16).map(|i| format!("Alice moved item {i} to Berlin .")).collect();
        let rxs: Vec<_> =
            texts.iter().map(|t| batcher.submit(t.clone(), far_deadline()).unwrap()).collect();
        let oracle = state.pipeline();
        for (text, rx) in texts.iter().zip(rxs) {
            let Outcome::Scored(got) = rx.recv_timeout(Duration::from_secs(10)).unwrap() else {
                panic!("expected a scored outcome");
            };
            assert_eq!(got, oracle.extract(text), "replica diverged on {text:?}");
        }
    }

    #[test]
    fn full_queue_rejects_immediately() {
        // Keep the dispatcher busy with an artificial scoring delay so the
        // queue genuinely fills.
        let cfg = ServeConfig {
            queue_cap: 2,
            max_batch: 1,
            replicas: 1,
            score_delay: Duration::from_millis(100),
            ..ServeConfig::default()
        };
        let batcher = Batcher::start(state_with(cfg));
        let mut accepted = Vec::new();
        let mut rejected = 0;
        for i in 0..8 {
            match batcher.submit(format!("text {i}"), far_deadline()) {
                Ok(rx) => accepted.push(rx),
                Err(e) => {
                    assert_eq!(e, SubmitError::QueueFull);
                    rejected += 1;
                }
            }
        }
        assert!(rejected > 0, "a 2-slot queue must reject some of 8 instant submits");
        // Everything accepted is still answered.
        for rx in accepted {
            assert!(matches!(rx.recv_timeout(Duration::from_secs(10)), Ok(Outcome::Scored(_))));
        }
    }

    #[test]
    fn slo_admission_sheds_predicted_deadline_misses() {
        // 50 ms per single-row batch, one replica, and a 120 ms SLO
        // budget: once the cost model has its first measurement, a deep
        // backlog must be refused at the door instead of queueing up to
        // the 1024-slot hard cap and timing out.
        let cfg = ServeConfig {
            max_batch: 1,
            replicas: 1,
            score_delay: Duration::from_millis(50),
            slo_p99: Duration::from_millis(120),
            ..ServeConfig::default()
        };
        let batcher = Batcher::start(state_with(cfg));
        // Prime the cost model: one scored request establishes the EWMA.
        let rx = batcher.submit("prime the pump .".into(), far_deadline()).unwrap();
        assert!(matches!(rx.recv_timeout(Duration::from_secs(10)), Ok(Outcome::Scored(_))));

        // Now flood: far more work than a 120 ms budget can hold at ~50 ms
        // per row. Admission must shed most of it as Overloaded — with a
        // positive wait prediction — long before the hard queue cap.
        let mut accepted = Vec::new();
        let mut shed = 0;
        for i in 0..24 {
            match batcher.submit(format!("flood {i}"), far_deadline()) {
                Ok(rx) => accepted.push(rx),
                Err(SubmitError::Overloaded(wait)) => {
                    assert!(wait > Duration::ZERO);
                    shed += 1;
                }
                Err(e) => panic!("expected Overloaded, got {e:?}"),
            }
        }
        assert!(shed > 0, "a 120ms budget over ~50ms rows must shed most of a 24-burst");
        assert!(
            accepted.len() <= 8,
            "admission should keep the queue near budget/row_cost, accepted {}",
            accepted.len()
        );
        // Everything admitted is still answered.
        for rx in accepted {
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(10)),
                Ok(Outcome::Scored(_) | Outcome::TimedOut)
            ));
        }
    }

    #[test]
    fn expired_requests_time_out_instead_of_scoring() {
        let cfg = ServeConfig {
            score_delay: Duration::from_millis(50),
            max_batch: 1,
            replicas: 1,
            ..ServeConfig::default()
        };
        let batcher = Batcher::start(state_with(cfg));
        // The first request occupies the dispatcher; the second's deadline
        // expires while it waits in the queue.
        let first = batcher.submit("first".into(), far_deadline()).unwrap();
        let doomed =
            batcher.submit("doomed".into(), Instant::now() + Duration::from_millis(1)).unwrap();
        assert!(matches!(first.recv_timeout(Duration::from_secs(10)), Ok(Outcome::Scored(_))));
        assert!(matches!(doomed.recv_timeout(Duration::from_secs(10)), Ok(Outcome::TimedOut)));
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let cfg = ServeConfig {
            score_delay: Duration::from_millis(20),
            max_batch: 2,
            ..ServeConfig::default()
        };
        let batcher = Batcher::start(state_with(cfg));
        let pending: Vec<_> = (0..6)
            .map(|i| batcher.submit(format!("sentence {i}"), far_deadline()).unwrap())
            .collect();
        batcher.shutdown();
        for rx in pending {
            assert!(
                matches!(rx.try_recv(), Ok(Outcome::Scored(_))),
                "shutdown must answer every accepted request before returning"
            );
        }
        assert_eq!(
            batcher.submit("late".into(), far_deadline()).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn shutdown_racing_submits_never_loses_an_accepted_request() {
        // Regression for the submit/shutdown TOCTOU race: `submit` used to
        // check the stop flag *before* taking the queue lock, so a request
        // could be pushed after the dispatcher's final drain — accepted,
        // never answered. With the check under the lock, every Ok(rx)
        // must resolve. Run the race repeatedly; pre-fix this flaked.
        for round in 0..40 {
            let cfg = ServeConfig { max_batch: 4, replicas: 2, ..ServeConfig::default() };
            let batcher = Batcher::start(state_with(cfg));
            let submitted = std::thread::scope(|scope| {
                let batcher = &batcher;
                let submitter = scope.spawn(move || {
                    let mut accepted = Vec::new();
                    for i in 0..64 {
                        match batcher.submit(format!("race {round}-{i}"), far_deadline()) {
                            Ok(rx) => accepted.push(rx),
                            Err(SubmitError::ShuttingDown) => break,
                            Err(e) => panic!("unexpected submit error {e:?}"),
                        }
                        if i % 8 == 0 {
                            std::thread::yield_now();
                        }
                    }
                    accepted
                });
                // Race the drain against the submit loop.
                std::thread::yield_now();
                batcher.shutdown();
                submitter.join().expect("submitter thread")
            });
            for (i, rx) in submitted.into_iter().enumerate() {
                assert!(
                    matches!(
                        rx.recv_timeout(Duration::from_secs(10)),
                        Ok(Outcome::Scored(_) | Outcome::TimedOut)
                    ),
                    "round {round}: accepted request {i} was never answered"
                );
            }
        }
    }

    #[test]
    fn batched_results_match_individual_extraction() {
        let state = state_with(ServeConfig { max_batch: 8, ..ServeConfig::default() });
        let batcher = Batcher::start(Arc::clone(&state));
        let texts: Vec<String> =
            (0..8).map(|i| format!("Bob visited office number {i} in London .")).collect();
        let rxs: Vec<_> =
            texts.iter().map(|t| batcher.submit(t.clone(), far_deadline()).unwrap()).collect();
        let pipeline = state.pipeline();
        for (text, rx) in texts.iter().zip(rxs) {
            let Outcome::Scored(got) = rx.recv_timeout(Duration::from_secs(5)).unwrap() else {
                panic!("expected a scored outcome");
            };
            assert_eq!(got, pipeline.extract(text), "batched != sequential for {text:?}");
        }
    }
}
