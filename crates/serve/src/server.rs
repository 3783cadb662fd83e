//! The serving front end: a readiness-driven event loop over `std::net`
//! sockets, sharded across a small fixed set of I/O threads.
//!
//! Each of the `poll_shards` shard threads owns an `epoll` set and the
//! connections it accepted — no lock is shared between shards — and
//! blocks in `epoll_wait` until something it watches is ready:
//!
//! * the listener, which every shard watches with `EPOLLEXCLUSIVE`, so a
//!   new connection wakes one blocked shard, and that shard accepts and
//!   keeps it. The kernel wakes the first blocked shard in the listener's
//!   queue, so after each accept a shard re-registers the listener, moving
//!   itself to the back: connections spread across the shards that are
//!   waiting. An accept that fails for want of fds or memory pauses that
//!   shard's accepting for `ACCEPT_RETRY` or until one of its connections
//!   closes, so a full fd table neither spins the loop nor deafens it;
//! * its connections, edge-triggered: bytes are fed to a per-connection
//!   incremental [`RequestParser`], so a slow client costs a buffer, not a
//!   blocked thread;
//! * its `Waker`, which a batcher dispatcher signals once it has sent
//!   the replies to a batch holding this shard's extractions. Extraction
//!   requests come back from the router as [`PendingExtract`]s, so the
//!   loop never blocks on scoring;
//! * the state's shutdown signal, which
//!   [`ServeState::begin_shutdown`] raises from any thread.
//!
//! The only timeout of the wait is the nearest connection deadline: a
//! request still arriving past `read_timeout` (answered 408 and closed), a
//! keep-alive connection idle for `IDLE_TIMEOUT` (30 s, closed silently),
//! or a pending extraction past its deadline. A wake-up touches only the
//! connections `epoll` reported, those whose extractions were answered and
//! those whose deadline passed, so an idle connection costs nothing.
//! Responses are written in request order (keep-alive pipelining), with
//! partial writes resumed when the socket is writable again.
//!
//! The shutdown sequence loses no accepted work: shards stop accepting
//! first, then finish every request already parsed or in flight (new
//! submits are refused 503 by the batcher), and the batcher drains
//! everything it accepted before its dispatchers exit.

use crate::batcher::Batcher;
use crate::http::{RequestParser, Response};
use crate::router::{self, PendingExtract, Routed};
use crate::state::ServeState;
use crate::sys::{self, Epoll, Event, Waker, EPOLLET, EPOLLEXCLUSIVE, EPOLLIN, EPOLLOUT};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an idle keep-alive connection may sit between requests.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a shard stops accepting after `accept` fails for want of fds
/// or memory, unless one of its own connections closes first.
const ACCEPT_RETRY: Duration = Duration::from_millis(100);

/// `epoll` tokens of a shard's own fds. Connections count up from
/// [`FIRST_CONN`].
const LISTENER: u64 = 0;
const SHUTDOWN: u64 = 1;
const WAKE: u64 = 2;
const FIRST_CONN: u64 = 3;

/// A bound, not-yet-running server. [`run`](Server::run) blocks until a
/// graceful shutdown completes (via `POST /admin/shutdown` or
/// [`ServeState::begin_shutdown`] from another thread).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:8080`; port 0 picks an ephemeral
    /// port) over the given state.
    pub fn bind(addr: impl ToSocketAddrs, state: Arc<ServeState>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server { listener, state, addr })
    }

    /// The actual bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state, for triggering shutdown or reloads in-process.
    pub fn state(&self) -> Arc<ServeState> {
        Arc::clone(&self.state)
    }

    /// Serves until shutdown is requested, then drains and returns.
    pub fn run(self) -> std::io::Result<()> {
        let batcher = Batcher::start(Arc::clone(&self.state));
        let accepted = self.run_shards(&batcher)?;
        ner_obs::info(format!("connections accepted per poll shard: {accepted:?}"));
        // Shards are done: every accepted request has been answered. Drain
        // whatever the batcher still holds (nothing, unless a caller used
        // it directly) and join its dispatchers.
        batcher.shutdown();
        ner_obs::info("drained; server stopped");
        Ok(())
    }

    /// Runs the poll shards until they have drained, and returns how many
    /// connections each accepted.
    fn run_shards(&self, batcher: &Batcher) -> std::io::Result<Vec<usize>> {
        self.listener.set_nonblocking(true)?;
        let shards = (0..self.state.config.poll_shards.max(1))
            .map(|_| Shard::new(&self.listener, &self.state))
            .collect::<std::io::Result<Vec<_>>>()?;
        ner_obs::info(format!(
            "serving on http://{} ({} poll shards, {} replicas)",
            self.addr,
            shards.len(),
            self.state.replica_count()
        ));
        Ok(std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .enumerate()
                .map(|(index, shard)| {
                    std::thread::Builder::new()
                        .name(format!("ner-serve-poll-{index}"))
                        .spawn_scoped(scope, move || shard.run(batcher))
                        .expect("spawn poll shard")
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("poll shard panicked")).collect()
        }))
    }
}

/// One poll shard: its epoll set, its connections, and their timers.
struct Shard<'a> {
    listener: &'a TcpListener,
    state: &'a ServeState,
    epoll: Epoll,
    waker: Arc<Waker>,
    /// Connections by epoll token. Tokens are never reused, so a stale
    /// timer or wait-list entry can only miss.
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Connections with an extraction awaiting the batcher.
    waiting: HashSet<u64>,
    /// Deadlines as `(when, token)`, earliest first: a connection's, live
    /// while it equals the connection's `armed` (others are skipped), or,
    /// under [`LISTENER`], the end of an accept pause.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    /// Connections to step on this turn.
    ready: Vec<u64>,
    events: Vec<Event>,
    /// The listener is in the epoll set.
    listening: bool,
    /// The last accept failed; cleared by the next one that succeeds, so
    /// a run of failures warns once.
    accept_failing: bool,
    /// Connections accepted so far.
    accepted: usize,
    /// Shutdown has begun: no more accepts, and the shard exits once its
    /// last connection closes.
    draining: bool,
}

impl<'a> Shard<'a> {
    fn new(listener: &'a TcpListener, state: &'a ServeState) -> std::io::Result<Shard<'a>> {
        let epoll = Epoll::new()?;
        let waker = Arc::new(Waker::new()?);
        epoll.add(listener.as_raw_fd(), EPOLLIN | EPOLLEXCLUSIVE, LISTENER)?;
        // Edge-triggered and never drained: every shard sees the one
        // signal once.
        epoll.add(state.shutdown_fd(), EPOLLIN | EPOLLET, SHUTDOWN)?;
        epoll.add(waker.fd(), EPOLLIN, WAKE)?;
        Ok(Shard {
            listener,
            state,
            epoll,
            waker,
            conns: HashMap::new(),
            next_token: FIRST_CONN,
            waiting: HashSet::new(),
            timers: BinaryHeap::new(),
            ready: Vec::new(),
            events: vec![Event::default(); 256],
            listening: true,
            accept_failing: false,
            accepted: 0,
            draining: false,
        })
    }

    /// Runs the event loop until shutdown has begun and every connection
    /// has drained, and returns how many connections it accepted.
    fn run(mut self, batcher: &Batcher) -> usize {
        while self.turn(batcher) {}
        self.accepted
    }

    /// One turn of the event loop: steps the connections due, waits for
    /// readiness or the nearest deadline, and queues what that reported.
    /// False once the shard has drained.
    fn turn(&mut self, batcher: &Batcher) -> bool {
        if !self.draining && self.state.is_shutting_down() {
            self.draining = true;
            self.unlisten();
            // Step everything once, so connections between requests
            // close now.
            self.ready.extend(self.conns.keys());
        }
        self.step_ready(batcher);
        if self.draining && self.conns.is_empty() {
            return false;
        }
        // Raise the flag, then look at the pending replies one last time:
        // a reply sent after this look finds the flag up and signals the
        // waker, so the wait below cannot miss it.
        self.waker.park();
        self.poll_waiting();
        let timeout = if self.ready.is_empty() {
            self.timers.peek().map(|Reverse((at, _))| at.saturating_duration_since(Instant::now()))
        } else {
            Some(Duration::ZERO)
        };
        let n = self.epoll.wait(&mut self.events, timeout).expect("epoll_wait on a valid set");
        self.waker.unpark();
        for i in 0..n {
            match self.events[i].token() {
                LISTENER => self.accept(),
                // The flag check at the top of the turn drains.
                SHUTDOWN => {}
                WAKE => {
                    self.waker.clear();
                    self.poll_waiting();
                }
                token => self.ready.push(token),
            }
        }
        self.expire_timers();
        true
    }

    /// Steps every connection in `ready` once, closing the finished ones
    /// and re-arming the rest, and empties `ready`.
    fn step_ready(&mut self, batcher: &Batcher) {
        let mut ready = std::mem::take(&mut self.ready);
        ready.sort_unstable();
        ready.dedup();
        for token in ready.drain(..) {
            let Some(conn) = self.conns.get_mut(&token) else { continue };
            if conn.step(self.state, batcher, &self.waker) {
                self.close(token);
                continue;
            }
            if conn.has_pending_extracts() {
                self.waiting.insert(token);
            }
            if let Some(at) = conn.deadline(self.state.config.read_timeout) {
                // An earlier timer already armed re-arms from the
                // connection's state when it fires.
                if conn.armed.is_none_or(|armed| at < armed) {
                    conn.armed = Some(at);
                    self.timers.push(Reverse((at, token)));
                }
            }
        }
        // Hand the emptied buffer back, keeping its capacity.
        self.ready = ready;
    }

    /// Polls the waiting connections' extractions, queueing those with a
    /// newly answered reply.
    fn poll_waiting(&mut self) {
        let (conns, ready) = (&mut self.conns, &mut self.ready);
        self.waiting.retain(|token| {
            let Some(conn) = conns.get_mut(token) else { return false };
            if conn.poll_pending() {
                ready.push(*token);
            }
            conn.has_pending_extracts()
        });
    }

    /// Queues the connections whose armed deadline has passed, and ends an
    /// accept pause whose time is up.
    fn expire_timers(&mut self) {
        let now = Instant::now();
        while let Some(&Reverse((at, token))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            if token == LISTENER {
                // A pause that a close already ended leaves a stale entry;
                // firing it early costs one extra accept attempt.
                self.listen();
            } else if let Some(conn) = self.conns.get_mut(&token) {
                if conn.armed == Some(at) {
                    conn.armed = None;
                    self.ready.push(token);
                }
            }
        }
    }

    /// Accepts one connection. The listener is level-triggered, so any
    /// further backlog reports again on the next wait.
    fn accept(&mut self) {
        match self.listener.accept() {
            Ok((stream, _peer)) => self.adopt(stream),
            Err(e) => self.accept_failed(e),
        }
    }

    /// Takes a freshly accepted connection into the epoll set.
    fn adopt(&mut self, stream: TcpStream) {
        self.accept_failing = false;
        self.accepted += 1;
        // Re-registering moves this shard to the back of the listener's
        // queue of exclusive waiters, so the next connection wakes another
        // blocked shard.
        self.unlisten();
        self.listen();
        let conn = match Conn::adopt(stream) {
            Ok(conn) => conn,
            Err(e) => return ner_obs::warn(format!("could not adopt connection: {e}")),
        };
        let token = self.next_token;
        if let Err(e) = self.epoll.add(conn.stream.as_raw_fd(), EPOLLIN | EPOLLOUT | EPOLLET, token)
        {
            return ner_obs::warn(format!("could not watch connection: {e}"));
        }
        self.next_token += 1;
        self.conns.insert(token, conn);
        self.ready.push(token);
    }

    /// Handles a failed accept. An error that concerns only the one
    /// pending connection (another shard took it, or the peer or network
    /// gave up) is ignored, as `accept(2)` asks. Anything else — out of
    /// fds or memory, mostly — leaves the backlog readable, so watching on
    /// would spin: the shard stops accepting until [`ACCEPT_RETRY`] has
    /// passed or one of its connections closes, whichever comes first.
    fn accept_failed(&mut self, e: std::io::Error) {
        if sys::accept_error_is_per_connection(&e) {
            return;
        }
        if !self.accept_failing {
            self.accept_failing = true;
            ner_obs::warn(format!(
                "accept error: {e}; this poll shard stops accepting for {} ms or until one of \
                 its connections closes",
                ACCEPT_RETRY.as_millis()
            ));
        }
        self.unlisten();
        self.timers.push(Reverse((Instant::now() + ACCEPT_RETRY, LISTENER)));
    }

    /// Drops a finished connection (closing its fd removes it from the
    /// epoll set), and resumes accepting if an accept error paused it.
    fn close(&mut self, token: u64) {
        self.conns.remove(&token);
        self.listen();
    }

    /// Puts the listener back in the epoll set, unless it is there or the
    /// shard is draining.
    fn listen(&mut self) {
        if self.listening || self.draining {
            return;
        }
        match self.epoll.add(self.listener.as_raw_fd(), EPOLLIN | EPOLLEXCLUSIVE, LISTENER) {
            Ok(()) => self.listening = true,
            Err(e) => {
                ner_obs::warn(format!("could not resume accepting: {e}"));
                self.timers.push(Reverse((Instant::now() + ACCEPT_RETRY, LISTENER)));
            }
        }
    }

    fn unlisten(&mut self) {
        if self.listening {
            self.listening = false;
            let _ = self.epoll.delete(self.listener.as_raw_fd());
        }
    }
}

/// One response slot, kept in request order for pipelining. A `Waiting`
/// slot blocks everything behind it from being written — responses go out
/// in the order their requests arrived — but later slots still poll, so a
/// batch that scores out of order loses no time once the head resolves.
enum Slot {
    /// Serialized and ready to write.
    Ready { bytes: Vec<u8>, close: bool },
    /// An extraction the batcher has not answered yet.
    Waiting { pending: PendingExtract, close: bool },
}

/// One live connection owned by a poll shard.
struct Conn {
    stream: TcpStream,
    parser: RequestParser,
    /// Responses (ready or pending) in request order.
    slots: VecDeque<Slot>,
    /// Bytes waiting for the socket to accept them.
    out: Vec<u8>,
    /// When the currently-in-progress request's first byte arrived; the
    /// per-request read deadline (slowloris/dribble bound) counts from
    /// here. `None` whenever the parser is idle.
    request_started: Option<Instant>,
    idle_since: Instant,
    /// No further reads or parses: the peer hit EOF, erred, asked to
    /// close, or sent something unparseable.
    stop_reading: bool,
    /// A `Connection: close` response has been queued; once `out` drains
    /// the connection is done.
    closing: bool,
    /// The deadline of this connection's live entry in the shard's timers.
    armed: Option<Instant>,
}

impl Conn {
    fn adopt(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Conn {
            stream,
            parser: RequestParser::new(),
            slots: VecDeque::new(),
            out: Vec::new(),
            request_started: None,
            idle_since: Instant::now(),
            stop_reading: false,
            closing: false,
            armed: None,
        })
    }

    /// True while any extraction is awaiting the batcher.
    fn has_pending_extracts(&self) -> bool {
        self.slots.iter().any(|s| matches!(s, Slot::Waiting { .. }))
    }

    /// True when nothing is owed and nothing is arriving: the keep-alive
    /// idle state.
    fn is_idle(&self) -> bool {
        self.parser.is_idle() && self.out.is_empty() && self.slots.is_empty()
    }

    /// The next moment a timeout could change this connection: its read
    /// deadline, its earliest extraction deadline, or its idle expiry.
    fn deadline(&self, read_timeout: Duration) -> Option<Instant> {
        let read = self.request_started.map(|t0| t0 + read_timeout);
        let reply = self
            .slots
            .iter()
            .filter_map(|s| match s {
                Slot::Waiting { pending, .. } => Some(pending.expires_at()),
                Slot::Ready { .. } => None,
            })
            .min();
        let idle = self.is_idle().then(|| self.idle_since + IDLE_TIMEOUT);
        [read, reply, idle].into_iter().flatten().min()
    }

    /// Queues a response, stopping the read side when it will close the
    /// connection (no later pipelined request could be answered).
    fn enqueue(&mut self, slot: Slot) {
        if matches!(slot, Slot::Ready { close: true, .. } | Slot::Waiting { close: true, .. }) {
            self.stop_reading = true;
        }
        self.slots.push_back(slot);
    }

    /// Polls every in-flight extraction (not just the head, so the head
    /// resolving releases already-finished followers at once). True if
    /// any resolved.
    fn poll_pending(&mut self) -> bool {
        let mut resolved = false;
        for slot in self.slots.iter_mut() {
            let Slot::Waiting { pending, close } = slot else { continue };
            let close = *close;
            if let Some(resp) = pending.poll() {
                resolved = true;
                *slot = Slot::Ready { bytes: resp.to_bytes(close), close };
            }
        }
        resolved
    }

    /// Brings the connection up to date: reads until the socket would
    /// block, parses and dispatches, polls in-flight extractions, writes
    /// until the socket would block, then judges timeouts and lifetime.
    /// Returns true when the connection is finished.
    fn step(&mut self, state: &ServeState, batcher: &Batcher, waker: &Arc<Waker>) -> bool {
        // Read whatever the socket has. Edge-triggered readiness reports
        // only new bytes, so this must run to `WouldBlock`.
        if !self.stop_reading {
            let mut chunk = [0u8; 4096];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.stop_reading = true;
                        // EOF mid-request can never complete; EOF between
                        // requests is the normal end of keep-alive.
                        if !self.parser.is_idle() {
                            self.enqueue(Slot::Ready {
                                bytes: Response::text(400, "truncated request").to_bytes(true),
                                close: true,
                            });
                        }
                        break;
                    }
                    Ok(n) => {
                        self.parser.feed(&chunk[..n]);
                        self.request_started.get_or_insert_with(Instant::now);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => return true,
                }
            }
        }

        // Parse and dispatch every complete request that arrived.
        while !self.stop_reading {
            match self.parser.poll() {
                Ok(Some(req)) => {
                    // The trace clock starts the moment the request is
                    // fully read, so queue wait, batch formation, scoring,
                    // and the response tail share one monotonic origin.
                    let trace = ner_obs::trace::TraceCtx::new(req.route_path());
                    let routed = router::dispatch(&req, state, batcher, &trace, Some(waker));
                    // Evaluated after dispatch, so the response to
                    // `POST /admin/shutdown` itself says close.
                    let close = req.wants_close() || state.is_shutting_down();
                    match routed {
                        Routed::Done(resp) => {
                            self.enqueue(Slot::Ready { bytes: resp.to_bytes(close), close });
                        }
                        Routed::Pending(pending) => {
                            self.enqueue(Slot::Waiting { pending, close });
                        }
                    }
                    self.request_started =
                        if self.parser.is_idle() { None } else { Some(Instant::now()) };
                }
                Ok(None) => break,
                Err(resp) => {
                    self.enqueue(Slot::Ready { bytes: resp.to_bytes(true), close: true });
                    break;
                }
            }
        }

        // The per-request read deadline: a head or body still dribbling in
        // past `read_timeout` is answered 408 and the connection closed —
        // this bounds slowloris without dropping merely-slow clients,
        // which the old fixed 250 ms read poll used to kill mid-body.
        if let Some(t0) = self.request_started {
            if t0.elapsed() > state.config.read_timeout {
                self.request_started = None;
                self.enqueue(Slot::Ready {
                    bytes: Response::text(408, "request read deadline expired").to_bytes(true),
                    close: true,
                });
            }
        }

        self.poll_pending();

        // Move ready head-of-line responses into the write buffer.
        while let Some(Slot::Ready { .. }) = self.slots.front() {
            let Some(Slot::Ready { bytes, close }) = self.slots.pop_front() else {
                unreachable!("front checked")
            };
            self.out.extend_from_slice(&bytes);
            self.idle_since = Instant::now();
            if close {
                self.closing = true;
                // Anything pipelined behind a close is dropped; its reply
                // receivers drop with it and the dispatcher's sends fail
                // harmlessly.
                self.slots.clear();
                break;
            }
        }

        // Write as much as the socket accepts; a full socket reports
        // writable again when it drains.
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return true,
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return true,
            }
        }

        let flushed = self.out.is_empty() && self.slots.is_empty();
        (self.closing && self.out.is_empty())
            // Peer finished sending and everything owed is written.
            || (self.stop_reading && flushed)
            // Server draining and this connection is between requests.
            || (state.is_shutting_down() && self.is_idle())
            // Idle keep-alive expiry.
            || (self.is_idle() && self.idle_since.elapsed() >= IDLE_TIMEOUT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::ServeConfig;
    use crate::test_support::tiny_pipeline;

    #[test]
    fn a_shard_with_no_connections_resumes_accepting_after_an_accept_error() {
        const EPROTO: i32 = 71;
        const EMFILE: i32 = 24;
        let state = ServeState::new(tiny_pipeline(), None, ServeConfig::default());
        let batcher = Batcher::start(Arc::clone(&state));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut shard = Shard::new(&listener, &state).unwrap();
        // A network error on one pending connection leaves the listener be.
        shard.accept_failed(std::io::Error::from_raw_os_error(EPROTO));
        assert!(shard.listening);
        // Out of fds, with no connection of its own to close: the shard
        // stops watching the listener until the retry time.
        let t0 = Instant::now();
        shard.accept_failed(std::io::Error::from_raw_os_error(EMFILE));
        assert!(!shard.listening);
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // The waiting connection does not wake the paused shard, so its
        // turn blocks until the retry time and then resumes watching. A
        // guard timer for no connection bounds the wait, so a shard that
        // never resumes fails the test instead of hanging it.
        shard.timers.push(Reverse((t0 + 20 * ACCEPT_RETRY, u64::MAX)));
        assert!(shard.turn(&batcher));
        assert!(t0.elapsed() >= ACCEPT_RETRY, "the paused shard woke early");
        assert!(shard.listening);
        assert!(shard.conns.is_empty());
        assert!(shard.turn(&batcher));
        assert_eq!(shard.accepted, 1);
        assert_eq!(shard.conns.len(), 1);
    }

    /// How many of this process's poll-shard threads are asleep, which for
    /// a shard with no traffic means blocked in `epoll_wait`. The state is
    /// the first field of `/proc/self/task/*/stat` after the name's `)`.
    fn blocked_poll_threads() -> usize {
        let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
        tasks
            .flatten()
            .filter(|task| {
                let read =
                    |name| std::fs::read_to_string(task.path().join(name)).unwrap_or_default();
                read("comm").starts_with("ner-serve-poll")
                    && read("stat")
                        .rsplit(')')
                        .next()
                        .is_some_and(|s| s.trim_start().starts_with('S'))
            })
            .count()
    }

    #[test]
    fn connections_made_one_after_another_spread_across_shards() {
        let config = ServeConfig { poll_shards: 2, ..ServeConfig::default() };
        let state = ServeState::new(tiny_pipeline(), None, config);
        let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).unwrap();
        let addr = server.local_addr();
        let batcher = Batcher::start(Arc::clone(&state));
        let accepted = std::thread::scope(|scope| {
            let shards = scope.spawn(|| server.run_shards(&batcher));
            // A shard that is not waiting yet is passed over, so start
            // once both are blocked.
            while blocked_poll_threads() < 2 {
                std::thread::yield_now();
            }
            // Each connection is answered before the next one opens, the
            // way keep-alive clients warm up.
            let conns: Vec<_> = (0..8)
                .map(|_| {
                    let mut conn = client::Conn::connect(addr).unwrap();
                    assert_eq!(conn.get("/healthz").unwrap().status, 200);
                    conn
                })
                .collect();
            state.begin_shutdown();
            drop(conns);
            shards.join().unwrap().unwrap()
        });
        assert_eq!(accepted.iter().sum::<usize>(), 8);
        assert!(accepted.iter().all(|&n| n >= 2), "accepted per shard: {accepted:?}");
    }
}

/// A minimal blocking HTTP client — just enough for the integration tests
/// and the `exp_serving` load generator to drive a real socket without an
/// external dependency.
pub mod client {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    /// A keep-alive connection to the server.
    pub struct Conn {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    /// A response as the client sees it.
    #[derive(Debug)]
    pub struct ClientResponse {
        /// HTTP status code.
        pub status: u16,
        /// Lowercased headers.
        pub headers: Vec<(String, String)>,
        /// Body bytes as a string (all served bodies are UTF-8).
        pub body: String,
    }

    impl ClientResponse {
        /// First value of a header, by case-insensitive name.
        pub fn header(&self, name: &str) -> Option<&str> {
            let name = name.to_ascii_lowercase();
            self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
        }
    }

    impl Conn {
        /// Connects with a generous I/O timeout.
        pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_nodelay(true)?;
            let writer = stream.try_clone()?;
            Ok(Conn { reader: BufReader::new(stream), writer })
        }

        /// Sends `GET path`.
        pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
            self.request("GET", path, None)
        }

        /// Sends `POST path` with a JSON body.
        pub fn post(&mut self, path: &str, json: &str) -> std::io::Result<ClientResponse> {
            self.request("POST", path, Some(json))
        }

        fn request(
            &mut self,
            method: &str,
            path: &str,
            body: Option<&str>,
        ) -> std::io::Result<ClientResponse> {
            let body = body.unwrap_or("");
            let head = format!(
                "{method} {path} HTTP/1.1\r\nhost: ner-serve\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
                body.len()
            );
            self.writer.write_all(head.as_bytes())?;
            self.writer.write_all(body.as_bytes())?;
            self.writer.flush()?;
            self.read_response()
        }

        fn read_response(&mut self) -> std::io::Result<ClientResponse> {
            let bad =
                |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
            let mut status_line = String::new();
            if self.reader.read_line(&mut status_line)? == 0 {
                return Err(bad("connection closed before status line"));
            }
            let status: u16 = status_line
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("malformed status line"))?;
            let mut headers = Vec::new();
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                if self.reader.read_line(&mut line)? == 0 {
                    return Err(bad("connection closed mid-headers"));
                }
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some((name, value)) = line.split_once(':') {
                    let name = name.trim().to_ascii_lowercase();
                    let value = value.trim().to_string();
                    if name == "content-length" {
                        content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                    }
                    headers.push((name, value));
                }
            }
            let mut body = vec![0u8; content_length];
            self.reader.read_exact(&mut body)?;
            let body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
            Ok(ClientResponse { status, headers, body })
        }
    }

    /// One-shot POST on a fresh connection.
    pub fn post(addr: SocketAddr, path: &str, json: &str) -> std::io::Result<ClientResponse> {
        Conn::connect(addr)?.post(path, json)
    }

    /// One-shot GET on a fresh connection.
    pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<ClientResponse> {
        Conn::connect(addr)?.get(path)
    }
}
