//! The serving workloads: a real `neural-ner serve` child process driven
//! over HTTP by one nonblocking generator thread.

use crate::inputs::{self, Item};
use crate::procfs::{self, CpuDelta, CpuSnapshot};
use crate::stats::{self, ratio};
use crate::trace::{SpanId, Tracer};
use crate::verify::{self, Sent, Verdict};
use crate::wire::{self, Conn};
use crate::{Ctx, Metric, Outcome};
use ner_serve::client;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Server flags shared by both serving workloads.
pub const SERVE_FLAGS: [&str; 4] = ["--replicas", "1", "--poll-shards", "1"];
/// `NER_THREADS` of the serving child.
pub const SERVE_THREADS: usize = 1;
/// Busy threads of a serving run: the generator, one poll shard, one
/// dispatcher, and `SERVE_THREADS - 1` pool workers.
pub const SERVE_BUSY_THREADS: usize = 1 + 1 + 1 + (SERVE_THREADS - 1);
/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Keep-alive connections the generator spreads requests over.
const CONNS: usize = 2;
/// serve-steady's Poisson arrival rate.
const STEADY_RATE: f64 = 200.0;
/// serve-steady's clean sentence pool.
const STEADY_POOL: usize = 400;
/// serve-saturate's requests in flight.
const SATURATE_DEPTH: usize = 64;
/// Fresh noisy sentences generated per measured second for
/// serve-saturate: about twice what one replica answers on a 2-vCPU
/// host. A server fast enough to use them all ends the phase early, which
/// the report flags as `inputs_exhausted`.
const SATURATE_PER_S: usize = 8000;
/// Unmeasured traffic before the measured phase, so caches, buffer pools
/// and connections are warm.
const WARMUP: Duration = Duration::from_secs(1);
/// How long unanswered requests are waited for after the phase ends.
const DRAIN: Duration = Duration::from_secs(5);
/// About one 200 in this many is byte-compared with offline extraction,
/// or fewer on long runs: the sample is capped near `SAMPLE_MAX`.
const SAMPLE_EVERY: u64 = 8;
const SAMPLE_MAX: u64 = 2000;

/// The two traffic mixes.
#[derive(Clone, Copy, PartialEq)]
pub enum Mix {
    /// Open loop over a warm pool of clean news.
    Steady,
    /// Closed loop over fresh noisy text.
    Saturate,
}

impl Mix {
    /// Length of the windows the measured phase is cut into; each holds
    /// a few hundred requests or more. The end-to-end figures are taken
    /// over the quieter half of the windows (see [`stats::quiet_half`]).
    fn window(self) -> Duration {
        match self {
            Mix::Steady => Duration::from_secs(2),
            Mix::Saturate => Duration::from_secs(1),
        }
    }
}

/// A running `neural-ner serve` child. Dropping it kills the process.
struct Server {
    child: Option<Child>,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits for its first `/healthz` 200; returns
    /// the server and the seconds that took.
    fn spawn(bin: &Path, ckpt: &Path) -> Result<(Server, f64), String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("cannot pick a port: {e}"))?
            .port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--ckpt")
            .arg(ckpt)
            .args(["--addr", &addr.to_string()])
            .args(SERVE_FLAGS)
            .env("NER_THREADS", SERVE_THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server { child: Some(child), addr };
        loop {
            if let Ok(r) = client::get(addr, "/healthz") {
                if r.status == 200 {
                    return Ok((server, t0.elapsed().as_secs_f64()));
                }
            }
            let child = server.child.as_mut().expect("child present until stop");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("server exited during start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(60) {
                return Err("server not ready within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("child present until stop").id()
    }

    /// Asks for a graceful drain and waits for the process to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("child present until stop");
        let _ = client::post(self.addr, "/admin/shutdown", "");
        let t0 = Instant::now();
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if t0.elapsed() < Duration::from_secs(20) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not drain within 20 s".into());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Counter values and histogram `(count, sum)` pairs of the server's
/// `ner-obs` registry at one instant.
#[derive(Default)]
struct Registry {
    counters: BTreeMap<String, f64>,
    histograms: BTreeMap<String, (f64, f64)>,
}

impl Registry {
    fn fetch(addr: SocketAddr) -> Result<Registry, String> {
        let resp =
            client::get(addr, "/metrics?format=json").map_err(|e| format!("/metrics: {e}"))?;
        let v: Value = serde_json::from_str(&resp.body).map_err(|e| format!("/metrics: {e}"))?;
        let mut reg = Registry::default();
        for (name, value) in v.get("counters").and_then(Value::as_object).unwrap_or(&[]) {
            reg.counters.insert(name.clone(), value.as_f64().unwrap_or(0.0));
        }
        for h in v.get("histograms").and_then(Value::as_array).unwrap_or(&[]) {
            let field = |k| h.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            if let Some(name) = h.get("name").and_then(Value::as_str) {
                reg.histograms
                    .insert(name.to_string(), (field("count"), field("count") * field("mean")));
            }
        }
        Ok(reg)
    }
}

/// Change of the registry over the measured phase.
struct RegistryDelta<'a>(&'a Registry, &'a Registry);

impl RegistryDelta<'_> {
    fn counter(&self, name: &str) -> f64 {
        let get = |r: &Registry| r.counters.get(name).copied().unwrap_or(0.0);
        get(self.1) - get(self.0)
    }

    /// `(count, sum)` of the observations made during the phase.
    fn histogram(&self, name: &str) -> (f64, f64) {
        let get = |r: &Registry| r.histograms.get(name).copied().unwrap_or((0.0, 0.0));
        let ((c0, s0), (c1, s1)) = (get(self.0), get(self.1));
        (c1 - c0, s1 - s0)
    }

    fn mean(&self, name: &str) -> f64 {
        let (count, sum) = self.histogram(name);
        ratio(sum, count)
    }
}

fn connect(addr: SocketAddr) -> Result<Vec<Conn>, String> {
    (0..CONNS).map(|_| Conn::connect(addr).map_err(|e| format!("connect: {e}"))).collect()
}

/// Hands every completed response to its record. Returns the connections
/// that received something, for the closed loop to refill.
fn collect(conns: &mut [Conn], sent: &mut [Sent]) -> Vec<(usize, usize)> {
    let mut freed = Vec::new();
    for (c, conn) in conns.iter_mut().enumerate() {
        conn.flush();
        let got = conn.receive();
        if got.is_empty() {
            continue;
        }
        let now = Instant::now();
        for (id, parsed) in got {
            sent[id].done = Some(now);
            sent[id].status = parsed.status;
            sent[id].body = parsed.body;
        }
        freed.push((c, conn.outstanding.len()));
    }
    freed
}

fn idle(conns: &[Conn]) -> bool {
    conns.iter().all(|c| c.outstanding.is_empty() || c.broken.is_some())
}

/// Open loop: sends `schedule[i].1` at `t0 + schedule[i].0`, on an idle
/// connection when there is one and pipelined behind the shorter queue
/// otherwise, and returns once `span` has passed and every request is
/// answered.
fn drive_open(
    addr: SocketAddr,
    items: &[Item],
    schedule: &[(Duration, usize)],
    t0: Instant,
    span: Duration,
) -> Result<Vec<Sent>, String> {
    let mut conns = connect(addr)?;
    let mut sent: Vec<Sent> = Vec::with_capacity(schedule.len());
    let end = t0 + span;
    let give_up = end + DRAIN;
    loop {
        let now = Instant::now();
        while let Some(&(offset, item)) = schedule.get(sent.len()) {
            let due = t0 + offset;
            if due > now {
                break;
            }
            let c = (0..conns.len())
                .filter(|&c| conns[c].broken.is_none())
                .min_by_key(|&c| conns[c].outstanding.len())
                .unwrap_or(0);
            conns[c].send(sent.len(), &wire::extract_request(&items[item].text).0);
            sent.push(Sent {
                item,
                due,
                sent: Instant::now(),
                done: None,
                status: 0,
                body: Vec::new(),
            });
        }
        collect(&mut conns, &mut sent);
        let all_sent = sent.len() == schedule.len();
        let now = Instant::now();
        if (all_sent && idle(&conns) && now >= end) || now >= give_up {
            return Ok(sent);
        }
        let until =
            schedule.get(sent.len()).map_or(if idle(&conns) { end } else { give_up }, |s| t0 + s.0);
        wire::wait(&conns, until);
    }
}

/// Closed loop: from `t0`, keeps `depth` requests in flight over the
/// connections, each answered request replaced on its connection at once,
/// until `t0 + seconds`; then waits for the stragglers.
fn drive_closed(
    addr: SocketAddr,
    items: &[Item],
    depth: usize,
    t0: Instant,
    seconds: Duration,
) -> Result<Vec<Sent>, String> {
    let mut conns = connect(addr)?;
    let mut sent: Vec<Sent> = Vec::with_capacity(items.len());
    let end = t0 + seconds;
    let send = |conns: &mut [Conn], sent: &mut Vec<Sent>, c: usize, due: Instant| {
        if sent.len() < items.len() {
            let item = sent.len();
            conns[c].send(item, &wire::extract_request(&items[item].text).0);
            sent.push(Sent {
                item,
                due,
                sent: Instant::now(),
                done: None,
                status: 0,
                body: Vec::new(),
            });
        }
    };
    std::thread::sleep(t0.saturating_duration_since(Instant::now()));
    for i in 0..depth {
        send(&mut conns, &mut sent, i % CONNS, t0);
    }
    loop {
        for (c, left) in collect(&mut conns, &mut sent) {
            let now = Instant::now();
            if now < end {
                for _ in left..depth / CONNS {
                    send(&mut conns, &mut sent, c, now);
                }
            }
        }
        let now = Instant::now();
        if (now >= end || sent.len() == items.len()) && idle(&conns) || now >= end + DRAIN {
            return Ok(sent);
        }
        wire::wait(&conns, if now < end { end } else { end + DRAIN });
    }
}

/// Snapshots the child's CPU and the host's steal counters at
/// `t0 + k * window` for `k = 0..=windows`, until told to stop. Runs on
/// its own thread so the generator never pauses for `/proc`.
fn sample_windows(
    pid: u32,
    t0: Instant,
    window: Duration,
    windows: u32,
    stop: mpsc::Receiver<()>,
) -> Vec<(CpuSnapshot, (u64, u64))> {
    let mut snaps = Vec::new();
    for k in 0..=windows {
        let wait = (t0 + window * k).saturating_duration_since(Instant::now());
        if !matches!(stop.recv_timeout(wait), Err(mpsc::RecvTimeoutError::Timeout)) {
            break;
        }
        match (procfs::snapshot(pid), procfs::host_steal()) {
            (Ok(snap), Ok(steal)) => snaps.push((snap, steal)),
            _ => break,
        }
    }
    snaps
}

/// A seeded Poisson arrival schedule over `items` indices.
fn poisson_schedule(
    rng: &mut StdRng,
    rate: f64,
    span: Duration,
    pool: usize,
) -> Vec<(Duration, usize)> {
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push((Duration::from_secs_f64(t), rng.gen_range(0..pool)));
    }
}

/// Times `f` over the whole input repeatedly until at least `min` has
/// passed; returns seconds per pass.
fn replay<T>(min: Duration, inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    let t0 = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || t0.elapsed() < min {
        for x in inputs {
            f(std::hint::black_box(x));
        }
        passes += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(passes)
}

/// Runs one serving workload end to end.
pub fn run(mix: Mix, ctx: &Ctx, tracer: &mut Tracer) -> Result<Outcome, String> {
    let root =
        tracer.open(if mix == Mix::Steady { "serve-steady" } else { "serve-saturate" }, None);
    let seconds = Duration::from_secs(ctx.seconds);
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let gen = tracer.open("generate_inputs", root);
    let (items, warm_items, schedule, warm_schedule) = match mix {
        Mix::Steady => {
            let pool = inputs::clean_pool(ctx.seed, STEADY_POOL);
            let warm = poisson_schedule(&mut rng, STEADY_RATE, WARMUP, pool.len());
            let measured = poisson_schedule(&mut rng, STEADY_RATE, seconds, pool.len());
            (pool, Vec::new(), measured, warm)
        }
        Mix::Saturate => {
            let n = SATURATE_PER_S * ctx.seconds as usize;
            let items = inputs::noisy_stream(ctx.seed, n);
            let warm = inputs::noisy_stream(ctx.seed ^ 0x5741_524D, SATURATE_PER_S);
            (items, warm, Vec::new(), Vec::new())
        }
    };
    tracer.close(gen);

    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for k in 0..SETUPS {
        let span = tracer.open("spawn_to_ready", root);
        let (s, secs) = Server::spawn(&ctx.server_bin, &ctx.ckpt)?;
        tracer.close(span);
        setups.push(secs);
        if k + 1 < SETUPS {
            tracer.scope("shutdown", root, || s.stop())?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");

    tracer.scope("warmup", root, || match mix {
        Mix::Steady => {
            drive_open(server.addr, &items, &warm_schedule, Instant::now(), WARMUP).map(drop)
        }
        Mix::Saturate => {
            drive_closed(server.addr, &warm_items, SATURATE_DEPTH, Instant::now(), WARMUP).map(drop)
        }
    })?;

    let snap = tracer.open("snapshot_before", root);
    let reg0 = Registry::fetch(server.addr)?;
    let cpu0 = procfs::snapshot(server.pid()).map_err(|e| format!("/proc: {e}"))?;
    let steal0 = procfs::host_steal().map_err(|e| format!("/proc/stat: {e}"))?;
    tracer.close(snap);

    let phase = tracer.open("measured_phase", root);
    let window = mix.window();
    let windows = (ctx.seconds / window.as_secs()).max(1) as u32;
    // A short lead so the CPU sampler is waiting before the first request.
    let t0 = Instant::now() + Duration::from_millis(20);
    let pid = server.pid();
    let (sent, window_cpu) = std::thread::scope(|scope| {
        let (stop, stopped) = mpsc::channel();
        let sampler = scope.spawn(move || sample_windows(pid, t0, window, windows, stopped));
        let sent = match mix {
            Mix::Steady => drive_open(server.addr, &items, &schedule, t0, seconds),
            Mix::Saturate => drive_closed(server.addr, &items, SATURATE_DEPTH, t0, seconds),
        };
        // The sampler may already have finished and hung up.
        let _ = stop.send(());
        (sent, sampler.join().expect("CPU sampler thread"))
    });
    let sent = sent?;
    tracer.close(phase);

    let snap = tracer.open("snapshot_after", root);
    let cpu1 = procfs::snapshot(server.pid()).map_err(|e| format!("/proc: {e}"))?;
    let steal =
        procfs::steal_share(steal0, procfs::host_steal().map_err(|e| format!("/proc/stat: {e}"))?);
    let reg1 = Registry::fetch(server.addr)?;
    let rss_mb = procfs::vm_hwm_mb(server.pid()).map_err(|e| format!("/proc: {e}"))?;
    tracer.close(snap);
    tracer.scope("shutdown", root, || server.stop())?;
    let cpu = procfs::delta(&cpu0, &cpu1);
    let reg = RegistryDelta(&reg0, &reg1);
    for (name, value) in [
        ("process_cpu_s", cpu.process_s),
        ("acceptor_cpu_s", cpu.main_thread()),
        ("poll_cpu_s", cpu.by_prefix("ner-serve-poll")),
        ("batcher_cpu_s", cpu.by_prefix("ner-serve-batch")),
        ("serve.requests", reg.counter("serve.requests")),
        ("serve.batches", reg.histogram("serve.batch_size").0),
        ("infer.tokens", reg.counter("infer.tokens")),
    ] {
        tracer.field(snap, name, value);
    }

    let check = tracer.open("verify", root);
    let offline = ner_core::persist::Checkpoint::load(&ctx.ckpt)
        .and_then(|c| c.restore())
        .map_err(|e| format!("offline reference: {e}"))?;
    let mut cache: HashMap<usize, String> = HashMap::new();
    let verdict = verify::check(
        &items,
        &sent,
        |i| verify::sampled(ctx.seed, i, SAMPLE_EVERY.max(sent.len() as u64 / SAMPLE_MAX)),
        |item| {
            cache
                .entry(item)
                .or_insert_with(|| verify::expected_body(&offline, &items[item].text))
                .clone()
        },
    );
    tracer.close(check);

    let phase_data =
        Phase { t0, window, windows, sent: &sent, window_cpu: &window_cpu, verdict: &verdict };
    let mut out =
        metrics(mix, ctx, &items, &phase_data, &cpu, &reg, &setups, rss_mb, tracer, phase);
    out.details.push(("host_steal_share".to_string(), Value::Num(steal)));
    tracer.close(root);
    Ok(out)
}

/// The measured phase as the generator and the CPU sampler saw it.
struct Phase<'a> {
    t0: Instant,
    window: Duration,
    windows: u32,
    sent: &'a [Sent],
    /// Child CPU and host steal counters at every window boundary.
    window_cpu: &'a [(CpuSnapshot, (u64, u64))],
    verdict: &'a Verdict,
}

/// One window of the measured phase.
struct Window {
    /// Share of the host's CPU time stolen by the hypervisor; `NaN` when
    /// the sampler missed a boundary.
    steal: f64,
    /// Latency of every request completed in the window.
    latency: Vec<f64>,
    /// Tokens served in the window.
    tokens: usize,
    /// Child CPU seconds; `NaN` when the sampler missed a boundary.
    cpu_s: f64,
}

impl Phase<'_> {
    /// Latency of each request from when it was due; a failed or
    /// unanswered request misses every latency limit.
    fn latency_ms(&self, i: usize) -> f64 {
        match self.sent[i].done {
            Some(done) if self.verdict.ok[i] => (done - self.sent[i].due).as_secs_f64() * 1e3,
            _ => f64::INFINITY,
        }
    }

    /// Cuts the phase into windows by completion time (due time for
    /// requests that never completed).
    fn windows(&self) -> Vec<Window> {
        let w = self.window.as_secs_f64();
        let mut windows: Vec<Window> = (0..self.windows as usize)
            .map(|k| {
                let (cpu_s, steal) = match (self.window_cpu.get(k), self.window_cpu.get(k + 1)) {
                    (Some((a, sa)), Some((b, sb))) => {
                        (b.process_s - a.process_s, procfs::steal_share(*sa, *sb))
                    }
                    _ => (f64::NAN, f64::NAN),
                };
                Window { steal, latency: Vec::new(), tokens: 0, cpu_s }
            })
            .collect();
        for (i, s) in self.sent.iter().enumerate() {
            let at = s.done.unwrap_or(s.due).saturating_duration_since(self.t0).as_secs_f64();
            if let Some(win) = windows.get_mut((at / w) as usize) {
                win.latency.push(self.latency_ms(i));
                win.tokens += self.verdict.tokens[i];
            }
        }
        windows
    }
}

/// Throughput, CPU per token and latency over the union of a set of
/// windows.
struct Figures {
    tokens_per_s: f64,
    cpu_ms_per_ktok: f64,
    latency: stats::Summary,
}

fn figures(windows: &[&Window], window_s: f64) -> Figures {
    let tokens: usize = windows.iter().map(|w| w.tokens).sum();
    let cpu_s: f64 = windows.iter().map(|w| w.cpu_s).sum();
    let latency: Vec<f64> = windows.iter().flat_map(|w| w.latency.iter().copied()).collect();
    Figures {
        tokens_per_s: ratio(tokens as f64, windows.len() as f64 * window_s),
        cpu_ms_per_ktok: ratio(cpu_s * 1e3, tokens as f64 / 1e3),
        latency: stats::summarize(&latency),
    }
}

/// Turns the measured phase into metrics, plus replays in traced runs.
#[allow(clippy::too_many_arguments)]
fn metrics(
    mix: Mix,
    ctx: &Ctx,
    items: &[Item],
    phase: &Phase,
    cpu: &CpuDelta,
    reg: &RegistryDelta,
    setups: &[f64],
    rss_mb: f64,
    tracer: &mut Tracer,
    phase_span: SpanId,
) -> Outcome {
    let (sent, verdict) = (phase.sent, phase.verdict);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let latencies: Vec<f64> = (0..sent.len()).map(|i| phase.latency_ms(i)).collect();
    let lateness: Vec<f64> = sent.iter().map(|s| ms(s.sent - s.due)).collect();
    let mut client_us = Vec::new();
    let mut last = phase.t0;
    for (i, (s, &ok)) in sent.iter().zip(&verdict.ok).enumerate() {
        if let (true, Some(done)) = (ok, s.done) {
            client_us.push((done - s.sent).as_secs_f64() * 1e6);
            last = last.max(done);
            tracer.request("request", s.due, done, phase_span, i);
        }
    }
    let wall = (last - phase.t0).as_secs_f64();
    let tokens: usize = verdict.tokens.iter().sum();
    let ktok = tokens as f64 / 1e3;
    let lat = stats::summarize(&latencies);
    let late = stats::summarize(&lateness);
    let windows = phase.windows();
    let quiet_idx = stats::quiet_half(&windows.iter().map(|w| w.steal).collect::<Vec<_>>());
    let quiet = figures(
        &quiet_idx.iter().map(|&k| &windows[k]).collect::<Vec<_>>(),
        phase.window.as_secs_f64(),
    );
    let f1 = ner_core::metrics::evaluate(&verdict.golds, &verdict.preds).micro.f1;

    let per_ktok_ms = |cpu_s: f64| ratio(cpu_s * 1e3, ktok);
    let per_ktok_us = |name: &str| ratio(reg.histogram(name).1, ktok);
    let hits = reg.counter("infer.cache.hits");
    let pool_hits = reg.counter("pool.hits");
    let mut layers = vec![
        Metric::new(
            "server.poll_cpu_ms_per_ktok",
            per_ktok_ms(cpu.by_prefix("ner-serve-poll")),
            "ms/ktok",
        ),
        Metric::new("server.accept_cpu_ms_per_ktok", per_ktok_ms(cpu.main_thread()), "ms/ktok"),
        Metric::new(
            "server.unattributed_us_mean",
            ratio(client_us.iter().sum(), client_us.len() as f64) - reg.mean("serve.request_us"),
            "us",
        ),
        Metric::new(
            "batcher.cpu_ms_per_ktok",
            per_ktok_ms(cpu.by_prefix("ner-serve-batch")),
            "ms/ktok",
        ),
        Metric::new("batcher.queue_wait_us_mean", reg.mean("serve.queue_wait_us"), "us"),
        Metric::new("batcher.batch_size_mean", reg.mean("serve.batch_size"), "count"),
        // `serve.rejected` already counts the SLO sheds (`serve.shed_slo`).
        Metric::new(
            "batcher.failed",
            reg.counter("serve.rejected") + reg.counter("serve.timeouts"),
            "count",
        ),
        Metric::new(
            "plan.token_cache_hit_ratio",
            ratio(hits, hits + reg.counter("infer.cache.misses")),
            "ratio",
        ),
        Metric::new("repr.featurize_us_per_ktok", per_ktok_us("infer.featurize_us"), "us/ktok"),
        Metric::new("model.embed_us_per_ktok", per_ktok_us("infer.embed_us"), "us/ktok"),
        Metric::new("model.encode_us_per_ktok", per_ktok_us("infer.encode_us"), "us/ktok"),
        Metric::new("model.decode_us_per_ktok", per_ktok_us("infer.decode_us"), "us/ktok"),
        Metric::new(
            "tensor.pool_hit_ratio",
            ratio(pool_hits, pool_hits + reg.counter("pool.misses")),
            "ratio",
        ),
        Metric::new("generator.send_lateness_p50_ms", late.p50, "ms"),
        Metric::new("generator.send_lateness_p99_ms", late.p99, "ms"),
        Metric::new("throughput.tokens_per_s", quiet.tokens_per_s, "tok/s"),
        Metric::new("latency.p50_ms", quiet.latency.p50, "ms"),
        Metric::new("latency.p99_ms", lat.p99, "ms"),
        Metric::new("latency.samples", lat.count as f64, "count"),
        Metric::new("f1.excluded", verdict.f1_excluded as f64, "count"),
    ];
    if tracer.enabled() {
        layers.extend(replays(ctx, items, sent, tracer));
    }

    let mut problems = Vec::new();
    if verdict.failed() > 0 {
        problems.push(format!(
            "{} failed requests: {} unanswered, {} non-200, {} malformed, {} divergent",
            verdict.failed(),
            verdict.unanswered,
            verdict.bad_status,
            verdict.malformed,
            verdict.divergent
        ));
    }
    if verdict.sampled == 0 {
        problems.push("no response was byte-compared with offline extraction".into());
    }
    let per_window = |f: &dyn Fn(&Window) -> f64| {
        Value::Array(windows.iter().map(|w| Value::Num(f(w))).collect())
    };
    let window_s = phase.window.as_secs_f64();
    let details = vec![
        (
            "mix".to_string(),
            Value::Str(if mix == Mix::Steady { "open loop" } else { "closed loop" }.into()),
        ),
        ("requests".to_string(), Value::Num(sent.len() as f64)),
        ("measured_wall_s".to_string(), Value::Num(wall)),
        ("window_s".to_string(), Value::Num(window_s)),
        (
            "quiet_windows".to_string(),
            Value::Array(quiet_idx.iter().map(|&k| Value::Num(k as f64)).collect()),
        ),
        ("quiet_latency_samples".to_string(), Value::Num(quiet.latency.count as f64)),
        (
            "quiet_latency_samples_beyond_p99".to_string(),
            Value::Num(quiet.latency.beyond_p99 as f64),
        ),
        ("whole_phase_tokens_per_s".to_string(), Value::Num(ratio(tokens as f64, wall))),
        ("whole_phase_latency_p50_ms".to_string(), Value::Num(lat.p50)),
        ("whole_phase_latency_p99_ms".to_string(), Value::Num(lat.p99)),
        ("whole_phase_cpu_ms_per_ktok".to_string(), Value::Num(per_ktok_ms(cpu.process_s))),
        ("latency_samples".to_string(), Value::Num(lat.count as f64)),
        ("latency_samples_beyond_p99".to_string(), Value::Num(lat.beyond_p99 as f64)),
        ("window_steal_share".to_string(), per_window(&|w| w.steal)),
        ("window_tokens_per_s".to_string(), per_window(&|w| w.tokens as f64 / window_s)),
        (
            "window_cpu_ms_per_ktok".to_string(),
            per_window(&|w| ratio(w.cpu_s * 1e3, w.tokens as f64 / 1e3)),
        ),
        ("window_latency_samples".to_string(), per_window(&|w| w.latency.len() as f64)),
        ("window_latency_p50_ms".to_string(), per_window(&|w| stats::summarize(&w.latency).p50)),
        ("send_lateness_p50_ms".to_string(), Value::Num(late.p50)),
        ("send_lateness_p99_ms".to_string(), Value::Num(late.p99)),
        ("setup_s_each".to_string(), Value::Array(setups.iter().map(|&s| Value::Num(s)).collect())),
        ("byte_compared".to_string(), Value::Num(verdict.sampled as f64)),
        ("f1_scored".to_string(), Value::Num(verdict.golds.len() as f64)),
        ("f1_excluded".to_string(), Value::Num(verdict.f1_excluded as f64)),
        (
            "input_vocabulary_first_3000".to_string(),
            Value::Num(inputs::vocabulary(&items[..items.len().min(3000)]) as f64),
        ),
        (
            "inputs_exhausted".to_string(),
            Value::Bool(mix == Mix::Saturate && sent.len() == items.len()),
        ),
        (
            "thread_cpu_s".to_string(),
            Value::Object(
                cpu.threads
                    .iter()
                    .map(|(tid, comm, s)| (format!("{comm}#{tid}"), Value::Num(*s)))
                    .collect(),
            ),
        ),
    ];
    Outcome {
        attempted: sent.len() as u64,
        failed: verdict.failed() as u64,
        problems,
        e2e: vec![
            Metric::new("setup_s", stats::median(setups), "s"),
            Metric::new("cpu_ms_per_ktok", quiet.cpu_ms_per_ktok, "ms/ktok"),
            Metric::new("f1", f1, "ratio"),
            Metric::new("peak_rss_mb", rss_mb, "MiB"),
        ],
        layers,
        details,
    }
}

/// Per-layer costs measured by replaying the run's own inputs through the
/// program's public functions, each inside a span.
fn replays(ctx: &Ctx, items: &[Item], sent: &[Sent], tracer: &mut Tracer) -> Vec<Metric> {
    const MIN: Duration = Duration::from_millis(300);
    let root = tracer.open("replay", None);
    let texts: Vec<&str> = sent.iter().map(|s| items[s.item].text.as_str()).collect();
    let requests: Vec<(Vec<u8>, String)> = texts.iter().map(|t| wire::extract_request(t)).collect();
    let ktok =
        texts.iter().map(|t| ner_text::tokenize::tokenize(t).len()).sum::<usize>() as f64 / 1e3;
    let n = texts.len().max(1) as f64;

    let span = tracer.open("tokenize", root);
    let tokenize_s = replay(MIN, &texts, |t| drop(ner_text::tokenize::tokenize(t)));
    tracer.close(span);

    let span = tracer.open("http_parse", root);
    let parse_s = replay(MIN, &requests, |(bytes, _)| {
        let mut p = ner_serve::http::RequestParser::new();
        p.feed(bytes);
        assert!(matches!(p.poll(), Ok(Some(_))), "replayed request must parse");
    });
    tracer.close(span);

    let span = tracer.open("serde_json_bodies", root);
    let bodies: Vec<(&str, &str)> = requests
        .iter()
        .zip(sent)
        .map(|((_, body), s)| (body.as_str(), std::str::from_utf8(&s.body).unwrap_or("{}")))
        .collect();
    let json_s = replay(MIN, &bodies, |(req, resp)| {
        let _: Value = serde_json::from_str(req).expect("request body is JSON");
        let v: Value = serde_json::from_str(resp).expect("served body is JSON");
        drop(serde_json::to_string(&v));
    });
    tracer.close(span);

    let (mut load, mut restore) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let span = tracer.open("persist_load", root);
        let t = Instant::now();
        let ckpt = ner_core::persist::Checkpoint::load(&ctx.ckpt).expect("fixture loads");
        load.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
        let span = tracer.open("persist_restore", root);
        let t = Instant::now();
        drop(ckpt.restore().expect("fixture restores"));
        restore.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.close(span);
    }
    tracer.close(root);
    vec![
        Metric::new("tokenize.us_per_ktok", ratio(tokenize_s * 1e6, ktok), "us/ktok"),
        Metric::new("http.parse_us_per_req", parse_s * 1e6 / n, "us"),
        Metric::new("serde_json.body_us_per_req", json_s * 1e6 / n, "us"),
        Metric::new("persist.load_ms", stats::median(&load), "ms"),
        Metric::new("persist.restore_ms", stats::median(&restore), "ms"),
    ]
}
