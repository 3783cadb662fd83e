//! An idle server must cost nothing: poll shards block in `epoll_wait`
//! until a socket, a reply or a deadline needs them, so open keep-alive
//! connections with no traffic on them use no CPU.
//!
//! This test reads every `ner-serve*` thread's CPU time from `/proc`, so
//! it lives in its own test binary: no other test's server shares the
//! process and its thread names.

use ner_core::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
use ner_core::model::NerModel;
use ner_core::prelude::NerPipeline;
use ner_core::repr::SentenceEncoder;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_serve::{client, ServeConfig, ServeState, Server};
use ner_text::TagScheme;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn tiny_pipeline() -> NerPipeline {
    let mut rng = StdRng::seed_from_u64(11);
    let ds = NewsGenerator::new(GeneratorConfig::default()).dataset(&mut rng, 40);
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

/// User + system CPU seconds of this process's threads whose name starts
/// with `ner-serve`, from `/proc/self/task/*/{comm,stat}`. `utime` and
/// `stime` are fields 14 and 15 of `stat`, in `USER_HZ` (100 on Linux)
/// ticks; the name field may hold spaces, so fields count from its `)`.
fn server_cpu_s() -> f64 {
    let mut total = 0.0;
    for entry in std::fs::read_dir("/proc/self/task").expect("/proc/self/task") {
        let dir = entry.expect("task entry").path();
        let (Ok(comm), Ok(stat)) =
            (std::fs::read_to_string(dir.join("comm")), std::fs::read_to_string(dir.join("stat")))
        else {
            continue;
        };
        if !comm.starts_with("ner-serve") {
            continue;
        }
        let fields: Vec<&str> =
            stat[stat.rfind(')').expect("stat name") + 1..].split_whitespace().collect();
        let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        total += ticks as f64 / 100.0;
    }
    total
}

#[test]
fn idle_keep_alive_connections_cost_no_cpu() {
    let cfg = ServeConfig { poll_shards: 2, ..ServeConfig::default() };
    let state = ServeState::new(tiny_pipeline(), None, cfg);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&state)).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::Builder::new()
        .name("ner-serve-run".into())
        .spawn(move || server.run().expect("server run"))
        .expect("spawn server");

    // 256 keep-alive connections, each used once and then left open.
    let mut sockets = Vec::new();
    for _ in 0..256 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("request");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        assert!(line.starts_with("HTTP/1.1 200"), "{line:?}");
        let mut content_length = 0;
        loop {
            line.clear();
            reader.read_line(&mut line).expect("header");
            if line.trim_end().is_empty() {
                break;
            }
            if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("content-length");
            }
        }
        reader.read_exact(&mut vec![0u8; content_length]).expect("body");
        sockets.push(reader);
    }

    let before = server_cpu_s();
    std::thread::sleep(Duration::from_secs(2));
    let used = server_cpu_s() - before;
    // Far below what a sleep-and-probe loop pays for probing every socket
    // on every pass: about 380 ms over these 2 s on a 2-core x86-64 host.
    assert!(used < 0.040, "the idle server used {:.0} ms of CPU in 2 s", used * 1e3);

    drop(sockets);
    assert_eq!(client::post(addr, "/admin/shutdown", "").expect("shutdown").status, 200);
    handle.join().expect("server thread");
}
