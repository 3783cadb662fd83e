//! Kernel and batch-scoring throughput: naive vs blocked vs SIMD vs
//! parallel.
//!
//! Benchmarks the three matmul variants (`matmul`, `matmul_tn`,
//! `matmul_nt`) at several shapes against a local copy of the original
//! naive kernels — with the scalar blocked kernels forced via
//! `simd::with_level(Off, …)` and one forced row per supported SIMD
//! level (`sse2`, `avx2`) — then measures encoder-class batch scoring
//! (`predict_all`) at thread counts 1/2/4 on the global `ner-par` pool.
//!
//! The blocked, SIMD and parallel kernels all preserve the naive
//! kernels' per-element accumulation order, so every row must agree
//! with the naive oracle **bit for bit** — any nonzero
//! `max_abs_diff_vs_naive` makes the harness exit non-zero (CI runs
//! this via `--smoke` at both `NER_SIMD=off` and the default level).
//!
//! Results land in `results/exp_kernels.json` (with a run manifest that
//! records the kernel backend). A full run also writes the repo-level
//! snapshot, `BENCH_kernels.json` at the current directory root; `--smoke`
//! does not, so a CI run leaves the committed snapshot alone. Both record
//! the host's CPU features next to every row's SIMD level.

use ner_bench::{best_us, init_harness, print_table, write_report, Scale};
use ner_core::config::NerConfig;
use ner_core::model::NerModel;
use ner_core::repr::SentenceEncoder;
use ner_core::trainer::predict_all;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_tensor::simd::{self, SimdLevel};
use ner_tensor::Tensor;
use ner_text::TagScheme;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

const SEED: u64 = 17;

/// One timed kernel measurement.
#[derive(Serialize)]
struct KernelRow {
    op: String,
    m: usize,
    k: usize,
    n: usize,
    variant: String,
    /// SIMD level the row ran at (`off` / `sse2` / `avx2`), forced via
    /// `simd::with_level` so the row means the same thing on every host.
    simd: String,
    threads: usize,
    best_ms: f64,
    gflops: f64,
    speedup_vs_naive: f64,
    /// Must be exactly `0.0` — the determinism contract is bit-identity,
    /// and any nonzero value fails the harness.
    max_abs_diff_vs_naive: f64,
}

/// One batch-scoring measurement.
#[derive(Serialize)]
struct ScoringRow {
    threads: usize,
    sentences: usize,
    tokens: usize,
    best_ms: f64,
    tokens_per_sec: f64,
    speedup_vs_1: f64,
    identical_to_serial: bool,
}

#[derive(Serialize)]
struct Report {
    experiment: String,
    description: String,
    seed: u64,
    smoke: bool,
    /// Worker threads requested via `NER_THREADS` — the pool size the
    /// thread sweep is driven from, as opposed to what the host offers.
    requested_threads: usize,
    /// True `available_parallelism` of the host the run executed on.
    host_parallelism: usize,
    /// Timed repetitions per kernel row; each row reports the best.
    kernel_reps: usize,
    /// Active kernel backend descriptor, e.g. `"avx2 (cpu: sse2+avx2+fma)"`.
    kernel_backend: String,
    /// SIMD level the unforced (default) rows ran at.
    simd_default: String,
    /// Host CPU: 128-bit f32 lanes available.
    cpu_sse2: bool,
    /// Host CPU: 256-bit f32 lanes available.
    cpu_avx2: bool,
    /// Host CPU: fused multiply-add available (detected but never used —
    /// FMA rounds once where the scalar oracle rounds twice).
    cpu_fma: bool,
    kernels: Vec<KernelRow>,
    batch_scoring: Vec<ScoringRow>,
    divergence_failures: usize,
}

/// The pre-blocking matmul from `ner-tensor` (i → p-with-zero-skip → j),
/// kept here verbatim as the numerical oracle and speed baseline.
fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// The pre-blocking `matmul_tn` oracle: `out = aᵀ·b` with `a` of shape
/// `(k, m)`.
fn naive_matmul_tn(a: &[f32], b: &[f32], k: usize, m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for p in 0..k {
        let brow = &b[p * n..(p + 1) * n];
        for i in 0..m {
            let av = a[p * m + i];
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// The pre-blocking `matmul_nt` oracle: `out = a·bᵀ` with `b` of shape
/// `(n, k)`.
fn naive_matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[i * n + j] += acc;
        }
    }
    out
}

fn random_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect()
}

/// Best-of-`reps` wall time of `f` in milliseconds.
fn max_abs_diff(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y).abs() as f64).fold(0.0, f64::max)
}

#[allow(clippy::too_many_arguments)]
fn push_variant(
    rows: &mut Vec<KernelRow>,
    failures: &mut usize,
    op: &str,
    (m, k, n): (usize, usize, usize),
    variant: &str,
    lvl: SimdLevel,
    threads: usize,
    naive_best: f64,
    reps: usize,
    oracle: &[f32],
    run: impl Fn() -> Tensor,
) {
    // Force the SIMD level for both the timed loop and the correctness
    // pass; the kernels capture the level once at entry on this thread,
    // so the override reaches the `ner-par` workers too.
    let (ms, diff) = simd::with_level(lvl, || {
        let ms = best_us(reps, 1, || {
            std::hint::black_box(run());
        }) / 1e3;
        (ms, max_abs_diff(run().data(), oracle))
    });
    if diff != 0.0 {
        *failures += 1;
        eprintln!(
            "DIVERGENCE: {op} {m}x{k}x{n} {variant}/{}@{threads}: max|Δ| = {diff:e}",
            lvl.name()
        );
    }
    rows.push(KernelRow {
        op: op.to_string(),
        m,
        k,
        n,
        variant: variant.to_string(),
        simd: lvl.name().to_string(),
        threads,
        best_ms: ms,
        gflops: (2.0 * m as f64 * k as f64 * n as f64) / (ms * 1e6),
        speedup_vs_naive: naive_best / ms,
        max_abs_diff_vs_naive: diff,
    });
}

/// The SIMD levels a forced row can run at on this host: always `Off`,
/// plus every vector level the CPU supports.
fn forced_levels() -> Vec<SimdLevel> {
    [SimdLevel::Off, SimdLevel::Sse2, SimdLevel::Avx2]
        .into_iter()
        .filter(|&l| simd::is_supported(l))
        .collect()
}

fn bench_kernels(
    shapes: &[(usize, usize, usize)],
    thread_counts: &[usize],
    reps: usize,
    failures: &mut usize,
) -> Vec<KernelRow> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut rows = Vec::new();
    for &(m, k, n) in shapes {
        let a = random_vec(&mut rng, m * k); // also reads as (k, m) for tn
        let b = random_vec(&mut rng, k * n);
        let bt = Tensor::from_vec(k, n, b.clone()).transposed(); // (n, k) for nt
        let ta = Tensor::from_vec(m, k, a.clone());
        let ta_tn = Tensor::from_vec(k, m, a[..k * m].to_vec());
        let tb = Tensor::from_vec(k, n, b.clone());

        // matmul: naive oracle, then at one thread a forced scalar
        // "blocked" row plus one forced "simd" row per supported lane
        // width, then "parallel" at the remaining thread counts (at the
        // configured level, so `NER_SIMD=off` runs reproduce the
        // pre-SIMD numbers bit-for-bit).
        let oracle = naive_matmul(&a, &b, m, k, n);
        let naive_best = best_us(reps, 1, || {
            std::hint::black_box(naive_matmul(&a, &b, m, k, n));
        }) / 1e3;
        rows.push(KernelRow {
            op: "matmul".into(),
            m,
            k,
            n,
            variant: "naive".into(),
            simd: SimdLevel::Off.name().into(),
            threads: 1,
            best_ms: naive_best,
            gflops: (2.0 * m as f64 * k as f64 * n as f64) / (naive_best * 1e6),
            speedup_vs_naive: 1.0,
            max_abs_diff_vs_naive: 0.0,
        });
        for &t in thread_counts {
            ner_par::set_global_threads(t);
            if t == 1 {
                for lvl in forced_levels() {
                    let variant = if lvl == SimdLevel::Off { "blocked" } else { "simd" };
                    push_variant(
                        &mut rows,
                        failures,
                        "matmul",
                        (m, k, n),
                        variant,
                        lvl,
                        t,
                        naive_best,
                        reps,
                        &oracle,
                        || ta.matmul(&tb),
                    );
                }
            } else {
                push_variant(
                    &mut rows,
                    failures,
                    "matmul",
                    (m, k, n),
                    "parallel",
                    simd::configured(),
                    t,
                    naive_best,
                    reps,
                    &oracle,
                    || ta.matmul(&tb),
                );
            }
        }

        // matmul_tn and matmul_nt: the same forced sweep at one thread
        // (so the nt-within-1.5x-of-nn comparison reads off rows at the
        // same SIMD level), correctness at every thread count, parallel
        // timing at the highest (the row-split story is the same).
        let top = *thread_counts.iter().max().unwrap_or(&1);
        let oracle_tn = naive_matmul_tn(&a[..k * m], &b, k, m, n);
        let oracle_nt = naive_matmul_nt(&a, bt.data(), m, k, n);
        ner_par::set_global_threads(1);
        let naive_tn = best_us(reps, 1, || {
            std::hint::black_box(naive_matmul_tn(&a[..k * m], &b, k, m, n));
        }) / 1e3;
        let naive_nt = best_us(reps, 1, || {
            std::hint::black_box(naive_matmul_nt(&a, bt.data(), m, k, n));
        }) / 1e3;
        for lvl in forced_levels() {
            let variant = if lvl == SimdLevel::Off { "blocked" } else { "simd" };
            push_variant(
                &mut rows,
                failures,
                "matmul_tn",
                (m, k, n),
                variant,
                lvl,
                1,
                naive_tn,
                reps,
                &oracle_tn,
                || ta_tn.matmul_tn(&tb),
            );
            push_variant(
                &mut rows,
                failures,
                "matmul_nt",
                (m, k, n),
                variant,
                lvl,
                1,
                naive_nt,
                reps,
                &oracle_nt,
                || ta.matmul_nt(&bt),
            );
        }
        for &t in thread_counts.iter().filter(|&&t| t > 1) {
            ner_par::set_global_threads(t);
            if t == top {
                push_variant(
                    &mut rows,
                    failures,
                    "matmul_tn",
                    (m, k, n),
                    "parallel",
                    simd::configured(),
                    t,
                    naive_tn,
                    reps,
                    &oracle_tn,
                    || ta_tn.matmul_tn(&tb),
                );
                push_variant(
                    &mut rows,
                    failures,
                    "matmul_nt",
                    (m, k, n),
                    "parallel",
                    simd::configured(),
                    t,
                    naive_nt,
                    reps,
                    &oracle_nt,
                    || ta.matmul_nt(&bt),
                );
            } else {
                let d_tn = max_abs_diff(ta_tn.matmul_tn(&tb).data(), &oracle_tn);
                let d_nt = max_abs_diff(ta.matmul_nt(&bt).data(), &oracle_nt);
                for (op, d) in [("matmul_tn", d_tn), ("matmul_nt", d_nt)] {
                    if d != 0.0 {
                        *failures += 1;
                        eprintln!("DIVERGENCE: {op} {m}x{k}x{n} @{t} threads: max|Δ| = {d:e}");
                    }
                }
            }
        }
        ner_par::set_global_threads(1);
    }
    rows
}

fn bench_scoring(scale: Scale, thread_counts: &[usize]) -> Vec<ScoringRow> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let ds = gen.dataset(&mut rng, scale.size(200));
    let encoder = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
    let model = NerModel::new(NerConfig::default(), &encoder, None, &mut rng);
    let encoded = encoder.encode_dataset(&ds, None);
    let tokens: usize = encoded.iter().map(|e| e.len()).sum();
    let reps = match scale {
        Scale::Full => 3,
        Scale::Quick => 2,
    };

    ner_par::set_global_threads(1);
    let serial_preds = predict_all(&model, &encoded);

    let mut rows: Vec<ScoringRow> = Vec::new();
    for &t in thread_counts {
        ner_par::set_global_threads(t);
        let ms = best_us(reps, 1, || {
            std::hint::black_box(predict_all(&model, &encoded));
        }) / 1e3;
        let identical = predict_all(&model, &encoded) == serial_preds;
        let base = rows.first().map_or(ms, |r| r.best_ms);
        rows.push(ScoringRow {
            threads: t,
            sentences: encoded.len(),
            tokens,
            best_ms: ms,
            tokens_per_sec: tokens as f64 / (ms / 1e3),
            speedup_vs_1: base / ms,
            identical_to_serial: identical,
        });
    }
    ner_par::set_global_threads(1);
    rows
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scale = if smoke { Scale::Quick } else { Scale::from_args() };
    init_harness("exp_kernels", SEED, scale);

    let shapes: Vec<(usize, usize, usize)> = match scale {
        // 64³ sits exactly on PAR_MIN_FLOPS; 40×128×512 is an LSTM-gate
        // shaped workload (sentence × hidden × 4·hidden); 128×40×512 is
        // the TN gradient accumulation dW = Xᵀ·dY of the same gate (tall
        // skinny aᵀ: k = sentence rows, m = input dim, n = 4·hidden).
        Scale::Full => {
            vec![
                (32, 32, 32),
                (64, 64, 64),
                (128, 128, 128),
                (256, 256, 256),
                (40, 128, 512),
                (128, 40, 512),
            ]
        }
        Scale::Quick => vec![(32, 32, 32), (64, 64, 64), (96, 96, 96)],
    };
    let thread_counts = [1usize, 2, 4];
    let reps = match scale {
        Scale::Full => 5,
        Scale::Quick => 3,
    };

    let mut failures = 0usize;
    let kernels = bench_kernels(&shapes, &thread_counts, reps, &mut failures);
    let batch_scoring = bench_scoring(scale, &thread_counts);
    for r in &batch_scoring {
        if !r.identical_to_serial {
            failures += 1;
            eprintln!("DIVERGENCE: batch scoring at {} threads differs from serial", r.threads);
        }
    }

    println!("kernel backend: {}", simd::descriptor());
    print_table(
        "kernel throughput (best of reps)",
        &["op", "shape", "variant", "simd", "thr", "ms", "GFLOP/s", "×naive", "max|Δ|"],
        &kernels
            .iter()
            .map(|r| {
                vec![
                    r.op.clone(),
                    format!("{}x{}x{}", r.m, r.k, r.n),
                    r.variant.clone(),
                    r.simd.clone(),
                    r.threads.to_string(),
                    format!("{:.3}", r.best_ms),
                    format!("{:.2}", r.gflops),
                    format!("{:.2}", r.speedup_vs_naive),
                    format!("{:.1e}", r.max_abs_diff_vs_naive),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        "batch scoring (predict_all)",
        &["thr", "sent", "tokens", "ms", "tok/s", "×1thr", "identical"],
        &batch_scoring
            .iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    r.sentences.to_string(),
                    r.tokens.to_string(),
                    format!("{:.1}", r.best_ms),
                    format!("{:.0}", r.tokens_per_sec),
                    format!("{:.2}", r.speedup_vs_1),
                    r.identical_to_serial.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let cpu = simd::cpu_features();
    let report = Report {
        experiment: "exp_kernels".into(),
        description: "Serial vs blocked vs SIMD vs parallel kernel and batch-scoring throughput; every variant must match the naive oracle bit-for-bit".into(),
        seed: SEED,
        smoke,
        requested_threads: ner_par::default_threads(),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel_reps: reps,
        kernel_backend: simd::descriptor(),
        simd_default: simd::configured().name().into(),
        cpu_sse2: cpu.sse2,
        cpu_avx2: cpu.avx2,
        cpu_fma: cpu.fma,
        kernels,
        batch_scoring,
        divergence_failures: failures,
    };
    let path = write_report("exp_kernels", &report);
    println!("\nreport: {}", path.display());
    if !smoke {
        let bench_json = serde_json::to_string_pretty(&report).expect("serialize BENCH report");
        std::fs::write("BENCH_kernels.json", bench_json).expect("write BENCH_kernels.json");
        println!("snapshot: BENCH_kernels.json");
    }

    if failures > 0 {
        eprintln!(
            "{failures} divergence failure(s); blocked/SIMD/parallel kernels must match the naive scalar oracle bit-for-bit"
        );
        std::process::exit(1);
    }
}
