//! Property tests for the threading contract: the blocked kernels, at
//! every thread count, must match a straightforward serial oracle — and
//! since blocking preserves each output element's accumulation order, they
//! must in fact match **bit for bit**.

use ner_tensor::kernels::{self, AlignedBuf};
use ner_tensor::simd::{self, SimdLevel};
use ner_tensor::{Tensor, PAR_MIN_FLOPS};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes tests that touch the global thread pool: `set_global_threads`
/// swaps a process-wide pool, so these tests must not interleave.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    ner_par::set_global_threads(threads);
    let out = f();
    ner_par::set_global_threads(1);
    out
}

/// The pre-blocking matmul (i → p-with-zero-skip → j), the numerical oracle.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = a.at2(i, p);
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                let v = out.at2(i, j) + av * b.at2(p, j);
                out.set2(i, j, v);
            }
        }
    }
    out
}

/// Oracle for `aᵀ·b` with `a` of shape `(k, m)`: p-outer with zero-skip,
/// matching the original `matmul_tn` loop nest.
fn naive_matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = a.shape();
    let n = b.cols();
    let mut out = Tensor::zeros(m, n);
    for p in 0..k {
        for i in 0..m {
            let av = a.at2(p, i);
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                let v = out.at2(i, j) + av * b.at2(p, j);
                out.set2(i, j, v);
            }
        }
    }
    out
}

/// Oracle for `a·bᵀ` with `b` of shape `(n, k)`: a dot product per output
/// element, matching the original `matmul_nt`.
fn naive_matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = a.shape();
    let n = b.rows();
    let mut out = Tensor::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.at2(i, p) * b.at2(j, p);
            }
            out.set2(i, j, acc);
        }
    }
    out
}

/// Exact (bit-level) equality with a readable failure message.
fn assert_bit_identical(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what} shape");
    let diff =
        got.data().iter().zip(want.data()).map(|(x, y)| (x - y).abs()).fold(0.0f32, f32::max);
    assert!(got.data() == want.data(), "{what} diverged from the serial oracle: max|Δ| = {diff:e}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `matmul` at 1/2/4 threads is bit-identical to the naive oracle for
    /// shapes spanning the serial/parallel threshold.
    #[test]
    fn matmul_matches_oracle_at_any_thread_count(
        m in 1usize..72, k in 1usize..72, n in 1usize..72,
        seed in prop::collection::vec(-2.0f32..2.0, 128)
    ) {
        let a = Tensor::from_vec(m, k, seed.iter().cycle().take(m * k).copied().collect());
        let b = Tensor::from_vec(k, n, seed.iter().rev().cycle().take(k * n).copied().collect());
        let want = naive_matmul(&a, &b);
        for threads in [1usize, 2, 4] {
            let got = with_threads(threads, || a.matmul(&b));
            assert_bit_identical(&got, &want, &format!("matmul@{threads}"));
        }
    }

    /// Same contract for the transposed variants.
    #[test]
    fn transposed_variants_match_oracles_at_any_thread_count(
        m in 1usize..40, k in 1usize..40, n in 1usize..40,
        seed in prop::collection::vec(-2.0f32..2.0, 96)
    ) {
        let at = Tensor::from_vec(k, m, seed.iter().cycle().take(k * m).copied().collect());
        let a = Tensor::from_vec(m, k, seed.iter().cycle().take(m * k).copied().collect());
        let b = Tensor::from_vec(k, n, seed.iter().rev().cycle().take(k * n).copied().collect());
        let bt = Tensor::from_vec(n, k, seed.iter().cycle().take(n * k).copied().collect());
        let want_tn = naive_matmul_tn(&at, &b);
        let want_nt = naive_matmul_nt(&a, &bt);
        for threads in [1usize, 2, 4] {
            let got_tn = with_threads(threads, || at.matmul_tn(&b));
            assert_bit_identical(&got_tn, &want_tn, &format!("matmul_tn@{threads}"));
            let got_nt = with_threads(threads, || a.matmul_nt(&bt));
            assert_bit_identical(&got_nt, &want_nt, &format!("matmul_nt@{threads}"));
        }
    }

    /// `transposed` round-trips and matches the definition at any thread
    /// count and ragged shape.
    #[test]
    fn transpose_matches_definition_at_any_thread_count(
        rows in 1usize..70, cols in 1usize..70,
        seed in prop::collection::vec(-2.0f32..2.0, 64)
    ) {
        let t = Tensor::from_vec(rows, cols, seed.iter().cycle().take(rows * cols).copied().collect());
        for threads in [1usize, 2, 4] {
            let tt = with_threads(threads, || t.transposed());
            prop_assert_eq!(tt.shape(), (cols, rows));
            for r in 0..rows.min(8) {
                for c in 0..cols.min(8) {
                    prop_assert_eq!(t.at2(r, c), tt.at2(c, r));
                }
            }
            let back = with_threads(threads, || tt.transposed());
            prop_assert!(back.data() == t.data(), "transpose must round-trip exactly");
        }
    }
}

/// The vector levels this CPU can actually run (empty on a pre-SSE2 host,
/// which cannot exist on x86-64; possibly empty elsewhere).
fn vector_levels() -> Vec<SimdLevel> {
    [SimdLevel::Sse2, SimdLevel::Avx2].into_iter().filter(|&l| simd::is_supported(l)).collect()
}

/// Deterministic fill with exact zeros sprinkled in (`i*7+salt ≡ 5 mod 11`),
/// so the kernels' zero-skip paths run.
fn fill(len: usize, salt: usize, scale: f32) -> Vec<f32> {
    (0..len).map(|i| (((i * 7 + salt) % 11) as f32 - 5.0) * scale).collect()
}

/// Forced-SIMD vs forced-scalar bit-identity at every lane-remainder width
/// around the 4- and 8-lane boundaries, for all three matmul variants at
/// 1/2/4 threads.
#[test]
fn simd_levels_match_forced_scalar_at_lane_remainder_widths() {
    let widths: Vec<usize> = (1usize..=9).chain([15, 17]).collect();
    for &n in &widths {
        for (m, k) in [(1usize, 3usize), (4, 16), (7, 33)] {
            let a = Tensor::from_vec(m, k, fill(m * k, 1, 0.37));
            let at = Tensor::from_vec(k, m, fill(k * m, 2, 0.29));
            let b = Tensor::from_vec(k, n, fill(k * n, 3, 0.23));
            let bt = Tensor::from_vec(n, k, fill(n * k, 4, 0.31));
            for threads in [1usize, 2, 4] {
                let (want_nn, want_tn, want_nt) = with_threads(threads, || {
                    simd::with_level(SimdLevel::Off, || {
                        (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt))
                    })
                });
                for lvl in vector_levels() {
                    let (nn, tn, nt) = with_threads(threads, || {
                        simd::with_level(lvl, || (a.matmul(&b), at.matmul_tn(&b), a.matmul_nt(&bt)))
                    });
                    let ctx = format!("{m}x{k}x{n} {}@{threads}thr", lvl.name());
                    assert_bit_identical(&nn, &want_nn, &format!("matmul {ctx}"));
                    assert_bit_identical(&tn, &want_tn, &format!("matmul_tn {ctx}"));
                    assert_bit_identical(&nt, &want_nt, &format!("matmul_nt {ctx}"));
                }
            }
        }
    }
}

/// Buffer base alignment must never change the bits: the same values run
/// through the public slice kernels from 64-byte-aligned panels and
/// from starts offset by 1..4 floats (so no vector width sees its natural
/// alignment), at every supported SIMD level.
#[test]
fn buffer_alignment_never_changes_the_bits() {
    let (m, k, n) = (7usize, 19usize, 17usize);
    let vals_a = fill(m * k, 5, 0.41); // also reads as (k, m) for tn
    let vals_b = fill(k * n, 6, 0.27);
    let vals_bt = fill(n * k, 8, 0.33);
    let run = |a: &[f32], b: &[f32], bt: &[f32]| {
        let mut nn = vec![0.0f32; m * n];
        kernels::matmul(a, b, &mut nn, m, k, n);
        let mut tn = vec![0.0f32; m * n];
        kernels::matmul_tn(a, b, &mut tn, k, m, n);
        let mut nt = vec![0.0f32; m * n];
        kernels::matmul_nt(a, bt, &mut nt, m, k, n);
        (nn, tn, nt)
    };
    let mut levels = vec![SimdLevel::Off];
    levels.extend(vector_levels());
    for lvl in levels {
        with_threads(1, || {
            simd::with_level(lvl, || {
                let want = run(&vals_a, &vals_b, &vals_bt);

                // 64-byte-aligned starts from the kernels' panel type.
                let mut pa = AlignedBuf::zeroed(m * k);
                pa.as_mut_slice().copy_from_slice(&vals_a);
                let mut pb = AlignedBuf::zeroed(k * n);
                pb.as_mut_slice().copy_from_slice(&vals_b);
                let mut pbt = AlignedBuf::zeroed(n * k);
                pbt.as_mut_slice().copy_from_slice(&vals_bt);
                let got = run(pa.as_slice(), pb.as_slice(), pbt.as_slice());
                assert!(got == want, "aligned panels diverged at {}", lvl.name());

                // Misaligned starts: shift every operand by `off` floats.
                for off in 1usize..4 {
                    let shift = |v: &[f32]| {
                        let mut s = vec![0.0f32; off + v.len()];
                        s[off..].copy_from_slice(v);
                        s
                    };
                    let (sa, sb, sbt) = (shift(&vals_a), shift(&vals_b), shift(&vals_bt));
                    let got = run(&sa[off..], &sb[off..], &sbt[off..]);
                    assert!(got == want, "offset-{off} buffers diverged at {}", lvl.name());
                }
            })
        });
    }
}

/// The exact serial/parallel threshold: shapes straddling `PAR_MIN_FLOPS`
/// agree with the oracle on both sides of the gate.
#[test]
fn threshold_boundary_shapes_are_bit_identical() {
    // 64·64·64 == PAR_MIN_FLOPS; its neighbours sit just under/over.
    assert_eq!(64 * 64 * 64, PAR_MIN_FLOPS);
    for (m, k, n) in [(64, 64, 63), (64, 64, 64), (64, 64, 65), (63, 65, 64)] {
        let a = Tensor::from_vec(m, k, (0..m * k).map(|i| ((i % 13) as f32) - 6.0).collect());
        let b = Tensor::from_vec(k, n, (0..k * n).map(|i| ((i % 7) as f32) - 3.0).collect());
        let want = naive_matmul(&a, &b);
        for threads in [1usize, 2, 4] {
            let got = with_threads(threads, || a.matmul(&b));
            assert!(
                got.data() == want.data(),
                "matmul {m}x{k}x{n} at {threads} threads diverged at the threshold"
            );
        }
    }
}

/// The oracle for `kernels::matmul_tn_runs`: each run's rows added into a
/// zeroed `[m, n]` one at a time in fold order — last row first for
/// `Fold::Reverse` — skipping rows whose `a` value is exactly zero.
fn naive_tn_runs(
    a: &[f32],
    b: &[f32],
    runs: &[(usize, usize)],
    m: usize,
    n: usize,
    fold: kernels::Fold,
) -> Vec<Vec<f32>> {
    runs.iter()
        .map(|&(off, len)| {
            let mut out = vec![0.0f32; m * n];
            let rows: Vec<usize> = match fold {
                kernels::Fold::Forward => (off..off + len).collect(),
                kernels::Fold::Reverse => (off..off + len).rev().collect(),
            };
            for r in rows {
                for i in 0..m {
                    let av = a[r * m + i];
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        out[i * n + j] += av * b[r * n + j];
                    }
                }
            }
            out
        })
        .collect()
}

/// [`fill`] with some of its exact zeros negated, so both `0.0` and `-0.0`
/// reach the zero-skip test.
fn fill_signed_zeros(len: usize, salt: usize, scale: f32) -> Vec<f32> {
    fill(len, salt, scale)
        .into_iter()
        .enumerate()
        .map(|(i, v)| if v == 0.0 && i % 2 == 1 { -0.0 } else { v })
        .collect()
}

/// The segmented TN kernel reproduces the row-by-row fold oracle bit for
/// bit (zero signs included), in both fold orders: at every SIMD level,
/// every `n % 8` lane remainder, `m` on both sides of the kernels' pack
/// threshold (4), runs of length 0 and 1, and at 1 and 4 threads with
/// runs on both sides of `PAR_MIN_FLOPS`.
#[test]
fn segmented_tn_matches_the_row_fold_oracle() {
    let mut levels = vec![SimdLevel::Off];
    levels.extend(vector_levels());
    let small_runs = [(0usize, 1usize), (1, 5), (6, 0), (6, 3), (9, 1)];
    let small_rows = 10;
    // One run well over the gate, one just under it, one of length 1.
    let (big_m, big_len) = (64usize, 70usize);
    let big_runs = [(0usize, big_len), (big_len, 63), (big_len + 63, 1)];
    let big_rows = big_len + 64;
    assert!(big_m * big_len * 64 > PAR_MIN_FLOPS && big_m * 63 * 64 < PAR_MIN_FLOPS);
    let check = |m: usize, n: usize, rows: usize, runs: &[(usize, usize)]| {
        let a = fill_signed_zeros(rows * m, 7, 0.37);
        let b = fill_signed_zeros(rows * n, 3, 0.23);
        for fold in [kernels::Fold::Reverse, kernels::Fold::Forward] {
            let want = naive_tn_runs(&a, &b, runs, m, n, fold);
            for threads in [1usize, 4] {
                for &lvl in &levels {
                    let got = with_threads(threads, || {
                        simd::with_level(lvl, || {
                            let mut outs = vec![vec![0.0f32; m * n]; runs.len()];
                            let mut views: Vec<&mut [f32]> =
                                outs.iter_mut().map(|o| o.as_mut_slice()).collect();
                            kernels::matmul_tn_runs(&a, &b, &mut views, runs, m, n, fold);
                            outs
                        })
                    });
                    for (s, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            g.iter().zip(w).all(|(x, y)| x.to_bits() == y.to_bits()),
                            "run {s} of {m}x{n} {fold:?} {}@{threads}thr",
                            lvl.name()
                        );
                    }
                }
            }
        }
    };
    for n in 1usize..=17 {
        for m in [1usize, 3, 4, 7, 9] {
            check(m, n, small_rows, &small_runs);
        }
    }
    for n in [64usize, 67] {
        check(big_m, n, big_rows, &big_runs);
    }
}
