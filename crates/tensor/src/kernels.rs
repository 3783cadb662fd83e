//! Cache-blocked, row-parallel matrix kernels.
//!
//! Every kernel here is written so that the floating-point accumulation
//! order *per output element* is identical to the textbook loop it
//! replaces: blocking only reorders which elements are worked on, never the
//! ascending `p` sweep that accumulates into one element, and the parallel
//! path splits the *output rows* across workers, which partitions elements
//! without touching their accumulation order. Serial, blocked and parallel
//! results are therefore bit-identical at every size and thread count — the
//! determinism contract the trainer and the experiment harnesses rely on
//! (see DESIGN.md).
//!
//! Parallelism kicks in only above [`PAR_MIN_FLOPS`] multiply-adds so
//! unit-scale tensors never pay pool overhead, and only when the global
//! [`ner_par`] pool has more than one thread.

use crate::simd;
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

/// Rows of the left operand / output processed per cache block.
pub(crate) const MC: usize = 32;

/// Output columns processed per cache block (×4 bytes ≈ a 512-byte panel
/// per row, small enough that an `MC`-row working set stays in L1/L2).
pub(crate) const NC: usize = 128;

/// Square tile edge for the blocked transpose.
const TC: usize = 32;

/// Rows per register tile in [`matmul_rows`]. With [`JB`] this sizes the
/// accumulator block that stays in registers across a full `p` sweep.
pub(crate) const RB: usize = 4;

/// Columns per register tile in [`matmul_rows`]. `RB × JB` f32
/// accumulators (8 SSE vectors at 4 lanes) plus the broadcast `a` values
/// and one `b` panel fit the 16 xmm registers of baseline x86-64, so the
/// tile never spills mid-sweep.
const JB: usize = 8;

/// Minimum multiply-add count (`m·k·n`) before a kernel consults the
/// thread pool. Below this, dispatch overhead exceeds the work: a
/// `64×64×64` product is ~260k FLOPs ≈ tens of microseconds.
pub const PAR_MIN_FLOPS: usize = 64 * 64 * 64;

/// Alignment of [`AlignedBuf`] allocations: one cache line, which also
/// covers the 32-byte loads of the AVX2 lane kernels.
const PANEL_ALIGN: usize = 64;

/// A zeroed, cache-line-aligned `f32` buffer for the packed panels of
/// [`matmul_tn`], [`matmul_tn_runs`] and [`matmul_nt`]. `Vec<f32>` cannot
/// guarantee alignment beyond 4 bytes — and rebuilding one around an
/// over-aligned allocation would hand the wrong [`Layout`] to its
/// destructor — so this type owns its allocation outright and its
/// [`Drop`] impl deallocates with the exact layout used to allocate.
pub struct AlignedBuf {
    ptr: NonNull<f32>,
    len: usize,
}

// Safety: `AlignedBuf` exclusively owns its heap allocation, exactly like
// `Vec<f32>`; moving it between threads moves unique ownership.
unsafe impl Send for AlignedBuf {}

impl AlignedBuf {
    /// Allocates `len` zeroed floats at a 64-byte boundary.
    pub fn zeroed(len: usize) -> Self {
        let layout = Self::layout(len);
        // Safety: the layout is never zero-sized (see `layout`).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<f32>()) else {
            handle_alloc_error(layout);
        };
        AlignedBuf { ptr, len }
    }

    /// The allocation's layout: at least one float, so a zero-length
    /// panel still has a valid, non-zero-sized allocation.
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len.max(1) * std::mem::size_of::<f32>(), PANEL_ALIGN)
            .expect("panel layout")
    }

    /// The buffer as a shared slice of its `len` floats.
    pub fn as_slice(&self) -> &[f32] {
        // Safety: `ptr` addresses `len` initialized floats.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The buffer as a mutable slice of its `len` floats.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // Safety: as `as_slice`, plus exclusive access through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        // Safety: `ptr` was allocated in `zeroed` with exactly this layout.
        unsafe { dealloc(self.ptr.as_ptr().cast(), Self::layout(self.len)) };
    }
}

/// A `*mut f32` that can cross threads for disjoint row-range writes.
struct SendMut(*mut f32);
impl SendMut {
    /// Method access keeps closures capturing the wrapper, not the field.
    fn get(&self) -> *mut f32 {
        self.0
    }
}
unsafe impl Send for SendMut {}
unsafe impl Sync for SendMut {}

/// Runs `body(r0, r1, out_rows)` over `[0, m)` either serially or split
/// into disjoint row ranges across the global pool. `row_len` is the
/// number of `f32`s per output row; `flops` gates the parallel path.
fn over_rows<F>(m: usize, row_len: usize, flops: usize, out: &mut [f32], body: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), m * row_len);
    if flops < PAR_MIN_FLOPS || m < 2 {
        body(0, m, out);
        return;
    }
    let pool = ner_par::global();
    if pool.threads() <= 1 {
        body(0, m, out);
        return;
    }
    let base = SendMut(out.as_mut_ptr());
    pool.for_each_chunk(m, 1, |range| {
        // Disjoint: every chunk covers distinct rows of `out`.
        let rows = unsafe {
            std::slice::from_raw_parts_mut(
                base.get().add(range.start * row_len),
                (range.end - range.start) * row_len,
            )
        };
        body(range.start, range.end, rows);
    });
}

/// One row's contribution over the output panel `[jb, je)` — the scalar
/// i-k-j loop the register tile reduces to on remainder rows/columns.
/// `p` ascends over the full inner dimension for every element and rows
/// of `a` that are exactly zero at `p` are skipped, so the per-element
/// operation sequence is the reference one for the whole kernel.
#[inline]
#[allow(clippy::too_many_arguments)]
fn row_panel(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    r0: usize,
    jb: usize,
    je: usize,
    k: usize,
    n: usize,
) {
    let a_row = &a[i * k..(i + 1) * k];
    let out_row = &mut out[(i - r0) * n + jb..(i - r0) * n + je];
    for (p, &av) in a_row.iter().enumerate() {
        if av == 0.0 {
            continue;
        }
        let b_row = &b[p * n + jb..p * n + je];
        for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
            *o += av * bv;
        }
    }
}

/// An `RB × JB` register tile at rows `i0..i0+RB`, columns `j0..j0+JB`:
/// the accumulators live in `acc` across the entire ascending-`p` sweep,
/// so each `b` panel load feeds `RB` multiply-adds instead of one.
///
/// Bit-identical to [`row_panel`]: each element starts from the value
/// already in `out`, accumulates `av * bv` in the same ascending-`p`
/// order, and keeps the per-row `av == 0.0` skip — only *which* element
/// the next operation touches changes, never an element's own sequence.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile_quad(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i0: usize,
    r0: usize,
    j0: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; JB]; RB];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&out[(i0 + r - r0) * n + j0..][..JB]);
    }
    let a0 = &a[i0 * k..][..k];
    let a1 = &a[(i0 + 1) * k..][..k];
    let a2 = &a[(i0 + 2) * k..][..k];
    let a3 = &a[(i0 + 3) * k..][..k];
    for p in 0..k {
        let b_row: &[f32; JB] = b[p * n + j0..][..JB].try_into().unwrap();
        let av = [a0[p], a1[p], a2[p], a3[p]];
        for r in 0..RB {
            if av[r] == 0.0 {
                continue;
            }
            for c in 0..JB {
                acc[r][c] += av[r] * b_row[c];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[(i0 + r - r0) * n + j0..][..JB].copy_from_slice(row);
    }
}

/// `out[r0..r1] += a[r0..r1] × b` for `a: [m,k]`, `b: [k,n]`.
///
/// Full `RB`-row × `JB`-column groups go through the register tile of
/// [`tile_quad`]; remainder rows and columns fall back to the panel loop
/// of [`row_panel`]. The `i`/`j` cache blocking keeps the `b` panel
/// resident across the `MC` rows of a block. Both paths accumulate each
/// output element over the full ascending-`p` sweep with the same
/// operation sequence, so tiling never changes a result bit — single-row
/// products (`m == 1`) simply take the panel path, which is why batched
/// `[B,T]` evaluation amortizes weight-panel traffic that per-sentence
/// `[1,k]` products cannot.
fn matmul_rows(a: &[f32], b: &[f32], out: &mut [f32], r0: usize, r1: usize, k: usize, n: usize) {
    for ib in (r0..r1).step_by(MC) {
        let ie = (ib + MC).min(r1);
        for jb in (0..n).step_by(NC) {
            let je = (jb + NC).min(n);
            let mut i = ib;
            while i + RB <= ie {
                let mut j = jb;
                while j + JB <= je {
                    tile_quad(a, b, out, i, r0, j, k, n);
                    j += JB;
                }
                if j < je {
                    for ii in i..i + RB {
                        row_panel(a, b, out, ii, r0, j, je, k, n);
                    }
                }
                i += RB;
            }
            for ii in i..ie {
                row_panel(a, b, out, ii, r0, jb, je, k, n);
            }
        }
    }
}

/// `a [m,k] × b [k,n] → out [m,n]` (zero-initialized by the caller),
/// parallel over output rows above the FLOP threshold.
///
/// The active [`simd`] level is captured here on the calling thread —
/// before the row split — so a [`simd::with_level`] override covers the
/// `ner-par` workers; [`simd::SimdLevel::Off`] runs the scalar
/// `matmul_rows` oracle the lane kernels are checked against.
pub fn matmul(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let lvl = simd::active();
    over_rows(m, n, m * k * n, out, |r0, r1, rows| {
        if simd::nn_rows(lvl, a, b, rows, r0, r1, k, n) {
            return;
        }
        matmul_rows(a, b, rows, r0, r1, k, n)
    });
}

/// `out[r0..r1] = (aᵀ × b)[r0..r1]` for `a: [k,m]`, `b: [k,n]` (no
/// transpose materialized). `p` walks the shared leading dimension in
/// ascending order for every output element; the row blocking only keeps
/// an `MC × n` output panel hot across the whole `p` sweep.
fn matmul_tn_rows(a: &[f32], b: &[f32], out: &mut [f32], r0: usize, r1: usize, k: usize, n: usize) {
    let m = a.len().checked_div(k).unwrap_or(0);
    for ib in (r0..r1).step_by(MC) {
        let ie = (ib + MC).min(r1);
        for p in 0..k {
            let b_row = &b[p * n..(p + 1) * n];
            for i in ib..ie {
                let av = a[p * m + i];
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out[(i - r0) * n..(i - r0 + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// Minimum `m` before [`matmul_tn`] packs `aᵀ`: the pack costs ~2·k·m
/// memory passes, which only pays once several output rows run through
/// the register tiles. Below this the broadcast-and-skip kernel runs
/// unchanged (bit-identical, so the threshold is perf-only).
const TN_PACK_MIN_M: usize = 4;

/// `aᵀ [m,k-rows] × b → out [m,n]` where `a: [k,m]`, `b: [k,n]`.
///
/// For `m ≥ TN_PACK_MIN_M` the kernel transposes `a` once, on the calling
/// thread, into a cache-aligned panel `at: [m,k]` and runs the NN
/// register tiles (or [`simd`] lane tiles) over it. TN's per-element
/// contract — ascending `p`, skip when the `a` value is exactly zero,
/// accumulate into `out` — is exactly NN's contract applied to `aᵀ`
/// (`at[i·k+p] = a[p·m+i]`), so the packed path is bit-identical to the
/// broadcast kernel by construction while replacing its strided
/// column-gather loads (the reason it ran at scalar speed) with the
/// contiguous panels the tiles were built for.
pub fn matmul_tn(a: &[f32], b: &[f32], out: &mut [f32], k: usize, m: usize, n: usize) {
    let lvl = simd::active();
    if m < TN_PACK_MIN_M {
        over_rows(m, n, m * k * n, out, |r0, r1, rows| {
            if simd::tn_rows(lvl, a, b, rows, r0, r1, k, n, m) {
                return;
            }
            matmul_tn_rows(a, b, rows, r0, r1, k, n)
        });
        return;
    }
    let mut at = AlignedBuf::zeroed(m * k);
    transpose(a, at.as_mut_slice(), k, m);
    let ats = at.as_slice();
    over_rows(m, n, m * k * n, out, |r0, r1, rows| {
        if simd::nn_rows(lvl, ats, b, rows, r0, r1, k, n) {
            return;
        }
        matmul_rows(ats, b, rows, r0, r1, k, n)
    });
}

/// The order in which [`matmul_tn_runs`] folds a run's rows into each
/// output element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    /// First row first: the ascending-`p` order of [`matmul_tn`].
    Forward,
    /// Last row first: the order in which a per-timestep backward sums its
    /// rank-1 weight-gradient products (BPTT visits `t = len - 1` first).
    Reverse,
}

/// Segmented `aᵀ × b` over packed rows: for each run `(off, len)`,
/// `outs[s] += a[off..off+len]ᵀ × b[off..off+len]`, where `a` rows are `m`
/// wide, `b` rows `n` wide and `outs[s]` is `[m, n]`. A run of length 0
/// leaves its output as it is.
///
/// Every output element accumulates the run's rows one at a time in
/// `fold` order, with no FMA and skipping rows whose `a` value is exactly
/// zero — [`matmul_tn`]'s per-element contract over the run's rows taken
/// in that order. With zeroed outputs, [`Fold::Reverse`] therefore
/// reproduces the bits of a loop that adds one `[1, m]ᵀ × [1, n]` product
/// per row from the last row down (up to the sign of a zero; DESIGN.md
/// §4), and [`Fold::Forward`] the bits of one [`matmul_tn`] per run.
///
/// Each run's `aᵀ` is packed on the calling thread into an aligned
/// panel in fold order (for [`Fold::Reverse`] the run's `b` rows are
/// copied in that order too), and the NN register or lane tiles run over
/// the panels, parallel over output rows above [`PAR_MIN_FLOPS`]. Packing
/// only moves bytes, so it is bit-identical at every `m`, SIMD level and
/// thread count.
///
/// # Panics
/// Panics if `outs` and `runs` differ in length, an output is not `m·n`
/// long, or a run reaches past the end of `a` or `b`.
pub fn matmul_tn_runs(
    a: &[f32],
    b: &[f32],
    outs: &mut [&mut [f32]],
    runs: &[(usize, usize)],
    m: usize,
    n: usize,
    fold: Fold,
) {
    assert_eq!(outs.len(), runs.len(), "matmul_tn_runs: one output per run");
    let lvl = simd::active();
    for (out, &(off, len)) in outs.iter_mut().zip(runs) {
        assert_eq!(out.len(), m * n, "matmul_tn_runs: output must be [m, n]");
        if len == 0 || out.is_empty() {
            continue;
        }
        let row = |q: usize| match fold {
            Fold::Forward => off + q,
            Fold::Reverse => off + len - 1 - q,
        };
        let mut at = AlignedBuf::zeroed(m * len);
        let ats = at.as_mut_slice();
        for q in 0..len {
            for (i, &v) in a[row(q) * m..][..m].iter().enumerate() {
                ats[i * len + q] = v;
            }
        }
        let rev: Vec<f32>;
        let bs = match fold {
            Fold::Forward => &b[off * n..(off + len) * n],
            Fold::Reverse => {
                rev = (0..len).flat_map(|q| &b[row(q) * n..][..n]).copied().collect();
                &rev
            }
        };
        let ats = at.as_slice();
        over_rows(m, n, m * len * n, out, |r0, r1, rows| {
            if simd::nn_rows(lvl, ats, bs, rows, r0, r1, len, n) {
                return;
            }
            matmul_rows(ats, bs, rows, r0, r1, len, n)
        });
    }
}

/// `out[r0..r1] = (a × bᵀ)[r0..r1]` for `a: [m,k]`, `b: [n,k]`. Each
/// output element is an independent dot product accumulated in ascending
/// `p` order; blocking keeps a panel of `b` rows hot across `MC` rows of
/// `a`.
fn matmul_nt_rows(a: &[f32], b: &[f32], out: &mut [f32], r0: usize, r1: usize, k: usize, n: usize) {
    for ib in (r0..r1).step_by(MC) {
        let ie = (ib + MC).min(r1);
        for jb in (0..n).step_by(MC) {
            let je = (jb + MC).min(n);
            for i in ib..ie {
                let a_row = &a[i * k..(i + 1) * k];
                for j in jb..je {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = 0.0;
                    for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
                        acc += av * bv;
                    }
                    out[(i - r0) * n + j] += acc;
                }
            }
        }
    }
}

/// One NT output element as a dot product over a contiguous row of
/// `b: [n,k]` — the historical NT inner loop (accumulate from zero, no
/// zero-skip, one final `out += acc`), kept as the remainder path and the
/// per-element reference the tiled kernels must reproduce bit-for-bit.
#[inline]
#[allow(clippy::too_many_arguments)]
fn nt_dot(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    i: usize,
    r0: usize,
    j: usize,
    k: usize,
    n: usize,
) {
    let a_row = &a[i * k..(i + 1) * k];
    let b_row = &b[j * k..(j + 1) * k];
    let mut acc = 0.0;
    for (&av, &bv) in a_row.iter().zip(b_row.iter()) {
        acc += av * bv;
    }
    out[(i - r0) * n + j] += acc;
}

/// An `RB × JB` register tile of the NT kernel over the packed panel
/// `bt = bᵀ: [k,n]`. Bit-identical to [`nt_dot`] per element: every
/// accumulator starts at zero, sweeps `p` ascending with no zero-skip, and
/// lands with one `out += acc` — only the element grouping changes, which
/// is what turns `n` sequential dot products into a panel reuse pattern.
#[inline]
#[allow(clippy::too_many_arguments)]
fn nt_tile_quad(
    a: &[f32],
    bt: &[f32],
    out: &mut [f32],
    i0: usize,
    r0: usize,
    j0: usize,
    k: usize,
    n: usize,
) {
    let mut acc = [[0.0f32; JB]; RB];
    let a0 = &a[i0 * k..][..k];
    let a1 = &a[(i0 + 1) * k..][..k];
    let a2 = &a[(i0 + 2) * k..][..k];
    let a3 = &a[(i0 + 3) * k..][..k];
    for p in 0..k {
        let b_row: &[f32; JB] = bt[p * n + j0..][..JB].try_into().unwrap();
        let av = [a0[p], a1[p], a2[p], a3[p]];
        for r in 0..RB {
            for c in 0..JB {
                acc[r][c] += av[r] * b_row[c];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        for (o, &v) in out[(i0 + r - r0) * n + j0..][..JB].iter_mut().zip(row.iter()) {
            *o += v;
        }
    }
}

/// `out[r0..r1] += (a × bᵀ)[r0..r1]` through register tiles over the packed
/// panel `bt`; remainder rows/columns run [`nt_dot`] on the original `b`.
#[allow(clippy::too_many_arguments)]
fn matmul_nt_rows_tiled(
    a: &[f32],
    b: &[f32],
    bt: &[f32],
    out: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) {
    for ib in (r0..r1).step_by(MC) {
        let ie = (ib + MC).min(r1);
        for jb in (0..n).step_by(NC) {
            let je = (jb + NC).min(n);
            let mut i = ib;
            while i + RB <= ie {
                let mut j = jb;
                while j + JB <= je {
                    nt_tile_quad(a, bt, out, i, r0, j, k, n);
                    j += JB;
                }
                for ii in i..i + RB {
                    for jj in j..je {
                        nt_dot(a, b, out, ii, r0, jj, k, n);
                    }
                }
                i += RB;
            }
            for ii in i..ie {
                for jj in jb..je {
                    nt_dot(a, b, out, ii, r0, jj, k, n);
                }
            }
        }
    }
}

/// Minimum `m` before [`matmul_nt`] packs `bᵀ`: the pack (zero + tiled
/// transpose) costs ~2·k·n memory passes, which the register tiles only
/// amortize once several output rows reuse the panel. Below this the
/// historical per-row dot kernel runs unchanged (it is bit-identical, so
/// the threshold is perf-only).
const NT_PACK_MIN_M: usize = 4;

/// `a [m,k] × bᵀ [k,n-rows] → out [m,n]` where `b: [n,k]`.
///
/// For `m ≥ NT_PACK_MIN_M` the kernel packs `bᵀ` once, on the calling
/// thread, into a cache-aligned panel, then runs register tiles
/// over it (`nt_tile_quad` or the [`simd`] lane tiles) — replacing the
/// loop-carried dependence of `n` sequential dot products per output row
/// with `RB × JB` independent accumulators, which is where the historical
/// ~2.5x NT-vs-NN GFLOPS gap came from.
pub fn matmul_nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let lvl = simd::active();
    if m < NT_PACK_MIN_M {
        over_rows(m, n, m * k * n, out, |r0, r1, rows| matmul_nt_rows(a, b, rows, r0, r1, k, n));
        return;
    }
    let mut bt = AlignedBuf::zeroed(k * n);
    transpose(b, bt.as_mut_slice(), n, k);
    let bts = bt.as_slice();
    over_rows(m, n, m * k * n, out, |r0, r1, rows| {
        if simd::nt_rows(lvl, a, b, bts, rows, r0, r1, k, n) {
            return;
        }
        matmul_nt_rows_tiled(a, b, bts, rows, r0, r1, k, n)
    });
}

/// Tiled transpose of the `[rows, cols]` matrix `src` into the
/// `[cols, rows]` matrix rows `[r0, r1)` of `out` (pure permutation —
/// numerics cannot differ from the scalar double loop).
fn transpose_rows(src: &[f32], out: &mut [f32], r0: usize, r1: usize, rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    for cb in (r0..r1).step_by(TC) {
        let ce = (cb + TC).min(r1);
        for rb in (0..rows).step_by(TC) {
            let re = (rb + TC).min(rows);
            for c in cb..ce {
                let out_row = &mut out[(c - r0) * rows..(c - r0 + 1) * rows];
                for r in rb..re {
                    out_row[r] = src[r * cols + c];
                }
            }
        }
    }
}

/// Transpose `src: [rows, cols]` into `out: [cols, rows]`, parallel over
/// output rows for large matrices.
pub(crate) fn transpose(src: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    // A transpose moves rows*cols elements; treat each as ~one "flop" and
    // scale by TC so only genuinely large permutations go parallel.
    over_rows(cols, rows, rows * cols * TC, out, |r0, r1, out_rows| {
        transpose_rows(src, out_rows, r0, r1, rows, cols)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    fn ramp(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 13) as f32 - 6.0) * scale).collect()
    }

    #[test]
    fn aligned_panels_are_aligned_and_zeroed() {
        for len in [0, 1, 100, 4096] {
            let mut buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.as_slice().len(), len);
            assert_eq!(buf.as_slice().as_ptr() as usize % PANEL_ALIGN, 0, "len {len}");
            assert!(buf.as_slice().iter().all(|&x| x == 0.0), "len {len}");
            buf.as_mut_slice().fill(3.5);
            assert!(buf.as_slice().iter().all(|&x| x == 3.5));
        }
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive_across_block_edges() {
        // Sizes straddling the MC/NC block boundaries.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (31, 33, 127), (32, 64, 128), (33, 17, 129)] {
            let a = ramp(m * k, 0.25);
            let b = ramp(k * n, 0.5);
            let mut out = vec![0.0f32; m * n];
            matmul_rows(&a, &b, &mut out, 0, m, k, n);
            assert_eq!(out, naive_matmul(&a, &b, m, k, n), "shape {m}x{k}x{n}");
        }
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose_compositions() {
        let (k, m, n) = (37, 33, 29);
        let a = ramp(k * m, 0.1); // a: [k, m]
        let b = ramp(k * n, 0.2); // b: [k, n]
        let mut tn = vec![0.0f32; m * n];
        matmul_tn_rows(&a, &b, &mut tn, 0, m, k, n);
        let mut at = vec![0.0f32; m * k];
        transpose_rows(&a, &mut at, 0, m, k, m);
        assert_eq!(tn, naive_matmul(&at, &b, m, k, n));

        let c = ramp(m * k, 0.3); // c: [m, k]
        let d = ramp(n * k, 0.4); // d: [n, k]
        let mut nt = vec![0.0f32; m * n];
        matmul_nt_rows(&c, &d, &mut nt, 0, m, k, n);
        let mut dt = vec![0.0f32; k * n];
        transpose_rows(&d, &mut dt, 0, k, n, k);
        let expect = naive_matmul(&c, &dt, m, k, n);
        for (x, y) in nt.iter().zip(&expect) {
            // nt accumulates each dot product before the final add, so it
            // agrees with the naive j-inner loop only to rounding.
            assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0));
        }
    }

    #[test]
    fn tiled_nt_is_bit_identical_to_the_dot_product_kernel() {
        for &(m, k, n) in &[(4, 9, 8), (5, 17, 9), (33, 40, 31), (32, 64, 128)] {
            let a = ramp(m * k, 0.25);
            let b = ramp(n * k, 0.5);
            let mut want = vec![0.0f32; m * n];
            matmul_nt_rows(&a, &b, &mut want, 0, m, k, n);
            let mut bt = vec![0.0f32; k * n];
            transpose_rows(&b, &mut bt, 0, k, n, k);
            let mut got = vec![0.0f32; m * n];
            matmul_nt_rows_tiled(&a, &b, &bt, &mut got, 0, m, k, n);
            assert_eq!(got, want, "shape {m}x{k}x{n}");
        }
    }

    fn lane_levels() -> Vec<simd::SimdLevel> {
        [simd::SimdLevel::Sse2, simd::SimdLevel::Avx2]
            .into_iter()
            .filter(|&l| simd::is_supported(l))
            .collect()
    }

    #[test]
    fn lane_matmuls_match_the_scalar_oracle_bitwise() {
        let shapes = [
            (1, 7, 1),
            (2, 3, 5),
            (4, 16, 8),
            (5, 33, 9),
            (7, 12, 17),
            (33, 40, 31),
            (32, 64, 128),
        ];
        for &(m, k, n) in &shapes {
            let a = ramp(m * k, 0.25);
            let b = ramp(k * n, 0.5);
            let mut want = vec![0.0f32; m * n];
            matmul_rows(&a, &b, &mut want, 0, m, k, n);
            for &lvl in &lane_levels() {
                let mut got = vec![0.0f32; m * n];
                assert!(simd::nn_rows(lvl, &a, &b, &mut got, 0, m, k, n));
                assert_eq!(got, want, "nn {m}x{k}x{n} {lvl:?}");
            }

            let at = ramp(k * m, 0.3); // [k, m]
            let mut want = vec![0.0f32; m * n];
            matmul_tn_rows(&at, &b, &mut want, 0, m, k, n);
            for &lvl in &lane_levels() {
                let mut got = vec![0.0f32; m * n];
                assert!(simd::tn_rows(lvl, &at, &b, &mut got, 0, m, k, n, m));
                assert_eq!(got, want, "tn {m}x{k}x{n} {lvl:?}");
            }

            let b2 = ramp(n * k, 0.4); // [n, k]
            let mut want = vec![0.0f32; m * n];
            matmul_nt_rows(&a, &b2, &mut want, 0, m, k, n);
            let mut bt = vec![0.0f32; k * n];
            transpose_rows(&b2, &mut bt, 0, k, n, k);
            for &lvl in &lane_levels() {
                let mut got = vec![0.0f32; m * n];
                assert!(simd::nt_rows(lvl, &a, &b2, &bt, &mut got, 0, m, k, n));
                assert_eq!(got, want, "nt {m}x{k}x{n} {lvl:?}");
            }
        }
    }

    #[test]
    fn packed_tn_is_bit_identical_to_the_broadcast_kernel() {
        // Shapes on both sides of TN_PACK_MIN_M, straddling tile edges;
        // `ramp` contains exact zeros so the skip contract is exercised.
        for &(k, m, n) in &[
            (7, 1, 5),
            (9, 3, 4),
            (5, 4, 9),
            (17, 5, 9),
            (33, 31, 29),
            (40, 33, 31),
            (64, 32, 128),
        ] {
            let a = ramp(k * m, 0.25); // [k, m]
            let b = ramp(k * n, 0.5); // [k, n]
            let mut want = vec![0.0f32; m * n];
            matmul_tn_rows(&a, &b, &mut want, 0, m, k, n);
            let mut got = vec![0.0f32; m * n];
            matmul_tn(&a, &b, &mut got, k, m, n);
            assert!(
                got.iter().zip(&want).all(|(x, y)| x.to_bits() == y.to_bits()),
                "tn {k}x{m}x{n}"
            );
        }
    }

    #[test]
    fn transpose_tiles_cover_ragged_shapes() {
        for &(r, c) in &[(1, 1), (5, 3), (31, 33), (32, 32), (65, 31)] {
            let src = ramp(r * c, 1.0);
            let mut out = vec![0.0f32; r * c];
            transpose_rows(&src, &mut out, 0, c, r, c);
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(out[j * r + i], src[i * c + j]);
                }
            }
        }
    }
}
