//! Runtime-dispatched SIMD lane kernels behind the `NER_SIMD` knob.
//!
//! Every vector kernel in this module upholds the repo-wide determinism
//! contract (see DESIGN.md "SIMD lane kernels"): results are **bit-identical**
//! to the scalar reference kernels in [`crate::kernels`] and
//! [`crate::fused`], at every shape, alignment and thread count. The trick
//! is the *column-lane layout*: vectors run across the output-column (`n`)
//! dimension, so each lane is an **independent output element** that
//! accumulates over the shared dimension `p` in the same ascending order as
//! the scalar loop. Vectorization then only changes *which elements* are in
//! flight together, never the operation sequence of any one element — the
//! same argument that already makes the blocked/parallel scalar kernels
//! bit-identical to the textbook loop.
//!
//! Two consequences shape the code:
//!
//! - **No FMA, ever.** A fused multiply-add rounds once where `mul` + `add`
//!   round twice, so an FMA kernel would diverge from the scalar oracle in
//!   the last bit. The CPU's FMA units are detected and reported (see
//!   [`cpu_features`]) but deliberately unused.
//! - **Transcendentals are the workspace's own.** `exp`, `tanh` and
//!   `sigmoid` are [`crate::math`]'s functions, written as a fixed chain of
//!   IEEE `mul`/`add`/`sub`/`div`, sign-bit operations, compare-selects and
//!   an integer exponent add — every one of which SSE2 and AVX2 have as a
//!   lane instruction. The `*_in_place` lane kernels run that chain per
//!   lane (computing both of `tanh`'s branches and blending them by mask),
//!   so they reproduce the scalar bits, including NaN, `±inf`, `±0` and
//!   subnormals.
//! - **Sequential reductions stay scalar.** Softmax's running sum and
//!   layer-norm's mean/variance fold in one order that lanes would change,
//!   so those loops keep the scalar code and the vector win comes from the
//!   surrounding streaming stages.
//!
//! Dispatch is resolved once per process from `NER_SIMD`
//! (`off`/`sse2`/`avx2`, default: best level the CPU supports — threaded
//! through the environment exactly like `NER_THREADS`), with a thread-local
//! [`with_level`] override for tests and benches. Kernels capture the level
//! once at entry on the calling thread and pass it into the row-parallel
//! bodies, so a forced level propagates to `ner-par` workers.

use crate::math;
use std::cell::Cell;
use std::sync::OnceLock;

/// Which lane width the compute kernels dispatch to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Scalar reference kernels only — the bit-exact oracle every vector
    /// path is checked against.
    Off,
    /// 4-lane `f32x4` kernels (SSE2, baseline on every x86-64 CPU).
    Sse2,
    /// 8-lane `f32x8` kernels (AVX2, used only when detected at runtime).
    Avx2,
}

impl SimdLevel {
    /// Stable lowercase name, used in bench rows, CI logs and the run
    /// manifest (`off` / `sse2` / `avx2`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Off => "off",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// Vector features detected on the running CPU.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 128-bit f32 lanes — architecturally guaranteed on x86-64.
    pub sse2: bool,
    /// 256-bit f32 lanes.
    pub avx2: bool,
    /// Fused multiply-add units. Detected and reported for the bench
    /// manifest, but never used by these kernels: FMA rounds once where
    /// `mul`+`add` round twice, which would break bit-identity with the
    /// scalar oracle.
    pub fma: bool,
}

/// Detects the CPU's vector features at runtime (all `false` off x86-64).
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            sse2: is_x86_feature_detected!("sse2"),
            avx2: is_x86_feature_detected!("avx2"),
            fma: is_x86_feature_detected!("fma"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures::default()
    }
}

/// Whether `level` can execute on this CPU.
pub fn is_supported(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Off => true,
        SimdLevel::Sse2 => cpu_features().sse2,
        SimdLevel::Avx2 => cpu_features().avx2,
    }
}

/// Best level the running CPU supports (`Off` on non-x86-64 targets).
fn best_supported() -> SimdLevel {
    let f = cpu_features();
    if f.avx2 {
        SimdLevel::Avx2
    } else if f.sse2 {
        SimdLevel::Sse2
    } else {
        SimdLevel::Off
    }
}

static CONFIGURED: OnceLock<SimdLevel> = OnceLock::new();

/// The process-wide level resolved from `NER_SIMD` on first use.
///
/// `off` (or `scalar`/`0`) forces the scalar oracle; `sse2`/`avx2` request a
/// specific lane width (silently clamped to what the CPU supports, with a
/// warning on stderr); anything else — including unset — auto-detects the
/// best supported level.
pub fn configured() -> SimdLevel {
    *CONFIGURED.get_or_init(|| match std::env::var("NER_SIMD") {
        Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
            "off" | "scalar" | "0" => SimdLevel::Off,
            "sse2" => {
                if is_supported(SimdLevel::Sse2) {
                    SimdLevel::Sse2
                } else {
                    eprintln!("NER_SIMD=sse2 requested but not available; using scalar kernels");
                    SimdLevel::Off
                }
            }
            "avx2" => {
                if is_supported(SimdLevel::Avx2) {
                    SimdLevel::Avx2
                } else {
                    let best = best_supported();
                    eprintln!(
                        "NER_SIMD=avx2 requested but not detected; falling back to {}",
                        best.name()
                    );
                    best
                }
            }
            "auto" | "" => best_supported(),
            other => {
                let best = best_supported();
                eprintln!("NER_SIMD={other} not recognized; auto-detected {}", best.name());
                best
            }
        },
        Err(_) => best_supported(),
    })
}

thread_local! {
    /// Per-thread override installed by [`with_level`].
    static FORCED: Cell<Option<SimdLevel>> = const { Cell::new(None) };
}

/// The level kernels on this thread dispatch to right now: the
/// [`with_level`] override if one is installed, else [`configured`].
///
/// Matrix kernels read this once at entry on the calling thread and thread
/// the value through their row-parallel bodies, so an override covers the
/// `ner-par` workers of the call it wraps.
pub fn active() -> SimdLevel {
    FORCED.with(|f| f.get()).unwrap_or_else(configured)
}

/// Runs `f` with kernels on this thread forced to `level` — the seam the
/// property tests and `exp_kernels` use to compare vector variants against
/// the scalar oracle inside one process.
///
/// # Panics
/// If `level` is not supported on this CPU (forcing it would execute
/// illegal instructions).
pub fn with_level<R>(level: SimdLevel, f: impl FnOnce() -> R) -> R {
    assert!(is_supported(level), "SIMD level {} not supported on this CPU", level.name());
    struct Restore(Option<SimdLevel>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|c| c.replace(Some(level))));
    f()
}

/// One-line description of the configured kernel backend for manifests and
/// reports, e.g. `"avx2 (cpu: sse2+avx2+fma)"`.
pub fn descriptor() -> String {
    let f = cpu_features();
    let mut feats = Vec::new();
    if f.sse2 {
        feats.push("sse2");
    }
    if f.avx2 {
        feats.push("avx2");
    }
    if f.fma {
        feats.push("fma");
    }
    let cpu = if feats.is_empty() { "none".to_string() } else { feats.join("+") };
    format!("{} (cpu: {})", configured().name(), cpu)
}

// ---------------------------------------------------------------------------
// Vector kernels (x86-64). Each pub(crate) dispatcher below returns `true`
// when a vector path handled the call, so `kernels.rs`/`fused.rs` fall
// through to their scalar reference loops on `Off` and on non-x86 targets.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod lanes {
    use crate::kernels::{MC, NC, RB};

    /// 4-lane SSE2 primitives with the uniform names the kernel macro uses.
    pub(crate) mod p128 {
        use crate::math::ROUND;
        use core::arch::x86_64::*;
        pub(crate) const W: usize = 4;
        pub(crate) type V = __m128;
        #[inline(always)]
        pub(crate) unsafe fn load(p: *const f32) -> V {
            _mm_loadu_ps(p)
        }
        #[inline(always)]
        pub(crate) unsafe fn store(p: *mut f32, v: V) {
            _mm_storeu_ps(p, v)
        }
        #[inline(always)]
        pub(crate) unsafe fn set1(x: f32) -> V {
            _mm_set1_ps(x)
        }
        #[inline(always)]
        pub(crate) unsafe fn zero() -> V {
            _mm_setzero_ps()
        }
        #[inline(always)]
        pub(crate) unsafe fn add(a: V, b: V) -> V {
            _mm_add_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn mul(a: V, b: V) -> V {
            _mm_mul_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn sub(a: V, b: V) -> V {
            _mm_sub_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn div(a: V, b: V) -> V {
            _mm_div_ps(a, b)
        }
        /// `MINPS a, b`: lane-wise `if a < b { a } else { b }` — `b` when
        /// either is NaN, the scalar clamp `if HI < x { HI } else { x }`
        /// with `HI` first.
        #[inline(always)]
        pub(crate) unsafe fn min(a: V, b: V) -> V {
            _mm_min_ps(a, b)
        }
        /// `MAXPS a, b`: lane-wise `if a > b { a } else { b }` — `b` when
        /// either is NaN and on `-0.0` vs `+0.0` ties, so `max(v, 0)` has
        /// the bits of scalar `v.max(0.0)` (pinned by a unit test).
        #[inline(always)]
        pub(crate) unsafe fn max(a: V, b: V) -> V {
            _mm_max_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn and(a: V, b: V) -> V {
            _mm_and_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn or(a: V, b: V) -> V {
            _mm_or_ps(a, b)
        }
        #[inline(always)]
        pub(crate) unsafe fn xor(a: V, b: V) -> V {
            _mm_xor_ps(a, b)
        }
        /// Lane-wise `if a < b { x } else { y }` (NaN compares false),
        /// built from cmp/and/or because blendv needs SSE4.1.
        #[inline(always)]
        pub(crate) unsafe fn select_lt(a: V, b: V, x: V, y: V) -> V {
            let m = _mm_cmplt_ps(a, b);
            _mm_or_ps(_mm_and_ps(m, x), _mm_andnot_ps(m, y))
        }
        /// `math::pow2_split` across lanes: the same wrapping integer
        /// subtract, arithmetic shift, add and exponent-field shift.
        #[inline(always)]
        pub(crate) unsafe fn pow2_split(t: V) -> (V, V) {
            let n = _mm_sub_epi32(_mm_castps_si128(t), _mm_set1_epi32(ROUND.to_bits() as i32));
            let n1 = _mm_srai_epi32::<1>(n);
            let n2 = _mm_sub_epi32(n, n1);
            let bias = _mm_set1_epi32(127);
            (
                _mm_castsi128_ps(_mm_slli_epi32::<23>(_mm_add_epi32(n1, bias))),
                _mm_castsi128_ps(_mm_slli_epi32::<23>(_mm_add_epi32(n2, bias))),
            )
        }
    }

    /// 8-lane AVX2 primitives; same contract as [`p128`].
    pub(crate) mod p256 {
        use crate::math::ROUND;
        use core::arch::x86_64::*;
        pub(crate) const W: usize = 8;
        pub(crate) type V = __m256;
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn load(p: *const f32) -> V {
            _mm256_loadu_ps(p)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn store(p: *mut f32, v: V) {
            _mm256_storeu_ps(p, v)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn set1(x: f32) -> V {
            _mm256_set1_ps(x)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn zero() -> V {
            _mm256_setzero_ps()
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn add(a: V, b: V) -> V {
            _mm256_add_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn mul(a: V, b: V) -> V {
            _mm256_mul_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn sub(a: V, b: V) -> V {
            _mm256_sub_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn div(a: V, b: V) -> V {
            _mm256_div_ps(a, b)
        }
        /// See [`p128::min`].
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn min(a: V, b: V) -> V {
            _mm256_min_ps(a, b)
        }
        /// See [`p128::max`].
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn max(a: V, b: V) -> V {
            _mm256_max_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn and(a: V, b: V) -> V {
            _mm256_and_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn or(a: V, b: V) -> V {
            _mm256_or_ps(a, b)
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn xor(a: V, b: V) -> V {
            _mm256_xor_ps(a, b)
        }
        /// See [`p128::select_lt`]; `LT_OQ` is the quiet ordered `<`.
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn select_lt(a: V, b: V, x: V, y: V) -> V {
            _mm256_blendv_ps(y, x, _mm256_cmp_ps::<_CMP_LT_OQ>(a, b))
        }
        /// See [`p128::pow2_split`].
        #[target_feature(enable = "avx2")]
        #[inline]
        pub(crate) unsafe fn pow2_split(t: V) -> (V, V) {
            let n =
                _mm256_sub_epi32(_mm256_castps_si256(t), _mm256_set1_epi32(ROUND.to_bits() as i32));
            let n1 = _mm256_srai_epi32::<1>(n);
            let n2 = _mm256_sub_epi32(n, n1);
            let bias = _mm256_set1_epi32(127);
            (
                _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(n1, bias))),
                _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(n2, bias))),
            )
        }
    }

    /// `out[i] = scalar(out[i])` with whole vectors through `lanes` and
    /// the remainder through the scalar function itself.
    macro_rules! map_in_place {
        ($out:expr, $lanes:ident, $scalar:path) => {
            let op = $out.as_mut_ptr();
            let len = $out.len();
            let mut c = 0usize;
            while c + p::W <= len {
                p::store(op.add(c), $lanes(p::load(op.add(c))));
                c += p::W;
            }
            while c < len {
                *op.add(c) = $scalar(*op.add(c));
                c += 1;
            }
        };
    }

    /// Expands the full kernel set for one lane width. The generated loops
    /// mirror the scalar kernels in `kernels.rs`/`fused.rs` statement for
    /// statement; only the per-element *grouping* differs.
    macro_rules! lane_kernels {
        ($modname:ident, $prim:ident, $feat:literal) => {
            pub(crate) mod $modname {
                use super::$prim as p;
                use super::{MC, NC, RB};
                use crate::math::{
                    self, EXP_HI, EXP_LO, EXP_POLY, LN2_HI, LN2_LO, LOG2E, ROUND, SIGMOID_TAIL,
                    TANH_POLY, TANH_SMALL,
                };

                /// Register-tile width in columns: two vectors per row keep
                /// `RB × 2` accumulators resident across a full `p` sweep.
                const TW: usize = 2 * p::W;

                /// One row's contribution over the output panel `[jb, je)` —
                /// the vector form of `kernels::row_panel`. Lanes are output
                /// columns; `p` ascends and `av == 0.0` rows are skipped
                /// exactly as in the scalar loop.
                ///
                /// # Safety
                /// Requires the target feature and in-bounds `a`/`b`/`out`
                /// for the `(r0, jb, je, k, n)` panel addressed.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                unsafe fn nn_panel(
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
                    let w = je - jb;
                    let ap = a.as_ptr().add(i * k);
                    let op = out.as_mut_ptr().add((i - r0) * n + jb);
                    for ptick in 0..k {
                        let av = *ap.add(ptick);
                        if av == 0.0 {
                            continue;
                        }
                        let bp = b.as_ptr().add(ptick * n + jb);
                        let vb = p::set1(av);
                        let mut c = 0usize;
                        while c + p::W <= w {
                            let o = op.add(c);
                            p::store(o, p::add(p::load(o), p::mul(vb, p::load(bp.add(c)))));
                            c += p::W;
                        }
                        while c < w {
                            *op.add(c) += av * *bp.add(c);
                            c += 1;
                        }
                    }
                }

                /// Blocked `out[r0..r1] += a × b` — the vector form of
                /// `kernels::matmul_rows`: `MC`/`NC` cache blocks, `RB × TW`
                /// register tiles (accumulators seeded from `out`, per-row
                /// `av == 0.0` skip, ascending `p`), remainders through
                /// [`nn_panel`].
                ///
                /// # Safety
                /// Requires the target feature; `a ⊇ [r1, k]`, `b = [k, n]`,
                /// `out = [r1 - r0, n]`.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn nn_rows(
                    a: &[f32],
                    b: &[f32],
                    out: &mut [f32],
                    r0: usize,
                    r1: usize,
                    k: usize,
                    n: usize,
                ) {
                    debug_assert!(a.len() >= r1 * k);
                    debug_assert_eq!(b.len(), k * n);
                    debug_assert_eq!(out.len(), (r1 - r0) * n);
                    let ap = a.as_ptr();
                    let bp = b.as_ptr();
                    let op = out.as_mut_ptr();
                    for ib in (r0..r1).step_by(MC) {
                        let ie = (ib + MC).min(r1);
                        for jb in (0..n).step_by(NC) {
                            let je = (jb + NC).min(n);
                            let mut i = ib;
                            while i + RB <= ie {
                                let mut j = jb;
                                while j + TW <= je {
                                    let mut acc = [[p::zero(); 2]; RB];
                                    for (r, acc_r) in acc.iter_mut().enumerate() {
                                        let orow = op.add((i + r - r0) * n + j);
                                        acc_r[0] = p::load(orow);
                                        acc_r[1] = p::load(orow.add(p::W));
                                    }
                                    for ptick in 0..k {
                                        let brow = bp.add(ptick * n + j);
                                        let b0 = p::load(brow);
                                        let b1 = p::load(brow.add(p::W));
                                        for (r, acc_r) in acc.iter_mut().enumerate() {
                                            let av = *ap.add((i + r) * k + ptick);
                                            if av == 0.0 {
                                                continue;
                                            }
                                            let vb = p::set1(av);
                                            acc_r[0] = p::add(acc_r[0], p::mul(vb, b0));
                                            acc_r[1] = p::add(acc_r[1], p::mul(vb, b1));
                                        }
                                    }
                                    for (r, acc_r) in acc.iter().enumerate() {
                                        let orow = op.add((i + r - r0) * n + j);
                                        p::store(orow, acc_r[0]);
                                        p::store(orow.add(p::W), acc_r[1]);
                                    }
                                    j += TW;
                                }
                                if j < je {
                                    for ii in i..i + RB {
                                        nn_panel(a, b, out, ii, r0, j, je, k, n);
                                    }
                                }
                                i += RB;
                            }
                            for ii in i..ie {
                                nn_panel(a, b, out, ii, r0, jb, je, k, n);
                            }
                        }
                    }
                }

                /// Vector form of `kernels::matmul_tn_rows` (`a: [k, m]`):
                /// same `p`-outer blocked loop, with the row update
                /// `out_row += av * b_row` run across column lanes.
                ///
                /// # Safety
                /// Requires the target feature; `a = [k, m]`, `b = [k, n]`,
                /// `out = [r1 - r0, n]`.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                pub(crate) unsafe fn tn_rows(
                    a: &[f32],
                    b: &[f32],
                    out: &mut [f32],
                    r0: usize,
                    r1: usize,
                    k: usize,
                    n: usize,
                    m: usize,
                ) {
                    debug_assert_eq!(a.len(), k * m);
                    debug_assert_eq!(b.len(), k * n);
                    debug_assert_eq!(out.len(), (r1 - r0) * n);
                    let ap = a.as_ptr();
                    let op = out.as_mut_ptr();
                    for ib in (r0..r1).step_by(MC) {
                        let ie = (ib + MC).min(r1);
                        for ptick in 0..k {
                            let bp = b.as_ptr().add(ptick * n);
                            for i in ib..ie {
                                let av = *ap.add(ptick * m + i);
                                if av == 0.0 {
                                    continue;
                                }
                                let orow = op.add((i - r0) * n);
                                let vb = p::set1(av);
                                let mut c = 0usize;
                                while c + p::W <= n {
                                    let o = orow.add(c);
                                    p::store(o, p::add(p::load(o), p::mul(vb, p::load(bp.add(c)))));
                                    c += p::W;
                                }
                                while c < n {
                                    *orow.add(c) += av * *bp.add(c);
                                    c += 1;
                                }
                            }
                        }
                    }
                }

                /// `R × TW` register tile of the NT kernel over the packed
                /// `bᵀ` panel (`bt: [k, n]`): accumulators start at zero, no
                /// zero-skip, and the tile ends with `out += acc` — the
                /// exact per-element sequence of the historical per-row dot
                /// products.
                ///
                /// # Safety
                /// Requires the target feature and in-bounds `a`/`bt`/`out`
                /// for the `R`-row, `TW`-column tile at `(i0, j0)`.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                unsafe fn nt_tile<const R: usize>(
                    a: &[f32],
                    bt: &[f32],
                    out: &mut [f32],
                    i0: usize,
                    r0: usize,
                    j0: usize,
                    k: usize,
                    n: usize,
                ) {
                    let ap = a.as_ptr();
                    let btp = bt.as_ptr();
                    let op = out.as_mut_ptr();
                    let mut acc = [[p::zero(); 2]; R];
                    for ptick in 0..k {
                        let brow = btp.add(ptick * n + j0);
                        let b0 = p::load(brow);
                        let b1 = p::load(brow.add(p::W));
                        for (r, acc_r) in acc.iter_mut().enumerate() {
                            let vb = p::set1(*ap.add((i0 + r) * k + ptick));
                            acc_r[0] = p::add(acc_r[0], p::mul(vb, b0));
                            acc_r[1] = p::add(acc_r[1], p::mul(vb, b1));
                        }
                    }
                    for (r, acc_r) in acc.iter().enumerate() {
                        let orow = op.add((i0 + r - r0) * n + j0);
                        p::store(orow, p::add(p::load(orow), acc_r[0]));
                        let ohi = orow.add(p::W);
                        p::store(ohi, p::add(p::load(ohi), acc_r[1]));
                    }
                }

                /// Blocked `out[r0..r1] += a × bᵀ` over the packed panel
                /// `bt = transpose(b)`; tile remainder columns fall back to
                /// the scalar dot over the original `b: [n, k]` rows, which
                /// is the historical NT loop itself.
                ///
                /// # Safety
                /// Requires the target feature; `a ⊇ [r1, k]`, `b = [n, k]`,
                /// `bt = [k, n]`, `out = [r1 - r0, n]`.
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                pub(crate) unsafe fn nt_rows(
                    a: &[f32],
                    b: &[f32],
                    bt: &[f32],
                    out: &mut [f32],
                    r0: usize,
                    r1: usize,
                    k: usize,
                    n: usize,
                ) {
                    debug_assert!(a.len() >= r1 * k);
                    debug_assert_eq!(b.len(), n * k);
                    debug_assert_eq!(bt.len(), k * n);
                    debug_assert_eq!(out.len(), (r1 - r0) * n);
                    for ib in (r0..r1).step_by(MC) {
                        let ie = (ib + MC).min(r1);
                        for jb in (0..n).step_by(NC) {
                            let je = (jb + NC).min(n);
                            let mut i = ib;
                            while i + RB <= ie {
                                let mut j = jb;
                                while j + TW <= je {
                                    nt_tile::<RB>(a, bt, out, i, r0, j, k, n);
                                    j += TW;
                                }
                                for ii in i..i + RB {
                                    for jj in j..je {
                                        nt_dot(a, b, out, ii, r0, jj, k, n);
                                    }
                                }
                                i += RB;
                            }
                            while i < ie {
                                let mut j = jb;
                                while j + TW <= je {
                                    nt_tile::<1>(a, bt, out, i, r0, j, k, n);
                                    j += TW;
                                }
                                for jj in j..je {
                                    nt_dot(a, b, out, i, r0, jj, k, n);
                                }
                                i += 1;
                            }
                        }
                    }
                }

                /// One NT output element as the historical dot product over a
                /// contiguous row of `b: [n, k]` (accumulate from zero, no
                /// skip, final `out += acc`).
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

                /// `out[i] += src[i]` across lanes (bias broadcast rows).
                ///
                /// # Safety
                /// Requires the target feature; `out.len() == src.len()`.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn add_in_place(out: &mut [f32], src: &[f32]) {
                    debug_assert_eq!(out.len(), src.len());
                    let op = out.as_mut_ptr();
                    let sp = src.as_ptr();
                    let len = out.len();
                    let mut c = 0usize;
                    while c + p::W <= len {
                        p::store(op.add(c), p::add(p::load(op.add(c)), p::load(sp.add(c))));
                        c += p::W;
                    }
                    while c < len {
                        *op.add(c) += *sp.add(c);
                        c += 1;
                    }
                }

                /// `out[i] += s * src[i]` across lanes (conv taps).
                ///
                /// # Safety
                /// Requires the target feature; `out.len() == src.len()`.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn axpy_in_place(out: &mut [f32], src: &[f32], s: f32) {
                    debug_assert_eq!(out.len(), src.len());
                    let op = out.as_mut_ptr();
                    let sp = src.as_ptr();
                    let len = out.len();
                    let vs = p::set1(s);
                    let mut c = 0usize;
                    while c + p::W <= len {
                        p::store(
                            op.add(c),
                            p::add(p::load(op.add(c)), p::mul(vs, p::load(sp.add(c)))),
                        );
                        c += p::W;
                    }
                    while c < len {
                        *op.add(c) += s * *sp.add(c);
                        c += 1;
                    }
                }

                /// `out[i] *= s` across lanes (softmax's reciprocal scale).
                ///
                /// # Safety
                /// Requires the target feature.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn scale_in_place(out: &mut [f32], s: f32) {
                    let op = out.as_mut_ptr();
                    let len = out.len();
                    let vs = p::set1(s);
                    let mut c = 0usize;
                    while c + p::W <= len {
                        p::store(op.add(c), p::mul(p::load(op.add(c)), vs));
                        c += p::W;
                    }
                    while c < len {
                        *op.add(c) *= s;
                        c += 1;
                    }
                }

                /// `out[i] = out[i].max(0.0)` across lanes; operand order
                /// chosen so NaN and `-0.0` produce the scalar bits.
                ///
                /// # Safety
                /// Requires the target feature.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn relu_in_place(out: &mut [f32]) {
                    let op = out.as_mut_ptr();
                    let len = out.len();
                    let mut c = 0usize;
                    while c + p::W <= len {
                        p::store(op.add(c), p::max(p::load(op.add(c)), p::zero()));
                        c += p::W;
                    }
                    while c < len {
                        let v = *op.add(c);
                        *op.add(c) = v.max(0.0);
                        c += 1;
                    }
                }

                /// Layer-norm's normalize step across lanes:
                /// `out[c] = gain[c] * ((x[c] - mu) * istd) + bias[c]`, the
                /// same four rounding steps as the scalar loop.
                ///
                /// # Safety
                /// Requires the target feature; all slices share one length.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn norm_scale_shift(
                    out: &mut [f32],
                    x: &[f32],
                    gain: &[f32],
                    bias: &[f32],
                    mu: f32,
                    istd: f32,
                ) {
                    debug_assert_eq!(out.len(), x.len());
                    debug_assert_eq!(out.len(), gain.len());
                    debug_assert_eq!(out.len(), bias.len());
                    let op = out.as_mut_ptr();
                    let len = out.len();
                    let vmu = p::set1(mu);
                    let vistd = p::set1(istd);
                    let mut c = 0usize;
                    while c + p::W <= len {
                        let t = p::mul(p::sub(p::load(x.as_ptr().add(c)), vmu), vistd);
                        let v = p::add(
                            p::mul(p::load(gain.as_ptr().add(c)), t),
                            p::load(bias.as_ptr().add(c)),
                        );
                        p::store(op.add(c), v);
                        c += p::W;
                    }
                    while c < len {
                        *op.add(c) = gain[c] * ((x[c] - mu) * istd) + bias[c];
                        c += 1;
                    }
                }

                /// `dst[i] = (x[i] + h[i]) + b[i]` across lanes — the LSTM/GRU
                /// pre-activation build, same two-add sequence as the scalar
                /// zip.
                ///
                /// # Safety
                /// Requires the target feature; all slices share one length.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn add3(dst: &mut [f32], x: &[f32], h: &[f32], b: &[f32]) {
                    debug_assert_eq!(dst.len(), x.len());
                    debug_assert_eq!(dst.len(), h.len());
                    debug_assert_eq!(dst.len(), b.len());
                    let dp = dst.as_mut_ptr();
                    let len = dst.len();
                    let mut c = 0usize;
                    while c + p::W <= len {
                        let v = p::add(
                            p::add(p::load(x.as_ptr().add(c)), p::load(h.as_ptr().add(c))),
                            p::load(b.as_ptr().add(c)),
                        );
                        p::store(dp.add(c), v);
                        c += p::W;
                    }
                    while c < len {
                        *dp.add(c) = (x[c] + h[c]) + b[c];
                        c += 1;
                    }
                }

                /// [`math::exp`] on one vector: the scalar function's
                /// operation sequence, lane for lane.
                ///
                /// # Safety
                /// Requires the target feature.
                #[target_feature(enable = $feat)]
                #[inline]
                unsafe fn exp_v(x: p::V) -> p::V {
                    let x = p::min(p::set1(EXP_HI), x);
                    let x = p::max(p::set1(EXP_LO), x);
                    let t = p::add(p::mul(x, p::set1(LOG2E)), p::set1(ROUND));
                    let n = p::sub(t, p::set1(ROUND));
                    let r =
                        p::sub(p::sub(x, p::mul(n, p::set1(LN2_HI))), p::mul(n, p::set1(LN2_LO)));
                    let mut q = p::set1(EXP_POLY[0]);
                    for &c in &EXP_POLY[1..] {
                        q = p::add(p::mul(q, r), p::set1(c));
                    }
                    let y = p::add(p::add(p::mul(q, p::mul(r, r)), r), p::set1(1.0));
                    let (s1, s2) = p::pow2_split(t);
                    p::mul(p::mul(y, s1), s2)
                }

                /// [`math::tanh`] on one vector: both branches, blended
                /// by the `|x| < 0.625` mask, then the input's sign.
                ///
                /// # Safety
                /// Requires the target feature.
                #[target_feature(enable = $feat)]
                #[inline]
                unsafe fn tanh_v(x: p::V) -> p::V {
                    let sign = p::and(x, p::set1(-0.0));
                    let z = p::xor(x, sign);
                    let s = p::mul(z, z);
                    let mut q = p::set1(TANH_POLY[0]);
                    for &c in &TANH_POLY[1..] {
                        q = p::add(p::mul(q, s), p::set1(c));
                    }
                    let small = p::add(p::mul(p::mul(q, s), z), z);
                    let one = p::set1(1.0);
                    let e = exp_v(p::add(z, z));
                    let large = p::sub(one, p::div(p::set1(2.0), p::add(e, one)));
                    p::or(p::select_lt(z, p::set1(TANH_SMALL), small, large), sign)
                }

                /// [`math::sigmoid`] on one vector.
                ///
                /// # Safety
                /// Requires the target feature.
                #[target_feature(enable = $feat)]
                #[inline]
                unsafe fn sigmoid_v(x: p::V) -> p::V {
                    let one = p::set1(1.0);
                    let e = exp_v(p::or(x, p::set1(-0.0)));
                    let num = p::select_lt(x, p::zero(), e, one);
                    let q = p::div(num, p::add(one, e));
                    p::select_lt(x, p::set1(SIGMOID_TAIL), p::sub(e, p::mul(e, q)), q)
                }

                /// `out[i] = math::exp(out[i])` across lanes.
                ///
                /// # Safety
                /// Requires the target feature.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn exp_in_place(out: &mut [f32]) {
                    map_in_place!(out, exp_v, math::exp);
                }

                /// `out[i] = math::tanh(out[i])` across lanes.
                ///
                /// # Safety
                /// Requires the target feature.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn tanh_in_place(out: &mut [f32]) {
                    map_in_place!(out, tanh_v, math::tanh);
                }

                /// `out[i] = math::sigmoid(out[i])` across lanes.
                ///
                /// # Safety
                /// Requires the target feature.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn sigmoid_in_place(out: &mut [f32]) {
                    map_in_place!(out, sigmoid_v, math::sigmoid);
                }

                /// `best[i] = if row[i] > best[i] { row[i] } else { best[i] }`
                /// across lanes — one fold step of max-over-rows with the
                /// exact scalar `>` predicate.
                ///
                /// # Safety
                /// Requires the target feature; `best.len() == row.len()`.
                #[target_feature(enable = $feat)]
                pub(crate) unsafe fn colmax_in_place(best: &mut [f32], row: &[f32]) {
                    debug_assert_eq!(best.len(), row.len());
                    let bp = best.as_mut_ptr();
                    let len = best.len();
                    let mut c = 0usize;
                    while c + p::W <= len {
                        let (v, b) = (p::load(row.as_ptr().add(c)), p::load(bp.add(c)));
                        // `b < v` is the scalar `v > best`: NaN never wins
                        // and `+0.0` never replaces `-0.0`.
                        p::store(bp.add(c), p::select_lt(b, v, v, b));
                        c += p::W;
                    }
                    while c < len {
                        let v = row[c];
                        if v > *bp.add(c) {
                            *bp.add(c) = v;
                        }
                        c += 1;
                    }
                }
            }
        };
    }

    lane_kernels!(sse2, p128, "sse2");
    lane_kernels!(avx2, p256, "avx2");
}

macro_rules! dispatch {
    ($lvl:expr, $($call:tt)*) => {
        #[cfg(target_arch = "x86_64")]
        match $lvl {
            SimdLevel::Off => {}
            // Safety: `SimdLevel::Sse2`/`Avx2` values only come from
            // `configured()`/`with_level()`, both of which verify CPU
            // support, so the target features are present.
            SimdLevel::Sse2 => return unsafe { lanes::sse2::$($call)* },
            SimdLevel::Avx2 => return unsafe { lanes::avx2::$($call)* },
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = $lvl;
    };
}

/// As [`dispatch!`], for the matmul dispatchers that report whether a
/// vector path handled the call.
macro_rules! dispatch_handled {
    ($lvl:expr, $($call:tt)*) => {
        #[cfg(target_arch = "x86_64")]
        match $lvl {
            SimdLevel::Off => {}
            // Safety: as `dispatch!` — non-`Off` levels imply CPU support.
            SimdLevel::Sse2 => {
                unsafe { lanes::sse2::$($call)* };
                return true;
            }
            SimdLevel::Avx2 => {
                unsafe { lanes::avx2::$($call)* };
                return true;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = $lvl;
    };
}

/// Runs the vector NN kernel for `lvl`, returning `false` on [`SimdLevel::Off`]
/// (and always off x86-64) so the caller falls back to the scalar oracle.
#[allow(clippy::too_many_arguments)]
pub(crate) fn nn_rows(
    lvl: SimdLevel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) -> bool {
    dispatch_handled!(lvl, nn_rows(a, b, out, r0, r1, k, n));
    let _ = (a, b, out, r0, r1, k, n);
    false
}

/// Vector TN kernel dispatch; see [`nn_rows`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn tn_rows(
    lvl: SimdLevel,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
    m: usize,
) -> bool {
    dispatch_handled!(lvl, tn_rows(a, b, out, r0, r1, k, n, m));
    let _ = (a, b, out, r0, r1, k, n, m);
    false
}

/// Vector NT kernel dispatch over the packed `bt` panel; see [`nn_rows`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn nt_rows(
    lvl: SimdLevel,
    a: &[f32],
    b: &[f32],
    bt: &[f32],
    out: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) -> bool {
    dispatch_handled!(lvl, nt_rows(a, b, bt, out, r0, r1, k, n));
    let _ = (a, b, bt, out, r0, r1, k, n);
    false
}

/// `out[i] += src[i]`, lane-parallel when `lvl` allows.
pub(crate) fn add_in_place(lvl: SimdLevel, out: &mut [f32], src: &[f32]) {
    assert_eq!(out.len(), src.len());
    dispatch!(lvl, add_in_place(out, src));
    for (o, &s) in out.iter_mut().zip(src.iter()) {
        *o += s;
    }
}

/// `out[i] += s * src[i]`, lane-parallel when `lvl` allows.
pub(crate) fn axpy_in_place(lvl: SimdLevel, out: &mut [f32], src: &[f32], s: f32) {
    assert_eq!(out.len(), src.len());
    dispatch!(lvl, axpy_in_place(out, src, s));
    for (o, &v) in out.iter_mut().zip(src.iter()) {
        *o += s * v;
    }
}

/// `out[i] *= s`, lane-parallel when `lvl` allows.
pub(crate) fn scale_in_place(lvl: SimdLevel, out: &mut [f32], s: f32) {
    dispatch!(lvl, scale_in_place(out, s));
    for o in out.iter_mut() {
        *o *= s;
    }
}

/// `out[i] = out[i].max(0.0)`, lane-parallel when `lvl` allows.
pub(crate) fn relu_in_place(lvl: SimdLevel, out: &mut [f32]) {
    dispatch!(lvl, relu_in_place(out));
    for o in out.iter_mut() {
        *o = o.max(0.0);
    }
}

/// Layer-norm normalize step, lane-parallel when `lvl` allows.
pub(crate) fn norm_scale_shift(
    lvl: SimdLevel,
    out: &mut [f32],
    x: &[f32],
    gain: &[f32],
    bias: &[f32],
    mu: f32,
    istd: f32,
) {
    assert_eq!(out.len(), x.len());
    assert_eq!(out.len(), gain.len());
    assert_eq!(out.len(), bias.len());
    dispatch!(lvl, norm_scale_shift(out, x, gain, bias, mu, istd));
    for c in 0..out.len() {
        out[c] = gain[c] * ((x[c] - mu) * istd) + bias[c];
    }
}

/// `dst[i] = (x[i] + h[i]) + b[i]`, lane-parallel when `lvl` allows.
pub(crate) fn add3(lvl: SimdLevel, dst: &mut [f32], x: &[f32], h: &[f32], b: &[f32]) {
    assert_eq!(dst.len(), x.len());
    assert_eq!(dst.len(), h.len());
    assert_eq!(dst.len(), b.len());
    dispatch!(lvl, add3(dst, x, h, b));
    for c in 0..dst.len() {
        dst[c] = (x[c] + h[c]) + b[c];
    }
}

/// `out[i] = math::exp(out[i])`, lane-parallel when `lvl` allows.
pub(crate) fn exp_in_place(lvl: SimdLevel, out: &mut [f32]) {
    dispatch!(lvl, exp_in_place(out));
    for o in out.iter_mut() {
        *o = math::exp(*o);
    }
}

/// `out[i] = math::tanh(out[i])`, lane-parallel when `lvl` allows.
pub(crate) fn tanh_in_place(lvl: SimdLevel, out: &mut [f32]) {
    dispatch!(lvl, tanh_in_place(out));
    for o in out.iter_mut() {
        *o = math::tanh(*o);
    }
}

/// `out[i] = math::sigmoid(out[i])`, lane-parallel when `lvl` allows.
pub(crate) fn sigmoid_in_place(lvl: SimdLevel, out: &mut [f32]) {
    dispatch!(lvl, sigmoid_in_place(out));
    for o in out.iter_mut() {
        *o = math::sigmoid(*o);
    }
}

/// One max-over-rows fold step, lane-parallel when `lvl` allows.
pub(crate) fn colmax_in_place(lvl: SimdLevel, best: &mut [f32], row: &[f32]) {
    assert_eq!(best.len(), row.len());
    dispatch!(lvl, colmax_in_place(best, row));
    for (b, &v) in best.iter_mut().zip(row.iter()) {
        if v > *b {
            *b = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn levels() -> Vec<SimdLevel> {
        let mut out = vec![SimdLevel::Off];
        if is_supported(SimdLevel::Sse2) {
            out.push(SimdLevel::Sse2);
        }
        if is_supported(SimdLevel::Avx2) {
            out.push(SimdLevel::Avx2);
        }
        out
    }

    fn ramp(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 13) as f32 - 6.0) * scale).collect()
    }

    #[test]
    fn with_level_overrides_and_restores() {
        let before = active();
        with_level(SimdLevel::Off, || {
            assert_eq!(active(), SimdLevel::Off);
        });
        assert_eq!(active(), before);
    }

    #[test]
    fn relu_lane_kernel_matches_scalar_bits_on_edge_values() {
        // The scalar oracle is `v.max(0.0)`; the vector kernels must
        // reproduce its exact bits for -0.0 ties, NaN and -inf, which pins
        // the MAXPS operand order (value first, zero second).
        let edge = [-0.0f32, 0.0, -1.5, 3.25, f32::NAN, f32::NEG_INFINITY, -f32::MIN_POSITIVE];
        for lvl in levels() {
            for width in 0..=9 {
                let input: Vec<f32> = edge.iter().cycle().take(width + 8).copied().collect();
                let mut want = input.clone();
                for v in want.iter_mut() {
                    *v = v.max(0.0);
                }
                let mut got = input.clone();
                relu_in_place(lvl, &mut got);
                let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(gb, wb, "level {} width {}", lvl.name(), width);
            }
        }
    }

    #[test]
    fn elementwise_lane_kernels_match_scalar_bits_at_remainder_widths() {
        for lvl in levels() {
            for len in [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33] {
                let x = ramp(len, 0.3);
                let h = ramp(len, 0.7);
                let b = ramp(len, 0.11);

                let mut want = x.clone();
                for (o, &s) in want.iter_mut().zip(h.iter()) {
                    *o += s;
                }
                let mut got = x.clone();
                add_in_place(lvl, &mut got, &h);
                assert_eq!(got, want, "add len {len}");

                let mut want = x.clone();
                for (o, &s) in want.iter_mut().zip(h.iter()) {
                    *o += 0.37 * s;
                }
                let mut got = x.clone();
                axpy_in_place(lvl, &mut got, &h, 0.37);
                assert_eq!(got, want, "axpy len {len}");

                let mut want = x.clone();
                for o in want.iter_mut() {
                    *o *= 1.73;
                }
                let mut got = x.clone();
                scale_in_place(lvl, &mut got, 1.73);
                assert_eq!(got, want, "scale len {len}");

                let mut want = vec![0.0; len];
                for c in 0..len {
                    want[c] = h[c] * ((x[c] - 0.21) * 3.5) + b[c];
                }
                let mut got = vec![0.0; len];
                norm_scale_shift(lvl, &mut got, &x, &h, &b, 0.21, 3.5);
                assert_eq!(got, want, "norm len {len}");

                let mut want = vec![0.0; len];
                for c in 0..len {
                    want[c] = (x[c] + h[c]) + b[c];
                }
                let mut got = vec![0.0; len];
                add3(lvl, &mut got, &x, &h, &b);
                assert_eq!(got, want, "add3 len {len}");

                let mut want = x.clone();
                for (o, &v) in want.iter_mut().zip(h.iter()) {
                    if v > *o {
                        *o = v;
                    }
                }
                let mut got = x.clone();
                colmax_in_place(lvl, &mut got, &h);
                assert_eq!(got, want, "colmax len {len}");
            }
        }
    }

    /// Arguments for the transcendental lane tests: the special values,
    /// dense windows around the branch points and clamp edges, and random
    /// bit patterns (so NaNs of both signs, subnormals and huge values).
    fn transcendental_args() -> Vec<f32> {
        use rand::{Rng, SeedableRng};
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xff80_0001),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::MAX,
            f32::MIN,
        ];
        for edge in [0.625f32, -0.625, 88.72, -87.34, -103.97, -1.0, 89.0, -104.0] {
            for d in -64i32..=64 {
                xs.push(f32::from_bits((edge.to_bits() as i32 + d) as u32));
            }
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for _ in 0..20_000 {
            xs.push(f32::from_bits(rng.gen::<u32>()));
            xs.push(rng.gen_range(-12.0f32..12.0));
        }
        xs
    }

    #[test]
    fn transcendental_lanes_match_scalar_bits_at_every_level_and_width() {
        type Case = (&'static str, fn(SimdLevel, &mut [f32]), fn(f32) -> f32);
        let fns: [Case; 3] = [
            ("exp", exp_in_place, math::exp),
            ("tanh", tanh_in_place, math::tanh),
            ("sigmoid", sigmoid_in_place, math::sigmoid),
        ];
        let xs = transcendental_args();
        for lvl in levels() {
            for (name, lanes, scalar) in fns {
                // Every remainder width, over windows that slide through the
                // whole argument list, so each value meets every lane slot.
                for width in 0..=17usize {
                    for start in (0..xs.len().saturating_sub(width)).step_by(width.max(1) + 5) {
                        let chunk = &xs[start..start + width];
                        let mut got = chunk.to_vec();
                        lanes(lvl, &mut got);
                        for (&x, &g) in chunk.iter().zip(&got) {
                            assert_eq!(
                                g.to_bits(),
                                scalar(x).to_bits(),
                                "{name}({x:e} = {:#010x}) at level {} width {width}",
                                x.to_bits(),
                                lvl.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn descriptor_names_the_configured_level() {
        let d = descriptor();
        assert!(d.contains(configured().name()), "{d}");
    }
}
