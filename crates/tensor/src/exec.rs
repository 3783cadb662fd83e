//! The execution backend behind every layer forward.
//!
//! Each neural building block in [`crate::nn`] (and every module built on
//! top of it in `ner-core`) has exactly **one** forward implementation,
//! written against the [`Exec`] trait. Every backend holds a packed batch
//! of segments (sentences); the trait has three implementations:
//!
//! * [`Tape`] — the one-segment case: records an autograd node per
//!   operation for one sentence. The trait methods expand coarse
//!   operations (`affine_act`, `lstm_gates`, …) into exactly the node
//!   chains the historical per-layer forwards pushed, so training
//!   trajectories are preserved. It is also the per-sentence reference
//!   every parity test compares the packed backends against.
//! * [`BatchedExec`] — tape-free inference over a packed batch of
//!   sentences (one sentence is a batch of one). Operations write into
//!   fresh buffers via the fused kernels in [`crate::fused`]; nothing is
//!   recorded, parameters are borrowed rather than copied, and every
//!   intermediate is freed when the backend is dropped.
//! * [`BatchedTapeExec`] — autograd recording over the same packed layout,
//!   for batched training. Its packed forwards *are* the eager ones: the
//!   LSTM/GRU sweeps, the per-run convolution, reversal and positional
//!   encodings are the same functions [`BatchedExec`] calls, and the
//!   recording backend only adds a stash for the backward and the node
//!   that carries it.
//!
//! **Determinism contract.** For every operation the backends perform the
//! same floating-point arithmetic in the same order, so a sentence's
//! forward rows are bit-identical whichever backend runs it
//! (`tests/prop_fused.rs`, `ner-core/tests/plan_parity.rs`,
//! `ner-core/tests/prop_batched.rs`). Coarse operations exist precisely
//! where a fused kernel can skip tape bookkeeping without touching the
//! accumulation order.

use crate::fused::{self, Activation};
use crate::kernels::{self, Fold};
use crate::{simd, OpClass, ParamId, ParamStore, SimdLevel, Tape, Tensor, Var};
use rand::Rng;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// An execution backend for layer forwards: either records autograd nodes
/// ([`Tape`], [`BatchedTapeExec`]) or evaluates eagerly into fresh buffers
/// ([`BatchedExec`]).
///
/// Values are lightweight `Copy` handles; [`value`](Exec::value) reads the
/// tensor behind a handle.
///
/// Every backend is a *packed* backend: it holds one or more segments
/// (sentences) whose token rows are packed into a single `[N, d]` value,
/// segment `s` occupying its own rows in caller order. Packed row-wise
/// operations go through the plain methods; per-segment subgraphs
/// (attention cores, char compositions, decoder losses) run inside
/// [`scoped`](Exec::scoped), which treats each value as a single sentence.
/// The provided segment methods describe the one-segment case, which is
/// what the [`Tape`] is: [`slice_segment`](Exec::slice_segment) and
/// [`concat_segments`](Exec::concat_segments) pass their value through
/// without recording a node, and `scoped` runs `f` as is.
pub trait Exec {
    /// Handle to a computed tensor.
    type V: Copy;

    /// Introduces a literal tensor.
    fn constant(&mut self, value: Tensor) -> Self::V;
    /// Leases a parameter.
    fn param(&mut self, store: &ParamStore, id: ParamId) -> Self::V;
    /// Gathers rows of an embedding table: `[ids.len(), dim]`.
    fn lookup(&mut self, store: &ParamStore, id: ParamId, ids: &[usize]) -> Self::V;
    /// Reads the tensor behind a handle.
    fn value(&self, v: Self::V) -> &Tensor;

    /// Matrix product `a·b`.
    fn matmul(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Matrix transpose.
    fn transpose(&mut self, a: Self::V) -> Self::V;
    /// Elementwise sum.
    fn add(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Elementwise difference.
    fn sub(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Elementwise product.
    fn mul(&mut self, a: Self::V, b: Self::V) -> Self::V;
    /// Multiplication by a scalar.
    fn scale(&mut self, a: Self::V, s: f32) -> Self::V;
    /// Broadcast-adds the row vector `bias [1, d]` to every row of `m`.
    fn add_bias(&mut self, m: Self::V, bias: Self::V) -> Self::V;
    /// Applies a nonlinearity ([`Activation::None`] is the identity and
    /// returns `a` unchanged on both backends).
    fn activation(&mut self, a: Self::V, act: Activation) -> Self::V;

    /// Fused affine layer `act(x·w + b)` — on the tape this is the
    /// `affine` node followed by the activation node.
    fn affine_act(&mut self, x: Self::V, w: Self::V, b: Self::V, act: Activation) -> Self::V;
    /// Fused same-padded 1-D convolution + activation (layouts of
    /// `Tape::conv1d`).
    fn conv1d_act(
        &mut self,
        x: Self::V,
        w: Self::V,
        b: Self::V,
        k: usize,
        dilation: usize,
        act: Activation,
    ) -> Self::V;
    /// Row-wise layer normalization with learned gain/bias.
    fn layer_norm(&mut self, x: Self::V, gain: Self::V, bias: Self::V) -> Self::V;
    /// Row-wise softmax.
    fn softmax_rows(&mut self, a: Self::V) -> Self::V;
    /// Column-wise max over rows `[n, d] → [1, d]`.
    fn max_over_rows(&mut self, a: Self::V) -> Self::V;

    /// Copies columns `[start, start+len)`.
    fn slice_cols(&mut self, a: Self::V, start: usize, len: usize) -> Self::V;
    /// Copies rows `[start, start+len)`.
    fn slice_rows(&mut self, a: Self::V, start: usize, len: usize) -> Self::V;
    /// Copies row `i` as a `[1, d]` tensor.
    fn row(&mut self, a: Self::V, i: usize) -> Self::V;
    /// Stacks parts vertically.
    fn concat_rows(&mut self, parts: &[Self::V]) -> Self::V;
    /// Concatenates parts side by side.
    fn concat_cols(&mut self, parts: &[Self::V]) -> Self::V;
    /// Reverses the row order.
    fn reverse_rows(&mut self, a: Self::V) -> Self::V;

    /// One LSTM gate application on the pre-activation `pre [1, 4·hidden]`
    /// (gate order i, f, g, o) and previous cell state `c [1, hidden]`;
    /// returns `(h', c')`.
    fn lstm_gates(&mut self, pre: Self::V, c: Self::V, hidden: usize) -> (Self::V, Self::V);
    /// One GRU gate application on the bias-added projections
    /// `xp`/`hp [1, 3·hidden]` (gate order z, r, n) and previous hidden
    /// state; returns `h'`.
    fn gru_gates(&mut self, xp: Self::V, hp: Self::V, h_prev: Self::V, hidden: usize) -> Self::V;

    /// Sinusoidal positional encodings `[n, d]` — [`BatchedExec`] serves
    /// them from a shared [`PeCache`] when one is attached.
    fn positional_encoding(&mut self, n: usize, d: usize) -> Self::V;

    /// Runs a whole LSTM pass left to right, `xs [n, d_in] → [n, hidden]`
    /// (gate order i, f, g, o). The provided implementation expands to the
    /// historical per-step chain — lease weights and zero states, then per
    /// step `row`, two `matmul`s, `add`, `add_bias`, [`Exec::lstm_gates`] —
    /// which is what the tape records. The packed backends override it with
    /// a sequence-batched input projection and an in-place gate sweep that
    /// compute the same floats in the same per-element order.
    fn lstm_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b: ParamId,
        hidden: usize,
        xs: Self::V,
    ) -> Self::V {
        let n = self.value(xs).rows();
        let w_ih = self.param(store, w_ih);
        let w_hh = self.param(store, w_hh);
        let b = self.param(store, b);
        let mut h = self.constant(Tensor::zeros(1, hidden));
        let mut c = self.constant(Tensor::zeros(1, hidden));
        let mut outputs = Vec::with_capacity(n);
        for t in 0..n {
            let x_t = self.row(xs, t);
            let xp = self.matmul(x_t, w_ih);
            let hp = self.matmul(h, w_hh);
            let s = self.add(xp, hp);
            let pre = self.add_bias(s, b);
            let (h_new, c_new) = self.lstm_gates(pre, c, hidden);
            h = h_new;
            c = c_new;
            outputs.push(h);
        }
        self.concat_rows(&outputs)
    }

    /// Runs a whole GRU pass left to right, `xs [n, d_in] → [n, hidden]`
    /// (gate order z, r, n). Same contract as [`Exec::lstm_sequence`]: the
    /// provided implementation is the historical per-step tape chain, the
    /// packed backends override it with a batched equivalent.
    #[allow(clippy::too_many_arguments)]
    fn gru_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b_ih: ParamId,
        b_hh: ParamId,
        hidden: usize,
        xs: Self::V,
    ) -> Self::V {
        let n = self.value(xs).rows();
        let w_ih = self.param(store, w_ih);
        let w_hh = self.param(store, w_hh);
        let b_ih = self.param(store, b_ih);
        let b_hh = self.param(store, b_hh);
        let mut h = self.constant(Tensor::zeros(1, hidden));
        let mut outputs = Vec::with_capacity(n);
        for t in 0..n {
            let x_t = self.row(xs, t);
            let xp0 = self.matmul(x_t, w_ih);
            let xp = self.add_bias(xp0, b_ih);
            let hp0 = self.matmul(h, w_hh);
            let hp = self.add_bias(hp0, b_hh);
            h = self.gru_gates(xp, hp, h, hidden);
            outputs.push(h);
        }
        self.concat_rows(&outputs)
    }

    /// Number of segments (sentences) the backend holds.
    fn segments(&self) -> usize {
        1
    }

    /// Segment `s` of a packed `[N, d]` value as its own value.
    fn slice_segment(&mut self, v: Self::V, s: usize) -> Self::V {
        debug_assert_eq!(s, 0, "a one-segment backend has only segment 0");
        v
    }

    /// Stacks one value per segment back into packed rows: the inverse of
    /// [`Exec::slice_segment`].
    fn concat_segments(&mut self, parts: &[Self::V]) -> Self::V {
        debug_assert_eq!(parts.len(), 1, "a one-segment backend has one part");
        parts[0]
    }

    /// Runs `f` in segment `s`'s per-sentence scope: every operation
    /// recorded inside behaves exactly as it would on the one-segment
    /// backend, and (in training) its parameter gradients are routed to
    /// segment `s`'s buffer.
    fn scoped<R>(&mut self, s: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        debug_assert_eq!(s, 0, "a one-segment backend has only segment 0");
        f(self)
    }
}

impl Exec for Tape {
    type V = Var;

    fn constant(&mut self, value: Tensor) -> Var {
        Tape::constant(self, value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        Tape::param(self, store, id)
    }

    fn lookup(&mut self, store: &ParamStore, id: ParamId, ids: &[usize]) -> Var {
        self.param_rows(store, id, ids)
    }

    fn value(&self, v: Var) -> &Tensor {
        Tape::value(self, v)
    }

    fn matmul(&mut self, a: Var, b: Var) -> Var {
        Tape::matmul(self, a, b)
    }

    fn transpose(&mut self, a: Var) -> Var {
        Tape::transpose(self, a)
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        Tape::add(self, a, b)
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        Tape::sub(self, a, b)
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        Tape::mul(self, a, b)
    }

    fn scale(&mut self, a: Var, s: f32) -> Var {
        Tape::scale(self, a, s)
    }

    fn add_bias(&mut self, m: Var, bias: Var) -> Var {
        Tape::add_bias(self, m, bias)
    }

    fn activation(&mut self, a: Var, act: Activation) -> Var {
        match act {
            Activation::None => a,
            Activation::Relu => self.relu(a),
            Activation::Tanh => self.tanh(a),
            Activation::Sigmoid => self.sigmoid(a),
        }
    }

    fn affine_act(&mut self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let lin = self.affine(x, w, b);
        Exec::activation(self, lin, act)
    }

    fn conv1d_act(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        k: usize,
        dilation: usize,
        act: Activation,
    ) -> Var {
        let conv = self.conv1d(x, w, b, k, dilation);
        Exec::activation(self, conv, act)
    }

    fn layer_norm(&mut self, x: Var, gain: Var, bias: Var) -> Var {
        Tape::layer_norm(self, x, gain, bias)
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        Tape::softmax_rows(self, a)
    }

    fn max_over_rows(&mut self, a: Var) -> Var {
        Tape::max_over_rows(self, a)
    }

    fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        Tape::slice_cols(self, a, start, len)
    }

    fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        Tape::slice_rows(self, a, start, len)
    }

    fn row(&mut self, a: Var, i: usize) -> Var {
        Tape::row(self, a, i)
    }

    fn concat_rows(&mut self, parts: &[Var]) -> Var {
        Tape::concat_rows(self, parts)
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        Tape::concat_cols(self, parts)
    }

    fn reverse_rows(&mut self, a: Var) -> Var {
        Tape::reverse_rows(self, a)
    }

    // Expands to exactly the node chain `LstmCell::step` historically
    // pushed, so training tapes are unchanged node for node.
    fn lstm_gates(&mut self, pre: Var, c: Var, hidden: usize) -> (Var, Var) {
        let h = hidden;
        let i_pre = self.slice_cols(pre, 0, h);
        let f_pre = self.slice_cols(pre, h, h);
        let g_pre = self.slice_cols(pre, 2 * h, h);
        let o_pre = self.slice_cols(pre, 3 * h, h);
        let i = self.sigmoid(i_pre);
        let f = self.sigmoid(f_pre);
        let g = self.tanh(g_pre);
        let o = self.sigmoid(o_pre);
        let fc = Tape::mul(self, f, c);
        let ig = Tape::mul(self, i, g);
        let c_new = Tape::add(self, fc, ig);
        let ct = self.tanh(c_new);
        let h_new = Tape::mul(self, o, ct);
        (h_new, c_new)
    }

    // The historical `GruCell::step` chain, node for node.
    fn gru_gates(&mut self, xp: Var, hp: Var, h_prev: Var, hidden: usize) -> Var {
        let h = hidden;
        let xz = self.slice_cols(xp, 0, h);
        let xr = self.slice_cols(xp, h, h);
        let xn = self.slice_cols(xp, 2 * h, h);
        let hz = self.slice_cols(hp, 0, h);
        let hr = self.slice_cols(hp, h, h);
        let hn = self.slice_cols(hp, 2 * h, h);
        let z_pre = Tape::add(self, xz, hz);
        let z = self.sigmoid(z_pre);
        let r_pre = Tape::add(self, xr, hr);
        let r = self.sigmoid(r_pre);
        let rhn = Tape::mul(self, r, hn);
        let n_pre = Tape::add(self, xn, rhn);
        let n = self.tanh(n_pre);
        // h' = (1−z)⊙n + z⊙h  =  n − z⊙n + z⊙h
        let zn = Tape::mul(self, z, n);
        let zh = Tape::mul(self, z, h_prev);
        let n_minus = Tape::sub(self, n, zn);
        Tape::add(self, n_minus, zh)
    }

    fn positional_encoding(&mut self, n: usize, d: usize) -> Var {
        let pe = crate::nn::positional_encoding(n, d);
        Tape::constant(self, pe)
    }
}

/// A shared, thread-safe cache of sinusoidal positional encodings keyed by
/// `(length, dim)` — encodings are deterministic, so one computation per
/// shape serves every sentence.
#[derive(Default)]
pub struct PeCache {
    cache: Mutex<HashMap<(usize, usize), Arc<Tensor>>>,
}

impl PeCache {
    /// An empty cache.
    pub fn new() -> Self {
        PeCache::default()
    }

    /// Returns the `[n, d]` encoding, computing and caching it on a miss.
    pub fn get(&self, n: usize, d: usize) -> Arc<Tensor> {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            cache.entry((n, d)).or_insert_with(|| Arc::new(crate::nn::positional_encoding(n, d))),
        )
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a [`BatchedExec`] slot holds.
enum Slot {
    /// A computed intermediate, owned by the backend until it is dropped.
    Owned(Tensor),
    /// A cache-shared tensor (positional encodings).
    Shared(Arc<Tensor>),
    /// A borrowed parameter — never copied.
    Param(ParamId),
}

/// Handle to a [`BatchedExec`] value.
#[derive(Clone, Copy, Debug)]
pub struct BatchedVal(usize);

/// The tape-free inference backend: evaluates a whole batch of sentences as
/// one *packed-rows* problem, eagerly, with the fused kernels in
/// [`crate::fused`]. A single sentence is simply a batch of one.
///
/// The batch's token rows are packed into a single `[N, d]` matrix
/// (`N = Σ lenᵢ`), each segment occupying its own contiguous rows in
/// caller order. Row-wise operations (affine layers, activations, layer
/// norm, embedding lookups) need no special handling — each packed row is
/// computed exactly as the same row of a single sentence. The
/// sequence-shaped operations respect segment boundaries:
///
/// * [`lstm_sequence`](Exec::lstm_sequence) / [`gru_sequence`](Exec::gru_sequence)
///   run **one recurrent GEMM per timestep across the whole batch**: the
///   hidden states of every sentence still alive at timestep `t` form a
///   `[live, h]` matrix multiplied against `w_hh` in a single call.
///   Segments are swept longest-first, so the live set at any timestep is
///   a contiguous prefix — the "per-timestep live-row mask" is a prefix
///   length, and shorter sentences drop out cleanly with no padding
///   arithmetic.
/// * [`conv1d_act`](Exec::conv1d_act) and
///   [`reverse_rows`](Exec::reverse_rows) apply per segment (a convolution
///   window must not straddle a sentence boundary).
/// * [`positional_encoding`](Exec::positional_encoding) stacks the
///   per-segment encodings.
///
/// Operations whose inputs are *not* packed token rows (per-word character
/// matrices, per-segment attention scores, greedy decoder steps) run inside
/// [`Exec::scoped`], where every sequence-shaped operation treats the
/// value's rows as a single segment.
///
/// Parameters are leased by id (no copy); every owned intermediate lives
/// until the backend is dropped.
///
/// **Float-parity contract.** The kernels in `crate::kernels` keep the
/// per-output-element accumulation order independent of how many rows a
/// GEMM has, and the gate sweeps are the same scalar expressions as the
/// tape's per-step chain, so every packed output row is **bit-identical**
/// to running that sentence alone on the [`Tape`] — not just tag-identical
/// (`ner-core/tests/prop_batched.rs` and `plan_parity.rs` pin this across
/// the model zoo).
pub struct BatchedExec<'a> {
    store: &'a ParamStore,
    pe: Option<&'a PeCache>,
    slots: Vec<Slot>,
    pack: Packing,
    /// Inside an [`Exec::scoped`] call the values in flight are
    /// per-segment tensors, not packed rows: sequence operations treat
    /// their input as one segment.
    in_scope: bool,
}

/// The packed-rows layout both packed backends hold: segment `s` occupies
/// rows `[offsets[s], offsets[s] + lens[s])` in caller order.
struct Packing {
    /// Per-segment lengths, caller order. Every length is ≥ 1.
    lens: Vec<usize>,
    /// Packed row offset of each segment, caller order.
    offsets: Vec<usize>,
    /// Each segment's `(offset, len)`, sorted longest-first (ties by
    /// index, so the sweep order — and therefore every float — is
    /// deterministic): the runs the sequence operations sweep.
    runs: Vec<(usize, usize)>,
    /// Total packed rows, `Σ lens`.
    total: usize,
}

impl Packing {
    /// # Panics
    /// Panics if `lens` is empty or contains a zero length — empty
    /// sentences must be filtered out before packing.
    fn new(lens: &[usize], backend: &str) -> Packing {
        assert!(!lens.is_empty(), "{backend} needs at least one segment");
        assert!(lens.iter().all(|&l| l > 0), "{backend} segments must be non-empty");
        let mut offsets = Vec::with_capacity(lens.len());
        let mut total = 0;
        for &l in lens {
            offsets.push(total);
            total += l;
        }
        let mut order: Vec<usize> = (0..lens.len()).collect();
        order.sort_by_key(|&s| std::cmp::Reverse(lens[s]));
        let runs = order.iter().map(|&s| (offsets[s], lens[s])).collect();
        Packing { lens: lens.to_vec(), offsets, runs, total }
    }

    /// The runs of a packed-rows value; `op` names the caller in the
    /// panic when `rows` are not the batch's token rows.
    fn runs(&self, rows: usize, op: &str) -> &[(usize, usize)] {
        assert_eq!(rows, self.total, "{op} expects packed token rows");
        &self.runs
    }
}

impl<'a> BatchedExec<'a> {
    /// A fresh batched backend reading parameters from `store`, for
    /// segments of the given lengths.
    ///
    /// # Panics
    /// Panics if `lens` is empty or contains a zero length — empty
    /// sentences must be filtered out before packing.
    pub fn new(store: &'a ParamStore, lens: &[usize]) -> Self {
        BatchedExec {
            store,
            pe: None,
            slots: Vec::with_capacity(64),
            pack: Packing::new(lens, "BatchedExec"),
            in_scope: false,
        }
    }

    /// Serves positional encodings from `cache` instead of recomputing.
    pub fn with_pe_cache(mut self, cache: &'a PeCache) -> Self {
        self.pe = Some(cache);
        self
    }

    fn push(&mut self, t: Tensor) -> BatchedVal {
        self.slots.push(Slot::Owned(t));
        BatchedVal(self.slots.len() - 1)
    }

    fn tensor(&self, v: BatchedVal) -> &Tensor {
        match &self.slots[v.0] {
            Slot::Owned(t) => t,
            Slot::Shared(t) => t,
            Slot::Param(id) => self.store.value(*id),
        }
    }

    /// The `(offset, len)` runs a sequence-shaped operation sweeps over a
    /// value of `rows` rows, longest first: the batch's segments for packed
    /// token rows, or — inside [`Exec::scoped`] — all rows as one run.
    fn runs(&self, rows: usize, op: &str) -> Cow<'_, [(usize, usize)]> {
        if self.in_scope {
            return Cow::Owned(vec![(0, rows)]);
        }
        Cow::Borrowed(self.pack.runs(rows, op))
    }

    /// Elementwise `f(a, b)` into a fresh buffer.
    fn zip_with(
        &mut self,
        a: BatchedVal,
        b: BatchedVal,
        f: impl Fn(f32, f32) -> f32,
    ) -> BatchedVal {
        let out = {
            let (av, bv) = (self.tensor(a), self.tensor(b));
            let mut out = Tensor::zeros(av.rows(), av.cols());
            for ((o, &x), &y) in out.data_mut().iter_mut().zip(av.data()).zip(bv.data()) {
                *o = f(x, y);
            }
            out
        };
        self.push(out)
    }
}

impl Exec for BatchedExec<'_> {
    type V = BatchedVal;

    fn constant(&mut self, value: Tensor) -> BatchedVal {
        self.push(value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> BatchedVal {
        debug_assert!(std::ptr::eq(store, self.store), "BatchedExec reads from its own store");
        self.slots.push(Slot::Param(id));
        BatchedVal(self.slots.len() - 1)
    }

    fn lookup(&mut self, store: &ParamStore, id: ParamId, ids: &[usize]) -> BatchedVal {
        let out = {
            let table = store.value(id);
            let mut out = Tensor::zeros(ids.len(), table.cols());
            for (r, &i) in ids.iter().enumerate() {
                out.row_mut(r).copy_from_slice(table.row(i));
            }
            out
        };
        self.push(out)
    }

    fn value(&self, v: BatchedVal) -> &Tensor {
        self.tensor(v)
    }

    fn matmul(&mut self, a: BatchedVal, b: BatchedVal) -> BatchedVal {
        let out = self.tensor(a).matmul(self.tensor(b));
        self.push(out)
    }

    fn transpose(&mut self, a: BatchedVal) -> BatchedVal {
        let out = self.tensor(a).transposed();
        self.push(out)
    }

    fn add(&mut self, a: BatchedVal, b: BatchedVal) -> BatchedVal {
        self.zip_with(a, b, |x, y| x + y)
    }

    fn sub(&mut self, a: BatchedVal, b: BatchedVal) -> BatchedVal {
        self.zip_with(a, b, |x, y| x - y)
    }

    fn mul(&mut self, a: BatchedVal, b: BatchedVal) -> BatchedVal {
        self.zip_with(a, b, |x, y| x * y)
    }

    fn scale(&mut self, a: BatchedVal, s: f32) -> BatchedVal {
        let out = {
            let av = self.tensor(a);
            let mut out = Tensor::zeros(av.rows(), av.cols());
            for (o, &x) in out.data_mut().iter_mut().zip(av.data()) {
                *o = x * s;
            }
            out
        };
        self.push(out)
    }

    fn add_bias(&mut self, m: BatchedVal, bias: BatchedVal) -> BatchedVal {
        let out = {
            let mut out = self.tensor(m).clone();
            fused::add_bias_in_place(&mut out, self.tensor(bias));
            out
        };
        self.push(out)
    }

    fn activation(&mut self, a: BatchedVal, act: Activation) -> BatchedVal {
        if act == Activation::None {
            return a;
        }
        let mut out = self.tensor(a).clone();
        act.apply(&mut out);
        self.push(out)
    }

    fn affine_act(
        &mut self,
        x: BatchedVal,
        w: BatchedVal,
        b: BatchedVal,
        act: Activation,
    ) -> BatchedVal {
        let out = fused::affine_act(self.tensor(x), self.tensor(w), self.tensor(b), act);
        self.push(out)
    }

    // A convolution window must not straddle a sentence boundary, so packed
    // input is convolved per run.
    fn conv1d_act(
        &mut self,
        x: BatchedVal,
        w: BatchedVal,
        b: BatchedVal,
        k: usize,
        dilation: usize,
        act: Activation,
    ) -> BatchedVal {
        let out = {
            let (xv, wv, bv) = (self.tensor(x), self.tensor(w), self.tensor(b));
            let runs = self.runs(xv.rows(), "conv1d_act");
            per_run(xv, &runs, wv.cols(), |seg| fused::conv1d_act(seg, wv, bv, k, dilation, act))
        };
        self.push(out)
    }

    fn layer_norm(&mut self, x: BatchedVal, gain: BatchedVal, bias: BatchedVal) -> BatchedVal {
        let out = fused::layer_norm(self.tensor(x), self.tensor(gain), self.tensor(bias));
        self.push(out)
    }

    fn softmax_rows(&mut self, a: BatchedVal) -> BatchedVal {
        let mut out = self.tensor(a).clone();
        fused::softmax_rows_in_place(&mut out);
        self.push(out)
    }

    fn max_over_rows(&mut self, a: BatchedVal) -> BatchedVal {
        let out = fused::max_over_rows(self.tensor(a));
        self.push(out)
    }

    fn slice_cols(&mut self, a: BatchedVal, start: usize, len: usize) -> BatchedVal {
        let out = fused::slice_cols(self.tensor(a), start, len);
        self.push(out)
    }

    fn slice_rows(&mut self, a: BatchedVal, start: usize, len: usize) -> BatchedVal {
        let out = {
            let av = self.tensor(a);
            assert!(start + len <= av.rows(), "slice_rows out of bounds");
            let mut out = Tensor::zeros(len, av.cols());
            for r in 0..len {
                out.row_mut(r).copy_from_slice(av.row(start + r));
            }
            out
        };
        self.push(out)
    }

    fn row(&mut self, a: BatchedVal, i: usize) -> BatchedVal {
        self.slice_rows(a, i, 1)
    }

    fn concat_rows(&mut self, parts: &[BatchedVal]) -> BatchedVal {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let out = {
            let total: usize = parts.iter().map(|&p| self.tensor(p).rows()).sum();
            let cols = self.tensor(parts[0]).cols();
            let mut out = Tensor::zeros(total, cols);
            let mut r = 0;
            for &p in parts {
                let pv = self.tensor(p);
                assert_eq!(pv.cols(), cols, "concat_rows width mismatch");
                for pr in 0..pv.rows() {
                    out.row_mut(r).copy_from_slice(pv.row(pr));
                    r += 1;
                }
            }
            out
        };
        self.push(out)
    }

    fn concat_cols(&mut self, parts: &[BatchedVal]) -> BatchedVal {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let out = {
            let rows = self.tensor(parts[0]).rows();
            let total: usize = parts.iter().map(|&p| self.tensor(p).cols()).sum();
            let mut out = Tensor::zeros(rows, total);
            let mut c = 0;
            for &p in parts {
                let pv = self.tensor(p);
                assert_eq!(pv.rows(), rows, "concat_cols height mismatch");
                let w = pv.cols();
                for r in 0..rows {
                    out.row_mut(r)[c..c + w].copy_from_slice(pv.row(r));
                }
                c += w;
            }
            out
        };
        self.push(out)
    }

    // Sequence reversal is per sentence: each segment's rows flip in place,
    // never crossing its boundary.
    fn reverse_rows(&mut self, a: BatchedVal) -> BatchedVal {
        let out = {
            let av = self.tensor(a);
            reverse_runs(av, &self.runs(av.rows(), "reverse_rows"))
        };
        self.push(out)
    }

    fn lstm_gates(
        &mut self,
        pre: BatchedVal,
        c: BatchedVal,
        hidden: usize,
    ) -> (BatchedVal, BatchedVal) {
        let (h_new, c_new) = {
            let (pv, cv) = (self.tensor(pre), self.tensor(c));
            assert_eq!(pv.shape(), (1, 4 * hidden), "lstm_gates pre-activation shape");
            let mut h_new = Tensor::zeros(1, hidden);
            let mut c_new = cv.clone();
            let (mut gates, mut ct) = (pv.row(0).to_vec(), vec![0.0f32; hidden]);
            let lvl = simd::active();
            lstm_cell(lvl, &mut gates, c_new.row_mut(0), &mut ct, h_new.row_mut(0));
            (h_new, c_new)
        };
        let h = self.push(h_new);
        let c = self.push(c_new);
        (h, c)
    }

    fn gru_gates(
        &mut self,
        xp: BatchedVal,
        hp: BatchedVal,
        h_prev: BatchedVal,
        hidden: usize,
    ) -> BatchedVal {
        let out = {
            let (xv, hv, prev) = (self.tensor(xp), self.tensor(hp), self.tensor(h_prev));
            assert_eq!(xv.shape(), (1, 3 * hidden), "gru_gates projection shape");
            let mut out = Tensor::zeros(1, hidden);
            let mut gates = vec![0.0f32; 3 * hidden];
            let lvl = simd::active();
            gru_cell(lvl, xv.row(0), hv.row(0), prev.row(0), &mut gates, out.row_mut(0));
            out
        };
        self.push(out)
    }

    // Each segment restarts its positional clock. A single run is served
    // straight from the cache, without a copy.
    fn positional_encoding(&mut self, n: usize, d: usize) -> BatchedVal {
        let runs = self.runs(n, "positional_encoding");
        if let [(_, len)] = runs[..] {
            return match self.pe {
                Some(cache) => {
                    self.slots.push(Slot::Shared(cache.get(len, d)));
                    BatchedVal(self.slots.len() - 1)
                }
                None => self.push(crate::nn::positional_encoding(len, d)),
            };
        }
        let out = stacked_pe(&runs, n, d, self.pe);
        self.push(out)
    }

    fn lstm_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b: ParamId,
        _hidden: usize,
        xs: BatchedVal,
    ) -> BatchedVal {
        let out = {
            let xsv = self.tensor(xs);
            let runs = self.runs(xsv.rows(), "lstm_sequence");
            let (w_ih, w_hh, b) = (store.value(w_ih), store.value(w_hh), store.value(b));
            lstm_sweep(xsv, w_ih, w_hh, b, &runs, |_, _, _, _| {})
        };
        self.push(out)
    }

    fn gru_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b_ih: ParamId,
        b_hh: ParamId,
        _hidden: usize,
        xs: BatchedVal,
    ) -> BatchedVal {
        let out = {
            let xsv = self.tensor(xs);
            let runs = self.runs(xsv.rows(), "gru_sequence");
            let (w_ih, w_hh) = (store.value(w_ih), store.value(w_hh));
            let (b_ih, b_hh) = (store.value(b_ih), store.value(b_hh));
            gru_sweep(xsv, w_ih, w_hh, b_ih, b_hh, &runs, |_, _, _| {})
        };
        self.push(out)
    }

    fn segments(&self) -> usize {
        self.pack.lens.len()
    }

    fn slice_segment(&mut self, v: BatchedVal, s: usize) -> BatchedVal {
        let (off, len) = (self.pack.offsets[s], self.pack.lens[s]);
        self.slice_rows(v, off, len)
    }

    fn concat_segments(&mut self, parts: &[BatchedVal]) -> BatchedVal {
        self.concat_rows(parts)
    }

    // Inside a scope the values in flight are per-segment tensors, so the
    // sequence operations sweep each input as a single run.
    fn scoped<R>(&mut self, _s: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.in_scope;
        self.in_scope = true;
        let out = f(self);
        self.in_scope = prev;
        out
    }
}

// ---- The packed forward both packed backends run ----

/// How many runs are still alive (length > `t`) at timestep `t`. Sorted
/// longest-first, the live set is always the prefix `runs[..live_at(t)]`.
fn live_at(runs: &[(usize, usize)], t: usize) -> usize {
    runs.partition_point(|&(_, l)| l > t)
}

/// Row-copies `[off, off + len)` of `t` into a fresh `[len, cols]` tensor —
/// the bytes a per-sentence oracle would have seen for that segment.
fn rows_of(t: &Tensor, off: usize, len: usize) -> Tensor {
    let mut out = Tensor::zeros(len, t.cols());
    for r in 0..len {
        out.row_mut(r).copy_from_slice(t.row(off + r));
    }
    out
}

/// Each run's `aᵀ·b` over packed rows (`a` rows `m` wide, `b` rows `n`
/// wide) as its own `[m, n]` tensor, summed in `fold` row order by
/// [`kernels::matmul_tn_runs`].
fn tn_per_run(
    a: &[f32],
    b: &[f32],
    runs: &[(usize, usize)],
    m: usize,
    n: usize,
    fold: Fold,
) -> Vec<Tensor> {
    let mut outs: Vec<Tensor> = runs.iter().map(|_| Tensor::zeros(m, n)).collect();
    let mut views: Vec<&mut [f32]> = outs.iter_mut().map(Tensor::data_mut).collect();
    kernels::matmul_tn_runs(a, b, &mut views, runs, m, n, fold);
    outs
}

/// Each segment's recurrent weight gradients `(dW_ih, dW_hh)`, from every
/// packed row's gradient w.r.t. the input projection (`d_xp`) and the
/// recurrent projection (`d_hp`; the same tensor for the LSTM). Each sums
/// its segment's per-step products from the last step down, the order the
/// per-step oracle adds them in (DESIGN.md §4). `h_{-1}` is zero, so
/// `dW_hh` pairs output rows `0..len-1` with gradient rows `1..len`.
fn recurrent_weight_grads(
    xs: &Tensor,
    hs: &Tensor,
    d_xp: &Tensor,
    d_hp: &Tensor,
    seg_runs: &[(usize, usize)],
) -> (Vec<Tensor>, Vec<Tensor>) {
    let g = d_xp.cols();
    let dw_ih = tn_per_run(xs.data(), d_xp.data(), seg_runs, xs.cols(), g, Fold::Reverse);
    let hh_runs: Vec<_> = seg_runs.iter().map(|&(off, len)| (off, len - 1)).collect();
    let dw_hh = tn_per_run(hs.data(), &d_hp.data()[g..], &hh_runs, hs.cols(), g, Fold::Reverse);
    (dw_ih, dw_hh)
}

/// The sum of `t`'s rows `[off, off + len)` as a `[1, cols]` tensor, added
/// from zero last row first — a per-timestep bias gradient's fold order.
fn reverse_row_sum(t: &Tensor, (off, len): (usize, usize)) -> Tensor {
    let mut out = Tensor::zeros(1, t.cols());
    for r in (off..off + len).rev() {
        for (o, &v) in out.data_mut().iter_mut().zip(t.row(r)) {
            *o += v;
        }
    }
    out
}

/// Applies the per-sentence kernel `f` to each run's rows of `x` on their
/// own and writes each result back at the run's rows, `[x.rows(), cols]` in
/// all. A single run is handed to `f` whole, without copies.
fn per_run(
    x: &Tensor,
    runs: &[(usize, usize)],
    cols: usize,
    f: impl Fn(&Tensor) -> Tensor,
) -> Tensor {
    if runs.len() == 1 {
        return f(x);
    }
    let mut out = Tensor::zeros(x.rows(), cols);
    for &(off, len) in runs {
        let res = f(&rows_of(x, off, len));
        out.data_mut()[off * cols..(off + len) * cols].copy_from_slice(res.data());
    }
    out
}

/// Reverses the row order within each run, never across a run boundary.
fn reverse_runs(x: &Tensor, runs: &[(usize, usize)]) -> Tensor {
    let mut out = Tensor::zeros(x.rows(), x.cols());
    for &(off, len) in runs {
        for r in 0..len {
            out.row_mut(off + r).copy_from_slice(x.row(off + len - 1 - r));
        }
    }
    out
}

/// Each run's `[len, d]` sinusoidal encoding stacked at the run's rows —
/// every segment restarts its positional clock.
fn stacked_pe(runs: &[(usize, usize)], n: usize, d: usize, cache: Option<&PeCache>) -> Tensor {
    let mut out = Tensor::zeros(n, d);
    for &(off, len) in runs {
        let pe = match cache {
            Some(cache) => cache.get(len, d),
            None => Arc::new(crate::nn::positional_encoding(len, d)),
        };
        out.data_mut()[off * d..(off + len) * d].copy_from_slice(pe.data());
    }
    out
}

/// One LSTM cell on the pre-activation `pre [4·h]` (gate order i, f, g, o):
/// the same expressions the tape's expanded gate chain computes, associated
/// identically — cₙ = f·c + i·g, h = o·tanh(cₙ). The gate activations and
/// tanh(cₙ) are [`crate::math`]'s, swept across `lvl`'s lanes. Leaves the
/// post-activation gates in `pre`, cₙ in `c` and tanh(cₙ) in `ct`, and
/// writes h into `h_out`.
fn lstm_cell(lvl: SimdLevel, pre: &mut [f32], c: &mut [f32], ct: &mut [f32], h_out: &mut [f32]) {
    let h = c.len();
    let (ifg, o) = pre.split_at_mut(3 * h);
    simd::sigmoid_in_place(lvl, &mut ifg[..2 * h]);
    simd::tanh_in_place(lvl, &mut ifg[2 * h..]);
    simd::sigmoid_in_place(lvl, o);
    for j in 0..h {
        c[j] = ifg[h + j] * c[j] + ifg[j] * ifg[2 * h + j];
    }
    ct.copy_from_slice(c);
    simd::tanh_in_place(lvl, ct);
    for j in 0..h {
        h_out[j] = o[j] * ct[j];
    }
}

/// One GRU cell on the bias-added projections `x`/`hp [3·h]` (gate order
/// z, r, n) and the previous state: h' = (n − z⊙n) + z⊙h, associated
/// exactly as the tape's sub-then-add chain, with [`crate::math`]'s
/// activations swept across `lvl`'s lanes. Leaves the post-activation
/// gates in `gates [3·h]` and writes h' into `out`.
fn gru_cell(
    lvl: SimdLevel,
    x: &[f32],
    hp: &[f32],
    h_prev: &[f32],
    gates: &mut [f32],
    out: &mut [f32],
) {
    let h = out.len();
    let (zr, n) = gates.split_at_mut(2 * h);
    zr.copy_from_slice(&x[..2 * h]);
    simd::add_in_place(lvl, zr, &hp[..2 * h]);
    simd::sigmoid_in_place(lvl, zr);
    for j in 0..h {
        n[j] = x[2 * h + j] + zr[h + j] * hp[2 * h + j];
    }
    simd::tanh_in_place(lvl, n);
    for j in 0..h {
        let (z, nj) = (zr[j], n[j]);
        out[j] = (nj - z * nj) + z * h_prev[j];
    }
}

/// The packed LSTM forward, `xs [N, d_in] → [N, h]` over longest-first
/// `runs`: one `[N, 4h]` input projection for the whole batch, then one
/// `[live, 4h]` recurrent GEMM per timestep shared by every run still alive
/// at that timestep. Per row the recurrent product, the `(x + h) + b`
/// association (the tape's add-then-add_bias) and the cell equal the tape's
/// per-step chain — the kernels keep per-output-element accumulation order
/// independent of GEMM height, so every output row is bit-identical to
/// running its sentence alone. `stash(r, gates, c, tanh c)` sees output row
/// `r`'s post-activation gates `[4h]`, cell state and its tanh `[h]`; the
/// eager backend passes a no-op.
fn lstm_sweep(
    xs: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b: &Tensor,
    runs: &[(usize, usize)],
    mut stash: impl FnMut(usize, &[f32], &[f32], &[f32]),
) -> Tensor {
    let h = w_hh.rows();
    let xp = xs.matmul(w_ih); // [N, 4h]
    let mut out = Tensor::zeros(xs.rows(), h);
    // Hidden/cell state per sorted position; the live prefix only ever
    // shrinks, so positions are stable for a run's lifetime.
    let mut hstate = Tensor::zeros(runs.len(), h);
    let mut c = vec![0.0f32; runs.len() * h];
    // The pre-activation build `(x + h) + b` and the cell's activations
    // run across SIMD lanes; every lane repeats the scalar sequence.
    let mut pre = vec![0.0f32; 4 * h];
    let mut ct = vec![0.0f32; h];
    let lvl = simd::active();
    for t in 0..runs[0].1 {
        let live = live_at(runs, t);
        if live < hstate.rows() {
            // Shrink the recurrent GEMM to the rows still alive.
            hstate = rows_of(&hstate, 0, live);
        }
        let hp = hstate.matmul(w_hh); // [live, 4h]
        for (p, &(off, _)) in runs[..live].iter().enumerate() {
            let r = off + t;
            simd::add3(lvl, &mut pre, xp.row(r), hp.row(p), b.data());
            let cs = &mut c[p * h..(p + 1) * h];
            lstm_cell(lvl, &mut pre, cs, &mut ct, out.row_mut(r));
            stash(r, &pre, cs, &ct);
            hstate.row_mut(p).copy_from_slice(out.row(r));
        }
    }
    out
}

/// The packed GRU forward, same contract as [`lstm_sweep`]: one
/// bias-added `[N, 3h]` input projection, then one `[live, 3h]` recurrent
/// GEMM per timestep over the live prefix. `stash(r, gates, hn)` sees
/// output row `r`'s post-activation gates `[3h]` with the recurrent
/// n-projection `hn [h]` it used.
fn gru_sweep(
    xs: &Tensor,
    w_ih: &Tensor,
    w_hh: &Tensor,
    b_ih: &Tensor,
    b_hh: &Tensor,
    runs: &[(usize, usize)],
    mut stash: impl FnMut(usize, &[f32], &[f32]),
) -> Tensor {
    let h = w_hh.rows();
    let mut xp = xs.matmul(w_ih); // [N, 3h]
    fused::add_bias_in_place(&mut xp, b_ih);
    let mut out = Tensor::zeros(xs.rows(), h);
    let mut hstate = Tensor::zeros(runs.len(), h);
    let mut gates = vec![0.0f32; 3 * h];
    let lvl = simd::active();
    for t in 0..runs[0].1 {
        let live = live_at(runs, t);
        if live < hstate.rows() {
            hstate = rows_of(&hstate, 0, live);
        }
        let mut hp = hstate.matmul(w_hh); // [live, 3h]
        fused::add_bias_in_place(&mut hp, b_hh);
        for (p, &(off, _)) in runs[..live].iter().enumerate() {
            let r = off + t;
            let h_row = hp.row(p);
            gru_cell(lvl, xp.row(r), h_row, hstate.row(p), &mut gates, out.row_mut(r));
            stash(r, &gates, &h_row[2 * h..]);
            hstate.row_mut(p).copy_from_slice(out.row(r));
        }
    }
    out
}

/// The batched **training** backend: records autograd nodes over the same
/// packed, length-sorted `[N, d]` layout [`BatchedExec`] uses for
/// inference, on a caller-provided [`Tape`].
///
/// Packed row-wise operations (projections, bias adds, layer norm,
/// convolutions, the whole-sequence LSTM/GRU sweeps) become *one* node for
/// the whole batch. Their forwards are [`BatchedExec`]'s own — the same
/// [`crate::fused`] kernels, per-run helpers and LSTM/GRU sweeps, the
/// sweeps filling a stash of gates and cell states as they go — so `[B, T]`
/// training forwards are serving's forwards, not a copy of them. Only
/// layer norm keeps its own forward loop, which also records the row
/// statistics its backward needs. The backward rule re-derives each
/// **segment's** parameter gradients with the per-sentence formulas on
/// that segment's row slice, emitting them through the tape's
/// [`SegEmitter`](crate::SegEmitter) straight into that segment's
/// [`GradBuffer`](crate::GradBuffer) (one per sentence, through
/// [`Tape::backward_into_segmented`]), bit-identical to the historical
/// one-tape-per-sentence trainer. The backward closures capture the
/// layout as one `(offset, len)` pair per segment, in caller order.
/// Per-segment subgraphs (char compositions, attention cores, decoder
/// losses) run inside [`Exec::scoped`], which records the ordinary
/// per-sentence node chain tagged with the owning segment.
///
/// Three deliberate deviations from naive "replay the oracle" are proven
/// harmless in DESIGN.md ("Batched training"): zero-initialized
/// accumulators and skipped zero-padding adds can flip the sign of a ±0.0
/// gradient, the full-height `dX` GEMMs rely on the kernels'
/// per-output-element accumulation order being height-independent
/// (pinned by `kernels::tests`), and the recurrent weight gradients sum a
/// sentence's per-step products in one reversed-row GEMM
/// ([`kernels::matmul_tn_runs`]) instead of one rank-1 product per step.
pub struct BatchedTapeExec<'t> {
    tape: &'t mut Tape,
    pack: Packing,
    /// `Some(s)` inside an [`Exec::scoped`] call: every operation
    /// delegates to the raw per-sentence tape chain, tagged with segment
    /// `s` for gradient routing.
    scope: Option<usize>,
}

impl<'t> BatchedTapeExec<'t> {
    /// A fresh batched recording backend over `tape` for segments of the
    /// given lengths.
    ///
    /// # Panics
    /// Panics if `lens` is empty or contains a zero length — empty
    /// sentences must be filtered out before packing.
    pub fn new(tape: &'t mut Tape, lens: &[usize]) -> Self {
        BatchedTapeExec { tape, pack: Packing::new(lens, "BatchedTapeExec"), scope: None }
    }

    /// Inverted dropout over the packed rows, one RNG stream per segment:
    /// segment `s` draws exactly the `lenₛ · d` row-major mask values
    /// the per-sentence oracle would draw from `rngs[s]`, so masks — and
    /// therefore every trained float — match the one-tape-per-sentence
    /// trainer. With `p == 0` this is the identity (no node), mirroring
    /// [`Tape::dropout`].
    pub fn dropout_packed(&mut self, a: Var, p: f32, rngs: &mut [impl Rng]) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0,1)");
        if p == 0.0 {
            return a;
        }
        assert_eq!(rngs.len(), self.pack.lens.len(), "one RNG stream per segment");
        let v = self.tape.value(a);
        assert_eq!(v.rows(), self.pack.total, "dropout_packed expects packed token rows");
        let cols = v.cols();
        let keep = 1.0 - p;
        let scale = 1.0 / keep;
        let mut mask: Vec<f32> = Vec::with_capacity(self.pack.total * cols);
        for (s, rng) in rngs.iter_mut().enumerate() {
            let n = self.pack.lens[s] * cols;
            mask.extend((0..n).map(|_| if rng.gen::<f32>() < keep { scale } else { 0.0 }));
        }
        let mut out = v.clone();
        for (o, &m) in out.data_mut().iter_mut().zip(&mask) {
            *o *= m;
        }
        self.tape.custom_in_class(OpClass::Dropout, out, &[a], move |g| {
            let mut ga = g.clone();
            for (o, &m) in ga.data_mut().iter_mut().zip(&mask) {
                *o *= m;
            }
            vec![Some(ga)]
        })
    }

    /// The underlying tape, for per-segment subgraphs that need
    /// `Tape`-only operations (decoder losses, CRF custom nodes). Use
    /// inside [`Exec::scoped`] so the recorded nodes are tagged
    /// with the owning segment; unscoped parameter leaves reached by the
    /// segmented backward panic.
    pub fn tape_mut(&mut self) -> &mut Tape {
        self.tape
    }

    /// Each segment's `(offset, len)` in caller order — the order the
    /// backward closures emit per-segment gradients in.
    fn seg_runs(&self) -> Vec<(usize, usize)> {
        self.pack.offsets.iter().copied().zip(self.pack.lens.iter().copied()).collect()
    }

    /// The parameter behind `p` when `x` is packed token rows outside any
    /// scope — the case the packed nodes record. Anything else (`None`)
    /// takes the per-sentence tape path.
    fn packed_param(&self, x: Var, p: Var) -> Option<ParamId> {
        if self.scope.is_some() || self.tape.value(x).rows() != self.pack.total {
            return None;
        }
        self.tape.param_id_of(p)
    }
}

impl Exec for BatchedTapeExec<'_> {
    type V = Var;

    fn constant(&mut self, value: Tensor) -> Var {
        self.tape.constant(value)
    }

    fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.tape.param(store, id)
    }

    // Packed word-level lookup: one gather node for all segments; the
    // backward emits each segment's `(indices, rows)` scatter exactly as
    // its per-sentence `param_rows` leaf would have sunk it. Scoped (or
    // non-packed) lookups fall through to the plain leaf, which routes by
    // its segment tag — an unscoped non-packed lookup would panic in the
    // segmented backward, by design.
    fn lookup(&mut self, store: &ParamStore, id: ParamId, ids: &[usize]) -> Var {
        if self.scope.is_some() || ids.len() != self.pack.total {
            return self.tape.param_rows(store, id, ids);
        }
        let seg_runs = self.seg_runs();
        let ids_c = ids.to_vec();
        let value = store.value(id).gather_rows(ids);
        self.tape.custom_segmented(OpClass::Embedding, value, &[], move |g, em| {
            for (s, &(off, len)) in seg_runs.iter().enumerate() {
                em.rows(s, id, ids_c[off..off + len].to_vec(), rows_of(g, off, len));
            }
            vec![]
        })
    }

    fn value(&self, v: Var) -> &Tensor {
        self.tape.value(v)
    }

    // A projection of the packed rows by a parameter matrix becomes one
    // packed GEMM node: `dX` is the full-height `g·Wᵀ` (bit-identical per
    // row because the kernels' accumulation order is height-independent),
    // and each segment's `dW = x_sᵀ·g_s` is re-derived on its row slice —
    // the per-sentence formula on the per-sentence bytes.
    fn matmul(&mut self, a: Var, b: Var) -> Var {
        let Some(id) = self.packed_param(a, b) else {
            return Tape::matmul(self.tape, a, b);
        };
        let seg_runs = self.seg_runs();
        let va = self.tape.value(a).clone();
        let vb = self.tape.value(b).clone();
        let out = va.matmul(&vb);
        self.tape.custom_segmented(OpClass::MatMul, out, &[a, b], move |g, em| {
            let (m, n) = (va.cols(), g.cols());
            let dws = tn_per_run(va.data(), g.data(), &seg_runs, m, n, Fold::Forward);
            for (s, dw) in dws.into_iter().enumerate() {
                em.dense(s, id, dw);
            }
            vec![Some(g.matmul_nt(&vb)), None]
        })
    }

    fn transpose(&mut self, a: Var) -> Var {
        Tape::transpose(self.tape, a)
    }

    fn add(&mut self, a: Var, b: Var) -> Var {
        Tape::add(self.tape, a, b)
    }

    fn sub(&mut self, a: Var, b: Var) -> Var {
        Tape::sub(self.tape, a, b)
    }

    fn mul(&mut self, a: Var, b: Var) -> Var {
        Tape::mul(self.tape, a, b)
    }

    fn scale(&mut self, a: Var, s: f32) -> Var {
        Tape::scale(self.tape, a, s)
    }

    // Packed bias add: forward is the eager backend's bias kernel over all
    // packed rows; each segment's `db` is the oracle's zero-init column sum
    // over its own rows, ascending.
    fn add_bias(&mut self, m: Var, bias: Var) -> Var {
        let Some(id) = self.packed_param(m, bias) else {
            return Tape::add_bias(self.tape, m, bias);
        };
        let seg_runs = self.seg_runs();
        let mut out = self.tape.value(m).clone();
        fused::add_bias_in_place(&mut out, self.tape.value(bias));
        self.tape.custom_segmented(OpClass::Elementwise, out, &[m, bias], move |g, em| {
            for (s, &(off, len)) in seg_runs.iter().enumerate() {
                let mut gb = Tensor::zeros(1, g.cols());
                for r in 0..len {
                    let src = g.row(off + r);
                    for (o, &x) in gb.data_mut().iter_mut().zip(src) {
                        *o += x;
                    }
                }
                em.dense(s, id, gb);
            }
            vec![Some(g.clone()), None]
        })
    }

    fn activation(&mut self, a: Var, act: Activation) -> Var {
        match act {
            Activation::None => a,
            Activation::Relu => self.tape.relu(a),
            Activation::Tanh => self.tape.tanh(a),
            Activation::Sigmoid => self.tape.sigmoid(a),
        }
    }

    fn affine_act(&mut self, x: Var, w: Var, b: Var, act: Activation) -> Var {
        let xw = Exec::matmul(self, x, w);
        let lin = Exec::add_bias(self, xw, b);
        Exec::activation(self, lin, act)
    }

    // Packed same-padded convolution: each segment is convolved within its
    // own bounds (windows never straddle a boundary) by the eager backend's
    // per-run kernel; the backward replicates `Tape::conv1d`'s loops —
    // including its `x == 0` sparsity skip — on the segment's rows.
    fn conv1d_act(
        &mut self,
        x: Var,
        w: Var,
        b: Var,
        k: usize,
        dilation: usize,
        act: Activation,
    ) -> Var {
        let (Some(w_id), Some(b_id)) = (self.packed_param(x, w), self.packed_param(x, b)) else {
            return Exec::conv1d_act(&mut *self.tape, x, w, b, k, dilation, act);
        };
        let seg_runs = self.seg_runs();
        let vx = self.tape.value(x).clone();
        let vw = self.tape.value(w).clone();
        let (d_in, d_out) = (vx.cols(), vw.cols());
        let out = per_run(&vx, &self.pack.runs, d_out, |seg| {
            fused::conv1d_act(seg, &vw, self.tape.value(b), k, dilation, Activation::None)
        });
        let half = (k / 2) as isize;

        let total = self.pack.total;
        let conv = self.tape.custom_segmented(OpClass::Conv, out, &[x, w, b], move |g, em| {
            let mut gx = Tensor::zeros(total, d_in);
            for (s, &(off, len)) in seg_runs.iter().enumerate() {
                let mut gw = Tensor::zeros(k * d_in, d_out);
                let mut gb = Tensor::zeros(1, d_out);
                for t in 0..len as isize {
                    let g_row = g.row(off + t as usize);
                    for (o, &gv) in gb.row_mut(0).iter_mut().zip(g_row) {
                        *o += gv;
                    }
                    for j in 0..k as isize {
                        let src = t + (j - half) * dilation as isize;
                        if src < 0 || src >= len as isize {
                            continue;
                        }
                        let x_row = vx.row(off + src as usize);
                        let gx_row_base = off + src as usize;
                        for i in 0..d_in {
                            let w_row = vw.row(j as usize * d_in + i);
                            let gw_row = gw.row_mut(j as usize * d_in + i);
                            let xv = x_row[i];
                            let mut gx_acc = 0.0;
                            for ((&gv, &wv), gw_v) in g_row.iter().zip(w_row).zip(gw_row.iter_mut())
                            {
                                gx_acc += gv * wv;
                                *gw_v += gv * xv;
                            }
                            gx.row_mut(gx_row_base)[i] += gx_acc;
                        }
                    }
                }
                em.dense(s, b_id, gb);
                em.dense(s, w_id, gw);
            }
            vec![Some(gx), None, None]
        });
        Exec::activation(self, conv, act)
    }

    // Packed layer norm: the statistics are per row, so the forward is the
    // oracle's row loop over the packed matrix; `dx` is row-wise too, and
    // each segment's gain/bias sums run over its own rows, ascending.
    fn layer_norm(&mut self, x: Var, gain: Var, bias: Var) -> Var {
        let (Some(gain_id), Some(bias_id)) =
            (self.packed_param(x, gain), self.packed_param(x, bias))
        else {
            return Tape::layer_norm(self.tape, x, gain, bias);
        };
        const EPS: f32 = 1e-5;
        let seg_runs = self.seg_runs();
        let vx = self.tape.value(x).clone();
        let vg = self.tape.value(gain).clone();
        let vb = self.tape.value(bias).clone();
        let (n, d) = vx.shape();
        assert_eq!(vg.shape(), (1, d), "gain must be [1, d]");
        assert_eq!(vb.shape(), (1, d), "bias must be [1, d]");

        let mut xhat = Tensor::zeros(n, d);
        let mut inv_std = vec![0.0f32; n];
        let mut out = Tensor::zeros(n, d);
        for r in 0..n {
            let row = vx.row(r);
            let mu: f32 = row.iter().sum::<f32>() / d as f32;
            let var: f32 = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f32>() / d as f32;
            let istd = 1.0 / (var + EPS).sqrt();
            inv_std[r] = istd;
            for c in 0..d {
                let xh = (row[c] - mu) * istd;
                xhat.set2(r, c, xh);
                out.set2(r, c, vg.at2(0, c) * xh + vb.at2(0, c));
            }
        }

        self.tape.custom_segmented(OpClass::Norm, out, &[x, gain, bias], move |g, em| {
            let mut gx = Tensor::zeros(n, d);
            for (s, &(off, len)) in seg_runs.iter().enumerate() {
                let mut ggain = Tensor::zeros(1, d);
                let mut gbias = Tensor::zeros(1, d);
                for r in off..off + len {
                    let grow = g.row(r);
                    let xhrow = xhat.row(r);
                    let dxhat: Vec<f32> =
                        grow.iter().zip(vg.row(0)).map(|(&gv, &gn)| gv * gn).collect();
                    let mean_dxhat: f32 = dxhat.iter().sum::<f32>() / d as f32;
                    let mean_dxhat_xhat: f32 =
                        dxhat.iter().zip(xhrow).map(|(&a, &b)| a * b).sum::<f32>() / d as f32;
                    let istd = inv_std[r];
                    for c in 0..d {
                        gx.set2(r, c, istd * (dxhat[c] - mean_dxhat - xhrow[c] * mean_dxhat_xhat));
                        ggain.row_mut(0)[c] += grow[c] * xhrow[c];
                        gbias.row_mut(0)[c] += grow[c];
                    }
                }
                em.dense(s, bias_id, gbias);
                em.dense(s, gain_id, ggain);
            }
            vec![Some(gx), None, None]
        })
    }

    fn softmax_rows(&mut self, a: Var) -> Var {
        Tape::softmax_rows(self.tape, a)
    }

    fn max_over_rows(&mut self, a: Var) -> Var {
        Tape::max_over_rows(self.tape, a)
    }

    fn slice_cols(&mut self, a: Var, start: usize, len: usize) -> Var {
        Tape::slice_cols(self.tape, a, start, len)
    }

    fn slice_rows(&mut self, a: Var, start: usize, len: usize) -> Var {
        Tape::slice_rows(self.tape, a, start, len)
    }

    fn row(&mut self, a: Var, i: usize) -> Var {
        Tape::row(self.tape, a, i)
    }

    fn concat_rows(&mut self, parts: &[Var]) -> Var {
        Tape::concat_rows(self.tape, parts)
    }

    fn concat_cols(&mut self, parts: &[Var]) -> Var {
        Tape::concat_cols(self.tape, parts)
    }

    // Per-segment row reversal, forward and backward (no parameters).
    fn reverse_rows(&mut self, a: Var) -> Var {
        if self.scope.is_some() {
            return Tape::reverse_rows(self.tape, a);
        }
        let av = self.tape.value(a);
        let out = reverse_runs(av, self.pack.runs(av.rows(), "reverse_rows"));
        let runs = self.pack.runs.clone();
        let backward = move |g: &Tensor| vec![Some(reverse_runs(g, &runs))];
        self.tape.custom_in_class(OpClass::Shape, out, &[a], backward)
    }

    fn lstm_gates(&mut self, pre: Var, c: Var, hidden: usize) -> (Var, Var) {
        Exec::lstm_gates(&mut *self.tape, pre, c, hidden)
    }

    fn gru_gates(&mut self, xp: Var, hp: Var, h_prev: Var, hidden: usize) -> Var {
        Exec::gru_gates(&mut *self.tape, xp, hp, h_prev, hidden)
    }

    // Each segment restarts its positional clock; encodings are constants,
    // so the packed node is just the per-segment stacks.
    fn positional_encoding(&mut self, n: usize, d: usize) -> Var {
        if self.scope.is_some() {
            return Exec::positional_encoding(&mut *self.tape, n, d);
        }
        let pe = stacked_pe(self.pack.runs(n, "positional_encoding"), n, d, None);
        self.tape.constant(pe)
    }

    // The eager backend's sweep, stashing the post-activation gates, cell
    // states and tanh(c) so the backward is a hand-rolled BPTT over the
    // same packing. The time loop's fold orders mirror the per-sentence tape
    // sweep: `dh` is the output gradient plus the recurrent term, `dc` is
    // the carry (from t+1's `f⊙c` node, visited first) plus the tanh term.
    // The loop keeps every row's `dpre` and runs only the recurrent GEMM
    // per step. After it, each segment's `db` adds its `dpre` rows from
    // t = len-1 down, and `dW_ih`/`dW_hh` are one reversed-row
    // `matmul_tn_runs` per weight — the fold the oracle's per-step `[1, ·]`
    // products add up in (DESIGN.md §4) — and `dX` is one full-height GEMM.
    fn lstm_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b: ParamId,
        hidden: usize,
        xs: Var,
    ) -> Var {
        if self.scope.is_some() {
            return Exec::lstm_sequence(&mut *self.tape, store, w_ih, w_hh, b, hidden, xs);
        }
        let h = hidden;
        let xs_c = self.tape.value(xs).clone();
        let runs = self.pack.runs(xs_c.rows(), "lstm_sequence");
        let (total, d_in) = xs_c.shape();
        let w_ih_v = store.value(w_ih).clone();
        let w_hh_v = store.value(w_hh).clone();
        let mut gates = Tensor::zeros(total, 4 * h); // i | f | g | o, post-activation
        let mut cells = Tensor::zeros(total, h); // c after the update
        let mut cts = Tensor::zeros(total, h); // tanh(c)
        let out = lstm_sweep(&xs_c, &w_ih_v, &w_hh_v, store.value(b), runs, |r, g, c, ct| {
            gates.row_mut(r).copy_from_slice(g);
            cells.row_mut(r).copy_from_slice(c);
            cts.row_mut(r).copy_from_slice(ct);
        });

        let out_c = out.clone();
        let (seg_runs, runs) = (self.seg_runs(), self.pack.runs.clone());
        self.tape.custom_segmented(OpClass::Custom, out, &[xs], move |g, em| {
            let nseg = runs.len();
            // Every packed row's pre-activation gradient, at its own row.
            let mut dpre = Tensor::zeros(total, 4 * h);
            // The live rows of one step, contiguous for the recurrent GEMM.
            let mut step = Tensor::zeros(nseg, 4 * h);
            let mut rec = vec![0.0f32; nseg * h];
            let mut carry = vec![0.0f32; nseg * h];
            for t in (0..runs[0].1).rev() {
                let (live, live_next) = (live_at(&runs, t), live_at(&runs, t + 1));
                for (p, &(off, _)) in runs[..live].iter().enumerate() {
                    let r = off + t;
                    let g_row = g.row(r);
                    let gates_row = gates.row(r);
                    let cts_row = cts.row(r);
                    let dpre_row = step.row_mut(p);
                    for j in 0..h {
                        // dOut first (set by concat), then the t+1
                        // recurrent matmul's contribution.
                        let dh = if p < live_next { g_row[j] + rec[p * h + j] } else { g_row[j] };
                        let o = gates_row[3 * h + j];
                        let ctv = cts_row[j];
                        let do_ = dh * ctv;
                        let dct = dh * o;
                        let dcnew_t = dct * (1.0 - ctv * ctv);
                        // Carry first: t+1's f⊙c node has the later tape
                        // index and is visited before t's tanh.
                        let dc = if p < live_next { carry[p * h + j] + dcnew_t } else { dcnew_t };
                        let i = gates_row[j];
                        let f = gates_row[h + j];
                        let gg = gates_row[2 * h + j];
                        let c_prev = if t > 0 { cells.row(r - 1)[j] } else { 0.0 };
                        let di = dc * gg;
                        let dg = dc * i;
                        let df = dc * c_prev;
                        carry[p * h + j] = dc * f;
                        dpre_row[j] = di * (i * (1.0 - i));
                        dpre_row[h + j] = df * (f * (1.0 - f));
                        dpre_row[2 * h + j] = dg * (1.0 - gg * gg);
                        dpre_row[3 * h + j] = do_ * (o * (1.0 - o));
                    }
                    dpre.row_mut(r).copy_from_slice(dpre_row);
                }
                if t > 0 {
                    let rec = &mut rec[..live * h];
                    rec.fill(0.0);
                    kernels::matmul_nt(
                        &step.data()[..live * 4 * h],
                        w_hh_v.data(),
                        rec,
                        live,
                        4 * h,
                        h,
                    );
                }
            }
            let (dw_ih, dw_hh) = recurrent_weight_grads(&xs_c, &out_c, &dpre, &dpre, &seg_runs);
            for (s, (dwhhs, dwihs)) in dw_hh.into_iter().zip(dw_ih).enumerate() {
                // Oracle sink order: b leaf (latest) first, then w_hh,
                // then w_ih.
                em.dense(s, b, reverse_row_sum(&dpre, seg_runs[s]));
                em.dense(s, w_hh, dwhhs);
                em.dense(s, w_ih, dwihs);
            }
            // dX rows are height-independent: one GEMM over all rows.
            let mut dxs = Tensor::zeros(total, d_in);
            kernels::matmul_nt(dpre.data(), w_ih_v.data(), dxs.data_mut(), total, 4 * h, d_in);
            vec![Some(dxs)]
        })
    }

    // Batched GRU, same contract as `lstm_sequence`. The backward's `dh`
    // folds three terms in oracle order — output gradient (set by concat),
    // then t+1's `z⊙h` product (later tape index, visited first), then
    // t+1's recurrent matmul — and `dz`/`dn` reproduce the `set-then-add`
    // order of the gate chain's mul/sub nodes.
    fn gru_sequence(
        &mut self,
        store: &ParamStore,
        w_ih: ParamId,
        w_hh: ParamId,
        b_ih: ParamId,
        b_hh: ParamId,
        hidden: usize,
        xs: Var,
    ) -> Var {
        if self.scope.is_some() {
            return Exec::gru_sequence(&mut *self.tape, store, w_ih, w_hh, b_ih, b_hh, hidden, xs);
        }
        let h = hidden;
        let xs_c = self.tape.value(xs).clone();
        let runs = self.pack.runs(xs_c.rows(), "gru_sequence");
        let (total, d_in) = xs_c.shape();
        let w_ih_v = store.value(w_ih).clone();
        let w_hh_v = store.value(w_hh).clone();
        let (b_ih_v, b_hh_v) = (store.value(b_ih), store.value(b_hh));
        let mut gates = Tensor::zeros(total, 3 * h); // z | r | n, post-activation
        let mut hns = Tensor::zeros(total, h); // recurrent n-projection, post-bias
        let out = gru_sweep(&xs_c, &w_ih_v, &w_hh_v, b_ih_v, b_hh_v, runs, |r, g, hn| {
            gates.row_mut(r).copy_from_slice(g);
            hns.row_mut(r).copy_from_slice(hn);
        });

        let out_c = out.clone();
        let (seg_runs, runs) = (self.seg_runs(), self.pack.runs.clone());
        self.tape.custom_segmented(OpClass::Custom, out, &[xs], move |g, em| {
            let nseg = runs.len();
            // Every packed row's gradients w.r.t. the recurrent and input
            // projections (post-bias), at its own row.
            let mut dhp = Tensor::zeros(total, 3 * h);
            let mut dxp = Tensor::zeros(total, 3 * h);
            // The live `dhp` rows of one step, contiguous for the
            // recurrent GEMM.
            let mut step = Tensor::zeros(nseg, 3 * h);
            let mut zh_term = vec![0.0f32; nseg * h];
            let mut mat_term = vec![0.0f32; nseg * h];
            for t in (0..runs[0].1).rev() {
                let (live, live_next) = (live_at(&runs, t), live_at(&runs, t + 1));
                for (p, &(off, _)) in runs[..live].iter().enumerate() {
                    let r = off + t;
                    let g_row = g.row(r);
                    let gates_row = gates.row(r);
                    let hns_row = hns.row(r);
                    let dhp_row = step.row_mut(p);
                    let dxp_row = dxp.row_mut(r);
                    for j in 0..h {
                        let dh = if p < live_next {
                            (g_row[j] + zh_term[p * h + j]) + mat_term[p * h + j]
                        } else {
                            g_row[j]
                        };
                        let z = gates_row[j];
                        let r_ = gates_row[h + j];
                        let n = gates_row[2 * h + j];
                        let h_prev = if t > 0 { out_c.row(r - 1)[j] } else { 0.0 };
                        let dzn = -dh;
                        // z⊙h (later node) sets, z⊙n adds.
                        let dz = dh * h_prev + dzn * n;
                        // The sub node sets, z⊙n adds.
                        let dn = dh + dzn * z;
                        let dn_pre = dn * (1.0 - n * n);
                        let drhn = dn_pre;
                        let hn = hns_row[j];
                        let dr = drhn * hn;
                        let dhn = drhn * r_;
                        let dr_pre = dr * (r_ * (1.0 - r_));
                        let dz_pre = dz * (z * (1.0 - z));
                        dhp_row[j] = dz_pre;
                        dhp_row[h + j] = dr_pre;
                        dhp_row[2 * h + j] = dhn;
                        dxp_row[j] = dz_pre;
                        dxp_row[h + j] = dr_pre;
                        dxp_row[2 * h + j] = dn_pre;
                        zh_term[p * h + j] = dh * z;
                    }
                    dhp.row_mut(r).copy_from_slice(dhp_row);
                }
                if t > 0 {
                    let mt = &mut mat_term[..live * h];
                    mt.fill(0.0);
                    kernels::matmul_nt(
                        &step.data()[..live * 3 * h],
                        w_hh_v.data(),
                        mt,
                        live,
                        3 * h,
                        h,
                    );
                }
            }
            let (dw_ih, dw_hh) = recurrent_weight_grads(&xs_c, &out_c, &dxp, &dhp, &seg_runs);
            for (s, (dwhhs, dwihs)) in dw_hh.into_iter().zip(dw_ih).enumerate() {
                // Oracle sink order: b_hh, b_ih, w_hh, w_ih.
                em.dense(s, b_hh, reverse_row_sum(&dhp, seg_runs[s]));
                em.dense(s, b_ih, reverse_row_sum(&dxp, seg_runs[s]));
                em.dense(s, w_hh, dwhhs);
                em.dense(s, w_ih, dwihs);
            }
            let mut dxs = Tensor::zeros(total, d_in);
            kernels::matmul_nt(dxp.data(), w_ih_v.data(), dxs.data_mut(), total, 3 * h, d_in);
            vec![Some(dxs)]
        })
    }

    fn segments(&self) -> usize {
        self.pack.lens.len()
    }

    fn slice_segment(&mut self, v: Var, s: usize) -> Var {
        let (off, len) = (self.pack.offsets[s], self.pack.lens[s]);
        Tape::slice_rows(self.tape, v, off, len)
    }

    fn concat_segments(&mut self, parts: &[Var]) -> Var {
        Tape::concat_rows(self.tape, parts)
    }

    fn scoped<R>(&mut self, s: usize, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.scope;
        self.scope = Some(s);
        self.tape.set_segment(Some(s));
        let out = f(self);
        self.scope = prev;
        self.tape.set_segment(prev);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill so tests need no RNG plumbing.
    fn filled(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut t = Tensor::zeros(rows, cols);
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        for v in t.data_mut() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *v = ((s >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
        }
        t
    }

    fn pack(store: &ParamStore, lens: &[usize], d: usize, seed: u64) -> (Tensor, Vec<Tensor>) {
        let _ = store;
        let total: usize = lens.iter().sum();
        let packed = filled(total, d, seed);
        let mut segs = Vec::new();
        let mut off = 0;
        for &l in lens {
            let mut seg = Tensor::zeros(l, d);
            for r in 0..l {
                seg.row_mut(r).copy_from_slice(packed.row(off + r));
            }
            segs.push(seg);
            off += l;
        }
        (packed, segs)
    }

    fn assert_bits_eq(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "element {i}: {x} vs {y}");
        }
    }

    const LENS: &[usize] = &[5, 1, 3, 5, 2];

    #[test]
    fn batched_lstm_rows_are_bit_identical_to_per_segment_tape() {
        let h = 7;
        let d = 4;
        let mut store = ParamStore::default();
        let w_ih = store.register("w_ih", filled(d, 4 * h, 1));
        let w_hh = store.register("w_hh", filled(h, 4 * h, 2));
        let b = store.register("b", filled(1, 4 * h, 3));
        let (packed, segs) = pack(&store, LENS, d, 9);

        let mut bx = BatchedExec::new(&store, LENS);
        let xs = bx.constant(packed);
        let out = bx.lstm_sequence(&store, w_ih, w_hh, b, h, xs);
        let batched = bx.value(out).clone();

        let mut off = 0;
        for seg in &segs {
            let mut tape = Tape::new();
            let xs = Tape::constant(&mut tape, seg.clone());
            let out = Exec::lstm_sequence(&mut tape, &store, w_ih, w_hh, b, h, xs);
            let want = Tape::value(&tape, out);
            for r in 0..seg.rows() {
                assert_bits_eq(batched.row(off + r), want.row(r));
            }
            off += seg.rows();
        }
    }

    #[test]
    fn batched_gru_rows_are_bit_identical_to_per_segment_tape() {
        let h = 6;
        let d = 5;
        let mut store = ParamStore::default();
        let w_ih = store.register("w_ih", filled(d, 3 * h, 4));
        let w_hh = store.register("w_hh", filled(h, 3 * h, 5));
        let b_ih = store.register("b_ih", filled(1, 3 * h, 6));
        let b_hh = store.register("b_hh", filled(1, 3 * h, 7));
        let (packed, segs) = pack(&store, LENS, d, 11);

        let mut bx = BatchedExec::new(&store, LENS);
        let xs = bx.constant(packed);
        let out = bx.gru_sequence(&store, w_ih, w_hh, b_ih, b_hh, h, xs);
        let batched = bx.value(out).clone();

        let mut off = 0;
        for seg in &segs {
            let mut tape = Tape::new();
            let xs = Tape::constant(&mut tape, seg.clone());
            let out = Exec::gru_sequence(&mut tape, &store, w_ih, w_hh, b_ih, b_hh, h, xs);
            let want = Tape::value(&tape, out);
            for r in 0..seg.rows() {
                assert_bits_eq(batched.row(off + r), want.row(r));
            }
            off += seg.rows();
        }
    }

    #[test]
    fn batched_conv_and_reverse_respect_segment_boundaries() {
        let d = 4;
        let dout = 3;
        let k = 3;
        let mut store = ParamStore::default();
        let w = store.register("w", filled(k * d, dout, 8));
        let b = store.register("b", filled(1, dout, 9));
        let (packed, segs) = pack(&store, LENS, d, 13);

        let mut bx = BatchedExec::new(&store, LENS);
        let xs = bx.constant(packed);
        let (wv, bv) = (bx.param(&store, w), bx.param(&store, b));
        let conv = bx.conv1d_act(xs, wv, bv, k, 1, Activation::Relu);
        let rev = bx.reverse_rows(xs);
        let conv_t = bx.value(conv).clone();
        let rev_t = bx.value(rev).clone();

        let mut off = 0;
        for seg in &segs {
            let mut tape = Tape::new();
            let xs = Tape::constant(&mut tape, seg.clone());
            let (wv, bv) = (Tape::param(&mut tape, &store, w), Tape::param(&mut tape, &store, b));
            let conv = Exec::conv1d_act(&mut tape, xs, wv, bv, k, 1, Activation::Relu);
            let rev = Tape::reverse_rows(&mut tape, xs);
            for r in 0..seg.rows() {
                assert_bits_eq(conv_t.row(off + r), tape.value(conv).row(r));
                assert_bits_eq(rev_t.row(off + r), tape.value(rev).row(r));
            }
            off += seg.rows();
        }
    }

    #[test]
    fn batched_positional_encoding_restarts_per_segment() {
        let d = 8;
        let store = ParamStore::default();
        let cache = PeCache::new();
        for with_cache in [false, true] {
            let mut bx = BatchedExec::new(&store, LENS);
            if with_cache {
                bx = bx.with_pe_cache(&cache);
            }
            let total = LENS.iter().sum();
            let pe = bx.positional_encoding(total, d);
            let pe_t = bx.value(pe).clone();
            let mut off = 0;
            for &l in LENS {
                let want = crate::nn::positional_encoding(l, d);
                for r in 0..l {
                    assert_bits_eq(pe_t.row(off + r), want.row(r));
                }
                off += l;
            }
        }
    }

    /// A batch of one and a scoped per-segment value both sweep their rows
    /// as a single run: each must reproduce the tape's per-step chain.
    #[test]
    fn single_run_lstm_matches_tape_unscoped_and_scoped() {
        let h = 4;
        let d = 3;
        let mut store = ParamStore::default();
        let w_ih = store.register("w_ih", filled(d, 4 * h, 1));
        let w_hh = store.register("w_hh", filled(h, 4 * h, 2));
        let b = store.register("b", filled(1, 4 * h, 3));
        let x = filled(6, d, 21);

        let mut tape = Tape::new();
        let xs = Tape::constant(&mut tape, x.clone());
        let out = Exec::lstm_sequence(&mut tape, &store, w_ih, w_hh, b, h, xs);
        let want = tape.value(out).clone();

        let mut bx = BatchedExec::new(&store, &[6]);
        let xs = bx.constant(x.clone());
        let out = bx.lstm_sequence(&store, w_ih, w_hh, b, h, xs);
        assert_bits_eq(bx.value(out).data(), want.data());

        // Inside a scope of a multi-segment batch the 6-row value is not
        // packed token rows; it must still run as one sequence.
        let mut bx = BatchedExec::new(&store, &[2, 3]);
        let got = bx.scoped(1, |ex| {
            let xs = ex.constant(x);
            let out = ex.lstm_sequence(&store, w_ih, w_hh, b, h, xs);
            ex.value(out).clone()
        });
        assert_bits_eq(got.data(), want.data());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_length_segments_are_rejected() {
        let store = ParamStore::default();
        let _ = BatchedExec::new(&store, &[3, 0, 2]);
    }

    #[test]
    fn slice_segment_recovers_caller_order_rows() {
        let store = ParamStore::default();
        let lens = [2usize, 4, 1];
        let (packed, segs) = pack(&store, &lens, 3, 17);
        let mut bx = BatchedExec::new(&store, &lens);
        let xs = bx.constant(packed);
        for (s, seg) in segs.iter().enumerate() {
            let sl = bx.slice_segment(xs, s);
            assert_bits_eq(bx.value(sl).data(), seg.data());
        }
    }
    // ---- BatchedTapeExec: packed autograd vs the per-sentence oracle ----

    use crate::GradBuffer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Gradient comparison under the ±0 license: bit-identical except that
    /// +0.0 and −0.0 are interchangeable (zero-sign differences cannot
    /// reach the weights through clipping or any optimizer — DESIGN.md
    /// "Batched training").
    fn assert_grads_eq(name: &str, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "{name}: gradient length");
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x == 0.0 && y == 0.0),
                "{name} element {i}: oracle {x} ({:#010x}) vs packed {y} ({:#010x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    /// The historical trainer: one tape and one [`GradBuffer`] per
    /// sentence, loss = sum of the graph's output, buffers applied to a
    /// fresh store clone in caller order. Returns each sentence's forward
    /// output and that store.
    fn run_oracle(
        store: &ParamStore,
        segs: &[Tensor],
        build: impl Fn(&mut Tape, usize, Var) -> Var,
    ) -> (Vec<Tensor>, ParamStore) {
        let mut oracle = store.clone();
        let mut outs = Vec::new();
        for (s, seg) in segs.iter().enumerate() {
            let mut t = Tape::default();
            let xs = t.constant(seg.clone());
            let out = build(&mut t, s, xs);
            outs.push(t.value(out).clone());
            let loss = t.sum(out);
            let mut buf = GradBuffer::new(store.len());
            t.backward_into(loss, &mut buf);
            buf.apply_to(&mut oracle);
        }
        (outs, oracle)
    }

    /// The batched trainer: one packed tape, per-segment sums folded left
    /// into one scalar loss, one segmented backward into per-segment
    /// buffers, applied to a fresh store clone in caller order. Returns the
    /// packed forward output and that store.
    fn run_packed(
        store: &ParamStore,
        lens: &[usize],
        build: impl FnOnce(&mut BatchedTapeExec<'_>) -> Var,
    ) -> (Tensor, ParamStore) {
        let mut tape = Tape::default();
        let (out, loss) = {
            let mut bx = BatchedTapeExec::new(&mut tape, lens);
            let out = build(&mut bx);
            let mut total = None;
            for s in 0..lens.len() {
                let hs = bx.slice_segment(out, s);
                let ls = bx.scoped(s, |ex| {
                    let t = ex.tape_mut();
                    t.sum(hs)
                });
                total = Some(match total {
                    None => ls,
                    Some(acc) => Exec::add(&mut bx, acc, ls),
                });
            }
            (bx.value(out).clone(), total.expect("at least one segment"))
        };
        let mut buffers: Vec<GradBuffer> =
            (0..lens.len()).map(|_| GradBuffer::new(store.len())).collect();
        tape.backward_into_segmented(loss, &mut buffers);
        let mut got = store.clone();
        for buf in buffers {
            buf.apply_to(&mut got);
        }
        (out, got)
    }

    /// The packed forward must reproduce every sentence's oracle rows bit
    /// for bit, and the gradients must match under the ±0 license.
    fn compare_runs(
        store: &ParamStore,
        oracle: &(Vec<Tensor>, ParamStore),
        got: &(Tensor, ParamStore),
    ) {
        let (want, packed) = (&oracle.0, &got.0);
        let mut off = 0;
        for seg in want {
            assert_bits_eq(&packed.data()[off * seg.cols()..][..seg.data().len()], seg.data());
            off += seg.rows();
        }
        assert_eq!(off, packed.rows(), "packed forward row count");
        for id in store.ids() {
            assert_grads_eq(store.name(id), oracle.1.grad(id).data(), got.1.grad(id).data());
        }
    }

    #[test]
    fn packed_tape_affine_grads_match_oracle() {
        let (d, dout) = (4, 6);
        let mut store = ParamStore::default();
        let w = store.register("w", filled(d, dout, 31));
        let b = store.register("b", filled(1, dout, 32));
        let (packed, segs) = pack(&store, LENS, d, 101);
        let oracle = run_oracle(&store, &segs, |t, _, xs| {
            let wv = Exec::param(t, &store, w);
            let bv = Exec::param(t, &store, b);
            Exec::affine_act(t, xs, wv, bv, Activation::Tanh)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            let wv = Exec::param(bx, &store, w);
            let bv = Exec::param(bx, &store, b);
            Exec::affine_act(bx, xs, wv, bv, Activation::Tanh)
        });
        compare_runs(&store, &oracle, &got);
    }

    #[test]
    fn packed_tape_conv_grads_match_oracle() {
        let (d, dout, k) = (3, 5, 3);
        for dilation in [1usize, 2] {
            let mut store = ParamStore::default();
            let w = store.register("w", filled(k * d, dout, 33));
            let b = store.register("b", filled(1, dout, 34));
            let (packed, segs) = pack(&store, LENS, d, 103);
            let oracle = run_oracle(&store, &segs, |t, _, xs| {
                let wv = Exec::param(t, &store, w);
                let bv = Exec::param(t, &store, b);
                Exec::conv1d_act(t, xs, wv, bv, k, dilation, Activation::Relu)
            });
            let got = run_packed(&store, LENS, |bx| {
                let xs = bx.constant(packed.clone());
                let wv = Exec::param(bx, &store, w);
                let bv = Exec::param(bx, &store, b);
                Exec::conv1d_act(bx, xs, wv, bv, k, dilation, Activation::Relu)
            });
            compare_runs(&store, &oracle, &got);
        }
    }

    #[test]
    fn packed_tape_layer_norm_grads_match_oracle() {
        let d = 6;
        let mut store = ParamStore::default();
        let gain = store.register("gain", filled(1, d, 35));
        let bias = store.register("bias", filled(1, d, 36));
        let (packed, segs) = pack(&store, LENS, d, 105);
        let oracle = run_oracle(&store, &segs, |t, _, xs| {
            let gv = Exec::param(t, &store, gain);
            let bv = Exec::param(t, &store, bias);
            Exec::layer_norm(t, xs, gv, bv)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            let gv = Exec::param(bx, &store, gain);
            let bv = Exec::param(bx, &store, bias);
            Exec::layer_norm(bx, xs, gv, bv)
        });
        compare_runs(&store, &oracle, &got);
    }

    #[test]
    fn packed_tape_bilstm_composite_grads_match_oracle() {
        // The real BiLSTM shape: forward LSTM ‖ time-reversed LSTM,
        // concatenated and projected — exercises reverse_rows, both packed
        // sequence nodes, concat_cols and the packed projection together.
        let (d, h, dout) = (4, 5, 3);
        let mut store = ParamStore::default();
        let fw_ih = store.register("f.w_ih", filled(d, 4 * h, 41));
        let fw_hh = store.register("f.w_hh", filled(h, 4 * h, 42));
        let fb = store.register("f.b", filled(1, 4 * h, 43));
        let rw_ih = store.register("r.w_ih", filled(d, 4 * h, 44));
        let rw_hh = store.register("r.w_hh", filled(h, 4 * h, 45));
        let rb = store.register("r.b", filled(1, 4 * h, 46));
        let w = store.register("proj.w", filled(2 * h, dout, 47));
        let b = store.register("proj.b", filled(1, dout, 48));
        let (packed, segs) = pack(&store, LENS, d, 107);
        let oracle = run_oracle(&store, &segs, |t, _, xs| {
            let fwd = Exec::lstm_sequence(t, &store, fw_ih, fw_hh, fb, h, xs);
            let xr = Exec::reverse_rows(t, xs);
            let bwd_r = Exec::lstm_sequence(t, &store, rw_ih, rw_hh, rb, h, xr);
            let bwd = Exec::reverse_rows(t, bwd_r);
            let cat = Exec::concat_cols(t, &[fwd, bwd]);
            let wv = Exec::param(t, &store, w);
            let bv = Exec::param(t, &store, b);
            Exec::affine_act(t, cat, wv, bv, Activation::None)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            let fwd = Exec::lstm_sequence(bx, &store, fw_ih, fw_hh, fb, h, xs);
            let xr = Exec::reverse_rows(bx, xs);
            let bwd_r = Exec::lstm_sequence(bx, &store, rw_ih, rw_hh, rb, h, xr);
            let bwd = Exec::reverse_rows(bx, bwd_r);
            let cat = Exec::concat_cols(bx, &[fwd, bwd]);
            let wv = Exec::param(bx, &store, w);
            let bv = Exec::param(bx, &store, b);
            Exec::affine_act(bx, cat, wv, bv, Activation::None)
        });
        compare_runs(&store, &oracle, &got);
    }

    #[test]
    fn packed_tape_gru_grads_match_oracle() {
        let (d, h) = (5, 6);
        let mut store = ParamStore::default();
        let w_ih = store.register("w_ih", filled(d, 3 * h, 51));
        let w_hh = store.register("w_hh", filled(h, 3 * h, 52));
        let b_ih = store.register("b_ih", filled(1, 3 * h, 53));
        let b_hh = store.register("b_hh", filled(1, 3 * h, 54));
        let (packed, segs) = pack(&store, LENS, d, 109);
        let oracle = run_oracle(&store, &segs, |t, _, xs| {
            Exec::gru_sequence(t, &store, w_ih, w_hh, b_ih, b_hh, h, xs)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            Exec::gru_sequence(bx, &store, w_ih, w_hh, b_ih, b_hh, h, xs)
        });
        compare_runs(&store, &oracle, &got);
    }

    #[test]
    fn packed_tape_handles_odd_length_mixes() {
        // Single-sentence buckets, all-equal lengths, a dominant long
        // sentence on either side — the packed paths must not stand down
        // even when one segment makes the packing trivial.
        let (d, h) = (3, 4);
        let mut store = ParamStore::default();
        let w_ih = store.register("w_ih", filled(d, 4 * h, 55));
        let w_hh = store.register("w_hh", filled(h, 4 * h, 56));
        let b = store.register("b", filled(1, 4 * h, 57));
        for lens in
            [&[4usize][..], &[1][..], &[3, 3, 3][..], &[1, 1, 1, 1][..], &[7, 1][..], &[1, 7][..]]
        {
            let (packed, segs) = pack(&store, lens, d, 111);
            let oracle = run_oracle(&store, &segs, |t, _, xs| {
                Exec::lstm_sequence(t, &store, w_ih, w_hh, b, h, xs)
            });
            let got = run_packed(&store, lens, |bx| {
                let xs = bx.constant(packed.clone());
                Exec::lstm_sequence(bx, &store, w_ih, w_hh, b, h, xs)
            });
            compare_runs(&store, &oracle, &got);
        }
    }

    #[test]
    fn packed_tape_lookup_grads_match_oracle() {
        let (vocab, d, dout) = (13, 5, 3);
        let mut store = ParamStore::default();
        let emb = store.register("emb", filled(vocab, d, 61));
        let w = store.register("w", filled(d, dout, 62));
        let b = store.register("b", filled(1, dout, 63));
        let total: usize = LENS.iter().sum();
        // Deliberately repeat ids across segments so scatter rows collide.
        let ids: Vec<usize> = (0..total).map(|i| (i * 7 + 3) % vocab).collect();

        let mut oracle = (Vec::new(), store.clone());
        let mut off = 0;
        for &l in LENS {
            let mut t = Tape::default();
            let x = Exec::lookup(&mut t, &store, emb, &ids[off..off + l]);
            let wv = Exec::param(&mut t, &store, w);
            let bv = Exec::param(&mut t, &store, b);
            let a = Exec::affine_act(&mut t, x, wv, bv, Activation::Tanh);
            oracle.0.push(t.value(a).clone());
            let loss = t.sum(a);
            let mut buf = GradBuffer::new(store.len());
            t.backward_into(loss, &mut buf);
            buf.apply_to(&mut oracle.1);
            off += l;
        }

        let got = run_packed(&store, LENS, |bx| {
            let x = Exec::lookup(bx, &store, emb, &ids);
            let wv = Exec::param(bx, &store, w);
            let bv = Exec::param(bx, &store, b);
            Exec::affine_act(bx, x, wv, bv, Activation::Tanh)
        });
        compare_runs(&store, &oracle, &got);
    }

    #[test]
    fn packed_tape_dropout_reproduces_per_sentence_masks() {
        let (d, dout, p) = (4, 3, 0.4);
        let mut store = ParamStore::default();
        let w = store.register("w", filled(d, dout, 65));
        let b = store.register("b", filled(1, dout, 66));
        let (packed, segs) = pack(&store, LENS, d, 113);
        let oracle = run_oracle(&store, &segs, |t, s, xs| {
            let mut rng = StdRng::seed_from_u64(900 + s as u64);
            let dx = t.dropout(xs, p, &mut rng);
            let wv = Exec::param(t, &store, w);
            let bv = Exec::param(t, &store, b);
            Exec::affine_act(t, dx, wv, bv, Activation::Tanh)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            let mut rngs: Vec<StdRng> =
                (0..LENS.len()).map(|s| StdRng::seed_from_u64(900 + s as u64)).collect();
            let dx = bx.dropout_packed(xs, p, &mut rngs);
            let wv = Exec::param(bx, &store, w);
            let bv = Exec::param(bx, &store, b);
            Exec::affine_act(bx, dx, wv, bv, Activation::Tanh)
        });
        compare_runs(&store, &oracle, &got);
    }

    #[test]
    fn scoped_per_segment_params_route_to_owning_buffer() {
        // Per-segment subgraphs (the decoder-loss shape): parameters leased
        // *inside* `scoped` must sink to the owning segment's buffer.
        let (d, dout) = (4, 3);
        let mut store = ParamStore::default();
        let w = store.register("w", filled(d, dout, 71));
        let b = store.register("b", filled(1, dout, 72));
        let (packed, segs) = pack(&store, LENS, d, 115);
        let oracle = run_oracle(&store, &segs, |t, _, xs| {
            let wv = Exec::param(t, &store, w);
            let bv = Exec::param(t, &store, b);
            Exec::affine_act(t, xs, wv, bv, Activation::Sigmoid)
        });
        let got = run_packed(&store, LENS, |bx| {
            let xs = bx.constant(packed.clone());
            let mut parts = Vec::new();
            for s in 0..LENS.len() {
                let hs = bx.slice_segment(xs, s);
                let os = bx.scoped(s, |ex| {
                    let wv = Exec::param(ex, &store, w);
                    let bv = Exec::param(ex, &store, b);
                    Exec::affine_act(ex, hs, wv, bv, Activation::Sigmoid)
                });
                parts.push(os);
            }
            Exec::concat_rows(bx, &parts)
        });
        compare_runs(&store, &oracle, &got);
    }

    #[test]
    fn gemm_rows_are_height_independent() {
        // The packed backward relies on `matmul` / `matmul_nt` computing
        // each output row identically whatever the GEMM height: slicing
        // rows off the left operand must reproduce the full product's rows
        // bit for bit, at both small and kernel-threshold-crossing sizes.
        for (rows, inner, cols) in [(15usize, 24usize, 40usize), (130, 48, 64)] {
            let a = filled(rows, inner, 7);
            let b = filled(inner, cols, 8);
            let bt = filled(cols, inner, 9);
            let full = a.matmul(&b);
            let full_nt = a.matmul_nt(&bt);
            for (off, len) in [(0usize, 1usize), (3, 5), (rows - 1, 1), (2, rows / 2)] {
                let sl = rows_of(&a, off, len);
                let got = sl.matmul(&b);
                let got_nt = sl.matmul_nt(&bt);
                for r in 0..len {
                    assert_bits_eq(got.row(r), full.row(off + r));
                    assert_bits_eq(got_nt.row(r), full_nt.row(off + r));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unscoped parameter leaf")]
    fn unscoped_param_leaf_panics_in_segmented_backward() {
        let mut store = ParamStore::default();
        let w = store.register("w", filled(3, 3, 81));
        let mut tape = Tape::default();
        let x = tape.constant(filled(2, 3, 82));
        let wv = tape.param(&store, w); // unscoped on purpose
        let y = Tape::matmul(&mut tape, x, wv);
        let loss = tape.sum(y);
        let mut buffers = vec![GradBuffer::new(store.len())];
        tape.backward_into_segmented(loss, &mut buffers);
    }
}
