use crate::{ParamId, ParamStore, Tensor};

/// Handle to a node in a [`Tape`]. Cheap to copy; only valid for the tape
/// that produced it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Where a leaf node's gradient should be delivered after backpropagation.
enum Sink {
    /// Whole-tensor gradient for a parameter.
    Param(ParamId),
    /// Row-scattered gradient for an embedding lookup: row `i` of the node's
    /// gradient is added into row `indices[i]` of the parameter's gradient.
    ParamRows(ParamId, Vec<usize>),
}

/// Backward rule: given the gradient flowing into a node's output, produce
/// the gradient contribution for each parent (aligned with the node's parent
/// list; `None` means "no gradient to this parent"). Packed multi-segment
/// nodes also emit per-segment parameter gradients through the
/// [`SegEmitter`]; every other rule ignores it.
type BackFn = Box<dyn Fn(&Tensor, &mut SegEmitter<'_>) -> Vec<Option<Tensor>>>;

/// Segment tag meaning "owned by no packing segment".
const SEG_NONE: u32 = u32::MAX;

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    parents: Vec<usize>,
    backward: Option<BackFn>,
    sink: Option<Sink>,
    /// Packing segment that owns this node's parameter sink (`SEG_NONE` for
    /// shared/packed nodes). Assigned from [`Tape::cur_seg`] on push.
    seg: u32,
}

/// The gradient sinks of one reverse sweep, one per packing segment.
///
/// Packed nodes emit each segment's parameter-gradient contribution
/// through [`SegEmitter::dense`] / [`SegEmitter::rows`]; parameter leaves
/// deliver theirs when the sweep reaches them. Either way the contribution
/// is accumulated into its segment's sink at once, so sink `s` receives
/// exactly segment `s`'s contributions in sweep order — the order the
/// per-sentence oracle folds them in.
pub struct SegEmitter<'a> {
    sinks: Vec<&'a mut dyn GradSink>,
    /// True for [`Tape::backward_into_segmented`]: leaves route by their
    /// segment tag and an unscoped leaf panics. The plain sweep sends every
    /// leaf to its one sink.
    segmented: bool,
}

impl SegEmitter<'_> {
    /// Accumulates a whole-tensor gradient contribution for `id` on
    /// segment `seg`.
    pub fn dense(&mut self, seg: usize, id: ParamId, delta: Tensor) {
        self.sinks[seg].accumulate_owned(id, delta);
    }

    /// Accumulates a row-scattered embedding gradient for `id` on segment
    /// `seg`: row `i` of `delta` lands in table row `indices[i]`.
    pub fn rows(&mut self, seg: usize, id: ParamId, indices: Vec<usize>, delta: Tensor) {
        self.sinks[seg].accumulate_rows_owned(id, indices, delta);
    }

    /// The sink a leaf tagged `seg` delivers to.
    fn leaf(&mut self, seg: u32, kind: &str) -> &mut dyn GradSink {
        if !self.segmented {
            return &mut *self.sinks[0];
        }
        assert_ne!(seg, SEG_NONE, "segmented backward reached an unscoped {kind} leaf");
        &mut *self.sinks[seg as usize]
    }
}

/// Coarse classes of tape operations, counted per tape so observability
/// layers can report where graph nodes come from without any per-op
/// bookkeeping beyond one array increment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// Constant leaves.
    Constant,
    /// Whole-parameter leaves.
    Param,
    /// Embedding-lookup (row-gather) leaves.
    Embedding,
    /// Matrix products and transposes.
    MatMul,
    /// Pointwise arithmetic and activations.
    Elementwise,
    /// Reductions (sums, means, norms).
    Reduce,
    /// Softmax-family ops.
    Softmax,
    /// Convolutions.
    Conv,
    /// Normalization layers.
    Norm,
    /// Dropout.
    Dropout,
    /// Reshapes, concatenations, slicing.
    Shape,
    /// Loss heads.
    Loss,
    /// External custom ops (e.g. the CRF forward–backward in `ner-core`).
    Custom,
}

impl OpClass {
    /// Every class, in counter order.
    pub const ALL: [OpClass; 13] = [
        OpClass::Constant,
        OpClass::Param,
        OpClass::Embedding,
        OpClass::MatMul,
        OpClass::Elementwise,
        OpClass::Reduce,
        OpClass::Softmax,
        OpClass::Conv,
        OpClass::Norm,
        OpClass::Dropout,
        OpClass::Shape,
        OpClass::Loss,
        OpClass::Custom,
    ];

    /// Stable lowercase metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Constant => "constant",
            OpClass::Param => "param",
            OpClass::Embedding => "embedding",
            OpClass::MatMul => "matmul",
            OpClass::Elementwise => "elementwise",
            OpClass::Reduce => "reduce",
            OpClass::Softmax => "softmax",
            OpClass::Conv => "conv",
            OpClass::Norm => "norm",
            OpClass::Dropout => "dropout",
            OpClass::Shape => "shape",
            OpClass::Loss => "loss",
            OpClass::Custom => "custom",
        }
    }
}

/// A destination for parameter gradients produced by
/// [`Tape::backward_into`].
///
/// [`ParamStore`] is the direct sink (gradients land on the parameters);
/// [`GradBuffer`] is the deferred sink used by data-parallel training,
/// where worker threads each backpropagate into a private buffer and the
/// coordinator merges buffers into the store in a deterministic order.
pub trait GradSink {
    /// Adds `delta` into the gradient of parameter `id`.
    fn accumulate(&mut self, id: ParamId, delta: &Tensor);

    /// Scatter-adds row `i` of `delta` into gradient row `indices[i]` of
    /// parameter `id` (embedding lookups).
    fn accumulate_rows(&mut self, id: ParamId, indices: &[usize], delta: &Tensor);

    /// [`GradSink::accumulate`] for a contribution the caller no longer
    /// needs, so a sink that stores it can move it in rather than copy it.
    /// The default borrows.
    fn accumulate_owned(&mut self, id: ParamId, delta: Tensor) {
        self.accumulate(id, &delta);
    }

    /// [`GradSink::accumulate_rows`] by value; the default borrows.
    fn accumulate_rows_owned(&mut self, id: ParamId, indices: Vec<usize>, delta: Tensor) {
        self.accumulate_rows(id, &indices, &delta);
    }
}

impl GradSink for ParamStore {
    fn accumulate(&mut self, id: ParamId, delta: &Tensor) {
        self.accumulate_grad(id, delta);
    }

    fn accumulate_rows(&mut self, id: ParamId, indices: &[usize], delta: &Tensor) {
        self.accumulate_grad_rows(id, indices, delta);
    }
}

/// A store-detached gradient accumulator.
///
/// Holds dense whole-parameter gradients plus *sparse* embedding-row
/// updates (so a worker never materializes a vocabulary-sized gradient
/// table for the handful of rows one sentence touches). Merging into a
/// [`ParamStore`] via [`GradBuffer::apply_to`] visits dense slots in
/// ascending parameter order and sparse updates in insertion order, so a
/// fixed merge sequence of buffers reproduces the same floats every run —
/// the determinism contract of data-parallel training (DESIGN.md).
#[derive(Default)]
pub struct GradBuffer {
    dense: Vec<Option<Tensor>>,
    sparse: Vec<(ParamId, Vec<usize>, Tensor)>,
}

impl GradBuffer {
    /// An empty buffer able to hold gradients for `num_params` parameters.
    pub fn new(num_params: usize) -> GradBuffer {
        let mut dense = Vec::with_capacity(num_params);
        dense.resize_with(num_params, || None);
        GradBuffer { dense, sparse: Vec::new() }
    }

    /// True when no gradient has been accumulated.
    pub fn is_empty(&self) -> bool {
        self.dense.iter().all(Option::is_none) && self.sparse.is_empty()
    }

    /// Merges the buffer into `store` gradients: dense slots in ascending
    /// parameter order, then sparse row updates in insertion order.
    pub fn apply_to(self, store: &mut ParamStore) {
        for (i, g) in self.dense.into_iter().enumerate() {
            if let Some(g) = g {
                store.accumulate_grad(ParamId(i), &g);
            }
        }
        for (id, indices, g) in self.sparse {
            store.accumulate_grad_rows(id, &indices, &g);
        }
    }
}

impl GradSink for GradBuffer {
    fn accumulate(&mut self, id: ParamId, delta: &Tensor) {
        match &mut self.dense[id.0] {
            Some(g) => g.add_scaled(delta, 1.0),
            slot => *slot = Some(delta.clone()),
        }
    }

    fn accumulate_rows(&mut self, id: ParamId, indices: &[usize], delta: &Tensor) {
        self.sparse.push((id, indices.to_vec(), delta.clone()));
    }

    // A slot's first contribution and every sparse update move in whole.
    fn accumulate_owned(&mut self, id: ParamId, delta: Tensor) {
        match &mut self.dense[id.0] {
            Some(g) => g.add_scaled(&delta, 1.0),
            slot => *slot = Some(delta),
        }
    }

    fn accumulate_rows_owned(&mut self, id: ParamId, indices: Vec<usize>, delta: Tensor) {
        self.sparse.push((id, indices, delta));
    }
}

/// A reverse-mode automatic-differentiation graph.
///
/// Operations append nodes; since every node's parents precede it, reverse
/// insertion order is a valid reverse topological order and
/// [`Tape::backward`] is a single reverse sweep. A tape is intended to live
/// for exactly one forward/backward pass (one sentence — or, through
/// `BatchedTapeExec`, one packed bucket of sentences — in the NER setting).
pub struct Tape {
    nodes: Vec<Node>,
    op_counts: [u32; OpClass::ALL.len()],
    /// Segment tag stamped on every pushed node; `SEG_NONE` unless
    /// [`Tape::set_segment`] set one.
    cur_seg: u32,
}

impl Default for Tape {
    fn default() -> Tape {
        Tape { nodes: Vec::new(), op_counts: [0; OpClass::ALL.len()], cur_seg: SEG_NONE }
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tape holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nodes appended per operation class, non-zero entries only.
    pub fn op_counts(&self) -> impl Iterator<Item = (OpClass, u32)> + '_ {
        OpClass::ALL.iter().map(|&c| (c, self.op_counts[c as usize])).filter(|&(_, n)| n > 0)
    }

    fn push(
        &mut self,
        class: OpClass,
        value: Tensor,
        parents: &[Var],
        backward: Option<BackFn>,
        sink: Option<Sink>,
    ) -> Var {
        debug_assert!(parents.iter().all(|p| p.0 < self.nodes.len()), "parent from another tape");
        let parents = parents.iter().map(|p| p.0).collect();
        let seg = self.cur_seg;
        self.op_counts[class as usize] += 1;
        self.nodes.push(Node { value, grad: None, parents, backward, sink, seg });
        Var(self.nodes.len() - 1)
    }

    /// Sets (or clears, with `None`) the packing segment that owns every
    /// node pushed from now on: [`Tape::backward_into_segmented`] routes
    /// their parameter sinks to the `seg`-th gradient buffer. Used by
    /// `BatchedTapeExec` to record per-segment (per-sentence) subgraphs —
    /// decoder losses, char compositions, attention cores — on a shared
    /// packed tape.
    pub fn set_segment(&mut self, seg: Option<usize>) {
        self.cur_seg = match seg {
            Some(s) => s as u32,
            None => SEG_NONE,
        };
    }

    /// The parameter behind a whole-parameter leaf, if `v` is one.
    pub fn param_id_of(&self, v: Var) -> Option<ParamId> {
        match self.nodes[v.0].sink {
            Some(Sink::Param(id)) => Some(id),
            _ => None,
        }
    }

    /// A leaf holding a constant (no gradient is tracked through it).
    pub fn constant(&mut self, value: Tensor) -> Var {
        self.push(OpClass::Constant, value, &[], None, None)
    }

    /// A differentiable leaf for parameter `id`: its value is the parameter's
    /// current value and its gradient is delivered to the store on
    /// [`Tape::backward`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(OpClass::Param, store.value(id).clone(), &[], None, Some(Sink::Param(id)))
    }

    /// An embedding-lookup leaf: gathers `indices` rows of parameter `id`
    /// without cloning the whole table; gradients scatter-add back into the
    /// selected rows. This is the input-representation workhorse.
    pub fn param_rows(&mut self, store: &ParamStore, id: ParamId, indices: &[usize]) -> Var {
        let value = store.value(id).gather_rows(indices);
        self.push(OpClass::Embedding, value, &[], None, Some(Sink::ParamRows(id, indices.to_vec())))
    }

    /// Appends a custom differentiable operation. `backward` receives the
    /// output gradient and must return one gradient (or `None`) per parent,
    /// in order. This is the extension point used by e.g. the CRF layer in
    /// `ner-core`, whose gradients are hand-derived via forward–backward.
    pub fn custom(
        &mut self,
        value: Tensor,
        parents: &[Var],
        backward: impl Fn(&Tensor) -> Vec<Option<Tensor>> + 'static,
    ) -> Var {
        self.custom_in_class(OpClass::Custom, value, parents, backward)
    }

    /// [`Tape::custom`] with an explicit [`OpClass`] — used by the in-crate
    /// op modules so the per-class counters stay exact.
    pub fn custom_in_class(
        &mut self,
        class: OpClass,
        value: Tensor,
        parents: &[Var],
        backward: impl Fn(&Tensor) -> Vec<Option<Tensor>> + 'static,
    ) -> Var {
        let rule: BackFn = Box::new(move |g: &Tensor, _: &mut SegEmitter<'_>| backward(g));
        self.push(class, value, parents, Some(rule), None)
    }

    /// A packed multi-segment differentiable operation. `backward` is
    /// [`Tape::custom`]'s backward rule plus a [`SegEmitter`]: parameter
    /// gradients must be computed *per segment* — with the same formulas
    /// and fold orders the per-sentence oracle uses — and emitted rather
    /// than returned, so [`Tape::backward_into_segmented`] can keep one
    /// gradient buffer per segment bit-identical to the oracle's. A
    /// one-segment node is also valid through [`Tape::backward_into`],
    /// whose one sink is segment 0's.
    pub fn custom_segmented(
        &mut self,
        class: OpClass,
        value: Tensor,
        parents: &[Var],
        backward: impl Fn(&Tensor, &mut SegEmitter<'_>) -> Vec<Option<Tensor>> + 'static,
    ) -> Var {
        self.push(class, value, parents, Some(Box::new(backward)), None)
    }

    /// The forward value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient of the loss with respect to a node, if `backward` has
    /// been run and the node was reached. Needed e.g. by adversarial (FGM)
    /// training, which perturbs inputs along their gradient.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Backpropagates from scalar node `loss`, accumulating parameter
    /// gradients into `store`.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 × 1` tensor.
    pub fn backward(&mut self, loss: Var, store: &mut ParamStore) {
        self.backward_into(loss, store);
    }

    /// [`Tape::backward`] with an arbitrary [`GradSink`] — data-parallel
    /// workers pass a [`GradBuffer`] here so backpropagation needs no
    /// mutable access to the shared parameters. Every parameter leaf, and
    /// segment 0 of every packed node, delivers to `sink`.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 × 1` tensor, or if a packed node emits
    /// for a segment other than 0.
    pub fn backward_into(&mut self, loss: Var, sink: &mut impl GradSink) {
        self.sweep(loss, SegEmitter { sinks: vec![sink as &mut dyn GradSink], segmented: false });
    }

    /// Segmented variant of [`Tape::backward_into`] for packed batched
    /// training: one [`GradBuffer`] per packing segment (sentence). The
    /// sweep is the same — reverse node order, identical parent-delta
    /// folds — but packed nodes emit per-segment contributions through
    /// their [`SegEmitter`] and scoped leaves deliver to the segment that
    /// owns them, each straight into that segment's buffer. Applying the
    /// buffers in segment order then reproduces the per-sentence oracle's
    /// gradient floats bit for bit (DESIGN.md "Batched training").
    ///
    /// # Panics
    /// Panics if `loss` is not `1 × 1`, if a segment index is out of range
    /// for `buffers`, or if a parameter gradient reaches a leaf no segment
    /// owns (a packed node should have emitted it instead).
    pub fn backward_into_segmented(&mut self, loss: Var, buffers: &mut [GradBuffer]) {
        let sinks = buffers.iter_mut().map(|b| b as &mut dyn GradSink).collect();
        self.sweep(loss, SegEmitter { sinks, segmented: true });
    }

    /// The one reverse sweep behind both backward entry points.
    fn sweep(&mut self, loss: Var, mut em: SegEmitter<'_>) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar loss node"
        );
        self.nodes[loss.0].grad = Some(Tensor::scalar(1.0));

        for i in (0..self.nodes.len()).rev() {
            // Split so we can read node `i` while mutating earlier parents.
            let (before, rest) = self.nodes.split_at_mut(i);
            let node = &mut rest[0];
            let Some(grad_out) = node.grad.as_ref() else { continue };

            if let Some(back) = node.backward.as_ref() {
                let deltas = back(grad_out, &mut em);
                debug_assert_eq!(deltas.len(), node.parents.len());
                for (slot, delta) in node.parents.iter().zip(deltas) {
                    let Some(delta) = delta else { continue };
                    let parent = &mut before[*slot];
                    debug_assert_eq!(
                        parent.value.shape(),
                        delta.shape(),
                        "gradient shape mismatch for parent"
                    );
                    match parent.grad.as_mut() {
                        Some(g) => g.add_scaled(&delta, 1.0),
                        None => parent.grad = Some(delta),
                    }
                }
            }

            match node.sink.as_ref() {
                Some(Sink::Param(id)) => em.leaf(node.seg, "parameter").accumulate(*id, grad_out),
                Some(Sink::ParamRows(id, ix)) => {
                    em.leaf(node.seg, "embedding").accumulate_rows(*id, ix, grad_out)
                }
                None => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    #[test]
    fn grad_buffer_backward_matches_direct_backward() {
        let build = |tape: &mut Tape, store: &ParamStore, w: ParamId, emb: ParamId| {
            let rows = tape.param_rows(store, emb, &[1, 0, 1]);
            let wv = tape.param(store, w);
            let x = tape.matmul(rows, wv);
            let sq = tape.mul(x, x);
            tape.sum(sq)
        };
        let mut store = ParamStore::new();
        let emb = store.register("emb", Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25]]));
        let w = store.register("w", Tensor::from_rows(&[&[1.5], &[-0.5]]));

        let mut direct = store.clone();
        let mut tape = Tape::new();
        let loss = build(&mut tape, &direct, w, emb);
        tape.backward(loss, &mut direct);

        let mut buffered = store.clone();
        let mut tape = Tape::new();
        let loss = build(&mut tape, &buffered, w, emb);
        let mut buf = GradBuffer::new(buffered.len());
        tape.backward_into(loss, &mut buf);
        assert!(!buf.is_empty());
        buf.apply_to(&mut buffered);

        for id in direct.ids() {
            assert_eq!(direct.grad(id).data(), buffered.grad(id).data(), "param {id:?}");
        }
    }

    /// A buffer's contents as bits: dense slots by parameter, then the
    /// sparse row updates in insertion order.
    type BufferBits = (Vec<Option<Vec<u32>>>, Vec<(usize, Vec<usize>, Vec<u32>)>);

    fn buffer_bits(buf: &GradBuffer) -> BufferBits {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let dense = buf.dense.iter().map(|g| g.as_ref().map(bits)).collect();
        let sparse = buf.sparse.iter().map(|(id, ix, g)| (id.0, ix.clone(), bits(g))).collect();
        (dense, sparse)
    }

    #[test]
    fn one_segment_packed_node_backpropagates_through_the_plain_entry() {
        let mut store = ParamStore::new();
        let emb =
            store.register("emb", Tensor::from_rows(&[&[0.5, -1.0], &[2.0, 0.25], &[-0.75, 1.5]]));
        let w = store.register("w", Tensor::from_rows(&[&[1.5], &[-0.5]]));
        let build = |tape: &mut Tape| {
            tape.set_segment(Some(0));
            // A packed one-segment lookup that emits its rows, beside a
            // segment-0 leaf that gathers a repeated row.
            let ids = vec![1, 0];
            let looked = tape.custom_segmented(
                OpClass::Embedding,
                store.value(emb).gather_rows(&ids),
                &[],
                move |g, em| {
                    em.rows(0, emb, ids.clone(), g.clone());
                    vec![]
                },
            );
            let leaf_rows = tape.param_rows(&store, emb, &[2, 0, 2]);
            let rows = tape.concat_rows(&[looked, leaf_rows]);
            // A packed one-segment projection that emits its weight
            // gradient; the weight leaf also fans out into a product.
            let wv = tape.param(&store, w);
            let (vr, vw) = (tape.value(rows).clone(), tape.value(wv).clone());
            let y = tape.custom_segmented(
                OpClass::MatMul,
                vr.matmul(&vw),
                &[rows, wv],
                move |g, em| {
                    em.dense(0, w, vr.matmul_tn(g));
                    vec![Some(g.matmul_nt(&vw)), None]
                },
            );
            let sq = tape.mul(y, y);
            let ww = tape.mul(wv, wv);
            let (a, b) = (tape.sum(sq), tape.sum(ww));
            tape.add(a, b)
        };

        let mut tape = Tape::new();
        let loss = build(&mut tape);
        let mut plain = GradBuffer::new(store.len());
        tape.backward_into(loss, &mut plain);

        let mut tape = Tape::new();
        let loss = build(&mut tape);
        let mut segmented = vec![GradBuffer::new(store.len())];
        tape.backward_into_segmented(loss, &mut segmented);

        let got = buffer_bits(&plain);
        assert!(got.0[w.0].is_some(), "the weight gets a dense gradient");
        assert_eq!(got.1.len(), 2, "the packed lookup and the leaf each scatter once");
        assert_eq!(got, buffer_bits(&segmented[0]));
    }

    #[test]
    fn constant_has_no_grad_after_backward() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let c = tape.constant(Tensor::scalar(2.0));
        let p = store.register("w", Tensor::scalar(3.0));
        let w = tape.param(&store, p);
        let y = tape.mul(c, w);
        tape.backward(y, &mut store);
        // d(c*w)/dw = c = 2
        assert_eq!(store.grad(p).item(), 2.0);
        assert!(tape.grad(c).is_some()); // gradient flows through, but is not sunk
    }

    #[test]
    fn param_rows_scatter_grads() {
        let mut store = ParamStore::new();
        let table =
            store.register("emb", Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[2.0, 2.0]]));
        let mut tape = Tape::new();
        let rows = tape.param_rows(&store, table, &[2, 0, 2]);
        assert_eq!(tape.value(rows).rows(), 3);
        let s = tape.sum(rows);
        tape.backward(s, &mut store);
        // rows 2 picked twice, row 0 once, row 1 never
        assert_eq!(store.grad(table).row(2), &[2.0, 2.0]);
        assert_eq!(store.grad(table).row(0), &[1.0, 1.0]);
        assert_eq!(store.grad(table).row(1), &[0.0, 0.0]);
    }

    #[test]
    fn gradient_accumulates_over_fanout() {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::scalar(4.0));
        let mut tape = Tape::new();
        let w = tape.param(&store, p);
        let y = tape.mul(w, w); // y = w², dy/dw = 2w = 8
        tape.backward(y, &mut store);
        assert_eq!(store.grad(p).item(), 8.0);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_rejects_non_scalar_loss() {
        let mut store = ParamStore::new();
        let mut tape = Tape::new();
        let c = tape.constant(Tensor::zeros(2, 2));
        tape.backward(c, &mut store);
    }

    #[test]
    fn op_counts_classify_nodes() {
        let mut store = ParamStore::new();
        let table = store.register("emb", Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let p = store.register("w", Tensor::scalar(3.0));
        let mut tape = Tape::new();
        let _rows = tape.param_rows(&store, table, &[0, 1]);
        let w = tape.param(&store, p);
        let c = tape.constant(Tensor::scalar(2.0));
        let m = tape.mul(c, w);
        let _s = tape.sum(m);
        let counts: std::collections::HashMap<&str, u32> =
            tape.op_counts().map(|(c, n)| (c.name(), n)).collect();
        assert_eq!(counts.get("embedding"), Some(&1));
        assert_eq!(counts.get("param"), Some(&1));
        assert_eq!(counts.get("constant"), Some(&1));
        assert_eq!(counts.get("elementwise"), Some(&1));
        assert_eq!(counts.get("reduce"), Some(&1));
        assert_eq!(counts.values().sum::<u32>() as usize, tape.len());
    }

    #[test]
    fn custom_op_backward_is_invoked() {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::scalar(5.0));
        let mut tape = Tape::new();
        let w = tape.param(&store, p);
        // y = 3w via a custom node.
        let val = Tensor::scalar(tape.value(w).item() * 3.0);
        let y = tape.custom(val, &[w], |g| vec![Some(Tensor::scalar(g.item() * 3.0))]);
        tape.backward(y, &mut store);
        assert_eq!(store.grad(p).item(), 3.0);
    }
}
