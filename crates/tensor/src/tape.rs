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
/// list; `None` means "no gradient to this parent").
type BackFn = Box<dyn Fn(&Tensor) -> Vec<Option<Tensor>>>;

/// Backward rule for a *packed* multi-segment node: like [`BackFn`] but the
/// rule additionally receives a [`SegEmitter`] through which it must emit
/// per-segment parameter-gradient contributions (computed with the same
/// per-sentence formulas and fold orders the oracle tape uses), instead of
/// returning a gradient for the parameter parents.
type SegBackFn = Box<dyn Fn(&Tensor, &mut SegEmitter) -> Vec<Option<Tensor>>>;

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
    /// Segment-aware backward rule for packed nodes; mutually exclusive
    /// with `backward`.
    seg_backward: Option<SegBackFn>,
}

/// One parameter-gradient contribution recorded during a segmented sweep.
enum Emit {
    Dense(ParamId, Tensor),
    Rows(ParamId, Vec<usize>, Tensor),
}

/// Collects per-segment parameter-gradient contributions during
/// [`Tape::backward_into_segmented`]. Packed nodes emit each segment's
/// contribution explicitly; scoped per-segment leaves emit automatically
/// when the sweep reaches them. Phase two drains segment `s`'s list — in
/// emission order — into the `s`-th [`GradBuffer`], so every accumulation
/// folds in exactly the order the per-sentence oracle produced.
pub struct SegEmitter {
    lists: Vec<Vec<Emit>>,
}

impl SegEmitter {
    fn new(segments: usize) -> SegEmitter {
        SegEmitter { lists: (0..segments).map(|_| Vec::new()).collect() }
    }

    /// Records a whole-tensor gradient contribution for `id` on segment
    /// `seg`.
    pub fn dense(&mut self, seg: usize, id: ParamId, delta: Tensor) {
        self.lists[seg].push(Emit::Dense(id, delta));
    }

    /// Records a row-scattered embedding gradient for `id` on segment
    /// `seg`: row `i` of `delta` lands in table row `indices[i]`.
    pub fn rows(&mut self, seg: usize, id: ParamId, indices: Vec<usize>, delta: Tensor) {
        self.lists[seg].push(Emit::Rows(id, indices, delta));
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

    /// Scales every accumulated gradient in place (minibatch averaging).
    pub fn scale(&mut self, alpha: f32) {
        for g in self.dense.iter_mut().flatten() {
            g.scale_in_place(alpha);
        }
        for (_, _, g) in &mut self.sparse {
            g.scale_in_place(alpha);
        }
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
    /// Segment tag stamped on every pushed node; `SEG_NONE` outside
    /// [`Tape::with_segment`].
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

    fn push(&mut self, class: OpClass, mut node: Node) -> Var {
        node.seg = self.cur_seg;
        self.op_counts[class as usize] += 1;
        self.nodes.push(node);
        Var(self.nodes.len() - 1)
    }

    /// Tags every node appended inside `f` as owned by packing segment
    /// `seg`: [`Tape::backward_into_segmented`] routes their parameter
    /// sinks to the `seg`-th gradient buffer. Used by `BatchedTapeExec` to
    /// record per-segment (per-sentence) subgraphs — decoder losses, char
    /// compositions, attention cores — on a shared packed tape.
    pub fn with_segment<R>(&mut self, seg: usize, f: impl FnOnce(&mut Tape) -> R) -> R {
        let prev = self.cur_seg;
        self.cur_seg = seg as u32;
        let out = f(self);
        self.cur_seg = prev;
        out
    }

    /// Sets (or clears, with `None`) the segment tag applied to subsequently
    /// pushed nodes. Plain-setter form of [`Tape::with_segment`] for callers
    /// that cannot hand the tape to a closure (e.g. `BatchedTapeExec`, which
    /// holds the tape behind `&mut self` while scoping).
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
        self.push(
            OpClass::Constant,
            Node {
                value,
                grad: None,
                parents: vec![],
                backward: None,
                sink: None,
                seg: SEG_NONE,
                seg_backward: None,
            },
        )
    }

    /// A differentiable leaf for parameter `id`: its value is the parameter's
    /// current value and its gradient is delivered to the store on
    /// [`Tape::backward`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push(
            OpClass::Param,
            Node {
                value: store.value(id).clone(),
                grad: None,
                parents: vec![],
                backward: None,
                sink: Some(Sink::Param(id)),
                seg: SEG_NONE,
                seg_backward: None,
            },
        )
    }

    /// An embedding-lookup leaf: gathers `indices` rows of parameter `id`
    /// without cloning the whole table; gradients scatter-add back into the
    /// selected rows. This is the input-representation workhorse.
    pub fn param_rows(&mut self, store: &ParamStore, id: ParamId, indices: &[usize]) -> Var {
        let table = store.value(id);
        self.push(
            OpClass::Embedding,
            Node {
                value: table.gather_rows(indices),
                grad: None,
                parents: vec![],
                backward: None,
                sink: Some(Sink::ParamRows(id, indices.to_vec())),
                seg: SEG_NONE,
                seg_backward: None,
            },
        )
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
        debug_assert!(parents.iter().all(|p| p.0 < self.nodes.len()), "parent from another tape");
        self.push(
            class,
            Node {
                value,
                grad: None,
                parents: parents.iter().map(|p| p.0).collect(),
                backward: Some(Box::new(backward)),
                sink: None,
                seg: SEG_NONE,
                seg_backward: None,
            },
        )
    }

    /// A packed multi-segment differentiable operation. `seg_backward` is
    /// [`Tape::custom`]'s backward rule plus a [`SegEmitter`]: parameter
    /// gradients must be computed *per segment* — with the same formulas
    /// and fold orders the per-sentence oracle uses — and emitted rather
    /// than returned, so [`Tape::backward_into_segmented`] can keep one
    /// gradient buffer per segment bit-identical to the oracle's. Nodes
    /// appended here are only valid on tapes driven through the segmented
    /// backward.
    pub fn custom_segmented(
        &mut self,
        class: OpClass,
        value: Tensor,
        parents: &[Var],
        seg_backward: impl Fn(&Tensor, &mut SegEmitter) -> Vec<Option<Tensor>> + 'static,
    ) -> Var {
        debug_assert!(parents.iter().all(|p| p.0 < self.nodes.len()), "parent from another tape");
        self.push(
            class,
            Node {
                value,
                grad: None,
                parents: parents.iter().map(|p| p.0).collect(),
                backward: None,
                sink: None,
                seg: SEG_NONE,
                seg_backward: Some(Box::new(seg_backward)),
            },
        )
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
    /// mutable access to the shared parameters.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 × 1` tensor.
    pub fn backward_into(&mut self, loss: Var, sink: &mut impl GradSink) {
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
                let deltas = back(grad_out);
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
                Some(Sink::Param(id)) => sink.accumulate(*id, node.grad.as_ref().unwrap()),
                Some(Sink::ParamRows(id, ix)) => {
                    sink.accumulate_rows(*id, ix, node.grad.as_ref().unwrap())
                }
                None => {}
            }
        }
    }

    /// Segmented variant of [`Tape::backward_into`] for packed batched
    /// training: one [`GradBuffer`] per packing segment (sentence). The
    /// sweep itself is unchanged — reverse node order, identical
    /// parent-delta folds — but parameter gradients are *collected* per
    /// segment instead of sunk directly: packed nodes emit per-segment
    /// contributions through their [`SegEmitter`] rule, scoped leaves
    /// emit to the segment that owns them, and a second phase drains each
    /// segment's list in emission order into its buffer. Applying the
    /// buffers in segment order then reproduces the per-sentence oracle's
    /// gradient floats bit for bit (DESIGN.md "Batched training").
    ///
    /// # Panics
    /// Panics if `loss` is not `1 × 1`, if a segment index is out of range
    /// for `buffers`, or if a parameter gradient reaches a leaf no segment
    /// owns (a packed node should have emitted it instead).
    pub fn backward_into_segmented(&mut self, loss: Var, buffers: &mut [GradBuffer]) {
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward requires a scalar loss node"
        );
        self.nodes[loss.0].grad = Some(Tensor::scalar(1.0));
        let mut emitter = SegEmitter::new(buffers.len());

        for i in (0..self.nodes.len()).rev() {
            // Split so we can read node `i` while mutating earlier parents.
            let (before, rest) = self.nodes.split_at_mut(i);
            let node = &mut rest[0];
            let Some(grad_out) = node.grad.as_ref() else { continue };

            let deltas = match (node.seg_backward.as_ref(), node.backward.as_ref()) {
                (Some(back), _) => Some(back(grad_out, &mut emitter)),
                (None, Some(back)) => Some(back(grad_out)),
                (None, None) => None,
            };
            if let Some(deltas) = deltas {
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
                Some(Sink::Param(id)) => {
                    assert_ne!(
                        node.seg, SEG_NONE,
                        "segmented backward reached an unscoped parameter leaf"
                    );
                    emitter.dense(node.seg as usize, *id, node.grad.as_ref().unwrap().clone());
                }
                Some(Sink::ParamRows(id, ix)) => {
                    assert_ne!(
                        node.seg, SEG_NONE,
                        "segmented backward reached an unscoped embedding leaf"
                    );
                    emitter.rows(
                        node.seg as usize,
                        *id,
                        ix.clone(),
                        node.grad.as_ref().unwrap().clone(),
                    );
                }
                None => {}
            }
        }

        for (list, buf) in emitter.lists.iter_mut().zip(buffers.iter_mut()) {
            for e in list.drain(..) {
                match e {
                    Emit::Dense(id, g) => buf.accumulate(id, &g),
                    Emit::Rows(id, ix, g) => buf.accumulate_rows(id, &ix, &g),
                }
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

    #[test]
    fn grad_buffer_scale_averages_gradients() {
        let mut store = ParamStore::new();
        let p = store.register("w", Tensor::scalar(3.0));
        let mut tape = Tape::new();
        let w = tape.param(&store, p);
        let y = tape.mul(w, w); // dy/dw = 2w = 6
        let mut buf = GradBuffer::new(store.len());
        tape.backward_into(y, &mut buf);
        buf.scale(0.5);
        buf.apply_to(&mut store);
        assert_eq!(store.grad(p).item(), 3.0);
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
