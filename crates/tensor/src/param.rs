use crate::Tensor;
use serde::{DeError, Deserialize, Serialize, Value};

/// Handle to a trainable parameter registered in a [`ParamStore`].
///
/// Cheap to copy; only meaningful for the store that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of this parameter inside its store.
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Clone)]
struct Slot {
    name: String,
    value: Tensor,
    grad: Tensor,
    /// Frozen parameters receive gradients but are skipped by optimizers —
    /// the mechanism behind the transfer-learning "freeze encoder" schemes.
    frozen: bool,
}

/// A checkpointed slot is its `name`, `value` and `frozen` flag. The
/// gradient only lives between optimizer steps and is not written.
impl Serialize for Slot {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), self.name.serialize()),
            ("value".to_string(), self.value.serialize()),
            ("frozen".to_string(), self.frozen.serialize()),
        ])
    }
}

/// Reads a slot with a zero gradient of its value's shape. Older
/// checkpoints also wrote a `grad` field; it is ignored.
impl Deserialize for Slot {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        let value: Tensor = serde::field(v, "value")?;
        // The gradient is sized from the stored shape, so that shape must
        // match the numbers actually read before it is allocated.
        let (rows, cols) = value.shape();
        if rows.checked_mul(cols) != Some(value.len()) {
            let n = value.len();
            return Err(DeError::new(format!("value: a {rows}x{cols} tensor with {n} numbers")));
        }
        let grad = Tensor::zeros(rows, cols);
        Ok(Slot { name: serde::field(v, "name")?, value, grad, frozen: serde::field(v, "frozen")? })
    }
}

/// Trainable parameters that persist across autograd tapes.
///
/// A model registers its weights once; every forward pass leases them into a
/// fresh [`crate::Tape`]; `Tape::backward` accumulates gradients back here;
/// [`crate::optim::Adam`] then consumes the gradients. Gradients
/// accumulate across multiple backward passes until [`ParamStore::zero_grad`]
/// ([`crate::optim::Adam::step`] calls it for you).
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct ParamStore {
    slots: Vec<Slot>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a named parameter initialized to `value`, returning its id.
    pub fn register(&mut self, name: &str, value: Tensor) -> ParamId {
        let grad = Tensor::zeros(value.rows(), value.cols());
        self.slots.push(Slot { name: name.to_string(), value, grad, frozen: false });
        ParamId(self.slots.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of scalar weights across all parameters.
    pub fn num_scalars(&self) -> usize {
        self.slots.iter().map(|s| s.value.len()).sum()
    }

    /// The current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].value
    }

    /// Mutable access to a parameter value (e.g. to load pretrained weights).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.slots[id.0].value
    }

    /// The accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Tensor {
        &self.slots[id.0].grad
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.slots[id.0].name
    }

    /// Looks a parameter up by its registered name.
    pub fn find(&self, name: &str) -> Option<ParamId> {
        self.slots.iter().position(|s| s.name == name).map(ParamId)
    }

    /// Ids of all registered parameters, in registration order.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.slots.len()).map(ParamId)
    }

    /// Adds `delta` into the gradient of `id` (used by `Tape::backward`).
    pub(crate) fn accumulate_grad(&mut self, id: ParamId, delta: &Tensor) {
        self.slots[id.0].grad.add_scaled(delta, 1.0);
    }

    /// Adds `delta` rows into the gradient rows selected by `indices`
    /// (scatter-add; used by embedding lookups).
    pub(crate) fn accumulate_grad_rows(&mut self, id: ParamId, indices: &[usize], delta: &Tensor) {
        let grad = &mut self.slots[id.0].grad;
        debug_assert_eq!(delta.rows(), indices.len());
        debug_assert_eq!(delta.cols(), grad.cols());
        for (i, &ix) in indices.iter().enumerate() {
            let src = delta.row(i);
            let dst = grad.row_mut(ix);
            for (d, &s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
    }

    /// Clears all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for s in &mut self.slots {
            s.grad.fill_zero();
        }
    }

    /// Marks a parameter as frozen (optimizers will skip it) or unfrozen.
    pub fn set_frozen(&mut self, id: ParamId, frozen: bool) {
        self.slots[id.0].frozen = frozen;
    }

    /// Freezes every parameter whose name starts with `prefix`; returns how
    /// many were affected. Naming parameters hierarchically
    /// (`"encoder.lstm.w_ih"`) makes layer-wise freezing a one-liner.
    pub fn freeze_prefix(&mut self, prefix: &str, frozen: bool) -> usize {
        let mut n = 0;
        for s in &mut self.slots {
            if s.name.starts_with(prefix) {
                s.frozen = frozen;
                n += 1;
            }
        }
        n
    }

    /// Whether the parameter is currently frozen.
    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.slots[id.0].frozen
    }

    /// Global L2 norm of all (unfrozen) gradients.
    pub fn grad_global_norm(&self) -> f32 {
        let sq: f32 = self.slots.iter().filter(|s| !s.frozen).map(|s| s.grad.sq_norm()).sum();
        sq.sqrt()
    }

    /// Scales all gradients so their global norm does not exceed `max_norm`.
    /// Returns the pre-clipping norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_global_norm();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for s in &mut self.slots {
                if !s.frozen {
                    s.grad.scale_in_place(scale);
                }
            }
        }
        norm
    }

    /// Applies `f(value, grad)` to every unfrozen parameter — the primitive
    /// optimizers are built on.
    pub fn for_each_unfrozen(&mut self, mut f: impl FnMut(usize, &mut Tensor, &Tensor)) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if !s.frozen {
                f(i, &mut s.value, &s.grad);
            }
        }
    }

    /// Copies all parameter values from `other` by matching names. Returns
    /// the number of parameters copied; shape mismatches are skipped.
    /// This is the transfer-learning "warm start" primitive.
    pub fn load_matching(&mut self, other: &ParamStore) -> usize {
        let mut copied = 0;
        for s in &mut self.slots {
            if let Some(o) = other.slots.iter().find(|o| o.name == s.name) {
                if o.value.shape() == s.value.shape() {
                    s.value = o.value.clone();
                    copied += 1;
                }
            }
        }
        copied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let a = store.register("layer.w", Tensor::zeros(2, 3));
        assert_eq!(store.find("layer.w"), Some(a));
        assert_eq!(store.find("missing"), None);
        assert_eq!(store.num_scalars(), 6);
        assert_eq!(store.name(a), "layer.w");
    }

    #[test]
    fn a_slot_whose_shape_disagrees_with_its_data_is_rejected() {
        let store = |rows: f64| {
            let value = Value::Object(vec![
                ("rows".to_string(), Value::Num(rows)),
                ("cols".to_string(), Value::Num(2.0)),
                ("data".to_string(), vec![1.5f32, -2.0].serialize()),
            ]);
            let slot = Value::Object(vec![
                ("name".to_string(), Value::Str("w".to_string())),
                ("value".to_string(), value),
                ("frozen".to_string(), Value::Bool(false)),
            ]);
            ParamStore::deserialize(&Value::Object(vec![(
                "slots".to_string(),
                Value::Array(vec![slot]),
            )]))
        };
        let ok = store(1.0).expect("a 1x2 value with 2 numbers");
        assert_eq!(ok.grad(ParamId(0)).data(), &[0.0, 0.0]);
        let err = store(1e12).err().expect("a 1e12 x 2 value with 2 numbers");
        assert!(err.to_string().contains("tensor with 2 numbers"), "{err}");
    }

    #[test]
    fn grad_accumulation_and_zeroing() {
        let mut store = ParamStore::new();
        let a = store.register("w", Tensor::zeros(1, 2));
        store.accumulate_grad(a, &Tensor::row_vector(&[1.0, 2.0]));
        store.accumulate_grad(a, &Tensor::row_vector(&[1.0, 2.0]));
        assert_eq!(store.grad(a).data(), &[2.0, 4.0]);
        store.zero_grad();
        assert_eq!(store.grad(a).data(), &[0.0, 0.0]);
    }

    #[test]
    fn scatter_add_rows() {
        let mut store = ParamStore::new();
        let a = store.register("emb", Tensor::zeros(4, 2));
        let delta = Tensor::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        store.accumulate_grad_rows(a, &[1, 3, 1], &delta);
        assert_eq!(store.grad(a).row(1), &[4.0, 4.0]);
        assert_eq!(store.grad(a).row(3), &[2.0, 2.0]);
        assert_eq!(store.grad(a).row(0), &[0.0, 0.0]);
    }

    #[test]
    fn clip_scales_to_max_norm() {
        let mut store = ParamStore::new();
        let a = store.register("w", Tensor::zeros(1, 2));
        store.accumulate_grad(a, &Tensor::row_vector(&[3.0, 4.0]));
        let pre = store.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((store.grad_global_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn freeze_prefix_marks_matching() {
        let mut store = ParamStore::new();
        let a = store.register("encoder.w", Tensor::zeros(1, 1));
        let b = store.register("decoder.w", Tensor::zeros(1, 1));
        assert_eq!(store.freeze_prefix("encoder.", true), 1);
        assert!(store.is_frozen(a));
        assert!(!store.is_frozen(b));
    }

    #[test]
    fn load_matching_copies_by_name_and_shape() {
        let mut src = ParamStore::new();
        src.register("w", Tensor::full(1, 2, 7.0));
        src.register("v", Tensor::full(2, 2, 3.0));
        let mut dst = ParamStore::new();
        let w = dst.register("w", Tensor::zeros(1, 2));
        let v = dst.register("v", Tensor::zeros(3, 3)); // shape mismatch: skipped
        assert_eq!(dst.load_matching(&src), 1);
        assert_eq!(dst.value(w).data(), &[7.0, 7.0]);
        assert_eq!(dst.value(v).data(), &[0.0; 9]);
    }
}
