//! Context encoder architectures — the middle axis of the survey's taxonomy
//! (paper §3.3): CNN (Fig. 5), Iterated Dilated CNN (Fig. 6), LSTM/BiLSTM
//! (Fig. 7), GRU, Transformer, a windowed MLP (Collobert's window approach),
//! and the identity (for decoder-only models over contextual embeddings).

pub mod recursive;

use crate::config::EncoderKind;
use ner_tensor::fused::Activation;
use ner_tensor::nn::{GruCell, Linear, LstmCell, TransformerBlock};
use ner_tensor::{init, nn, Exec, ParamId, ParamStore, Tensor};
use rand::Rng;

/// A built context encoder: maps `[n, in_dim] → [n, out_dim]`.
pub struct Encoder {
    imp: EncoderImpl,
    out_dim: usize,
}

enum EncoderImpl {
    Identity,
    WindowMlp {
        lin: Linear,
        window: usize,
    },
    Cnn {
        layers: Vec<(ParamId, ParamId)>,
        width: usize,
        global: bool,
    },
    IdCnn {
        initial: (ParamId, ParamId),
        block: Vec<(ParamId, ParamId, usize)>, // (w, b, dilation)
        width: usize,
        iterations: usize,
    },
    Lstm {
        layers: Vec<(LstmCell, Option<LstmCell>)>,
    },
    Gru {
        fw: GruCell,
        bw: Option<GruCell>,
    },
    Transformer {
        proj: Linear,
        blocks: Vec<TransformerBlock>,
        d_model: usize,
    },
}

impl Encoder {
    /// Checks that `kind` describes a buildable encoder. [`Encoder::new`]
    /// panics on exactly the configurations this rejects, and checkpoint
    /// restore reports them as an error.
    pub fn check(kind: &EncoderKind) -> Result<(), String> {
        let bad = match kind {
            EncoderKind::Cnn { layers, width, .. } => *layers == 0 || width % 2 == 0,
            EncoderKind::IdCnn { width, dilations, iterations, .. } => {
                width % 2 == 0 || dilations.is_empty() || *iterations == 0
            }
            EncoderKind::Lstm { layers, .. } => *layers == 0,
            EncoderKind::Transformer { d_model, heads, .. } => *heads == 0 || d_model % heads != 0,
            EncoderKind::Identity | EncoderKind::WindowMlp { .. } | EncoderKind::Gru { .. } => {
                false
            }
        };
        if bad {
            return Err(format!(
                "unbuildable encoder {kind:?}: convolution widths must be odd, layer, \
                 iteration and head counts at least 1, dilations non-empty, and heads \
                 must divide d_model"
            ));
        }
        Ok(())
    }

    /// Builds an encoder of the given kind over `in_dim`-wide inputs.
    ///
    /// Panics if [`Encoder::check`] rejects `kind`.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        in_dim: usize,
        kind: &EncoderKind,
    ) -> Self {
        if let Err(e) = Encoder::check(kind) {
            panic!("{e}");
        }
        match kind {
            EncoderKind::Identity => Encoder { imp: EncoderImpl::Identity, out_dim: in_dim },
            EncoderKind::WindowMlp { window, hidden } => {
                let span = 2 * window + 1;
                let lin = Linear::new(store, rng, &format!("{name}.mlp"), span * in_dim, *hidden);
                Encoder { imp: EncoderImpl::WindowMlp { lin, window: *window }, out_dim: *hidden }
            }
            EncoderKind::Cnn { filters, layers, width, global } => {
                let mut convs = Vec::with_capacity(*layers);
                let mut d = in_dim;
                for l in 0..*layers {
                    let w = store
                        .register(&format!("{name}.conv{l}.w"), init::he(rng, width * d, *filters));
                    let b = store.register(&format!("{name}.conv{l}.b"), init::zeros(1, *filters));
                    convs.push((w, b));
                    d = *filters;
                }
                Encoder {
                    imp: EncoderImpl::Cnn { layers: convs, width: *width, global: *global },
                    out_dim: if *global { 2 * filters } else { *filters },
                }
            }
            EncoderKind::IdCnn { filters, width, dilations, iterations } => {
                let initial = (
                    store.register(
                        &format!("{name}.init.w"),
                        init::he(rng, width * in_dim, *filters),
                    ),
                    store.register(&format!("{name}.init.b"), init::zeros(1, *filters)),
                );
                // One weight set per dilation, SHARED across iterations —
                // the parameter sharing that gives ID-CNNs their capacity
                // at small parameter cost (Strubell et al. 2017).
                let block = dilations
                    .iter()
                    .enumerate()
                    .map(|(i, &dil)| {
                        (
                            store.register(
                                &format!("{name}.dil{i}.w"),
                                init::he(rng, width * filters, *filters),
                            ),
                            store.register(&format!("{name}.dil{i}.b"), init::zeros(1, *filters)),
                            dil,
                        )
                    })
                    .collect();
                Encoder {
                    imp: EncoderImpl::IdCnn {
                        initial,
                        block,
                        width: *width,
                        iterations: *iterations,
                    },
                    out_dim: *filters,
                }
            }
            EncoderKind::Lstm { hidden, bidirectional, layers } => {
                let mut cells = Vec::with_capacity(*layers);
                let mut d = in_dim;
                for l in 0..*layers {
                    let fw = LstmCell::new(store, rng, &format!("{name}.l{l}.fw"), d, *hidden);
                    let bw = bidirectional
                        .then(|| LstmCell::new(store, rng, &format!("{name}.l{l}.bw"), d, *hidden));
                    cells.push((fw, bw));
                    d = if *bidirectional { 2 * hidden } else { *hidden };
                }
                Encoder { imp: EncoderImpl::Lstm { layers: cells }, out_dim: d }
            }
            EncoderKind::Gru { hidden, bidirectional } => {
                let fw = GruCell::new(store, rng, &format!("{name}.fw"), in_dim, *hidden);
                let bw = bidirectional
                    .then(|| GruCell::new(store, rng, &format!("{name}.bw"), in_dim, *hidden));
                let out_dim = if *bidirectional { 2 * hidden } else { *hidden };
                Encoder { imp: EncoderImpl::Gru { fw, bw }, out_dim }
            }
            EncoderKind::Transformer { d_model, heads, layers, d_ff } => {
                let proj = Linear::new(store, rng, &format!("{name}.proj"), in_dim, *d_model);
                let blocks = (0..*layers)
                    .map(|i| {
                        TransformerBlock::new(
                            store,
                            rng,
                            &format!("{name}.block{i}"),
                            *d_model,
                            *heads,
                            *d_ff,
                        )
                    })
                    .collect();
                Encoder {
                    imp: EncoderImpl::Transformer { proj, blocks, d_model: *d_model },
                    out_dim: *d_model,
                }
            }
        }
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Encodes the packed rows `x [N, in_dim] → [N, out_dim]` on any
    /// backend; each segment's output rows are bit-identical to the
    /// one-segment [`ner_tensor::Tape`] on that segment alone.
    ///
    /// The backends' overrides already make convolutions, sequence reversal
    /// and the recurrent runners segment-aware. The three cases with
    /// sentence-shaped intermediates that those overrides cannot see
    /// (window stacking, the global max pool, the attention core) run per
    /// segment via [`Exec::scoped`].
    pub fn forward<E: Exec>(&self, ex: &mut E, store: &ParamStore, x: E::V) -> E::V {
        match &self.imp {
            EncoderImpl::Identity => x,
            EncoderImpl::WindowMlp { lin, window } => {
                // Window stacking pads with zeros at *sentence* edges, so
                // it runs per segment in sentence scope.
                let mut segs = Vec::with_capacity(ex.segments());
                for s in 0..ex.segments() {
                    let xs = ex.slice_segment(x, s);
                    segs.push(ex.scoped(s, |ex| window_concat(ex, xs, *window)));
                }
                let windowed = ex.concat_segments(&segs);
                lin.forward_act(ex, store, windowed, Activation::Tanh)
            }
            EncoderImpl::Cnn { layers, width, global } => {
                let mut h = x;
                for (w, b) in layers {
                    let wv = ex.param(store, *w);
                    let bv = ex.param(store, *b);
                    h = ex.conv1d_act(h, wv, bv, *width, 1, Activation::Relu);
                }
                if !*global {
                    return h;
                }
                // Fig. 5's sentence-level global feature: max over time,
                // broadcast back over that sentence's positions only.
                let mut segs = Vec::with_capacity(ex.segments());
                for s in 0..ex.segments() {
                    let hs = ex.slice_segment(h, s);
                    let n = ex.value(hs).rows();
                    segs.push(ex.scoped(s, |ex| {
                        let g = ex.max_over_rows(hs);
                        ex.concat_rows(&vec![g; n])
                    }));
                }
                let broadcast = ex.concat_segments(&segs);
                ex.concat_cols(&[h, broadcast])
            }
            EncoderImpl::IdCnn { initial, block, width, iterations } => {
                let wv = ex.param(store, initial.0);
                let bv = ex.param(store, initial.1);
                let mut h = ex.conv1d_act(x, wv, bv, *width, 1, Activation::Relu);
                for _ in 0..*iterations {
                    for (w, b, dil) in block {
                        let wv = ex.param(store, *w);
                        let bv = ex.param(store, *b);
                        h = ex.conv1d_act(h, wv, bv, *width, *dil, Activation::Relu);
                    }
                }
                h
            }
            EncoderImpl::Lstm { layers } => {
                let mut h = x;
                for (fw, bw) in layers {
                    h = match bw {
                        Some(bw) => nn::bidirectional(ex, store, fw, bw, h),
                        None => fw.sequence(ex, store, h),
                    };
                }
                h
            }
            EncoderImpl::Gru { fw, bw } => match bw {
                Some(bw) => {
                    let f = fw.sequence(ex, store, x);
                    let b = bw.sequence_rev(ex, store, x);
                    ex.concat_cols(&[f, b])
                }
                None => fw.sequence(ex, store, x),
            },
            EncoderImpl::Transformer { proj, blocks, d_model } => {
                let p = proj.forward(ex, store, x);
                let n = ex.value(p).rows();
                let pe = ex.positional_encoding(n, *d_model);
                let mut h = ex.add(p, pe);
                for block in blocks {
                    h = block.forward(ex, store, h, false);
                }
                h
            }
        }
    }
}

/// Concatenates each row with its ±`window` neighbors (zero-padded at the
/// edges): `[n, d] → [n, (2·window+1)·d]`. Collobert's window approach.
pub fn window_concat<E: Exec>(ex: &mut E, x: E::V, window: usize) -> E::V {
    let (n, d) = ex.value(x).shape();
    let mut parts = Vec::with_capacity(2 * window + 1);
    for offset in -(window as isize)..=(window as isize) {
        let shifted = if offset == 0 {
            x
        } else if offset < 0 {
            // Row t sees row t+offset (earlier): pad |offset| zero rows on top.
            let k = (-offset) as usize;
            if k >= n {
                ex.constant(Tensor::zeros(n, d))
            } else {
                let zeros = ex.constant(Tensor::zeros(k, d));
                let body = ex.slice_rows(x, 0, n - k);
                ex.concat_rows(&[zeros, body])
            }
        } else {
            let k = offset as usize;
            if k >= n {
                ex.constant(Tensor::zeros(n, d))
            } else {
                let body = ex.slice_rows(x, k, n - k);
                let zeros = ex.constant(Tensor::zeros(k, d));
                ex.concat_rows(&[body, zeros])
            }
        };
        parts.push(shifted);
    }
    ex.concat_cols(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EncoderKind;
    use ner_tensor::{Tape, Tensor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_shape(kind: EncoderKind, in_dim: usize, n: usize) -> usize {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let enc = Encoder::new(&mut store, &mut rng, "enc", in_dim, &kind);
        let mut tape = Tape::new();
        let x = tape.constant(init::uniform(&mut rng, n, in_dim, 1.0));
        let y = enc.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (n, enc.out_dim()));
        assert!(tape.value(y).all_finite());
        enc.out_dim()
    }

    #[test]
    fn all_encoders_produce_declared_shapes() {
        assert_eq!(check_shape(EncoderKind::Identity, 10, 5), 10);
        assert_eq!(check_shape(EncoderKind::WindowMlp { window: 2, hidden: 16 }, 6, 5), 16);
        assert_eq!(
            check_shape(EncoderKind::Cnn { filters: 12, layers: 2, width: 3, global: false }, 8, 6),
            12
        );
        assert_eq!(
            check_shape(EncoderKind::Cnn { filters: 12, layers: 1, width: 3, global: true }, 8, 6),
            24
        );
        assert_eq!(
            check_shape(
                EncoderKind::IdCnn {
                    filters: 10,
                    width: 3,
                    dilations: vec![1, 2, 4],
                    iterations: 2
                },
                8,
                9
            ),
            10
        );
        assert_eq!(
            check_shape(EncoderKind::Lstm { hidden: 7, bidirectional: true, layers: 2 }, 5, 4),
            14
        );
        assert_eq!(
            check_shape(EncoderKind::Lstm { hidden: 7, bidirectional: false, layers: 1 }, 5, 4),
            7
        );
        assert_eq!(check_shape(EncoderKind::Gru { hidden: 6, bidirectional: true }, 5, 4), 12);
        assert_eq!(
            check_shape(
                EncoderKind::Transformer { d_model: 16, heads: 2, layers: 2, d_ff: 32 },
                5,
                4
            ),
            16
        );
    }

    #[test]
    fn window_concat_places_neighbors() {
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let w = window_concat(&mut tape, x, 1);
        let v = tape.value(w);
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(v.row(0), &[0.0, 1.0, 2.0]); // left edge zero-padded
        assert_eq!(v.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(v.row(2), &[2.0, 3.0, 0.0]); // right edge zero-padded
    }

    #[test]
    fn single_token_sentences_are_handled() {
        for kind in [
            EncoderKind::Lstm { hidden: 5, bidirectional: true, layers: 1 },
            EncoderKind::Cnn { filters: 5, layers: 1, width: 3, global: true },
            EncoderKind::IdCnn { filters: 5, width: 3, dilations: vec![1, 2], iterations: 1 },
            EncoderKind::WindowMlp { window: 2, hidden: 5 },
            EncoderKind::Transformer { d_model: 8, heads: 2, layers: 1, d_ff: 16 },
        ] {
            check_shape(kind, 4, 1);
        }
    }

    #[test]
    fn idcnn_receptive_field_grows_with_dilation() {
        // With dilations [1,2,4] and width 3, a change at position 0 must
        // influence position 7 (receptive field 1+2(1+2+4)=15).
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let enc = Encoder::new(
            &mut store,
            &mut rng,
            "enc",
            3,
            &EncoderKind::IdCnn { filters: 6, width: 3, dilations: vec![1, 2, 4], iterations: 1 },
        );
        let base = init::uniform(&mut rng, 10, 3, 1.0);
        let mut tweaked = base.clone();
        tweaked.set2(0, 0, tweaked.at2(0, 0) + 1.0);
        let mut t1 = Tape::new();
        let x1 = t1.constant(base);
        let y1 = enc.forward(&mut t1, &store, x1);
        let mut t2 = Tape::new();
        let x2 = t2.constant(tweaked);
        let y2 = enc.forward(&mut t2, &store, x2);
        let diff: f32 =
            t1.value(y1).row(7).iter().zip(t2.value(y2).row(7)).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-7, "dilated stack should reach position 7 from position 0");
    }
}
