//! Tag decoder architectures — the final axis of the survey's taxonomy
//! (paper §3.4, Fig. 12): MLP+softmax, linear-chain CRF, semi-Markov CRF,
//! greedy RNN decoder and pointer network.

pub mod crf;
pub mod pointer;
pub mod rnn_decoder;
pub mod semicrf;

pub use crf::Crf;
pub use pointer::PointerDecoder;
pub use rnn_decoder::RnnDecoder;
pub use semicrf::{Segment, SemiCrf};

use ner_tensor::{Tape, Tensor, Var};

/// Numerically stable log-sum-exp over a slice.
pub(crate) fn logsumexp(xs: &[f64]) -> f64 {
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max.is_infinite() {
        return max;
    }
    max + xs.iter().map(|x| (x - max).exp()).sum::<f64>().ln()
}

/// Records a scalar loss whose gradients were precomputed (the CRF
/// decoders' forward–backward): on backward, each parent's gradient in
/// `grads` is scaled by the upstream scalar.
pub(crate) fn loss_with_grads(
    tape: &mut Tape,
    loss: f32,
    parents: &[Var],
    grads: Vec<Tensor>,
) -> Var {
    tape.custom(Tensor::scalar(loss), parents, move |g| {
        let s = g.item();
        grads
            .iter()
            .map(|t| {
                let mut t = t.clone();
                t.scale_in_place(s);
                Some(t)
            })
            .collect()
    })
}
