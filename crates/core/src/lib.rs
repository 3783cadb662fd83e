//! # ner-core — the neural NER toolkit of `neural-ner`
//!
//! This crate is the survey's primary deliverable: the "easy-to-use toolkit
//! for DL-based NER" its future-work section calls for, with *standardized
//! modules* for every axis of the paper's taxonomy (Fig. 2):
//!
//! * **data processing** — [`repr::SentenceEncoder`] / [`repr::EncodedSentence`];
//! * **input representation** (§3.2) — [`repr::InputLayer`]: word embeddings
//!   (random or pretrained, fixed or fine-tuned), char-CNN / char-BiLSTM,
//!   Rei-style char/word gating, hand-crafted + gazetteer features, frozen
//!   contextual-LM vectors;
//! * **context encoder** (§3.3) — [`encoder::Encoder`]: window-MLP, CNN,
//!   ID-CNN, (Bi)LSTM, (Bi)GRU, Transformer, plus the recursive
//!   tree encoder ([`encoder::recursive`], Fig. 8);
//! * **tag decoder** (§3.4) — [`decoder`]: softmax, linear-chain CRF (with
//!   constrained Viterbi), semi-Markov CRF, greedy RNN, pointer network;
//! * **effectiveness measure** (§2.3) — [`metrics`]: exact micro/macro
//!   P/R/F1, MUC-style relaxed match, seen/unseen recall splits.
//!
//! [`config::NerConfig`] picks one cell per axis; [`model::NerModel`]
//! assembles it; [`trainer`] fits it; [`inference::NerPipeline`] deploys it;
//! [`zoo`] provides named presets for the architectures of Table 3;
//! [`nested::LayeredNer`] stacks flat models for nested NER (§5.1).
//!
//! ```no_run
//! use ner_core::prelude::*;
//! use ner_corpus::{GeneratorConfig, NewsGenerator};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let gen = NewsGenerator::new(GeneratorConfig::default());
//! let train_ds = gen.dataset(&mut rng, 400);
//!
//! let encoder = SentenceEncoder::from_dataset(&train_ds, TagScheme::Bioes, 1);
//! let mut model = NerModel::new(NerConfig::default(), &encoder, None, &mut rng);
//! let train_enc = encoder.encode_dataset(&train_ds, None);
//! ner_core::trainer::train(&mut model, &train_enc, None, &TrainConfig::default(), &mut rng);
//!
//! let pipeline = NerPipeline::new(encoder, model);
//! println!("{}", pipeline.extract("Michael Jordan was born in Brooklyn.").render_brackets());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod decoder;
pub mod encoder;
pub mod inference;
pub mod metrics;
pub mod model;
pub mod nested;
pub mod persist;
pub mod plan;
pub mod repr;
pub mod trainer;
pub mod zoo;

/// Convenient re-exports for typical usage.
pub mod prelude {
    pub use crate::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
    pub use crate::inference::NerPipeline;
    pub use crate::metrics::{evaluate, EvalResult, Prf};
    pub use crate::model::NerModel;
    pub use crate::persist::Checkpoint;
    pub use crate::plan::ForwardPlan;
    pub use crate::repr::{EncodedSentence, SentenceEncoder};
    pub use crate::trainer::{evaluate_model, predict_all, train, TrainConfig};
    pub use ner_text::{Dataset, EntitySpan, Sentence, TagScheme};
}
