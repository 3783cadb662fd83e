//! # ner-embed — embedding pretraining for `neural-ner`
//!
//! The "distributed representations for input" axis of the survey's taxonomy
//! (paper §3.2) needs pretrained vectors; this crate trains every family the
//! paper discusses, on the synthetic LM corpus from `ner-corpus`:
//!
//! **Static word embeddings** (paper §3.2.1 — the "Google Word2Vec /
//! Stanford GloVe / SENNA" analogs):
//! * [`skipgram`] — skip-gram with negative sampling,
//! * [`cbow`] — continuous bag-of-words,
//! * [`glove`] — weighted co-occurrence factorization,
//!
//! all producing a [`WordEmbeddings`] artifact.
//!
//! **Contextual language-model embeddings** (paper §3.3.4–3.3.5, Figs. 4 and
//! 11), all implementing [`ContextualEmbedder`] on top of two shared cores
//! in the private `lm` module — a forward+backward LSTM LM (`BiLstmLm`) and
//! a Transformer LM (`TransformerLm`) — each trained by
//! `ner_tensor::optim::fit_per_example`:
//! * [`charlm::CharLm`] — Flair-style contextual *string* embeddings
//!   (`BiLstmLm` over characters),
//! * [`elmo::ElmoLm`] — ELMo-style biLSTM word LM (`BiLstmLm` over words),
//! * [`gpt_lite::GptLite`] — left-to-right Transformer LM (causal
//!   `TransformerLm`),
//! * [`bert_lite::BertLite`] — bidirectional masked-LM Transformer over a
//!   [`subword`] BPE vocabulary (unmasked `TransformerLm`).

#![warn(missing_docs)]

pub mod bert_lite;
pub mod cbow;
pub mod charlm;
pub mod elmo;
pub mod glove;
pub mod gpt_lite;
mod lm;
mod pretrained;
pub mod skipgram;
pub mod subword;

pub use pretrained::{cosine, WordEmbeddings};

/// A frozen contextual embedder: maps a token sequence to one vector per
/// token, where each vector conditions on the whole sentence (or, for
/// causal models, its left context).
///
/// This is the interface `ner-core`'s hybrid input representation consumes —
/// the "language model embeddings" column of the paper's Table 3.
pub trait ContextualEmbedder {
    /// Output dimensionality per token.
    fn dim(&self) -> usize;
    /// Embeds a sentence; the result has exactly `tokens.len()` entries.
    fn embed(&self, tokens: &[String]) -> Vec<Vec<f32>>;
}
