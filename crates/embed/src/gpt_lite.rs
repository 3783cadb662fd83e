//! GPT-lite: a left-to-right Transformer language model (Radford et al.
//! 2018; paper §3.3.5, Fig. 11 middle).
//!
//! The crate's shared `lm::TransformerLm` core with causal attention,
//! pretrained with the next-token objective over lowercased word ids; as a
//! feature extractor a token's representation is the final hidden state at
//! its own position — which, by construction, conditions only on the *left*
//! context. The Fig. 11 experiment contrasts this with BERT-lite's
//! bidirectional conditioning.

use crate::lm::{held_out_nll, TransformerLm};
use crate::ContextualEmbedder;
use ner_tensor::{Tape, Var};
use ner_text::Vocab;
use rand::Rng;

/// GPT-lite hyperparameters.
#[derive(Clone, Debug)]
pub struct GptConfig {
    /// Model width.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// Transformer blocks.
    pub layers: usize,
    /// Feed-forward hidden width.
    pub d_ff: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Vocabulary frequency floor.
    pub min_count: usize,
}

impl Default for GptConfig {
    fn default() -> Self {
        GptConfig { d_model: 32, heads: 2, layers: 2, d_ff: 64, epochs: 3, lr: 0.005, min_count: 1 }
    }
}

/// A trained causal Transformer LM.
pub struct GptLite {
    vocab: Vocab,
    lm: TransformerLm,
}

const BOS: &str = "<s>";

/// Summed next-token NLL of `ids` (all but the last position predict the
/// next id) and its prediction count, or `None` for fewer than 2 ids.
fn next_token_loss(lm: &TransformerLm, tape: &mut Tape, ids: &[usize]) -> Option<(Var, usize)> {
    if ids.len() < 2 {
        return None;
    }
    let h = lm.encode(tape, &ids[..ids.len() - 1], true);
    let logits = lm.logits(tape, h);
    Some((tape.cross_entropy_sum(logits, &ids[1..]), ids.len() - 1))
}

impl GptLite {
    fn ids(&self, tokens: &[String]) -> Vec<usize> {
        let mut ids = vec![self.vocab.get_or_unk(BOS)];
        ids.extend(tokens.iter().map(|t| self.vocab.get_or_unk(&t.to_lowercase())));
        ids
    }

    /// Trains on a tokenized corpus; returns the model and per-epoch average
    /// NLL per predicted token.
    pub fn train(corpus: &[Vec<String>], cfg: &GptConfig, rng: &mut impl Rng) -> (Self, Vec<f32>) {
        let mut vocab = Vocab::build(
            corpus.iter().flat_map(|s| s.iter().map(|t| t.to_lowercase())),
            cfg.min_count,
        );
        vocab.add(BOS);
        let lm = TransformerLm::new(
            "gpt",
            vocab.len(),
            cfg.d_model,
            cfg.heads,
            cfg.layers,
            cfg.d_ff,
            rng,
        );
        let mut model = GptLite { vocab, lm };
        let seqs: Vec<Vec<usize>> = corpus.iter().map(|s| model.ids(s)).collect();
        let epoch_nll =
            model.lm.fit(&seqs, cfg.epochs, cfg.lr, |lm, tape, ids| next_token_loss(lm, tape, ids));
        (model, epoch_nll)
    }

    /// Average next-token NLL on held-out data.
    pub fn nll(&self, corpus: &[Vec<String>]) -> f64 {
        let seqs = corpus.iter().map(|s| self.ids(s));
        held_out_nll(seqs, |tape, ids| next_token_loss(&self.lm, tape, ids))
    }
}

impl ContextualEmbedder for GptLite {
    fn dim(&self) -> usize {
        self.lm.dim()
    }

    fn embed(&self, tokens: &[String]) -> Vec<Vec<f32>> {
        if tokens.is_empty() {
            return vec![];
        }
        let mut tape = Tape::new();
        let h = self.lm.encode(&mut tape, &self.ids(tokens), true);
        let v = tape.value(h);
        // Token k sits at position k+1 (after BOS).
        (1..=tokens.len()).map(|p| v.row(p).to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn corpus(n: usize, seed: u64) -> Vec<Vec<String>> {
        NewsGenerator::new(GeneratorConfig::default())
            .lm_sentences(&mut StdRng::seed_from_u64(seed), n)
    }

    #[test]
    fn training_reduces_nll() {
        let c = corpus(50, 1);
        let cfg = GptConfig { epochs: 3, ..Default::default() };
        let (_, nll) = GptLite::train(&c, &cfg, &mut StdRng::seed_from_u64(2));
        assert!(nll.last().unwrap() < nll.first().unwrap(), "NLL should fall: {nll:?}");
    }

    #[test]
    fn representations_are_left_context_only() {
        let c = corpus(30, 3);
        let (lm, _) = GptLite::train(
            &c,
            &GptConfig { epochs: 1, ..Default::default() },
            &mut StdRng::seed_from_u64(4),
        );
        // Substitute two distinct in-vocab words at the final position so the
        // contrast is meaningful regardless of which names the sampled corpus
        // happens to contain (out-of-vocab words would both collapse to UNK).
        let mut words: Vec<String> = c.iter().flatten().map(|w| w.to_lowercase()).collect();
        words.sort();
        words.dedup();
        let (w1, w2) = (words[0].clone(), words[1].clone());
        let a: Vec<String> = vec!["Jordan".into(), "visited".into(), w1];
        let b: Vec<String> = vec!["Jordan".into(), "visited".into(), w2];
        let (ea, eb) = (lm.embed(&a), lm.embed(&b));
        // Changing a FUTURE token must not change a causal representation.
        for (x, y) in ea[0].iter().zip(&eb[0]) {
            assert!((x - y).abs() < 1e-6, "causal embedding saw the future");
        }
        // But the changed position itself differs.
        let diff: f32 = ea[2].iter().zip(&eb[2]).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4);
    }
}
