//! ELMo-style contextual embeddings from a word-level bidirectional LSTM
//! language model (Peters et al. 2018; paper §3.3.4, Fig. 11 right).
//!
//! A forward LM predicts the next word, an independent backward LM predicts
//! the previous word; a token's contextual representation concatenates the
//! two hidden states at its position. The LM is the crate's shared
//! `lm::BiLstmLm` core over lowercased word ids framed by `<s>`/`</s>`;
//! following the original ELMo recipe the two directions share the input
//! embedding table but nothing else.

use crate::lm::BiLstmLm;
use crate::ContextualEmbedder;
use ner_text::Vocab;
use rand::Rng;

/// ELMo-lite hyperparameters.
#[derive(Clone, Debug)]
pub struct ElmoConfig {
    /// Word embedding dimensionality.
    pub dim: usize,
    /// LSTM hidden size per direction.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Vocabulary frequency floor.
    pub min_count: usize,
}

impl Default for ElmoConfig {
    fn default() -> Self {
        ElmoConfig { dim: 24, hidden: 32, epochs: 3, lr: 0.01, min_count: 1 }
    }
}

/// A trained bidirectional word-level LM.
pub struct ElmoLm {
    vocab: Vocab,
    lm: BiLstmLm,
}

const BOS: &str = "<s>";
const EOS: &str = "</s>";

impl ElmoLm {
    fn ids(&self, tokens: &[String]) -> Vec<usize> {
        let mut ids = vec![self.vocab.get_or_unk(BOS)];
        ids.extend(tokens.iter().map(|t| self.vocab.get_or_unk(&t.to_lowercase())));
        ids.push(self.vocab.get_or_unk(EOS));
        ids
    }

    /// Trains on a tokenized corpus; returns the model and per-epoch average
    /// NLL per prediction.
    pub fn train(corpus: &[Vec<String>], cfg: &ElmoConfig, rng: &mut impl Rng) -> (Self, Vec<f32>) {
        let mut vocab = Vocab::build(
            corpus.iter().flat_map(|s| s.iter().map(|t| t.to_lowercase())),
            cfg.min_count,
        );
        vocab.add(BOS);
        vocab.add(EOS);
        let lm = BiLstmLm::new("elmo", vocab.len(), cfg.dim, cfg.hidden, rng);
        let mut model = ElmoLm { vocab, lm };
        let seqs: Vec<Vec<usize>> = corpus.iter().map(|s| model.ids(s)).collect();
        let epoch_nll = model.lm.fit(&seqs, cfg.epochs, cfg.lr);
        (model, epoch_nll)
    }

    /// Average NLL per prediction on held-out data.
    pub fn nll(&self, corpus: &[Vec<String>]) -> f64 {
        self.lm.nll(corpus.iter().map(|s| self.ids(s)))
    }
}

impl ContextualEmbedder for ElmoLm {
    fn dim(&self) -> usize {
        self.lm.dim()
    }

    fn embed(&self, tokens: &[String]) -> Vec<Vec<f32>> {
        if tokens.is_empty() {
            return vec![];
        }
        let (fw, bw) = self.lm.states(&self.ids(tokens));
        // Token k sits at id position k+1 (after BOS).
        (1..=tokens.len()).map(|p| [fw.row(p), bw.row(p)].concat()).collect()
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
        let c = corpus(60, 1);
        let cfg = ElmoConfig { epochs: 3, ..Default::default() };
        let (_, nll) = ElmoLm::train(&c, &cfg, &mut StdRng::seed_from_u64(2));
        assert!(nll.last().unwrap() < nll.first().unwrap(), "NLL should fall: {nll:?}");
    }

    #[test]
    fn embeddings_have_declared_dim_and_are_contextual() {
        let c = corpus(60, 3);
        let (lm, _) = ElmoLm::train(
            &c,
            &ElmoConfig { epochs: 2, ..Default::default() },
            &mut StdRng::seed_from_u64(4),
        );
        let s1: Vec<String> =
            ["Jordan", "visited", "Paris"].iter().map(|s| s.to_string()).collect();
        let s2: Vec<String> = ["shares", "of", "Jordan"].iter().map(|s| s.to_string()).collect();
        let (e1, e2) = (lm.embed(&s1), lm.embed(&s2));
        assert_eq!(e1.len(), 3);
        assert_eq!(e1[0].len(), lm.dim());
        let diff: f32 = e1[0].iter().zip(&e2[2]).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-4, "same word in different contexts must differ");
    }

    #[test]
    fn held_out_nll_is_finite() {
        let c = corpus(40, 5);
        let (lm, _) = ElmoLm::train(
            &c,
            &ElmoConfig { epochs: 1, ..Default::default() },
            &mut StdRng::seed_from_u64(6),
        );
        let held = corpus(10, 99);
        assert!(lm.nll(&held).is_finite());
    }
}
