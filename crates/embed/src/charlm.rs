//! Contextual string embeddings from a character-level language model
//! (Akbik et al. 2018; paper Fig. 4 and Table 3 row \[106\]).
//!
//! A forward and a backward character LSTM LM (the crate's shared
//! `lm::BiLstmLm` core over character ids) are trained over raw sentence
//! character streams. A word's embedding is the concatenation of the
//! forward LM's hidden state after the word's **last** character and the
//! backward LM's hidden state at the word's **first** character — both
//! therefore condition on the word *and* its sentential context, so the same
//! word receives different vectors in different contexts (the polysemy
//! property highlighted in the paper).

use crate::lm::BiLstmLm;
use crate::ContextualEmbedder;
use ner_text::Vocab;
use rand::Rng;

/// Character-LM hyperparameters.
#[derive(Clone, Debug)]
pub struct CharLmConfig {
    /// Character embedding dimensionality.
    pub dim: usize,
    /// LSTM hidden size per direction.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for CharLmConfig {
    fn default() -> Self {
        CharLmConfig { dim: 16, hidden: 32, epochs: 3, lr: 0.01 }
    }
}

/// A trained forward+backward character language model.
pub struct CharLm {
    vocab: Vocab,
    lm: BiLstmLm,
}

const BOS: &str = "<bos>";
const EOS: &str = "<eos>";

fn char_ids(vocab: &Vocab, tokens: &[String]) -> (Vec<usize>, Vec<(usize, usize)>) {
    // ids = [BOS] ++ chars of "tok₀ tok₁ …" ++ [EOS];
    // spans[k] = the [start, end) id-range of token k's characters.
    let mut ids = vec![vocab.get_or_unk(BOS)];
    let mut spans = Vec::with_capacity(tokens.len());
    for (k, tok) in tokens.iter().enumerate() {
        if k > 0 {
            ids.push(vocab.get_or_unk(" "));
        }
        let start = ids.len();
        for c in tok.chars() {
            ids.push(vocab.get_or_unk(&c.to_string()));
        }
        spans.push((start, ids.len()));
    }
    ids.push(vocab.get_or_unk(EOS));
    (ids, spans)
}

impl CharLm {
    /// Trains the model on a tokenized corpus; returns the model and the
    /// per-epoch average NLL-per-character (should be decreasing).
    pub fn train(
        corpus: &[Vec<String>],
        cfg: &CharLmConfig,
        rng: &mut impl Rng,
    ) -> (Self, Vec<f32>) {
        let mut vocab = Vocab::new();
        vocab.add(BOS);
        vocab.add(EOS);
        vocab.add(" ");
        for sent in corpus {
            for tok in sent {
                for c in tok.chars() {
                    vocab.add(&c.to_string());
                }
            }
        }
        let mut lm = BiLstmLm::new("charlm", vocab.len(), cfg.dim, cfg.hidden, rng);
        let seqs: Vec<Vec<usize>> = corpus.iter().map(|s| char_ids(&vocab, s).0).collect();
        let epoch_nll = lm.fit(&seqs, cfg.epochs, cfg.lr);
        (CharLm { vocab, lm }, epoch_nll)
    }

    /// Average NLL per character over a held-out corpus (exp → perplexity).
    pub fn nll_per_char(&self, corpus: &[Vec<String>]) -> f64 {
        self.lm.nll(corpus.iter().map(|s| char_ids(&self.vocab, s).0))
    }

    /// The character vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }
}

impl ContextualEmbedder for CharLm {
    fn dim(&self) -> usize {
        self.lm.dim()
    }

    fn embed(&self, tokens: &[String]) -> Vec<Vec<f32>> {
        if tokens.is_empty() {
            return vec![];
        }
        let (ids, spans) = char_ids(&self.vocab, tokens);
        let (fw, bw) = self.lm.states(&ids);
        // Forward state after the last char, backward state at the first.
        spans.iter().map(|&(s, e)| [fw.row(e - 1), bw.row(s)].concat()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_corpus(n: usize, seed: u64) -> Vec<Vec<String>> {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        gen.lm_sentences(&mut StdRng::seed_from_u64(seed), n)
    }

    #[test]
    fn char_ids_spans_are_correct() {
        let mut vocab = Vocab::new();
        vocab.add(BOS);
        vocab.add(EOS);
        vocab.add(" ");
        for c in "abc".chars() {
            vocab.add(&c.to_string());
        }
        let tokens = vec!["ab".to_string(), "c".to_string()];
        let (ids, spans) = char_ids(&vocab, &tokens);
        // [BOS] a b ' ' c [EOS]
        assert_eq!(ids.len(), 6);
        assert_eq!(spans, vec![(1, 3), (4, 5)]);
    }

    #[test]
    fn training_reduces_nll() {
        let corpus = tiny_corpus(60, 1);
        let cfg = CharLmConfig { epochs: 3, hidden: 24, ..Default::default() };
        let (_, nll) = CharLm::train(&corpus, &cfg, &mut StdRng::seed_from_u64(2));
        assert!(nll.last().unwrap() < nll.first().unwrap(), "NLL should fall: {nll:?}");
    }

    #[test]
    fn embeddings_are_contextual() {
        let corpus = tiny_corpus(60, 3);
        let cfg = CharLmConfig { epochs: 2, ..Default::default() };
        let (lm, _) = CharLm::train(&corpus, &cfg, &mut StdRng::seed_from_u64(4));
        let a: Vec<String> = ["Jordan", "visited", "Paris"].iter().map(|s| s.to_string()).collect();
        let b: Vec<String> = ["shares", "of", "Jordan"].iter().map(|s| s.to_string()).collect();
        let ea = lm.embed(&a);
        let eb = lm.embed(&b);
        assert_eq!(ea[0].len(), lm.dim());
        // Same surface "Jordan", different contexts → different vectors.
        let diff: f32 = ea[0].iter().zip(&eb[2]).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "contextual embeddings must differ across contexts");
    }

    #[test]
    fn empty_sentence_embeds_to_empty() {
        let corpus = tiny_corpus(20, 5);
        let (lm, _) = CharLm::train(
            &corpus,
            &CharLmConfig { epochs: 1, ..Default::default() },
            &mut StdRng::seed_from_u64(6),
        );
        assert!(lm.embed(&[]).is_empty());
    }
}
