//! BERT-lite: a bidirectional Transformer pretrained with a masked
//! (cloze-style) language-model objective over a BPE subword vocabulary
//! (Devlin et al. 2019; paper §3.3.5, Fig. 11 left; Baevski et al.'s
//! cloze-driven pretraining is the same objective family).
//!
//! The network is the crate's shared `lm::TransformerLm` core with
//! unmasked attention; this module keeps the subword vocabulary and the
//! 80/10/10 masking objective. As a feature extractor, a word's
//! representation is the mean of its subword pieces' final hidden states —
//! each of which conditions on *both* left and right context, the property
//! Fig. 11 credits for BERT's edge over the causal GPT.

use crate::lm::TransformerLm;
use crate::subword::Bpe;
use crate::ContextualEmbedder;
use ner_tensor::Tape;
use ner_text::Vocab;
use rand::Rng;

/// BERT-lite hyperparameters.
#[derive(Clone, Debug)]
pub struct BertConfig {
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
    /// Fraction of pieces selected for masking.
    pub mask_prob: f64,
    /// Number of BPE merges to learn.
    pub merges: usize,
}

impl Default for BertConfig {
    fn default() -> Self {
        BertConfig {
            d_model: 32,
            heads: 2,
            layers: 2,
            d_ff: 64,
            epochs: 3,
            lr: 0.005,
            mask_prob: 0.15,
            merges: 150,
        }
    }
}

/// A trained masked-LM Transformer.
pub struct BertLite {
    bpe: Bpe,
    vocab: Vocab,
    lm: TransformerLm,
}

const CLS: &str = "<cls>";
const MASK: &str = "<mask>";

impl BertLite {
    /// Encodes tokens to piece ids plus, per word, its piece span.
    fn pieces(&self, tokens: &[String]) -> (Vec<usize>, Vec<(usize, usize)>) {
        let mut ids = vec![self.vocab.get_or_unk(CLS)];
        let mut spans = Vec::with_capacity(tokens.len());
        for tok in tokens {
            let start = ids.len();
            for piece in self.bpe.encode_word(tok) {
                ids.push(self.vocab.get_or_unk(&piece));
            }
            spans.push((start, ids.len()));
        }
        (ids, spans)
    }

    /// Trains on a tokenized corpus; returns the model and per-epoch average
    /// masked-position NLL.
    pub fn train(corpus: &[Vec<String>], cfg: &BertConfig, rng: &mut impl Rng) -> (Self, Vec<f32>) {
        let bpe = Bpe::learn(corpus, cfg.merges);
        let mut vocab = Vocab::new();
        vocab.add(CLS);
        vocab.add(MASK);
        for piece in bpe.piece_inventory(corpus) {
            vocab.add(&piece);
        }
        let lm = TransformerLm::new(
            "bert",
            vocab.len(),
            cfg.d_model,
            cfg.heads,
            cfg.layers,
            cfg.d_ff,
            rng,
        );
        let mut model = BertLite { bpe, vocab, lm };

        let mask_id = model.vocab.get(MASK).expect("mask token registered");
        let vocab_len = model.vocab.len();
        let seqs: Vec<Vec<usize>> = corpus.iter().map(|s| model.pieces(s).0).collect();
        let epoch_nll = model.lm.fit(&seqs, cfg.epochs, cfg.lr, |lm, tape, ids| {
            if ids.len() < 3 {
                return None;
            }
            // BERT's 80/10/10 corruption of selected positions.
            let mut corrupted = ids.clone();
            let mut masked: Vec<(usize, usize)> = Vec::new(); // (position, original)
            for (pos, &orig) in ids.iter().enumerate().skip(1) {
                if rng.gen_bool(cfg.mask_prob) {
                    let roll: f64 = rng.gen();
                    corrupted[pos] = if roll < 0.8 {
                        mask_id
                    } else if roll < 0.9 {
                        rng.gen_range(2..vocab_len)
                    } else {
                        orig
                    };
                    masked.push((pos, orig));
                }
            }
            if masked.is_empty() {
                return None;
            }
            let h = lm.encode(tape, &corrupted, false);
            // Score only the masked rows.
            let rows: Vec<ner_tensor::Var> =
                masked.iter().map(|&(pos, _)| tape.row(h, pos)).collect();
            let picked = tape.concat_rows(&rows);
            let logits = lm.logits(tape, picked);
            let targets: Vec<usize> = masked.iter().map(|&(_, orig)| orig).collect();
            Some((tape.cross_entropy_sum(logits, &targets), targets.len()))
        });
        (model, epoch_nll)
    }

    /// The learned BPE table.
    pub fn bpe(&self) -> &Bpe {
        &self.bpe
    }
}

impl ContextualEmbedder for BertLite {
    fn dim(&self) -> usize {
        self.lm.dim()
    }

    fn embed(&self, tokens: &[String]) -> Vec<Vec<f32>> {
        if tokens.is_empty() {
            return vec![];
        }
        let (ids, spans) = self.pieces(tokens);
        let mut tape = Tape::new();
        let h = self.lm.encode(&mut tape, &ids, false);
        let v = tape.value(h);
        spans
            .iter()
            .map(|&(s, e)| {
                let mut mean = vec![0.0f32; self.lm.dim()];
                for r in s..e {
                    for (m, &x) in mean.iter_mut().zip(v.row(r)) {
                        *m += x;
                    }
                }
                let inv = 1.0 / (e - s) as f32;
                mean.iter_mut().for_each(|m| *m *= inv);
                mean
            })
            .collect()
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
    fn training_reduces_masked_nll() {
        let c = corpus(60, 1);
        let cfg = BertConfig { epochs: 3, merges: 80, ..Default::default() };
        let (_, nll) = BertLite::train(&c, &cfg, &mut StdRng::seed_from_u64(2));
        assert!(nll.last().unwrap() < nll.first().unwrap(), "masked NLL should fall: {nll:?}");
    }

    #[test]
    fn representations_are_bidirectional() {
        let c = corpus(30, 3);
        let (lm, _) = BertLite::train(
            &c,
            &BertConfig { epochs: 1, merges: 60, ..Default::default() },
            &mut StdRng::seed_from_u64(4),
        );
        let a: Vec<String> = ["Jordan", "visited", "Paris"].iter().map(|s| s.to_string()).collect();
        let b: Vec<String> = ["Jordan", "visited", "Tokyo"].iter().map(|s| s.to_string()).collect();
        let (ea, eb) = (lm.embed(&a), lm.embed(&b));
        assert_eq!(ea[0].len(), lm.dim());
        // Changing a future token DOES change position 0 (unlike GPT-lite).
        let diff: f32 = ea[0].iter().zip(&eb[0]).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-6, "bidirectional embedding should see right context");
    }

    #[test]
    fn word_reps_average_their_pieces() {
        let c = corpus(20, 5);
        let (lm, _) = BertLite::train(
            &c,
            &BertConfig { epochs: 1, merges: 40, ..Default::default() },
            &mut StdRng::seed_from_u64(6),
        );
        let toks: Vec<String> = ["unbelievableword"].iter().map(|s| s.to_string()).collect();
        let e = lm.embed(&toks);
        assert_eq!(e.len(), 1);
        assert!(e[0].iter().all(|x| x.is_finite()));
    }
}
