//! Continuous bag-of-words with negative sampling (the other word2vec
//! objective of Mikolov et al. 2013, paper §3.2.1): predict the center word
//! from the *average* of its context vectors.

use crate::pretrained::WordEmbeddings;
use crate::skipgram::{index_counts, NegativeTable, SkipGramConfig};
use ner_tensor::math::sigmoid;
use ner_tensor::Tensor;
use ner_text::Vocab;
use rand::Rng;

/// Trains CBOW embeddings on a tokenized corpus. Shares the configuration
/// struct with skip-gram (the hyperparameters have identical meanings).
pub fn train(corpus: &[Vec<String>], cfg: &SkipGramConfig, rng: &mut impl Rng) -> WordEmbeddings {
    let vocab =
        Vocab::build(corpus.iter().flat_map(|s| s.iter().map(|t| t.to_lowercase())), cfg.min_count);
    let counts = index_counts(corpus, &vocab);
    let negatives = NegativeTable::new(&counts);

    let v = vocab.len();
    let d = cfg.dim;
    let mut w_in: Vec<f32> = (0..v * d).map(|_| (rng.gen::<f32>() - 0.5) / d as f32).collect();
    let mut w_out: Vec<f32> = vec![0.0; v * d];

    let encoded: Vec<Vec<usize>> = corpus
        .iter()
        .map(|s| s.iter().filter_map(|t| vocab.get(&t.to_lowercase())).collect())
        .collect();
    let total_steps: usize = cfg.epochs * encoded.iter().map(Vec::len).sum::<usize>().max(1);
    let mut step = 0usize;

    let mut mean_ctx = vec![0.0f32; d];
    let mut grad_ctx = vec![0.0f32; d];
    for _ in 0..cfg.epochs {
        for sent in &encoded {
            for (pos, &center) in sent.iter().enumerate() {
                step += 1;
                let lr = (cfg.lr * (1.0 - step as f32 / total_steps as f32)).max(cfg.lr * 1e-4);
                let radius = rng.gen_range(1..=cfg.window);
                let lo = pos.saturating_sub(radius);
                let hi = (pos + radius + 1).min(sent.len());
                let context: Vec<usize> = (lo..hi).filter(|&p| p != pos).map(|p| sent[p]).collect();
                if context.is_empty() {
                    continue;
                }
                // Mean of context input vectors.
                mean_ctx.iter_mut().for_each(|x| *x = 0.0);
                for &c in &context {
                    for j in 0..d {
                        mean_ctx[j] += w_in[c * d + j];
                    }
                }
                let inv = 1.0 / context.len() as f32;
                mean_ctx.iter_mut().for_each(|x| *x *= inv);

                grad_ctx.iter_mut().for_each(|x| *x = 0.0);
                for neg in 0..=cfg.negatives {
                    let (target, label) =
                        if neg == 0 { (center, 1.0) } else { (negatives.sample(rng), 0.0) };
                    if neg > 0 && target == center {
                        continue;
                    }
                    let ti = target * d;
                    let dot: f32 = (0..d).map(|j| mean_ctx[j] * w_out[ti + j]).sum();
                    let err = (sigmoid(dot) - label) * lr;
                    for j in 0..d {
                        grad_ctx[j] += err * w_out[ti + j];
                        w_out[ti + j] -= err * mean_ctx[j];
                    }
                }
                for &c in &context {
                    for j in 0..d {
                        w_in[c * d + j] -= grad_ctx[j] * inv;
                    }
                }
            }
        }
    }

    WordEmbeddings::new(vocab, Tensor::from_vec(v, d, w_in))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cbow_learns_class_structure() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(17);
        let corpus = gen.lm_sentences(&mut rng, 1500);
        let cfg = SkipGramConfig { dim: 24, epochs: 5, ..Default::default() };
        let emb = train(&corpus, &cfg, &mut rng);
        let per_per = emb.cosine("sarah", "david");
        let per_func = emb.cosine("sarah", "the");
        assert!(per_per > per_func, "person-person {per_per} vs person-func {per_func}");
    }

    #[test]
    fn deterministic() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let corpus = gen.lm_sentences(&mut StdRng::seed_from_u64(3), 80);
        let cfg = SkipGramConfig { dim: 8, epochs: 1, ..Default::default() };
        let a = train(&corpus, &cfg, &mut StdRng::seed_from_u64(4));
        let b = train(&corpus, &cfg, &mut StdRng::seed_from_u64(4));
        assert_eq!(a.matrix(), b.matrix());
    }
}
