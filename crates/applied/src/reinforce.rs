//! Deep reinforcement learning for NER (paper §4.4; Yang et al. 2018).
//!
//! Distantly supervised corpora carry label noise; Yang et al. interpose a
//! reinforcement-learned *instance selector* between the noisy data and the
//! tagger: the selector chooses which sentences to train on, receives the
//! tagger's dev-set performance as reward, and is updated with policy
//! gradients (REINFORCE). Here the selector is a logistic policy over cheap
//! sentence features (tagger confidence, token entropy, annotation density,
//! length), which is exactly the signal that separates clean from corrupted
//! annotations.

use ner_core::model::NerModel;
use ner_core::repr::EncodedSentence;
use ner_core::trainer::{self, TrainConfig};
use rand::Rng;
use serde::Serialize;

/// Number of policy features.
pub const POLICY_DIM: usize = 4;

/// A logistic instance-selection policy.
#[derive(Clone, Debug, Serialize)]
pub struct SelectorPolicy {
    /// Feature weights (last entry is the bias).
    pub w: [f64; POLICY_DIM],
}

impl SelectorPolicy {
    /// Starts unbiased (keep probability 0.5 everywhere… plus a positive
    /// bias so early episodes keep most data).
    pub fn new() -> Self {
        SelectorPolicy { w: [0.0, 0.0, 0.0, 1.0] }
    }

    /// Keep probability for a feature vector: the workspace's one
    /// sigmoid, [`ner_tensor::math::sigmoid`], on the `f32`-rounded score.
    pub fn keep_prob(&self, phi: &[f64; POLICY_DIM]) -> f64 {
        let z: f64 = self.w.iter().zip(phi).map(|(w, x)| w * x).sum();
        ner_tensor::math::sigmoid(z as f32) as f64
    }
}

impl Default for SelectorPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// Sentence features for the policy: per-token NLL of the *given* labels
/// under the current tagger (the classic noisy-annotation signal — a
/// corrupted annotation is implausible to a half-decent model), tagger
/// confidence, mean token entropy, and a bias. Surface statistics (length,
/// entity density) are deliberately excluded: they correlate with example
/// *informativeness*, so a selector that keys on them biases the surviving
/// training set toward easy sentences.
pub fn features(model: &NerModel, enc: &EncodedSentence) -> [f64; POLICY_DIM] {
    let label_nll = model.nll_of_labels(enc);
    let conf = model.confidence(enc);
    let ents = model.token_entropies(enc);
    let mean_ent = ents.iter().sum::<f64>() / ents.len().max(1) as f64;
    [label_nll, conf, mean_ent, 1.0]
}

/// Outcome of the selector training.
#[derive(Clone, Debug, Serialize)]
pub struct ReinforceReport {
    /// Dev reward per episode.
    pub episode_rewards: Vec<f64>,
    /// Fraction of sentences the final policy keeps.
    pub final_keep_rate: f64,
}

/// Trains an instance selector over a noisy corpus with REINFORCE.
///
/// `model` must arrive *warmed up* (a few epochs on the noisy data) so its
/// label-NLL feature is informative. Each episode samples keep/drop
/// decisions from the policy, trains a clone of the warm tagger for one
/// epoch on the kept subset, takes the negative dev gold-label NLL as the
/// (continuous, low-variance) reward, resets the
/// tagger to the warm snapshot (clean credit assignment — the reward
/// reflects *this* subset, not the training history), and updates the
/// policy along `(R − baseline) · Σ ∇ log π(aᵢ)`. The model is left at its
/// warm snapshot on return.
pub fn train_selector(
    model: &mut NerModel,
    noisy_train: &[EncodedSentence],
    dev: &[EncodedSentence],
    episodes: usize,
    policy_lr: f64,
    rng: &mut impl Rng,
) -> (SelectorPolicy, ReinforceReport) {
    let mut policy = SelectorPolicy::new();
    let tc = TrainConfig { epochs: 1, patience: None, ..TrainConfig::default() };
    let mut rewards: Vec<f64> = Vec::with_capacity(episodes);

    // Features come from the fixed warm tagger, z-scored per dimension so
    // one policy learning rate fits every feature (the bias stays 1).
    let snapshot = model.store.clone();
    let raw: Vec<[f64; POLICY_DIM]> = noisy_train.iter().map(|e| features(model, e)).collect();
    let phis = standardize(&raw);

    for _ in 0..episodes {
        let mut kept: Vec<EncodedSentence> = Vec::new();
        let mut actions: Vec<(usize, bool, f64)> = Vec::new(); // (idx, kept, p)
        for (i, phi) in phis.iter().enumerate() {
            let p = policy.keep_prob(phi);
            let keep = rng.gen_bool(p.clamp(0.05, 0.95));
            if keep {
                kept.push(noisy_train[i].clone());
            }
            actions.push((i, keep, p));
        }
        if kept.is_empty() {
            kept.push(noisy_train[0].clone());
        }
        trainer::train(model, &kept, None, &tc, rng);
        // Continuous reward: negative mean per-token dev NLL of the GOLD dev
        // labels — far lower variance than span F1, which is what a
        // handful-of-episodes REINFORCE loop needs.
        let reward =
            -dev.iter().map(|e| model.nll_of_labels(e)).sum::<f64>() / dev.len().max(1) as f64;
        model.store = snapshot.clone();

        // Moving-average baseline for variance reduction.
        let baseline = if rewards.is_empty() {
            reward
        } else {
            rewards.iter().sum::<f64>() / rewards.len() as f64
        };
        let advantage = reward - baseline;
        let scale = policy_lr * advantage / actions.len() as f64;
        for (i, keep, p) in &actions {
            // grad_w log pi(a) = (a - p) * phi for the Bernoulli-logistic policy.
            let a = if *keep { 1.0 } else { 0.0 };
            for (w, x) in policy.w.iter_mut().zip(&phis[*i]) {
                *w += scale * (a - p) * x;
            }
        }
        rewards.push(reward);
    }

    let keep_rate = phis.iter().filter(|phi| policy.keep_prob(phi) > 0.5).count() as f64
        / noisy_train.len() as f64;
    (policy, ReinforceReport { episode_rewards: rewards, final_keep_rate: keep_rate })
}

/// Z-scores every feature dimension across the pool (bias column excluded).
fn standardize(raw: &[[f64; POLICY_DIM]]) -> Vec<[f64; POLICY_DIM]> {
    let n = raw.len().max(1) as f64;
    let mut mean = [0.0f64; POLICY_DIM];
    for phi in raw {
        for (m, x) in mean.iter_mut().zip(phi) {
            *m += x / n;
        }
    }
    let mut var = [0.0f64; POLICY_DIM];
    for phi in raw {
        for ((v, x), m) in var.iter_mut().zip(phi).zip(&mean) {
            *v += (x - m) * (x - m) / n;
        }
    }
    raw.iter()
        .map(|phi| {
            let mut out = [0.0f64; POLICY_DIM];
            for i in 0..POLICY_DIM - 1 {
                out[i] = (phi[i] - mean[i]) / var[i].sqrt().max(1e-9);
            }
            out[POLICY_DIM - 1] = 1.0;
            out
        })
        .collect()
}

/// Filters a pool with a trained policy (keep-probability > 0.5), scoring
/// against features standardized over that pool.
pub fn select(
    policy: &SelectorPolicy,
    model: &NerModel,
    data: &[EncodedSentence],
) -> Vec<EncodedSentence> {
    let raw: Vec<[f64; POLICY_DIM]> = data.iter().map(|e| features(model, e)).collect();
    let phis = standardize(&raw);
    data.iter()
        .zip(&phis)
        .filter(|(_, phi)| policy.keep_prob(phi) > 0.5)
        .map(|(e, _)| e.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_core::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
    use ner_core::repr::SentenceEncoder;
    use ner_corpus::distant::{corrupt_dataset_labels, LabelNoise};
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use ner_text::{Dataset, TagScheme};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_cfg() -> NerConfig {
        NerConfig {
            scheme: TagScheme::Bio,
            word: WordRepr::Random { dim: 16 },
            char_repr: CharRepr::None,
            encoder: EncoderKind::Lstm { hidden: 16, bidirectional: true, layers: 1 },
            decoder: DecoderKind::Crf,
            dropout: 0.1,
            ..NerConfig::default()
        }
    }

    #[test]
    fn policy_gradient_moves_weights_and_rewards_are_recorded() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let clean = gen.dataset(&mut rng, 60);
        let noisy = corrupt_dataset_labels(&clean, &LabelNoise::distant_supervision(), &mut rng);
        let noisy_ds = Dataset::new(noisy.iter().map(|n| n.sentence.clone()).collect());
        let dev = gen.dataset(&mut rng, 30);

        let enc = SentenceEncoder::from_dataset(&noisy_ds, TagScheme::Bio, 1);
        let train_enc = enc.encode_dataset(&noisy_ds, None);
        let dev_enc = enc.encode_dataset(&dev, None);
        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        // Warm the tagger: the selector's reward/features need a model whose
        // dev F1 is non-degenerate.
        trainer::train(
            &mut model,
            &train_enc,
            None,
            &TrainConfig { epochs: 3, patience: None, ..Default::default() },
            &mut rng,
        );

        let (policy, report) = train_selector(&mut model, &train_enc, &dev_enc, 4, 1.0, &mut rng);
        assert_eq!(report.episode_rewards.len(), 4);
        assert!(policy.w.iter().any(|w| *w != 0.0 && *w != 1.0), "policy should move: {policy:?}");
        assert!(report.final_keep_rate > 0.0 && report.final_keep_rate <= 1.0);
        let kept = select(&policy, &model, &train_enc);
        assert!(!kept.is_empty());
    }

    #[test]
    fn keep_prob_is_a_probability() {
        let p = SelectorPolicy::new();
        let phi = [0.8, 0.5, 1.0, 1.0];
        let v = p.keep_prob(&phi);
        assert!(v > 0.0 && v < 1.0);
    }
}
