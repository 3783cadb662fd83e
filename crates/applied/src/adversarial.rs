//! Deep adversarial learning for NER (paper §4.5).
//!
//! The perturbation flavor of DATNet (Zhou et al. 2019): each training step
//! computes the loss and its gradient with respect to the *input
//! representation*, builds the worst-case ε-bounded perturbation
//! `η = ε · g/‖g‖` (fast gradient method), and trains on the sum of the
//! clean and the perturbed losses. The classifier thus learns features
//! stable under small input shifts — the mechanism the paper credits for
//! better generalization and robustness.

use ner_core::model::NerModel;
use ner_core::repr::EncodedSentence;
use ner_core::trainer::TrainConfig;
use ner_tensor::optim::{Adam, CLIP_NORM};
use ner_tensor::Tape;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;

/// Per-epoch record of adversarial training. Means are over the
/// non-empty sentences: an empty one adds no loss and takes no step.
#[derive(Clone, Debug, Serialize)]
pub struct AdvEpoch {
    /// Mean clean loss per sentence.
    pub clean_loss: f64,
    /// Mean adversarial (perturbed) loss per sentence.
    pub adv_loss: f64,
}

/// Trains `model` with FGM adversarial augmentation of strength `epsilon`.
/// With `epsilon == 0` this degenerates to standard training (the control).
pub fn train_fgm(
    model: &mut NerModel,
    data: &[EncodedSentence],
    epsilon: f32,
    cfg: &TrainConfig,
    rng: &mut impl Rng,
) -> Vec<AdvEpoch> {
    let mut opt = Adam::new(cfg.lr);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let live = data.iter().filter(|s| !s.is_empty()).count().max(1) as f64;
    let mut records = Vec::with_capacity(cfg.epochs);

    for _ in 0..cfg.epochs {
        if cfg.shuffle {
            order.shuffle(rng);
        }
        let mut clean_total = 0.0f64;
        let mut adv_total = 0.0f64;
        for &i in &order {
            let sent = &data[i];
            if sent.is_empty() {
                continue;
            }
            // Pass 1: clean loss; gradients accumulate in the store and the
            // input-representation gradient is read off the tape.
            let mut tape = Tape::new();
            let (loss, x) = model.loss_with_input(&mut tape, sent, true, rng);
            clean_total += tape.value(loss).item() as f64;
            tape.backward(loss, &mut model.store);

            if epsilon > 0.0 {
                let grad = tape.grad(x).expect("input gradient exists after backward");
                let norm = grad.sq_norm().sqrt();
                if norm > 1e-12 {
                    // x_adv = x + ε·g/‖g‖ — the argmax of the linearized loss
                    // within the ε-ball (paper §4.5's η_x).
                    let mut perturbed = tape.value(x).clone();
                    perturbed.add_scaled(grad, epsilon / norm);
                    let mut tape2 = Tape::new();
                    let adv_loss = model.loss_from_input_override(&mut tape2, sent, perturbed, rng);
                    adv_total += tape2.value(adv_loss).item() as f64;
                    tape2.backward(adv_loss, &mut model.store);
                }
            }
            model.store.clip_grad_norm(CLIP_NORM);
            opt.step(&mut model.store);
        }
        records.push(AdvEpoch { clean_loss: clean_total / live, adv_loss: adv_total / live });
    }
    records
}

/// Test-time FGM attack: perturbs each sentence's input representation by
/// `ε·g/‖g‖` along the gold-label loss gradient (evaluation mode, no
/// dropout) and measures exact-match F1 of the predictions on the perturbed
/// inputs. This is the "robust to attack" axis of §4.5.
pub fn evaluate_under_attack(
    model: &NerModel,
    data: &[EncodedSentence],
    epsilon: f32,
    rng: &mut impl Rng,
) -> f64 {
    use ner_core::metrics::evaluate;
    use ner_text::EntitySpan;
    let mut golds: Vec<Vec<EntitySpan>> = Vec::with_capacity(data.len());
    let mut preds: Vec<Vec<EntitySpan>> = Vec::with_capacity(data.len());
    for sent in data {
        if sent.is_empty() {
            continue;
        }
        golds.push(sent.gold.clone());
        // Attack direction from the gold-label loss (standard white-box FGM).
        let mut probe_store = model.store.clone();
        let mut tape = Tape::new();
        let (loss, x) = model.loss_with_input(&mut tape, sent, false, rng);
        tape.backward(loss, &mut probe_store);
        let perturbed = match tape.grad(x) {
            Some(grad) if grad.sq_norm() > 1e-24 => {
                let mut p = tape.value(x).clone();
                let norm = grad.sq_norm().sqrt();
                p.add_scaled(grad, epsilon / norm);
                p
            }
            _ => tape.value(x).clone(),
        };
        preds.push(model.predict_spans_from_input(sent, perturbed));
    }
    evaluate(&golds, &preds).micro.f1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_core::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
    use ner_core::repr::SentenceEncoder;
    use ner_core::trainer;
    use ner_corpus::noise::{corrupt_dataset, NoiseModel};
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use ner_text::TagScheme;
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
    fn adversarial_loss_exceeds_clean_loss() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let ds = gen.dataset(&mut rng, 40);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let data = enc.encode_dataset(&ds, None);
        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        let cfg = TrainConfig { epochs: 2, patience: None, ..Default::default() };
        let records = train_fgm(&mut model, &data, 1.0, &cfg, &mut rng);
        // The FGM point maximizes the linearized loss, so on average the
        // perturbed loss should not be smaller than the clean one.
        for r in &records {
            assert!(
                r.adv_loss >= r.clean_loss * 0.95,
                "adv {} unexpectedly far below clean {}",
                r.adv_loss,
                r.clean_loss
            );
        }
        assert!(records[1].clean_loss < records[0].clean_loss, "training still converges");
    }

    #[test]
    fn empty_sentences_change_no_mean_and_no_weight() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let ds = gen.dataset(&mut rng, 12);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let data = enc.encode_dataset(&ds, None);
        let mut padded = data.clone();
        padded.extend(std::iter::repeat_with(EncodedSentence::default).take(5));
        let cfg = TrainConfig { epochs: 2, patience: None, shuffle: false, ..Default::default() };
        let run = |data: &[EncodedSentence]| {
            let mut model = NerModel::new(quick_cfg(), &enc, None, &mut StdRng::seed_from_u64(5));
            let records = train_fgm(&mut model, data, 0.5, &cfg, &mut StdRng::seed_from_u64(6));
            let means: Vec<(u64, u64)> =
                records.iter().map(|r| (r.clean_loss.to_bits(), r.adv_loss.to_bits())).collect();
            (means, model)
        };
        let (want, plain) = run(&data);
        let (got, model) = run(&padded);
        assert_eq!(got, want, "epoch means");
        for id in plain.store.ids() {
            let bits = |m: &NerModel| {
                m.store.value(id).data().iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&model), bits(&plain), "weight {id:?}");
        }
    }

    #[test]
    fn epsilon_zero_matches_standard_training_shape() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let ds = gen.dataset(&mut rng, 30);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let data = enc.encode_dataset(&ds, None);
        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        let cfg = TrainConfig { epochs: 2, patience: None, ..Default::default() };
        let records = train_fgm(&mut model, &data, 0.0, &cfg, &mut rng);
        assert!(records.iter().all(|r| r.adv_loss == 0.0));
        let f1 = trainer::evaluate_model(&model, &data).micro.f1;
        assert!(f1 > 0.3, "control training should fit train data, got {f1}");
    }

    #[test]
    fn fgm_improves_noisy_robustness() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let train_ds = gen.dataset(&mut rng, 120);
        let clean_test = gen.dataset(&mut rng, 60);
        let noisy_test = corrupt_dataset(&clean_test, &NoiseModel::mild(), &mut rng);
        let enc = SentenceEncoder::from_dataset(&train_ds, TagScheme::Bio, 1);
        let data = enc.encode_dataset(&train_ds, None);
        let noisy = enc.encode_dataset(&noisy_test, None);

        let cfg = TrainConfig { epochs: 5, patience: None, ..Default::default() };
        let mut base = NerModel::new(quick_cfg(), &enc, None, &mut StdRng::seed_from_u64(7));
        train_fgm(&mut base, &data, 0.0, &cfg, &mut StdRng::seed_from_u64(8));
        let mut adv = NerModel::new(quick_cfg(), &enc, None, &mut StdRng::seed_from_u64(7));
        train_fgm(&mut adv, &data, 0.5, &cfg, &mut StdRng::seed_from_u64(8));

        let f1_base = trainer::evaluate_model(&base, &noisy).micro.f1;
        let f1_adv = trainer::evaluate_model(&adv, &noisy).micro.f1;
        // Robustness should not degrade; commonly it improves. Allow a tiny
        // tolerance to keep the test stable across seeds.
        assert!(
            f1_adv >= f1_base - 0.03,
            "FGM-trained F1 {f1_adv} collapsed below baseline {f1_base} on noisy test"
        );
    }
}
