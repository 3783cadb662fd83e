//! E-S44 — reproduces the **§4.4 reinforcement-learning result** (Yang et
//! al. 2018): with distantly supervised (label-noisy) training data, a
//! policy-gradient instance selector that filters noisy sentences recovers
//! tagger performance lost to the noise.
//!
//! Conditions: clean-data ceiling, noisy data (no selector), noisy data with
//! the REINFORCE-trained selector.

use ner_applied::reinforce::{select, train_selector};
use ner_bench::{
    harness_train_config, init_harness, pct, print_table, standard_data, write_report, Scale,
};
use ner_core::config::{CharRepr, NerConfig, WordRepr};
use ner_core::prelude::*;
use ner_corpus::distant::{corrupt_dataset_labels, corruption_rate, LabelNoise};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    corruption_rate: f64,
    f1_clean_ceiling: f64,
    f1_noisy: f64,
    f1_selected: f64,
    keep_rate: f64,
    selector_precision: f64,
}

fn main() {
    let scale = Scale::from_args();
    init_harness("reinforce", 42, scale);
    let data = standard_data(42, scale);
    let tc = harness_train_config(scale);
    let mut rng = StdRng::seed_from_u64(71);

    // Distant supervision: corrupt the training labels at a known rate.
    let noisy = corrupt_dataset_labels(&data.train, &LabelNoise::distant_supervision(), &mut rng);
    let rate = corruption_rate(&noisy);
    let noisy_ds = Dataset::new(noisy.iter().map(|n| n.sentence.clone()).collect());
    println!("label-noise channel corrupted {} of training sentences", pct(rate));

    let cfg = NerConfig {
        scheme: TagScheme::Bio,
        word: WordRepr::Random { dim: 24 },
        char_repr: CharRepr::Cnn { dim: 12, filters: 12 },
        ..NerConfig::default()
    };
    let encoder = SentenceEncoder::from_dataset(&data.train, cfg.scheme, 1);
    let clean_enc = encoder.encode_dataset(&data.train, None);
    let noisy_enc = encoder.encode_dataset(&noisy_ds, None);
    let dev_enc = encoder.encode_dataset(&data.dev, None);
    let test_enc = encoder.encode_dataset(&data.test_unseen, None);

    println!("training clean-data ceiling ...");
    let mut clean_model = NerModel::new(cfg.clone(), &encoder, None, &mut rng);
    ner_core::trainer::train(&mut clean_model, &clean_enc, None, &tc, &mut rng);
    let f1_clean = evaluate_model(&clean_model, &test_enc).micro.f1;

    println!("training on noisy labels (no selector) ...");
    let mut noisy_model = NerModel::new(cfg.clone(), &encoder, None, &mut rng);
    ner_core::trainer::train(&mut noisy_model, &noisy_enc, None, &tc, &mut rng);
    let f1_noisy = evaluate_model(&noisy_model, &test_enc).micro.f1;

    println!("training the REINFORCE instance selector ...");
    let mut selector_model = NerModel::new(cfg.clone(), &encoder, None, &mut rng);
    // Warm up the tagger so the selector's features are informative.
    let warm = TrainConfig { epochs: scale.epochs(3), patience: None, ..TrainConfig::default() };
    ner_core::trainer::train(&mut selector_model, &noisy_enc, None, &warm, &mut rng);
    let episodes = scale.epochs(30);
    let (policy, rl_report) =
        train_selector(&mut selector_model, &noisy_enc, &dev_enc, episodes, 400.0, &mut rng);
    println!(
        "episode rewards (−dev NLL): {:?}",
        rl_report.episode_rewards.iter().map(|r| (r * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    );
    println!(
        "learned policy weights [label-NLL, conf, entropy, bias]: {:?}",
        policy.w.iter().map(|w| (w * 100.0).round() / 100.0).collect::<Vec<_>>()
    );

    // Final model trained from scratch on the selected subset.
    let kept = select(&policy, &selector_model, &noisy_enc);
    println!("selector keeps {}/{} sentences", kept.len(), noisy_enc.len());
    // How often does the selector keep CLEAN sentences (selector precision)?
    let kept_clean = noisy_enc
        .iter()
        .zip(&noisy)
        .filter(|(e, n)| {
            !n.corrupted && kept.iter().any(|k| k.tokens == e.tokens && k.gold == e.gold)
        })
        .count();
    let selector_precision =
        if kept.is_empty() { 0.0 } else { kept_clean as f64 / kept.len() as f64 };

    let mut final_model = NerModel::new(cfg, &encoder, None, &mut rng);
    ner_core::trainer::train(&mut final_model, &kept, None, &tc, &mut rng);
    let f1_selected = evaluate_model(&final_model, &test_enc).micro.f1;

    print_table(
        "§4.4 — RL instance selection over distantly supervised labels",
        &["Condition", "F1 (unseen test)"],
        &[
            vec!["clean labels (ceiling)".into(), pct(f1_clean)],
            vec![format!("noisy labels ({} corrupted)", pct(rate)), pct(f1_noisy)],
            vec![
                format!("noisy + RL selector (keeps {})", pct(rl_report.final_keep_rate)),
                pct(f1_selected),
            ],
        ],
    );
    println!("\nselector precision (kept sentences that are clean): {}", pct(selector_precision));
    println!("Expected shape (paper §4.4): noisy < selected ≤ clean — the selector recovers");
    println!("part of the gap the label noise opened.");
    write_report(
        "reinforce",
        &Report {
            corruption_rate: rate,
            f1_clean_ceiling: f1_clean,
            f1_noisy,
            f1_selected,
            keep_rate: rl_report.final_keep_rate,
            selector_precision,
        },
    );
}
