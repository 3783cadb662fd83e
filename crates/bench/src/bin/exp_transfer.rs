//! E-S42 — reproduces the **§4.2 transfer-learning result** (Yang et al.,
//! Lee et al.): warm-starting from a high-resource source domain improves a
//! low-resource target, with fine-tuning ≥ frozen-encoder ≥ from-scratch,
//! and the margin largest at the smallest target sizes.
//!
//! Source: clean news. Target: the W-NUT-style noisy domain. Also
//! demonstrates the tag-hierarchy mapping (fine-grained → coarse) of
//! Beryozkin et al.

use ner_applied::transfer::{coarsen_labels, low_resource_sweep};
use ner_bench::{
    harness_train_config, init_harness, pct, print_table, standard_data, write_report, Scale,
};
use ner_core::config::{CharRepr, NerConfig, WordRepr};
use ner_core::prelude::*;
use ner_corpus::noise::{corrupt_dataset, NoiseModel};
use ner_corpus::{GeneratorConfig, NewsGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scheme: String,
    target_size: usize,
    f1: f64,
}

fn main() {
    let scale = Scale::from_args();
    init_harness("transfer", 42, scale);
    let data = standard_data(42, scale);
    let tc = harness_train_config(scale);
    let mut rng = StdRng::seed_from_u64(61);

    // Target domain: noisy user-generated text with fine-grained labels,
    // projected to the source's coarse tag set via the tag hierarchy.
    let noisy_gen =
        NewsGenerator::new(GeneratorConfig { fine_grained: true, ..Default::default() });
    let target_train_ds = coarsen_labels(&corrupt_dataset(
        &noisy_gen.dataset(&mut rng, scale.size(120)),
        &NoiseModel::social_media(),
        &mut rng,
    ));
    let target_test_ds = coarsen_labels(&corrupt_dataset(
        &noisy_gen.dataset(&mut rng, scale.size(120)),
        &NoiseModel::social_media(),
        &mut rng,
    ));

    let cfg = NerConfig {
        scheme: TagScheme::Bio,
        word: WordRepr::Random { dim: 32 },
        char_repr: CharRepr::Cnn { dim: 12, filters: 12 },
        ..NerConfig::default()
    };
    let encoder = SentenceEncoder::from_dataset(&data.train, cfg.scheme, 1);
    let source_enc = encoder.encode_dataset(&data.train, None);
    let target_train = encoder.encode_dataset(&target_train_ds, None);
    let target_test = encoder.encode_dataset(&target_test_ds, None);

    println!("training the source-domain model (clean news, {} sentences) ...", source_enc.len());
    let mut source = NerModel::new(cfg.clone(), &encoder, None, &mut rng);
    ner_core::trainer::train(&mut source, &source_enc, None, &tc, &mut rng);
    let zero_shot = evaluate_model(&source, &target_test).micro.f1;
    println!("zero-shot source→target F1: {}", pct(zero_shot));

    let sizes = [scale.size(10), scale.size(30), scale.size(120)];
    let tc_target =
        TrainConfig { epochs: scale.epochs(6), patience: None, ..TrainConfig::default() };
    println!("sweeping target sizes {sizes:?} × schemes ...");
    let sweep = low_resource_sweep(
        &cfg,
        &encoder,
        &source,
        &target_train,
        &target_test,
        &sizes,
        &tc_target,
        &mut rng,
    );

    let rows: Vec<Row> = sweep
        .iter()
        .map(|(scheme, size, f1)| Row {
            scheme: format!("{scheme:?}"),
            target_size: *size,
            f1: *f1,
        })
        .collect();
    let table: Vec<Vec<String>> =
        rows.iter().map(|r| vec![r.target_size.to_string(), r.scheme.clone(), pct(r.f1)]).collect();
    print_table(
        "§4.2 — transfer to the low-resource noisy target (coarse-mapped labels)",
        &["Target sentences", "Scheme", "F1 (target test)"],
        &table,
    );
    println!("\nZero-shot (no target training): {}", pct(zero_shot));
    println!("Expected shape (paper): FineTuneAll ≥ FreezeEncoder ≥ FromScratch, with the");
    println!("transfer margin shrinking as target data grows.");
    write_report("transfer", &rows);
}
