//! E-F9 — reproduces **Fig. 9** (multi-task sequence labeling with an
//! auxiliary language-modeling objective, Rei 2017) and the segmentation
//! subtask of Aguilar et al. (§4.1).
//!
//! Trains the same BiLSTM-CRF skeleton with λ-weighted auxiliary losses and
//! reports test F1 per configuration. The paper's finding: the added LM
//! objective yields consistent improvements, most visible in lower-resource
//! regimes — so the harness sweeps two training sizes.

use ner_applied::multitask::{MultitaskNer, MultitaskWeights};
use ner_bench::{init_harness, pct, print_table, standard_data, write_report, Scale};
use ner_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    train_size: usize,
    lm_weight: f32,
    seg_weight: f32,
    f1_unseen: f64,
}

fn main() {
    let scale = Scale::from_args();
    init_harness("fig9", 42, scale);
    let data = standard_data(42, scale);
    let epochs = scale.epochs(10);

    let settings = [
        ("single-task", MultitaskWeights { lm: 0.0, segmentation: 0.0 }),
        ("+ LM objective (Fig. 9)", MultitaskWeights { lm: 0.005, segmentation: 0.0 }),
        ("+ segmentation task", MultitaskWeights { lm: 0.0, segmentation: 0.5 }),
        ("+ both", MultitaskWeights { lm: 0.005, segmentation: 0.5 }),
    ];
    let sizes = [scale.size(80), scale.size(240)];

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for &size in &sizes {
        let train = data.train.take(size);
        let encoder = SentenceEncoder::from_dataset(&train, TagScheme::Bio, 1);
        let train_enc = encoder.encode_dataset(&train, None);
        let test_enc = encoder.encode_dataset(&data.test_unseen, None);
        for (name, weights) in &settings {
            // Mean over three seeds: single-run variance at these corpus
            // sizes is larger than the multitask effect being measured.
            let seeds = [13u64, 14, 15];
            let f1 = seeds
                .iter()
                .map(|&seed| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut model = MultitaskNer::new(&encoder, 32, 48, *weights, &mut rng);
                    model.fit(&train_enc, epochs, 0.01, &mut rng);
                    model.evaluate(&test_enc).micro.f1
                })
                .sum::<f64>()
                / seeds.len() as f64;
            println!("  n={size:<4} {name:<26} F1(unseen, mean of 3 seeds) {}", pct(f1));
            rows.push(Row {
                train_size: size,
                lm_weight: weights.lm,
                seg_weight: weights.segmentation,
                f1_unseen: f1,
            });
            table.push(vec![size.to_string(), name.to_string(), pct(f1)]);
        }
    }

    print_table(
        "Fig. 9 — auxiliary objectives (BiLSTM-CRF skeleton, unseen-entity F1)",
        &["Train sentences", "Objective", "F1 (unseen)"],
        &table,
    );
    println!("\nExpected shape (paper §4.1): auxiliary LM co-training improves over single-task");
    println!("in the low-resource regime (the smaller training size), where the unsupervised");
    println!("signal adds information supervision cannot; at saturation the auxiliary gradient");
    println!("competes with the NER objective and the gain disappears.");
    write_report("fig9", &rows);
}
