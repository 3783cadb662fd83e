//! E-F3 — reproduces **Fig. 3** (character-level representations).
//!
//! Ablates the character channel {none, CNN (Fig. 3a), BiLSTM (Fig. 3b)}
//! over the same word+BiLSTM+CRF skeleton and reports F1 on in-distribution
//! and unseen-entity test sets, plus unseen-entity *recall* specifically —
//! the paper's motivation for char reps is exactly OOV/morphology handling
//! (§3.2.2).

use ner_bench::{
    eval_on, harness_train_config, init_harness, pct, print_table, standard_data, train_model,
    write_report, Scale,
};
use ner_core::config::{CharRepr, NerConfig, WordRepr};
use ner_core::metrics::seen_unseen_recall;
use ner_core::prelude::*;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    char_repr: String,
    f1_test: f64,
    f1_unseen: f64,
    unseen_recall: f64,
    seen_recall: f64,
}

fn main() {
    let scale = Scale::from_args();
    init_harness("fig3", 42, scale);
    let data = standard_data(42, scale);
    let tc = harness_train_config(scale);
    let train_surfaces = data.train.entity_surfaces();

    let variants = [
        ("none", CharRepr::None),
        ("CNN (Fig. 3a)", CharRepr::Cnn { dim: 16, filters: 16 }),
        ("BiLSTM (Fig. 3b)", CharRepr::Lstm { dim: 16, hidden: 12 }),
    ];

    let mut rows = Vec::new();
    for (name, char_repr) in variants {
        let cfg =
            NerConfig { char_repr, word: WordRepr::Random { dim: 32 }, ..NerConfig::default() };
        let (enc, model) = train_model(cfg, &data.train, &tc, 11);
        let f1_test = eval_on(&enc, &model, &data.test).micro.f1;
        let unseen_enc = enc.encode_dataset(&data.test_unseen, None);
        let f1_unseen = evaluate_model(&model, &unseen_enc).micro.f1;

        let golds: Vec<_> = unseen_enc.iter().map(|e| e.gold.clone()).collect();
        let preds = predict_all(&model, &unseen_enc);
        let surfaces: Vec<_> = unseen_enc.iter().map(|e| e.gold_surfaces()).collect();
        let split = seen_unseen_recall(&golds, &preds, &surfaces, &train_surfaces);

        println!("char={name}: unseen-entity recall {}", pct(split.unseen_recall));
        rows.push(Row {
            char_repr: name.to_string(),
            f1_test,
            f1_unseen,
            unseen_recall: split.unseen_recall,
            seen_recall: split.seen_recall,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.char_repr.clone(),
                pct(r.f1_test),
                pct(r.f1_unseen),
                pct(r.seen_recall),
                pct(r.unseen_recall),
            ]
        })
        .collect();
    print_table(
        "Fig. 3 — character-level representation ablation (word+BiLSTM+CRF skeleton)",
        &["Char repr", "F1 (test)", "F1 (unseen)", "Seen recall", "Unseen recall"],
        &table,
    );
    println!(
        "\nExpected shape (paper §3.2.2): both char channels lift unseen-entity recall over 'none'."
    );
    write_report("fig3", &rows);
}
