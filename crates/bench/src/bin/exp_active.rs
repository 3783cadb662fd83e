//! E-S43 — reproduces the **§4.3 active-learning result** (Shen et al.):
//! uncertainty-based selection reaches ≈99% of the full-data F1 with only
//! ≈25% of the training data, and dominates random selection at low
//! budgets.
//!
//! Sweeps annotation budgets × acquisition strategies with incremental
//! training and prints the learning curves plus the budget at which each
//! strategy first reaches 99% of the full-data ceiling.

use ner_applied::active::{run, Strategy};
use ner_bench::{
    harness_train_config, init_harness, pct, print_table, standard_data, write_report, Scale,
};
use ner_core::config::{CharRepr, NerConfig, WordRepr};
use ner_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct StrategyCurve {
    strategy: String,
    budgets: Vec<usize>,
    f1s: Vec<f64>,
    pct_of_full_at_quarter: f64,
}

fn main() {
    let scale = Scale::from_args();
    init_harness("active", 42, scale);
    let data = standard_data(42, scale);
    let tc = harness_train_config(scale);

    let cfg = NerConfig {
        scheme: TagScheme::Bio,
        word: WordRepr::Random { dim: 24 },
        char_repr: CharRepr::Cnn { dim: 12, filters: 12 },
        ..NerConfig::default()
    };
    let encoder = SentenceEncoder::from_dataset(&data.train, cfg.scheme, 1);
    let pool = encoder.encode_dataset(&data.train, None);
    let test = encoder.encode_dataset(&data.test_unseen, None);

    // Full-data ceiling.
    println!("training the full-data ceiling ...");
    let mut rng = StdRng::seed_from_u64(55);
    let mut ceiling_model = NerModel::new(cfg.clone(), &encoder, None, &mut rng);
    ner_core::trainer::train(&mut ceiling_model, &pool, None, &tc, &mut rng);
    let ceiling = evaluate_model(&ceiling_model, &test).micro.f1;
    println!("full-data F1 = {}", pct(ceiling));

    let n = pool.len();
    let budgets: Vec<usize> = [0.05, 0.10, 0.15, 0.25, 0.40, 0.60, 1.00]
        .iter()
        .map(|f| ((n as f64 * f) as usize).max(2))
        .collect();
    let epochs_per_round = scale.epochs(4);

    let mut curves = Vec::new();
    let mut table = Vec::new();
    for strategy in
        [Strategy::Random, Strategy::Longest, Strategy::TokenEntropy, Strategy::LeastConfidence]
    {
        let mut rng = StdRng::seed_from_u64(56);
        let model = NerModel::new(cfg.clone(), &encoder, None, &mut rng);
        let (run_result, _) =
            run(model, &pool, &test, strategy, &budgets, epochs_per_round, &mut rng);
        let quarter = run_result
            .curve
            .iter()
            .find(|p| p.fraction >= 0.249)
            .map(|p| p.test_f1 / ceiling)
            .unwrap_or(0.0);
        println!(
            "{strategy:?}: {}",
            run_result
                .curve
                .iter()
                .map(|p| format!("{}→{}", pct(p.fraction), pct(p.test_f1)))
                .collect::<Vec<_>>()
                .join("  ")
        );
        let mut row = vec![format!("{strategy:?}")];
        row.extend(run_result.curve.iter().map(|p| pct(p.test_f1)));
        row.push(format!("{:.1}% of ceiling @25%", 100.0 * quarter));
        table.push(row);
        curves.push(StrategyCurve {
            strategy: format!("{strategy:?}"),
            budgets: run_result.curve.iter().map(|p| p.annotated).collect(),
            f1s: run_result.curve.iter().map(|p| p.test_f1).collect(),
            pct_of_full_at_quarter: quarter,
        });
    }

    let mut headers: Vec<String> = vec!["Strategy".into()];
    headers.extend(budgets.iter().map(|b| format!("{}s ({})", b, pct(*b as f64 / n as f64))));
    headers.push("Shen et al. criterion".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "§4.3 — active-learning curves (unseen-entity F1 per budget)",
        &header_refs,
        &table,
    );
    println!("\nFull-data ceiling: {}", pct(ceiling));
    println!("Expected shape (paper): uncertainty strategies (MNLP/entropy) reach ~99% of the");
    println!("ceiling near the 25% budget and beat random at every low budget.");
    write_report("active", &curves);
}
