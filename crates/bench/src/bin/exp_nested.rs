//! E-S51n — reproduces the **nested-entity analysis** (§5.1 statistics,
//! §3.3.2 layered models of Ju et al.): a flat tag-sequence model is
//! structurally unable to emit overlapping mentions, so on a corpus with
//! GENIA/ACE-level nesting its recall against the full (all-layer) gold is
//! capped; stacking an inner-layer model on top recovers the nested
//! mentions.

use ner_bench::{harness_train_config, init_harness, pct, print_table, write_report, Scale};
use ner_core::config::{CharRepr, NerConfig, WordRepr};
use ner_core::nested::{evaluate_nested, flat_predictions, outer_layer, LayeredNer};
use ner_core::prelude::*;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    nested_fraction: f64,
    flat_precision: f64,
    flat_recall: f64,
    flat_f1: f64,
    layered_precision: f64,
    layered_recall: f64,
    layered_f1: f64,
}

fn main() {
    let scale = Scale::from_args();
    init_harness("nested", 101, scale);
    let tc = harness_train_config(scale);
    let gen = NewsGenerator::new(GeneratorConfig {
        annotate_nested: true,
        institution_rate: 0.45,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(101);
    let train_ds = gen.dataset(&mut rng, scale.size(240));
    let test_ds = gen.dataset(&mut rng, scale.size(120));
    let stats = test_ds.stats();
    println!(
        "nested corpus: {} of test entities are nested (paper: 17% GENIA / 30% ACE sentences)",
        pct(stats.nested_fraction)
    );

    let cfg = NerConfig {
        scheme: TagScheme::Bio,
        word: WordRepr::Random { dim: 24 },
        char_repr: CharRepr::Cnn { dim: 12, filters: 12 },
        ..NerConfig::default()
    };

    println!("training the flat baseline (outermost annotations only) ...");
    let outer_ds = outer_layer(&train_ds);
    let enc = SentenceEncoder::from_dataset(&outer_ds, cfg.scheme, 1);
    let mut flat = NerModel::new(cfg.clone(), &enc, None, &mut rng);
    let outer_enc = enc.encode_dataset(&outer_ds, None);
    ner_core::trainer::train(&mut flat, &outer_enc, None, &tc, &mut rng);
    let flat_eval = evaluate_nested(&test_ds, &flat_predictions(&flat, &enc, &test_ds));

    println!("training the layered model (outer + inner flat layers) ...");
    let (layered, _, _) = LayeredNer::train(&cfg, &train_ds, None, &tc, &mut rng);
    let layered_eval = evaluate_nested(&test_ds, &layered.predict_dataset(&test_ds));

    print_table(
        "§5.1 — nested NER: flat vs layered against ALL gold layers",
        &["Model", "Precision", "Recall", "F1"],
        &[
            vec![
                "flat BiLSTM-CRF (outer only)".into(),
                pct(flat_eval.micro.precision),
                pct(flat_eval.micro.recall),
                pct(flat_eval.micro.f1),
            ],
            vec![
                "layered (Ju et al. style)".into(),
                pct(layered_eval.micro.precision),
                pct(layered_eval.micro.recall),
                pct(layered_eval.micro.f1),
            ],
        ],
    );
    println!(
        "\nFlat recall is structurally capped near {} (share of outermost entities);",
        pct(1.0 - stats.nested_fraction)
    );
    println!("the layered model recovers nested mentions and lifts recall past the cap.");
    write_report(
        "nested",
        &Report {
            nested_fraction: stats.nested_fraction,
            flat_precision: flat_eval.micro.precision,
            flat_recall: flat_eval.micro.recall,
            flat_f1: flat_eval.micro.f1,
            layered_precision: layered_eval.micro.precision,
            layered_recall: layered_eval.micro.recall,
            layered_f1: layered_eval.micro.f1,
        },
    );
}
