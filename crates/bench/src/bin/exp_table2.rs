//! E-T2 — the analog of **Table 2** (off-the-shelf NER tools).
//!
//! The paper inventories ready-to-use NER systems; this library's
//! counterpart is its model zoo: named, ready-to-train configurations for
//! the survey's architecture families. Each row is instantiated (to count
//! parameters) against a small reference corpus.

use ner_bench::{init_harness, print_table, write_report, Scale};
use ner_core::model::NerModel;
use ner_core::repr::SentenceEncoder;
use ner_core::zoo::zoo;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    name: &'static str,
    reference: &'static str,
    signature: String,
    params: usize,
}

fn main() {
    let scale = Scale::from_args();
    init_harness("table2", 17, scale);
    let mut rng = StdRng::seed_from_u64(17);
    let ds = NewsGenerator::new(GeneratorConfig::default()).dataset(&mut rng, scale.size(100));

    let mut rows = Vec::new();
    for entry in zoo() {
        let enc = SentenceEncoder::from_dataset(&ds, entry.config.scheme, 1);
        // Pretrained-word presets are instantiated with random tables here
        // (we only need shapes/counts for the inventory).
        let mut cfg = entry.config.clone();
        if matches!(cfg.word, ner_core::config::WordRepr::Pretrained { .. }) {
            cfg.word = ner_core::config::WordRepr::Random { dim: 32 };
        }
        let model = NerModel::new(cfg, &enc, None, &mut rng);
        rows.push(Row {
            name: entry.name,
            reference: entry.reference,
            signature: entry.config.signature(),
            params: model.num_params(),
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.signature.clone(),
                format!("{}k", r.params / 1000),
                r.reference.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table 2 analog — the neural-ner model zoo (off-the-shelf configurations)",
        &["Preset", "Architecture", "Params", "Survey reference"],
        &table,
    );
    write_report("table2", &rows);
}
