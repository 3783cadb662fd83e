//! E-F8 — reproduces **Fig. 8** (bidirectional recursive network over
//! phrase structure, Li et al. 2017).
//!
//! Trains the tree-structured encoder (rule-chunked binarized constituents,
//! bottom-up + top-down passes) and compares it against a flat
//! word+softmax baseline with the same embedding budget — the survey's
//! point being that composing along linguistic structure is a *viable*
//! context encoder.

use ner_bench::{
    harness_train_config, init_harness, pct, print_table, standard_data, write_report, Scale,
};
use ner_core::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
use ner_core::encoder::recursive::{chunk_tree, RecursiveNer};
use ner_core::metrics::evaluate;
use ner_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    f1_recursive: f64,
    f1_flat_softmax: f64,
    mean_tree_depth: f64,
}

fn main() {
    let scale = Scale::from_args();
    init_harness("fig8", 42, scale);
    let data = standard_data(42, scale);
    let tc = harness_train_config(scale);
    let mut rng = StdRng::seed_from_u64(31);

    // Tree statistics (sanity that the chunker yields real structure).
    let mut depth_sum = 0usize;
    for s in &data.test.sentences {
        let toks: Vec<&str> = s.texts();
        depth_sum += chunk_tree(&toks).depth();
    }
    let mean_depth = depth_sum as f64 / data.test.len() as f64;
    println!("mean chunk-tree depth on test: {mean_depth:.1}");

    // Recursive model (IO scheme — per-node classification as in the paper).
    println!("training bidirectional recursive network ...");
    let types = data.train.entity_types();
    let mut recursive = RecursiveNer::new(data.train.word_vocab(1), &types, 32, &mut rng);
    recursive.fit(&data.train.sentences, tc.epochs, 0.01);
    let golds: Vec<_> = data.test.sentences.iter().map(|s| s.outermost_entities()).collect();
    let preds: Vec<_> = data
        .test
        .sentences
        .iter()
        .map(|s| {
            let toks: Vec<String> = s.tokens.iter().map(|t| t.text.clone()).collect();
            recursive.predict(&toks)
        })
        .collect();
    let f1_rec = evaluate(&golds, &preds).micro.f1;

    // Flat baseline: word embedding → softmax (no sequence encoder), same
    // budget — isolates the contribution of tree composition.
    println!("training flat word+softmax baseline ...");
    let flat_cfg = NerConfig {
        scheme: TagScheme::Io,
        word: WordRepr::Random { dim: 32 },
        char_repr: CharRepr::None,
        encoder: EncoderKind::Identity,
        decoder: DecoderKind::Softmax,
        dropout: 0.1,
        ..NerConfig::default()
    };
    let (enc, flat) = ner_bench::train_model(flat_cfg, &data.train, &tc, 31);
    let f1_flat = ner_bench::eval_on(&enc, &flat, &data.test).micro.f1;

    print_table(
        "Fig. 8 — recursive encoder over phrase structure vs flat baseline",
        &["Model", "F1 (test)"],
        &[
            vec!["word + softmax (no structure)".into(), pct(f1_flat)],
            vec!["bidirectional recursive net (Fig. 8)".into(), pct(f1_rec)],
        ],
    );
    println!("\nExpected shape (paper §3.3.3): structural composition beats the structure-free");
    println!("baseline, demonstrating constituency information is a usable context signal.");
    write_report(
        "fig8",
        &Report { f1_recursive: f1_rec, f1_flat_softmax: f1_flat, mean_tree_depth: mean_depth },
    );
}
