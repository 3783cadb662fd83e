//! E-F4 — reproduces **Fig. 4** (contextual string embeddings, Akbik et al.).
//!
//! Two demonstrations:
//! 1. the *polysemy property*: the same surface form ("Washington"-style
//!    ambiguous tokens from our lexicons, e.g. "Jordan" the person vs
//!    "Jordan" the country) receives different vectors in different
//!    contexts, and the vectors cluster by role;
//! 2. the downstream effect: appending char-LM embeddings to a BiLSTM-CRF
//!    lifts F1, especially on unseen entities.

use ner_bench::{
    harness_train_config, init_harness, pct, print_table, standard_data, write_report, Scale,
};
use ner_core::config::{CharRepr, NerConfig, WordRepr};
use ner_core::prelude::*;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_embed::charlm::{CharLm, CharLmConfig};
use ner_embed::{cosine, ContextualEmbedder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    same_word_cross_context_cosine: f32,
    same_role_cosine: f32,
    f1_unseen_without_lm: f64,
    f1_unseen_with_lm: f64,
}

fn tokens(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

fn main() {
    let scale = Scale::from_args();
    init_harness("fig4", 42, scale);
    let data = standard_data(42, scale);
    let tc = harness_train_config(scale);
    let mut rng = StdRng::seed_from_u64(9);
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let lm_corpus = gen.lm_sentences(&mut rng, scale.size(900));
    println!("pretraining char-LM on {} sentences ...", lm_corpus.len());
    let (charlm, nll) = CharLm::train(
        &lm_corpus,
        &CharLmConfig { hidden: 48, dim: 24, epochs: scale.epochs(3), ..Default::default() },
        &mut rng,
    );
    println!("char-LM per-epoch NLL/char: {nll:?}");

    // --- Polysemy probe: "Jordan" as PERSON vs as COUNTRY context. ---
    let per_ctx_a = charlm.embed(&tokens(&["Jordan", "scored", "44", "points", "yesterday", "."]));
    let per_ctx_b =
        charlm.embed(&tokens(&["Jordan", "told", "reporters", "the", "talks", "failed", "."]));
    let loc_ctx =
        charlm.embed(&tokens(&["officials", "arrived", "in", "Jordan", "on", "Monday", "."]));
    let same_word_cross = cosine(&per_ctx_a[0], &loc_ctx[3]);
    let same_role = cosine(&per_ctx_a[0], &per_ctx_b[0]);
    println!("\ncos(Jordan|PER-ctx, Jordan|PER-ctx') = {same_role:.3}");
    println!("cos(Jordan|PER-ctx, Jordan|LOC-ctx)  = {same_word_cross:.3}");

    // --- Downstream: BiLSTM-CRF ± contextual string embeddings. ---
    let encoder = SentenceEncoder::from_dataset(&data.train, TagScheme::Bioes, 1);
    let base_cfg = NerConfig {
        word: WordRepr::Random { dim: 32 },
        char_repr: CharRepr::None,
        ..NerConfig::default()
    };

    let mut rng2 = StdRng::seed_from_u64(10);
    let mut base = NerModel::new(base_cfg.clone(), &encoder, None, &mut rng2);
    let train_plain = encoder.encode_dataset(&data.train, None);
    ner_core::trainer::train(&mut base, &train_plain, None, &tc, &mut rng2);
    let unseen_plain = encoder.encode_dataset(&data.test_unseen, None);
    let f1_base = evaluate_model(&base, &unseen_plain).micro.f1;

    let lm_cfg = NerConfig { context_dim: charlm.dim(), ..base_cfg };
    let mut rng3 = StdRng::seed_from_u64(10);
    let mut with_lm = NerModel::new(lm_cfg, &encoder, None, &mut rng3);
    let train_ctx = encoder.encode_dataset(&data.train, Some(&charlm));
    ner_core::trainer::train(&mut with_lm, &train_ctx, None, &tc, &mut rng3);
    let unseen_ctx = encoder.encode_dataset(&data.test_unseen, Some(&charlm));
    let f1_lm = evaluate_model(&with_lm, &unseen_ctx).micro.f1;

    print_table(
        "Fig. 4 — contextual string embeddings",
        &["Configuration", "F1 (unseen entities)"],
        &[
            vec!["word + BiLSTM + CRF".into(), pct(f1_base)],
            vec!["word + contextual string emb + BiLSTM + CRF".into(), pct(f1_lm)],
        ],
    );
    println!("\nExpected shape (paper): contextualized embeddings of the same word differ across");
    println!("contexts (cross-context cosine < same-role cosine) and lift downstream F1.");

    write_report(
        "fig4",
        &Report {
            same_word_cross_context_cosine: same_word_cross,
            same_role_cosine: same_role,
            f1_unseen_without_lm: f1_base,
            f1_unseen_with_lm: f1_lm,
        },
    );
}
