//! E-F11 — reproduces **Fig. 11** (pre-training model architectures:
//! BERT vs GPT vs ELMo).
//!
//! Pretrains the three regimes the figure contrasts — a bidirectional
//! masked-LM Transformer (BERT-lite), a left-to-right Transformer LM
//! (GPT-lite) and independently trained left/right LSTMs (ELMo-lite) — on
//! the same unlabeled corpus, then feeds each one's frozen token vectors to
//! an identical downstream tagger. Controls: no pretraining at all, and the
//! char-level contextual-string variant (Flair-style).
//!
//! Expected shape (paper §3.3.5): bidirectional conditioning (BERT-lite /
//! ELMo-lite / char-LM) beats the strictly causal GPT-lite; every
//! pretrained regime beats no pretraining.

use ner_bench::{
    harness_train_config, init_harness, pct, print_table, standard_data, write_report, Scale,
};
use ner_core::config::{CharRepr, EncoderKind, NerConfig, WordRepr};
use ner_core::prelude::*;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_embed::bert_lite::{BertConfig, BertLite};
use ner_embed::charlm::{CharLm, CharLmConfig};
use ner_embed::elmo::{ElmoConfig, ElmoLm};
use ner_embed::gpt_lite::{GptConfig, GptLite};
use ner_embed::ContextualEmbedder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    regime: String,
    lm_nll: Option<f64>,
    f1_unseen: f64,
}

fn downstream(
    data: &ner_bench::ExperimentData,
    tc: &TrainConfig,
    ctx: Option<&dyn ContextualEmbedder>,
    seed: u64,
) -> f64 {
    let encoder = SentenceEncoder::from_dataset(&data.train, TagScheme::Bio, 1);
    let cfg = NerConfig {
        scheme: TagScheme::Bio,
        word: WordRepr::Random { dim: 24 },
        char_repr: CharRepr::None,
        encoder: EncoderKind::Lstm { hidden: 32, bidirectional: true, layers: 1 },
        context_dim: ctx.map_or(0, |c| c.dim()),
        ..NerConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = NerModel::new(cfg, &encoder, None, &mut rng);
    let train_enc = encoder.encode_dataset(&data.train, ctx);
    ner_core::trainer::train(&mut model, &train_enc, None, tc, &mut rng);
    evaluate_model(&model, &encoder.encode_dataset(&data.test_unseen, ctx)).micro.f1
}

fn main() {
    let scale = Scale::from_args();
    init_harness("fig11", 42, scale);
    let data = standard_data(42, scale);
    // Downstream is data-starved on purpose: pretraining matters most there.
    let starved = ner_bench::ExperimentData {
        train: data.train.take(scale.size(100)),
        dev: data.dev.clone(),
        test: data.test.clone(),
        test_unseen: data.test_unseen.clone(),
        test_noisy: data.test_noisy.clone(),
    };
    let tc = harness_train_config(scale);
    let mut rng = StdRng::seed_from_u64(3);
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let lm_corpus = gen.lm_sentences(&mut rng, scale.size(900));
    let held_out = gen.lm_sentences(&mut rng, scale.size(100));

    println!("pretraining BERT-lite (masked bidirectional Transformer) ...");
    let (bert, _) = BertLite::train(
        &lm_corpus,
        &BertConfig { epochs: scale.epochs(6), mask_prob: 0.25, ..Default::default() },
        &mut rng,
    );
    println!("pretraining GPT-lite (causal Transformer) ...");
    let (gpt, _) = GptLite::train(
        &lm_corpus,
        &GptConfig { epochs: scale.epochs(3), ..Default::default() },
        &mut rng,
    );
    println!("pretraining ELMo-lite (bidirectional LSTM LM) ...");
    let (elmo, _) = ElmoLm::train(
        &lm_corpus,
        &ElmoConfig { epochs: scale.epochs(3), ..Default::default() },
        &mut rng,
    );
    println!("pretraining char-LM (contextual string embeddings) ...");
    let (charlm, _) = CharLm::train(
        &lm_corpus[..scale.size(600)],
        &CharLmConfig { hidden: 32, epochs: scale.epochs(2), ..Default::default() },
        &mut rng,
    );

    println!("running the shared downstream tagger per regime ...");
    let mut rows = vec![
        Row {
            regime: "no pretraining".into(),
            lm_nll: None,
            f1_unseen: downstream(&starved, &tc, None, 77),
        },
        Row {
            regime: "GPT-lite (causal Transformer)".into(),
            lm_nll: Some(gpt.nll(&held_out)),
            f1_unseen: downstream(&starved, &tc, Some(&gpt), 77),
        },
        Row {
            regime: "ELMo-lite (biLSTM LM)".into(),
            lm_nll: Some(elmo.nll(&held_out)),
            f1_unseen: downstream(&starved, &tc, Some(&elmo), 77),
        },
        Row {
            regime: "char-LM (contextual string)".into(),
            lm_nll: Some(charlm.nll_per_char(&held_out)),
            f1_unseen: downstream(&starved, &tc, Some(&charlm), 77),
        },
        Row {
            regime: "BERT-lite (masked bidirectional)".into(),
            lm_nll: None,
            f1_unseen: downstream(&starved, &tc, Some(&bert), 77),
        },
    ];
    rows.sort_by(|a, b| b.f1_unseen.partial_cmp(&a.f1_unseen).expect("finite"));

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.regime.clone(),
                r.lm_nll.map_or("-".into(), |v| format!("{v:.2}")),
                pct(r.f1_unseen),
            ]
        })
        .collect();
    print_table(
        "Fig. 11 — pretraining regimes feeding an identical downstream tagger",
        &["Pretraining regime", "Held-out LM NLL", "F1 (unseen)"],
        &table,
    );
    println!("\nExpected shape (paper): bidirectional regimes > causal GPT > no pretraining.");
    write_report("fig11", &rows);
}
