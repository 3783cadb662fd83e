//! E-F10 — reproduces **Fig. 10** (the LM-LSTM-CRF representation stack,
//! Liu et al.): character-level representation ⧺ pretrained word embedding
//! ⧺ contextual LM representation, fed to a BiLSTM-CRF.
//!
//! The harness is an additive feature ladder: starting from random word
//! embeddings it adds, one at a time, pretraining, the char channel,
//! hand-crafted features, gazetteers, and contextual-LM vectors — the
//! columns of the paper's Table 3 "input representation" axis.

use ner_bench::{
    harness_train_config, init_harness, pct, print_table, standard_data, write_report, Scale,
};
use ner_core::config::{CharRepr, NerConfig, WordRepr};
use ner_core::prelude::*;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_embed::charlm::{CharLm, CharLmConfig};
use ner_embed::skipgram::{self, SkipGramConfig};
use ner_embed::ContextualEmbedder;
use ner_text::Gazetteer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    rung: String,
    signature: String,
    f1_test: f64,
    f1_unseen: f64,
}

fn main() {
    let scale = Scale::from_args();
    init_harness("fig10", 42, scale);
    let data = standard_data(42, scale);
    let tc = harness_train_config(scale);
    let mut rng = StdRng::seed_from_u64(5);
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let lm_corpus = gen.lm_sentences(&mut rng, scale.size(1200));
    println!("pretraining embeddings ...");
    let pretrained = skipgram::train(
        &lm_corpus,
        &SkipGramConfig { dim: 32, epochs: scale.epochs(6), min_count: 1, ..Default::default() },
        &mut rng,
    );
    let (charlm, _) = CharLm::train(
        &lm_corpus[..scale.size(800)],
        &CharLmConfig { hidden: 48, dim: 24, epochs: scale.epochs(3), ..Default::default() },
        &mut rng,
    );
    let mut gazetteer = Gazetteer::new();
    for s in &data.train.sentences {
        for e in &s.entities {
            let toks: Vec<&str> =
                s.tokens[e.start..e.end].iter().map(|t| t.text.as_str()).collect();
            gazetteer.add(e.coarse_label(), &toks);
        }
    }

    struct Rung {
        name: &'static str,
        pretrained: bool,
        char: bool,
        feats: bool,
        gaz: bool,
        lm: bool,
    }
    let ladder = [
        Rung {
            name: "word (random)",
            pretrained: false,
            char: false,
            feats: false,
            gaz: false,
            lm: false,
        },
        Rung {
            name: "+ pretrained words",
            pretrained: true,
            char: false,
            feats: false,
            gaz: false,
            lm: false,
        },
        Rung {
            name: "+ char-CNN",
            pretrained: true,
            char: true,
            feats: false,
            gaz: false,
            lm: false,
        },
        Rung {
            name: "+ handcrafted features",
            pretrained: true,
            char: true,
            feats: true,
            gaz: false,
            lm: false,
        },
        Rung {
            name: "+ gazetteers",
            pretrained: true,
            char: true,
            feats: true,
            gaz: true,
            lm: false,
        },
        Rung {
            name: "+ contextual LM (Fig. 10 stack)",
            pretrained: true,
            char: true,
            feats: true,
            gaz: true,
            lm: true,
        },
    ];

    let mut rows = Vec::new();
    for rung in &ladder {
        let mut encoder = SentenceEncoder::from_dataset(&data.train, TagScheme::Bioes, 1)
            .with_features(rung.feats);
        if rung.pretrained {
            encoder = encoder.with_pretrained_vocab(&pretrained);
        }
        if rung.gaz {
            encoder = encoder.with_gazetteer(gazetteer.clone());
        }
        let cfg = NerConfig {
            word: if rung.pretrained {
                WordRepr::Pretrained { fine_tune: false }
            } else {
                WordRepr::Random { dim: 32 }
            },
            char_repr: if rung.char {
                CharRepr::Cnn { dim: 16, filters: 16 }
            } else {
                CharRepr::None
            },
            use_features: rung.feats,
            use_gazetteer: rung.gaz,
            context_dim: if rung.lm { charlm.dim() } else { 0 },
            ..NerConfig::default()
        };
        let ctx: Option<&dyn ContextualEmbedder> = rung.lm.then_some(&charlm as _);
        let mut rng = StdRng::seed_from_u64(23);
        let mut model =
            NerModel::new(cfg.clone(), &encoder, rung.pretrained.then_some(&pretrained), &mut rng);
        let train_enc = encoder.encode_dataset(&data.train, ctx);
        ner_core::trainer::train(&mut model, &train_enc, None, &tc, &mut rng);
        let f1_test = evaluate_model(&model, &encoder.encode_dataset(&data.test, ctx)).micro.f1;
        let f1_unseen =
            evaluate_model(&model, &encoder.encode_dataset(&data.test_unseen, ctx)).micro.f1;
        println!("  {:<34} test {:>6}  unseen {:>6}", rung.name, pct(f1_test), pct(f1_unseen));
        rows.push(Row {
            rung: rung.name.to_string(),
            signature: cfg.signature(),
            f1_test,
            f1_unseen,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.rung.clone(), r.signature.clone(), pct(r.f1_test), pct(r.f1_unseen)])
        .collect();
    print_table(
        "Fig. 10 — input-representation ladder (BiLSTM-CRF encoder/decoder fixed)",
        &["Rung", "Architecture", "F1 (test)", "F1 (unseen)"],
        &table,
    );
    println!("\nExpected shape (paper): each representation source adds signal; the full");
    println!("char+word+LM stack of Fig. 10 sits at the top on unseen entities.");
    write_report("fig10", &rows);
}
