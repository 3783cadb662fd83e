//! E-T3 — reproduces **Table 3** (summary of neural NER architectures and
//! their F-scores).
//!
//! Trains the survey's architecture families — every combination axis the
//! paper tabulates: character representation {none, CNN, LSTM}, word
//! representation {random, pretrained}, hybrid features {handcrafted,
//! gazetteer}, context encoder {window-MLP, CNN, ID-CNN, LSTM, BiLSTM,
//! BiGRU, Transformer}, tag decoder {Softmax, CRF, Semi-CRF, RNN, Pointer},
//! plus contextual-LM-embedding rows — on the same synthetic-CoNLL split and
//! reports exact-match micro-F1 on the unseen-entity test set.
//!
//! Expected shape (paper): BiLSTM-CRF family dominates static-embedding
//! rows; char channels and pretrained words help; contextual LM embeddings
//! are best; un-pretrained Transformers fail on limited data.

use ner_bench::{
    harness_train_config, init_harness, pct, print_table, standard_data, write_report, Scale,
};
use ner_core::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
use ner_core::prelude::*;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_embed::charlm::{CharLm, CharLmConfig};
use ner_embed::skipgram::{self, SkipGramConfig};
use ner_embed::{ContextualEmbedder, WordEmbeddings};
use ner_text::Gazetteer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    signature: String,
    reference: String,
    f1_test: f64,
    f1_unseen: f64,
    params: usize,
}

struct Ctx {
    data: ner_bench::ExperimentData,
    pretrained: WordEmbeddings,
    charlm: CharLm,
    gazetteer: Gazetteer,
    tc: TrainConfig,
}

fn train_gazetteer(train: &Dataset) -> Gazetteer {
    let mut g = Gazetteer::new();
    for s in &train.sentences {
        for e in &s.entities {
            let toks: Vec<&str> =
                s.tokens[e.start..e.end].iter().map(|t| t.text.as_str()).collect();
            g.add(e.coarse_label(), &toks);
        }
    }
    g
}

#[allow(clippy::too_many_arguments)]
fn run(
    ctx: &Ctx,
    rows: &mut Vec<Row>,
    cfg: NerConfig,
    reference: &str,
    features: bool,
    gazetteer: bool,
    contextual: bool,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut encoder = SentenceEncoder::from_dataset(&ctx.data.train, cfg.scheme, 1);
    if matches!(cfg.word, WordRepr::Pretrained { .. }) {
        encoder = encoder.with_pretrained_vocab(&ctx.pretrained);
    }
    encoder = encoder.with_features(features);
    if gazetteer {
        encoder = encoder.with_gazetteer(ctx.gazetteer.clone());
    }
    let mut cfg = cfg;
    let ctx_embed: Option<&dyn ContextualEmbedder> =
        if contextual { Some(&ctx.charlm) } else { None };
    if contextual {
        cfg.context_dim = ctx.charlm.dim();
    }

    let pretrained = matches!(cfg.word, WordRepr::Pretrained { .. }).then_some(&ctx.pretrained);
    let mut model = NerModel::new(cfg.clone(), &encoder, pretrained, &mut rng);
    let train_enc = encoder.encode_dataset(&ctx.data.train, ctx_embed);
    ner_core::trainer::train(&mut model, &train_enc, None, &ctx.tc, &mut rng);

    let test_enc = encoder.encode_dataset(&ctx.data.test, ctx_embed);
    let unseen_enc = encoder.encode_dataset(&ctx.data.test_unseen, ctx_embed);
    let f1_test = evaluate_model(&model, &test_enc).micro.f1;
    let f1_unseen = evaluate_model(&model, &unseen_enc).micro.f1;
    println!("  {:<42} test {:>6}  unseen {:>6}", cfg.signature(), pct(f1_test), pct(f1_unseen));
    rows.push(Row {
        signature: cfg.signature(),
        reference: reference.to_string(),
        f1_test,
        f1_unseen,
        params: model.num_params(),
    });
}

fn main() {
    let scale = Scale::from_args();
    init_harness("table3", 42, scale);
    let data = standard_data(42, scale);
    let tc = harness_train_config(scale);

    // Pretrain the static and contextual embeddings on the LM corpus.
    let mut rng = StdRng::seed_from_u64(7);
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let lm_corpus = gen.lm_sentences(&mut rng, scale.size(1600));
    println!("pretraining skip-gram embeddings on {} sentences ...", lm_corpus.len());
    let pretrained = skipgram::train(
        &lm_corpus,
        &SkipGramConfig { dim: 32, epochs: scale.epochs(6), min_count: 1, ..Default::default() },
        &mut rng,
    );
    println!("pretraining char-LM contextual embeddings ...");
    let (charlm, _) = CharLm::train(
        &lm_corpus[..scale.size(900)],
        &CharLmConfig { hidden: 48, dim: 24, epochs: scale.epochs(3), ..Default::default() },
        &mut rng,
    );

    let ctx = Ctx { gazetteer: train_gazetteer(&data.train), data, pretrained, charlm, tc };
    let base = NerConfig { dropout: 0.3, ..NerConfig::default() };
    let pre = WordRepr::Pretrained { fine_tune: true };
    let bilstm = EncoderKind::Lstm { hidden: 48, bidirectional: true, layers: 1 };
    let mut rows = Vec::new();

    println!("training the architecture matrix ...");
    // --- Word representation & simple encoders ---
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: WordRepr::Random { dim: 32 },
            encoder: EncoderKind::WindowMlp { window: 2, hidden: 48 },
            decoder: DecoderKind::Softmax,
            ..base.clone()
        },
        "Collobert window approach [17]",
        false,
        false,
        false,
        1,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: WordRepr::Random { dim: 32 },
            encoder: EncoderKind::Cnn { filters: 48, layers: 2, width: 3, global: true },
            decoder: DecoderKind::Crf,
            ..base.clone()
        },
        "Collobert sentence approach + CRF [17]",
        false,
        false,
        false,
        2,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: pre.clone(),
            encoder: EncoderKind::Cnn { filters: 48, layers: 2, width: 3, global: true },
            decoder: DecoderKind::Crf,
            ..base.clone()
        },
        "CNN-CRF + pretrained words [93]",
        false,
        false,
        false,
        3,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: pre.clone(),
            encoder: EncoderKind::IdCnn {
                filters: 48,
                width: 3,
                dilations: vec![1, 2, 4],
                iterations: 2,
            },
            decoder: DecoderKind::Crf,
            ..base.clone()
        },
        "ID-CNN-CRF [90]",
        false,
        false,
        false,
        4,
    );

    // --- RNN encoders ---
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: pre.clone(),
            encoder: EncoderKind::Lstm { hidden: 48, bidirectional: false, layers: 1 },
            decoder: DecoderKind::Crf,
            ..base.clone()
        },
        "uni-LSTM-CRF (ablation)",
        false,
        false,
        false,
        5,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::Crf,
            ..base.clone()
        },
        "BiLSTM-CRF [18]",
        false,
        false,
        false,
        6,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::Cnn { dim: 16, filters: 16 },
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::Crf,
            ..base.clone()
        },
        "charCNN-BiLSTM-CRF [96]",
        false,
        false,
        false,
        7,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::Lstm { dim: 16, hidden: 12 },
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::Crf,
            ..base.clone()
        },
        "charLSTM-BiLSTM-CRF [19]",
        false,
        false,
        false,
        8,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::Lstm { dim: 16, hidden: 12 },
            word: pre.clone(),
            encoder: EncoderKind::Gru { hidden: 48, bidirectional: true },
            decoder: DecoderKind::Crf,
            ..base.clone()
        },
        "charGRU-BiGRU-CRF [105]",
        false,
        false,
        false,
        9,
    );

    // --- Decoders (BiLSTM encoder held fixed) ---
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::Softmax,
            ..base.clone()
        },
        "BiLSTM-Softmax (ablation)",
        false,
        false,
        false,
        10,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::Rnn { tag_dim: 8, hidden: 32 },
            ..base.clone()
        },
        "BiLSTM + RNN decoder [87]",
        false,
        false,
        false,
        11,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::Pointer { att: 24, max_len: 4 },
            ..base.clone()
        },
        "LSTM + pointer network [94]",
        false,
        false,
        false,
        12,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::SemiCrf { max_len: 4 },
            ..base.clone()
        },
        "BiLSTM + semi-CRF [142]",
        false,
        false,
        false,
        13,
    );

    // --- Hybrid features ---
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::Cnn { dim: 16, filters: 16 },
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::Crf,
            use_features: true,
            ..base.clone()
        },
        "+ spelling/POS features [18][111]",
        true,
        false,
        false,
        14,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::Cnn { dim: 16, filters: 16 },
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::Crf,
            use_features: true,
            use_gazetteer: true,
            ..base.clone()
        },
        "+ gazetteers [18][107]",
        true,
        true,
        false,
        15,
    );

    // --- Transformer without pretraining (expected to fail, §3.5) ---
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: pre.clone(),
            encoder: EncoderKind::Transformer { d_model: 48, heads: 4, layers: 2, d_ff: 96 },
            decoder: DecoderKind::Softmax,
            ..base.clone()
        },
        "Transformer from scratch [146][147]",
        false,
        false,
        false,
        16,
    );

    // --- Contextual LM embeddings (paper's SOTA rows) ---
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::Crf,
            ..base.clone()
        },
        "contextual string emb + BiLSTM-CRF [106]",
        false,
        false,
        true,
        17,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::Cnn { dim: 16, filters: 16 },
            word: pre.clone(),
            encoder: bilstm.clone(),
            decoder: DecoderKind::Crf,
            ..base.clone()
        },
        "char+word+LM stack (LM-LSTM-CRF) [124]",
        false,
        false,
        true,
        18,
    );
    run(
        &ctx,
        &mut rows,
        NerConfig {
            char_repr: CharRepr::None,
            word: WordRepr::Random { dim: 16 },
            encoder: EncoderKind::Identity,
            decoder: DecoderKind::Softmax,
            ..base.clone()
        },
        "LM embeddings + softmax head [136]",
        false,
        false,
        true,
        19,
    );

    rows.sort_by(|a, b| b.f1_unseen.partial_cmp(&a.f1_unseen).expect("finite"));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.signature.clone(),
                r.reference.clone(),
                pct(r.f1_test),
                pct(r.f1_unseen),
                format!("{}k", r.params / 1000),
            ]
        })
        .collect();
    print_table(
        "Table 3 — architecture matrix (sorted by unseen-entity F1)",
        &["Architecture", "Survey reference", "F1 (test)", "F1 (unseen)", "Params"],
        &table,
    );
    write_report("table3", &rows);
}
