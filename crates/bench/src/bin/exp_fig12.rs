//! E-F12 — reproduces **Fig. 12** (the four tag decoders) and §3.5's
//! decoder discussion.
//!
//! Grid: decoder {Softmax, CRF, Semi-CRF, RNN, Pointer} × input regime
//! {static word embeddings, + contextual-LM vectors}. The paper's claims:
//! CRF is the strongest choice with *non-contextualized* embeddings (it
//! supplies the label-transition structure); with contextualized embeddings
//! the CRF-over-softmax margin shrinks; greedy decoders (RNN/pointer) pay
//! for serialization.
//!
//! It then times decoding alone for §3.5's cost claim (E-S35): "CRF could
//! be computationally expensive when the number of entity types is large".
//! Viterbi over a 20-token sentence grows with the square of the tag count
//! (9 ≈ CoNLL's 4 types under BIO, 37 ≈ OntoNotes' 18, 129 ≈ BBN's 64),
//! while softmax decoding — a row-wise argmax — stays linear.

use ner_bench::{
    best_us, harness_train_config, init_harness, pct, print_table, standard_data, write_report,
    Scale,
};
use ner_core::config::{CharRepr, DecoderKind, NerConfig, WordRepr};
use ner_core::decoder::Crf;
use ner_core::prelude::*;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_embed::charlm::{CharLm, CharLmConfig};
use ner_embed::ContextualEmbedder;
use ner_tensor::{init, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;

/// Sentence length of the decoder-speed rows.
const DECODE_LEN: usize = 20;

#[derive(Serialize)]
struct Row {
    decoder: String,
    regime: String,
    f1_unseen: f64,
    invalid_sequences: usize,
}

/// One decoder-speed row: decoding a `DECODE_LEN`-token sentence.
#[derive(Serialize)]
struct DecodeTiming {
    decoder: String,
    tags: usize,
    best_us: f64,
}

#[derive(Serialize)]
struct Report {
    rows: Vec<Row>,
    /// E-S35: CRF Viterbi by tag count, and the softmax argmax floor.
    decode_us: Vec<DecodeTiming>,
}

/// Times CRF Viterbi (on decode tables compiled once, as the forward plan
/// does) by tag count, and softmax's row-wise argmax at CoNLL's 9 tags.
fn decoder_speed(reps: usize) -> Vec<DecodeTiming> {
    let mut rng = StdRng::seed_from_u64(5);
    let mut out = Vec::new();
    for tags in [9usize, 37, 129] {
        let mut store = ParamStore::new();
        let crf = Crf::new(&mut store, &mut rng, "crf", tags);
        let tables = crf.decode_tables(&store, None);
        let emissions = init::uniform(&mut rng, DECODE_LEN, tags, 1.0);
        let us = best_us(reps, 100, || drop(black_box(tables.viterbi(&emissions))));
        out.push(DecodeTiming { decoder: "CRF Viterbi".into(), tags, best_us: us });
    }
    let emissions = init::uniform(&mut rng, DECODE_LEN, 9, 1.0);
    let us = best_us(reps, 100, || {
        black_box((0..DECODE_LEN).map(|r| emissions.argmax_row(r)).collect::<Vec<_>>());
    });
    out.push(DecodeTiming { decoder: "Softmax argmax".into(), tags: 9, best_us: us });
    out
}

fn main() {
    let scale = Scale::from_args();
    init_harness("fig12", 42, scale);
    let data = standard_data(42, scale);
    let tc = harness_train_config(scale);
    let mut rng = StdRng::seed_from_u64(3);
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let lm_corpus = gen.lm_sentences(&mut rng, scale.size(800));
    println!("pretraining char-LM for the contextual regime ...");
    let (charlm, _) = CharLm::train(
        &lm_corpus,
        &CharLmConfig { hidden: 48, dim: 24, epochs: scale.epochs(3), ..Default::default() },
        &mut rng,
    );

    let decoders: [(&str, DecoderKind); 5] = [
        ("Softmax", DecoderKind::Softmax),
        ("CRF", DecoderKind::Crf),
        ("Semi-CRF", DecoderKind::SemiCrf { max_len: 4 }),
        ("RNN (greedy)", DecoderKind::Rnn { tag_dim: 8, hidden: 32 }),
        ("Pointer", DecoderKind::Pointer { att: 24, max_len: 4 }),
    ];

    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (regime, use_lm) in [("static embeddings", false), ("+ contextual LM", true)] {
        let encoder = SentenceEncoder::from_dataset(&data.train, TagScheme::Bio, 1);
        let ctx: Option<&dyn ContextualEmbedder> = use_lm.then_some(&charlm as _);
        let train_enc = encoder.encode_dataset(&data.train, ctx);
        let test_enc = encoder.encode_dataset(&data.test_unseen, ctx);
        for (name, decoder) in &decoders {
            let cfg = NerConfig {
                scheme: TagScheme::Bio,
                word: WordRepr::Random { dim: 32 },
                char_repr: CharRepr::None,
                decoder: decoder.clone(),
                context_dim: if use_lm { charlm.dim() } else { 0 },
                // disable the hard structural mask so the decoders' OWN
                // structure modeling is measured
                constrained_decoding: false,
                ..NerConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(19);
            let mut model = NerModel::new(cfg, &encoder, None, &mut rng);
            ner_core::trainer::train(&mut model, &train_enc, None, &tc, &mut rng);
            let f1 = evaluate_model(&model, &test_enc).micro.f1;
            let invalid = test_enc
                .iter()
                .filter(|e| {
                    model.predict_raw_tags(e).is_some_and(|tags| !TagScheme::Bio.is_valid(&tags))
                })
                .count();
            println!("  [{regime}] {name:<13} F1(unseen) {:>6}  ill-formed {}", pct(f1), invalid);
            rows.push(Row {
                decoder: name.to_string(),
                regime: regime.to_string(),
                f1_unseen: f1,
                invalid_sequences: invalid,
            });
            table.push(vec![regime.to_string(), name.to_string(), pct(f1), invalid.to_string()]);
        }
    }

    print_table(
        "Fig. 12 — tag decoders × input regime (BiLSTM encoder fixed)",
        &["Input regime", "Decoder", "F1 (unseen)", "Ill-formed outputs"],
        &table,
    );
    println!("\nExpected shape (paper §3.5): CRF > Softmax with static embeddings; the margin");
    println!("narrows once contextual LM features are added; segment decoders emit no");
    println!("ill-formed sequences by construction.");

    let decode_us = decoder_speed(if scale == Scale::Quick { 20 } else { 200 });
    print_table(
        "§3.5 — decoding one 20-token sentence by tag count (best of N, µs)",
        &["Decoder", "Tags", "µs"],
        &decode_us
            .iter()
            .map(|t| vec![t.decoder.clone(), t.tags.to_string(), format!("{:.2}", t.best_us)])
            .collect::<Vec<_>>(),
    );
    println!("\nExpected shape (paper §3.5): Viterbi grows ~quadratically with the tag count;");
    println!("softmax decoding stays linear.");
    let path = write_report("fig12", &Report { rows, decode_us });
    println!("report: {}", path.display());
}
