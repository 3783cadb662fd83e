//! E-F6 — reproduces **Fig. 6** (Iterated Dilated CNNs, Strubell et al.).
//!
//! Two claims from the paper:
//! 1. ID-CNN retains accuracy comparable to BiLSTM-CRF;
//! 2. because convolutions parallelize across positions (no sequential
//!    recurrence), ID-CNN is substantially faster at test time — the paper
//!    reports 14–20× on GPU batches; on a scalar CPU the expected shape is
//!    a consistent >1× advantage that *grows with sentence length*.
//!
//! The harness reports the accuracy side and a model-level timing sweep,
//! then times the five context encoders alone — BiLSTM, ID-CNN, CNN,
//! Transformer, BiGRU at d=48 over 10/40/160-token sentences — for §3.5's
//! complexity claim (E-S35): self-attention's O(n²·d) against recurrence's
//! O(n·d²), the Transformer cheaper at short lengths with a cost that
//! grows superlinearly as the attention term takes over.

use ner_bench::{
    best_us, eval_on, harness_train_config, init_harness, pct, print_table, standard_data,
    train_model, write_report, Scale,
};
use ner_core::config::{CharRepr, EncoderKind, NerConfig, WordRepr};
use ner_core::encoder::Encoder;
use ner_core::prelude::*;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use ner_tensor::{init, BatchedExec, Exec, ParamStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// Width of the encoder-speed sweep's inputs and hidden states.
const DIM: usize = 48;

/// Sentence lengths of the encoder-speed sweep.
const SWEEP_LENS: [usize; 3] = [10, 40, 160];

#[derive(Serialize)]
struct EncoderTiming {
    encoder: String,
    tokens: usize,
    best_us: f64,
}

#[derive(Serialize)]
struct Report {
    f1_bilstm: f64,
    f1_idcnn: f64,
    speedups_by_length: Vec<(usize, f64)>,
    /// E-S35: one sentence's encoder forward, best of N, by length.
    encoder_forward_us: Vec<EncoderTiming>,
}

/// Times each encoder's forward over one `[n, DIM]` sentence on the packed
/// inference backend (a batch of one, as serving scores a lone request).
fn encoder_speed(reps: usize) -> Vec<EncoderTiming> {
    let kinds = [
        ("BiLSTM", EncoderKind::Lstm { hidden: DIM, bidirectional: true, layers: 1 }),
        (
            "ID-CNN",
            EncoderKind::IdCnn { filters: DIM, width: 3, dilations: vec![1, 2, 4], iterations: 2 },
        ),
        ("CNN", EncoderKind::Cnn { filters: DIM, layers: 2, width: 3, global: false }),
        ("Transformer", EncoderKind::Transformer { d_model: DIM, heads: 4, layers: 2, d_ff: 96 }),
        ("BiGRU", EncoderKind::Gru { hidden: DIM, bidirectional: true }),
    ];
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Vec::new();
    for (name, kind) in kinds {
        let mut store = ParamStore::new();
        let enc = Encoder::new(&mut store, &mut rng, "enc", DIM, &kind);
        for tokens in SWEEP_LENS {
            let x = init::uniform(&mut rng, tokens, DIM, 1.0);
            let us = best_us(reps, 1, || {
                let mut bx = BatchedExec::new(&store, &[tokens]);
                let xv = bx.constant(x.clone());
                let h = enc.forward(&mut bx, &store, xv);
                black_box(bx.value(h));
            });
            out.push(EncoderTiming { encoder: name.to_string(), tokens, best_us: us });
        }
    }
    out
}

fn inference_time(model: &NerModel, enc: &SentenceEncoder, ds: &Dataset, reps: usize) -> f64 {
    let encoded = enc.encode_dataset(ds, None);
    let t = Instant::now();
    for _ in 0..reps {
        for e in &encoded {
            let ts = Instant::now();
            let _ = model.predict_spans(e);
            ner_obs::observe("infer.sentence_us", ts.elapsed().as_secs_f64() * 1e6);
            ner_obs::counter("infer.tokens", e.len() as f64);
        }
    }
    t.elapsed().as_secs_f64() / reps as f64
}

/// Builds a dataset of concatenated sentences reaching ~`target_len` tokens,
/// emulating the paper's document-length processing.
fn long_sentences(target_len: usize, n: usize, seed: u64) -> Dataset {
    let gen = NewsGenerator::new(GeneratorConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut tokens: Vec<String> = Vec::new();
        let mut entities = Vec::new();
        while tokens.len() < target_len {
            let s = gen.sentence(&mut rng);
            let off = tokens.len();
            tokens.extend(s.tokens.iter().map(|t| t.text.clone()));
            entities.extend(
                s.entities.iter().map(|e| {
                    ner_text::EntitySpan::new(e.start + off, e.end + off, e.label.clone())
                }),
            );
        }
        out.push(Sentence::new(&tokens, entities));
    }
    Dataset::new(out)
}

fn main() {
    let scale = Scale::from_args();
    init_harness("fig6", 42, scale);
    let data = standard_data(42, scale);
    let tc = harness_train_config(scale);

    let bilstm_cfg = NerConfig {
        char_repr: CharRepr::None,
        word: WordRepr::Random { dim: 32 },
        encoder: EncoderKind::Lstm { hidden: 48, bidirectional: true, layers: 1 },
        ..NerConfig::default()
    };
    let idcnn_cfg = NerConfig {
        encoder: EncoderKind::IdCnn {
            filters: 48,
            width: 3,
            dilations: vec![1, 2, 4],
            iterations: 2,
        },
        ..bilstm_cfg.clone()
    };

    println!("training BiLSTM-CRF and ID-CNN-CRF ...");
    let (enc_l, bilstm) = train_model(bilstm_cfg, &data.train, &tc, 21);
    let (enc_c, idcnn) = train_model(idcnn_cfg, &data.train, &tc, 21);
    let f1_l = eval_on(&enc_l, &bilstm, &data.test_unseen).micro.f1;
    let f1_c = eval_on(&enc_c, &idcnn, &data.test_unseen).micro.f1;

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for &len in &[10usize, 20, 40, 80] {
        let ds = long_sentences(len, scale.size(40), 99);
        let reps = if scale == Scale::Quick { 1 } else { 3 };
        let t_l = inference_time(&bilstm, &enc_l, &ds, reps);
        let t_c = inference_time(&idcnn, &enc_c, &ds, reps);
        let speedup = t_l / t_c;
        speedups.push((len, speedup));
        rows.push(vec![
            len.to_string(),
            format!("{:.1} ms", 1e3 * t_l),
            format!("{:.1} ms", 1e3 * t_c),
            format!("{speedup:.2}x"),
        ]);
    }

    print_table(
        "Fig. 6 — ID-CNN vs BiLSTM-CRF: accuracy",
        &["Model", "F1 (unseen)"],
        &[vec!["BiLSTM-CRF".into(), pct(f1_l)], vec!["ID-CNN-CRF".into(), pct(f1_c)]],
    );
    print_table(
        "Fig. 6 — test-time cost by sentence length (lower is better)",
        &["Tokens/sentence", "BiLSTM-CRF", "ID-CNN-CRF", "ID-CNN speedup"],
        &rows,
    );
    println!(
        "\nExpected shape (paper): comparable F1; ID-CNN speedup > 1x and growing with length"
    );
    println!("(paper reports 14-20x with GPU batch parallelism; scalar CPU shows the trend).");

    let encoder_forward_us = encoder_speed(if scale == Scale::Quick { 20 } else { 200 });
    print_table(
        "§3.5 — encoder forward per sentence by length, d=48 (best of N, µs)",
        &["Encoder", "n=10", "n=40", "n=160", "n=160 / n=10"],
        &encoder_forward_us
            .chunks(SWEEP_LENS.len())
            .map(|row| {
                let mut cells = vec![row[0].encoder.clone()];
                cells.extend(row.iter().map(|t| format!("{:.1}", t.best_us)));
                cells.push(format!("{:.1}x", row[2].best_us / row[0].best_us));
                cells
            })
            .collect::<Vec<_>>(),
    );
    println!("\nExpected shape (paper §3.5): self-attention is O(n^2*d) and recurrence O(n*d^2):");
    println!("the Transformer is cheaper than the BiLSTM at short n and grows superlinearly.");

    write_report(
        "fig6",
        &Report {
            f1_bilstm: f1_l,
            f1_idcnn: f1_c,
            speedups_by_length: speedups,
            encoder_forward_us,
        },
    );
}
