//! The checkpoint loader is an untrusted boundary: `/admin/reload` and
//! `neural-ner serve --model` read whatever file is on disk. Bad bytes must
//! come back as an `Err`, never as a panic.
//!
//! * arbitrary text never panics `Checkpoint::from_json`;
//! * every truncation of a valid checkpoint is an `Err` that carries the
//!   line/column hint;
//! * a single-byte substitution before `"params"` in any zoo preset's
//!   checkpoint never panics `from_json` + `restore`: exhaustively over the
//!   config section, where every size and layer count lives, and at
//!   random positions over the whole config and encoder sections.

use ner_core::prelude::*;
use ner_core::zoo;
use ner_corpus::{GeneratorConfig, NewsGenerator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Characters that reshape JSON: digits change sizes, the rest change
/// structure, signs, exponents and literals.
const SUBSTITUTES: &[u8] = b"0123456789\"{}[],:.-+eE tfnx\\";

/// One zoo preset's checkpoint, split at `"params"`.
struct Preset {
    name: &'static str,
    /// The JSON before `"params"`: the config and encoder sections.
    head: String,
    /// Byte length of the config section at the start of `head`.
    config_len: usize,
    ckpt: Checkpoint,
}

/// Every zoo preset's checkpoint over a three-sentence corpus, which keeps
/// the encoder section small. Pretrained-word presets are built with a
/// random table and then declared pretrained again, so `restore` takes its
/// pretrained branch too.
fn presets() -> &'static [Preset] {
    static PRESETS: OnceLock<Vec<Preset>> = OnceLock::new();
    PRESETS.get_or_init(|| {
        let ds = NewsGenerator::new(GeneratorConfig::default())
            .dataset(&mut StdRng::seed_from_u64(3), 3);
        zoo::zoo()
            .into_iter()
            .map(|entry| {
                let mut built = entry.config.clone();
                if matches!(built.word, WordRepr::Pretrained { .. }) {
                    built.word = WordRepr::Random { dim: 8 };
                }
                let encoder = SentenceEncoder::from_dataset(&ds, built.scheme, 1);
                let model = NerModel::new(built, &encoder, None, &mut StdRng::seed_from_u64(1));
                let mut ckpt = Checkpoint::capture(&NerPipeline::new(encoder, model));
                ckpt.config = entry.config;
                let json = ckpt.to_json();
                let head = json[..json.find("\"params\"").expect("params section")].to_string();
                let config_len = head.find("\"encoder\":{\"word_vocab\"").expect("encoder section");
                Preset { name: entry.name, head, config_len, ckpt }
            })
            .collect()
    })
}

/// Replaces byte `at` of the preset's head with `b`, parses the result and
/// restores it. The parameter section is parsed once up front rather than
/// per case: the substituted text is closed with an empty parameter
/// section, and `restore` gets the preset's own parameters. A byte before
/// `"params"` cannot change how the parameter section parses, so this is
/// the same check as on the whole file. Returns whether it restored.
fn substitute_and_restore(preset: &Preset, at: usize, b: u8) -> bool {
    let mut bytes = preset.head.as_bytes().to_vec();
    bytes[at] = b;
    bytes.extend_from_slice(b"\"params\":{\"slots\":[]}}");
    let Ok(text) = String::from_utf8(bytes) else { return false };
    let Ok(mut ckpt) = Checkpoint::from_json(&text) else { return false };
    ckpt.params = preset.ckpt.params.clone();
    ckpt.restore().is_ok()
}

#[test]
fn every_substitution_in_the_config_section_restores_or_errs() {
    for preset in presets() {
        let mut restored = 0;
        for at in 0..preset.config_len {
            for &b in SUBSTITUTES {
                if b != preset.head.as_bytes()[at] && substitute_and_restore(preset, at, b) {
                    restored += 1;
                }
            }
        }
        // Digit changes that keep the architecture consistent must still
        // load; only the parameter shapes then refuse most of them.
        assert!(restored > 0, "{}: no substitution restored", preset.name);
    }
}

#[test]
fn every_truncation_is_an_error_with_a_position_hint() {
    // A model small enough that cutting the file at every byte stays cheap.
    let ds =
        NewsGenerator::new(GeneratorConfig::default()).dataset(&mut StdRng::seed_from_u64(5), 1);
    let cfg = NerConfig {
        word: WordRepr::Random { dim: 2 },
        char_repr: CharRepr::None,
        encoder: EncoderKind::Identity,
        decoder: DecoderKind::Softmax,
        ..NerConfig::default()
    };
    let encoder = SentenceEncoder::from_dataset(&ds, cfg.scheme, 1);
    let model = NerModel::new(cfg, &encoder, None, &mut StdRng::seed_from_u64(1));
    let json = Checkpoint::capture(&NerPipeline::new(encoder, model)).to_json();
    assert!(Checkpoint::from_json(&json).is_ok());
    for cut in (0..json.len()).filter(|&c| json.is_char_boundary(c)) {
        let Err(err) = Checkpoint::from_json(&json[..cut]) else {
            panic!("a checkpoint cut at byte {cut} of {} parsed", json.len());
        };
        let msg = err.to_string();
        assert!(
            msg.contains("around byte") && msg.contains("line") && msg.contains("column"),
            "cut at {cut}: no position hint in {msg}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_substitution_anywhere_before_params_never_panics(
        preset in 0usize..64,
        at in 0usize..1 << 20,
        b in 0usize..SUBSTITUTES.len(),
    ) {
        let presets = presets();
        let preset = &presets[preset % presets.len()];
        substitute_and_restore(preset, at % preset.head.len(), SUBSTITUTES[b]);
    }

    #[test]
    fn arbitrary_text_never_panics_the_loader(
        picks in prop::collection::vec(0usize..40, 0..200),
        raw in prop::collection::vec(0u8..=255, 0..64),
    ) {
        // Mostly JSON punctuation and checkpoint keys, so the parser gets
        // past the first byte; then raw bytes, read lossily as UTF-8.
        let words: [&str; 40] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "0", "1", "-", ".", "e", "9",
            "true", "false", "null", " ", "\n", "\"config\"", "\"encoder\"", "\"params\"",
            "\"slots\"", "\"name\"", "\"value\"", "\"frozen\"", "\"shape\"", "\"data\"",
            "\"Lstm\"", "\"hidden\"", "\"layers\"", "\"heads\"", "\"d_model\"", "\"width\"",
            "\"word_vocab\"", "\"tag_set\"", "1e999", "\u{e9}", "\"scheme\"",
        ];
        let mut text: String = picks.iter().map(|&i| words[i]).collect();
        text.push_str(&String::from_utf8_lossy(&raw));
        if let Ok(ckpt) = Checkpoint::from_json(&text) {
            let _ = ckpt.restore();
        }
    }
}
