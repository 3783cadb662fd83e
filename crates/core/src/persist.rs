//! Pipeline persistence: a [`Checkpoint`] captures everything needed to
//! rebuild a trained [`NerPipeline`] — configuration, data encoder
//! (vocabularies, tag set, feature switches, gazetteer) and trained
//! parameters — as a single JSON document.

use crate::config::{NerConfig, WordRepr};
use crate::encoder::Encoder;
use crate::inference::NerPipeline;
use crate::model::NerModel;
use crate::repr::SentenceEncoder;
use ner_tensor::ParamStore;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A serializable snapshot of a trained pipeline.
#[derive(Serialize, Deserialize)]
pub struct Checkpoint {
    /// The model architecture.
    pub config: NerConfig,
    /// The data encoder (vocabularies, tag set, features, gazetteer).
    pub encoder: SentenceEncoder,
    /// Trained parameters, addressed by name.
    pub params: ParamStore,
}

/// Errors raised when restoring a checkpoint.
#[derive(Debug)]
pub enum RestoreError {
    /// The JSON did not parse as a checkpoint.
    Parse(String),
    /// The checkpoint's parameters do not fit the declared architecture.
    ParameterMismatch {
        /// How many parameters were matched by name and shape.
        matched: usize,
        /// How many the freshly built model expected.
        expected: usize,
    },
    /// The checkpoint's config describes an architecture that cannot be
    /// built.
    InvalidConfig(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Parse(e) => write!(f, "checkpoint parse error: {e}"),
            RestoreError::ParameterMismatch { matched, expected } => {
                write!(f, "checkpoint parameters do not match architecture: {matched}/{expected} restored")
            }
            RestoreError::InvalidConfig(e) => write!(f, "checkpoint config is invalid: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl Checkpoint {
    /// Snapshots a trained pipeline.
    pub fn capture(pipeline: &NerPipeline) -> Self {
        Checkpoint {
            config: pipeline.model.cfg.clone(),
            encoder: pipeline.encoder.clone(),
            params: pipeline.model.store.clone(),
        }
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization cannot fail")
    }

    /// Parses a checkpoint from JSON. Parse failures carry a position hint
    /// (byte offset plus line/column) pointing at the offending input.
    pub fn from_json(json: &str) -> Result<Self, RestoreError> {
        serde_json::from_str(json).map_err(|e| {
            RestoreError::Parse(format!("{e}, {}", position_hint(json, &e.to_string())))
        })
    }

    /// Rebuilds the runnable pipeline.
    ///
    /// The model skeleton is constructed from the stored config (with a
    /// placeholder word table when the config declares pretrained
    /// embeddings — the checkpointed values overwrite it), then every
    /// parameter is restored by name. An encoder config that cannot be
    /// built is a [`RestoreError::InvalidConfig`], not a panic.
    pub fn restore(self) -> Result<NerPipeline, RestoreError> {
        Encoder::check(&self.config.encoder).map_err(RestoreError::InvalidConfig)?;
        let mut cfg = self.config.clone();
        // A pretrained-word config normally demands the embedding file at
        // construction; the checkpoint already carries the trained table,
        // so build with a same-shaped random table instead.
        let frozen_words = if let WordRepr::Pretrained { fine_tune } = cfg.word {
            let table = self
                .params
                .find("input.word_emb")
                .map(|id| self.params.value(id).cols())
                .ok_or(RestoreError::ParameterMismatch { matched: 0, expected: 1 })?;
            cfg.word = WordRepr::Random { dim: table };
            !fine_tune
        } else {
            false
        };

        // Construction RNG is irrelevant: every weight is overwritten.
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = NerModel::new(cfg, &self.encoder, None, &mut rng);
        model.cfg = self.config;
        let expected = model.store.len();
        let matched = model.store.load_matching(&self.params);
        if matched != expected {
            return Err(RestoreError::ParameterMismatch { matched, expected });
        }
        if frozen_words {
            model.store.freeze_prefix("input.word_emb", true);
        }
        Ok(NerPipeline::new(self.encoder, model))
    }

    /// Writes the checkpoint to a file, atomically.
    ///
    /// The JSON is written to a sibling temp file and renamed into place,
    /// so a crash mid-write can never leave a truncated checkpoint at
    /// `path` — a pre-existing file stays intact until the new one is
    /// complete. This matters once a server hot-reloads from disk: the
    /// reload either sees the old complete checkpoint or the new one.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let tmp = Self::staging_path(path);
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            // Leave no orphaned temp file behind a failed rename.
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// The sibling temp path `save` stages into before renaming. Includes
    /// the pid so concurrent writers never clobber each other's staging
    /// file (the final rename still makes the last writer win atomically).
    fn staging_path(path: &std::path::Path) -> std::path::PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(format!(".tmp.{}", std::process::id()));
        path.with_file_name(name)
    }

    /// Reads a checkpoint from a file. Failures name the offending path;
    /// parse failures additionally carry the position hint of
    /// [`Checkpoint::from_json`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, RestoreError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| RestoreError::Parse(format!("cannot read {}: {e}", path.display())))?;
        Self::from_json(&text).map_err(|e| match e {
            RestoreError::Parse(msg) => RestoreError::Parse(format!("{}: {msg}", path.display())),
            other => other,
        })
    }
}

/// Renders "around byte N (line L, column C)" for a parse error, using the
/// byte offset embedded in the parser's message when present and the end of
/// the input otherwise (the truncated-file case).
fn position_hint(json: &str, msg: &str) -> String {
    let offset = msg
        .rsplit("at byte ")
        .next()
        .and_then(|t| t.parse::<usize>().ok())
        .unwrap_or(json.len())
        .min(json.len());
    let prefix = &json.as_bytes()[..offset];
    let line = prefix.iter().filter(|&&b| b == b'\n').count() + 1;
    let column = offset - prefix.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1) + 1;
    format!("around byte {offset} (line {line}, column {column})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CharRepr, DecoderKind, EncoderKind};
    use crate::prelude::*;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_pipeline(decoder: DecoderKind) -> (NerPipeline, Dataset) {
        let mut rng = StdRng::seed_from_u64(1);
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let train_ds = gen.dataset(&mut rng, 60);
        let encoder = SentenceEncoder::from_dataset(&train_ds, TagScheme::Bio, 1);
        let cfg = NerConfig {
            scheme: TagScheme::Bio,
            word: ner_core_wordrepr(),
            char_repr: CharRepr::Cnn { dim: 8, filters: 8 },
            encoder: EncoderKind::Lstm { hidden: 12, bidirectional: true, layers: 1 },
            decoder,
            dropout: 0.1,
            ..NerConfig::default()
        };
        let mut model = NerModel::new(cfg, &encoder, None, &mut rng);
        let train_enc = encoder.encode_dataset(&train_ds, None);
        crate::trainer::train(
            &mut model,
            &train_enc,
            None,
            &TrainConfig { epochs: 2, patience: None, ..Default::default() },
            &mut rng,
        );
        (NerPipeline::new(encoder, model), train_ds)
    }

    fn ner_core_wordrepr() -> crate::config::WordRepr {
        crate::config::WordRepr::Random { dim: 16 }
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (pipeline, ds) = trained_pipeline(DecoderKind::Crf);
        let json = Checkpoint::capture(&pipeline).to_json();
        let restored = Checkpoint::from_json(&json).unwrap().restore().unwrap();
        for s in ds.sentences.iter().take(10) {
            assert_eq!(
                pipeline.annotate(s).entities,
                restored.annotate(s).entities,
                "restored pipeline must predict identically"
            );
        }
    }

    #[test]
    fn round_trip_works_for_every_decoder() {
        for decoder in [
            DecoderKind::Softmax,
            DecoderKind::SemiCrf { max_len: 3 },
            DecoderKind::Rnn { tag_dim: 4, hidden: 8 },
            DecoderKind::Pointer { att: 8, max_len: 3 },
        ] {
            let (pipeline, ds) = trained_pipeline(decoder.clone());
            let restored = Checkpoint::capture(&pipeline).to_json();
            let restored = Checkpoint::from_json(&restored).unwrap().restore().unwrap();
            let s = &ds.sentences[0];
            assert_eq!(pipeline.annotate(s).entities, restored.annotate(s).entities, "{decoder:?}");
        }
    }

    #[test]
    fn every_parameter_round_trips_bit_exactly() {
        let (pipeline, _) = trained_pipeline(DecoderKind::Crf);
        let store = &pipeline.model.store;
        let json = Checkpoint::capture(&pipeline).to_json();
        let back = Checkpoint::from_json(&json).unwrap().params;
        assert_eq!(back.len(), store.len());
        for (id, back_id) in store.ids().zip(back.ids()) {
            assert_eq!(store.name(id), back.name(back_id));
            assert_eq!(store.is_frozen(id), back.is_frozen(back_id));
            let (want, got) = (store.value(id), back.value(back_id));
            assert_eq!(want.shape(), got.shape(), "{}", store.name(id));
            let bits = |t: &ner_tensor::Tensor| t.data().iter().map(|x| x.to_bits()).collect();
            let want_bits: Vec<u32> = bits(want);
            assert!(want_bits == bits(got), "{} changed its bits", store.name(id));
        }
    }

    /// The JSON objects of the checkpoint's parameter slots.
    fn slots(ckpt: &serde::Value) -> Vec<Vec<(String, serde::Value)>> {
        let slots = ckpt.get("params").and_then(|p| p.get("slots")).and_then(|s| s.as_array());
        let slots = slots.expect("params.slots array");
        slots.iter().map(|s| s.as_object().expect("slot object").to_vec()).collect()
    }

    #[test]
    fn checkpoints_do_not_store_gradients() {
        let (pipeline, _) = trained_pipeline(DecoderKind::Crf);
        let ckpt: serde::Value =
            serde_json::from_str(&Checkpoint::capture(&pipeline).to_json()).unwrap();
        for slot in slots(&ckpt) {
            let keys: Vec<&str> = slot.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["name", "value", "frozen"]);
        }
    }

    #[test]
    fn checkpoints_with_stored_gradients_still_restore() {
        // Earlier checkpoints wrote every slot as name, value, grad, frozen.
        let (pipeline, ds) = trained_pipeline(DecoderKind::Crf);
        let store = &pipeline.model.store;
        let mut ckpt: serde::Value =
            serde_json::from_str(&Checkpoint::capture(&pipeline).to_json()).unwrap();
        let old_slots: Vec<serde::Value> = slots(&ckpt)
            .into_iter()
            .zip(store.ids())
            .map(|(mut slot, id)| {
                slot.insert(2, ("grad".to_string(), store.grad(id).serialize()));
                serde::Value::Object(slot)
            })
            .collect();
        let serde::Value::Object(fields) = &mut ckpt else { panic!("checkpoint object") };
        let params = fields.iter_mut().find(|(k, _)| k == "params").expect("params field");
        params.1 =
            serde::Value::Object(vec![("slots".to_string(), serde::Value::Array(old_slots))]);
        let old_json = serde_json::to_string(&ckpt).unwrap();
        assert!(old_json.contains("\"grad\":"));

        let restored = Checkpoint::from_json(&old_json).unwrap().restore().unwrap();
        for s in ds.sentences.iter().take(10) {
            assert_eq!(pipeline.annotate(s).entities, restored.annotate(s).entities);
        }
    }

    #[test]
    fn bad_escape_in_a_parameter_name_reports_its_position() {
        let (pipeline, _) = trained_pipeline(DecoderKind::Softmax);
        let store = &pipeline.model.store;
        let name = store.name(store.ids().last().expect("a parameter"));
        let pretty = serde_json::to_string_pretty(&Checkpoint::capture(&pipeline)).unwrap();
        let needle = format!("\"name\": \"{name}\"");
        let broken_name = format!("\"name\": \"{name}\\q\"");
        let broken = pretty.replacen(&needle, &broken_name, 1);
        assert_ne!(broken, pretty, "the name is in the checkpoint");
        // The escape's backslash is the third byte from the end of `broken_name`.
        let offset = broken.find(&broken_name).unwrap() + broken_name.len() - 3;
        let (line, text) =
            broken.lines().enumerate().find(|(_, l)| l.contains(&broken_name)).unwrap();
        let column = text.find(&broken_name).unwrap() + broken_name.len() - 2;

        let Err(err) = Checkpoint::from_json(&broken) else {
            panic!("a bad escape must not parse");
        };
        let msg = err.to_string();
        assert!(msg.contains(&format!("bad escape at byte {offset}")), "{msg}");
        let hint = format!("around byte {offset} (line {}, column {column})", line + 1);
        assert!(msg.contains(&hint), "want {hint:?} in {msg}");
    }

    #[test]
    fn corrupted_json_is_rejected() {
        let Err(err) = Checkpoint::from_json("{not json") else {
            panic!("corrupted JSON must not parse");
        };
        assert!(matches!(err, RestoreError::Parse(_)));
    }

    #[test]
    fn truncated_file_error_names_path_and_position() {
        let (pipeline, _) = trained_pipeline(DecoderKind::Softmax);
        let json = Checkpoint::capture(&pipeline).to_json();
        let path = unique_temp_path("truncated");
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        let Err(err) = Checkpoint::load(&path) else {
            panic!("truncated checkpoint must not parse");
        };
        let msg = err.to_string();
        assert!(
            msg.contains(path.to_str().unwrap()),
            "error should name the offending file, got: {msg}"
        );
        assert!(
            msg.contains("around byte") && msg.contains("line"),
            "error should carry a parse-position hint, got: {msg}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_error_names_path() {
        let path = unique_temp_path("does-not-exist");
        let _ = std::fs::remove_file(&path);
        let Err(err) = Checkpoint::load(&path) else {
            panic!("missing checkpoint must not load");
        };
        assert!(err.to_string().contains(path.to_str().unwrap()), "got: {err}");
    }

    #[test]
    fn architecture_mismatch_is_detected() {
        let (pipeline, _) = trained_pipeline(DecoderKind::Crf);
        let mut ckpt = Checkpoint::capture(&pipeline);
        // Declare a different encoder width: the stored params no longer fit.
        ckpt.config.encoder = EncoderKind::Lstm { hidden: 99, bidirectional: true, layers: 1 };
        let Err(err) = ckpt.restore() else {
            panic!("mismatched architecture must not restore");
        };
        assert!(matches!(err, RestoreError::ParameterMismatch { .. }), "got {err}");
    }

    #[test]
    fn unbuildable_encoder_config_is_an_error() {
        let (pipeline, _) = trained_pipeline(DecoderKind::Crf);
        let mut ckpt = Checkpoint::capture(&pipeline);
        ckpt.config.encoder = EncoderKind::Lstm { hidden: 16, bidirectional: true, layers: 0 };
        let Err(err) = ckpt.restore() else {
            panic!("a zero-layer encoder must not restore");
        };
        assert!(matches!(err, RestoreError::InvalidConfig(_)), "got {err}");
    }

    /// A per-process temp path: concurrent `cargo test` invocations must
    /// not race on a shared fixed file name.
    fn unique_temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("neural-ner-test-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn file_round_trip() {
        let (pipeline, ds) = trained_pipeline(DecoderKind::Crf);
        let path = unique_temp_path("ckpt");
        Checkpoint::capture(&pipeline).save(&path).unwrap();
        let restored = Checkpoint::load(&path).unwrap().restore().unwrap();
        let s = &ds.sentences[0];
        assert_eq!(pipeline.annotate(s).entities, restored.annotate(s).entities);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_is_atomic_and_cleans_its_staging_file() {
        let (pipeline, _) = trained_pipeline(DecoderKind::Softmax);
        let ckpt = Checkpoint::capture(&pipeline);
        let path = unique_temp_path("atomic");
        let staging = Checkpoint::staging_path(&path);

        // A crash mid-write means the staging file holds a truncated JSON
        // while the real path still holds the previous complete checkpoint.
        ckpt.save(&path).unwrap();
        let complete = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&staging, &complete[..complete.len() / 2]).unwrap();
        let reread = std::fs::read_to_string(&path).unwrap();
        assert_eq!(reread, complete, "a half-written staging file must not touch the target");
        assert!(Checkpoint::load(&path).is_ok(), "target still parses after the simulated crash");

        // The next successful save replaces both, leaving no staging file.
        ckpt.save(&path).unwrap();
        assert!(!staging.exists(), "save must not leave its staging file behind");
        assert!(Checkpoint::load(&path).unwrap().restore().is_ok());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_save_leaves_existing_checkpoint_intact() {
        let (pipeline, _) = trained_pipeline(DecoderKind::Softmax);
        let ckpt = Checkpoint::capture(&pipeline);
        let path = unique_temp_path("intact");
        ckpt.save(&path).unwrap();
        let before = std::fs::read_to_string(&path).unwrap();

        // Make the atomic rename fail by turning the target into a
        // non-empty directory; the original file elsewhere must be
        // untouched and no staging file may linger.
        let dir_target = unique_temp_path("intact-dir");
        std::fs::create_dir_all(dir_target.join("occupied")).unwrap();
        assert!(ckpt.save(&dir_target).is_err(), "rename onto a non-empty dir must fail");
        assert!(!Checkpoint::staging_path(&dir_target).exists(), "failed save cleans staging");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir_target);
        let _ = std::fs::remove_file(&path);
    }
}
