//! Layered nested NER (paper §3.3.2; Ju et al. 2018, §5.1's nested-entity
//! challenge).
//!
//! Two flat models are stacked: one trained on *outermost* entities, one on
//! *innermost* (nested) entities. At inference their predictions are merged,
//! recovering mentions a single flat model structurally cannot (a flat tag
//! sequence admits no overlapping spans).

use crate::config::NerConfig;
use crate::model::NerModel;
use crate::repr::{EncodedSentence, SentenceEncoder};
use crate::trainer::{self, TrainConfig, TrainReport};
use ner_embed::WordEmbeddings;
use ner_text::{Dataset, EntitySpan, Sentence};
use rand::Rng;

/// Projects a dataset onto its outermost-entity layer.
pub fn outer_layer(ds: &Dataset) -> Dataset {
    Dataset::new(
        ds.sentences
            .iter()
            .map(|s| Sentence { tokens: s.tokens.clone(), entities: s.outermost_entities() })
            .collect(),
    )
}

/// Projects a dataset onto its inner (nested) entity layer; sentences
/// without nesting keep empty annotations, teaching the inner model to
/// stay silent.
pub fn inner_layer(ds: &Dataset) -> Dataset {
    Dataset::new(
        ds.sentences
            .iter()
            .map(|s| Sentence { tokens: s.tokens.clone(), entities: s.nested_entities() })
            .collect(),
    )
}

/// A two-layer nested NER system.
pub struct LayeredNer {
    /// Flat model for outermost entities.
    pub outer: NerModel,
    /// Flat model for nested (inner) entities.
    pub inner: NerModel,
    outer_encoder: SentenceEncoder,
    inner_encoder: SentenceEncoder,
}

impl LayeredNer {
    /// Builds and trains both layers on a nested-annotated dataset.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        cfg: &NerConfig,
        train_ds: &Dataset,
        pretrained: Option<&WordEmbeddings>,
        train_cfg: &TrainConfig,
        rng: &mut impl Rng,
    ) -> (Self, TrainReport, TrainReport) {
        let outer_ds = outer_layer(train_ds);
        let inner_ds = inner_layer(train_ds);
        // The inner encoder may see no entity types at all if the corpus has
        // no nesting; fall back to the outer inventory so the model builds.
        let outer_encoder = SentenceEncoder::from_dataset(&outer_ds, cfg.scheme, 1);
        let inner_encoder = if inner_ds.entity_types().is_empty() {
            SentenceEncoder::from_dataset(&outer_ds, cfg.scheme, 1)
        } else {
            SentenceEncoder::from_dataset(&inner_ds, cfg.scheme, 1)
        };

        let mut outer = NerModel::new(cfg.clone(), &outer_encoder, pretrained, rng);
        let mut inner = NerModel::new(cfg.clone(), &inner_encoder, pretrained, rng);

        let outer_enc = outer_encoder.encode_dataset(&outer_ds, None);
        let report_outer = trainer::train(&mut outer, &outer_enc, None, train_cfg, rng);
        let inner_enc = inner_encoder.encode_dataset(&inner_ds, None);
        let report_inner = trainer::train(&mut inner, &inner_enc, None, train_cfg, rng);

        (LayeredNer { outer, inner, outer_encoder, inner_encoder }, report_outer, report_inner)
    }

    /// Predicts the union of both layers' entities for one sentence. Inner
    /// predictions are kept only when properly nested inside an outer one
    /// (Ju et al.'s layered constraint).
    pub fn predict(&self, s: &Sentence) -> Vec<EntitySpan> {
        let outer = self.outer.predict_spans(&self.outer_encoder.encode(s));
        let inner = self.inner.predict_spans(&self.inner_encoder.encode(s));
        merge_layers(outer, inner)
    }

    /// Predicts for a dataset, returning per-sentence span lists; each
    /// layer scores the whole dataset through [`trainer::predict_all`].
    pub fn predict_dataset(&self, ds: &Dataset) -> Vec<Vec<EntitySpan>> {
        let outer = flat_predictions(&self.outer, &self.outer_encoder, ds);
        let inner = flat_predictions(&self.inner, &self.inner_encoder, ds);
        outer.into_iter().zip(inner).map(|(o, i)| merge_layers(o, i)).collect()
    }
}

/// Outer spans plus every inner span strictly inside one of them.
fn merge_layers(outer: Vec<EntitySpan>, inner: Vec<EntitySpan>) -> Vec<EntitySpan> {
    let mut all = outer.clone();
    for i in inner {
        if outer.iter().any(|o| o.strictly_contains(&i)) && !all.contains(&i) {
            all.push(i);
        }
    }
    all
}

/// Evaluates predictions against *all* gold layers (outer + nested).
pub fn evaluate_nested(ds: &Dataset, preds: &[Vec<EntitySpan>]) -> crate::metrics::EvalResult {
    let golds: Vec<Vec<EntitySpan>> = ds.sentences.iter().map(|s| s.entities.clone()).collect();
    crate::metrics::evaluate(&golds, preds)
}

/// Encodes and predicts with a single flat model trained on the outer
/// layer only — the baseline the layered model is compared against. One
/// span list per sentence of `ds` (empty sentences included), through
/// [`trainer::predict_all`].
pub fn flat_predictions(
    model: &NerModel,
    encoder: &SentenceEncoder,
    ds: &Dataset,
) -> Vec<Vec<EntitySpan>> {
    let encs: Vec<EncodedSentence> = ds.sentences.iter().map(|s| encoder.encode(s)).collect();
    trainer::predict_all(model, &encs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CharRepr, DecoderKind, EncoderKind, WordRepr};
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use ner_text::TagScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nested_gen() -> NewsGenerator {
        NewsGenerator::new(GeneratorConfig {
            annotate_nested: true,
            institution_rate: 0.5,
            ..Default::default()
        })
    }

    fn quick_cfg() -> NerConfig {
        NerConfig {
            scheme: TagScheme::Bio,
            word: WordRepr::Random { dim: 16 },
            char_repr: CharRepr::None,
            encoder: EncoderKind::Lstm { hidden: 16, bidirectional: true, layers: 1 },
            decoder: DecoderKind::Crf,
            dropout: 0.1,
            ..NerConfig::default()
        }
    }

    #[test]
    fn layer_projection_partitions_entities() {
        let ds = nested_gen().dataset(&mut StdRng::seed_from_u64(1), 50);
        let outer = outer_layer(&ds);
        let inner = inner_layer(&ds);
        for ((full, o), i) in ds.sentences.iter().zip(&outer.sentences).zip(&inner.sentences) {
            assert_eq!(o.entities.len() + i.entities.len(), full.entities.len());
            assert!(!o.has_nesting());
        }
    }

    #[test]
    fn layered_model_recovers_nested_entities_flat_model_cannot() {
        let gen = nested_gen();
        let mut rng = StdRng::seed_from_u64(2);
        let train_ds = gen.dataset(&mut rng, 120);
        let test_ds = gen.dataset(&mut rng, 40);
        let tc = TrainConfig { epochs: 5, patience: None, ..Default::default() };

        let (layered, _, _) = LayeredNer::train(&quick_cfg(), &train_ds, None, &tc, &mut rng);
        let layered_preds = layered.predict_dataset(&test_ds);
        let layered_eval = evaluate_nested(&test_ds, &layered_preds);

        // Flat baseline: same architecture, outer annotations only.
        let outer_ds = outer_layer(&train_ds);
        let enc = SentenceEncoder::from_dataset(&outer_ds, TagScheme::Bio, 1);
        let mut flat = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        let outer_enc = enc.encode_dataset(&outer_ds, None);
        trainer::train(&mut flat, &outer_enc, None, &tc, &mut rng);
        let flat_preds = flat_predictions(&flat, &enc, &test_ds);
        let flat_eval = evaluate_nested(&test_ds, &flat_preds);

        assert!(
            layered_eval.micro.recall > flat_eval.micro.recall,
            "layered recall {} should beat flat recall {} on nested gold",
            layered_eval.micro.recall,
            flat_eval.micro.recall
        );
    }
}
