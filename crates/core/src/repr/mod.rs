//! Distributed representations for input — the first axis of the taxonomy
//! (paper §3.2): word-level, character-level (CNN Fig. 3a / BiLSTM Fig. 3b),
//! hand-crafted hybrid features, gazetteer flags and frozen contextual-LM
//! vectors, assembled per token into one input matrix.
//!
//! Split in two:
//! * [`SentenceEncoder`] — the *data* side: turns a [`Sentence`] into the
//!   id/feature arrays a model consumes ([`EncodedSentence`]). Contextual-LM
//!   vectors are precomputed here (they are frozen features, paper §3.2.3).
//! * [`InputLayer`] — the *model* side: trainable embedding tables and char
//!   composition modules producing the `[n, d]` input matrix on a tape.

use crate::config::{CharRepr, NerConfig, WordRepr};
use crate::plan::TokenFeatureCache;
use ner_embed::{ContextualEmbedder, WordEmbeddings};
use ner_tensor::fused::Activation;
use ner_tensor::nn::{Embedding, Linear, LstmCell};
use ner_tensor::{init, BatchedExec, BatchedVal, Exec, ParamId, ParamStore, Tensor};
use ner_text::features::{token_features, FEATURE_DIM};
use ner_text::pos::{tag_sentence, POS_DIM};
use ner_text::{Dataset, EntitySpan, Gazetteer, Sentence, TagScheme, TagSet, Vocab};
use rand::Rng;

/// A sentence converted to model inputs (the default is the empty
/// sentence).
#[derive(Clone, Debug, Default)]
pub struct EncodedSentence {
    /// Original token surfaces.
    pub tokens: Vec<String>,
    /// Word ids (lowercased lookup, `<unk>` fallback).
    pub word_ids: Vec<usize>,
    /// Character ids per word.
    pub char_ids: Vec<Vec<usize>>,
    /// Hand-crafted + gazetteer feature rows (empty when unused).
    pub feats: Vec<Vec<f32>>,
    /// Frozen contextual-LM vectors (empty when unused).
    pub ctx: Vec<Vec<f32>>,
    /// Gold tag ids under the encoder's scheme.
    pub tag_ids: Vec<usize>,
    /// Gold (outermost) entity spans.
    pub gold: Vec<EntitySpan>,
}

impl EncodedSentence {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True for the empty sentence.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Lowercased entity surfaces aligned with `gold` (for seen/unseen
    /// recall splits).
    pub fn gold_surfaces(&self) -> Vec<String> {
        self.gold
            .iter()
            .map(|e| {
                self.tokens[e.start..e.end]
                    .iter()
                    .map(|t| t.to_lowercase())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }
}

/// Converts sentences into [`EncodedSentence`]s with fixed vocabularies.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
pub struct SentenceEncoder {
    /// Word vocabulary (lowercased).
    pub word_vocab: Vocab,
    /// Character vocabulary.
    pub char_vocab: Vocab,
    /// Tag inventory under the configured scheme.
    pub tag_set: TagSet,
    /// Sorted entity-type names (for segment-level decoders).
    pub entity_types: Vec<String>,
    use_features: bool,
    gazetteer: Option<Gazetteer>,
}

impl SentenceEncoder {
    /// Builds vocabularies from the training set.
    pub fn from_dataset(train: &Dataset, scheme: TagScheme, min_count: usize) -> Self {
        let entity_types = train.entity_types();
        SentenceEncoder {
            word_vocab: train.word_vocab(min_count),
            char_vocab: train.char_vocab(),
            tag_set: TagSet::new(scheme, &entity_types),
            entity_types,
            use_features: false,
            gazetteer: None,
        }
    }

    /// Like [`SentenceEncoder::from_dataset`], but adopts the pretrained
    /// embeddings' vocabulary so word ids index the pretrained matrix.
    pub fn with_pretrained_vocab(mut self, emb: &WordEmbeddings) -> Self {
        self.word_vocab = emb.vocab().clone();
        self
    }

    /// Checks every vocabulary the encoder carries with [`Vocab::check`].
    pub fn check_vocabs(&self) -> Result<(), String> {
        self.word_vocab.check().map_err(|e| format!("word vocabulary: {e}"))?;
        self.char_vocab.check().map_err(|e| format!("char vocabulary: {e}"))
    }

    /// Enables the hand-crafted feature channel.
    pub fn with_features(mut self, on: bool) -> Self {
        self.use_features = on;
        self
    }

    /// Attaches a gazetteer whose match flags are appended to the features.
    pub fn with_gazetteer(mut self, g: Gazetteer) -> Self {
        self.gazetteer = Some(g);
        self
    }

    /// Width of the feature rows this encoder emits (0 when disabled).
    pub fn feat_dim(&self) -> usize {
        let base = if self.use_features { FEATURE_DIM + POS_DIM } else { 0 };
        base + self.gazetteer.as_ref().map_or(0, |g| g.types().len())
    }

    /// Encodes one sentence (no contextual vectors).
    pub fn encode(&self, s: &Sentence) -> EncodedSentence {
        self.encode_with_context(s, vec![])
    }

    /// Encodes one sentence with precomputed contextual-LM vectors
    /// (`ctx.len()` must be 0 or `s.len()`).
    pub fn encode_with_context(&self, s: &Sentence, ctx: Vec<Vec<f32>>) -> EncodedSentence {
        assert!(ctx.is_empty() || ctx.len() == s.len(), "one context vector per token");
        let texts: Vec<&str> = s.texts();
        let word_ids = s.lower_texts().iter().map(|t| self.word_vocab.get_or_unk(t)).collect();
        let char_ids = texts.iter().map(|t| self.char_vocab.encode_chars(t)).collect();

        let mut feats: Vec<Vec<f32>> = Vec::new();
        if self.feat_dim() > 0 {
            let pos_tags = if self.use_features { tag_sentence(&texts) } else { vec![] };
            let gaz = self.gazetteer.as_ref().map(|g| g.features(&texts));
            for i in 0..s.len() {
                let mut row = Vec::with_capacity(self.feat_dim());
                if self.use_features {
                    row.extend_from_slice(&token_features(&texts, i));
                    row.extend_from_slice(&pos_tags[i].one_hot());
                }
                if let Some(g) = &gaz {
                    row.extend_from_slice(&g[i]);
                }
                feats.push(row);
            }
        }

        let gold = s.outermost_entities();
        let tags = s.tags(self.tag_set.scheme());
        EncodedSentence {
            tokens: texts.iter().map(|t| t.to_string()).collect(),
            word_ids,
            char_ids,
            feats,
            ctx,
            tag_ids: self.tag_set.encode(&tags),
            gold,
        }
    }

    /// Encodes a dataset, optionally precomputing contextual-LM vectors.
    pub fn encode_dataset(
        &self,
        ds: &Dataset,
        contextual: Option<&dyn ContextualEmbedder>,
    ) -> Vec<EncodedSentence> {
        ds.sentences
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let ctx = contextual.map_or(vec![], |c| {
                    c.embed(&s.tokens.iter().map(|t| t.text.clone()).collect::<Vec<_>>())
                });
                self.encode_with_context(s, ctx)
            })
            .collect()
    }
}

enum CharModule {
    Cnn { emb: Embedding, w: ParamId, b: ParamId, out: usize },
    Lstm { emb: Embedding, fw: LstmCell, bw: LstmCell },
}

impl CharModule {
    fn out_dim(&self) -> usize {
        match self {
            CharModule::Cnn { out, .. } => *out,
            CharModule::Lstm { fw, .. } => 2 * fw.hidden(),
        }
    }

    /// One `[1, out_dim]` row per word, on any backend.
    fn word_vector<E: Exec>(&self, ex: &mut E, store: &ParamStore, chars: &[usize]) -> E::V {
        match self {
            CharModule::Cnn { emb, w, b, .. } => {
                let x = emb.lookup(ex, store, chars);
                let wv = ex.param(store, *w);
                let bv = ex.param(store, *b);
                let c = ex.conv1d_act(x, wv, bv, 3, 1, Activation::Relu);
                ex.max_over_rows(c)
            }
            CharModule::Lstm { emb, fw, bw } => {
                let x = emb.lookup(ex, store, chars);
                let f = fw.sequence(ex, store, x);
                let n = ex.value(f).rows();
                let f_last = ex.row(f, n - 1);
                let b = bw.sequence_rev(ex, store, x);
                let b_first = ex.row(b, 0);
                ex.concat_cols(&[f_last, b_first])
            }
        }
    }
}

/// The trainable input layer assembling the per-token representation.
pub struct InputLayer {
    word_emb: Embedding,
    char: Option<CharModule>,
    gate: Option<Linear>,
    feat_dim: usize,
    ctx_dim: usize,
    dropout: f32,
    out_dim: usize,
}

impl InputLayer {
    /// Builds the layer per `cfg`. `pretrained` must be given when
    /// `cfg.word` is [`WordRepr::Pretrained`]; its matrix seeds (and its
    /// vocabulary must already back) the word ids.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        cfg: &NerConfig,
        word_vocab_len: usize,
        char_vocab_len: usize,
        feat_dim: usize,
        pretrained: Option<&WordEmbeddings>,
    ) -> Self {
        let (word_emb, word_dim) = match &cfg.word {
            WordRepr::Random { dim } => {
                (Embedding::new(store, rng, "input.word_emb", word_vocab_len, *dim), *dim)
            }
            WordRepr::Pretrained { fine_tune } => {
                let emb = pretrained.expect("pretrained embeddings required by config");
                assert_eq!(
                    emb.vocab().len(),
                    word_vocab_len,
                    "encoder must use the pretrained vocabulary"
                );
                let id = store.register("input.word_emb", emb.matrix().clone());
                if !fine_tune {
                    store.set_frozen(id, true);
                }
                (Embedding { table: id }, emb.dim())
            }
        };

        let char = match &cfg.char_repr {
            CharRepr::None => None,
            CharRepr::Cnn { dim, filters } => Some(CharModule::Cnn {
                emb: Embedding::new(store, rng, "input.char_emb", char_vocab_len, *dim),
                w: store.register("input.char_conv.w", init::he(rng, 3 * dim, *filters)),
                b: store.register("input.char_conv.b", init::zeros(1, *filters)),
                out: *filters,
            }),
            CharRepr::Lstm { dim, hidden } => Some(CharModule::Lstm {
                emb: Embedding::new(store, rng, "input.char_emb", char_vocab_len, *dim),
                fw: LstmCell::new(store, rng, "input.char_fw", *dim, *hidden),
                bw: LstmCell::new(store, rng, "input.char_bw", *dim, *hidden),
            }),
        };

        // Rei et al.'s char/word attention gate needs matching widths.
        let gate = match (&char, cfg.char_word_gate) {
            (Some(c), true) if c.out_dim() == word_dim => {
                Some(Linear::new(store, rng, "input.gate", 2 * word_dim, word_dim))
            }
            _ => None,
        };

        let char_dim = char.as_ref().map_or(0, CharModule::out_dim);
        let out_dim = if gate.is_some() {
            word_dim + feat_dim + cfg.context_dim
        } else {
            word_dim + char_dim + feat_dim + cfg.context_dim
        };

        InputLayer {
            word_emb,
            char,
            gate,
            feat_dim,
            ctx_dim: cfg.context_dim,
            dropout: cfg.dropout,
            out_dim,
        }
    }

    /// Output width per token.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Whether the char/word gate is active (vs. plain concatenation).
    pub fn gated(&self) -> bool {
        self.gate.is_some()
    }

    /// Inverted-dropout probability from the config; the *model* applies it
    /// at the representation seam (this layer's output is dropout-free so
    /// the same forward serves training and inference).
    pub fn dropout(&self) -> f32 {
        self.dropout
    }

    /// Assembles the packed `[N, out_dim]` input matrix for a batch of
    /// sentences (`N = Σ lenᵢ`, one segment per sentence, layout owned by
    /// `ex`) on any backend: the per-token base (word + char [+ gate])
    /// followed by the position-dependent feature/context columns. Every
    /// base op treats rows independently, the char composition runs per
    /// word in its sentence's scope, and the feature/context columns are
    /// plain copies, so each sentence's rows are bit-identical to the
    /// one-segment [`ner_tensor::Tape`] on that sentence alone.
    pub fn forward<E: Exec>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        encs: &[&EncodedSentence],
    ) -> E::V {
        debug_assert_eq!(encs.len(), ex.segments(), "one encoded sentence per segment");
        assert!(encs.iter().all(|e| !e.is_empty()), "cannot represent an empty sentence");
        let base = self.packed_base(ex, store, encs);
        self.append_cols(ex, encs, base)
    }

    /// Inference-only [`Self::forward`] that routes the per-token base
    /// through the serving token cache: hits for the whole batch are
    /// served through **one** lock acquisition
    /// (`TokenFeatureCache::lookup_batch`) instead of one per token, and
    /// duplicate uncached surfaces are computed once. The cached base
    /// enters the graph as a constant, so this path never records
    /// gradients — training uses the generic [`Self::forward`].
    pub fn forward_batch_cached(
        &self,
        bx: &mut BatchedExec<'_>,
        store: &ParamStore,
        encs: &[&EncodedSentence],
        cache: Option<&TokenFeatureCache>,
    ) -> BatchedVal {
        debug_assert_eq!(encs.len(), bx.segments(), "one encoded sentence per segment");
        let base = match cache {
            Some(c) => self.cached_base_batch(bx, store, encs, c),
            None => self.packed_base(bx, store, encs),
        };
        self.append_cols(bx, encs, base)
    }

    /// Appends the feature/context constant columns to a packed base.
    fn append_cols<E: Exec>(&self, ex: &mut E, encs: &[&EncodedSentence], base: E::V) -> E::V {
        let mut parts: Vec<E::V> = Vec::with_capacity(3);
        parts.push(base);
        if self.feat_dim > 0 {
            let rows: Vec<&Vec<f32>> = encs.iter().flat_map(|e| e.feats.iter()).collect();
            parts.push(ex.constant(rows_to_tensor(&rows, self.feat_dim)));
        }
        if self.ctx_dim > 0 {
            let rows: Vec<&Vec<f32>> = encs.iter().flat_map(|e| e.ctx.iter()).collect();
            let total = ex.value(base).rows();
            assert_eq!(rows.len(), total, "contextual vectors missing from batch");
            parts.push(ex.constant(rows_to_tensor(&rows, self.ctx_dim)));
        }
        if parts.len() == 1 {
            parts[0]
        } else {
            ex.concat_cols(&parts)
        }
    }

    /// The packed base `[N, base_dim]`: one embedding gather over every
    /// word id in the batch, char rows stacked across sentence boundaries
    /// (each word's composition still runs alone, in its sentence's scope),
    /// and the gate applied to the whole packed matrix. This is the
    /// gradient-carrying formulation the trainer records.
    fn packed_base<E: Exec>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        encs: &[&EncodedSentence],
    ) -> E::V {
        let word_ids: Vec<usize> = encs.iter().flat_map(|e| e.word_ids.iter().copied()).collect();
        let words = self.word_emb.lookup(ex, store, &word_ids);
        let cm = match &self.char {
            None => return words,
            Some(cm) => cm,
        };
        let mut rows: Vec<E::V> = Vec::with_capacity(word_ids.len());
        for (s, e) in encs.iter().enumerate() {
            ex.scoped(s, |ex| {
                for chars in &e.char_ids {
                    rows.push(cm.word_vector(ex, store, chars));
                }
            });
        }
        let chars = ex.concat_rows(&rows);
        self.combine(ex, store, words, chars)
    }

    /// The packed base served through the token cache: hits for the whole
    /// batch are copied under a single cache lock, missed surfaces are
    /// computed once each (duplicates within the batch share the row), and
    /// the fresh rows feed back in one batched insert. Every base op treats
    /// rows independently, so cached rows are bit-identical to
    /// [`Self::packed_base`]'s. The result enters the graph as a
    /// single constant — gradient-free, which is why training never uses
    /// the cache.
    fn cached_base_batch(
        &self,
        bx: &mut BatchedExec<'_>,
        store: &ParamStore,
        encs: &[&EncodedSentence],
        cache: &TokenFeatureCache,
    ) -> BatchedVal {
        let tokens: Vec<&str> =
            encs.iter().flat_map(|e| e.tokens.iter().map(String::as_str)).collect();
        let mut base = Tensor::zeros(tokens.len(), self.base_dim());
        let missed = cache.lookup_batch(&tokens, &mut base);
        if !missed.is_empty() {
            let word_ids: Vec<usize> =
                encs.iter().flat_map(|e| e.word_ids.iter().copied()).collect();
            let char_ids: Vec<&[usize]> =
                encs.iter().flat_map(|e| e.char_ids.iter().map(Vec::as_slice)).collect();
            // Discovery-ordered so cache insertion order is deterministic.
            let mut fresh: Vec<(&str, Vec<f32>)> = Vec::new();
            let mut by_surface: std::collections::HashMap<&str, usize> =
                std::collections::HashMap::new();
            for &i in &missed {
                let token = tokens[i];
                let slot = match by_surface.get(token) {
                    Some(&f) => f,
                    None => {
                        // A one-token value, not packed rows: compute it in
                        // a scope (whose segment only matters for gradient
                        // routing, which this tape-free path has none of).
                        let row = bx.scoped(0, |ex| {
                            let v = self.base_row(ex, store, word_ids[i], char_ids[i]);
                            ex.value(v).row(0).to_vec()
                        });
                        fresh.push((token, row));
                        by_surface.insert(token, fresh.len() - 1);
                        fresh.len() - 1
                    }
                };
                base.row_mut(i).copy_from_slice(&fresh[slot].1);
            }
            cache.insert_batch(fresh);
        }
        bx.constant(base)
    }

    /// Width of the cacheable per-token base slice (word + char [+ gate]) —
    /// everything in [`forward`](Self::forward) that depends only on the
    /// token itself, not its sentence position.
    fn base_dim(&self) -> usize {
        self.out_dim - self.feat_dim - self.ctx_dim
    }

    /// The `[1, base_dim]` representation for one token. Every op here
    /// (embedding gather, char composition, gate) treats rows
    /// independently, so the result is bit-identical to the corresponding
    /// row of a batched formulation — which is what makes caching it by
    /// surface form safe.
    fn base_row<E: Exec>(
        &self,
        ex: &mut E,
        store: &ParamStore,
        word_id: usize,
        chars: &[usize],
    ) -> E::V {
        let word = self.word_emb.lookup(ex, store, &[word_id]);
        let cm = match &self.char {
            None => return word,
            Some(cm) => cm,
        };
        let char_vec = cm.word_vector(ex, store, chars);
        self.combine(ex, store, word, char_vec)
    }

    /// Joins word and char rows: Rei et al.'s gate when configured,
    /// plain concatenation otherwise. Row-wise either way.
    fn combine<E: Exec>(&self, ex: &mut E, store: &ParamStore, words: E::V, chars: E::V) -> E::V {
        match &self.gate {
            Some(gate) => {
                // z = σ(W[w;c]); rep = z⊙w + (c − z⊙c).
                let both = ex.concat_cols(&[words, chars]);
                let z = gate.forward_act(ex, store, both, Activation::Sigmoid);
                let zw = ex.mul(z, words);
                let zc = ex.mul(z, chars);
                let c_minus = ex.sub(chars, zc);
                ex.add(zw, c_minus)
            }
            None => ex.concat_cols(&[words, chars]),
        }
    }
}

fn rows_to_tensor<R: AsRef<[f32]>>(rows: &[R], dim: usize) -> Tensor {
    let mut t = Tensor::zeros(rows.len(), dim);
    for (i, row) in rows.iter().enumerate() {
        let row = row.as_ref();
        assert_eq!(row.len(), dim, "feature row width mismatch");
        t.row_mut(i).copy_from_slice(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NerConfig;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset(n: usize) -> Dataset {
        NewsGenerator::new(GeneratorConfig::default()).dataset(&mut StdRng::seed_from_u64(1), n)
    }

    #[test]
    fn sentence_encoding_has_aligned_arrays() {
        let ds = dataset(30);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bioes, 1).with_features(true);
        let e = enc.encode(&ds.sentences[0]);
        assert_eq!(e.word_ids.len(), e.len());
        assert_eq!(e.char_ids.len(), e.len());
        assert_eq!(e.feats.len(), e.len());
        assert_eq!(e.tag_ids.len(), e.len());
        assert_eq!(e.feats[0].len(), enc.feat_dim());
        assert!(enc.feat_dim() == FEATURE_DIM + POS_DIM);
    }

    #[test]
    fn gazetteer_extends_feature_dim() {
        let ds = dataset(10);
        let mut g = Gazetteer::new();
        g.add("LOC", &["Brooklyn"]);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1)
            .with_features(true)
            .with_gazetteer(g);
        assert_eq!(enc.feat_dim(), FEATURE_DIM + POS_DIM + 1);
    }

    #[test]
    fn gold_surfaces_align_with_gold_spans() {
        let ds = dataset(5);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        for s in &ds.sentences {
            let e = enc.encode(s);
            assert_eq!(e.gold_surfaces().len(), e.gold.len());
        }
    }

    fn forward_dim(cfg: &NerConfig, feat: bool) -> usize {
        let ds = dataset(20);
        let enc = SentenceEncoder::from_dataset(&ds, cfg.scheme, 1).with_features(feat);
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = InputLayer::new(
            &mut store,
            &mut rng,
            cfg,
            enc.word_vocab.len(),
            enc.char_vocab.len(),
            enc.feat_dim(),
            None,
        );
        let e = enc.encode(&ds.sentences[0]);
        let mut tape = ner_tensor::Tape::new();
        let x = layer.forward(&mut tape, &store, &[&e]);
        assert_eq!(tape.value(x).shape(), (e.len(), layer.out_dim()));
        assert!(tape.value(x).all_finite());
        layer.out_dim()
    }

    #[test]
    fn representation_widths_compose() {
        let mut cfg = NerConfig::default(); // word 32 + charCNN 16
        assert_eq!(forward_dim(&cfg, false), 48);
        cfg.char_repr = CharRepr::Lstm { dim: 8, hidden: 10 };
        assert_eq!(forward_dim(&cfg, false), 32 + 20);
        cfg.char_repr = CharRepr::None;
        assert_eq!(forward_dim(&cfg, true), 32 + FEATURE_DIM + POS_DIM);
    }

    #[test]
    fn gate_replaces_concatenation_when_widths_match() {
        let mut cfg = NerConfig {
            word: WordRepr::Random { dim: 16 },
            char_repr: CharRepr::Cnn { dim: 8, filters: 16 },
            char_word_gate: true,
            ..NerConfig::default()
        };
        assert_eq!(forward_dim(&cfg, false), 16, "gated output keeps word width");

        // Width mismatch falls back to concatenation.
        cfg.char_repr = CharRepr::Cnn { dim: 8, filters: 12 };
        assert_eq!(forward_dim(&cfg, false), 28);
    }

    #[test]
    fn pretrained_embeddings_seed_and_freeze_the_table() {
        let ds = dataset(30);
        let corpus: Vec<Vec<String>> = ds.sentences.iter().map(|s| s.lower_texts()).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let emb = ner_embed::skipgram::train(
            &corpus,
            &ner_embed::skipgram::SkipGramConfig { dim: 12, epochs: 1, ..Default::default() },
            &mut rng,
        );
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1).with_pretrained_vocab(&emb);
        let cfg = NerConfig {
            word: WordRepr::Pretrained { fine_tune: false },
            char_repr: CharRepr::None,
            ..NerConfig::default()
        };
        let mut store = ParamStore::new();
        let layer = InputLayer::new(
            &mut store,
            &mut rng,
            &cfg,
            enc.word_vocab.len(),
            enc.char_vocab.len(),
            0,
            Some(&emb),
        );
        assert_eq!(layer.out_dim(), 12);
        let id = store.find("input.word_emb").unwrap();
        assert!(store.is_frozen(id));
        assert_eq!(store.value(id), emb.matrix());
    }
}
