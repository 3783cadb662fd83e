//! The compiled tape-free inference path.
//!
//! A [`ForwardPlan`] is compiled once per [`NerModel`](crate::model::NerModel)
//! (via [`NerModel::compile_plan`](crate::model::NerModel::compile_plan)) and
//! holds everything the model's forward pass can precompute or reuse across
//! sentences:
//!
//! * **CRF decode tables** — the transition/start/end scores widened to log
//!   space (`f64`) once, with the structural-constraint masks baked in, so
//!   Viterbi stops re-deriving them per sentence
//!   ([`CrfDecodeTables`]).
//! * **Token feature cache** — an LRU of per-token base representations
//!   (word embedding + char composition + gate), keyed by surface form.
//!   Informal-text corpora repeat tokens heavily, and the base row depends
//!   only on the token itself, so a hit skips the char-CNN/BiLSTM entirely.
//!   Cached rows are bit-identical to freshly computed ones (per-row
//!   evaluation equals batch evaluation for every op involved), so the
//!   cache never changes predictions.
//! * **Positional encodings** — the deterministic sinusoidal table per
//!   sentence length, shared by every Transformer forward.
//!
//! The evaluation itself runs through the **same layer forwards as
//! training**, driven by the packed [`ner_tensor::BatchedExec`] backend over
//! length-sorted compute buckets ([`buckets`]; a single sentence is a
//! bucket of one). Serving, the trainer's dev evaluation and every span
//! predictor share this path through one bucket engine
//! (`NerModel::predict_bucketed`): no tape nodes and no backward
//! closures. The contract throughout is **bit-identity with the tape
//! backend** — `tests/plan_parity.rs` checks it across every zoo
//! architecture, one sentence at a time and in buckets, with the token
//! cache warm and after a plan refresh.

use crate::decoder::crf::CrfDecodeTables;
use ner_tensor::{PeCache, Tensor};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default capacity of the per-plan token feature cache.
pub const DEFAULT_TOKEN_CACHE: usize = 4096;

/// The one cap on how many sentences one packed
/// [`ner_tensor::BatchedExec`] forward evaluates together, for serving and
/// evaluation alike ([`buckets`]). Eight keeps a bucket's working set — and
/// so a training run's peak RSS with per-epoch dev evaluation — flat, while
/// still amortizing each recurrent GEMM across the bucket.
pub const DEFAULT_COMPUTE_BATCH: usize = 8;

/// Canonical names for the per-request inference stages: the histogram
/// each stage feeds and the short label it carries inside a
/// [`TraceRecord`](ner_obs::trace::TraceRecord). Sharing one vocabulary
/// across the model, the serving layer, the benches, and the CLI renderer
/// keeps "where did this request's time go" answerable by exact string
/// match everywhere.
pub mod stage {
    /// Histogram fed by sentence featurization (vocabulary lookups and
    /// feature-id encoding, before any tensor work).
    pub const FEATURIZE_US: &str = "infer.featurize_us";
    /// Histogram fed by the input layer (embeddings + char composition).
    pub const EMBED_US: &str = "infer.embed_us";
    /// Histogram fed by the context encoder (BiLSTM/Transformer/...).
    pub const ENCODE_US: &str = "infer.encode_us";
    /// Histogram fed by tag decoding (CRF Viterbi or softmax argmax).
    pub const DECODE_US: &str = "infer.decode_us";

    /// Trace label for the featurization stage.
    pub const FEATURIZE: &str = "featurize";
    /// Trace label for the input-layer stage.
    pub const EMBED: &str = "embed";
    /// Trace label for the context-encoder stage.
    pub const ENCODE: &str = "encode";
    /// Trace label for the decoding stage.
    pub const DECODE: &str = "decode";
    /// Trace label for time spent queued in the serving batcher.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Trace label for batch formation: dequeue until this request's own
    /// scoring starts (covers in-batch waiting on a busy pool).
    pub const BATCH_FORM: &str = "batch_form";
    /// Trace mark set by the batcher at dequeue time; [`BATCH_FORM`] is
    /// measured from it.
    pub const MARK_DEQUEUE: &str = "dequeue";
}

const NIL: usize = usize::MAX;

/// A compiled, reusable inference plan for one model (see module docs).
///
/// Thread-safe: batch inference shares one plan across the `ner-par` pool.
/// The plan snapshots the CRF parameters at compile time — recompile (or
/// call [`NerPipeline::refresh_plan`](crate::inference::NerPipeline::refresh_plan))
/// after mutating the parameter store, or planned decoding will diverge
/// from the tape path.
pub struct ForwardPlan {
    crf_tables: Option<CrfDecodeTables>,
    token_cache: Option<TokenFeatureCache>,
    /// The capacity the plan was compiled with (0 = cache disabled), kept
    /// so a refresh can recompile with the same setting.
    token_cache_capacity: usize,
    /// Shared per-`(n, d)` positional-encoding tables, handed to the
    /// `BatchedExec` backend so transformer forwards skip recomputation.
    pe_cache: PeCache,
}

impl ForwardPlan {
    pub(crate) fn new(crf_tables: Option<CrfDecodeTables>, token_cache_capacity: usize) -> Self {
        ForwardPlan {
            crf_tables,
            token_cache: (token_cache_capacity > 0)
                .then(|| TokenFeatureCache::new(token_cache_capacity)),
            token_cache_capacity,
            pe_cache: PeCache::new(),
        }
    }

    /// The token-cache capacity this plan was compiled with (`0` when the
    /// cache is disabled).
    pub fn token_cache_capacity(&self) -> usize {
        self.token_cache_capacity
    }

    pub(crate) fn crf_tables(&self) -> Option<&CrfDecodeTables> {
        self.crf_tables.as_ref()
    }

    pub(crate) fn token_cache(&self) -> Option<&TokenFeatureCache> {
        self.token_cache.as_ref()
    }

    /// The plan's shared positional-encoding cache, for wiring into a
    /// [`ner_tensor::BatchedExec`] backend.
    pub(crate) fn pe_cache(&self) -> &PeCache {
        &self.pe_cache
    }

    /// Cumulative token-cache `(hits, misses)` since compile (0, 0 when the
    /// cache is disabled).
    pub fn token_cache_stats(&self) -> (u64, u64) {
        self.token_cache
            .as_ref()
            .map_or((0, 0), |c| (c.hits.load(Ordering::Relaxed), c.misses.load(Ordering::Relaxed)))
    }

    /// Takes (reads and resets) the token-cache `(hits, misses)` deltas —
    /// the feed for the `infer.cache.*` observability counters.
    pub fn take_token_cache_stats(&self) -> (u64, u64) {
        self.token_cache.as_ref().map_or((0, 0), |c| {
            (c.hits.swap(0, Ordering::Relaxed), c.misses.swap(0, Ordering::Relaxed))
        })
    }

    /// Takes (reads and resets) the count of whole-batch cache lookups —
    /// each is one lock acquisition covering every token of a packed batch
    /// (the feed for the `infer.cache.batch_lookups` counter).
    pub fn take_token_cache_batch_lookups(&self) -> u64 {
        self.token_cache.as_ref().map_or(0, |c| c.batch_lookups.swap(0, Ordering::Relaxed))
    }
}

/// Groups sentence indices into length-sorted compute buckets for packed
/// [`ner_tensor::BatchedExec`] scoring.
///
/// `lens[i]` is the token count of sentence `i`; zero-length sentences are
/// skipped (they have nothing to score). Indices come back sorted
/// longest-first (ties by index, so bucketing is deterministic) and chunked
/// to at most [`DEFAULT_COMPUTE_BATCH`] sentences, while leaving at least
/// `threads` buckets when there is enough work to go around. Similar
/// lengths share a bucket, so the per-timestep live-row prefix shrinks late
/// and the batched recurrent GEMMs stay near-full. Because the batched
/// backend is bit-identical to the tape per sentence, bucket composition
/// (and therefore thread count) cannot change predictions — only
/// throughput.
pub fn buckets(lens: &[usize], threads: usize) -> Vec<Vec<usize>> {
    let mut idx: Vec<usize> = (0..lens.len()).filter(|&i| lens[i] > 0).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(lens[i]));
    if idx.is_empty() {
        return Vec::new();
    }
    let chunk = idx.len().div_ceil(threads.max(1)).clamp(1, DEFAULT_COMPUTE_BATCH);
    idx.chunks(chunk).map(|c| c.to_vec()).collect()
}

/// A thread-safe LRU cache of per-token base representation rows, keyed by
/// surface form. Hand-rolled (slab + intrusive doubly-linked recency list)
/// to stay dependency-free.
pub struct TokenFeatureCache {
    inner: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    batch_lookups: AtomicU64,
}

impl TokenFeatureCache {
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "token cache capacity must be positive");
        TokenFeatureCache {
            inner: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            batch_lookups: AtomicU64::new(0),
        }
    }

    /// Copies the cached row for `token` into `dst` and returns `true`, or
    /// returns `false` on a miss. Counts the hit/miss either way.
    #[cfg(test)]
    pub(crate) fn copy_into(&self, token: &str, dst: &mut [f32]) -> bool {
        let mut lru = self.inner.lock().unwrap();
        match lru.get(token) {
            Some(row) => {
                dst.copy_from_slice(row);
                drop(lru);
                self.hits.fetch_add(1, Ordering::Relaxed);
                true
            }
            None => {
                drop(lru);
                self.misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Inserts (or refreshes) the row for `token`, evicting the least
    /// recently used entry when full.
    #[cfg(test)]
    pub(crate) fn insert(&self, token: &str, row: Vec<f32>) {
        self.inner.lock().unwrap().insert(token, row);
    }

    /// Looks up every token of a packed batch under **one** lock
    /// acquisition: hit rows are copied into the matching rows of
    /// `dst [tokens.len(), base_dim]`, and the indices of the misses come
    /// back for the caller to compute. Counts one batch lookup plus the
    /// per-token hits/misses.
    pub(crate) fn lookup_batch(&self, tokens: &[&str], dst: &mut Tensor) -> Vec<usize> {
        let mut missed = Vec::new();
        {
            let mut lru = self.inner.lock().unwrap();
            for (i, tok) in tokens.iter().enumerate() {
                match lru.get(tok) {
                    Some(row) => dst.row_mut(i).copy_from_slice(row),
                    None => missed.push(i),
                }
            }
        }
        self.batch_lookups.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add((tokens.len() - missed.len()) as u64, Ordering::Relaxed);
        self.misses.fetch_add(missed.len() as u64, Ordering::Relaxed);
        missed
    }

    /// Inserts a batch of freshly computed rows under one lock acquisition.
    pub(crate) fn insert_batch(&self, entries: Vec<(&str, Vec<f32>)>) {
        let mut lru = self.inner.lock().unwrap();
        for (tok, row) in entries {
            lru.insert(tok, row);
        }
    }

    /// Number of cached tokens.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Maximum number of tokens the cache can hold.
    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().capacity
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Slot {
    key: String,
    row: Vec<f32>,
    prev: usize,
    next: usize,
}

struct Lru {
    capacity: usize,
    map: HashMap<String, usize>,
    slots: Vec<Slot>,
    head: usize,
    tail: usize,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Lru { capacity, map: HashMap::new(), slots: Vec::new(), head: NIL, tail: NIL }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.slots[h].prev = i,
        }
        self.head = i;
    }

    fn get(&mut self, key: &str) -> Option<&[f32]> {
        let i = *self.map.get(key)?;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slots[i].row)
    }

    fn insert(&mut self, key: &str, row: Vec<f32>) {
        if let Some(&i) = self.map.get(key) {
            self.slots[i].row = row;
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        let i = if self.slots.len() < self.capacity {
            self.slots.push(Slot { key: key.to_string(), row, prev: NIL, next: NIL });
            self.slots.len() - 1
        } else {
            // Evict the least recently used slot and reuse it in place.
            let i = self.tail;
            self.unlink(i);
            let slot = &mut self.slots[i];
            let old_key = std::mem::replace(&mut slot.key, key.to_string());
            slot.row = row;
            self.map.remove(&old_key);
            i
        };
        self.map.insert(key.to_string(), i);
        self.push_front(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_tensor::nn;

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = TokenFeatureCache::new(2);
        cache.insert("a", vec![1.0]);
        cache.insert("b", vec![2.0]);
        let mut buf = [0.0f32];
        assert!(cache.copy_into("a", &mut buf)); // touches "a": "b" is now LRU
        assert_eq!(buf, [1.0]);
        cache.insert("c", vec![3.0]); // evicts "b"
        assert!(!cache.copy_into("b", &mut buf));
        assert!(cache.copy_into("a", &mut buf));
        assert!(cache.copy_into("c", &mut buf));
        assert_eq!(buf, [3.0]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let cache = TokenFeatureCache::new(2);
        cache.insert("a", vec![1.0]);
        cache.insert("b", vec![2.0]);
        cache.insert("a", vec![9.0]); // refresh: "b" becomes LRU
        cache.insert("c", vec![3.0]); // evicts "b"
        let mut buf = [0.0f32];
        assert!(cache.copy_into("a", &mut buf));
        assert_eq!(buf, [9.0]);
        assert!(!cache.copy_into("b", &mut buf));
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let plan = ForwardPlan::new(None, 4);
        let cache = plan.token_cache().unwrap();
        let mut buf = [0.0f32; 2];
        assert!(!cache.copy_into("x", &mut buf));
        cache.insert("x", vec![1.0, 2.0]);
        assert!(cache.copy_into("x", &mut buf));
        assert_eq!(plan.token_cache_stats(), (1, 1));
        assert_eq!(plan.take_token_cache_stats(), (1, 1));
        assert_eq!(plan.token_cache_stats(), (0, 0));
    }

    #[test]
    fn capacity_zero_disables_the_cache() {
        let plan = ForwardPlan::new(None, 0);
        assert!(plan.token_cache().is_none());
        assert_eq!(plan.token_cache_stats(), (0, 0));
    }

    #[test]
    fn positional_encoding_cache_distinguishes_dims() {
        // Regression: the cache used to be keyed by sentence length alone,
        // so a second stack with a different d_model read the wrong table.
        let plan = ForwardPlan::new(None, 0);
        let pe = plan.pe_cache();
        let narrow = pe.get(5, 8);
        let wide = pe.get(5, 16);
        assert_eq!((narrow.rows(), narrow.cols()), (5, 8));
        assert_eq!((wide.rows(), wide.cols()), (5, 16));
        // Both entries survive side by side and re-serve the right table.
        assert_eq!(pe.get(5, 8).cols(), 8);
        assert_eq!(pe.get(5, 16).cols(), 16);
        assert_eq!(*pe.get(5, 8), nn::positional_encoding(5, 8));
        assert_eq!(*pe.get(5, 16), nn::positional_encoding(5, 16));
    }

    #[test]
    fn batch_lookup_copies_hits_and_returns_miss_indices() {
        let plan = ForwardPlan::new(None, 4);
        let cache = plan.token_cache().unwrap();
        cache.insert("a", vec![1.0, 2.0]);
        let mut dst = Tensor::zeros(3, 2);
        let missed = cache.lookup_batch(&["a", "b", "a"], &mut dst);
        assert_eq!(missed, vec![1]);
        assert_eq!(dst.row(0), [1.0, 2.0]);
        assert_eq!(dst.row(2), [1.0, 2.0]);
        assert_eq!(plan.token_cache_stats(), (2, 1));
        // One whole-batch lookup == one lock acquisition counted.
        assert_eq!(plan.take_token_cache_batch_lookups(), 1);
        cache.insert_batch(vec![("b", vec![3.0, 4.0])]);
        let missed = cache.lookup_batch(&["b", "a"], &mut dst);
        assert!(missed.is_empty());
        assert_eq!(dst.row(0), [3.0, 4.0]);
        assert_eq!(plan.take_token_cache_batch_lookups(), 1);
    }

    #[test]
    fn buckets_are_length_sorted_capped_and_skip_empties() {
        // Longest first, ties by index, zero-length dropped.
        assert_eq!(buckets(&[3, 0, 7, 7, 1, 5], 1), vec![vec![2, 3, 5, 0, 4]]);
        // Enough work for every thread: 8 sentences over 4 threads → 4 buckets.
        assert_eq!(buckets(&[4; 8], 4).len(), 4);
        // More sentences than the compute-batch cap: full buckets of the
        // longest sentences first, the remainder last.
        let lens: Vec<usize> = (1..=DEFAULT_COMPUTE_BATCH + 8).collect();
        let got = buckets(&lens, 1);
        let want_first: Vec<usize> = (8..DEFAULT_COMPUTE_BATCH + 8).rev().collect();
        assert_eq!(got, vec![want_first, (0..8).rev().collect()]);
        assert!(buckets(&[0, 0], 4).is_empty());
        assert!(buckets(&[], 1).is_empty());
    }

    #[test]
    fn single_slot_cache_churns_correctly() {
        let cache = TokenFeatureCache::new(1);
        let mut buf = [0.0f32];
        for (i, key) in ["a", "b", "c", "a"].iter().enumerate() {
            assert!(!cache.copy_into(key, &mut buf), "step {i}");
            cache.insert(key, vec![i as f32]);
            assert!(cache.copy_into(key, &mut buf));
            assert_eq!(buf, [i as f32]);
        }
        assert_eq!(cache.len(), 1);
    }
}
