//! The training loop: minibatch SGD with gradient clipping, optional
//! learning-rate schedules, dev-set early stopping with best-model
//! restoration, and evaluation helpers.
//!
//! # Evaluation
//!
//! The per-epoch dev F1 (which drives early stopping and best-model
//! restore) and [`evaluate_model`] score through [`predict_all`]: the same
//! bucketed, tape-free packed forward serving runs
//! (`NerModel::predict_bucketed`), bit-identical to the per-sentence
//! tape reference ([`NerModel::predict_spans_tape`]) at any thread count.
//!
//! # Backends
//!
//! [`train`] records each worker's bucket of [`TrainConfig::batch`]
//! sentences as one packed `[N, d]` row matrix on a single [`Tape`]
//! through `ner_tensor::BatchedTapeExec` — one recurrent GEMM per
//! timestep across the live prefix, exactly the layout serving uses. A
//! segmented backward scatters each sentence's gradients into its own
//! [`GradBuffer`], bit-identically to what a per-sentence tape would have
//! produced (see DESIGN.md "Batched training").
//!
//! [`train_tape`] is the **reference** it is verified against: the same
//! loop and schedule with one [`Tape`] per sentence, the historical
//! formulation (`tests/train_parity.rs`). No production training runs
//! it.
//!
//! # Threading and schedule
//!
//! Every configuration runs one schedule. Each epoch walks the (shuffled)
//! order in chunks of `threads × batch` sentences: every worker processes
//! its bucket independently, and the coordinator merges the gradient
//! buffers **in sentence order** (deterministic for a fixed thread count
//! and batch size), clips once, and takes one optimizer step per chunk.
//! Gradients are summed — not averaged — over the chunk, so the total SGD
//! displacement per epoch matches the serial schedule's; Adam's update is
//! scale-invariant either way. Dropout streams are seeded per sentence from
//! one draw per chunk, so masks depend only on a sentence's position in the
//! order — which makes [`train`] and [`train_tape`] produce bit-identical
//! loss curves and final weights at any thread count. With
//! `NER_THREADS=1` and `batch == 1` the sentences' dropout draws come
//! straight from the shared epoch rng and one step is taken per sentence:
//! the historical serial trajectory, reproduced bit for bit by both.

use crate::inference::export_pool_stats;
use crate::metrics::{evaluate, EvalResult};
use crate::model::NerModel;
use crate::repr::EncodedSentence;
use ner_tensor::optim::{Adam, LrSchedule, Optimizer, Sgd};
use ner_tensor::{GradBuffer, OpClass, Tape};
use ner_text::EntitySpan;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use serde::Serialize;

/// Multiplier of the within-chunk index that derives each sentence's
/// dropout-stream seed from the chunk's base seed (golden-ratio stride, so
/// neighboring sentences get decorrelated streams).
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Optimizer selection.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum OptimizerKind {
    /// Plain SGD.
    Sgd,
    /// SGD with classical momentum 0.9.
    SgdMomentum,
    /// Adam (β₁=0.9, β₂=0.999).
    Adam,
}

/// Training-loop configuration.
#[derive(Clone, Debug, Serialize)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Optimizer.
    pub optimizer: OptimizerKind,
    /// Learning-rate schedule applied per epoch.
    pub schedule: LrScheduleKind,
    /// Global-norm gradient clip (0 disables).
    pub clip: f32,
    /// Early-stopping patience in epochs on dev F1 (`None` disables; the
    /// best-dev parameters are restored either way when a dev set is given).
    pub patience: Option<usize>,
    /// Shuffle the training order each epoch.
    pub shuffle: bool,
    /// Sentences per packed bucket (per worker). `1` reproduces the
    /// historical per-sentence schedule bit for bit; larger buckets
    /// amortize the recurrent GEMMs across sentences.
    pub batch: usize,
}

/// Serializable schedule selector (mirrors [`LrSchedule`]).
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum LrScheduleKind {
    /// Constant rate.
    Constant,
    /// `lr / (1 + decay·epoch)`.
    InverseTime {
        /// Per-epoch decay.
        decay: f32,
    },
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 12,
            lr: 0.01,
            optimizer: OptimizerKind::Adam,
            schedule: LrScheduleKind::InverseTime { decay: 0.05 },
            clip: 5.0,
            patience: Some(4),
            shuffle: true,
            batch: 1,
        }
    }
}

/// Per-epoch training record, also emitted as a structured `"epoch"` event
/// through `ner-obs` when a sink is installed.
#[derive(Clone, Debug, Serialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss per sentence.
    pub train_loss: f64,
    /// Dev micro-F1 (when a dev set was supplied).
    pub dev_f1: Option<f64>,
    /// Mean pre-clip global gradient norm over applied updates.
    pub grad_norm: f64,
    /// Effective learning rate this epoch (after the schedule).
    pub lr: f32,
    /// Wall-clock milliseconds spent on the epoch (including dev eval).
    pub wall_ms: u64,
    /// Training tokens consumed per wall-clock second this epoch.
    pub tokens_per_s: f64,
    /// Largest autodiff tape built during the epoch, in nodes.
    pub peak_tape_nodes: usize,
    /// Updates skipped because the loss or gradient norm was non-finite.
    pub skipped_updates: usize,
}

/// Outcome of a training run.
#[derive(Clone, Debug, Serialize)]
pub struct TrainReport {
    /// Per-epoch records.
    pub epochs: Vec<EpochRecord>,
    /// Epoch whose parameters the model ended up with.
    pub best_epoch: usize,
    /// Best dev micro-F1 (when a dev set was supplied).
    pub best_dev_f1: Option<f64>,
    /// Why training ended: `"completed"` or an early-stop description.
    pub stop_reason: String,
}

/// Accumulators for one epoch's pass over the training order.
#[derive(Default)]
struct EpochStats {
    total_loss: f64,
    norm_sum: f64,
    applied: usize,
    skipped: usize,
    peak_nodes: usize,
}

/// Where a bucket's dropout streams come from.
enum RngSrc<'a> {
    /// Each sentence's stream is `StdRng` seeded with
    /// `base + k·SEED_STRIDE` for its within-chunk index `k`, so masks do
    /// not depend on worker scheduling or the step function.
    Seeded(u64),
    /// The shared epoch rng, passed straight through (the
    /// `threads == 1 && batch == 1` serial replay; at most one live
    /// sentence per bucket).
    Shared(&'a mut dyn RngCore),
}

/// What a step produced for one (non-empty) sentence of its bucket.
enum BucketItem {
    /// No gradient contribution: the loss was non-finite, or (packed
    /// step) a bucket-mate's was and the whole bucket was rolled back.
    NonFinite { loss: f64, rolled_back: bool },
    /// A usable gradient contribution.
    Update { loss: f64, grads: GradBuffer },
}

/// What a step produced for one bucket: one item per sentence in bucket
/// order, the largest tape it recorded (nodes) and that tape's op counts.
type StepOut = (Vec<BucketItem>, usize, Vec<(OpClass, u32)>);

/// Forward and backward over one bucket's non-empty sentences, each with
/// its own dropout stream.
type Step = fn(&NerModel, &[&EncodedSentence], &mut [&mut dyn RngCore]) -> StepOut;

/// The step [`train`] runs: the whole bucket on one packed tape, one
/// segmented backward. A non-finite loss anywhere rolls the whole bucket
/// back, since a segmented backward from it would poison every segment's
/// buffer.
fn packed_step(
    model: &NerModel,
    encs: &[&EncodedSentence],
    rngs: &mut [&mut dyn RngCore],
) -> StepOut {
    let mut tape = Tape::new();
    let (total, losses) = model.loss_batch(&mut tape, encs, rngs);
    if !(tape.value(total).item() as f64).is_finite() || losses.iter().any(|l| !l.is_finite()) {
        let items = losses
            .into_iter()
            .map(|loss| BucketItem::NonFinite { loss, rolled_back: loss.is_finite() })
            .collect();
        return (items, 0, Vec::new());
    }
    let mut buffers: Vec<GradBuffer> =
        (0..encs.len()).map(|_| GradBuffer::new(model.store.len())).collect();
    tape.backward_into_segmented(total, &mut buffers);
    let items =
        losses.into_iter().zip(buffers).map(|(loss, grads)| BucketItem::Update { loss, grads });
    (items.collect(), tape.len(), tape.op_counts().collect())
}

/// The step [`train_tape`] runs: one tape and one backward per sentence;
/// a non-finite loss skips just its own sentence.
fn tape_step(
    model: &NerModel,
    encs: &[&EncodedSentence],
    rngs: &mut [&mut dyn RngCore],
) -> StepOut {
    let (mut items, mut nodes, mut ops) = (Vec::with_capacity(encs.len()), 0, Vec::new());
    for (enc, rng) in encs.iter().zip(rngs) {
        let mut tape = Tape::new();
        let loss = model.loss(&mut tape, enc, rng);
        let loss_val = tape.value(loss).item() as f64;
        if !loss_val.is_finite() {
            items.push(BucketItem::NonFinite { loss: loss_val, rolled_back: false });
            continue;
        }
        let mut grads = GradBuffer::new(model.store.len());
        tape.backward_into(loss, &mut grads);
        nodes = nodes.max(tape.len());
        ops.extend(tape.op_counts());
        items.push(BucketItem::Update { loss: loss_val, grads });
    }
    (items, nodes, ops)
}

/// One worker's result for one bucket.
struct BucketResult {
    /// (sentence index, item) per non-empty sentence, in bucket
    /// (= schedule) order.
    items: Vec<(usize, BucketItem)>,
    nodes: usize,
    ops: Vec<(OpClass, u32)>,
    pool: ner_tensor::pool::PoolStats,
}

/// Runs `step` over one bucket of sentences on one worker. `k0` is the
/// within-chunk index of `ids[0]`.
fn run_bucket(
    model: &NerModel,
    train: &[EncodedSentence],
    ids: &[usize],
    k0: u64,
    step: Step,
    src: RngSrc<'_>,
) -> BucketResult {
    // (within-chunk index, sentence index) of the non-empty sentences;
    // empties keep their slot in the seed derivation.
    let live: Vec<(u64, usize)> = ids
        .iter()
        .enumerate()
        .filter(|&(_, &i)| !train[i].is_empty())
        .map(|(j, &i)| (k0 + j as u64, i))
        .collect();
    let (items, nodes, ops) = if live.is_empty() {
        (Vec::new(), 0, Vec::new())
    } else {
        let encs: Vec<&EncodedSentence> = live.iter().map(|&(_, i)| &train[i]).collect();
        let mut owned: Vec<StdRng>;
        let mut streams: Vec<&mut dyn RngCore> = match src {
            RngSrc::Seeded(base) => {
                owned = live
                    .iter()
                    .map(|&(k, _)| {
                        StdRng::seed_from_u64(base.wrapping_add(k.wrapping_mul(SEED_STRIDE)))
                    })
                    .collect();
                owned.iter_mut().map(|r| r as &mut dyn RngCore).collect()
            }
            RngSrc::Shared(r) => {
                debug_assert!(live.len() <= 1, "shared-rng replay is single-sentence");
                vec![r]
            }
        };
        step(model, &encs, &mut streams)
    };
    let items = live.iter().map(|&(_, i)| i).zip(items).collect();
    BucketResult { items, nodes, ops, pool: ner_tensor::pool::take_stats() }
}

/// The epoch: chunks of `threads × batch` sentences, one bucket of `batch`
/// per worker, gradients merged in sentence order and applied with a single
/// clipped optimizer step per chunk. Every `step` runs this same schedule,
/// so the tape reference can be compared against the packed path.
#[allow(clippy::too_many_arguments)]
fn run_epoch_bucketed(
    model: &mut NerModel,
    train: &[EncodedSentence],
    order: &[usize],
    opt: &mut dyn Optimizer,
    cfg: &TrainConfig,
    step: Step,
    epoch: usize,
    pool: &ner_par::ThreadPool,
    rng: &mut impl Rng,
    op_totals: &mut [u64],
) -> EpochStats {
    let workers = pool.threads().max(1);
    let bucket = cfg.batch.max(1);
    // One worker, one sentence per bucket: replay the historical serial
    // schedule — dropout draws come straight from the shared epoch rng
    // and no per-chunk seed is drawn.
    let serial_replay = workers == 1 && bucket == 1;
    let mut stats = EpochStats::default();
    for chunk in order.chunks(workers * bucket) {
        let results: Vec<BucketResult> = if serial_replay {
            vec![run_bucket(model, train, chunk, 0, step, RngSrc::Shared(rng))]
        } else {
            // One seed per chunk; each sentence derives an independent
            // stream from its position, so masks don't depend on worker
            // scheduling or the step function.
            let batch_seed: u64 = rng.gen();
            let model_ref: &NerModel = model;
            let buckets: Vec<(usize, &[usize])> =
                chunk.chunks(bucket).enumerate().map(|(w, ids)| (w * bucket, ids)).collect();
            pool.map(buckets.len(), |w| {
                let (k0, ids) = buckets[w];
                run_bucket(model_ref, train, ids, k0 as u64, step, RngSrc::Seeded(batch_seed))
            })
        };

        // Merge in sentence order — deterministic for a fixed thread
        // count and bucket size, and identical between step functions.
        let mut contributed = 0usize;
        for res in results {
            stats.peak_nodes = stats.peak_nodes.max(res.nodes);
            for (class, n) in res.ops {
                op_totals[class as usize] += n as u64;
            }
            export_pool_stats(res.pool);
            for (index, item) in res.items {
                match item {
                    BucketItem::NonFinite { loss, rolled_back } => {
                        stats.skipped += 1;
                        if rolled_back {
                            ner_obs::warn(format!(
                                "epoch {epoch}: sentence {index} rolled back with its bucket (non-finite bucket loss); update skipped"
                            ));
                        } else {
                            ner_obs::warn(format!(
                                "epoch {epoch}: non-finite loss ({loss}) on sentence {index}; update skipped"
                            ));
                        }
                    }
                    BucketItem::Update { loss, grads } => {
                        stats.total_loss += loss;
                        grads.apply_to(&mut model.store);
                        contributed += 1;
                    }
                }
            }
        }
        if contributed == 0 {
            continue;
        }
        let norm = if cfg.clip > 0.0 {
            model.store.clip_grad_norm(cfg.clip)
        } else {
            model.store.grad_global_norm()
        };
        if !norm.is_finite() {
            stats.skipped += contributed;
            ner_obs::warn(format!(
                "epoch {epoch}: non-finite gradient norm on a {contributed}-sentence chunk; update skipped"
            ));
            model.store.zero_grad();
            continue;
        }
        stats.norm_sum += norm as f64;
        stats.applied += 1;
        opt.step(&mut model.store);
    }
    stats
}

fn make_optimizer(cfg: &TrainConfig) -> Box<dyn Optimizer> {
    match cfg.optimizer {
        OptimizerKind::Sgd => Box::new(Sgd::new(cfg.lr)),
        OptimizerKind::SgdMomentum => Box::new(Sgd::new(cfg.lr).with_momentum(0.9)),
        OptimizerKind::Adam => Box::new(Adam::new(cfg.lr)),
    }
}

fn schedule(cfg: &TrainConfig) -> LrSchedule {
    match cfg.schedule {
        LrScheduleKind::Constant => LrSchedule::Constant,
        LrScheduleKind::InverseTime { decay } => LrSchedule::InverseTime { decay },
    }
}

fn effective_lr(cfg: &TrainConfig, epoch: usize) -> f32 {
    match cfg.schedule {
        LrScheduleKind::Constant => cfg.lr,
        LrScheduleKind::InverseTime { decay } => cfg.lr / (1.0 + decay * epoch as f32),
    }
}

/// Trains `model` on `train`, optionally early-stopping on `dev` micro-F1.
/// Each worker's bucket of [`TrainConfig::batch`] sentences is recorded
/// as one packed tape (see the module docs).
pub fn train(
    model: &mut NerModel,
    train: &[EncodedSentence],
    dev: Option<&[EncodedSentence]>,
    cfg: &TrainConfig,
    rng: &mut impl Rng,
) -> TrainReport {
    run_training(model, train, dev, cfg, rng, packed_step)
}

/// The one-tape-per-sentence trainer: [`train`]'s loop and schedule with
/// every sentence recorded and back-propagated on its own [`Tape`]. This
/// is the **reference** the packed trainer is verified against — loss
/// curves, final weights and F1 bit-identical at any thread count and
/// batch size (`tests/train_parity.rs`); no production training runs
/// it. The one behavioural difference: a
/// non-finite loss skips only its own sentence, where [`train`] rolls
/// back the whole bucket.
pub fn train_tape(
    model: &mut NerModel,
    train: &[EncodedSentence],
    dev: Option<&[EncodedSentence]>,
    cfg: &TrainConfig,
    rng: &mut impl Rng,
) -> TrainReport {
    run_training(model, train, dev, cfg, rng, tape_step)
}

fn run_training(
    model: &mut NerModel,
    train: &[EncodedSentence],
    dev: Option<&[EncodedSentence]>,
    cfg: &TrainConfig,
    rng: &mut impl Rng,
    step: Step,
) -> TrainReport {
    assert!(!train.is_empty(), "training set is empty");
    let _train_span = ner_obs::span("train");
    ner_obs::gauge("params.scalars", model.store.num_scalars() as f64);
    let pool = ner_par::global();
    ner_obs::gauge("par.threads", pool.threads() as f64);
    // Named gauge so run logs and `report` show the bucket size.
    ner_obs::gauge("train.batch", cfg.batch.max(1) as f64);
    ner_obs::info(format!("trainer batch {}", cfg.batch.max(1)));
    let epoch_tokens: usize = train.iter().map(|s| s.len()).sum();
    let mut opt = make_optimizer(cfg);
    let sched = schedule(cfg);
    let mut order: Vec<usize> = (0..train.len()).collect();

    let mut records = Vec::with_capacity(cfg.epochs);
    let mut best_f1 = f64::NEG_INFINITY;
    let mut best_epoch = 0usize;
    let mut best_params = None;
    let mut stale = 0usize;
    let mut stop_reason = "completed".to_string();
    let mut op_totals = [0u64; ner_tensor::OpClass::ALL.len()];

    for epoch in 0..cfg.epochs {
        let epoch_span = ner_obs::span("epoch");
        let epoch_start = std::time::Instant::now();
        sched.apply(opt.as_mut(), cfg.lr, epoch);
        if cfg.shuffle {
            order.shuffle(rng);
        }
        let stats = run_epoch_bucketed(
            model,
            train,
            &order,
            opt.as_mut(),
            cfg,
            step,
            epoch,
            &pool,
            rng,
            &mut op_totals,
        );
        let EpochStats { total_loss, norm_sum, applied, skipped, peak_nodes } = stats;
        let train_loss = total_loss / train.len() as f64;

        // Export the coordinator thread's buffer-pool counters (workers
        // hand theirs back with each bucket result).
        export_pool_stats(ner_tensor::pool::take_stats());

        let dev_f1 = dev.map(|d| {
            let _eval_span = ner_obs::span("eval");
            evaluate_model(model, d).micro.f1
        });
        drop(epoch_span);
        let wall = epoch_start.elapsed();
        let tokens_per_s =
            if wall.as_secs_f64() > 0.0 { epoch_tokens as f64 / wall.as_secs_f64() } else { 0.0 };
        let record = EpochRecord {
            epoch,
            train_loss,
            dev_f1,
            grad_norm: if applied > 0 { norm_sum / applied as f64 } else { 0.0 },
            lr: effective_lr(cfg, epoch),
            wall_ms: wall.as_millis() as u64,
            tokens_per_s,
            peak_tape_nodes: peak_nodes,
            skipped_updates: skipped,
        };
        ner_obs::gauge_max("tape.peak_nodes", peak_nodes as f64);
        ner_obs::gauge_max("train.tokens_per_s", tokens_per_s);
        // Always registered (even at 0) so run logs make "no updates were
        // skipped" explicit rather than ambiguous.
        ner_obs::counter("train.skipped_updates", skipped as f64);
        ner_obs::emit_record("epoch", &record);
        ner_obs::info(format!(
            "epoch {:>2}  loss {:>9.4}  |grad| {:>7.3}  lr {:.4}{}  [{} ms]",
            record.epoch,
            record.train_loss,
            record.grad_norm,
            record.lr,
            record.dev_f1.map_or(String::new(), |f| format!("  dev-F1 {:.2}%", 100.0 * f)),
            record.wall_ms,
        ));
        records.push(record);

        if let Some(f1) = dev_f1 {
            if f1 > best_f1 {
                best_f1 = f1;
                best_epoch = epoch;
                best_params = Some(model.store.clone());
                stale = 0;
            } else {
                stale += 1;
                if cfg.patience.is_some_and(|p| stale >= p) {
                    stop_reason = format!(
                        "early-stop: dev F1 stale for {stale} epochs (best {best_f1:.4} at epoch {best_epoch})"
                    );
                    break;
                }
            }
        } else {
            best_epoch = epoch;
        }
    }

    for (class, &n) in ner_tensor::OpClass::ALL.iter().zip(&op_totals) {
        if n > 0 {
            ner_obs::counter(&format!("tape.ops.{}", class.name()), n as f64);
        }
    }
    if stop_reason != "completed" {
        ner_obs::info(stop_reason.clone());
    }
    if let Some(params) = best_params {
        model.store = params;
    }
    TrainReport {
        epochs: records,
        best_epoch,
        best_dev_f1: (best_f1 > f64::NEG_INFINITY).then_some(best_f1),
        stop_reason,
    }
}

/// Predicts spans for every sentence through the packed forward serving
/// uses: `NerModel::predict_bucketed` on a cache-free plan, so buckets of
/// up to [`crate::plan::DEFAULT_COMPUTE_BATCH`] sentences fan out over the
/// global `ner-par` pool. Empty sentences predict no spans. The batched
/// backend is bit-identical to the tape per sentence, so the result is
/// identical at any thread count.
pub fn predict_all(model: &NerModel, data: &[EncodedSentence]) -> Vec<Vec<EntitySpan>> {
    model.predict_bucketed(&model.compile_plan(0), data, |_, _, _| {})
}

/// Evaluates the model on encoded data with exact/relaxed span metrics.
pub fn evaluate_model(model: &NerModel, data: &[EncodedSentence]) -> EvalResult {
    let golds: Vec<Vec<EntitySpan>> = data.iter().map(|e| e.gold.clone()).collect();
    let preds = predict_all(model, data);
    evaluate(&golds, &preds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CharRepr, DecoderKind, EncoderKind, NerConfig, WordRepr};
    use crate::repr::SentenceEncoder;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use ner_text::TagScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn bilstm_crf_learns_the_synthetic_corpus() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let train_ds = gen.dataset(&mut rng, 150);
        let test_ds = gen.dataset(&mut rng, 50);
        let enc = SentenceEncoder::from_dataset(&train_ds, TagScheme::Bio, 1);
        let train_enc = enc.encode_dataset(&train_ds, None);
        let test_enc = enc.encode_dataset(&test_ds, None);

        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        let cfg = TrainConfig { epochs: 6, ..Default::default() };
        let report = train(&mut model, &train_enc, None, &cfg, &mut rng);
        assert!(
            report.epochs.last().unwrap().train_loss < report.epochs[0].train_loss,
            "loss should fall"
        );
        let result = evaluate_model(&model, &test_enc);
        assert!(
            result.micro.f1 > 0.6,
            "BiLSTM-CRF should reach reasonable F1 on synthetic news, got {}",
            result.micro.f1
        );
    }

    #[test]
    fn early_stopping_restores_best_parameters() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let train_ds = gen.dataset(&mut rng, 60);
        let dev_ds = gen.dataset(&mut rng, 30);
        let enc = SentenceEncoder::from_dataset(&train_ds, TagScheme::Bio, 1);
        let train_enc = enc.encode_dataset(&train_ds, None);
        let dev_enc = enc.encode_dataset(&dev_ds, None);

        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        let cfg = TrainConfig { epochs: 5, patience: Some(2), ..Default::default() };
        let report = train(&mut model, &train_enc, Some(&dev_enc), &cfg, &mut rng);
        let best = report.best_dev_f1.unwrap();
        // The restored model must reproduce the recorded best dev F1.
        let now = evaluate_model(&model, &dev_enc).micro.f1;
        assert!((now - best).abs() < 1e-9, "restored {now} vs recorded best {best}");
    }

    #[test]
    fn nan_loss_skips_every_update_and_exports_the_counter() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let ds = gen.dataset(&mut rng, 8);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let train_enc = enc.encode_dataset(&ds, None);
        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        // Poison every parameter: each per-sentence loss is NaN, so the
        // non-finite guard must skip every optimizer update.
        let ids: Vec<_> = model.store.ids().collect();
        for id in ids {
            model.store.value_mut(id).data_mut().fill(f32::NAN);
        }
        let before = ner_obs::counter_value("train.skipped_updates").unwrap_or(0.0);
        let cfg = TrainConfig { epochs: 2, patience: None, ..Default::default() };
        let report = train(&mut model, &train_enc, None, &cfg, &mut rng);
        for e in &report.epochs {
            assert_eq!(e.skipped_updates, train_enc.len(), "epoch {}", e.epoch);
        }
        let after = ner_obs::counter_value("train.skipped_updates").unwrap_or(0.0);
        let expected = (cfg.epochs * train_enc.len()) as f64;
        assert!(
            after - before >= expected,
            "counter should grow by at least {expected} (before {before}, after {after})"
        );
    }

    #[test]
    #[should_panic(expected = "training set is empty")]
    fn empty_training_set_rejected() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let ds = gen.dataset(&mut rng, 5);
        let enc = SentenceEncoder::from_dataset(&ds, TagScheme::Bio, 1);
        let mut model = NerModel::new(quick_cfg(), &enc, None, &mut rng);
        train(&mut model, &[], None, &TrainConfig::default(), &mut rng);
    }
}
