//! Semi-Markov CRF tag decoder (paper §3.4.2; Zhuo et al. 2016 and
//! Ye & Ling 2018, Table 3 rows \[141\] and \[142\]).
//!
//! Models *segments* rather than words: a labeling of the sentence is a
//! segmentation into typed entity segments (length ≤ `max_len`) and
//! length-1 `O` segments. A segment's score sums its tokens' emission scores
//! for its type and adds a learned per-(length, type) bias — the
//! segment-level feature the paper credits semi-CRFs for. Gradients are
//! hand-derived from a semi-Markov forward–backward pass, mirroring the
//! linear-chain CRF implementation.

use super::{logsumexp, loss_with_grads};
use ner_tensor::{init, ParamId, ParamStore, Tape, Tensor, Var};
use ner_text::EntitySpan;
use rand::Rng;

/// `score(s, e, y)` of segment `[s, e)` with label `y`: its rows' emission
/// sum for `y` (from per-label prefix sums, so O(1) per segment) plus the
/// `(e − s, y)` length bias.
fn segment_scorer<'a>(
    emissions: &Tensor,
    len_bias: &'a Tensor,
) -> impl Fn(usize, usize, usize) -> f64 + 'a {
    let (n, l) = emissions.shape();
    let mut prefix = vec![vec![0.0f64; l]; n + 1];
    for t in 0..n {
        for y in 0..l {
            prefix[t + 1][y] = prefix[t][y] + emissions.at2(t, y) as f64;
        }
    }
    move |s, e, y| prefix[e][y] - prefix[s][y] + len_bias.at2(e - s - 1, y) as f64
}

/// A typed segment `[start, end)` with label index (0 = `O`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// First token (inclusive).
    pub start: usize,
    /// One past the last token.
    pub end: usize,
    /// Label index: 0 is `O`, `1..=Y` are entity types.
    pub label: usize,
}

/// A semi-Markov CRF over `Y` entity types plus `O` (label 0).
pub struct SemiCrf {
    /// Label-to-label transition scores `[Y+1, Y+1]`.
    pub transitions: ParamId,
    /// Start scores `[1, Y+1]`.
    pub start: ParamId,
    /// End scores `[1, Y+1]`.
    pub end: ParamId,
    /// Per-(length−1, label) segment bias `[max_len, Y+1]`.
    pub length_bias: ParamId,
    labels: usize,
    max_len: usize,
}

impl SemiCrf {
    /// Registers a semi-CRF over `entity_types` types with entity segments
    /// of at most `max_len` tokens.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut impl Rng,
        name: &str,
        entity_types: usize,
        max_len: usize,
    ) -> Self {
        let labels = entity_types + 1;
        SemiCrf {
            transitions: store
                .register(&format!("{name}.trans"), init::uniform(rng, labels, labels, 0.1)),
            start: store.register(&format!("{name}.start"), init::uniform(rng, 1, labels, 0.1)),
            end: store.register(&format!("{name}.end"), init::uniform(rng, 1, labels, 0.1)),
            length_bias: store
                .register(&format!("{name}.len"), init::uniform(rng, max_len, labels, 0.1)),
            labels,
            max_len,
        }
    }

    /// Number of labels including `O`.
    pub fn num_labels(&self) -> usize {
        self.labels
    }

    /// Maximum entity-segment length.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Converts gold entity spans (labels already mapped to `1..=Y`) into
    /// the full gold segmentation (entities + length-1 `O` segments).
    pub fn gold_segments(n: usize, entities: &[Segment]) -> Vec<Segment> {
        let mut segs = Vec::new();
        let mut covered = vec![false; n];
        for e in entities {
            for t in e.start..e.end {
                covered[t] = true;
            }
        }
        let mut sorted: Vec<&Segment> = entities.iter().collect();
        sorted.sort_by_key(|s| s.start);
        let mut i = 0;
        let mut ent_iter = sorted.into_iter().peekable();
        while i < n {
            if covered[i] {
                let e = ent_iter.next().expect("covered position implies an entity");
                segs.push(*e);
                i = e.end;
            } else {
                segs.push(Segment { start: i, end: i + 1, label: 0 });
                i += 1;
            }
        }
        segs
    }

    /// The maximal segment length for `label` (entities: `max_len`; `O`: 1).
    fn len_cap(&self, label: usize) -> usize {
        if label == 0 {
            1
        } else {
            self.max_len
        }
    }

    /// Negative log-likelihood of the gold segmentation given per-token
    /// emissions `[n, Y+1]`.
    pub fn nll(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        emissions: Var,
        gold: &[Segment],
    ) -> Var {
        let emis = tape.value(emissions).clone();
        let (n, l) = emis.shape();
        assert!(n > 0, "semi-CRF nll on empty sequence");
        assert_eq!(l, self.labels, "emission width must be Y+1");
        debug_assert_eq!(gold.iter().map(|s| s.end - s.start).sum::<usize>(), n);

        let trans_var = tape.param(store, self.transitions);
        let start_var = tape.param(store, self.start);
        let end_var = tape.param(store, self.end);
        let len_var = tape.param(store, self.length_bias);
        let trans = tape.value(trans_var).clone();
        let start = tape.value(start_var).clone();
        let end = tape.value(end_var).clone();
        let len_bias = tape.value(len_var).clone();

        let seg_score = segment_scorer(&emis, &len_bias);
        let tr = |a: usize, b: usize| trans.at2(a, b) as f64;

        // alpha[e][y]: log-sum of segmentations of [0, e) ending with label y.
        const NEG: f64 = f64::NEG_INFINITY;
        let mut alpha = vec![vec![NEG; l]; n + 1];
        let mut buf: Vec<f64> = Vec::with_capacity(self.max_len * l + 1);
        for e in 1..=n {
            for y in 0..l {
                buf.clear();
                let cap = self.len_cap(y);
                for len in 1..=cap.min(e) {
                    let s = e - len;
                    let base = seg_score(s, e, y);
                    if s == 0 {
                        buf.push(start.at2(0, y) as f64 + base);
                    } else {
                        for yp in 0..l {
                            if alpha[s][yp] > NEG {
                                buf.push(alpha[s][yp] + tr(yp, y) + base);
                            }
                        }
                    }
                }
                if !buf.is_empty() {
                    alpha[e][y] = logsumexp(&buf);
                }
            }
        }
        let finals: Vec<f64> = (0..l)
            .filter(|&y| alpha[n][y] > NEG)
            .map(|y| alpha[n][y] + end.at2(0, y) as f64)
            .collect();
        let log_z = logsumexp(&finals);

        // beta[s][yp]: log-sum over segmentations of [s, n) given the
        // previous segment's label yp (for s = 0, yp is a virtual start and
        // handled separately).
        let mut beta = vec![vec![NEG; l]; n + 1];
        for yp in 0..l {
            beta[n][yp] = end.at2(0, yp) as f64;
        }
        for s in (0..n).rev() {
            for yp in 0..l {
                buf.clear();
                for y in 0..l {
                    let cap = self.len_cap(y);
                    for len in 1..=cap.min(n - s) {
                        let e = s + len;
                        if beta[e][y] > NEG {
                            buf.push(tr(yp, y) + seg_score(s, e, y) + beta[e][y]);
                        }
                    }
                }
                if !buf.is_empty() {
                    beta[s][yp] = logsumexp(&buf);
                }
            }
        }
        // beta for a segment starting at 0 uses start scores instead of
        // transitions; computed inline below.

        // Gold score.
        let mut gold_score = 0.0f64;
        let mut prev: Option<usize> = None;
        for seg in gold {
            gold_score += seg_score(seg.start, seg.end, seg.label);
            gold_score += match prev {
                None => start.at2(0, seg.label) as f64,
                Some(p) => tr(p, seg.label),
            };
            prev = Some(seg.label);
        }
        gold_score += end.at2(0, prev.expect("gold segmentation is non-empty")) as f64;
        let nll = (log_z - gold_score) as f32;

        // --- Gradients: segment posteriors. ---
        // P(segment (s,e,y)) = exp(pre(s,y) + seg + beta_after(e,y) − logZ)
        // where pre(s,y) = start[y] if s==0 else lse_yp(alpha[s][yp]+tr(yp,y))
        // and beta_after(e,y) = beta[e][y] (suffix given previous label y).
        let mut d_emis = Tensor::zeros(n, l);
        let mut d_trans = Tensor::zeros(l, l);
        let mut d_start = Tensor::zeros(1, l);
        let mut d_end = Tensor::zeros(1, l);
        let mut d_len = Tensor::zeros(self.max_len, l);

        for y in 0..l {
            let cap = self.len_cap(y);
            for s in 0..n {
                for len in 1..=cap.min(n - s) {
                    let e = s + len;
                    if beta[e][y] <= NEG {
                        continue;
                    }
                    let base = seg_score(s, e, y);
                    let pre = if s == 0 {
                        start.at2(0, y) as f64
                    } else {
                        let vals: Vec<f64> = (0..l)
                            .filter(|&yp| alpha[s][yp] > NEG)
                            .map(|yp| alpha[s][yp] + tr(yp, y))
                            .collect();
                        if vals.is_empty() {
                            continue;
                        }
                        logsumexp(&vals)
                    };
                    let p = (pre + base + beta[e][y] - log_z).exp();
                    if p == 0.0 {
                        continue;
                    }
                    for t in s..e {
                        d_emis.set2(t, y, d_emis.at2(t, y) + p as f32);
                    }
                    d_len.set2(len - 1, y, d_len.at2(len - 1, y) + p as f32);
                    if s == 0 {
                        d_start.set2(0, y, d_start.at2(0, y) + p as f32);
                    } else {
                        // Split the segment posterior over predecessor labels.
                        for yp in 0..l {
                            if alpha[s][yp] > NEG {
                                let pp =
                                    (alpha[s][yp] + tr(yp, y) + base + beta[e][y] - log_z).exp();
                                d_trans.set2(yp, y, d_trans.at2(yp, y) + pp as f32);
                            }
                        }
                    }
                }
            }
            // End-score posterior: last segment has label y.
            if alpha[n][y] > NEG {
                d_end.set2(0, y, (alpha[n][y] + end.at2(0, y) as f64 - log_z).exp() as f32);
            }
        }

        // Subtract gold counts.
        let mut prev: Option<usize> = None;
        for seg in gold {
            for t in seg.start..seg.end {
                d_emis.set2(t, seg.label, d_emis.at2(t, seg.label) - 1.0);
            }
            d_len.set2(
                seg.end - seg.start - 1,
                seg.label,
                d_len.at2(seg.end - seg.start - 1, seg.label) - 1.0,
            );
            match prev {
                None => d_start.set2(0, seg.label, d_start.at2(0, seg.label) - 1.0),
                Some(p) => d_trans.set2(p, seg.label, d_trans.at2(p, seg.label) - 1.0),
            }
            prev = Some(seg.label);
        }
        let last = prev.expect("non-empty gold");
        d_end.set2(0, last, d_end.at2(0, last) - 1.0);

        loss_with_grads(
            tape,
            nll,
            &[emissions, trans_var, start_var, end_var, len_var],
            vec![d_emis, d_trans, d_start, d_end, d_len],
        )
    }

    /// Segmental Viterbi: the maximum-scoring segmentation.
    pub fn decode(&self, store: &ParamStore, emissions: &Tensor) -> Vec<Segment> {
        let (n, l) = emissions.shape();
        assert_eq!(l, self.labels);
        if n == 0 {
            return vec![];
        }
        let trans = store.value(self.transitions);
        let start = store.value(self.start);
        let end = store.value(self.end);
        let len_bias = store.value(self.length_bias);

        let seg_score = segment_scorer(emissions, len_bias);

        const NEG: f64 = -1e18;
        let mut best = vec![vec![NEG; l]; n + 1];
        let mut back: Vec<Vec<Option<(usize, usize)>>> = vec![vec![None; l]; n + 1]; // (seg_start, prev_label)
        for e in 1..=n {
            for y in 0..l {
                let cap = self.len_cap(y);
                for len in 1..=cap.min(e) {
                    let s = e - len;
                    let base = seg_score(s, e, y);
                    if s == 0 {
                        let sc = start.at2(0, y) as f64 + base;
                        if sc > best[e][y] {
                            best[e][y] = sc;
                            back[e][y] = Some((0, l)); // l = virtual start marker
                        }
                    } else {
                        for yp in 0..l {
                            let sc = best[s][yp] + trans.at2(yp, y) as f64 + base;
                            if sc > best[e][y] {
                                best[e][y] = sc;
                                back[e][y] = Some((s, yp));
                            }
                        }
                    }
                }
            }
        }
        let mut y = (0..l)
            .max_by(|&a, &b| {
                let sa = best[n][a] + end.at2(0, a) as f64;
                let sb = best[n][b] + end.at2(0, b) as f64;
                sa.partial_cmp(&sb).expect("finite scores")
            })
            .expect("at least one label");
        let mut e = n;
        let mut segs = Vec::new();
        while e > 0 {
            let (s, yp) = back[e][y].expect("backpointer chain is complete");
            segs.push(Segment { start: s, end: e, label: y });
            e = s;
            if yp == l {
                break;
            }
            y = yp;
        }
        segs.reverse();
        segs
    }

    /// Converts decoded segments into entity spans given the type names
    /// (`types[i]` names label `i+1`).
    pub fn segments_to_spans(segments: &[Segment], types: &[String]) -> Vec<EntitySpan> {
        segments
            .iter()
            .filter(|s| s.label > 0)
            .map(|s| EntitySpan::new(s.start, s.end, types[s.label - 1].clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_tensor::optim::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gold_segments_fill_gaps_with_o() {
        let ents = vec![Segment { start: 1, end: 3, label: 2 }];
        let segs = SemiCrf::gold_segments(5, &ents);
        assert_eq!(
            segs,
            vec![
                Segment { start: 0, end: 1, label: 0 },
                Segment { start: 1, end: 3, label: 2 },
                Segment { start: 3, end: 4, label: 0 },
                Segment { start: 4, end: 5, label: 0 },
            ]
        );
    }

    #[test]
    fn nll_matches_enumeration_on_tiny_input() {
        // n=2, 1 entity type (labels {O, E}), max_len 2. Enumerate all
        // segmentations: [O][O], [O][E], [E][O], [E][E], [EE] — 5 of them
        // (O segments are length-1 only).
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let crf = SemiCrf::new(&mut store, &mut rng, "s", 1, 2);
        let emis = Tensor::from_rows(&[&[0.3, -0.2], &[-0.1, 0.4]]);

        let trans = store.value(crf.transitions).clone();
        let start = store.value(crf.start).clone();
        let end = store.value(crf.end).clone();
        let lb = store.value(crf.length_bias).clone();
        let seg = |s: usize, e: usize, y: usize| -> f64 {
            (s..e).map(|t| emis.at2(t, y) as f64).sum::<f64>() + lb.at2(e - s - 1, y) as f64
        };
        let two_segs = |y0: usize, y1: usize| -> f64 {
            start.at2(0, y0) as f64
                + seg(0, 1, y0)
                + trans.at2(y0, y1) as f64
                + seg(1, 2, y1)
                + end.at2(0, y1) as f64
        };
        let all = [
            two_segs(0, 0),
            two_segs(0, 1),
            two_segs(1, 0),
            two_segs(1, 1),
            start.at2(0, 1) as f64 + seg(0, 2, 1) + end.at2(0, 1) as f64,
        ];
        let log_z = logsumexp(&all);
        let gold = vec![Segment { start: 0, end: 2, label: 1 }];
        let expected = log_z - (start.at2(0, 1) as f64 + seg(0, 2, 1) + end.at2(0, 1) as f64);

        let mut tape = Tape::new();
        let e = tape.constant(emis);
        let nll = crf.nll(&mut tape, &store, e, &gold);
        assert!(
            (tape.value(nll).item() as f64 - expected).abs() < 1e-4,
            "nll {} vs enumerated {expected}",
            tape.value(nll).item()
        );
    }

    #[test]
    fn emission_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let crf = SemiCrf::new(&mut store, &mut rng, "s", 2, 3);
        let emis_id = store.register(
            "emissions",
            Tensor::from_rows(&[
                &[0.5, -0.3, 0.2],
                &[0.1, 0.9, -0.5],
                &[-0.7, 0.2, 0.4],
                &[0.3, 0.3, -0.2],
            ]),
        );
        let gold = vec![
            Segment { start: 0, end: 1, label: 0 },
            Segment { start: 1, end: 3, label: 2 },
            Segment { start: 3, end: 4, label: 0 },
        ];

        let loss_of = |store: &ParamStore| -> f64 {
            let mut tape = Tape::new();
            let e = tape.param(store, emis_id);
            let nll = crf.nll(&mut tape, store, e, &gold);
            tape.value(nll).item() as f64
        };

        let mut tape = Tape::new();
        let e = tape.param(&store, emis_id);
        let nll = crf.nll(&mut tape, &store, e, &gold);
        tape.backward(nll, &mut store);

        let h = 1e-3f32;
        for pid in [emis_id, crf.transitions, crf.start, crf.end, crf.length_bias] {
            let analytic = store.grad(pid).clone();
            for i in 0..store.value(pid).len() {
                let orig = store.value(pid).data()[i];
                store.value_mut(pid).data_mut()[i] = orig + h;
                let plus = loss_of(&store);
                store.value_mut(pid).data_mut()[i] = orig - h;
                let minus = loss_of(&store);
                store.value_mut(pid).data_mut()[i] = orig;
                let numeric = ((plus - minus) / (2.0 * h as f64)) as f32;
                let err = (analytic.data()[i] - numeric).abs() / (1.0 + numeric.abs());
                assert!(
                    err < 1e-2,
                    "semi-CRF gradcheck failed on {} index {i}: analytic {} vs numeric {numeric}",
                    store.name(pid),
                    analytic.data()[i]
                );
            }
        }
    }

    #[test]
    fn learns_to_segment_and_decodes_gold() {
        // Emissions carry the signal; train end-to-end and decode.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let crf = SemiCrf::new(&mut store, &mut rng, "s", 1, 3);
        let emis = Tensor::from_rows(&[&[2.0, -2.0], &[-2.0, 2.0], &[-2.0, 2.0], &[2.0, -2.0]]);
        let gold = vec![
            Segment { start: 0, end: 1, label: 0 },
            Segment { start: 1, end: 3, label: 1 },
            Segment { start: 3, end: 4, label: 0 },
        ];
        let mut opt = Adam::new(0.05);
        for _ in 0..60 {
            let mut tape = Tape::new();
            let e = tape.constant(emis.clone());
            let nll = crf.nll(&mut tape, &store, e, &gold);
            tape.backward(nll, &mut store);
            opt.step(&mut store);
        }
        let segs = crf.decode(&store, &emis);
        assert_eq!(segs, gold, "decode should recover the gold segmentation");
    }

    #[test]
    fn decode_covers_sentence_exactly() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let crf = SemiCrf::new(&mut store, &mut rng, "s", 3, 4);
        let emis = init::uniform(&mut rng, 9, 4, 1.0);
        let segs = crf.decode(&store, &emis);
        let mut pos = 0;
        for s in &segs {
            assert_eq!(s.start, pos, "segments must tile the sentence");
            assert!(s.end > s.start);
            if s.label == 0 {
                assert_eq!(s.end - s.start, 1, "O segments are single tokens");
            } else {
                assert!(s.end - s.start <= 4);
            }
            pos = s.end;
        }
        assert_eq!(pos, 9);
    }

    #[test]
    fn spans_conversion_skips_o() {
        let types = vec!["PER".to_string(), "LOC".to_string()];
        let segs = vec![
            Segment { start: 0, end: 1, label: 0 },
            Segment { start: 1, end: 3, label: 1 },
            Segment { start: 3, end: 4, label: 2 },
        ];
        let spans = SemiCrf::segments_to_spans(&segs, &types);
        assert_eq!(spans, vec![EntitySpan::new(1, 3, "PER"), EntitySpan::new(3, 4, "LOC")]);
    }
}
