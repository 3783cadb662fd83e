//! Linear-chain conditional random field tag decoder (paper §3.4.2 — "the
//! most common choice for tag decoder", Table 3).
//!
//! The negative log-likelihood is implemented as a single custom autograd
//! node with hand-derived gradients: token marginals minus gold one-hots for
//! the emissions, pairwise marginals minus gold transition counts for the
//! transition scores (both obtained from one forward–backward pass in f64).
//! This is the classic implementation strategy — faster and numerically
//! sturdier than composing the DP out of logsumexp graph ops.

use super::{logsumexp, loss_with_grads};
use ner_tensor::{init, ParamId, ParamStore, Tape, Tensor, Var};
use ner_text::TagSet;
use rand::Rng;

/// A linear-chain CRF over `k` tags with learned transition, start and end
/// scores.
pub struct Crf {
    /// Transition scores `[k, k]`: row = from-tag, column = to-tag.
    pub transitions: ParamId,
    /// Start scores `[1, k]`.
    pub start: ParamId,
    /// End scores `[1, k]`.
    pub end: ParamId,
    k: usize,
}

impl Crf {
    /// Registers CRF parameters (small uniform init).
    pub fn new(store: &mut ParamStore, rng: &mut impl Rng, name: &str, k: usize) -> Self {
        Crf {
            transitions: store.register(&format!("{name}.trans"), init::uniform(rng, k, k, 0.1)),
            start: store.register(&format!("{name}.start"), init::uniform(rng, 1, k, 0.1)),
            end: store.register(&format!("{name}.end"), init::uniform(rng, 1, k, 0.1)),
            k,
        }
    }

    /// Number of tags.
    pub fn num_tags(&self) -> usize {
        self.k
    }

    /// Negative log-likelihood of `tags` given `emissions [T, k]`, as a
    /// differentiable scalar node.
    ///
    /// # Panics
    /// Panics on empty input or a length/width mismatch.
    pub fn nll(&self, tape: &mut Tape, store: &ParamStore, emissions: Var, tags: &[usize]) -> Var {
        let emis_v = tape.value(emissions).clone();
        let (t_len, k) = emis_v.shape();
        assert!(t_len > 0, "CRF nll on empty sequence");
        assert_eq!(k, self.k, "emission width must equal tag count");
        assert_eq!(tags.len(), t_len, "one tag per emission row");
        assert!(tags.iter().all(|&y| y < k), "tag id out of range");

        let trans_var = tape.param(store, self.transitions);
        let start_var = tape.param(store, self.start);
        let end_var = tape.param(store, self.end);
        let (trans, start, end) = self.params(store);
        let (alpha, beta, log_z) = self.lattice(store, &emis_v);
        let e = |t: usize, j: usize| emis_v.at2(t, j) as f64;
        let tr = |i: usize, j: usize| trans.at2(i, j) as f64;

        // Gold path score.
        let mut gold = start.at2(0, tags[0]) as f64 + e(0, tags[0]);
        for t in 1..t_len {
            gold += tr(tags[t - 1], tags[t]) + e(t, tags[t]);
        }
        gold += end.at2(0, tags[t_len - 1]) as f64;
        let nll = (log_z - gold) as f32;

        // Gradients, scaled by the upstream grad on backward: token
        // marginals minus gold one-hots. The start and end gradients are the
        // first and last rows of the emission gradient (beta at the last
        // step is the end score).
        let mut d_emis = Tensor::zeros(t_len, k);
        for t in 0..t_len {
            for j in 0..k {
                let m = (alpha[t][j] + beta[t][j] - log_z).exp();
                d_emis.set2(t, j, m as f32);
            }
            let row = d_emis.row_mut(t);
            row[tags[t]] -= 1.0;
        }
        let mut d_trans = Tensor::zeros(k, k);
        for t in 0..t_len - 1 {
            for i in 0..k {
                for j in 0..k {
                    let p = (alpha[t][i] + tr(i, j) + e(t + 1, j) + beta[t + 1][j] - log_z).exp();
                    let cur = d_trans.at2(i, j);
                    d_trans.set2(i, j, cur + p as f32);
                }
            }
            let cur = d_trans.at2(tags[t], tags[t + 1]);
            d_trans.set2(tags[t], tags[t + 1], cur - 1.0);
        }
        let d_start = Tensor::row_vector(d_emis.row(0));
        let d_end = Tensor::row_vector(d_emis.row(t_len - 1));
        loss_with_grads(
            tape,
            nll,
            &[emissions, trans_var, start_var, end_var],
            vec![d_emis, d_trans, d_start, d_end],
        )
    }

    /// Viterbi decoding: the maximum-scoring tag sequence for `emissions`,
    /// plus its unnormalized path score. When `constraints` is given,
    /// structurally invalid transitions (e.g. `O → I-PER` in BIOES) are
    /// hard-masked — predicted sequences are then always well-formed.
    ///
    /// Builds the log-space decode tables on the fly; callers decoding many
    /// sentences should compile them once with
    /// [`decode_tables`](Self::decode_tables) and reuse
    /// [`CrfDecodeTables::viterbi`] — same implementation, same result.
    pub fn viterbi(
        &self,
        store: &ParamStore,
        emissions: &Tensor,
        constraints: Option<&TagSet>,
    ) -> (Vec<usize>, f64) {
        self.decode_tables(store, constraints).viterbi(emissions)
    }

    /// Precomputes the decode tables (parameters widened to `f64` log
    /// space, structural-constraint masks materialized) so repeated Viterbi
    /// calls stop re-deriving them per sentence. Snapshot semantics:
    /// recompile after a parameter update.
    pub fn decode_tables(
        &self,
        store: &ParamStore,
        constraints: Option<&TagSet>,
    ) -> CrfDecodeTables {
        let k = self.k;
        let trans_t = store.value(self.transitions);
        let start_t = store.value(self.start);
        let end_t = store.value(self.end);
        let mut trans = vec![0.0f64; k * k];
        let mut allowed = vec![true; k * k];
        for i in 0..k {
            for j in 0..k {
                trans[i * k + j] = trans_t.at2(i, j) as f64;
                allowed[i * k + j] = constraints.is_none_or(|c| c.transition_allowed(i, j));
            }
        }
        CrfDecodeTables {
            k,
            trans,
            start: (0..k).map(|j| start_t.at2(0, j) as f64).collect(),
            end: (0..k).map(|j| end_t.at2(0, j) as f64).collect(),
            allowed,
            allowed_start: (0..k).map(|j| constraints.is_none_or(|c| c.start_allowed(j))).collect(),
            allowed_end: (0..k).map(|j| constraints.is_none_or(|c| c.end_allowed(j))).collect(),
        }
    }

    /// Log partition function for `emissions` (used to normalize Viterbi
    /// scores into path probabilities for confidence estimates, §4.3 MNLP).
    pub fn log_partition(&self, store: &ParamStore, emissions: &Tensor) -> f64 {
        self.lattice(store, emissions).2
    }

    /// Per-token posterior marginals `[T, k]` (each row sums to 1) — the
    /// confidence signal for uncertainty-based active learning.
    pub fn marginals(&self, store: &ParamStore, emissions: &Tensor) -> Tensor {
        let (t_len, k) = emissions.shape();
        let (alpha, beta, log_z) = self.lattice(store, emissions);
        let mut out = Tensor::zeros(t_len, k);
        for t in 0..t_len {
            for j in 0..k {
                out.set2(t, j, (alpha[t][j] + beta[t][j] - log_z).exp() as f32);
            }
        }
        out
    }

    fn params<'s>(&self, store: &'s ParamStore) -> (&'s Tensor, &'s Tensor, &'s Tensor) {
        (store.value(self.transitions), store.value(self.start), store.value(self.end))
    }

    /// One f64 forward–backward pass over the chain: `alpha[t][j]` log-sums
    /// every path over `0..=t` ending in tag `j`, `beta[t][i]` every
    /// continuation of tag `i` at `t` to the end (end scores included), and
    /// `log_z` is the log partition function, so the token marginals are
    /// `exp(alpha + beta − log_z)`.
    fn lattice(
        &self,
        store: &ParamStore,
        emissions: &Tensor,
    ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>, f64) {
        let (trans, start, end) = self.params(store);
        let (t_len, k) = emissions.shape();
        let e = |t: usize, j: usize| emissions.at2(t, j) as f64;
        let tr = |i: usize, j: usize| trans.at2(i, j) as f64;
        let mut alpha = vec![vec![0.0f64; k]; t_len];
        for j in 0..k {
            alpha[0][j] = start.at2(0, j) as f64 + e(0, j);
        }
        let mut scratch = vec![0.0f64; k];
        for t in 1..t_len {
            for j in 0..k {
                for (i, s) in scratch.iter_mut().enumerate() {
                    *s = alpha[t - 1][i] + tr(i, j);
                }
                alpha[t][j] = logsumexp(&scratch) + e(t, j);
            }
        }
        let finals: Vec<f64> = (0..k).map(|j| alpha[t_len - 1][j] + end.at2(0, j) as f64).collect();
        let log_z = logsumexp(&finals);

        let mut beta = vec![vec![0.0f64; k]; t_len];
        for j in 0..k {
            beta[t_len - 1][j] = end.at2(0, j) as f64;
        }
        for t in (0..t_len - 1).rev() {
            for i in 0..k {
                for (j, s) in scratch.iter_mut().enumerate() {
                    *s = tr(i, j) + e(t + 1, j) + beta[t + 1][j];
                }
                beta[t][i] = logsumexp(&scratch);
            }
        }
        (alpha, beta, log_z)
    }
}

/// Precompiled log-space Viterbi tables for one [`Crf`] (see
/// [`Crf::decode_tables`]): the single source of truth for CRF decoding —
/// [`Crf::viterbi`] delegates here, so the cached and uncached paths cannot
/// diverge.
pub struct CrfDecodeTables {
    k: usize,
    /// Row-major `[k, k]` transition scores, already widened to `f64`.
    trans: Vec<f64>,
    start: Vec<f64>,
    end: Vec<f64>,
    /// Row-major `[k, k]` structural-constraint mask (`true` = allowed).
    allowed: Vec<bool>,
    allowed_start: Vec<bool>,
    allowed_end: Vec<bool>,
}

impl CrfDecodeTables {
    /// Number of tags.
    pub fn num_tags(&self) -> usize {
        self.k
    }

    /// Viterbi decoding against the precompiled tables — bit-identical to
    /// [`Crf::viterbi`] with the constraints the tables were built with.
    pub fn viterbi(&self, emissions: &Tensor) -> (Vec<usize>, f64) {
        let (t_len, k) = emissions.shape();
        assert!(t_len > 0 && k == self.k);
        const NEG: f64 = -1e18;

        let mut score = vec![vec![NEG; k]; t_len];
        let mut back = vec![vec![0usize; k]; t_len];
        for j in 0..k {
            if self.allowed_start[j] {
                score[0][j] = self.start[j] + emissions.at2(0, j) as f64;
            }
        }
        for t in 1..t_len {
            for j in 0..k {
                let mut best = NEG;
                let mut arg = 0;
                for i in 0..k {
                    if !self.allowed[i * k + j] {
                        continue;
                    }
                    let s = score[t - 1][i] + self.trans[i * k + j];
                    if s > best {
                        best = s;
                        arg = i;
                    }
                }
                score[t][j] = best + emissions.at2(t, j) as f64;
                back[t][j] = arg;
            }
        }
        let mut best = NEG;
        let mut arg = 0;
        for j in 0..k {
            if !self.allowed_end[j] {
                continue;
            }
            let s = score[t_len - 1][j] + self.end[j];
            if s > best {
                best = s;
                arg = j;
            }
        }
        let mut tags = vec![0usize; t_len];
        tags[t_len - 1] = arg;
        for t in (1..t_len).rev() {
            tags[t - 1] = back[t][tags[t]];
        }
        (tags, best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_tensor::optim::Adam;
    use ner_text::TagScheme;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nll_matches_enumeration_on_tiny_chain() {
        // T=3, k=2: enumerate all 8 paths and compare log Z and the NLL.
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let crf = Crf::new(&mut store, &mut rng, "crf", 2);
        let emis = Tensor::from_rows(&[&[0.5, -0.3], &[0.1, 0.9], &[-0.7, 0.2]]);
        let tags = [0usize, 1, 1];

        let trans = store.value(crf.transitions).clone();
        let start = store.value(crf.start).clone();
        let end = store.value(crf.end).clone();
        let path_score = |p: &[usize]| -> f64 {
            let mut s = start.at2(0, p[0]) as f64 + emis.at2(0, p[0]) as f64;
            for t in 1..3 {
                s += trans.at2(p[t - 1], p[t]) as f64 + emis.at2(t, p[t]) as f64;
            }
            s + end.at2(0, p[2]) as f64
        };
        let mut all = Vec::new();
        for a in 0..2 {
            for b in 0..2 {
                for c in 0..2 {
                    all.push(path_score(&[a, b, c]));
                }
            }
        }
        let log_z = logsumexp(&all);
        let expected_nll = log_z - path_score(&tags);

        let mut tape = Tape::new();
        let e = tape.constant(emis.clone());
        let nll = crf.nll(&mut tape, &store, e, &tags);
        assert!(
            (tape.value(nll).item() as f64 - expected_nll).abs() < 1e-4,
            "nll {} vs enumerated {expected_nll}",
            tape.value(nll).item()
        );
        assert!((crf.log_partition(&store, &emis) - log_z).abs() < 1e-6);
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Register both the CRF parameters and the emissions in ONE store,
        // then check every analytic gradient against central differences.
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let crf = Crf::new(&mut store, &mut rng, "crf", 3);
        let emis_id = store.register(
            "emissions",
            Tensor::from_rows(&[
                &[0.5, -0.3, 0.2],
                &[0.1, 0.9, -0.5],
                &[-0.7, 0.2, 0.4],
                &[0.3, 0.3, -0.2],
            ]),
        );
        let tags = vec![2usize, 0, 1, 1];

        let loss_of = |store: &ParamStore| -> f64 {
            let mut tape = Tape::new();
            let e = tape.param(store, emis_id);
            let nll = crf.nll(&mut tape, store, e, &tags);
            tape.value(nll).item() as f64
        };

        let mut tape = Tape::new();
        let e = tape.param(&store, emis_id);
        let nll = crf.nll(&mut tape, &store, e, &tags);
        tape.backward(nll, &mut store);

        let h = 1e-3f32;
        for pid in [emis_id, crf.transitions, crf.start, crf.end] {
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
                    "CRF gradcheck failed on {} index {i}: analytic {} vs numeric {numeric}",
                    store.name(pid),
                    analytic.data()[i]
                );
            }
        }
    }

    #[test]
    fn transition_gradients_via_training() {
        // Train a CRF on a deterministic alternating tag pattern with
        // UNINFORMATIVE emissions: only the transition matrix can explain
        // the data, so learning must drive the transition scores.
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let crf = Crf::new(&mut store, &mut rng, "crf", 2);
        let emis = Tensor::zeros(6, 2);
        let tags = [0usize, 1, 0, 1, 0, 1];
        let mut opt = Adam::new(0.1);
        let mut first = 0.0;
        let mut last = 0.0;
        for epoch in 0..60 {
            let mut tape = Tape::new();
            let e = tape.constant(emis.clone());
            let nll = crf.nll(&mut tape, &store, e, &tags);
            let v = tape.value(nll).item();
            if epoch == 0 {
                first = v;
            }
            last = v;
            tape.backward(nll, &mut store);
            opt.step(&mut store);
        }
        assert!(last < first * 0.3, "transition learning failed: {first} -> {last}");
        let (decoded, _) = crf.viterbi(&store, &emis, None);
        assert_eq!(decoded, tags.to_vec());
    }

    #[test]
    fn viterbi_respects_structural_constraints() {
        let ts = TagSet::new(TagScheme::Bio, &["PER"]);
        let k = ts.len(); // O, B-PER, I-PER
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let crf = Crf::new(&mut store, &mut rng, "crf", k);
        // Emissions screaming "I-PER" everywhere; constrained Viterbi must
        // still produce a well-formed sequence.
        let i_per = ts.index("I-PER").unwrap();
        let mut emis = Tensor::zeros(4, k);
        for t in 0..4 {
            emis.set2(t, i_per, 10.0);
        }
        let (tags, _) = crf.viterbi(&store, &emis, Some(&ts));
        let labels = ts.decode(&tags);
        assert!(TagScheme::Bio.is_valid(&labels), "constrained decode must be valid: {labels:?}");
    }

    #[test]
    fn marginals_are_distributions() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut store = ParamStore::new();
        let crf = Crf::new(&mut store, &mut rng, "crf", 4);
        let emis = init::uniform(&mut rng, 5, 4, 1.0);
        let m = crf.marginals(&store, &emis);
        for t in 0..5 {
            let sum: f32 = m.row(t).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {t} sums to {sum}");
            assert!(m.row(t).iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn viterbi_score_normalizes_to_probability() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        let crf = Crf::new(&mut store, &mut rng, "crf", 3);
        let emis = init::uniform(&mut rng, 4, 3, 1.0);
        let (_, score) = crf.viterbi(&store, &emis, None);
        let log_z = crf.log_partition(&store, &emis);
        let logp = score - log_z;
        assert!(logp <= 0.0, "best path log-probability must be <= 0, got {logp}");
        assert!(logp > -20.0);
    }
}
