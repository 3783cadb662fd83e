//! Bidirectional recursive network over phrase structure (paper §3.3.3,
//! Fig. 8; Li et al. 2017).
//!
//! The survey's point is that entities align with linguistic constituents,
//! so composing representations along a *tree* rather than the token
//! sequence is a viable context encoder. Lacking a constituency parser, we
//! build the tree with a deterministic rule chunker over the POS-lite tags
//! (DESIGN.md substitution: the encoder only needs a topology correlated
//! with phrase structure). The bottom-up pass composes each subtree's
//! semantics; the top-down pass propagates the enclosing structure back to
//! the leaves; a token is classified from both (Fig. 8's two directions).

use ner_tensor::fused::Activation;
use ner_tensor::nn::{Embedding, Linear};
use ner_tensor::optim::fit_per_example;
use ner_tensor::{BatchedExec, Exec, ParamStore, Tape, Var};
use ner_text::pos::{tag_sentence, PosTag};
use ner_text::{EntitySpan, Sentence, TagScheme, TagSet, Vocab};
use rand::Rng;

/// A binary tree over token indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tree {
    /// A single token.
    Leaf(usize),
    /// An internal node with two children.
    Node(Box<Tree>, Box<Tree>),
}

impl Tree {
    /// Number of leaves.
    pub fn len(&self) -> usize {
        match self {
            Tree::Leaf(_) => 1,
            Tree::Node(l, r) => l.len() + r.len(),
        }
    }

    /// Trees are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Depth of the tree (leaf = 1).
    pub fn depth(&self) -> usize {
        match self {
            Tree::Leaf(_) => 1,
            Tree::Node(l, r) => 1 + l.depth().max(r.depth()),
        }
    }
}

fn right_branching(indices: &[usize]) -> Tree {
    match indices {
        [] => unreachable!("chunks are non-empty"),
        [i] => Tree::Leaf(*i),
        [i, rest @ ..] => Tree::Node(Box::new(Tree::Leaf(*i)), Box::new(right_branching(rest))),
    }
}

fn chunk_class(tag: PosTag) -> u8 {
    match tag {
        PosTag::Det | PosTag::Adj | PosTag::Noun | PosTag::PropN | PosTag::Num => 0, // noun group
        PosTag::Verb | PosTag::Adv => 1,                                             // verb group
        PosTag::Adp | PosTag::Conj | PosTag::Pron => 2,                              // function
        PosTag::Punct | PosTag::Other => 3,
    }
}

/// Builds a binarized phrase tree: tokens are grouped into contiguous
/// POS-class chunks (noun groups, verb groups, …), each chunk becomes a
/// right-branching subtree, and chunks combine right-branching at the top.
pub fn chunk_tree(tokens: &[&str]) -> Tree {
    assert!(!tokens.is_empty(), "cannot build a tree over no tokens");
    let tags = tag_sentence(tokens);
    let mut chunks: Vec<Vec<usize>> = Vec::new();
    for (i, tag) in tags.iter().enumerate() {
        let class = chunk_class(*tag);
        match chunks.last_mut() {
            Some(chunk) if chunk_class(tags[*chunk.last().expect("non-empty")]) == class => {
                chunk.push(i)
            }
            _ => chunks.push(vec![i]),
        }
    }
    let subtrees: Vec<Tree> = chunks.iter().map(|c| right_branching(c)).collect();
    subtrees
        .into_iter()
        .rev()
        .reduce(|right, left| Tree::Node(Box::new(left), Box::new(right)))
        .expect("at least one chunk")
}

/// A recursive-network NER model (softmax decoded, as in Table 3 row \[97\]).
pub struct RecursiveNer {
    /// Trainable parameters.
    pub store: ParamStore,
    /// Tag inventory (IO scheme keeps per-token classification simple).
    pub tag_set: TagSet,
    vocab: Vocab,
    emb: Embedding,
    compose_up: Linear,
    compose_down: Linear,
    out: Linear,
    dim: usize,
}

impl RecursiveNer {
    /// Builds the model over the given training vocabulary and entity types.
    pub fn new(vocab: Vocab, entity_types: &[String], dim: usize, rng: &mut impl Rng) -> Self {
        let mut store = ParamStore::new();
        let emb = Embedding::new(&mut store, rng, "rec.emb", vocab.len(), dim);
        let compose_up = Linear::new(&mut store, rng, "rec.up", 2 * dim, dim);
        let compose_down = Linear::new(&mut store, rng, "rec.down", 2 * dim, dim);
        let tag_set = TagSet::new(TagScheme::Io, entity_types);
        let out = Linear::new(&mut store, rng, "rec.out", 2 * dim, tag_set.len());
        RecursiveNer { store, tag_set, vocab, emb, compose_up, compose_down, out, dim }
    }

    /// Top-down pass: distributes the enclosing-structure state to leaves.
    fn down<E: Exec>(
        &self,
        ex: &mut E,
        tree: &Tree,
        parent_down: E::V,
        up_states: &UpStates<E::V>,
        acc: &mut Vec<(usize, E::V)>,
    ) {
        match tree {
            Tree::Leaf(i) => acc.push((*i, parent_down)),
            Tree::Node(l, r) => {
                // Each child's down state combines the parent's down state
                // with the *sibling's* bottom-up state (the structure that
                // contains the child but not the child itself).
                let ul = up_states.of(l);
                let ur = up_states.of(r);
                let cat_l = ex.concat_cols(&[parent_down, ur]);
                let lin_l = self.compose_down.forward(ex, &self.store, cat_l);
                let down_l = ex.activation(lin_l, Activation::Tanh);
                let cat_r = ex.concat_cols(&[parent_down, ul]);
                let lin_r = self.compose_down.forward(ex, &self.store, cat_r);
                let down_r = ex.activation(lin_r, Activation::Tanh);
                self.down(ex, l, down_l, up_states, acc);
                self.down(ex, r, down_r, up_states, acc);
            }
        }
    }

    fn logits<E: Exec>(&self, ex: &mut E, tokens: &[String]) -> E::V {
        let ids: Vec<usize> =
            tokens.iter().map(|t| self.vocab.get_or_unk(&t.to_lowercase())).collect();
        let leaves = self.emb.lookup(ex, &self.store, &ids);
        let tree = chunk_tree(&tokens.iter().map(String::as_str).collect::<Vec<_>>());

        let mut up_acc = Vec::new();
        let mut ups = UpStates { map: Default::default() };
        let root_up = self.up_memo(ex, &tree, leaves, &mut up_acc, &mut ups);
        let _ = root_up;
        let root_down = ex.constant(ner_tensor::Tensor::zeros(1, self.dim));
        let mut down_acc = Vec::new();
        self.down(ex, &tree, root_down, &ups, &mut down_acc);

        up_acc.sort_by_key(|(i, _)| *i);
        down_acc.sort_by_key(|(i, _)| *i);
        let rows: Vec<E::V> = up_acc
            .iter()
            .zip(&down_acc)
            .map(|((_, u), (_, d))| ex.concat_cols(&[*u, *d]))
            .collect();
        let reps = ex.concat_rows(&rows);
        self.out.forward(ex, &self.store, reps)
    }

    /// Bottom-up with memoized subtree states (needed by the top-down pass).
    fn up_memo<E: Exec>(
        &self,
        ex: &mut E,
        tree: &Tree,
        leaves: E::V,
        acc: &mut Vec<(usize, E::V)>,
        memo: &mut UpStates<E::V>,
    ) -> E::V {
        let state = match tree {
            Tree::Leaf(i) => {
                let h = ex.row(leaves, *i);
                acc.push((*i, h));
                h
            }
            Tree::Node(l, r) => {
                let hl = self.up_memo(ex, l, leaves, acc, memo);
                let hr = self.up_memo(ex, r, leaves, acc, memo);
                let cat = ex.concat_cols(&[hl, hr]);
                let lin = self.compose_up.forward(ex, &self.store, cat);
                ex.activation(lin, Activation::Tanh)
            }
        };
        memo.insert(tree, state);
        state
    }

    /// Summed cross-entropy against IO tags.
    pub fn loss(&self, tape: &mut Tape, tokens: &[String], tag_ids: &[usize]) -> Var {
        let logits = self.logits(tape, tokens);
        tape.cross_entropy_sum(logits, tag_ids)
    }

    /// Predicts entity spans for a sentence, from a [`BatchedExec`]
    /// forward of one sentence (no tape).
    pub fn predict(&self, tokens: &[String]) -> Vec<EntitySpan> {
        let mut bx = BatchedExec::new(&self.store, &[tokens.len()]);
        let logits = self.logits(&mut bx, tokens);
        let v = bx.value(logits);
        let ids: Vec<usize> = (0..v.rows()).map(|r| v.argmax_row(r)).collect();
        let tags = self.tag_set.decode(&ids);
        TagScheme::Io.tags_to_spans(&tags)
    }

    /// Trains on (sentence, IO-tag) pairs for `epochs`; returns mean losses.
    pub fn fit(&mut self, data: &[Sentence], epochs: usize, lr: f32) -> Vec<f64> {
        let prepared: Vec<(Vec<String>, Vec<usize>)> = data
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let tokens: Vec<String> = s.tokens.iter().map(|t| t.text.clone()).collect();
                let tags = self.tag_set.encode(&s.tags(TagScheme::Io));
                (tokens, tags)
            })
            .collect();
        let fit = fit_per_example(
            self,
            |m| &mut m.store,
            &prepared,
            epochs,
            lr,
            |m, tape, (tokens, tags)| Some((m.loss(tape, tokens, tags), tags.len())),
        );
        fit.epochs.iter().map(|&(sum, _)| sum / prepared.len().max(1) as f64).collect()
    }
}

/// Memo of bottom-up states keyed by subtree identity (pointer address is
/// unstable across recursion, so key on the leaf range instead — unique in
/// any tree over distinct indices).
struct UpStates<V> {
    map: std::collections::HashMap<(usize, usize), V>,
}

impl<V: Copy> UpStates<V> {
    fn span(tree: &Tree) -> (usize, usize) {
        match tree {
            Tree::Leaf(i) => (*i, *i + 1),
            Tree::Node(l, r) => (Self::span(l).0, Self::span(r).1),
        }
    }

    fn insert(&mut self, tree: &Tree, v: V) {
        self.map.insert(Self::span(tree), v);
    }

    fn of(&self, tree: &Tree) -> V {
        self.map[&Self::span(tree)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ner_corpus::{GeneratorConfig, NewsGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chunk_tree_covers_all_tokens_in_order() {
        let toks = ["the", "old", "man", "quickly", "visited", "Brooklyn", "."];
        let tree = chunk_tree(&toks);
        assert_eq!(tree.len(), toks.len());
        // In-order traversal yields 0..n.
        fn leaves(t: &Tree, out: &mut Vec<usize>) {
            match t {
                Tree::Leaf(i) => out.push(*i),
                Tree::Node(l, r) => {
                    leaves(l, out);
                    leaves(r, out);
                }
            }
        }
        let mut order = Vec::new();
        leaves(&tree, &mut order);
        assert_eq!(order, (0..toks.len()).collect::<Vec<_>>());
        assert!(tree.depth() >= 3, "chunking should give non-trivial structure");
    }

    #[test]
    fn single_token_tree() {
        assert_eq!(chunk_tree(&["Hello"]), Tree::Leaf(0));
    }

    #[test]
    fn recursive_model_learns_synthetic_ner() {
        let gen = NewsGenerator::new(GeneratorConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let train = gen.dataset(&mut rng, 80);
        let types = train.entity_types();
        let mut model = RecursiveNer::new(train.word_vocab(1), &types, 24, &mut rng);
        let losses = model.fit(&train.sentences, 5, 0.01);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "recursive training should reduce loss: {losses:?}"
        );
        // Prediction produces in-bounds spans, and the packed forward
        // reproduces the tape's decode.
        for sentence in &train.sentences[..10] {
            let tokens: Vec<String> = sentence.tokens.iter().map(|t| t.text.clone()).collect();
            let spans = model.predict(&tokens);
            assert!(spans.iter().all(|s| s.end <= tokens.len()));
            let mut tape = Tape::new();
            let logits = model.logits(&mut tape, &tokens);
            let v = tape.value(logits);
            let ids: Vec<usize> = (0..v.rows()).map(|r| v.argmax_row(r)).collect();
            assert_eq!(spans, TagScheme::Io.tags_to_spans(&model.tag_set.decode(&ids)));
        }
    }
}
