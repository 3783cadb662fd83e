use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A frequency-built vocabulary with reserved `<pad>` (index 0) and `<unk>`
/// (index 1) entries. Used for words, characters and BPE pieces alike.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Vocab {
    items: Vec<String>,
    index: HashMap<String, usize>,
}

/// Reserved padding index.
pub const PAD: usize = 0;
/// Reserved unknown-item index.
pub const UNK: usize = 1;

impl Vocab {
    /// An empty vocabulary containing only the reserved entries.
    pub fn new() -> Self {
        let mut v = Vocab { items: Vec::new(), index: HashMap::new() };
        v.add("<pad>");
        v.add("<unk>");
        v
    }

    /// Builds a vocabulary from an iterator of items, keeping those with
    /// `count >= min_count`. Ties and ordering are made deterministic by
    /// sorting on (-count, item).
    pub fn build<I, S>(items: I, min_count: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut counts: HashMap<String, usize> = HashMap::new();
        for it in items {
            *counts.entry(it.as_ref().to_string()).or_insert(0) += 1;
        }
        let mut ranked: Vec<(String, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut v = Vocab::new();
        for (item, count) in ranked {
            if count >= min_count {
                v.add(&item);
            }
        }
        v
    }

    /// Builds a character vocabulary from an iterator of words.
    pub fn build_chars<I, S>(words: I, min_count: usize) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let chars: Vec<String> = words
            .into_iter()
            .flat_map(|w| w.as_ref().chars().map(String::from).collect::<Vec<_>>())
            .collect();
        Vocab::build(chars, min_count)
    }

    /// Inserts an item if absent; returns its index either way.
    pub fn add(&mut self, item: &str) -> usize {
        if let Some(&i) = self.index.get(item) {
            return i;
        }
        self.items.push(item.to_string());
        let i = self.items.len() - 1;
        self.index.insert(item.to_string(), i);
        i
    }

    /// Index of an item, or `None` if out of vocabulary.
    pub fn get(&self, item: &str) -> Option<usize> {
        self.index.get(item).copied()
    }

    /// Index of an item, falling back to `<unk>`.
    pub fn get_or_unk(&self, item: &str) -> usize {
        self.get(item).unwrap_or(UNK)
    }

    /// The item at `index`.
    pub fn item(&self, index: usize) -> &str {
        &self.items[index]
    }

    /// Vocabulary size including reserved entries.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Never true: reserved entries always exist.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Encodes a sequence of items to indices with `<unk>` fallback.
    pub fn encode<S: AsRef<str>>(&self, items: &[S]) -> Vec<usize> {
        items.iter().map(|i| self.get_or_unk(i.as_ref())).collect()
    }

    /// Encodes the characters of one word.
    pub fn encode_chars(&self, word: &str) -> Vec<usize> {
        word.chars().map(|c| self.get_or_unk(&c.to_string())).collect()
    }

    /// Checks that the item → index map inverts the item list: one entry
    /// per item, and `index[items[i]] == i` for every `i`. A vocabulary
    /// built through [`Vocab::add`] always passes; a deserialized one need
    /// not, and an index past the item list would address past the end of
    /// an embedding table.
    pub fn check(&self) -> Result<(), String> {
        if self.index.len() != self.items.len() {
            return Err(format!(
                "{} index entries for {} items",
                self.index.len(),
                self.items.len()
            ));
        }
        for (i, item) in self.items.iter().enumerate() {
            match self.index.get(item) {
                Some(&j) if j == i => {}
                Some(&j) => return Err(format!("item {i} ({item:?}) is indexed as {j}")),
                None => return Err(format!("item {i} ({item:?}) is missing from the index")),
            }
        }
        Ok(())
    }

    /// Fraction of `items` that are out of vocabulary — the OOV rate, a key
    /// covariate in the paper's informal-text discussion (§5.1).
    pub fn oov_rate<S: AsRef<str>>(&self, items: &[S]) -> f64 {
        if items.is_empty() {
            return 0.0;
        }
        let oov = items.iter().filter(|i| self.get(i.as_ref()).is_none()).count();
        oov as f64 / items.len() as f64
    }
}

impl Default for Vocab {
    fn default() -> Self {
        Vocab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_entries() {
        let v = Vocab::new();
        assert_eq!(v.len(), 2);
        assert_eq!(v.item(PAD), "<pad>");
        assert_eq!(v.item(UNK), "<unk>");
    }

    #[test]
    fn build_respects_min_count_and_is_deterministic() {
        let words = ["b", "a", "a", "c", "c", "c", "rare"];
        let v = Vocab::build(words, 2);
        assert_eq!(v.get("c"), Some(2)); // most frequent first
        assert_eq!(v.get("a"), Some(3));
        assert_eq!(v.get("b"), None);
        assert_eq!(v.get("rare"), None);
        assert_eq!(v.get_or_unk("rare"), UNK);
    }

    #[test]
    fn encode_with_unk_fallback() {
        let v = Vocab::build(["x", "x", "y", "y"], 1);
        assert_eq!(
            v.encode(&["x", "zzz", "y"]),
            vec![v.get("x").unwrap(), UNK, v.get("y").unwrap()]
        );
    }

    #[test]
    fn char_vocab_and_encoding() {
        let v = Vocab::build_chars(["ab", "ba"], 1);
        let enc = v.encode_chars("abq");
        assert_eq!(enc.len(), 3);
        assert_eq!(enc[2], UNK);
        assert_ne!(enc[0], enc[1]);
    }

    #[test]
    fn oov_rate_counts_misses() {
        let v = Vocab::build(["a", "b"], 1);
        assert!((v.oov_rate(&["a", "zz", "b", "qq"]) - 0.5).abs() < 1e-12);
        assert_eq!(v.oov_rate::<&str>(&[]), 0.0);
    }

    #[test]
    fn check_rejects_an_index_that_disagrees_with_the_items() {
        let v = Vocab::build(["a", "b", "b"], 1);
        assert!(v.check().is_ok());
        let mut moved = v.clone();
        moved.index.insert("a".into(), 93);
        assert!(moved.check().unwrap_err().contains("indexed as 93"));
        let mut missing = v.clone();
        missing.index.remove("a");
        assert!(missing.check().is_err());
        let mut extra = v;
        extra.index.insert("zz".into(), 2);
        assert!(extra.check().is_err());
    }

    #[test]
    fn add_is_idempotent() {
        let mut v = Vocab::new();
        let i = v.add("tok");
        assert_eq!(v.add("tok"), i);
        assert_eq!(v.len(), 3);
    }
}
