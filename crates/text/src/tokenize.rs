//! Rule-based tokenization of raw strings.
//!
//! Whitespace splitting plus punctuation peeling, adequate for the
//! news-register and social-media text this workspace generates. The
//! tokenizer deliberately keeps `@mentions`, `#hashtags` and `URLs` intact,
//! since those are entity-bearing units in user-generated content (§5.1).

/// Splits raw text into tokens.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for chunk in text.split_whitespace() {
        split_chunk(chunk, &mut out);
    }
    out
}

fn is_protected(chunk: &str) -> bool {
    chunk.starts_with('@')
        || chunk.starts_with('#')
        || chunk.starts_with("http://")
        || chunk.starts_with("https://")
}

fn split_chunk(chunk: &str, out: &mut Vec<String>) {
    if chunk.is_empty() {
        return;
    }
    if is_protected(chunk) {
        // Peel only trailing sentence punctuation from protected tokens.
        let trimmed = chunk.trim_end_matches(['.', ',', '!', '?']);
        if trimmed.is_empty() {
            out.push(chunk.to_string());
            return;
        }
        out.push(trimmed.to_string());
        for c in chunk[trimmed.len()..].chars() {
            out.push(c.to_string());
        }
        return;
    }

    // Peel leading punctuation, keeping at least one char. `rest` holds
    // more than one char exactly when it is longer than its first char, a
    // constant-time test, so a long punctuation run peels in linear time.
    let mut rest = chunk;
    while let Some(c) = rest.chars().next() {
        if c.is_ascii_punctuation() && rest.len() > c.len_utf8() && c != '$' {
            out.push(c.to_string());
            rest = &rest[c.len_utf8()..];
        } else {
            break;
        }
    }
    // Peel trailing punctuation (but keep interior ones: "U.S." stays whole
    // apart from its final period handling below, "don't" stays whole).
    let mut tail: Vec<char> = Vec::new();
    while let Some(c) = rest.chars().last() {
        let peel = match c {
            ',' | '!' | '?' | ';' | ':' | ')' | ']' | '}' | '"' | '\'' | '%' => true,
            '.' => {
                // Keep the period of abbreviation-like tokens ("U.S.").
                let body = &rest[..rest.len() - 1];
                !body.contains('.')
            }
            _ => false,
        };
        if peel && rest.len() > c.len_utf8() {
            tail.push(c);
            rest = &rest[..rest.len() - c.len_utf8()];
        } else {
            break;
        }
    }
    if !rest.is_empty() {
        out.push(rest.to_string());
    }
    for c in tail.into_iter().rev() {
        out.push(c.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The tokenizer as it was before peeling became linear: it counts the
    /// remaining chars once per peeled punctuation char, which is quadratic
    /// in the length of a punctuation run. Kept verbatim as the oracle.
    fn oracle_tokenize(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for chunk in text.split_whitespace() {
            oracle_split_chunk(chunk, &mut out);
        }
        out
    }

    fn oracle_split_chunk(chunk: &str, out: &mut Vec<String>) {
        if chunk.is_empty() {
            return;
        }
        if is_protected(chunk) {
            // Peel only trailing sentence punctuation from protected tokens.
            let trimmed = chunk.trim_end_matches(['.', ',', '!', '?']);
            if trimmed.is_empty() {
                out.push(chunk.to_string());
                return;
            }
            out.push(trimmed.to_string());
            for c in chunk[trimmed.len()..].chars() {
                out.push(c.to_string());
            }
            return;
        }

        // Peel leading punctuation.
        let mut rest = chunk;
        while let Some(c) = rest.chars().next() {
            if c.is_ascii_punctuation() && rest.chars().count() > 1 && c != '$' {
                out.push(c.to_string());
                rest = &rest[c.len_utf8()..];
            } else {
                break;
            }
        }
        // Peel trailing punctuation (but keep interior ones: "U.S." stays whole
        // apart from its final period handling below, "don't" stays whole).
        let mut tail: Vec<char> = Vec::new();
        while let Some(c) = rest.chars().last() {
            let peel = match c {
                ',' | '!' | '?' | ';' | ':' | ')' | ']' | '}' | '"' | '\'' | '%' => true,
                '.' => {
                    // Keep the period of abbreviation-like tokens ("U.S.").
                    let body = &rest[..rest.len() - 1];
                    !body.contains('.')
                }
                _ => false,
            };
            if peel && rest.chars().count() > 1 {
                tail.push(c);
                rest = &rest[..rest.len() - c.len_utf8()];
            } else {
                break;
            }
        }
        if !rest.is_empty() {
            out.push(rest.to_string());
        }
        for c in tail.into_iter().rev() {
            out.push(c.to_string());
        }
    }

    /// Fragments the property test glues together: protected-token
    /// prefixes, every peelable punctuation char and longer runs of them,
    /// abbreviations, non-ASCII letters and symbols, and Unicode whitespace.
    const FRAGMENTS: &[&str] = &[
        "@", "#", "http://", "https://", "$", "(", ")", "[", "]", "{", "}", ".", ",", "!", "?",
        ";", ":", "\"", "'", "%", "-", "(((", ")))", "...", "?!", "a", "Zq", "3", "U.S.", "don't",
        "é", "日本", "ß", "—", "🙂", " ", "  ", "\t", "\n", "\u{a0}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn tokenize_matches_the_oracle_on_arbitrary_text(
            text in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40)
                .prop_map(|ix| ix.into_iter().map(|i| FRAGMENTS[i]).collect::<String>())
        ) {
            prop_assert_eq!(tokenize(&text), oracle_tokenize(&text), "input {:?}", text);
        }
    }

    /// A ~1 MiB punctuation run (the largest request body serving accepts)
    /// peels into one token per char, in time linear in the run length;
    /// the oracle's time grows with its square.
    #[test]
    fn megabyte_punctuation_runs_peel_per_char() {
        const N: usize = 1 << 20;
        for c in ['(', ')'] {
            let text: String = std::iter::repeat_n(c, N).collect();
            let tokens = tokenize(&text);
            assert_eq!(tokens.len(), N, "{c:?} run");
            assert!(tokens.iter().all(|t| t.len() == 1 && t.starts_with(c)), "{c:?} run");
        }
    }

    #[test]
    fn simple_sentence() {
        assert_eq!(
            tokenize("Michael Jordan was born in Brooklyn, New York."),
            vec!["Michael", "Jordan", "was", "born", "in", "Brooklyn", ",", "New", "York", "."]
        );
    }

    #[test]
    fn abbreviations_keep_periods() {
        assert_eq!(tokenize("He works at I.B.M. now"), vec!["He", "works", "at", "I.B.M.", "now"]);
    }

    #[test]
    fn social_tokens_protected() {
        assert_eq!(
            tokenize("@jordan23 landed in #Brooklyn!"),
            vec!["@jordan23", "landed", "in", "#Brooklyn", "!"]
        );
        assert_eq!(tokenize("see https://x.io/a."), vec!["see", "https://x.io/a", "."]);
    }

    #[test]
    fn quotes_and_brackets_peel() {
        assert_eq!(tokenize("(\"hello\")"), vec!["(", "\"", "hello", "\"", ")"]);
    }

    #[test]
    fn currency_and_percent() {
        assert_eq!(tokenize("$5 rose 3%"), vec!["$5", "rose", "3", "%"]);
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n ").is_empty());
    }
}
