//! Property tests for the JSON reader, which parses untrusted request
//! bodies: every string survives a round trip through the printer — and
//! through the all-ASCII `\u` form other JSON writers emit — and no input
//! makes it panic.

use proptest::prelude::*;
use serde_json::Value;
use std::fmt::Write as _;

/// One char, weighted towards the ones a JSON string must escape or
/// encode in several bytes: quotes, backslashes, controls, and chars from
/// the BMP and the supplementary planes.
fn any_char() -> impl Strategy<Value = char> {
    (0u32..5, 0u32..0x11_0000).prop_map(|(kind, x)| {
        const SPECIAL: [char; 8] = ['"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}'];
        let code = match kind {
            0 => SPECIAL[x as usize % SPECIAL.len()] as u32,
            1 => x % 0x80,
            2 => x % 0x1_0000,
            3 => 0x1_0000 + x % 0x10_0000,
            _ => x,
        };
        // Surrogate code points are not chars.
        char::from_u32(code).unwrap_or('\u{FFFD}')
    })
}

fn any_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any_char(), 0..48).prop_map(|chars| chars.into_iter().collect())
}

/// `s` as a JSON string in pure ASCII: every other char as `\u` escapes,
/// non-BMP ones as a UTF-16 surrogate pair — what Python's `json.dumps`
/// writes by default.
fn ascii_json(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='~' => out.push(c),
            _ => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
    out.push('"');
    out
}

/// Input text built from fragments that sit near the parser's branches —
/// structure, escapes, surrogate halves, literals, numbers — mixed with
/// arbitrary printable ASCII.
fn json_like_text() -> impl Strategy<Value = String> {
    const FRAGMENTS: [&str; 24] = [
        "{", "}", "[", "]", "\"", "\\", ":", ",", " ", "\\u", "\\ud83d", "\\ude00", "\\u00e9",
        "d8", "0041", "-", "1", "0.5e", "+", "null", "tru", "é", "😀", "\n",
    ];
    prop::collection::vec((0usize..FRAGMENTS.len() + 8, 0x20u8..0x7f), 0..40).prop_map(|picks| {
        let mut text = String::new();
        for (i, printable) in picks {
            match FRAGMENTS.get(i) {
                Some(fragment) => text.push_str(fragment),
                None => text.push(char::from(printable)),
            }
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip_through_text(s in any_string()) {
        let printed = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(serde_json::from_str::<String>(&printed).unwrap(), s);
        prop_assert_eq!(serde_json::from_str::<String>(&ascii_json(&s)).unwrap(), s);
    }

    #[test]
    fn arbitrary_text_parses_or_errors_without_panicking(text in json_like_text()) {
        if let Err(e) = serde_json::from_str::<Value>(&text) {
            prop_assert!(!e.message().is_empty());
        }
    }
}
