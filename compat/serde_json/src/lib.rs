//! A minimal stand-in for [`serde_json`](https://crates.io/crates/serde_json):
//! a strict JSON reader and a compact/pretty printer over the in-tree `serde`
//! stub's [`Value`] tree. Provides `to_string`, `to_string_pretty`, and
//! `from_str` — the full surface this workspace uses.
//!
//! The reader runs in time linear in its input: each run of unescaped
//! string text is copied from the `&str` being parsed in one step, so a
//! 1 MiB request body or a megabyte checkpoint parses in milliseconds.
//!
//! A `\u` escape takes exactly four hex digits. A high surrogate escape
//! followed directly by a low surrogate escape (`"\ud83d\ude00"`, as
//! Python's `json.dumps` writes non-BMP characters) decodes to the one
//! character they encode; a lone surrogate decodes to U+FFFD. Every parse
//! error except running out of input names its byte offset (`at byte N`).

use serde::{DeError, Deserialize, Serialize};
use std::fmt::Write as _;

pub use serde::Value;

/// A serialization or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// The error message.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Serializes a value as compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    print_value(&value.serialize(), &mut out, None, 0);
    Ok(out)
}

/// Serializes a value as 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    print_value(&value.serialize(), &mut out, Some(2), 0);
    Ok(out)
}

/// Parses JSON text into any `Deserialize` type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value_strict(s)?;
    Ok(T::deserialize(&value)?)
}

/// Parses JSON text into a [`Value`] tree, requiring the full input to be
/// consumed (modulo trailing whitespace).
fn parse_value_strict(s: &str) -> Result<Value, Error> {
    let mut pos = 0;
    let value = parse_value(s, &mut pos, 0)?;
    skip_ws(s.as_bytes(), &mut pos);
    if pos != s.len() {
        return Err(Error(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn print_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => print_number(*n, out),
        Value::Str(s) => print_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                print_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                print_string(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                print_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn print_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn print_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting the parser accepts. Parsing recurses once
/// per level and request bodies are untrusted, so past this depth it
/// returns an error instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one value that sits inside `depth` enclosing arrays/objects.
fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error("unexpected end of input".to_string())),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(Error(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos)))
        }
        Some(b'{') => parse_object(s, pos, depth + 1),
        Some(b'[') => parse_array(s, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(s, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(s, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(Error(format!("invalid literal at byte {pos}", pos = *pos)))
    }
}

fn parse_number(s: &str, pos: &mut usize) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = &s[start..*pos];
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| Error(format!("invalid number {text:?} at byte {start}")))
}

/// Parses the string whose opening quote is at `pos`. Unescaped text is
/// copied a run at a time: a run ends only at `"` or `\`, both ASCII, so
/// it ends on a char boundary of `s` and is valid UTF-8 by type.
fn parse_string(s: &str, pos: &mut usize) -> Result<String, Error> {
    let bytes = s.as_bytes();
    let open = *pos;
    debug_assert_eq!(bytes[open], b'"');
    let mut out = String::new();
    let mut run = open + 1;
    loop {
        let esc = bytes[run..]
            .iter()
            .position(|&b| matches!(b, b'"' | b'\\'))
            .map(|n| run + n)
            .ok_or_else(|| Error(format!("unterminated string starting at byte {open}")))?;
        out.push_str(&s[run..esc]);
        let (c, len) = match bytes[esc..] {
            [b'"', ..] => {
                *pos = esc + 1;
                return Ok(out);
            }
            [_, b'"', ..] => ('"', 2),
            [_, b'\\', ..] => ('\\', 2),
            [_, b'/', ..] => ('/', 2),
            [_, b'n', ..] => ('\n', 2),
            [_, b'r', ..] => ('\r', 2),
            [_, b't', ..] => ('\t', 2),
            [_, b'b', ..] => ('\u{0008}', 2),
            [_, b'f', ..] => ('\u{000C}', 2),
            [_, b'u', ..] => unicode_escape(bytes, esc)?,
            _ => return Err(Error(format!("bad escape at byte {esc}"))),
        };
        out.push(c);
        run = esc + len;
    }
}

/// Decodes the `\u` escape whose backslash is at `esc` into a char and the
/// escape's length in bytes. A high surrogate followed directly by a `\u`
/// low surrogate is one non-BMP char; any other surrogate is U+FFFD.
fn unicode_escape(bytes: &[u8], esc: usize) -> Result<(char, usize), Error> {
    let high = hex4(bytes, esc)?;
    if (0xD800..0xDC00).contains(&high) && bytes[esc + 6..].starts_with(b"\\u") {
        let low = hex4(bytes, esc + 6)?;
        if let Some(Ok(c)) = char::decode_utf16([high, low]).next() {
            return Ok((c, 12));
        }
    }
    Ok((char::from_u32(high.into()).unwrap_or('\u{FFFD}'), 6))
}

/// The value of the exactly four hex digits after the `\u` at `esc`.
fn hex4(bytes: &[u8], esc: usize) -> Result<u16, Error> {
    let digits = bytes
        .get(esc + 2..esc + 6)
        .ok_or_else(|| Error(format!("truncated \\u escape at byte {esc}")))?;
    digits.iter().try_fold(0, |code, &b| {
        let digit = char::from(b).to_digit(16);
        digit
            .map(|d| code << 4 | d as u16)
            .ok_or_else(|| Error(format!("bad \\u escape at byte {esc}")))
    })
}

/// Parses an array whose elements sit inside `depth` enclosing containers.
fn parse_array(s: &str, pos: &mut usize, depth: usize) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(s, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(Error(format!("expected ',' or ']' at byte {pos}", pos = *pos))),
        }
    }
}

/// Parses an object whose values sit inside `depth` enclosing containers.
fn parse_object(s: &str, pos: &mut usize, depth: usize) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'}')) {
        *pos += 1;
        return Ok(Value::Object(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if !matches!(bytes.get(*pos), Some(b'"')) {
            return Err(Error(format!("expected object key at byte {pos}", pos = *pos)));
        }
        let key = parse_string(s, pos)?;
        skip_ws(bytes, pos);
        if !matches!(bytes.get(*pos), Some(b':')) {
            return Err(Error(format!("expected ':' at byte {pos}", pos = *pos)));
        }
        *pos += 1;
        fields.push((key, parse_value(s, pos, depth)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            _ => return Err(Error(format!("expected ',' or '}}' at byte {pos}", pos = *pos))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let v = Value::Object(vec![
            ("name".to_string(), Value::Str("a \"quoted\"\nline".to_string())),
            ("xs".to_string(), Value::Array(vec![Value::Num(1.0), Value::Num(-2.5)])),
            ("flag".to_string(), Value::Bool(true)),
            ("none".to_string(), Value::Null),
            ("unicode".to_string(), Value::Str("naïve — ∞".to_string())),
        ]);
        let compact = to_string(&v).unwrap();
        let parsed: Value = from_str(&compact).unwrap();
        assert_eq!(parsed, v);
        let pretty = to_string_pretty(&v).unwrap();
        let parsed: Value = from_str(&pretty).unwrap();
        assert_eq!(parsed, v);
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_char() {
        assert_eq!(from_str::<String>(r#""\ud83d\ude00""#).unwrap(), "\u{1F600}");
        assert_eq!(from_str::<String>(r#""a\uD834\uDD1Eb""#).unwrap(), "a\u{1D11E}b");
    }

    #[test]
    fn lone_surrogate_escapes_become_replacement_chars() {
        let cases = [
            (r#""\ud83d""#, "\u{FFFD}"),
            (r#""\ude00""#, "\u{FFFD}"),
            (r#""\ud83dx""#, "\u{FFFD}x"),
            (r#""\ud83d\u0041""#, "\u{FFFD}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{FFFD}\u{1F600}"),
            (r#""\ude00\ud83d""#, "\u{FFFD}\u{FFFD}"),
        ];
        for (json, want) in cases {
            assert_eq!(from_str::<String>(json).unwrap(), want, "{json}");
        }
    }

    #[test]
    fn u_escapes_take_exactly_four_hex_digits() {
        assert_eq!(from_str::<String>(r#""\u0041\u00e9\u00E9""#).unwrap(), "Aéé");
        for json in [r#""\u+041""#, r#""\u-041""#, r#""\u41""#, r#""\u004g""#, r#""\u00é""#] {
            let err = from_str::<String>(json).expect_err(json);
            assert!(err.message().ends_with("\\u escape at byte 1"), "{json}: {err}");
        }
    }

    #[test]
    fn string_errors_carry_their_byte_offset() {
        let cases = [
            (r#"["ok", "never closed"#, "unterminated string starting at byte 7"),
            (r#"{"k": "a\qb"}"#, "bad escape at byte 8"),
            (r#"{"k": "a\"#, "bad escape at byte 8"),
            (r#"["\u12"]"#, "bad \\u escape at byte 2"),
            (r#"["\ud83d\uzzzz"]"#, "bad \\u escape at byte 8"),
            (r#"["\u12"#, "truncated \\u escape at byte 2"),
        ];
        for (json, want) in cases {
            assert_eq!(from_str::<Value>(json).expect_err(json).message(), want, "{json}");
        }
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        // Parse time once grew with the square of the string length: this
        // body took tens of seconds. Linear parsing takes milliseconds.
        let text = "aé€😀".repeat((1 << 20) / 10);
        let body = format!("{{\"text\":\"{text}\"}}");
        let started = std::time::Instant::now();
        let parsed: Value = from_str(&body).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.get("text").and_then(Value::as_str), Some(text.as_str()));
        assert!(elapsed < std::time::Duration::from_millis(500), "took {elapsed:?}");
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(to_string(&vec![1usize, 42]).unwrap(), "[1,42]");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for &x in &[0.1f32, -3.25e-7, f32::MAX, f32::MIN_POSITIVE] {
            let s = to_string(&x).unwrap();
            let back: f32 = from_str(&s).unwrap();
            assert_eq!(back, x, "{s}");
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2").is_err());
        assert!(from_str::<Value>("12 34").is_err());
        assert!(from_str::<Value>("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        assert!(from_str::<Value>(&arrays(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&arrays(MAX_DEPTH + 1)).is_err());
        assert!(from_str::<Value>(&objects(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&objects(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn a_megabyte_of_open_brackets_is_an_error_not_a_stack_overflow() {
        // Unbounded recursion would need far more than this small stack;
        // the depth limit turns the hostile body into an ordinary error.
        let body = "[".repeat(1 << 20);
        let result = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(move || from_str::<Value>(&body).map(|_| ()))
            .expect("spawn parser thread")
            .join()
            .expect("parser thread must not overflow its stack");
        let err = result.expect_err("1 MiB of '[' must be rejected");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }
}
