//! A minimal stand-in for [`serde_json`](https://crates.io/crates/serde_json):
//! a strict JSON reader and a compact/pretty printer over the in-tree `serde`
//! stub's [`Value`] tree. Provides `to_string`, `to_string_pretty`, and
//! `from_str` — the full surface this workspace uses.

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
    let bytes = s.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
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
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error("unexpected end of input".to_string())),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => {
            Err(Error(format!("nesting deeper than {MAX_DEPTH} at byte {pos}", pos = *pos)))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
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

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if matches!(bytes.get(*pos), Some(b'-')) {
        *pos += 1;
    }
    while matches!(bytes.get(*pos), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| Error(format!("invalid number {text:?} at byte {start}")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error("unterminated string".to_string())),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error("truncated \\u escape".to_string()))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error("non-ASCII \\u escape".to_string()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error(format!("bad \\u escape {hex:?}")))?;
                        // Surrogate pairs are not produced by our printer;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(Error(format!("bad escape {other:?}"))),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (multi-byte aware).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| Error("invalid UTF-8 in string".to_string()))?;
                let c = rest.chars().next().expect("non-empty by match arm");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

/// Parses an array whose elements sit inside `depth` enclosing containers.
fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b']')) {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
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
fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
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
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if !matches!(bytes.get(*pos), Some(b':')) {
            return Err(Error(format!("expected ':' at byte {pos}", pos = *pos)));
        }
        *pos += 1;
        fields.push((key, parse_value(bytes, pos, depth)?));
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
