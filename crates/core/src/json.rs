//! The workspace's one JSON implementation: a [`Value`] tree with an
//! emitter and a parser, so every lab document (analysis reports and
//! SARIF, fuzz stats, `repro --json` tables, `BENCH_<n>.json` records)
//! is written and read the same way without external crates (the
//! workspace is fully offline).
//!
//! Strings are [`Cow`]s: an emitter can borrow every name straight out
//! of the structure it renders (no per-field `clone()` churn), while the
//! parser returns an owned `Value<'static>`.

use std::borrow::Cow;
use std::fmt;

/// A JSON value. The lifetime is the borrow of whatever the document
/// was built from; parsed documents are `Value<'static>`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (emitted without a trailing `.0` when integral, and as
    /// `null` when not finite, which JSON cannot spell).
    Num(f64),
    /// An unsigned integer, emitted exactly: seeds and counters above
    /// 2^53 would round as a `Num`. The parser reads every number back
    /// as a `Num`.
    UInt(u64),
    /// A string, borrowed or owned.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object; insertion order is preserved.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

impl<'a> Value<'a> {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k.as_ref() == key)
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Convenience: builds `Value::Str`, borrowing when it can.
pub fn s<'a>(v: impl Into<Cow<'a, str>>) -> Value<'a> {
    Value::Str(v.into())
}

/// Convenience: builds `Value::Num` from anything numeric.
pub fn n<'a>(v: impl Into<f64>) -> Value<'a> {
    Value::Num(v.into())
}

/// Convenience: builds an exact `Value::UInt`.
pub fn u<'a>(v: u64) -> Value<'a> {
    Value::UInt(v)
}

/// Convenience: builds `Value::Obj` from `(key, value)` pairs, keeping
/// their order.
pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value<'a>)>) -> Value<'a> {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn escape(out: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(out, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(out, "\\\"")?,
            '\\' => write!(out, "\\\\")?,
            '\n' => write!(out, "\\n")?,
            '\r' => write!(out, "\\r")?,
            '\t' => write!(out, "\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    write!(out, "\"")
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(x) if !x.is_finite() => write!(f, "null"),
            Value::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Value::UInt(v) => write!(f, "{v}"),
            Value::Str(s) => escape(f, s),
            Value::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    escape(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// Why a document failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// What the parser expected there.
    pub expected: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: expected {}",
            self.at, self.expected
        )
    }
}

impl std::error::Error for ParseError {}

/// How deeply arrays and objects may nest. The parser recurses once per
/// level, so the limit keeps hostile input (`[[[[…`) off the end of the
/// stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document into an owned tree.
///
/// # Errors
///
/// Returns a [`ParseError`] locating the first malformed construct, or
/// the first array or object nested deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Value<'static>, ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError {
            at: pos,
            expected: "end of document",
        });
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8, what: &'static str) -> Result<(), ParseError> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(ParseError {
            at: *pos,
            expected: what,
        })
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value<'static>, ParseError> {
    skip_ws(b, pos);
    if depth == MAX_DEPTH && matches!(b.get(*pos), Some(b'{' | b'[')) {
        return Err(ParseError {
            at: *pos,
            expected: "shallower nesting",
        });
    }
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(Cow::Owned(parse_str(b, pos)?))),
        Some(b't') => parse_lit(b, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, b"false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, b"null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        _ => Err(ParseError {
            at: *pos,
            expected: "a value",
        }),
    }
}

fn parse_lit(
    b: &[u8],
    pos: &mut usize,
    lit: &'static [u8],
    v: Value<'static>,
) -> Result<Value<'static>, ParseError> {
    if b.len() >= *pos + lit.len() && &b[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(ParseError {
            at: *pos,
            expected: "a literal",
        })
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value<'static>, ParseError> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or(ParseError {
            at: start,
            expected: "a number",
        })
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    expect(b, pos, b'"', "a string")?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => {
                return Err(ParseError {
                    at: *pos,
                    expected: "a closing quote",
                })
            }
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or(ParseError {
                                at: *pos,
                                expected: "a \\uXXXX escape",
                            })?;
                        out.push(hex);
                        *pos += 4;
                    }
                    _ => {
                        return Err(ParseError {
                            at: *pos,
                            expected: "an escape character",
                        })
                    }
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unmodified.
                let len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let chunk = b.get(*pos..*pos + len).ok_or(ParseError {
                    at: *pos,
                    expected: "a utf-8 sequence",
                })?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| ParseError {
                    at: *pos,
                    expected: "valid utf-8",
                })?);
                *pos += len;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value<'static>, ParseError> {
    expect(b, pos, b'[', "an array")?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => {
                return Err(ParseError {
                    at: *pos,
                    expected: "',' or ']'",
                })
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value<'static>, ParseError> {
    expect(b, pos, b'{', "an object")?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':', "':'")?;
        let value = parse_value(b, pos, depth)?;
        fields.push((Cow::Owned(key), value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => {
                return Err(ParseError {
                    at: *pos,
                    expected: "',' or '}'",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested() {
        let v = Value::Obj(vec![
            ("name".into(), s("parse_response")),
            ("count".into(), n(3u32)),
            ("clean".into(), Value::Bool(false)),
            (
                "items".into(),
                Value::Arr(vec![n(1u32), s("a\"b\\c\n"), Value::Null]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn strings_can_borrow_their_source() {
        let owner = String::from("parse_response");
        let v = s(owner.as_str());
        assert!(matches!(v, Value::Str(Cow::Borrowed(_))));
        assert_eq!(v.as_str(), Some("parse_response"));
    }

    #[test]
    fn integers_emitted_without_fraction() {
        assert_eq!(n(1024u32).to_string(), "1024");
        assert_eq!(n(0.5f64).to_string(), "0.5");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(err.at, MAX_DEPTH);
        let err = parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.expected, "shallower nesting");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        let v = obj([
            ("nan", n(f64::NAN)),
            ("inf", n(f64::INFINITY)),
            ("ninf", n(f64::NEG_INFINITY)),
        ]);
        let text = v.to_string();
        assert_eq!(text, r#"{"nan":null,"inf":null,"ninf":null}"#);
        let back = parse(&text).unwrap();
        assert_eq!(back.get("nan"), Some(&Value::Null));
        assert_eq!(back.get("ninf"), Some(&Value::Null));
    }

    #[test]
    fn uints_emit_exactly_and_read_back_as_numbers() {
        assert_eq!(u(u64::MAX).to_string(), "18446744073709551615");
        let back = parse(&obj([("seed", u(0x5EED))]).to_string()).unwrap();
        assert_eq!(back.get("seed").and_then(Value::as_num), Some(24301.0));
    }
}
