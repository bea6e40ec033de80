//! Minimal one-line JSON objects for the NDJSON service protocol.
//!
//! The protocol only ever exchanges *flat* objects whose values are strings,
//! numbers, booleans or `null`, one object per line.  This module implements
//! exactly that subset — by hand, because the workspace builds offline with
//! no `serde_json` — with a strict parser (malformed or truncated input is a
//! clean `Err`, never a panic) and an escaping writer.
//!
//! The parser scans the line's bytes in place and returns an [`Object`]: a
//! small list of fields whose keys and values borrow from the line.  A
//! string is copied only when it contains escapes, so a typical frame costs
//! one allocation (the field list) to parse.
//!
//! Numbers keep their raw token until a caller asks for a concrete type, so
//! `u64` identifiers survive untouched and `f64` payloads written with
//! Rust's shortest round-trip formatting (`{:?}`) parse back to the exact
//! same bit pattern.  Non-finite floats encode as `null` (JSON has no
//! NaN/Infinity) and decode as `f64::NAN`.

use std::borrow::Cow;

/// One JSON value of the flat-object subset, borrowing from the parsed line.
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token (always a valid `f64` literal).
    Number(&'a str),
    /// A string (escapes already decoded; owned only when it had escapes).
    Str(Cow<'a, str>),
}

impl Value<'_> {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as an exact unsigned integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as an exact `usize` (rejects fractions).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as a float; `null` decodes as `NaN` (the writer's encoding
    /// of non-finite floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(raw) => raw.parse().ok(),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }
}

/// Field-list capacity reserved per object: the longest protocol frame (a
/// `health` response) has 11 fields, so no frame grows the list.
const FIELDS_HINT: usize = 12;

/// One parsed flat object: its fields in input order, borrowing from the
/// line they were parsed from.
#[derive(Debug)]
pub struct Object<'a> {
    fields: Vec<(Cow<'a, str>, Value<'a>)>,
}

impl<'a> Object<'a> {
    /// The value of `key`; when a key repeats, the last occurrence wins.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        self.fields.iter().rev().find(|(name, _)| name == key).map(|(_, value)| value)
    }
}

/// Parses one flat JSON object; trailing non-whitespace is an error.
pub fn parse_object(input: &str) -> Result<Object<'_>, String> {
    let mut parser = Parser { input, pos: 0 };
    let object = parser.object()?;
    parser.skip_ws();
    if parser.pos != input.len() {
        return Err(format!("trailing input after object at offset {}", parser.pos));
    }
    Ok(object)
}

/// A byte cursor over the line.  Every slice it takes starts and ends at an
/// ASCII byte (a quote, a backslash, a delimiter) or at the end of the
/// input, so slices always fall on `char` boundaries.
struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    /// The character starting at byte `at`, for error messages.
    fn char_at(&self, at: usize) -> char {
        self.input.get(at..).and_then(|rest| rest.chars().next()).unwrap_or('\u{FFFD}')
    }

    /// The input from byte `start` up to the cursor.
    fn since(&self, start: usize) -> Result<&'a str, String> {
        self.input
            .get(start..self.pos)
            .ok_or_else(|| format!("cursor off a character boundary at offset {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        let at = self.pos;
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(_) => Err(format!(
                "expected `{}` but found `{}` at offset {at}",
                char::from(want),
                self.char_at(at)
            )),
            None => Err(format!("expected `{}` but input ended", char::from(want))),
        }
    }

    fn object(&mut self) -> Result<Object<'a>, String> {
        self.skip_ws();
        self.expect(b'{')?;
        let mut fields = Vec::with_capacity(FIELDS_HINT);
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Object { fields });
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            let at = self.pos;
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Object { fields }),
                Some(_) => {
                    return Err(format!("expected `,` or `}}` but found `{}`", self.char_at(at)))
                }
                None => return Err("object not closed before input ended".to_string()),
            }
        }
    }

    fn value(&mut self) -> Result<Value<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => {
                Err(format!("unexpected `{}` at offset {}", self.char_at(self.pos), self.pos))
            }
            None => Err("expected a value but input ended".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Value<'a>) -> Result<Value<'a>, String> {
        match self.input.get(self.pos..) {
            Some(rest) if rest.starts_with(word) => {
                self.pos += word.len();
                Ok(value)
            }
            _ => Err(format!("malformed literal (expected `{word}`)")),
        }
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b"+-.eE".contains(&b)) {
            self.pos += 1;
        }
        let raw = self.since(start)?;
        if raw.parse::<f64>().is_err() {
            return Err(format!("malformed number `{raw}`"));
        }
        Ok(Value::Number(raw))
    }

    /// A quoted string: borrowed from the input when it holds no escape,
    /// otherwise decoded into an owned copy.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        // Start of the current run of bytes that need no decoding.
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return Err("string not closed before input ended".to_string()),
                Some(b'"') => {
                    let tail = self.since(run)?;
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(self.since(run)?);
                    self.pos += 1;
                    out.push(self.escape()?);
                    run = self.pos;
                }
                Some(b) if b < 0x20 => {
                    return Err("unescaped control character in string".to_string())
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Decodes one escape; the cursor is just past its backslash.
    fn escape(&mut self) -> Result<char, String> {
        let at = self.pos;
        match self.bump() {
            Some(b'"') => Ok('"'),
            Some(b'\\') => Ok('\\'),
            Some(b'/') => Ok('/'),
            Some(b'b') => Ok('\u{0008}'),
            Some(b'f') => Ok('\u{000C}'),
            Some(b'n') => Ok('\n'),
            Some(b'r') => Ok('\r'),
            Some(b't') => Ok('\t'),
            Some(b'u') => self.unicode_escape(),
            Some(_) => Err(format!("unknown escape `\\{}`", self.char_at(at))),
            None => Err("escape at end of input".to_string()),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .bump()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| "malformed \\u escape".to_string())?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let hi = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by `\uDCxx`.
        let code = if (0xD800..0xDC00).contains(&hi) {
            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                return Err("lone high surrogate in \\u escape".to_string());
            }
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err("invalid low surrogate in \\u escape".to_string());
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| format!("invalid \\u code point {code:#x}"))
    }
}

/// Appends `s` to `buf` as a quoted JSON string with all required escapes.
pub fn escape_into(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                buf.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Builds one flat JSON object, field by field, in insertion order.
#[derive(Debug)]
pub struct ObjectBuilder {
    buf: String,
    first: bool,
}

impl Default for ObjectBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjectBuilder {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self { buf: String::from("{"), first: true }
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        escape_into(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        escape_into(&mut self.buf, value);
        self
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a float field using the shortest round-trip encoding; non-finite
    /// values become `null`.
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            self.buf.push_str(&format!("{value:?}"));
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Closes the object and returns the encoded line.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_parser_round_trip_every_value_kind() {
        let line = ObjectBuilder::new()
            .str("s", "a \"quoted\"\\ line\nwith\ttabs and ünïcode")
            .u64("n", u64::MAX)
            .f64("x", 25_000.125)
            .f64("nan", f64::NAN)
            .bool("b", true)
            .finish();
        let object = parse_object(&line).unwrap();
        let get = |key: &str| object.get(key).unwrap();
        assert_eq!(get("s").as_str(), Some("a \"quoted\"\\ line\nwith\ttabs and ünïcode"));
        assert_eq!(get("n").as_u64(), Some(u64::MAX));
        assert_eq!(get("x").as_f64().unwrap().to_bits(), 25_000.125f64.to_bits());
        assert!(get("nan").as_f64().unwrap().is_nan());
        assert_eq!(get("b").as_bool(), Some(true));
        assert!(object.get("missing").is_none());
    }

    #[test]
    fn shortest_float_encoding_round_trips_exactly() {
        for x in [0.1f64, 1.0 / 3.0, 1e-300, 2.5e17, -0.0, f64::MIN_POSITIVE] {
            let line = ObjectBuilder::new().f64("x", x).finish();
            let back = parse_object(&line).unwrap().get("x").unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":--3}",
            "{\"a\":\"unterminated",
            "{\"a\":\"bad \\q escape\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":1} trailing",
            "[1,2]",
            "not json at all",
            "{\"a\":truu}",
        ] {
            assert!(parse_object(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn surrogate_pairs_and_standard_escapes_decode() {
        let object =
            parse_object("{\"s\":\"\\ud83e\\udde0 \\u00e9 \\/ \\b\\f\"}").expect("valid escapes");
        assert_eq!(object.get("s").unwrap().as_str(), Some("\u{1F9E0} é / \u{0008}\u{000C}"));
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let object = parse_object("{\"a\":1,\"a\":2}").unwrap();
        assert_eq!(object.get("a").unwrap().as_u64(), Some(2));
    }
}
