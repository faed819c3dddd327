//! Minimal generic JSON layer shared by the versioned exporters.
//!
//! Both `bwfft-trace/1` (trace reports, [`crate::json`]) and
//! `bwfft-bench/1` (benchmark records, in `bwfft-bench`) hand-roll
//! their JSON because the build environment has no serde. The schema
//! mapping lives with each schema; the generic parts — a [`Value`]
//! tree, a strict parser, and the emitter helpers that keep floats
//! shortest-round-trip and `u64` exact — live here so they are written
//! (and fuzzed) once.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value (minimal — enough for the export schemas).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// Unsigned integer literal, kept exact: `u64` nanosecond
    /// timestamps exceed 2^53 and must not detour through f64.
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Num(n) => Some(*n),
            // The pinned non-finite sentinels emitted by [`push_f64`].
            Value::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// `Null` maps to `Some(None)`; a number to `Some(Some(v))`;
    /// anything else is a schema mismatch (`None`).
    pub fn as_opt_f64(&self) -> Option<Option<f64>> {
        match self {
            Value::Null => Some(None),
            v => v.as_f64().map(Some),
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Lexical/syntactic failure at a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON syntax error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

// ---------------------------------------------------------------------------
// Schema readers
// ---------------------------------------------------------------------------

/// A parsed document that does not match its schema: a missing field,
/// or a value of the wrong type. Each schema maps it into its own
/// error's `Schema` variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaError(pub String);

/// The required field `key` of `obj`.
pub fn get<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Result<&'v Value, SchemaError> {
    obj.get(key)
        .ok_or_else(|| SchemaError(format!("missing field {key:?}")))
}

/// The schema message for a value `what` that is not `kind`.
fn mismatch(what: &str, kind: &str) -> SchemaError {
    SchemaError(format!("{what:?} must be {kind}"))
}

/// `v` as a string; `what` names it in the schema message.
pub fn as_str<'v>(v: &'v Value, what: &str) -> Result<&'v str, SchemaError> {
    v.as_str().ok_or_else(|| mismatch(what, "a string"))
}

pub fn as_bool(v: &Value, what: &str) -> Result<bool, SchemaError> {
    v.as_bool().ok_or_else(|| mismatch(what, "a boolean"))
}

pub fn as_u64(v: &Value, what: &str) -> Result<u64, SchemaError> {
    v.as_u64()
        .ok_or_else(|| mismatch(what, "a non-negative integer"))
}

pub fn as_usize(v: &Value, what: &str) -> Result<usize, SchemaError> {
    usize::try_from(as_u64(v, what)?).map_err(|_| SchemaError(format!("{what:?} out of range")))
}

pub fn as_f64(v: &Value, what: &str) -> Result<f64, SchemaError> {
    v.as_f64().ok_or_else(|| mismatch(what, "a number"))
}

pub fn as_opt_f64(v: &Value, what: &str) -> Result<Option<f64>, SchemaError> {
    v.as_opt_f64()
        .ok_or_else(|| mismatch(what, "number or null"))
}

pub fn as_obj<'v>(v: &'v Value, what: &str) -> Result<&'v BTreeMap<String, Value>, SchemaError> {
    v.as_obj().ok_or_else(|| mismatch(what, "an object"))
}

pub fn as_arr<'v>(v: &'v Value, what: &str) -> Result<&'v [Value], SchemaError> {
    v.as_arr().ok_or_else(|| mismatch(what, "an array"))
}

// ---------------------------------------------------------------------------
// Emitter helpers
// ---------------------------------------------------------------------------

/// Appends `s` as a quoted, escaped JSON string.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a float with Rust's shortest representation that round-trips
/// through `str::parse::<f64>` exactly.
///
/// JSON has no literal for non-finite floats, so they are pinned to the
/// string sentinels `"NaN"`, `"Infinity"` and `"-Infinity"`;
/// [`Value::as_f64`] maps the sentinels back, so every schema parser
/// built on it round-trips non-finite values losslessly instead of
/// silently degrading them to `null`.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else if v.is_nan() {
        out.push_str("\"NaN\"");
    } else if v > 0.0 {
        out.push_str("\"Infinity\"");
    } else {
        out.push_str("\"-Infinity\"");
    }
}

pub fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Parses a complete JSON document, rejecting trailing data.
pub fn parse_document(src: &str) -> Result<Value, ParseError> {
    let mut p = Parser::new(src);
    let root = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {kw}")))
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'n') => self.eat_keyword("null", Value::Null),
            Some(b't') => self.eat_keyword("true", Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(format!("unexpected {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let val = self.parse_value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Obj(map)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut arr = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(arr));
        }
        loop {
            arr.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Arr(arr)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        if self.bump() != Some(b'"') {
            return Err(self.err("expected string"));
        }
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self
                            .bytes
                            .get(self.pos..self.pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| self.err("bad \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| self.err("bad \\u escape"))?;
                        self.pos += 4;
                        // Surrogate pairs are not emitted by our writer;
                        // map lone surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control char in string")),
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 (input is a &str, so
                    // the bytes are valid UTF-8 by construction).
                    let len = utf8_len(b);
                    let start = self.pos - 1;
                    self.pos = start + len;
                    if let Ok(chunk) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(chunk);
                    }
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        // Plain unsigned integers stay exact (f64 truncates above
        // 2^53); anything fractional, signed or exponential is a float.
        if !text.starts_with('-') && !text.contains(['.', 'e', 'E']) {
            if let Ok(i) = text.parse::<u64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xF0..=0xF7 => 4,
        0xE0..=0xEF => 3,
        0xC0..=0xDF => 2,
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse_document(r#"{"a":[1,2.5,null,true,"x\n"],"b":{}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        let arr = obj["a"].as_arr().unwrap();
        assert_eq!(arr[0], Value::Int(1));
        assert_eq!(arr[1], Value::Num(2.5));
        assert_eq!(arr[2], Value::Null);
        assert_eq!(arr[3], Value::Bool(true));
        assert_eq!(arr[4].as_str(), Some("x\n"));
        assert!(obj["b"].as_obj().unwrap().is_empty());
    }

    #[test]
    fn u64_stays_exact() {
        let big = u64::MAX;
        let v = parse_document(&format!("{{\"t\":{big}}}")).unwrap();
        assert_eq!(v.as_obj().unwrap()["t"].as_u64(), Some(big));
    }

    #[test]
    fn rejects_trailing_data() {
        assert!(parse_document("{} {}").is_err());
        assert!(parse_document("").is_err());
        assert!(parse_document("[1,").is_err());
    }

    #[test]
    fn accessors_reject_wrong_shapes() {
        let v = parse_document("[-1]").unwrap();
        let neg = &v.as_arr().unwrap()[0];
        assert_eq!(neg.as_u64(), None);
        assert_eq!(neg.as_f64(), Some(-1.0));
        assert_eq!(v.as_obj(), None);
        assert_eq!(v.as_str(), None);
    }

    #[test]
    fn emitter_helpers_round_trip() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd\u{1}");
        s.push(':');
        push_f64(&mut s, 0.1);
        s.push(':');
        push_f64(&mut s, f64::NAN);
        s.push(':');
        push_opt_f64(&mut s, None);
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\":0.1:\"NaN\":null");
    }

    #[test]
    fn non_finite_floats_round_trip_through_pinned_sentinels() {
        // The pinned encoding: NaN -> "NaN", +inf -> "Infinity",
        // -inf -> "-Infinity". Every emitted document stays parseable
        // and as_f64 recovers the exact non-finite value.
        let mut s = String::new();
        s.push('[');
        push_f64(&mut s, f64::NAN);
        s.push(',');
        push_f64(&mut s, f64::INFINITY);
        s.push(',');
        push_f64(&mut s, f64::NEG_INFINITY);
        s.push(',');
        push_opt_f64(&mut s, Some(f64::NAN));
        s.push(']');
        assert_eq!(s, "[\"NaN\",\"Infinity\",\"-Infinity\",\"NaN\"]");
        let v = parse_document(&s).unwrap();
        let arr = v.as_arr().unwrap();
        assert!(arr[0].as_f64().unwrap().is_nan());
        assert_eq!(arr[1].as_f64(), Some(f64::INFINITY));
        assert_eq!(arr[2].as_f64(), Some(f64::NEG_INFINITY));
        assert!(arr[3].as_opt_f64().unwrap().unwrap().is_nan());
        // Ordinary strings still refuse numeric coercion.
        assert_eq!(Value::Str("nan".into()).as_f64(), None);
        assert_eq!(Value::Str("1.5".into()).as_f64(), None);
    }
}
