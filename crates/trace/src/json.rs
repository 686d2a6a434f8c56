//! The workspace's one JSON writer, [`JsonWriter`], and a minimal
//! recursive-descent parser for what it writes.
//!
//! The vendored `serde` is a marker stub with no real (de)serialization,
//! so every exported document — the Chrome trace ([`crate::chrome`]), the
//! `sn-obs` export, and the `sn-profile` bench snapshot — is written by
//! hand through [`JsonWriter`], and validated by [`parse`]. The parser
//! supports the full JSON grammar minus `\uXXXX` surrogate pairs
//! (unneeded: the writer only emits `\u00XX` control escapes).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::ops::Range;

/// Appends JSON text to a `String` with deterministic number formatting.
///
/// Floats are written exactly as `format!("{x:?}")` (Rust's
/// shortest-roundtrip form), and non-finite values as `0`. Telemetry
/// documents repeat a few distinct floats thousands of times (every
/// series shares the per-wave timestamps), so each distinct non-integral
/// value is formatted once: the writer remembers where its text landed,
/// keyed by the exact bits, and copies those bytes for every later
/// occurrence. Same bits means the same `{:?}` text, so the memo cannot
/// change a byte. Integers never allocate.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// `f64::to_bits` → where that value's text already sits in `out`.
    floats: HashMap<u64, Range<usize>>,
}

/// Integral floats below this magnitude print as their integer digits
/// followed by `.0` under `{:?}`; from here up `{:?}` switches to
/// exponent form (`1e16`).
const INTEGRAL_FAST_PATH_LIMIT: f64 = 1e16;

impl JsonWriter {
    /// A writer whose buffer starts with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(capacity),
            floats: HashMap::new(),
        }
    }

    /// Appends structural text (punctuation, keys known to need no
    /// escaping, literals) verbatim.
    #[inline]
    pub fn raw(&mut self, s: &str) {
        self.out.push_str(s);
    }

    /// Appends `s` as a quoted JSON string: `"` and `\` are
    /// backslash-escaped, `\n`, `\r`, `\t` use their short escapes, other
    /// control characters become `\u00xx`, and everything else — non-ASCII
    /// included — passes through raw.
    pub fn str(&mut self, s: &str) {
        self.out.push('"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let short = match b {
                b'"' => Some("\\\""),
                b'\\' => Some("\\\\"),
                b'\n' => Some("\\n"),
                b'\r' => Some("\\r"),
                b'\t' => Some("\\t"),
                0..=0x1f => None,
                _ => continue,
            };
            // Every escaped byte is ASCII, so `run..i` ends on a char
            // boundary.
            self.out.push_str(&s[run..i]);
            match short {
                Some(escape) => self.out.push_str(escape),
                None => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
            }
            run = i + 1;
        }
        self.out.push_str(&s[run..]);
        self.out.push('"');
    }

    /// Appends an unsigned integer in decimal.
    pub fn u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out
            .push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
    }

    /// Appends a float exactly as `format!("{x:?}")` would, or `0` when
    /// `x` is not finite.
    pub fn f64(&mut self, x: f64) {
        if !x.is_finite() {
            self.out.push('0');
        } else if x.fract() == 0.0 && x.abs() < INTEGRAL_FAST_PATH_LIMIT {
            // `{:?}` of an integral value under 1e16 is its integer digits
            // plus `.0`, keeping the sign of `-0.0`.
            if x.is_sign_negative() {
                self.out.push('-');
            }
            self.u64(x.abs() as u64);
            self.out.push_str(".0");
        } else if let Some(range) = self.floats.get(&x.to_bits()) {
            self.out.extend_from_within(range.clone());
        } else {
            let start = self.out.len();
            let _ = write!(self.out, "{x:?}");
            self.floats.insert(x.to_bits(), start..self.out.len());
        }
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A parsed JSON value. Objects use a [`BTreeMap`] so traversal order is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The object's field, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{0008}'),
                        Some(b'f') => s.push('\u{000c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("surrogate \\u escape"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input is a &str, so
                    // byte boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let c = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8"))?
                        .chars()
                        .next()
                        .unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-1.5e2").unwrap(), JsonValue::Number(-150.0));
        assert_eq!(
            parse("\"a\\nb\"").unwrap(),
            JsonValue::String("a\nb".into())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"c"},false],"d":{}}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(v.get("d"), Some(&JsonValue::Object(BTreeMap::new())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn control_escapes_roundtrip() {
        assert_eq!(
            parse("\"\\u0001\"").unwrap(),
            JsonValue::String("\u{0001}".into())
        );
    }

    fn written(f: impl FnOnce(&mut JsonWriter)) -> String {
        let mut w = JsonWriter::default();
        f(&mut w);
        w.finish()
    }

    #[test]
    fn writer_floats_match_debug_formatting() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -7.0,
            0.1,
            1e15,
            9_999_999_999_999_998.0,
            1e16,
            -1e16,
            123.456,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            // Twice: the second write copies the memoized text.
            assert_eq!(
                written(|w| {
                    w.f64(x);
                    w.raw(",");
                    w.f64(x);
                }),
                format!("{x:?},{x:?}")
            );
        }
        assert_eq!(
            written(|w| {
                w.f64(f64::NAN);
                w.f64(f64::INFINITY);
                w.f64(f64::NEG_INFINITY);
            }),
            "000"
        );
    }

    #[test]
    fn writer_integers_and_strings() {
        for n in [0, 7, 10, 1234567890, u64::MAX] {
            assert_eq!(written(|w| w.u64(n)), n.to_string());
        }
        assert_eq!(
            written(|w| w.str("a\"b\\c\nd\re\tf\u{1}g\u{1f}h naïve 終")),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh naïve 終\""
        );
        assert_eq!(written(|w| w.str("")), "\"\"");
    }

    #[test]
    fn parses_writer_output() {
        use crate::chrome::to_chrome_json;
        use crate::event::{ArgValue, EventKind, TraceEvent, Track};
        let e = TraceEvent {
            name: "sw\"itch".into(),
            track: Track::Coe,
            tid: 2,
            ts_us: 3.25,
            kind: EventKind::Complete { dur_us: 1.0 },
            args: vec![("bytes", ArgValue::U64(7)), ("hit", ArgValue::Bool(false))],
        };
        let v = parse(&to_chrome_json(&[e])).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // Metadata record + the event itself.
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("sw\"itch"));
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(3.25));
    }
}
