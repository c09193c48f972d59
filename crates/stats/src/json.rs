//! Minimal JSON value tree: an emitter for experiment artifacts and a
//! parser good enough to round-trip them in tests.
//!
//! The workspace is hermetic (no serde), but the figure pipeline's
//! downstream consumers (`scripts/make_experiments.py`) expect standard
//! JSON. [`Json`] renders exactly that: object keys in insertion order,
//! strings escaped per RFC 8259, non-finite floats as `null` (JSON has no
//! NaN/Inf). Integers and floats are kept as distinct variants so `u64`
//! counters render without a fractional part.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Signed integer (renders without a fraction).
    Int(i64),
    /// Unsigned integer (renders without a fraction; covers the
    /// simulator's `u64` counters beyond `i64::MAX`).
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    /// Key-value pairs, rendered in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object's keys, in order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }

    /// Numeric view (integers widen to `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(i) => Some(i as f64),
            Json::UInt(u) => Some(u as f64),
            Json::Float(f) => Some(f),
            _ => None,
        }
    }

    /// Unsigned-integer view.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Int(i) => u64::try_from(i).ok(),
            Json::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        self.to_string()
    }

    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.text.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::UInt(u) => write!(f, "{u}"),
            Json::Float(x) => {
                if x.is_finite() {
                    // Keep a fractional marker so the value reads back as a
                    // float (`1.0`, not `1`), matching conventional emitters.
                    if x.fract() == 0.0 && x.abs() < 1e15 {
                        write!(f, "{x:.1}")
                    } else {
                        write!(f, "{x}")
                    }
                } else {
                    f.write_str("null")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Object(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure: byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset into `text`.
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            at: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, lit: &str, message: &'static str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => {
                self.literal("null", "expected null")?;
                Ok(Json::Null)
            }
            Some(b't') => {
                self.literal("true", "expected true")?;
                Ok(Json::Bool(true))
            }
            Some(b'f') => {
                self.literal("false", "expected false")?;
                Ok(Json::Bool(false))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 4 >= self.text.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            // `None` if the four bytes split a character.
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates are not produced by this emitter;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash. Both
                    // are ASCII, so the run ends on a character boundary.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // Only ASCII was consumed, so the slice is on character boundaries.
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("bad number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.err("bad number"))
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected object")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected :")?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::UInt(42), "42"),
            (Json::Int(-7), "-7"),
            (Json::Float(1.5), "1.5"),
            (Json::Float(2.0), "2.0"),
        ] {
            assert_eq!(v.render(), s);
            assert_eq!(Json::parse(s).expect("parses"), v);
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape_and_roundtrip() {
        let s = Json::Str("a\"b\\c\nd\te\u{1}".to_owned());
        let rendered = s.render();
        assert_eq!(rendered, r#""a\"b\\c\nd\te\u0001""#);
        assert_eq!(Json::parse(&rendered).expect("parses"), s);
    }

    #[test]
    fn strings_roundtrip_across_run_boundaries() {
        // Plain runs meet escapes and multi-byte characters on both
        // sides, at the start and end of strings.
        let long_run = "plain text ".repeat(40);
        let cases = [
            format!("é{long_run}ü"),
            format!("{long_run}\"é\\\n€\r𝄞\t{long_run}"),
            "\u{1}é\u{1f}€\u{8}𝄞\u{c}".to_owned(),
            "𝄞\"\\\n\r\t".to_owned(),
            "\"é\"".to_owned(),
            format!(
                "{}é{}",
                "x\\y\"".repeat(4_000),
                "plain text €\n".repeat(4_000)
            ),
        ];
        assert!(cases[5].len() >= 64 * 1024, "one string of at least 64 KiB");
        for s in cases {
            let v = Json::Str(s);
            assert_eq!(Json::parse(&v.render()).expect("parses"), v);
        }
        assert_eq!(
            Json::Str("é\"\u{1}€".to_owned()).render(),
            r#""é\"\u0001€""#,
            "the emitter escapes only quote, backslash and controls"
        );
        // `\u00e9` and `\/` are read, never written.
        let v = Json::parse(r#"["\u00e9é\u00e9", "€\u00e9", "\u00e9𝄞\/"]"#).expect("parses");
        let got: Vec<&str> = v
            .as_array()
            .expect("array")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(got, ["ééé", "€é", "é𝄞/"]);
        // A `\u` escape whose four bytes split a character is rejected.
        assert_eq!(
            Json::parse("\"\\u000é\"").map_err(|e| e.message),
            Err("bad \\u escape")
        );
    }

    #[test]
    fn nested_structure_roundtrips() {
        let v = Json::object([
            ("label", Json::from("berti/mix0")),
            (
                "ipc",
                Json::array([Json::Float(1.25), Json::Float(0.5), Json::Float(3.0)]),
            ),
            (
                "misses",
                Json::object([("l1", Json::UInt(100)), ("l2", Json::UInt(40))]),
            ),
            ("clip", Json::Null),
        ]);
        let text = v.render();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, v);
        assert_eq!(
            back.get("misses").and_then(|m| m.get("l2")),
            Some(&Json::UInt(40))
        );
        assert_eq!(back.keys(), vec!["label", "ipc", "misses", "clip"]);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parser_accepts_whitespace_and_unicode() {
        let v = Json::parse(" { \"k\" : [ 1 , 2.5 , \"\\u00e9é\" ] } ").expect("parses");
        let arr = v.get("k").and_then(|a| a.as_array()).expect("array");
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_str(), Some("éé"));
    }
}
