//! Offline stand-in for the `serde_json` crate: a compact JSON printer
//! and a recursive-descent parser over the shim `serde` data model.
//!
//! Output mirrors real `serde_json` compact form: no whitespace,
//! object keys in `BTreeMap` (sorted) order, floats printed with Rust's
//! shortest round-trip formatting, non-finite floats as `null`.
//!
//! Parsing is linear in the input length: string decoding copies each
//! run of unescaped bytes with one append, so a megabyte string costs
//! a megabyte of work. Arrays and objects nest at most 128 levels, the
//! limit real `serde_json` uses; deeper input is an [`Error`] naming
//! the offset rather than a stack overflow.

pub use serde::{Error, Map, Number, Value};

use serde::{Deserialize, Serialize};

/// Converts any serialisable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Reads a typed value back out of a [`Value`] tree.
///
/// # Errors
///
/// Returns [`Error`] when the tree does not match the expected shape.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Serialises `value` to a compact JSON string.
///
/// # Errors
///
/// Never fails for tree-shaped data; the `Result` mirrors the real
/// `serde_json` signature so call sites propagate errors identically.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value());
    Ok(out)
}

/// Parses a JSON document into a typed value.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(json: &str) -> Result<T, Error> {
    let mut parser = Parser {
        src: json,
        bytes: json.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    T::from_value(&value)
}

/// How many arrays and objects may enclose a value; one more is an
/// [`Error`] ("recursion limit exceeded").
const MAX_DEPTH: usize = 128;

/// Builds a [`Value`] with JSON-like syntax: `json!({"k": v, ...})`,
/// `json!([a, b])`, `json!(null)` or `json!(expr)` for any
/// `Serialize` expression.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![$($crate::to_value(&$elem)),*])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {{
        let mut map = $crate::Map::new();
        $(map.insert(($key).to_string(), $crate::to_value(&$val));)*
        $crate::Value::Object(map)
    }};
    ($other:expr) => { $crate::to_value(&$other) };
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => write_number(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, v);
            }
            out.push('}');
        }
    }
}

fn write_number(out: &mut String, n: Number) {
    use std::fmt::Write;
    match n {
        Number::PosInt(v) => {
            let _ = write!(out, "{v}");
        }
        Number::NegInt(v) => {
            let _ = write!(out, "{v}");
        }
        Number::Float(v) if v.is_finite() => {
            // Rust's `{}` prints the shortest string that parses back to
            // the same f64, so the value round-trips exactly.
            let _ = write!(out, "{v}");
        }
        Number::Float(_) => out.push_str("null"),
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    src: &'a str,
    /// `src` as bytes: the scanner works on bytes and slices `src` only
    /// at ASCII delimiters, which are always char boundaries.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> Error {
        Error::custom(format!("{message} at offset {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to go past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one append. The input is a `&str` and the run ends
            // at an ASCII byte (or the end), so the slice is valid UTF-8.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            let b = self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hi = self.parse_hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect `\uXXXX` low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("lone surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("lone surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid surrogate pair"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
                _ => return Err(self.error("control character in string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(n)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::Float(f)))
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for json in ["null", "true", "false", "0", "42", "-7", "1.5", "\"hi\""] {
            let v: Value = from_str(json).unwrap();
            assert_eq!(to_string(&v).unwrap(), json);
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let json = r#"{"a":[1,2,3],"b":{"c":"x","d":false},"e":null}"#;
        let v: Value = from_str(json).unwrap();
        assert_eq!(to_string(&v).unwrap(), json);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "line\nwith \"quotes\" \\ tabs\t and unicode \u{263A}";
        let json = to_string(&original).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn unicode_escape_parses() {
        let v: String = from_str(r#""A😀""#).unwrap();
        assert_eq!(v, "A\u{1F600}");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1f64, 1.0 / 3.0, 1e-300, 123456.789, -0.25] {
            let json = to_string(&f).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{json}");
        }
        for f in [0.1f32, 2.0 / 3.0, 1.5e-30] {
            let json = to_string(&f).unwrap();
            let back: f32 = from_str(&json).unwrap();
            assert_eq!(back.to_bits(), f.to_bits(), "{json}");
        }
    }

    #[test]
    fn tuples_serialise_as_arrays() {
        let entry = (1u32, 2u32, 3u32, 0.5f32);
        let json = to_string(&vec![entry]).unwrap();
        assert_eq!(json, "[[1,2,3,0.5]]");
        let back: Vec<(u32, u32, u32, f32)> = from_str(&json).unwrap();
        assert_eq!(back, vec![entry]);
    }

    #[test]
    fn malformed_input_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "nul",
            "01x",
            "[1] junk",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} should fail");
        }
    }

    /// SplitMix64: a seeded generator for the property tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A char drawn from ASCII (controls included), 2-, 3- and 4-byte
    /// UTF-8, or a character with a short escape.
    fn random_char(rng: &mut Rng) -> char {
        let (lo, hi) = match rng.below(6) {
            0 => (0x00, 0x20),
            1 => (0x20, 0x80),
            2 => (0x80, 0x800),
            3 => (0x800, 0x10000),
            4 => (0x10000, 0x110000),
            _ => {
                let short = ['"', '\\', '/', '\n', '\t', '\r', '\u{08}', '\u{0C}'];
                return short[rng.below(short.len() as u64) as usize];
            }
        };
        loop {
            if let Some(c) = char::from_u32((lo + rng.below(hi - lo)) as u32) {
                return c;
            }
        }
    }

    /// Writes `c` into a JSON string literal in a randomly chosen legal
    /// spelling: raw, its short escape, or a `\u` escape (a surrogate
    /// pair above the BMP) in either hex case.
    fn push_encoded(out: &mut String, c: char, rng: &mut Rng) {
        let short = match c {
            '"' => Some("\\\""),
            '\\' => Some("\\\\"),
            '/' => Some("\\/"),
            '\n' => Some("\\n"),
            '\t' => Some("\\t"),
            '\r' => Some("\\r"),
            '\u{08}' => Some("\\b"),
            '\u{0C}' => Some("\\f"),
            _ => None,
        };
        let raw_ok = !matches!(c, '"' | '\\') && c as u32 >= 0x20;
        match (rng.below(3), short) {
            (0, _) if raw_ok => out.push(c),
            (1, Some(escape)) => out.push_str(escape),
            _ => {
                use std::fmt::Write;
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = match rng.below(2) {
                        0 => write!(out, "\\u{unit:04x}"),
                        _ => write!(out, "\\u{unit:04X}"),
                    };
                }
            }
        }
    }

    /// Reference decoder for the body of a JSON string literal (the text
    /// between the quotes): one char at a time, escapes per RFC 8259.
    fn reference_decode(body: &str) -> String {
        let mut out = String::new();
        let mut chars = body.chars();
        let hex4 = |chars: &mut std::str::Chars| -> u32 {
            let hex: String = chars.by_ref().take(4).collect();
            u32::from_str_radix(&hex, 16).unwrap()
        };
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            let decoded = match chars.next().unwrap() {
                'b' => '\u{08}',
                'f' => '\u{0C}',
                'n' => '\n',
                'r' => '\r',
                't' => '\t',
                'u' => {
                    let hi = hex4(&mut chars);
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        assert_eq!(chars.next(), Some('\\'));
                        assert_eq!(chars.next(), Some('u'));
                        0x10000 + ((hi - 0xD800) << 10) + (hex4(&mut chars) - 0xDC00)
                    } else {
                        hi
                    };
                    char::from_u32(code).unwrap()
                }
                other => other,
            };
            out.push(decoded);
        }
        out
    }

    #[test]
    fn random_strings_decode_like_the_reference() {
        let mut rng = Rng(0x5EED);
        for case in 0..2_000 {
            let len = rng.below(48) as usize;
            let original: String = (0..len).map(|_| random_char(&mut rng)).collect();
            let mut body = String::new();
            for c in original.chars() {
                push_encoded(&mut body, c, &mut rng);
            }
            let literal = format!("\"{body}\"");
            let decoded: String = from_str(&literal).unwrap_or_else(|e| panic!("{literal:?}: {e}"));
            assert_eq!(decoded, reference_decode(&body), "case {case}: {literal:?}");
            assert_eq!(decoded, original, "case {case}: {literal:?}");
            let printed = to_string(&original).unwrap();
            let back: String = from_str(&printed).unwrap();
            assert_eq!(back, original, "case {case}: {printed:?}");
        }
    }

    #[test]
    fn raw_control_bytes_are_rejected_at_their_offset() {
        let err = from_str::<String>("\"ab\u{01}c\"").unwrap_err();
        assert_eq!(err.to_string(), "control character in string at offset 3");
        let err = from_str::<Value>("{\"k\":\"é\u{1F}\"}").unwrap_err();
        assert_eq!(err.to_string(), "control character in string at offset 8");
        let err = from_str::<String>("\"tail").unwrap_err();
        assert_eq!(err.to_string(), "unterminated string at offset 5");
    }

    #[test]
    fn multi_megabyte_strings_decode() {
        const MIB: usize = 1 << 20;
        // Runs of ASCII and multi-byte chars broken up by escapes.
        let original: String = "path→ctx\t\"".chars().cycle().take(4 * MIB).collect();
        let printed = to_string(&original).unwrap();
        let back: String = from_str(&printed).unwrap();
        assert_eq!(back, original);
        let plain = format!("\"{}\"", "x".repeat(4 * MIB));
        assert_eq!(from_str::<String>(&plain).unwrap().len(), 4 * MIB);
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str::<Value>(&nested(MAX_DEPTH)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("recursion limit exceeded at offset {MAX_DEPTH}")
        );
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(from_str::<Value>(&objects).is_err());
        let flood = "[".repeat(200_000);
        assert!(from_str::<Value>(&flood).is_err());
    }

    #[test]
    fn truncated_documents_are_errors() {
        let doc = r#"{"a":[1,-2.5e3,true,null],"s":"éé😀\n","o":{"k":"v"}}"#;
        assert!(from_str::<Value>(doc).is_ok());
        for end in 0..doc.len() {
            if let Some(prefix) = doc.get(..end) {
                assert!(from_str::<Value>(prefix).is_err(), "{prefix:?}");
            }
        }
    }

    #[test]
    fn random_bytes_never_panic() {
        let alphabet = b"[]{}\":,\\/ubfnrt0123456789abcdefE+-.e \x01\xc3\xa9\xf0\x9f";
        let mut rng = Rng(0xB17E5);
        for _ in 0..20_000 {
            let len = rng.below(40) as usize;
            let bytes: Vec<u8> = (0..len)
                .map(|_| match rng.below(4) {
                    0 => rng.next() as u8,
                    _ => alphabet[rng.below(alphabet.len() as u64) as usize],
                })
                .collect();
            let text = String::from_utf8_lossy(&bytes);
            // Most inputs are malformed; the few that parse must print
            // to a document that parses and prints back to itself.
            if let Ok(value) = from_str::<Value>(&text) {
                let printed = to_string(&value).unwrap();
                let reparsed: Value = from_str(&printed).unwrap();
                assert_eq!(to_string(&reparsed).unwrap(), printed, "{text:?}");
            }
        }
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({
            "name": "pigeon",
            "count": 3usize,
            "ok": true,
            "items": vec!["a".to_string(), "b".to_string()],
        });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"count":3,"items":["a","b"],"name":"pigeon","ok":true}"#
        );
    }
}
