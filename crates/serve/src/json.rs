//! A minimal std-only JSON *parser* for the wire protocol.
//!
//! `losac-obs` provides JSON emission (`losac_obs::json`) but the
//! workspace had no parser until the daemon needed one: requests arrive
//! as JSONL text. The parser is strict where the grammar is (numbers,
//! escapes, nesting depth) and tolerant where the protocol is (callers
//! ignore unknown object keys — see [`Value::get`]).
//!
//! Numbers are stored as `f64`, parsed with `str::parse::<f64>`. Rust
//! formats floats with the shortest representation that round-trips, so
//! an `f64` rendered by `losac_obs::json::number` and re-parsed here is
//! *bit-identical* to the original — the property the daemon's
//! "results bitwise-equal to offline" guarantee rides on.

use std::fmt;

/// Maximum nesting depth accepted (arrays + objects combined). Requests
/// are flat; this bounds stack use against hostile input.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order. Duplicate keys are kept; [`Value::get`]
    /// returns the first.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse one JSON document. Trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte position of the defect.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the JSON value"));
        }
        Ok(v)
    }

    /// First value under `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string slice, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, when it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The number as a signed integer, when it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        (n.fract() == 0.0 && n >= i64::MIN as f64 && n <= i64::MAX as f64).then_some(n as i64)
    }

    /// The boolean, when this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, when this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, when this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset it was noticed
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: &'static str,
    /// Byte offset into the input.
    pub pos: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.pos)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            pos: self.pos,
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

    fn expect(&mut self, b: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn literal(&mut self, word: &str, message: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self
                .literal("true", "invalid literal")
                .map(|()| Value::Bool(true)),
            Some(b'f') => self
                .literal("false", "invalid literal")
                .map(|()| Value::Bool(false)),
            Some(b'n') => self
                .literal("null", "invalid literal")
                .map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// A string literal. Each run of plain bytes is copied in one step,
    /// up to the next quote, backslash or control byte, so the scan is
    /// linear in the literal's length.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let run = self.bytes[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.bytes.len() - start);
            self.pos += run;
            // A run starts after an ASCII byte and ends before one (or at
            // the end), so it is whole UTF-8 scalars of the input.
            let plain = self
                .text
                .get(start..self.pos)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            out.push_str(plain);
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Four hex digits after `\u`, combining surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        if (0xD800..0xDC00).contains(&first) {
            // High surrogate: a \uXXXX low surrogate must follow.
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.err("invalid low surrogate"));
                }
                let c = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            v = (v << 4) | d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use losac_tech::rng::Xorshift128Plus;

    #[test]
    fn scalars_and_structure() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("-2.5e3").unwrap(), Value::Num(-2500.0));
        let v = Value::parse(r#"{"a":[1,{"b":"x"},null],"a":2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
    }

    #[test]
    fn strings_with_escapes() {
        let v = Value::parse(r#""a\"b\\c\n\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA😀"));
    }

    #[test]
    fn malformed_inputs_error_instead_of_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\"}",
            "{\"a\":}",
            "tru",
            "01x",
            "{]",
            "\"\\u12\"",
            "\"\\ud800\"",
            "1 2",
            "nan",
            "--1",
            "\u{7}",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn f64_roundtrip_is_bitwise() {
        for v in [
            1.0,
            -0.0,
            std::f64::consts::PI,
            1.2345678901234567e-300,
            f64::MIN_POSITIVE,
            f64::MAX,
            5e-324, // subnormal
            42e6 + 0.1234567,
        ] {
            let text = losac_obs::json::number(v);
            let parsed = Value::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{v} via {text}");
        }
    }

    #[test]
    fn integer_accessors_reject_non_integers() {
        assert_eq!(Value::parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(Value::parse("-3").unwrap().as_i64(), Some(-3));
        assert_eq!(Value::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Value::parse("3.5").unwrap().as_u64(), None);
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Value::parse(&deep).is_err());
    }

    /// The per-character string scanner the run copier replaced: the
    /// oracle of `the_run_scanner_matches_the_per_character_one`.
    fn per_character_string(p: &mut Parser<'_>) -> Result<String, JsonError> {
        p.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match p.peek() {
                None => return Err(p.err("unterminated string")),
                Some(b'"') => {
                    p.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    p.pos += 1;
                    match p.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            p.pos += 1;
                            let c = p.unicode_escape()?;
                            out.push(c);
                            continue;
                        }
                        _ => return Err(p.err("invalid escape")),
                    }
                    p.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(p.err("raw control character in string")),
                Some(_) => {
                    let rest = &p.bytes[p.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| p.err("invalid UTF-8"))?;
                    let ch = s.chars().next().expect("peek saw a byte");
                    out.push(ch);
                    p.pos += ch.len_utf8();
                }
            }
        }
    }

    /// Scan the string literal at the start of `text` with `scan`: the
    /// value, or the error, and where the scan stopped.
    fn scan_with(
        text: &str,
        scan: fn(&mut Parser<'_>) -> Result<String, JsonError>,
    ) -> (Result<Value, JsonError>, usize) {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        (scan(&mut p).map(Value::Str), p.pos)
    }

    /// One random piece of a string literal's body.
    fn random_piece(rng: &mut Xorshift128Plus) -> String {
        const ESCAPES: [&str; 8] = ["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"];
        let pick = |rng: &mut Xorshift128Plus, n: u64| (rng.next_u64() % n) as u32;
        match pick(rng, 12) {
            // Plain ASCII, quote and backslash excluded.
            0..=3 => (0..1 + pick(rng, 12))
                .map(|_| match char::from(b' ' + pick(rng, 95) as u8) {
                    '"' | '\\' => 'a',
                    c => c,
                })
                .collect(),
            // 2-, 3- and 4-byte UTF-8.
            4 => char::from_u32(0x80 + pick(rng, 0x780)).map_or_else(String::new, String::from),
            5 => char::from_u32(0x800 + pick(rng, 0xF800))
                .map_or_else(|| "\u{FFFD}".to_owned(), String::from),
            6 => {
                char::from_u32(0x10000 + pick(rng, 0x100000)).map_or_else(String::new, String::from)
            }
            7 => ESCAPES[pick(rng, 8) as usize].to_owned(),
            // A `\u` escape of any code unit: surrogates come out lone.
            8 => format!("\\u{:04x}", pick(rng, 0x10000)),
            // A surrogate pair, sometimes with a bad low half.
            9 => format!(
                "\\u{:04X}\\u{:04x}",
                0xD800 + pick(rng, 0x400),
                0xDA00 + pick(rng, 0x800)
            ),
            // A raw control byte, a bad escape or a short `\u`.
            10 => char::from(pick(rng, 0x20) as u8).to_string(),
            _ => ["\\x", "\\u12", "\\uZZZZ", "\\"][pick(rng, 4) as usize].to_owned(),
        }
    }

    #[test]
    fn the_run_scanner_matches_the_per_character_one() {
        let mut rng = Xorshift128Plus::seed_from_u64(0x150A_5CA7);
        let (mut ok, mut failed) = (0, 0);
        for case in 0..4000 {
            let mut text = String::from("\"");
            for _ in 0..rng.next_u64() % 12 {
                text.push_str(&random_piece(&mut rng));
            }
            // Most literals close; the rest end early or run into more
            // input after the closing quote.
            match rng.next_u64() % 4 {
                0 => {}
                1 => text.push_str("\",\"k\":1}"),
                _ => text.push('"'),
            }
            let want = scan_with(&text, per_character_string);
            let got = scan_with(&text, |p| p.string());
            assert_eq!(got, want, "case {case}: {text:?}");
            if want.0.is_ok() {
                ok += 1;
            } else {
                failed += 1;
            }
        }
        // The generator reaches both outcomes often.
        assert!(ok > 500 && failed > 500, "{ok} parsed, {failed} failed");
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        let piece = "plain ascii é€😀 \\n\\u00e9 ";
        let body = piece.repeat((1_usize << 20).div_ceil(piece.len()));
        assert!(body.len() >= 1 << 20, "{} bytes", body.len());
        let line = format!("{{\"s\":\"{body}\"}}");
        let begun = std::time::Instant::now();
        let v = Value::parse(&line).expect("valid document");
        let took = begun.elapsed();
        let s = v.get("s").and_then(Value::as_str).expect("string field");
        assert_eq!(s, body.replace("\\n", "\n").replace("\\u00e9", "é"));
        assert!(took < std::time::Duration::from_secs(1), "took {took:?}");
    }
}
