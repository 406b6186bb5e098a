//! A minimal JSON value model: parse and canonical serialization.
//!
//! The workspace is dependency-free by design, so trace export cannot
//! lean on serde; this module is the round-trip half of the contract —
//! anything the chrome exporter emits parses back into an identical
//! [`Value`], which is how tests and the checker certify exported
//! traces instead of trusting the string builder.
//!
//! Numbers that look integral and fit `i64` parse as [`Value::Int`]
//! (cycle counts — the common case — round-trip exactly); everything
//! else falls back to [`Value::Float`]. Object members keep insertion
//! order, so serialize→parse→serialize is the identity on exporter
//! output.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number that fits `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; members keep insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a member of an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Serializes canonically (no whitespace, members in stored
    /// order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        use fmt::Write as _;
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => {
                // `{}` on f64 is the shortest round-tripping form; JSON
                // has no NaN/Inf, so clamp those to null. Integral
                // floats keep one decimal place so they parse back as
                // Float, not Int.
                if !x.is_finite() {
                    out.push_str("null");
                } else if x.fract() == 0.0 {
                    let _ = write!(out, "{x:.1}");
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write as _;
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

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset for malformed input or
/// trailing garbage.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(format!("bad \\u escape at byte {start}"))?;
                            // Surrogates are not produced by our
                            // exporter; map unpaired ones to the
                            // replacement character.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash as one slice. Both are ASCII and never
                    // occur inside a multibyte UTF-8 sequence, so the
                    // run ends on a character boundary.
                    let run = self.bytes[start..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .unwrap_or(self.bytes.len() - start);
                    self.pos = start + run;
                    s.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        if integral {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exporter_shapes() {
        let v = Value::Obj(vec![
            (
                "traceEvents".into(),
                Value::Arr(vec![Value::Obj(vec![
                    ("name".into(), Value::Str("exit L2 Vmcall".into())),
                    ("ph".into(), Value::Str("X".into())),
                    ("ts".into(), Value::Int(123_456)),
                    ("dur".into(), Value::Int(789)),
                    (
                        "args".into(),
                        Value::Obj(vec![("outermost".into(), Value::Bool(true))]),
                    ),
                ])]),
            ),
            ("displayTimeUnit".into(), Value::Str("ns".into())),
        ]);
        let text = v.to_json();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        // serialize -> parse -> serialize is the identity.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn parses_numbers_strings_escapes() {
        let v = parse(r#"{"a": -12, "b": 3.5, "c": "q\"\nA", "d": [true, false, null]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_int(), Some(-12));
        assert_eq!(v.get("b").unwrap(), &Value::Float(3.5));
        assert_eq!(v.get("c").unwrap().as_str(), Some("q\"\nA"));
        assert_eq!(
            v.get("d").unwrap().items().unwrap(),
            &[Value::Bool(true), Value::Bool(false), Value::Null]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn floats_stay_floats() {
        let v = Value::Float(2.0);
        assert_eq!(v.to_json(), "2.0");
        assert_eq!(parse("2.0").unwrap(), Value::Float(2.0));
        // Large integers beyond i64 fall back to float parsing.
        assert!(matches!(
            parse("99999999999999999999").unwrap(),
            Value::Float(_)
        ));
    }

    #[test]
    fn long_strings_keep_multibyte_text_and_every_escape() {
        let chunk = "é→✓𝄞 plain ascii ";
        let long = chunk.repeat(2_000);
        for text in [
            long.clone(),
            format!("{long}\"\\/\n\r\t\u{8}\u{c}{long}"),
            format!("\u{1}{long}\u{1f}"),
        ] {
            let v = Value::Str(text);
            assert_eq!(parse(&v.to_json()).unwrap(), v);
        }
        // Hand-written escapes, including \u, in the middle of long runs.
        let doc = format!(r#""{long}\"\\\/\b\f\n\r\t\u00e9\u2192{long}""#);
        let want = format!("{long}\"\\/\u{8}\u{c}\n\r\té→{long}");
        assert_eq!(parse(&doc).unwrap(), Value::Str(want));
        assert!(parse(&format!("\"{long}\\x\"")).is_err());
        assert!(parse(&format!("\"{long}\\u12\"")).is_err());
        assert!(parse(&format!("\"{long}")).is_err());
    }

    #[test]
    fn string_scan_is_linear() {
        // A 4 MB string parses in one pass; the old per-character
        // rescan of the buffer tail took minutes on this size.
        let v = Value::Str("ü".repeat(2 << 20));
        let start = std::time::Instant::now();
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn unicode_passes_through() {
        let v = Value::Str("cpu0 → L2 ✓".into());
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }
}
