//! Offline stand-in for [`serde_json`](https://docs.rs/serde_json).
//!
//! Renders and parses real JSON over the shim `serde` crate's [`Value`]
//! tree, so `to_string` / `to_string_pretty` / `from_str` round-trip every
//! type that derives the shim's `Serialize`/`Deserialize`.  Floats are
//! written with Rust's shortest-roundtrip formatting (`{:?}`), so `f64`
//! values survive a text round-trip bit-exactly; non-finite floats render as
//! `null` like real serde_json.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// JSON serialization/parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error::new(e)
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn escape_into(s: &str, out: &mut String) {
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

fn write_value(value: &Value, out: &mut String, indent: Option<usize>, level: usize) {
    let (nl, pad, pad_close, colon) = match indent {
        Some(width) => (
            "\n",
            " ".repeat(width * (level + 1)),
            " ".repeat(width * level),
            ": ",
        ),
        None => ("", String::new(), String::new(), ":"),
    };
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => {
            if v.is_finite() {
                // `{:?}` is Rust's shortest representation that re-parses to
                // the same bits; it always contains `.`, `e`, for non-integral
                // values and plain digits otherwise (e.g. `1.0` for 1.0).
                out.push_str(&format!("{v:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => escape_into(s, out),
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
                out.push_str(nl);
                out.push_str(&pad);
                write_value(item, out, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad_close);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad);
                escape_into(key, out);
                out.push_str(colon);
                write_value(item, out, indent, level + 1);
            }
            out.push_str(nl);
            out.push_str(&pad_close);
            out.push('}');
        }
    }
}

/// Serialize to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.serialize_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.serialize_value(), &mut out, Some(2), 0);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Deepest nesting of arrays and objects the parser accepts — real
/// serde_json's recursion limit.  Parsing recurses once per level, so
/// without a cap one line of ~100k `[` overflows the parsing thread's stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        let got = self.peek()?;
        if got != byte {
            return Err(Error::new(format!(
                "expected `{}` at byte {}, got `{}`",
                byte as char, self.pos, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_literal(&mut self, word: &str, value: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(Error::new("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(Error::new("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs for non-BMP chars.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(Error::new("lone lead surrogate"));
                                }
                                self.pos += 2;
                                let hex2 = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .ok_or_else(|| Error::new("truncated surrogate"))?;
                                let low = u32::from_str_radix(
                                    std::str::from_utf8(hex2)
                                        .map_err(|_| Error::new("bad surrogate"))?,
                                    16,
                                )
                                .map_err(|_| Error::new("bad surrogate"))?;
                                self.pos += 4;
                                let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(code)
                            };
                            out.push(ch.ok_or_else(|| Error::new("invalid codepoint"))?);
                        }
                        other => {
                            return Err(Error::new(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => {
                    // Collect the full UTF-8 sequence starting at pos-1.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| Error::new("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("bad number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if let Ok(v) = text.parse::<i64>() {
            Ok(Value::I64(v))
        } else if let Ok(v) = text.parse::<u64>() {
            Ok(Value::U64(v))
        } else {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek()? {
            b'n' => self.parse_literal("null", Value::Null),
            b't' => self.parse_literal("true", Value::Bool(true)),
            b'f' => self.parse_literal("false", Value::Bool(false)),
            b'"' => self.parse_string().map(Value::Str),
            open @ (b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::new(format!(
                        "recursion limit exceeded: more than {MAX_DEPTH} nested arrays or \
                         objects at byte {}",
                        self.pos
                    )));
                }
                self.pos += 1;
                self.depth += 1;
                let value = if open == b'[' {
                    self.parse_array()
                } else {
                    self.parse_object()
                };
                self.depth -= 1;
                value
            }
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(Error::new(format!(
                "unexpected byte `{}` at {}",
                other as char, self.pos
            ))),
        }
    }

    /// The rest of an array whose `[` was consumed.
    fn parse_array(&mut self) -> Result<Value> {
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]`, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    /// The rest of an object whose `{` was consumed.
    fn parse_object(&mut self) -> Result<Value> {
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}`, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }
}

/// Parse a JSON string into any shim-`Deserialize` type.
///
/// Arrays and objects may nest at most 128 levels deep; deeper input is an
/// [`Error`], as in real serde_json.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(T::deserialize_value(&value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_vec_of_tuples() {
        let v: Vec<(String, f64, Option<usize>)> = vec![
            ("a b\"c".into(), 0.1, Some(3)),
            ("π ∨ θ".into(), -1.5e-7, None),
        ];
        let json = to_string(&v).unwrap();
        let back: Vec<(String, f64, Option<usize>)> = from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn pretty_output_is_indented_and_reparses() {
        let v = vec![vec![1u32, 2], vec![3]];
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  "));
        let back: Vec<Vec<u32>> = from_str(&pretty).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn float_text_roundtrip_is_exact() {
        for x in [0.1f64, 1.0 / 3.0, 1e-300, 12345.6789, -0.0] {
            let json = to_string(&x).unwrap();
            let back: f64 = from_str(&json).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} -> {json}");
        }
    }

    #[test]
    fn unicode_escapes_parse() {
        let s: String = from_str(r#""é😀""#).unwrap();
        assert_eq!(s, "é😀");
    }

    #[test]
    fn nesting_is_capped_at_the_recursion_limit() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let parse = |text: &str| Parser::new(text).parse_value();
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Far past the cap, on a 1 MiB stack: an error, not an overflow.
        let deep = format!("{}{}", "[{\"a\":".repeat(50_000), "1");
        let result = std::thread::Builder::new()
            .stack_size(1024 * 1024)
            .spawn(move || Parser::new(&deep).parse_value().is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(result);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(from_str::<f64>("1.0trailing").is_err());
        assert!(from_str::<Vec<u32>>("[1,]").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<u32>("-5").is_err());
    }

    #[test]
    fn derived_enum_variants_roundtrip() {
        // Unit variants serialize as bare strings; tuple and struct variants
        // as single-key objects.  The tagged arms regressed once (missing
        // `return` in the generated match), so cover every variant shape.
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        enum Shape {
            Unit,
            Tuple(u32, String),
            Named { x: f64, tag: String },
        }
        let shapes = vec![
            Shape::Unit,
            Shape::Tuple(7, "seven".into()),
            Shape::Named {
                x: 0.5,
                tag: "half".into(),
            },
        ];
        for shape in shapes {
            let json = to_string(&shape).unwrap();
            let back: Shape = from_str(&json).unwrap();
            assert_eq!(back, shape, "{json}");
        }
        assert!(from_str::<Shape>("\"NoSuchVariant\"").is_err());
        assert!(from_str::<Shape>("{\"Tuple\":[1]}").is_err());
    }

    #[test]
    fn nonfinite_floats_become_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        let back: Option<f64> = from_str("null").unwrap();
        assert_eq!(back, None);
    }
}
