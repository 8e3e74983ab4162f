//! Minimal JSON support for dynaplace: a value model, a strict parser,
//! a pretty-printer, and explicit conversion traits.
//!
//! The workspace builds in offline environments where serde/serde_json
//! are unavailable, and its JSON needs are small and concrete: read
//! scenario specifications (`scenarios/*.json`), write result artifacts
//! (`results/*.json`), and round-trip the Experiment Two sweep cache.
//! Those paths use explicit [`ToJson`]/[`FromJson`] implementations on
//! the few types involved, which also keeps the on-disk format an
//! intentional, reviewed surface rather than a derive side effect.
//!
//! Numbers are stored as `f64` (JSON's number model); printing uses
//! Rust's shortest round-trip formatting, so `parse(print(x)) == x` for
//! every finite value.
//!
//! Cost model: [`Json::parse`] is linear in the input size. Strings are
//! decoded a run of plain bytes at a time, each run validated once.
//!
//! Strings follow RFC 8259: an invalid escape, a missing closing quote
//! or a raw control character (bytes 0x00–0x1F) is rejected with the
//! line and byte of the fault, as are trailing commas, single quotes and
//! trailing garbage. The printers escape every control character, so
//! their output always parses back. Two leniencies remain: a lone `\u`
//! surrogate decodes to U+FFFD rather than failing, and number literals
//! take whatever Rust's `f64` parser accepts (so `01` and `1.` parse).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always an `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved as written.
    Obj(Vec<(String, Json)>),
}

/// Error raised by parsing or by typed extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Human-readable description with position context.
    pub message: String,
}

impl JsonError {
    fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, JsonError>;

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON document"));
        }
        Ok(v)
    }

    /// Pretty-prints with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Prints the value on a single line with no whitespace, for line-
    /// oriented formats (JSONL) where one value per line is the contract.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&format_number(*x)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&format_number(*x)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, if a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Typed field extraction: `obj.field::<f64>("cpu_mhz")`.
    pub fn field<T: FromJson>(&self, key: &str) -> Result<T> {
        match self.get(key) {
            Some(v) => {
                T::from_json(v).map_err(|e| JsonError::new(format!("field '{key}': {}", e.message)))
            }
            None => Err(JsonError::new(format!("missing field '{key}'"))),
        }
    }

    /// Typed optional field: absent and `null` both give the default.
    pub fn field_or<T: FromJson + Default>(&self, key: &str) -> Result<T> {
        match self.get(key) {
            None => Ok(T::default()),
            Some(Json::Null) => Ok(T::default()),
            Some(v) => {
                T::from_json(v).map_err(|e| JsonError::new(format!("field '{key}': {}", e.message)))
            }
        }
    }

    /// Like [`Json::field_or`] with an explicit fallback, for optional
    /// fields whose default is not `T::default()`.
    pub fn field_or_else<T: FromJson>(&self, key: &str, default: impl FnOnce() -> T) -> Result<T> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(default()),
            Some(v) => {
                T::from_json(v).map_err(|e| JsonError::new(format!("field '{key}': {}", e.message)))
            }
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Formats a finite f64 with shortest round-trip precision; integral
/// values keep a trailing `.0` so the type survives a round trip
/// visually (1.0, not 1).
fn format_number(x: f64) -> String {
    if !x.is_finite() {
        // JSON has no Inf/NaN; mirror serde_json's `null`.
        return "null".to_string();
    }
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        JsonError::new(format!("{msg} (line {line}, byte {})", self.pos))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("invalid number '{text}'")))
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Take the whole run of plain bytes in one step. It ends at a
            // quote, a backslash or a control byte — all ASCII, so the
            // run ends on a UTF-8 boundary and one bounded validation
            // covers it: decoding stays linear in the input.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            let plain = std::str::from_utf8(&rest[..run])
                .map_err(|_| self.err("invalid UTF-8 in string"))?;
            out.push_str(plain);
            self.pos += run;
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
                            let unit = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate followed by `\u` + low
                            // surrogate decodes as one UTF-16 pair; a
                            // lone surrogate maps to the replacement
                            // character rather than failing the parse.
                            let code = if (0xD800..=0xDBFF).contains(&unit)
                                && self.bytes.get(self.pos + 1) == Some(&b'\\')
                                && self.bytes.get(self.pos + 2) == Some(&b'u')
                            {
                                let low = self.hex4(self.pos + 3)?;
                                if (0xDC00..=0xDFFF).contains(&low) {
                                    self.pos += 6;
                                    0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    unit
                                }
                            } else {
                                unit
                            };
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                // RFC 8259 §7: bytes 0x00–0x1F must be escaped.
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// Parses the 4 hex digits of a `\u` escape starting at `at`,
    /// without advancing the cursor.
    fn hex4(&self, at: usize) -> Result<u32> {
        let Some(digits) = self.bytes.get(at..at + 4) else {
            return Err(self.err("truncated \\u escape"));
        };
        let hex = std::str::from_utf8(digits).map_err(|_| self.err("invalid \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))
    }

    fn array(&mut self) -> Result<Json> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }
}

/// Conversion into [`Json`].
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion from [`Json`].
pub trait FromJson: Sized {
    /// Parses from a JSON value.
    fn from_json(v: &Json) -> Result<Self>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Self> {
        Ok(v.clone())
    }
}

macro_rules! num_conv {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self> {
                let x = v.as_f64().ok_or_else(|| JsonError::new("expected a number"))?;
                Ok(x as $t)
            }
        }
    )*};
}
num_conv!(f64, f32, u64, u32, usize, i64, i32);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_bool()
            .ok_or_else(|| JsonError::new("expected a boolean"))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected a string"))
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self> {
        v.as_arr()
            .ok_or_else(|| JsonError::new("expected an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::new("expected a pair"))?;
        if items.len() != 2 {
            return Err(JsonError::new(format!(
                "expected a 2-element array, got {}",
                items.len()
            )));
        }
        Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
    }
}

impl<K: ToString, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_json()))
                .collect(),
        )
    }
}

/// Builds an object from explicit fields, preserving order.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": null}], "c": "x"}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("{'a': 1}").is_err());
    }

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let v = Json::parse(
            r#"{"seed": 42, "xs": [1.5, 2, 0.000012054], "s": "hi \"there\"", "n": null}"#,
        )
        .unwrap();
        let text = v.compact();
        assert!(!text.contains('\n'));
        assert!(!text.contains(' ') || text.contains("\"hi"));
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(obj([]).compact(), "{}");
        assert_eq!(Json::Arr(vec![]).compact(), "[]");
    }

    #[test]
    fn pretty_round_trips() {
        let v = Json::parse(
            r#"{"seed": 42, "xs": [1.5, 2, 0.000012054], "s": "hi \"there\"", "n": null}"#,
        )
        .unwrap();
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn numbers_round_trip_exactly() {
        for &x in &[
            0.0,
            -0.0,
            1.0,
            0.1,
            1e-12,
            123456789.123456,
            f64::MIN_POSITIVE,
        ] {
            let text = format_number(x);
            let back: f64 = text.parse().unwrap();
            assert_eq!(back, x, "{text}");
        }
    }

    #[test]
    fn unterminated_string_reports_position() {
        let e = Json::parse(r#""abc"#).unwrap_err();
        assert!(e.message.contains("unterminated string"), "{e}");
        assert!(e.message.ends_with("(line 1, byte 4)"), "{e}");
        let e = Json::parse("{\n\"a\": \"xy\\\"").unwrap_err();
        assert!(e.message.contains("unterminated string"), "{e}");
        assert!(e.message.ends_with("(line 2, byte 12)"), "{e}");
    }

    #[test]
    fn raw_control_characters_are_rejected() {
        for code in 0u8..0x20 {
            let text = format!("[\n\"ok{}\"]", code as char);
            let e = Json::parse(&text).unwrap_err();
            assert!(
                e.message.contains("unescaped control character in string"),
                "U+{code:04X}: {e}"
            );
            assert!(e.message.ends_with("(line 2, byte 5)"), "U+{code:04X}: {e}");
        }
        // DEL is plain text.
        assert_eq!(
            Json::parse("\"\u{7f}\"").unwrap(),
            Json::Str("\u{7f}".into())
        );
    }

    #[test]
    fn typed_fields_extract() {
        let v = Json::parse(r#"{"count": 3, "name": "x", "opt": null}"#).unwrap();
        assert_eq!(v.field::<usize>("count").unwrap(), 3);
        assert_eq!(v.field::<String>("name").unwrap(), "x");
        assert_eq!(v.field_or::<u64>("missing").unwrap(), 0);
        assert_eq!(v.field_or::<Option<f64>>("opt").unwrap(), None);
        assert!(v.field::<f64>("missing").is_err());
    }
}
