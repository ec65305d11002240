//! # ringdeploy-json — zero-dependency JSON for report serialization
//!
//! The build environment of this repository cannot reach crates.io, so
//! every JSON encoding in the workspace (reports, `--json` output and the
//! `ringdeployd` wire protocol) is backed by this small crate instead of
//! the real `serde`/`serde_json` pair: a [`Json`] value type, a strict
//! parser ([`Json::parse`]), a compact printer (`Display`), the
//! [`ToJson`] / [`FromJson`] traits that reports implement by hand, and
//! one hex codec for 64-bit fingerprints ([`hex_u64`]).
//!
//! The encoding conventions mirror what `#[derive(Serialize)]` would
//! produce: structs become objects keyed by field name, unit enum variants
//! become strings, and data-carrying variants become single-key objects —
//! so a future swap to the real serde keeps the wire format.
//!
//! # Example
//!
//! ```
//! use ringdeploy_json::{FromJson, Json, JsonError, ToJson};
//!
//! #[derive(Debug, PartialEq)]
//! struct Point { x: u64, y: u64 }
//!
//! impl ToJson for Point {
//!     fn to_json(&self) -> Json {
//!         Json::object([("x", self.x.to_json()), ("y", self.y.to_json())])
//!     }
//! }
//!
//! impl FromJson for Point {
//!     fn from_json(json: &Json) -> Result<Self, JsonError> {
//!         Ok(Point { x: json.field("x")?, y: json.field("y")? })
//!     }
//! }
//!
//! let p = Point { x: 3, y: 4 };
//! let text = p.to_json().to_string();
//! assert_eq!(text, r#"{"x":3,"y":4}"#);
//! assert_eq!(Point::from_json(&Json::parse(&text)?)?, p);
//! # Ok::<(), ringdeploy_json::JsonError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (stored as f64; integers up to 2^53 round-trip exactly).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with sorted keys (deterministic output).
    Object(BTreeMap<String, Json>),
}

/// Error produced by parsing or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The input text is not valid JSON.
    Parse {
        /// Byte offset of the error.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// A decoded value had the wrong shape.
    Decode(String),
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Parse { at, message } => {
                write!(f, "JSON parse error at byte {at}: {message}")
            }
            JsonError::Decode(message) => write!(f, "JSON decode error: {message}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Builds an array by converting each element.
    pub fn array<T: ToJson>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(|x| x.to_json()).collect())
    }

    /// Decodes a named object field.
    ///
    /// # Errors
    ///
    /// Fails if `self` is not an object, the field is missing, or the
    /// field does not decode as `T`.
    pub fn field<T: FromJson>(&self, name: &str) -> Result<T, JsonError> {
        let Json::Object(map) = self else {
            return Err(JsonError::Decode(format!(
                "expected object with field `{name}`, found {self}"
            )));
        };
        let value = map
            .get(name)
            .ok_or_else(|| JsonError::Decode(format!("missing field `{name}`")))?;
        T::from_json(value).map_err(|e| JsonError::Decode(format!("in field `{name}`: {e}")))
    }

    /// Decodes an *optional* object field: `None` when absent or `null`.
    ///
    /// # Errors
    ///
    /// Fails if `self` is not an object or a present field does not decode.
    pub fn optional_field<T: FromJson>(&self, name: &str) -> Result<Option<T>, JsonError> {
        let Json::Object(map) = self else {
            return Err(JsonError::Decode(format!(
                "expected object with field `{name}`, found {self}"
            )));
        };
        match map.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => T::from_json(value)
                .map(Some)
                .map_err(|e| JsonError::Decode(format!("in field `{name}`: {e}"))),
        }
    }

    /// Decodes a 64-bit field written by [`hex_u64`].
    ///
    /// # Errors
    ///
    /// As [`Json::field`], or `bad {name} hex` when the string is not
    /// hexadecimal.
    pub fn hex_field(&self, name: &str) -> Result<u64, JsonError> {
        parse_hex(name, &self.field::<String>(name)?)
    }

    /// Decodes an *optional* 64-bit field written by [`hex_u64`]: `None`
    /// when absent or `null`.
    ///
    /// # Errors
    ///
    /// As [`Json::optional_field`], or `bad {name} hex` when the string
    /// is not hexadecimal.
    pub fn optional_hex_field(&self, name: &str) -> Result<Option<u64>, JsonError> {
        self.optional_field::<String>(name)?
            .map(|hex| parse_hex(name, &hex))
            .transpose()
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses strict JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Parse`] on malformed input or trailing bytes.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_whitespace();
        let value = p.value()?;
        p.skip_whitespace();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/Infinity; mirror serde_json's lossy
                    // Value behavior so output always re-parses.
                    f.write_str("null")
                } else if x.fract() == 0.0 && x.abs() < 9.0e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Json::String(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
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
            c => f.write_fmt(format_args!("{c}"))?,
        }
    }
    f.write_str("\"")
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level, so uncapped input such as a megabyte of `[`
/// would overflow the thread's stack — an abort that `catch_unwind`
/// cannot stop. Every frame this workspace exchanges nests fewer than
/// ten levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError::Parse {
            at: self.pos,
            message: message.into(),
        }
    }

    fn skip_whitespace(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(&b) => Err(self.error(format!("unexpected byte `{}`", b as char))),
        }
    }

    /// Parses one array or object one level deeper, refusing to open a
    /// level beyond [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.error("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let code = self.unicode_escape_code()?;
                            let scalar = if (0xD800..0xDC00).contains(&code) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow; combine into one scalar.
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                                self.pos += 2;
                                let low = self.unicode_escape_code()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| self.error("unpaired low surrogate"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// Reads the four hex digits of a `\uXXXX` escape (the `\u` prefix
    /// has already been consumed).
    fn unicode_escape_code(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let hex = std::str::from_utf8(hex).map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error("invalid number"))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

/// Encodes a 64-bit value, such as a fingerprint, as 16 lower-case hex
/// digits: fingerprints use all 64 bits, and JSON numbers round-trip only
/// 53. [`Json::hex_field`] and [`Json::optional_hex_field`] decode it.
pub fn hex_u64(value: u64) -> String {
    format!("{value:016x}")
}

fn parse_hex(name: &str, hex: &str) -> Result<u64, JsonError> {
    u64::from_str_radix(hex, 16).map_err(|_| JsonError::Decode(format!("bad {name} hex `{hex}`")))
}

/// Conversion into a [`Json`] value (the `Serialize` analogue).
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Json;
}

/// Reconstruction from a [`Json`] value (the `Deserialize` analogue).
pub trait FromJson: Sized {
    /// Decodes a value, validating its shape.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError::Decode`] when the value has the wrong shape.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::Decode(format!("expected bool, found {other}"))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::String(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::String(s) => Ok(s.clone()),
            other => Err(JsonError::Decode(format!("expected string, found {other}"))),
        }
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Number(*self)
    }
}

impl FromJson for f64 {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Number(x) => Ok(*x),
            other => Err(JsonError::Decode(format!("expected number, found {other}"))),
        }
    }
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Number(*self as f64)
            }
        }

        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let Json::Number(x) = json else {
                    return Err(JsonError::Decode(format!(
                        "expected integer, found {json}"
                    )));
                };
                let value = *x as $t;
                if value as f64 == *x {
                    Ok(value)
                } else {
                    Err(JsonError::Decode(format!(
                        "number {x} is not a {}", stringify!($t)
                    )))
                }
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let items = json
            .as_array()
            .ok_or_else(|| JsonError::Decode(format!("expected array, found {json}")))?;
        items.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(x) => x.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_round_trip() {
        let text = r#"{"a":[1,2.5,null,true],"b":"hi \"there\"\n","c":{"d":-7}}"#;
        let v = Json::parse(text).unwrap();
        let reprinted = v.to_string();
        assert_eq!(Json::parse(&reprinted).unwrap(), v);
    }

    #[test]
    fn deterministic_key_order() {
        let v = Json::object([("zeta", Json::Number(1.0)), ("alpha", Json::Number(2.0))]);
        assert_eq!(v.to_string(), r#"{"alpha":2,"zeta":1}"#);
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{'a':1}").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn integers_round_trip_exactly() {
        for x in [0u64, 1, 41, 1 << 40, (1 << 53) - 1] {
            let v = x.to_json();
            let back: u64 = u64::from_json(&Json::parse(&v.to_string()).unwrap()).unwrap();
            assert_eq!(back, x);
        }
    }

    #[test]
    fn integer_decode_rejects_fractions_and_negatives() {
        assert!(u64::from_json(&Json::Number(1.5)).is_err());
        assert!(u64::from_json(&Json::Number(-2.0)).is_err());
        assert!(i64::from_json(&Json::Number(-2.0)).is_ok());
    }

    #[test]
    fn field_helpers_report_paths() {
        let v = Json::parse(r#"{"n":16,"ok":true}"#).unwrap();
        let n: usize = v.field("n").unwrap();
        assert_eq!(n, 16);
        let missing = v.field::<usize>("k").unwrap_err();
        assert!(missing.to_string().contains("missing field `k`"));
        let opt: Option<u64> = v.optional_field("k").unwrap();
        assert_eq!(opt, None);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Json::parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
        let v = Json::parse(r#""\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn surrogate_pairs_decode_and_unpaired_surrogates_error() {
        // U+1F600 as the standard JSON surrogate pair (what e.g. Python's
        // json.dumps emits with ensure_ascii=True).
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(Json::parse(r#""\ud83d""#).is_err()); // lone high
        assert!(Json::parse(r#""\ude00""#).is_err()); // lone low
        assert!(Json::parse(r#""\ud83d\u0041""#).is_err()); // bad pair
    }

    /// `levels` nested arrays around `inner`.
    fn nested_arrays(levels: usize, inner: &str) -> String {
        format!("{}{inner}{}", "[".repeat(levels), "]".repeat(levels))
    }

    #[test]
    fn nesting_at_the_cap_parses() {
        let v = Json::parse(&nested_arrays(MAX_DEPTH, "7")).unwrap();
        let mut level = &v;
        for _ in 0..MAX_DEPTH {
            level = &level.as_array().expect("array level")[0];
        }
        assert_eq!(level, &Json::Number(7.0));
        let objects = format!("{}1{}", r#"{"a":"#.repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&objects).is_ok());
    }

    #[test]
    fn nesting_beyond_the_cap_is_a_parse_error() {
        let err = Json::parse(&nested_arrays(MAX_DEPTH + 1, "")).unwrap_err();
        assert_eq!(
            err,
            JsonError::Parse {
                at: MAX_DEPTH,
                message: format!("nesting deeper than {MAX_DEPTH} levels"),
            }
        );
        // Neither needs a closing bracket to be refused.
        assert!(matches!(
            Json::parse(&"[".repeat(1_000_000)),
            Err(JsonError::Parse { .. })
        ));
        assert!(matches!(
            Json::parse(&r#"{"a":"#.repeat(1_000_000)),
            Err(JsonError::Parse { .. })
        ));
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        assert_eq!(f64::NAN.to_json().to_string(), "null");
        assert_eq!(f64::INFINITY.to_json().to_string(), "null");
        // The printed form always re-parses.
        assert_eq!(
            Json::parse(&f64::NEG_INFINITY.to_json().to_string()).unwrap(),
            Json::Null
        );
    }
}
