//! The workspace's one JSON layer: a value model with a recursive-descent
//! parser, and the [`ToJson`] / [`FromJson`] traits every persisted or
//! served document is encoded and decoded through — with no external
//! dependencies.
//!
//! The subset is full JSON minus two deliberate relaxations on the
//! *writer* side only: non-finite floats are emitted as the strings
//! `"NaN"`, `"Infinity"` and `"-Infinity"` (JSON has no spelling for
//! them), and object keys are kept in insertion order. Integer tokens
//! decode exactly up to `u64::MAX`, and documents nest at most
//! [`MAX_DEPTH`] levels.
//!
//! Types declare their wire form once, as a field list:
//! [`json_struct!`](crate::json_struct) for objects and
//! [`json_enum!`](crate::json_enum) for tagged unions. Both expand to
//! the traits below; writers append into one `String`, decoders name the
//! member path of the first bad member.

use std::fmt::{self, Write as _};

/// Deepest array/object nesting [`Json::parse`] accepts. Real documents
/// nest about six levels; the bound keeps hostile input from exhausting
/// the stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is not a plain non-negative integer fitting `u64`
    /// (parsed as `f64`).
    Num(f64),
    /// A non-negative integer token that fits `u64`, kept exact.
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in source order.
    Obj(Vec<(String, Json)>),
}

/// A parse or decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input (parse errors).
    pub offset: usize,
    /// Member path of a decode error, e.g. `annotations[3].dtype.n`
    /// (empty for parse errors).
    pub path: String,
}

impl JsonError {
    /// A decode error at the current value; [`JsonError::at`] prefixes
    /// the member path as it propagates outwards.
    pub fn decode(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: 0,
            path: String::new(),
        }
    }

    fn mistyped(expected: &str, found: &Json) -> Self {
        JsonError::decode(format!("expected {expected}, found {}", found.type_name()))
    }

    /// Prefixes the member path with `segment` (a member name or an
    /// `[index]`).
    pub fn at(mut self, segment: &str) -> Self {
        self.path = if self.path.is_empty() {
            segment.to_string()
        } else if self.path.starts_with('[') {
            format!("{segment}{}", self.path)
        } else {
            format!("{segment}.{}", self.path)
        };
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            write!(f, "JSON error at byte {}: {}", self.offset, self.message)
        } else {
            write!(f, "JSON error at {}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the first offending byte, also
    /// when the document nests deeper than [`MAX_DEPTH`].
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing garbage"));
        }
        Ok(v)
    }

    /// Member lookup on objects (`None` on missing key or non-object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload; also decodes the writer's non-finite string
    /// spellings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// The payload as an exact non-negative integer. Negative,
    /// fractional and out-of-range numbers are rejected, as is a
    /// non-integer token (`1e3`, `5.0`) at or beyond 2^53, where `f64`
    /// can no longer tell neighbouring integers apart.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_integer().and_then(|n| u64::try_from(n).ok())
    }

    fn as_integer(&self) -> Option<i128> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::UInt(n) => Some(i128::from(*n)),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < EXACT => Some(*n as i128),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Num(_) | Json::UInt(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
            path: String::new(),
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

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => {
                let mut members = Vec::new();
                self.sequence(b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(b':')?;
                    p.skip_ws();
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.sequence(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses the comma-separated items of an array or object, from its
    /// opening bracket through `close`, one nesting level deeper —
    /// refusing to go past [`MAX_DEPTH`].
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        if self.peek() != Some(close) {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(c) if c == close => break,
                    _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates are not produced by our writer;
                            // map them to the replacement character.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(lead) => {
                    // Consume one UTF-8 scalar; the input came in as &str
                    // so a multi-byte sequence is always complete.
                    let len = match lead {
                        b if b < 0x80 => 1,
                        b if b < 0xe0 => 2,
                        b if b < 0xf0 => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Plain digit runs are integers: keep them exact when they fit.
        if text.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Appends `s` to `out`, escaped for embedding between JSON quotes.
fn escape_into(out: &mut String, s: &str) {
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
}

/// Escapes a string for embedding between JSON quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Formats an `f64` as a JSON token: shortest round-trip representation
/// for finite values, quoted sentinel strings for the rest.
pub fn fmt_f64(v: f64) -> String {
    encode(&v)
}

/// A value with a JSON encoding.
pub trait ToJson {
    /// Appends this value's JSON encoding to `out`.
    fn write_json(&self, out: &mut String);
}

/// A value decodable from a parsed [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes the value; the error's `path` names the first missing or
    /// mistyped member.
    fn from_json_value(v: &Json) -> Result<Self, JsonError>;
}

/// The encoding of a type this crate's traits cannot be implemented for
/// (a foreign type, or a second wire form of a type that has one), named
/// per member with `as Codec` in [`json_struct!`](crate::json_struct) and
/// [`json_enum!`](crate::json_enum). A codec for `T` also covers
/// `Option<T>`.
pub trait JsonCodec<T> {
    /// Appends the encoding of `value` to `out`.
    fn write(value: &T, out: &mut String);

    /// Decodes a value.
    fn read(v: &Json) -> Result<T, JsonError>;
}

impl<T, C: JsonCodec<T>> JsonCodec<Option<T>> for C {
    fn write(value: &Option<T>, out: &mut String) {
        match value {
            Some(v) => C::write(v, out),
            None => out.push_str("null"),
        }
    }

    fn read(v: &Json) -> Result<Option<T>, JsonError> {
        match v {
            Json::Null => Ok(None),
            v => C::read(v).map(Some),
        }
    }
}

/// Encodes a value as one JSON document.
pub fn encode<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    value.write_json(&mut out);
    out
}

/// Parses and decodes one JSON document; errors name the bad member.
pub fn decode<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json_value(&Json::parse(text)?)
}

/// Decodes member `key` of `obj` with `read`, prefixing `key` to the
/// error path. An absent member reads as `null`, so an `Option` member
/// may be omitted; any other absent member is a "missing member" error.
pub fn read_member<T>(
    obj: &Json,
    key: &str,
    read: impl FnOnce(&Json) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    match obj.get(key) {
        Some(v) => read(v).map_err(|e| e.at(key)),
        None => read(&Json::Null).map_err(|_| JsonError::decode("missing member").at(key)),
    }
}

/// The string tag member `key` of a tagged object.
pub fn read_tag<'a>(obj: &'a Json, key: &str) -> Result<&'a str, JsonError> {
    expect_object(obj)?;
    match obj.get(key) {
        Some(Json::Str(tag)) => Ok(tag),
        Some(other) => Err(JsonError::mistyped("a string", other).at(key)),
        None => Err(JsonError::decode("missing member").at(key)),
    }
}

/// Checks that `v` is an object.
pub fn expect_object(v: &Json) -> Result<(), JsonError> {
    match v {
        Json::Obj(_) => Ok(()),
        other => Err(JsonError::mistyped("an object", other)),
    }
}

/// [`read_member`] through the member type's [`FromJson`] impl.
pub fn member<T: FromJson>(obj: &Json, key: &str) -> Result<T, JsonError> {
    read_member(obj, key, T::from_json_value)
}

/// Decodes a string token naming one of `all`, as spelled by `token`.
pub fn read_token<T: Clone>(
    v: &Json,
    all: &[T],
    token: impl Fn(&T) -> &'static str,
) -> Result<T, JsonError> {
    let s = v
        .as_str()
        .ok_or_else(|| JsonError::mistyped("a string", v))?;
    all.iter()
        .find(|t| token(t) == s)
        .cloned()
        .ok_or_else(|| JsonError::decode(format!("unknown token {s:?}")))
}

/// Appends an object with the given members, in order — for the few
/// wire forms a field list cannot describe (foreign types, tuples
/// written as objects).
pub fn write_object(out: &mut String, members: &[(&str, &dyn ToJson)]) {
    out.push('{');
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_key(out, key);
        value.write_json(out);
    }
    out.push('}');
}

/// Appends a `"key":` object-member prefix (the key escaped).
fn write_key(out: &mut String, key: &str) {
    out.push('"');
    escape_into(out, key);
    out.push_str("\":");
}

// ---------------------------------------------------------------------------
// Leaf impls
// ---------------------------------------------------------------------------

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for String {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::mistyped("a string", other)),
        }
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl FromJson for bool {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        v.as_bool()
            .ok_or_else(|| JsonError::mistyped("a boolean", v))
    }
}

/// Integers encode as plain tokens and decode only when exact and in
/// range.
macro_rules! integer_impls {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }

        impl FromJson for $t {
            fn from_json_value(v: &Json) -> Result<Self, JsonError> {
                v.as_integer()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| JsonError::mistyped(concat!("an exact ", stringify!($t)), v))
            }
        }
    )+};
}

integer_impls!(u64, usize, i32);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else if self.is_nan() {
            out.push_str("\"NaN\"");
        } else if *self > 0.0 {
            out.push_str("\"Infinity\"");
        } else {
            out.push_str("\"-Infinity\"");
        }
    }
}

impl FromJson for f64 {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::mistyped("a number", v))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        T::from_json_value(v).map(Box::new)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json_value(v).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json_value(v: &Json) -> Result<Self, JsonError> {
        let items = v
            .as_arr()
            .ok_or_else(|| JsonError::mistyped("an array", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json_value(item).map_err(|e| e.at(&format!("[{i}]"))))
            .collect()
    }
}

/// Tuples encode as fixed-length arrays.
macro_rules! tuple_impls {
    ($len:literal: $t0:ident $i0:tt $(, $t:ident $i:tt)+) => {
        impl<$t0: ToJson $(, $t: ToJson)+> ToJson for ($t0, $($t),+) {
            fn write_json(&self, out: &mut String) {
                out.push('[');
                self.$i0.write_json(out);
                $(
                    out.push(',');
                    self.$i.write_json(out);
                )+
                out.push(']');
            }
        }

        impl<$t0: FromJson $(, $t: FromJson)+> FromJson for ($t0, $($t),+) {
            fn from_json_value(v: &Json) -> Result<Self, JsonError> {
                let items = match v.as_arr() {
                    Some(items) if items.len() == $len => items,
                    _ => return Err(JsonError::mistyped(concat!("an array of ", $len), v)),
                };
                let at = |i: usize| move |e: JsonError| e.at(&format!("[{i}]"));
                Ok((
                    $t0::from_json_value(&items[$i0]).map_err(at($i0))?,
                    $($t::from_json_value(&items[$i]).map_err(at($i))?,)+
                ))
            }
        }
    };
}

tuple_impls!(2: A 0, B 1);
tuple_impls!(3: A 0, B 1, C 2);
tuple_impls!(4: A 0, B 1, C 2, D 3);

/// Codec for name-keyed lists, `Vec<(String, T)>`, encoded as one
/// object whose members keep the list order.
#[derive(Debug, Clone, Copy)]
pub struct Members;

impl<T: ToJson + FromJson> JsonCodec<Vec<(String, T)>> for Members {
    fn write(value: &Vec<(String, T)>, out: &mut String) {
        out.push('{');
        for (i, (key, v)) in value.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_key(out, key);
            v.write_json(out);
        }
        out.push('}');
    }

    fn read(v: &Json) -> Result<Vec<(String, T)>, JsonError> {
        match v {
            Json::Obj(members) => members
                .iter()
                .map(|(key, v)| Ok((key.clone(), T::from_json_value(v).map_err(|e| e.at(key))?)))
                .collect(),
            other => Err(JsonError::mistyped("an object", other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Field-list macros
// ---------------------------------------------------------------------------

/// Declares the JSON object form of a struct once, as its member list,
/// and implements [`ToJson`] and [`FromJson`] from it.
///
/// ```text
/// json_struct! {
///     Name [: ErrorType] {
///         member,                   // required: written, and must be present
///                                   //   (an Option member may be absent or null)
///         member = default,         // defaulted when absent or null
///         member as Codec,          // encoded through a JsonCodec
///         "wire_name": member,      // a wire name other than the field name
///         skip member = expr,       // not on the wire; decoded as expr
///         write "wire_name" = f,    // written as f(&value), ignored when read
///     } [then check]
/// }
/// ```
///
/// Members are written in list order. `check` is a
/// `fn(Self) -> Result<Self, JsonError>` run after a successful decode.
/// With `: ErrorType` (which must implement `From<JsonError>`) the macro
/// also emits the inherent `to_json`, `from_json` and `from_value`.
///
/// ```
/// use fixref_obs::json::{decode, encode};
///
/// #[derive(Debug, PartialEq)]
/// struct Pin { name: String, lo: f64, hits: u64, note: Option<String> }
/// fixref_obs::json_struct! { Pin { name, lo, hits = 0, note } }
///
/// let pin = Pin { name: "b".into(), lo: -0.25, hits: 3, note: None };
/// let text = encode(&pin);
/// assert_eq!(text, r#"{"name":"b","lo":-0.25,"hits":3,"note":null}"#);
/// assert_eq!(decode::<Pin>(&text).unwrap(), pin);
/// let err = decode::<Pin>(r#"{"name":"b"}"#).unwrap_err();
/// assert_eq!(err.path, "lo");
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident $(: $err:ty)? { $($members:tt)* } $(then $check:expr)?) => {
        $crate::json_struct!(@munch [$name __json_obj __json_out __json_self]
            [[$($err)?] [$($check)?]] "{" [] [] $($members)*);
    };

    // All members consumed: emit the impls.
    (@munch [$name:ident $v:ident $out:ident $s:ident] [[$($err:ty)?] [$($check:expr)?]]
        $sep:tt [$($w:tt)*] [$($i:tt)*]) => {
        impl $crate::json::ToJson for $name {
            fn write_json(&self, $out: &mut String) {
                let $s = self;
                $($w)*
                $crate::json_struct!(@close $out $sep);
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json_value(
                $v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                $crate::json::expect_object($v)?;
                let value = $name { $($i)* };
                $(let value = ($check)(value)?;)?
                Ok(value)
            }
        }

        $($crate::json_struct!(@inherent $name $err);)?
    };

    (@inherent $name:ident $err:ty) => {
        impl $name {
            /// Serializes the value as one JSON document.
            pub fn to_json(&self) -> String {
                $crate::json::encode(self)
            }

            /// Decodes a value from its JSON text form; errors on malformed
            /// JSON or a missing, mistyped or invalid member.
            pub fn from_json(text: &str) -> Result<Self, $err> {
                $crate::json::decode(text).map_err(<$err>::from)
            }

            /// Decodes a value from an already-parsed JSON value; errors on a
            /// missing, mistyped or invalid member.
            pub fn from_value(v: &$crate::json::Json) -> Result<Self, $err> {
                <Self as $crate::json::FromJson>::from_json_value(v).map_err(<$err>::from)
            }
        }
    };

    (@munch [$name:ident $v:ident $out:ident $s:ident] $extra:tt $sep:tt
        [$($w:tt)*] [$($i:tt)*] skip $f:ident = $e:expr $(, $($rest:tt)*)?) => {
        $crate::json_struct!(@munch [$name $v $out $s] $extra $sep [$($w)*]
            [$($i)* $f: $e,] $($($rest)*)?);
    };

    (@munch [$name:ident $v:ident $out:ident $s:ident] $extra:tt $sep:tt
        [$($w:tt)*] [$($i:tt)*] write $key:literal = $e:expr $(, $($rest:tt)*)?) => {
        $crate::json_struct!(@munch [$name $v $out $s] $extra ","
            [$($w)*
                $out.push_str(concat!($sep, "\"", $key, "\":"));
                $crate::json::ToJson::write_json(&($e)($s), $out);]
            [$($i)*] $($($rest)*)?);
    };

    (@munch $ctx:tt $extra:tt $sep:tt $w:tt $i:tt
        $key:literal : $f:ident $(as $c:ty)? $(= $d:expr)? $(, $($rest:tt)*)?) => {
        $crate::json_struct!(@member $ctx $extra $sep $w $i [$key] $f [$($c)?] [$($d)?] $($($rest)*)?);
    };

    (@munch $ctx:tt $extra:tt $sep:tt $w:tt $i:tt
        $f:ident $(as $c:ty)? $(= $d:expr)? $(, $($rest:tt)*)?) => {
        $crate::json_struct!(@member $ctx $extra $sep $w $i [stringify!($f)] $f [$($c)?] [$($d)?] $($($rest)*)?);
    };

    // One written member: append its writer and its decoder, then go on.
    (@member [$name:ident $v:ident $out:ident $s:ident] $extra:tt $sep:tt
        [$($w:tt)*] [$($i:tt)*] [$key:expr] $f:ident $codec:tt [$($d:expr)?] $($rest:tt)*) => {
        $crate::json_struct!(@munch [$name $v $out $s] $extra ","
            [$($w)*
                $out.push_str(concat!($sep, "\"", $key, "\":"));
                $crate::json_struct!(@write $out, &$s.$f, $codec);]
            [$($i)* $f: $crate::json_struct!(@read $v, $key, $codec, [$($d)?])?,]
            $($rest)*);
    };

    (@close $out:ident "{") => { $out.push_str("{}") };
    (@close $out:ident ",") => { $out.push('}') };

    (@write $out:ident, $val:expr, []) => {
        $crate::json::ToJson::write_json($val, $out)
    };
    (@write $out:ident, $val:expr, [$c:ty]) => {
        <$c as $crate::json::JsonCodec<_>>::write($val, $out)
    };

    (@read $v:ident, $key:expr, $codec:tt, []) => {
        $crate::json::read_member($v, $key, $crate::json_struct!(@read_fn $codec))
    };
    (@read $v:ident, $key:expr, $codec:tt, [$d:expr]) => {
        $crate::json::read_member($v, $key, |j| match j {
            $crate::json::Json::Null => Ok($d),
            j => $crate::json_struct!(@read_fn $codec)(j),
        })
    };

    (@read_fn []) => { $crate::json::FromJson::from_json_value };
    (@read_fn [$c:ty]) => { <$c as $crate::json::JsonCodec<_>>::read };
}

/// Declares an enum together with its tagged JSON object form: each
/// variant carries its wire name, written as the `tag` member ahead of
/// the variant's fields.
///
/// ```text
/// json_enum! {
///     tag = "kind" [, error = ErrorType];
///     /// docs and attributes of the enum
///     pub enum Name {
///         /// docs of the variant
///         "wire_name" => Variant { field: Type [as Codec], ... },
///         "unit_name" => Unit,
///     }
/// }
/// ```
///
/// Emits the enum itself, `kind()` (the variant's wire name) and the
/// [`ToJson`] and [`FromJson`] impls; with `error = ErrorType` also the
/// inherent methods [`json_struct!`](crate::json_struct) emits. The
/// 37-variant [`Event`](crate::Event) is declared this way.
#[macro_export]
macro_rules! json_enum {
    (
        tag = $tag:literal $(, error = $err:ty)?;
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $wire:literal => $variant:ident $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $fty:ty $(as $codec:ty)?
                    ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $fty),* })?,
            )*
        }

        impl $name {
            /// The variant's wire name (the JSON tag member).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Self::$variant { .. } => $wire,)*
                }
            }
        }

        impl $crate::json::ToJson for $name {
            fn write_json(&self, out: &mut String) {
                match self {
                    $(
                        Self::$variant $({ $($field),* })? => {
                            out.push_str(concat!("{\"", $tag, "\":\"", $wire, "\""));
                            $($(
                                out.push_str(concat!(",\"", stringify!($field), "\":"));
                                $crate::json_struct!(@write out, $field, [$($codec)?]);
                            )*)?
                        }
                    )*
                }
                out.push('}');
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json_value(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                match $crate::json::read_tag(v, $tag)? {
                    $(
                        $wire => Ok(Self::$variant $({ $(
                            $field: $crate::json_struct!(
                                @read v, stringify!($field), [$($codec)?], []
                            )?,
                        )* })?),
                    )*
                    other => Err($crate::json::JsonError::decode(
                        format!("unknown tag {other:?}"),
                    ).at($tag)),
                }
            }
        }

        $($crate::json_struct!(@inherent $name $err);)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -1.5e3 ").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("42").unwrap(), Json::UInt(42));
        assert_eq!(
            Json::parse("\"a\\nb\"").unwrap(),
            Json::Str("a\nb".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, {"b": "x"}, null], "c": false}"#).unwrap();
        assert_eq!(v.get("c"), Some(&Json::Bool(false)));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].get("b").and_then(Json::as_str), Some("x"));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1,").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "quote\" backslash\\ newline\n tab\t unicode µ § \u{1}";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(Json::parse(&doc).unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn f64_formatting_round_trips() {
        for v in [0.0, -0.2, 1.0 / 3.0, 1e300, -2.5e-17, 1e19, 2f64.powi(60)] {
            let parsed = Json::parse(&fmt_f64(v)).unwrap();
            assert_eq!(parsed.as_f64(), Some(v));
        }
        assert!(Json::parse(&fmt_f64(f64::NAN))
            .unwrap()
            .as_f64()
            .unwrap()
            .is_nan());
        assert_eq!(
            Json::parse(&fmt_f64(f64::INFINITY)).unwrap().as_f64(),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn integers_decode_exactly_or_not_at_all() {
        let big = (1u64 << 53) + 1;
        assert_eq!(Json::parse(&big.to_string()).unwrap().as_u64(), Some(big));
        assert_eq!(
            Json::parse(&u64::MAX.to_string()).unwrap().as_u64(),
            Some(u64::MAX)
        );
        assert_eq!(Json::parse("1e3").unwrap().as_u64(), Some(1000));
        for rejected in [
            "1e20",
            "18446744073709551616",
            "-1",
            "2.5",
            "9007199254740993.0",
        ] {
            assert_eq!(Json::parse(rejected).unwrap().as_u64(), None, "{rejected}");
            assert!(decode::<u64>(rejected).is_err(), "{rejected}");
        }
        assert_eq!(decode::<i32>("-7"), Ok(-7));
        assert!(decode::<i32>("4294967296").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(200_000);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn decode_errors_name_the_member_path() {
        let err = decode::<Vec<(String, Vec<u64>)>>(r#"[["a",[1,2]],["b",[3,"x"]]]"#).unwrap_err();
        assert_eq!(err.path, "[1][1][1]");
        let err = <Members as JsonCodec<Vec<(String, f64)>>>::read(
            &Json::parse(r#"{"mu":0.5,"taps":"three"}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.path, "taps");
        assert!(err.to_string().contains("expected a number"), "{err}");
    }
}
