//! The direct JSON codec: a writer and a pull reader that move typed values
//! to and from JSON text without building a [`Value`] tree.
//!
//! This is the shim's only JSON tokenizer and its only string-escape and
//! number formatter. The `Value` parser is [`JsonReader::value`], the
//! compact `Value` printer is `Value`'s own [`Serialize::write_json`], and
//! the pretty printer calls [`push_escaped`] and [`push_number`].
//!
//! Both halves reproduce what the `Value` path does, byte for byte:
//!
//! - Object keys are written in byte order, as the `BTreeMap` behind
//!   [`Map`] orders them. Derived impls sort their field names at
//!   expansion time; maps sort their stringified keys.
//! - Non-finite floats are written as `null`, and `null` reads back as NaN.
//! - Readers skip unknown keys (which must still be valid JSON), treat a
//!   missing field as `null`, and let the last of duplicate keys win.
//!
//! [`Serialize::write_json`]: crate::Serialize::write_json

use std::borrow::Cow;
use std::fmt::{Display, Write as _};

use crate::de::DeserializeOwned;
use crate::value::{Error, Map, Number, Value};

/// Nesting depth past which the reader refuses input rather than recurse.
const MAX_DEPTH: u32 = 128;

/// Append `s` as a quoted JSON string.
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0..=0x1f => "",
            _ => continue,
        };
        // `i` indexes an ASCII byte, so both slices end on char boundaries.
        out.push_str(&s[start..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Append a JSON number: integers in full, floats in Rust's shortest
/// round-trip `Display`, non-finite floats as `null`.
pub fn push_number(out: &mut String, n: Number) {
    let _ = match n {
        Number::PosInt(v) => write!(out, "{v}"),
        Number::NegInt(v) => write!(out, "{v}"),
        Number::Float(f) if f.is_finite() => write!(out, "{f}"),
        Number::Float(_) => {
            out.push_str("null");
            Ok(())
        }
    };
}

/// Compact JSON output. Commas are placed by the writer: callers emit
/// keys and values in order and never write separators themselves.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    comma: bool,
}

impl JsonWriter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn into_string(self) -> String {
        self.out
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    pub fn null(&mut self) {
        self.sep();
        self.out.push_str("null");
    }

    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out.push_str(if b { "true" } else { "false" });
    }

    pub fn number(&mut self, n: Number) {
        self.sep();
        push_number(&mut self.out, n);
    }

    pub fn str(&mut self, s: &str) {
        self.sep();
        push_escaped(&mut self.out, s);
    }

    pub fn begin_array(&mut self) {
        self.sep();
        self.out.push('[');
        self.comma = false;
    }

    pub fn end_array(&mut self) {
        self.out.push(']');
        self.comma = true;
    }

    pub fn begin_object(&mut self) {
        self.sep();
        self.out.push('{');
        self.comma = false;
    }

    /// The next object key; its value follows.
    pub fn key(&mut self, k: &str) {
        self.sep();
        push_escaped(&mut self.out, k);
        self.out.push(':');
        self.comma = false;
    }

    pub fn end_object(&mut self) {
        self.out.push('}');
        self.comma = true;
    }
}

/// Pull reader over JSON text. Every method returns `Err` on malformed or
/// unexpected input; none panics.
pub struct JsonReader<'a> {
    src: &'a str,
    pos: usize,
    depth: u32,
    /// No element has been read yet in the innermost open array or object.
    first: bool,
}

impl<'a> JsonReader<'a> {
    pub fn new(src: &'a str) -> Self {
        JsonReader {
            src,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// An error tagged with the current byte offset.
    pub fn error(&self, msg: impl Display) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    /// The error for a value of the wrong JSON type.
    pub fn expected(&self, what: &str) -> Error {
        let got = match self.peek() {
            None => "end of input".to_string(),
            Some(b) => format!("{:?}", b as char),
        };
        self.error(format_args!("expected {what}, got {got}"))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    /// The next significant byte, after any whitespace. Not consumed.
    pub fn peek_token(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
        self.peek()
    }

    /// Require that only whitespace is left.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek_token() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters after JSON value")),
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek_token() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format_args!("expected {:?}", b as char)))
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), Error> {
        if self.src.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.error(format_args!("invalid literal, expected {kw}")))
        }
    }

    /// Consume a `null` if one is next.
    pub fn take_null(&mut self) -> Result<bool, Error> {
        if self.peek_token() == Some(b'n') {
            self.keyword("null")?;
            return Ok(true);
        }
        Ok(false)
    }

    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek_token() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(self.expected("bool")),
        }
    }

    /// A number token. Text without `.`, `e`, `E`, `+` or an inner `-`
    /// reads as an integer when it fits 64 bits, otherwise as `f64`.
    pub fn number(&mut self) -> Result<Number, Error> {
        if !matches!(self.peek_token(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.expected("number"));
        }
        let start = self.pos;
        self.pos += 1;
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::PosInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::NegInt(i));
            }
            // Integer out of 64-bit range: fall through to f64.
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|_| self.error(format_args!("invalid number {text:?}")))
    }

    /// A string token, borrowed from the input unless it has escapes.
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek_token() != Some(b'"') {
            return Err(self.expected("string"));
        }
        self.pos += 1;
        let src = self.src;
        let bytes = src.as_bytes();
        let mut start = self.pos;
        let mut owned: Option<String> = None;
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            match b {
                b'"' => {
                    let tail = &src[start..self.pos];
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                b'\\' => {
                    let mut s = owned.take().unwrap_or_default();
                    s.push_str(&src[start..self.pos]);
                    self.pos += 1;
                    s.push(self.escape()?);
                    owned = Some(s);
                    start = self.pos;
                }
                0..=0x1f => return Err(self.error("raw control character in string")),
                _ => self.pos += 1,
            }
        }
    }

    /// The character of one escape sequence, positioned after its `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let Some(b) = self.peek() else {
            return Err(self.error("unterminated string"));
        };
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a `\uXXXX` low half must follow.
                    if !self.src.as_bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.error("expected low surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(c).ok_or_else(|| self.error("invalid surrogate pair"))?
                } else {
                    char::from_u32(hi).ok_or_else(|| self.error("invalid unicode escape"))?
                }
            }
            _ => {
                self.pos -= 1;
                return Err(self.error("invalid escape sequence"));
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.error("invalid unicode escape"))?;
            self.pos += 1;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn open(&mut self, b: u8, what: &str) -> Result<(), Error> {
        if self.peek_token() != Some(b) {
            return Err(self.expected(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.pos += 1;
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Whether another element or key follows in the open container;
    /// consumes its separator, or the closing byte when there is none.
    fn more(&mut self, close: u8, what: &str) -> Result<bool, Error> {
        let first = std::mem::replace(&mut self.first, false);
        match self.peek_token() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth = self.depth.saturating_sub(1);
                Ok(false)
            }
            Some(b',') if !first => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) if first => Ok(true),
            _ => Err(self.error(format_args!(
                "expected ',' or {:?} in {what}",
                close as char
            ))),
        }
    }

    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[', "array")
    }

    /// Whether another array element follows; read it next if so.
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.more(b']', "array")
    }

    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{', "object")
    }

    /// The next key of the open object, with its `:` consumed, or `None`
    /// once the object is closed. Read or skip the key's value next.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.more(b'}', "object")? {
            return Ok(None);
        }
        let key = self.str()?;
        self.eat(b':')?;
        Ok(Some(key))
    }

    /// The next element of an open fixed-length array; `ctx` names it in
    /// errors.
    pub fn element<T: DeserializeOwned>(&mut self, ctx: &str) -> Result<T, Error> {
        if !self.next_element()? {
            return Err(self.error(format_args!("{ctx}: array too short")));
        }
        context(T::read_json(self), ctx)
    }

    /// Close an open array that must hold exactly `len` elements.
    pub fn end_array(&mut self, len: usize) -> Result<(), Error> {
        if self.next_element()? {
            return Err(self.error(format_args!("expected array of length {len}")));
        }
        Ok(())
    }

    /// Parse one value into a tree.
    pub fn value(&mut self) -> Result<Value, Error> {
        match self.peek_token() {
            Some(b'n') => self.keyword("null").map(|()| Value::Null),
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            Some(b'"') => Ok(Value::String(self.str()?.into_owned())),
            Some(b'-' | b'0'..=b'9') => self.number().map(Value::Number),
            Some(b'[') => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_element()? {
                    items.push(self.value()?);
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                self.begin_object()?;
                let mut map = Map::new();
                while let Some(k) = self.next_key()? {
                    let v = self.value()?;
                    map.insert(k.into_owned(), v);
                }
                Ok(Value::Object(map))
            }
            Some(c) => Err(self.error(format_args!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Check and pass over one value.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        self.value().map(drop)
    }

    /// Read a `T`, or, when the value is well-formed JSON that is not a
    /// `T`, skip it and hand back the type error. The outer `Err` is a
    /// syntax error. Object readers use this so that a later duplicate
    /// key can still replace a value of the wrong type, as on the tree.
    pub fn read_or_skip<T: DeserializeOwned>(&mut self) -> Result<Result<T, Error>, Error> {
        self.read_or_skip_with(T::read_json)
    }

    /// [`JsonReader::read_or_skip`] with a reader of its own.
    pub fn read_or_skip_with<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, Error>,
    ) -> Result<Result<T, Error>, Error> {
        let (pos, depth, first) = (self.pos, self.depth, self.first);
        match read(self) {
            Ok(v) => Ok(Ok(v)),
            Err(e) => {
                (self.pos, self.depth, self.first) = (pos, depth, first);
                self.skip_value()?;
                Ok(Err(e))
            }
        }
    }
}

/// Order object entries as the tree's sorted map holds them: by key, and
/// the last of equal keys kept. Entries already in strict key order, as
/// every written object is, are left as they are.
pub(crate) fn sort_keys_keep_last<K: Ord, T>(entries: &mut Vec<(K, T)>) {
    if entries.windows(2).all(|p| p[0].0 < p[1].0) {
        return;
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.dedup_by(|later, kept| {
        let dup = later.0 == kept.0;
        if dup {
            std::mem::swap(later, kept);
        }
        dup
    });
}

/// Prefix an error with `ctx`, the path of the value being read.
pub fn context<T>(r: Result<T, Error>, ctx: &str) -> Result<T, Error> {
    r.map_err(|e| Error(format!("{ctx}: {e}")))
}

/// Finish one object field read with [`JsonReader::read_or_skip`]: a
/// missing field reads as `null`, and errors carry `ctx`.
pub fn field<T: DeserializeOwned>(slot: Option<Result<T, Error>>, ctx: &str) -> Result<T, Error> {
    context(
        slot.unwrap_or_else(|| T::read_json(&mut JsonReader::new("null"))),
        ctx,
    )
}
