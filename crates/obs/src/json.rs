//! A minimal JSON reader/writer: every line the stack emits — protocol
//! replies, metrics, trace records, training journals — is built here.
//!
//! The offline dependency set has no `serde_json`, and those lines only
//! need flat objects with strings, numbers, booleans and small arrays —
//! this module implements exactly RFC 8259 value syntax (with `\uXXXX`
//! escapes and surrogate pairs) and nothing more. A non-finite number
//! renders as `null`.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
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

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON value from `text` (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Renders to compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => render_number(*n, out),
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                let mut object = ObjectWriter::new(out);
                for (k, v) in members {
                    object.value(k, v);
                }
                object.end();
            }
        }
    }
}

/// Writes one JSON object member by member at the end of a buffer: a
/// [`Json::Obj`] without the tree. [`Json::render`] writes its objects
/// through it too, so a line written here escapes and formats exactly
/// as the same members rendered from a tree.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Writes `key` and its colon, and hands back the buffer for the
    /// member's value (which the caller must write, whole, next).
    pub fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        render_string(key, self.out);
        self.out.push(':');
        self.out
    }

    /// A string member.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        render_string(value, self.key(key));
        self
    }

    /// A number member (a non-finite one writes `null`).
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        render_number(value, self.key(key));
        self
    }

    /// A boolean member.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// A 64-bit hash as the protocol spells it: a string of 16 lowercase
    /// hex digits (a JSON number would lose precision).
    pub fn hex(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "\"{value:016x}\"");
        self
    }

    /// A member whose value is a tree.
    pub(crate) fn value(&mut self, key: &str, value: &Json) -> &mut Self {
        value.render_into(self.key(key));
        self
    }

    /// Closes the object.
    pub fn end(self) {
        self.out.push('}');
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

fn render_number(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn render_string(s: &str, out: &mut String) {
    out.reserve(s.len() + 2);
    out.push('"');
    // Every byte that needs an escape is ASCII, so each one ends a run
    // of bytes copied as they are on a character boundary.
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub(crate) message: String,
    /// Byte offset of the failure.
    pub(crate) position: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.position)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            position: self.pos,
        }
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
            Err(self.err(&format!("invalid literal, expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ASCII in \\u escape"))?;
        let v = u16::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require \uXXXX low half.
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000
                                        + ((u32::from(hi) - 0xD800) << 10)
                                        + (u32::from(lo) - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(u32::from(hi))
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u code point"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Convenience constructor for objects.
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One protocol reply line: `members` as an object, led by the request's
/// `id` when it carried a string one, so a client can pair every answer —
/// an error included — with its request.
pub fn with_id(id: Option<&str>, members: Vec<(&str, Json)>) -> String {
    let mut out = String::new();
    let mut object = ObjectWriter::new(&mut out);
    if let Some(id) = id {
        object.str("id", id);
    }
    for (k, v) in &members {
        object.value(k, v);
    }
    object.end();
    out
}

/// An error reply, `{"id":…,"ok":false,"error":…}`, paired with the keep-going
/// flag every line service answers with: an error never ends a session.
pub fn fail(id: Option<&str>, e: String) -> (String, bool) {
    let members = vec![("ok", Json::from(false)), ("error", Json::from(e))];
    (with_id(id, members), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A string of up to 24 characters drawn by `seed` from what JSON
    /// text has to treat specially: every control character, `"`, `\`,
    /// `/`, DEL, two- to four-byte UTF-8 (the line separators and the
    /// code points next to the surrogates among them) and plain ASCII.
    fn arbitrary_string(seed: u64) -> String {
        let mut rng = TestRng::for_test(&seed.to_string());
        let len = rng.next_u64() % 25;
        (0..len)
            .map(|_| {
                let r = rng.next_u64();
                match r % 6 {
                    0 => char::from_u32((r >> 8) as u32 % 0x20).unwrap(),
                    1 => ['"', '\\', '/', '\u{7f}'][(r >> 8) as usize % 4],
                    2 => [
                        'é',
                        '€',
                        '😀',
                        '\u{2028}',
                        '\u{d7ff}',
                        '\u{e000}',
                        '\u{10ffff}',
                    ][(r >> 8) as usize % 7],
                    3 => char::from_u32(0x80 + (r >> 8) as u32 % 0xd780).unwrap(),
                    _ => char::from(b' ' + (r >> 8) as u8 % 95),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Rendering a string and parsing it back is the identity, and
        /// what is rendered is one string token with no raw control
        /// character in it.
        #[test]
        fn strings_round_trip(seed in 0u64..u64::MAX) {
            let s = arbitrary_string(seed);
            let text = Json::from(s.as_str()).render();
            prop_assert!(!text.bytes().any(|b| b < 0x20), "{text:?}");
            prop_assert_eq!(Json::parse(&text), Ok(Json::Str(s)));
        }

        /// `with_id` writes the tree it used to build: the request's id
        /// first, then the members, whatever they hold.
        #[test]
        fn with_id_parses_to_the_tree_it_stands_for(seed in 0u64..u64::MAX, has_id in 0u8..2) {
            let id = arbitrary_string(seed);
            let id = (has_id == 1).then_some(id.as_str());
            let text = arbitrary_string(seed ^ 1);
            let members = vec![
                ("ok", Json::from(seed % 2 == 0)),
                ("error", Json::from(text.as_str())),
                ("n", Json::from(seed as f64 / 7.0)),
                ("nested", obj(vec![("a", Json::Arr(vec![Json::Null, Json::from(text.clone())]))])),
            ];
            let mut tree = members.clone();
            if let Some(id) = id {
                tree.insert(0, ("id", Json::from(id)));
            }
            prop_assert_eq!(Json::parse(&with_id(id, members)), Ok(obj(tree)));
        }
    }

    #[test]
    fn roundtrips_protocol_shapes() {
        let line = r#"{"op":"vectorize","id":"r-1","source":"for (int i = 0; i < n; i++) {\n  a[i] = b[i];\n}","detail":true,"n":42}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("vectorize"));
        assert_eq!(v.get("id").unwrap().as_str(), Some("r-1"));
        assert!(v.get("source").unwrap().as_str().unwrap().contains('\n'));
        assert_eq!(v.get("detail").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(42.0));
        // render → parse is the identity.
        let reparsed = Json::parse(&v.render()).unwrap();
        assert_eq!(reparsed, v);
    }

    #[test]
    fn escapes_and_unicode() {
        let v = Json::parse(r#""tab\t quote\" slash\\ é 😀""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" slash\\ é 😀"));
        let rendered = Json::Str("a\"b\\c\nd\u{1}".into()).render();
        assert_eq!(rendered, r#""a\"b\\c\nd\u0001""#);
        assert_eq!(
            Json::parse(&rendered).unwrap().as_str(),
            Some("a\"b\\c\nd\u{1}")
        );
    }

    #[test]
    fn numbers_render_compactly() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("-0.25").unwrap(), Json::Num(-0.25));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nul",
            "{'a':1}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed: {bad}");
        }
    }

    #[test]
    fn arrays_and_nesting() {
        let v = Json::parse(r#"{"loops":[{"vf":8,"if":2},{"vf":1,"if":1}]}"#).unwrap();
        let loops = v.get("loops").unwrap().as_array().unwrap();
        assert_eq!(loops.len(), 2);
        assert_eq!(loops[0].get("vf").unwrap().as_f64(), Some(8.0));
    }
}
