//! The byte-indexed JSON parser: recursive descent over the input's bytes,
//! at most [`MAX_DEPTH`] containers deep.
//!
//! One set of lexical steps — a scalar, a container's opening bracket, the
//! separator after an item — serves three readers: [`Parser::value`]
//! builds a [`Value`] tree (the untyped readers), [`Parser::skip`]
//! validates a value without building anything (unknown keys, later
//! duplicates), and [`Deserialize::read_json`] decodes straight into a
//! type. Whichever reads a document, it passes the same bytes through the
//! same checks, so all three accept and refuse the same syntax.

use std::borrow::Cow;
use std::fmt;

use crate::{Deserialize, Error, Value};

/// Deepest accepted nesting of arrays and objects (upstream `serde_json`'s
/// default limit), counted from the document root. The parser recurses
/// once per level.
pub const MAX_DEPTH: usize = 128;

/// A number token as the one lexeme classifier reads it: without a float
/// character (`. e E + -` after the sign) it is a `u64` if that fits, else
/// an `i64`, else (too large for either) an `f64` like every other token.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Number {
    U64(u64),
    I64(i64),
    F64(f64),
}

/// A cursor over one JSON document. Before any value is read, the
/// whitespace in front of it has been skipped; a read leaves the cursor
/// just past the value.
#[derive(Debug)]
pub struct Parser<'a> {
    text: &'a str,
    /// Index of the next unread byte.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

/// Exact powers of ten, `10^0` to `10^15`.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// The value and length of the number token at the start of `bytes`, for
/// the two shapes the writer emits most, read the way `str::parse` reads
/// them; `None` for anything else. Up to 19 digits alone are a `u64` (19
/// digits cannot overflow one). An optional `-`, digits, `.` and digits,
/// 15 digits in all, are an `f64`: both the digits as an integer and the
/// power of ten are exact doubles, so one correctly rounded division gives
/// the correctly rounded value, as `parse::<f64>` does.
#[inline]
fn common_number(bytes: &[u8]) -> Option<(Number, usize)> {
    let negative = bytes.first() == Some(&b'-');
    let mut end = usize::from(negative);
    let mut digits = 0u64;
    let mut count = 0;
    let mut run = |end: &mut usize, count: &mut usize| {
        while let Some(&digit @ b'0'..=b'9') = bytes.get(*end) {
            digits = digits
                .wrapping_mul(10)
                .wrapping_add(u64::from(digit - b'0'));
            *end += 1;
            *count += 1;
        }
    };
    run(&mut end, &mut count);
    let whole = count;
    let fraction = (bytes.get(end) == Some(&b'.')).then(|| {
        end += 1;
        run(&mut end, &mut count);
        count - whole
    });
    if whole == 0 || matches!(bytes.get(end), Some(b'.' | b'e' | b'E' | b'+' | b'-')) {
        return None;
    }
    match (negative, fraction) {
        (false, None) if count <= 19 => Some((Number::U64(digits), end)),
        (_, Some(fraction @ 1..)) if count <= 15 => {
            let x = digits as f64 / POW10[fraction];
            Some((Number::F64(if negative { -x } else { x }), end))
        }
        _ => None,
    }
}

impl<'a> Parser<'a> {
    /// A parser at the first value of `text`.
    pub fn new(text: &'a str) -> Parser<'a> {
        let mut parser = Parser {
            text,
            pos: 0,
            depth: 0,
        };
        parser.skip_ws();
        parser
    }

    /// Index of the next unread byte: where the next value starts.
    #[inline]
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Refuses anything but whitespace after the document's value.
    pub fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos < self.text.len() {
            return Err(self.error("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn error(&self, what: impl fmt::Display) -> Error {
        Error::custom(what.to_string()).at(self.pos)
    }

    /// The next unread byte, if any.
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// What stands at `pos`, for error messages: the whole character, not
    /// its first byte (`pos` is always on a character boundary here).
    fn found(&self) -> String {
        match self
            .text
            .get(self.pos..)
            .and_then(|rest| rest.chars().next())
        {
            Some(c) => format!("`{c}`"),
            None => "end of input".to_string(),
        }
    }

    /// The error for a value that is not `what`: names the kind of value
    /// that stands here if it scans, or else its syntax error — `tru` is
    /// an invalid literal, not a bool.
    pub fn unexpected(&self, what: &str) -> Error {
        let found = match self.peek() {
            Some(b'n') => "null",
            Some(b't' | b'f') => "a bool",
            Some(b'"') => "a string",
            Some(b'[') => "an array",
            Some(b'{') => "an object",
            Some(b'-' | b'0'..=b'9') => "a number",
            Some(_) => return self.error(format_args!("unexpected character {}", self.found())),
            None => return self.error("unexpected end of input"),
        };
        let mut probe = Parser {
            text: self.text,
            pos: self.pos,
            depth: self.depth,
        };
        if let Err(syntax) = probe.skip() {
            return syntax;
        }
        self.error(format_args!("expected {what}, found {found}"))
    }

    fn expect(&mut self, want: u8) -> Result<(), Error> {
        if self.peek() == Some(want) {
            self.pos += 1;
            return Ok(());
        }
        Err(self.error(format_args!(
            "expected `{}`, found {}",
            char::from(want),
            self.found()
        )))
    }

    fn keyword(&mut self, word: &str) -> Result<(), Error> {
        let rest = &self.text.as_bytes()[self.pos..];
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            return Ok(());
        }
        // Names what stands here: its first 32 letters and digits (ASCII,
        // so the slice ends on a character boundary).
        let len = rest
            .iter()
            .take(32)
            .take_while(|b| b.is_ascii_alphanumeric())
            .count();
        let literal = &self.text[self.pos..self.pos + len];
        Err(self.error(format_args!("invalid literal `{literal}`")))
    }

    // ---- the three readers ----------------------------------------------

    /// Parses one value into a [`Value`] tree.
    pub fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.keyword("null").map(|()| Value::Null),
            Some(b't' | b'f') => self.bool().map(Value::Bool),
            Some(b'"') => self.string("a string").map(|s| Value::Str(s.into_owned())),
            Some(b'[') => {
                let mut items = Vec::new();
                let mut more = self.begin_array("an array")?;
                while more {
                    items.push(self.value()?);
                    more = self.next_element()?;
                }
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut fields = Vec::new();
                let mut key = self.begin_object("an object")?;
                while let Some(k) = key {
                    fields.push((k.into_owned(), self.value()?));
                    key = self.next_key()?;
                }
                Ok(Value::Object(fields))
            }
            Some(b'-' | b'0'..=b'9') => Ok(match self.number("a number")? {
                Number::U64(x) => Value::U64(x),
                Number::I64(x) => Value::I64(x),
                Number::F64(x) => Value::F64(x),
            }),
            _ => Err(self.unexpected("a value")),
        }
    }

    /// Steps over one value, checking it as [`Parser::value`] would but
    /// building nothing.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'n') => self.keyword("null"),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'"') => self.string("a string").map(drop),
            Some(b'[') => {
                let mut more = self.begin_array("an array")?;
                while more {
                    self.skip()?;
                    more = self.next_element()?;
                }
                Ok(())
            }
            Some(b'{') => {
                let mut key = self.begin_object("an object")?;
                while key.is_some() {
                    self.skip()?;
                    key = self.next_key()?;
                }
                Ok(())
            }
            Some(b'-' | b'0'..=b'9') => self.number("a number").map(drop),
            _ => Err(self.unexpected("a value")),
        }
    }

    // ---- scalars ----------------------------------------------------------

    /// Consumes a `null` if one stands here; `false` (nothing consumed)
    /// for any other value.
    #[inline]
    pub fn null(&mut self) -> Result<bool, Error> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.keyword("null").map(|()| true)
    }

    /// Reads `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.keyword("true").map(|()| true),
            Some(b'f') => self.keyword("false").map(|()| false),
            _ => Err(self.unexpected("a bool")),
        }
    }

    /// Reads a number token; anything else is an error naming `what`.
    ///
    /// A token is the longest run of `0-9 . e E + -` after an optional
    /// leading `-`; what it means is `str::parse`'s call (see [`Number`]).
    #[inline]
    pub fn number(&mut self, what: &str) -> Result<Number, Error> {
        let start = self.pos;
        if let Some((number, end)) = common_number(&self.text.as_bytes()[start..]) {
            self.pos = start + end;
            return Ok(number);
        }
        match self.peek() {
            Some(b'-') => self.pos += 1,
            Some(b'0'..=b'9') => {}
            _ => return Err(self.unexpected(what)),
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if !is_float {
            if let Ok(u) = token.parse::<u64>() {
                return Ok(Number::U64(u));
            }
            if let Ok(i) = token.parse::<i64>() {
                return Ok(Number::I64(i));
            }
        }
        token
            .parse::<f64>()
            .map(Number::F64)
            .map_err(|_| Error::custom(format!("invalid number `{token}`")).at(start))
    }

    /// Reads a string; anything else is an error naming `what`. Borrows
    /// from the input unless the string holds an escape.
    pub fn string(&mut self, what: &str) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.unexpected(what));
        }
        self.quoted()
    }

    /// A string literal at `pos`; errors name the missing `"` when there
    /// is none (an object key must be one).
    fn quoted(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            // `"` and `\` are ASCII, so a run between two of them starts
            // and ends on a character boundary.
            let run = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            let Some(stop) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            if stop == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(&text[run..self.pos - 1]),
                    Some(mut s) => {
                        s.push_str(&text[run..self.pos - 1]);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(&text[run..self.pos - 1]);
            s.push(self.escape()?);
        }
    }

    /// The character an escape stands for; `pos` is just past the `\`.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: expect a trailing \uXXXX.
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                return char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"));
            }
            _ => return Err(self.error(format_args!("invalid escape {}", self.found()))),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.error("invalid \\u escape"))?;
            self.pos += 1;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    // ---- containers -------------------------------------------------------

    /// Consumes `open` one nesting level down, refusing to pass
    /// [`MAX_DEPTH`]; anything but `open` is an error naming `what`.
    #[inline]
    fn open(&mut self, open: u8, what: &str) -> Result<(), Error> {
        if self.peek() != Some(open) {
            return Err(self.unexpected(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format_args!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(())
    }

    /// Steps over what follows an item of a container: `close` ends it
    /// (`true`, one level up), `,` announces another item.
    #[inline]
    fn closes(&mut self, close: u8, container: &str) -> Result<bool, Error> {
        self.skip_ws();
        let closed = match self.peek() {
            Some(b',') => false,
            Some(b) if b == close => true,
            _ => {
                return Err(self.error(format_args!(
                    "expected `,` or `{}` in {container}, found {}",
                    char::from(close),
                    self.found()
                )))
            }
        };
        self.pos += 1;
        if closed {
            self.depth -= 1;
        } else {
            self.skip_ws();
        }
        Ok(closed)
    }

    /// Opens an array (anything else is an error naming `what`); `true`
    /// when an element follows, `false` when the array was `[]`.
    #[inline]
    pub fn begin_array(&mut self, what: &str) -> Result<bool, Error> {
        self.open(b'[', what)?;
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an element: `true` when another follows, `false` once the
    /// array has closed.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.closes(b']', "array").map(|closed| !closed)
    }

    /// Opens an object (anything else is an error naming `what`) and
    /// reads its first key and the `:` after it; `None` for `{}`.
    pub fn begin_object(&mut self, what: &str) -> Result<Option<Cow<'a, str>>, Error> {
        self.open(b'{', what)?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(None);
        }
        self.key().map(Some)
    }

    /// After a member's value: the next key, or `None` once the object
    /// has closed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if self.closes(b'}', "object")? {
            return Ok(None);
        }
        self.key().map(Some)
    }

    fn key(&mut self) -> Result<Cow<'a, str>, Error> {
        let key = self.quoted()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Reads element `index` of a fixed-length array of `len` elements
    /// (`what`): the array opens before element 0, a `,` comes before each
    /// later one, and a `]` in its place is too few elements. Errors inside
    /// the element carry its index.
    pub fn element<T: Deserialize>(
        &mut self,
        what: &str,
        len: usize,
        index: usize,
    ) -> Result<T, Error> {
        let more = if index == 0 {
            self.begin_array(what)?
        } else {
            self.next_element()?
        };
        if !more {
            return Err(Error::custom(format!(
                "expected {what} with {len} elements, found {index}"
            ))
            .at(self.pos - 1));
        }
        T::read_json(self).map_err(|e| e.in_index(index))
    }

    /// Closes a fixed-length array of `len` elements after its last one;
    /// `len == 0` opens it too.
    pub fn end_elements(&mut self, what: &str, len: usize) -> Result<(), Error> {
        let more = if len == 0 {
            self.begin_array(what)?
        } else {
            self.next_element()?
        };
        if more {
            return Err(
                Error::custom(format!("expected {what} with {len} elements, found more"))
                    .at(self.pos),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the classifier makes of `token` without the common shapes.
    fn classified(token: &str) -> Option<Number> {
        if !token.contains(['.', 'e', 'E', '+']) && !token[1..].contains('-') {
            if let Ok(u) = token.parse::<u64>() {
                return Some(Number::U64(u));
            }
            if let Ok(i) = token.parse::<i64>() {
                return Some(Number::I64(i));
            }
        }
        token.parse::<f64>().ok().map(Number::F64)
    }

    #[test]
    fn the_common_shapes_read_as_str_parse_reads_them() {
        // SplitMix64 over digit strings of every length the shortcut takes
        // and one past it, the `.` anywhere, with and without a sign.
        let mut state = 3u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut taken = 0;
        for _ in 0..200_000 {
            let len = 1 + (next() % 21) as usize;
            let mut token: String = (0..len)
                .map(|_| char::from(b'0' + (next() % 10) as u8))
                .collect();
            match next() % 3 {
                0 => {}
                1 => token.insert(1 + (next() as usize) % len, '.'),
                _ => token.insert((next() as usize) % (len + 1), '.'),
            }
            if next() % 2 == 0 {
                token.insert(0, '-');
            }
            let Some((number, end)) = common_number(token.as_bytes()) else {
                continue;
            };
            taken += 1;
            assert_eq!(end, token.len(), "{token}");
            let want = classified(&token).unwrap();
            match (number, want) {
                (Number::F64(a), Number::F64(b)) => assert_eq!(a.to_bits(), b.to_bits(), "{token}"),
                (a, b) => assert_eq!(a, b, "{token}"),
            }
        }
        assert!(taken > 50_000, "{taken}");
        for refused in [
            "",
            "-",
            ".5",
            "5.",
            "-.5",
            "1e5",
            "1.5e3",
            "12345678901234567890",
            "-7",
        ] {
            assert!(common_number(refused.as_bytes()).is_none(), "{refused}");
        }
        // The token ends where the classifier's would; a float character
        // after it hands the whole token back.
        assert_eq!(common_number(b"12,"), Some((Number::U64(12), 2)));
        assert_eq!(common_number(b"0.25]"), Some((Number::F64(0.25), 4)));
        assert!(common_number(b"1.5.5").is_none() && common_number(b"15-").is_none());
    }
}
