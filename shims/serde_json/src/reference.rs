//! The writer and the parser this crate had before its byte path was
//! rewritten, kept verbatim as the references the differential tests
//! compare against: [`write_value`] renders a hand-built [`Value`] tree
//! (what `Serialize` used to lower every type to), [`parse`] is the
//! `Peekable<Chars>` recursive descent — which has no depth limit, so
//! tests must not hand it deep nesting.

use crate::Error;
use serde::Value;

pub(crate) fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => write_float(*x, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_float(x: f64, out: &mut String) {
    if x.is_nan() {
        out.push_str("null");
    } else if x == f64::INFINITY {
        out.push_str("1e999");
    } else if x == f64::NEG_INFINITY {
        out.push_str("-1e999");
    } else {
        // `{:?}` is shortest-round-trip and always includes `.0` or an
        // exponent, keeping the number recognizably float-typed.
        out.push_str(&format!("{x:?}"));
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over chars.
// ---------------------------------------------------------------------------

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
    /// Consumed-character count, for error positions.
    pos: usize,
}

pub(crate) fn parse(input: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        chars: input.chars().peekable(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.chars.peek().is_some() {
        return Err(Error::new(format!(
            "trailing characters after JSON value at position {}",
            parser.pos
        )));
    }
    Ok(value)
}

impl Parser<'_> {
    fn bump(&mut self) -> Option<char> {
        let c = self.chars.next();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), Error> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => Err(Error::new(format!(
                "expected `{want}` at position {}, found `{c}`",
                self.pos
            ))),
            None => Err(Error::new(format!("expected `{want}`, found end of input"))),
        }
    }

    fn expect_keyword(&mut self, rest: &str) -> Result<(), Error> {
        for want in rest.chars() {
            match self.bump() {
                Some(c) if c == want => {}
                _ => {
                    return Err(Error::new(format!(
                        "invalid literal near position {}",
                        self.pos
                    )))
                }
            }
        }
        Ok(())
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.chars.peek() {
            Some('n') => {
                self.expect_keyword("null")?;
                Ok(Value::Null)
            }
            Some('t') => {
                self.expect_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some('f') => {
                self.expect_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some('"') => self.parse_string().map(Value::Str),
            Some('[') => self.parse_array(),
            Some('{') => self.parse_object(),
            Some(c) if *c == '-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(Error::new(format!(
                "unexpected character `{c}` at position {}",
                self.pos
            ))),
            None => Err(Error::new("unexpected end of input")),
        }
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some(']') => return Ok(Value::Array(items)),
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` in array at position {}",
                        self.pos
                    )));
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect('{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&'}') {
            self.bump();
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(',') => {}
                Some('}') => return Ok(Value::Object(fields)),
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` in object at position {}",
                        self.pos
                    )));
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect('"')?;
        let mut s = String::new();
        loop {
            match self.bump() {
                None => return Err(Error::new("unterminated string")),
                Some('"') => return Ok(s),
                Some('\\') => match self.bump() {
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('/') => s.push('/'),
                    Some('b') => s.push('\u{08}'),
                    Some('f') => s.push('\u{0c}'),
                    Some('n') => s.push('\n'),
                    Some('r') => s.push('\r'),
                    Some('t') => s.push('\t'),
                    Some('u') => {
                        let hi = self.parse_hex4()?;
                        let code = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: expect a trailing \uXXXX.
                            self.expect('\\')?;
                            self.expect('u')?;
                            let lo = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(Error::new("invalid low surrogate"));
                            }
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            hi
                        };
                        match char::from_u32(code) {
                            Some(c) => s.push(c),
                            None => return Err(Error::new("invalid unicode escape")),
                        }
                    }
                    other => {
                        return Err(Error::new(format!("invalid escape `{other:?}`")));
                    }
                },
                Some(c) => s.push(c),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, Error> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .bump()
                .and_then(|c| c.to_digit(16))
                .ok_or_else(|| Error::new("invalid \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let mut text = String::new();
        let mut is_float = false;
        if self.chars.peek() == Some(&'-') {
            text.push('-');
            self.bump();
        }
        while let Some(&c) = self.chars.peek() {
            match c {
                '0'..='9' => {
                    text.push(c);
                    self.bump();
                }
                '.' | 'e' | 'E' | '+' | '-' => {
                    is_float = true;
                    text.push(c);
                    self.bump();
                }
                _ => break,
            }
        }
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}
