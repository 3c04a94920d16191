//! Offline shim for the subset of `serde` used by this workspace.
//!
//! Instead of serde's visitor-based, format-agnostic architecture, this
//! shim knows one format, and both directions work on its text directly.
//! [`Serialize`] appends a value's compact JSON to a `String` — no
//! intermediate tree, no per-field allocation — and [`Deserialize`] is its
//! dual: [`Deserialize::read_json`] decodes a type straight off the
//! byte-indexed [`Parser`], which lives here so that derived code can
//! reach it. A derived struct matches field names as they stream past, an
//! array pushes straight into its `Vec`, and a value nobody asked for (an
//! unknown key, a later duplicate) is validated by [`Parser::skip`]
//! without being built. `serde_json` owns the entry points. That is
//! sufficient here because the workspace (a) only ever derives the traits
//! — the one hand-written impl, `SimTime`'s `Deserialize`, delegates to
//! `f64`'s — and (b) only uses JSON.
//!
//! [`Value`] is the owned tree that [`Parser::value`] builds for the
//! untyped readers (event files, the benchmark's manifest).
//! [`Deserialize::from_value`] lifts such a tree into a type; no reader
//! calls it, and it is kept as the reference `read_json` is tested
//! against.
//!
//! What typed decoding accepts is exactly what the reference accepts:
//! - every number goes through the one lexeme classifier ([`Number`]), and
//!   the integer types take an integral float inside their range, so `7.0`
//!   is a valid `u64` and `-0` reads as `+0.0` for an `f64`;
//! - an unknown key is ignored, and a repeated key keeps its first value;
//! - a missing key reads as `null`, so an `Option` gives `None` and a
//!   `#[serde(default)]` field gives its default;
//! - nesting is limited to [`MAX_DEPTH`] levels, counted from the
//!   document root, skipped values included.
//!
//! A decode error names the field path and the byte it failed at, e.g.
//! `Epoch.checkpoint.se.replicas[3][7].words[12]: expected an integer,
//! found a string at byte 48213`.
//!
//! Encoding conventions match serde + serde_json defaults for the shapes
//! the workspace uses:
//! - structs → JSON objects keyed by field name;
//! - newtype structs (single-field tuple structs, including
//!   `#[serde(transparent)]` wrappers) → the inner value;
//! - tuple structs of arity ≥ 2 → arrays;
//! - enums → externally tagged: unit variants as `"Name"`, data variants
//!   as `{"Name": ...}`.
//!
//! Number and string formatting:
//! - Floats print as Rust's shortest-round-trip `{:?}` formatting does, so
//!   every finite `f64` survives a serialize/parse round trip exactly
//!   (integral floats render with a trailing `.0`, which the parser maps
//!   back to `F64`; below 10¹⁶ they render on the integer writer, not
//!   through `core::fmt`).
//! - Non-finite floats have no JSON representation; they render as the
//!   out-of-range literals `1e999` / `-1e999`, which `str::parse::<f64>`
//!   reads back as `±inf`. `NaN` renders as `null`. This keeps infinite
//!   simulated latencies (a real sentinel in this codebase) round-trippable.
//! - Strings escape `"`, `\\` and the control characters below U+0020;
//!   everything else, multi-byte UTF-8 included, is copied through.
//!
//! Arrays: `Vec<T>`, `[T]` and `[T; N]` write through the provided hook
//! [`Serialize::write_json_seq`], whose default writes element by element.
//! The integer types and `f64` override it with one chunked writer: the
//! whole array renders into a 4 KB stack chunk — two digits per division
//! off a table, `-` before a negative, an integral float's digits then
//! `.0` — and each chunk is appended with one `push_str`, so a
//! checkpoint's bitset words and a record's `1.0`s and `0.0`s (most of a
//! history record) cost no call per element.

pub use serde_derive::{Deserialize, Serialize};

mod parse;

pub use parse::{Number, Parser, MAX_DEPTH};

use std::fmt::{self, Write as _};

/// An owned JSON data tree: what [`Parser::value`] produces and what
/// [`Deserialize::from_value`] lifts from. It serializes like any other
/// type.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered key/value pairs, so field order is stable and
    /// matches declaration order.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

impl Value {
    /// Short type name used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) | Value::F64(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// One step from a document's root toward the value that failed.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Step {
    Key(String),
    Index(usize),
}

/// A parse or decode error: what went wrong, the byte of the input it was
/// found at, and the path of keys and indices that leads there. Boxed, so
/// that a `Result` the decoders pass back stays two words wide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(Box<ErrorInner>);

#[derive(Clone, Debug, PartialEq, Eq)]
struct ErrorInner {
    message: String,
    byte: Option<usize>,
    /// Innermost step first: containers add theirs as the error leaves them.
    path: Vec<Step>,
}

impl Error {
    pub fn custom(msg: impl Into<String>) -> Error {
        Error(Box::new(ErrorInner {
            message: msg.into(),
            byte: None,
            path: Vec::new(),
        }))
    }

    pub fn expected(what: &str, got: &Value) -> Error {
        Error::custom(format!("expected {what}, found {}", got.kind()))
    }

    /// Places the error at `byte` of the input, unless it already has a
    /// place.
    #[must_use]
    pub fn at(mut self, byte: usize) -> Error {
        self.0.byte.get_or_insert(byte);
        self
    }

    /// Records that the error happened inside the value of key `key`.
    #[must_use]
    pub fn in_field(mut self, key: &str) -> Error {
        self.0.path.push(Step::Key(key.to_string()));
        self
    }

    /// Records that the error happened inside array element `index`.
    #[must_use]
    pub fn in_index(mut self, index: usize) -> Error {
        self.0.path.push(Step::Index(index));
        self
    }

    /// What went wrong, without place or path.
    pub fn message(&self) -> &str {
        &self.0.message
    }

    /// The byte of the input the error was found at, if it came from one.
    pub fn byte(&self) -> Option<usize> {
        self.0.byte
    }

    /// The keys and indices from the root to the failing value, as
    /// `a.b[3].c`; empty at the root.
    pub fn path(&self) -> String {
        let mut out = String::new();
        for step in self.0.path.iter().rev() {
            match step {
                Step::Key(key) if out.is_empty() => out.push_str(key),
                Step::Key(key) => {
                    out.push('.');
                    out.push_str(key);
                }
                Step::Index(i) => {
                    let _ = write!(out, "[{i}]");
                }
            }
        }
        out
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.0.path.is_empty() {
            write!(f, "{}: ", self.path())?;
        }
        f.write_str(&self.0.message)?;
        if let Some(byte) = self.0.byte {
            write!(f, " at byte {byte}")?;
        }
        Ok(())
    }
}

impl std::error::Error for Error {}

/// Appends `self` to `out` as compact JSON.
pub trait Serialize {
    fn write_json(&self, out: &mut String);

    /// Appends `items` as a JSON array: the hook `Vec<T>`, `[T]` and
    /// `[T; N]` write through. The default writes element by element; the
    /// integer types override it with one chunked writer.
    fn write_json_seq(items: &[Self], out: &mut String)
    where
        Self: Sized,
    {
        write_seq(items, out);
    }
}

/// Decodes `Self` from JSON: the dual of [`Serialize::write_json`].
pub trait Deserialize: Sized {
    /// Reads one value off `parser` — the whitespace before it already
    /// skipped — and leaves the parser just past it.
    fn read_json(parser: &mut Parser<'_>) -> Result<Self, Error>;

    /// Lifts an already-parsed [`Value`] tree: the reference decoder that
    /// [`Deserialize::read_json`] must agree with.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Helpers used by derive-generated code. Public but hidden from docs.
// ---------------------------------------------------------------------------

/// Looks up a struct field; missing fields resolve to `Null` so that
/// `Option` fields deserialize to `None`.
#[doc(hidden)]
pub fn get_field<'a>(fields: &'a [(String, Value)], name: &str) -> &'a Value {
    find_field(fields, name).unwrap_or(&NULL)
}

/// Field lookup that distinguishes a missing field (`None`) from an
/// explicit `null`; the derive routes `#[serde(default)]` fields here so
/// absent keys fall back to the default instead of failing on `Null`.
#[doc(hidden)]
pub fn find_field<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// The value of a key the object starting at `object` lacks: whatever
/// `null` decodes to (`None` for an `Option`), else an error naming the
/// key.
#[doc(hidden)]
pub fn missing_field<T: Deserialize>(name: &str, object: usize) -> Result<T, Error> {
    T::read_json(&mut Parser::new("null"))
        .map_err(|_| Error::custom(format!("missing field `{name}`")).at(object))
}

#[doc(hidden)]
pub fn expect_object<'a>(value: &'a Value, ty: &str) -> Result<&'a [(String, Value)], Error> {
    match value {
        Value::Object(fields) => Ok(fields),
        other => Err(Error::expected(ty, other)),
    }
}

#[doc(hidden)]
pub fn expect_array<'a>(value: &'a Value, ty: &str, len: usize) -> Result<&'a [Value], Error> {
    match value {
        Value::Array(items) if items.len() == len => Ok(items),
        Value::Array(items) => Err(Error::custom(format!(
            "expected {ty} with {len} elements, found {}",
            items.len()
        ))),
        other => Err(Error::expected(ty, other)),
    }
}

#[doc(hidden)]
pub fn unknown_variant(ty: &str, tag: &str) -> Error {
    Error::custom(format!("unknown variant `{tag}` for enum {ty}"))
}

// ---------------------------------------------------------------------------
// Scalar writers.
// ---------------------------------------------------------------------------

/// `00`, `01`, …, `99`: an integer renders two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// How many decimal digits `x` has: compares for the short ones (a
/// checkpoint's shard indices), where they beat the logarithm.
fn digit_count(x: u64) -> usize {
    match x {
        0..=9 => 1,
        10..=99 => 2,
        100..=999 => 3,
        1_000..=9_999 => 4,
        _ => x.ilog10() as usize + 1,
    }
}

/// Writes the decimal digits of `x` into `dst`, which is exactly
/// [`digit_count`]`(x)` bytes long, from the last pair to the first.
fn put_digits(mut x: u64, dst: &mut [u8]) {
    let mut end = dst.len();
    while x >= 100 {
        let pair = (x % 100) as usize * 2;
        x /= 100;
        end -= 2;
        dst[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if x >= 10 {
        let pair = x as usize * 2;
        dst[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        dst[0] = b'0' + x as u8;
    }
}

/// Appends the decimal digits of `x`.
fn write_u64(x: u64, out: &mut String) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let len = digit_count(x);
    put_digits(x, &mut digits[..len]);
    flush_ascii(&digits[..len], out);
}

fn write_i64(x: i64, out: &mut String) {
    if x < 0 {
        out.push('-');
    }
    write_u64(x.unsigned_abs(), out);
}

fn write_f64(x: f64, out: &mut String) {
    let mut bytes = [0u8; MAX_FLOAT];
    let len = put_f64(x, &mut bytes);
    flush_ascii(&bytes[..len], out);
}

/// The longest float [`put_f64`] renders: `{:?}` of a finite `f64` is at
/// most 24 bytes (`-2.2250738585072014e-308`); the slot leaves room.
const MAX_FLOAT: usize = 32;

/// Renders `x` into the front of `dst` ([`MAX_FLOAT`] bytes) and returns
/// its length. Finite floats print as `{:?}` does — shortest round trip,
/// always with a `.0` or an exponent, so the number reads back as a float.
/// An integral `|x| < 10¹⁶` is exactly what `{:?}` prints for it, its
/// integer digits and `.0`, so it takes the integer writer instead of
/// `core::fmt`. Non-finite floats have no JSON form: `null` for NaN,
/// `±1e999` (which parse back as `±∞`) for the infinities.
fn put_f64(x: f64, dst: &mut [u8]) -> usize {
    let magnitude = x.abs();
    if magnitude < 1e16 {
        // `as` truncates, and every integer below 10¹⁶ converts back
        // exactly, so the round trip holds exactly for integral values.
        let whole = magnitude as u64;
        if (whole as f64).to_bits() == magnitude.to_bits() {
            let len = put_int((x.is_sign_negative(), whole), dst);
            dst[len..len + 2].copy_from_slice(b".0");
            return len + 2;
        }
    }
    let literal: &[u8] = if x.is_nan() {
        b"null"
    } else if x == f64::INFINITY {
        b"1e999"
    } else if x == f64::NEG_INFINITY {
        b"-1e999"
    } else {
        let mut slot = Slot { dst, len: 0 };
        // A finite float fits the slot, so this write cannot fail.
        let _ = write!(slot, "{x:?}");
        return slot.len;
    };
    dst[..literal.len()].copy_from_slice(literal);
    literal.len()
}

/// A `fmt::Write` over a byte slot; a write past its end fails.
struct Slot<'a> {
    dst: &'a mut [u8],
    len: usize,
}

impl fmt::Write for Slot<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let end = self.len + s.len();
        self.dst
            .get_mut(self.len..end)
            .ok_or(fmt::Error)?
            .copy_from_slice(s.as_bytes());
        self.len = end;
        Ok(())
    }
}

/// Appends `s` as a JSON string literal. Runs that need no escape are
/// copied whole; every byte that does is ASCII, so cutting the `str` at
/// one is always on a character boundary.
fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends `[a,b,…]`.
fn write_seq<T: Serialize>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
}

/// Bytes a number sequence renders on the stack before one `push_str`.
const SEQ_CHUNK: usize = 4096;

/// The longest integer element with its comma: `,-9223372036854775808`
/// and `,18446744073709551615` are both 21 bytes.
const MAX_INT_ELEMENT: usize = 21;

/// Appends `[a,b,…]`, each element rendered by `put` into a stack chunk
/// slot of `max_element − 1` bytes (after its comma), returning the bytes
/// it wrote. Each chunk of at most [`SEQ_CHUNK`] bytes is appended with
/// one `push_str`; a flush may fall anywhere between two elements.
fn write_chunked_seq<T: Copy>(
    items: &[T],
    max_element: usize,
    put: impl Fn(T, &mut [u8]) -> usize,
    out: &mut String,
) {
    let mut chunk = [0u8; SEQ_CHUNK];
    chunk[0] = b'[';
    let mut len = 1;
    for (i, &item) in items.iter().enumerate() {
        // Room for this element and, after the last, the closing `]`.
        if len + max_element >= SEQ_CHUNK {
            flush_ascii(&chunk[..len], out);
            len = 0;
        }
        if i > 0 {
            chunk[len] = b',';
            len += 1;
        }
        len += put(item, &mut chunk[len..len + max_element - 1]);
    }
    chunk[len] = b']';
    flush_ascii(&chunk[..=len], out);
}

/// Renders an integer given as (negative, magnitude) into the front of
/// `dst` and returns its length.
#[inline]
fn put_int((negative, magnitude): (bool, u64), dst: &mut [u8]) -> usize {
    let sign = usize::from(negative);
    dst[0] = b'-';
    let digits = digit_count(magnitude);
    put_digits(magnitude, &mut dst[sign..sign + digits]);
    sign + digits
}

/// Appends rendered digits and punctuation. Every byte is ASCII, so the
/// check, on `str::from_utf8`'s word-at-a-time ASCII path, always passes
/// and the default is never taken.
fn flush_ascii(bytes: &[u8], out: &mut String) {
    out.push_str(std::str::from_utf8(bytes).unwrap_or_default());
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out),
            Value::U64(x) => write_u64(*x, out),
            Value::I64(x) => write_i64(*x, out),
            Value::F64(x) => write_f64(*x, out),
            Value::Str(s) => write_str(s, out),
            Value::Array(items) => write_seq(items, out),
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, item)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(key, out);
                    out.push(':');
                    item.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Primitive impls.
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Deserialize for bool {
    #[inline]
    fn read_json(p: &mut Parser<'_>) -> Result<bool, Error> {
        p.bool()
    }

    fn from_value(value: &Value) -> Result<bool, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other)),
        }
    }
}

/// The number a tree holds, as the classifier produced it.
fn number_of(value: &Value, what: &str) -> Result<Number, Error> {
    match value {
        Value::U64(x) => Ok(Number::U64(*x)),
        Value::I64(x) => Ok(Number::I64(*x)),
        Value::F64(x) => Ok(Number::F64(*x)),
        other => Err(Error::expected(what, other)),
    }
}

/// Reads a number, and places an error in converting it at its first byte.
#[inline]
fn read_number<T>(
    p: &mut Parser<'_>,
    what: &str,
    convert: impl FnOnce(Number) -> Result<T, Error>,
) -> Result<T, Error> {
    let at = p.offset();
    convert(p.number(what)?).map_err(|e| e.at(at))
}

/// 2⁶⁴ and 2⁶³: the first floats past `u64::MAX` and `i64::MAX`. An
/// integral float inside the range converts exactly; one at or beyond it
/// is refused, where `as` would saturate it to the maximum.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

fn out_of_range(x: impl fmt::Display) -> Error {
    Error::custom(format!("integer {x} out of range"))
}

fn not_an_integer(n: Number) -> Error {
    let shown = match n {
        Number::U64(x) => x.to_string(),
        Number::I64(x) => x.to_string(),
        Number::F64(x) => x.to_string(),
    };
    Error::custom(format!("expected an integer, found {shown}"))
}

#[inline]
fn to_u64(n: Number) -> Result<u64, Error> {
    match n {
        Number::U64(x) => Ok(x),
        Number::I64(x) if x >= 0 => Ok(x as u64),
        Number::F64(x) if x.fract() == 0.0 && x >= 0.0 => {
            if x >= TWO_POW_64 {
                return Err(out_of_range(x));
            }
            Ok(x as u64)
        }
        Number::I64(x) => Err(out_of_range(x)),
        other => Err(not_an_integer(other)),
    }
}

#[inline]
fn to_i64(n: Number) -> Result<i64, Error> {
    match n {
        Number::I64(x) => Ok(x),
        Number::U64(x) => i64::try_from(x).map_err(|_| out_of_range(x)),
        Number::F64(x) if x.fract() == 0.0 => {
            if !(-TWO_POW_63..TWO_POW_63).contains(&x) {
                return Err(out_of_range(x));
            }
            Ok(x as i64)
        }
        other => Err(not_an_integer(other)),
    }
}

#[inline]
fn to_f64(n: Number) -> Result<f64, Error> {
    Ok(match n {
        Number::F64(x) => x,
        Number::U64(x) => x as f64,
        Number::I64(x) => x as f64,
    })
}

/// An unsigned integer as the sequence writer takes it.
#[inline]
fn unsigned(x: u64) -> (bool, u64) {
    (false, x)
}

/// A signed integer as the sequence writer takes it.
#[inline]
fn signed(x: i64) -> (bool, u64) {
    (x < 0, x.unsigned_abs())
}

macro_rules! impl_serde_int {
    ($write:ident, $wide:ident, $split:ident, $read:ident: $($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                $write(*self as $wide, out);
            }

            fn write_json_seq(items: &[$t], out: &mut String) {
                write_chunked_seq(items, MAX_INT_ELEMENT, |x, dst| put_int($split(x as $wide), dst), out);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn read_json(p: &mut Parser<'_>) -> Result<$t, Error> {
                read_number(p, "an integer", |n| {
                    let raw = $read(n)?;
                    <$t>::try_from(raw).map_err(|_| out_of_range(raw))
                })
            }

            fn from_value(value: &Value) -> Result<$t, Error> {
                let raw = $read(number_of(value, "integer")?)?;
                <$t>::try_from(raw).map_err(|_| out_of_range(raw))
            }
        }
    )*};
}

impl_serde_int!(write_u64, u64, unsigned, to_u64: u8, u16, u32, u64, usize);
impl_serde_int!(write_i64, i64, signed, to_i64: i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(*self, out);
    }

    fn write_json_seq(items: &[f64], out: &mut String) {
        write_chunked_seq(items, 1 + MAX_FLOAT, put_f64, out);
    }
}

impl Deserialize for f64 {
    #[inline]
    fn read_json(p: &mut Parser<'_>) -> Result<f64, Error> {
        read_number(p, "a number", to_f64)
    }

    fn from_value(value: &Value) -> Result<f64, Error> {
        to_f64(number_of(value, "number")?)
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) {
        write_f64(f64::from(*self), out);
    }
}

impl Deserialize for f32 {
    fn read_json(p: &mut Parser<'_>) -> Result<f32, Error> {
        f64::read_json(p).map(|x| x as f32)
    }

    fn from_value(value: &Value) -> Result<f32, Error> {
        f64::from_value(value).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Deserialize for String {
    fn read_json(p: &mut Parser<'_>) -> Result<String, Error> {
        p.string("a string").map(std::borrow::Cow::into_owned)
    }

    fn from_value(value: &Value) -> Result<String, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) {
        write_str(self, out);
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) {
        write_str(self.encode_utf8(&mut [0; 4]), out);
    }
}

fn one_char(s: &str) -> Option<char> {
    let mut chars = s.chars();
    let c = chars.next()?;
    chars.next().is_none().then_some(c)
}

impl Deserialize for char {
    fn read_json(p: &mut Parser<'_>) -> Result<char, Error> {
        let at = p.offset();
        let s = p.string("a single-character string")?;
        one_char(&s).ok_or_else(|| {
            Error::custom(format!("expected a single-character string, found {s:?}")).at(at)
        })
    }

    fn from_value(value: &Value) -> Result<char, Error> {
        match value {
            Value::Str(s) => one_char(s),
            _ => None,
        }
        .ok_or_else(|| Error::expected("single-character string", value))
    }
}

// ---------------------------------------------------------------------------
// Generic container impls.
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn read_json(p: &mut Parser<'_>) -> Result<Box<T>, Error> {
        T::read_json(p).map(Box::new)
    }

    fn from_value(value: &Value) -> Result<Box<T>, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(inner) => inner.write_json(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(p: &mut Parser<'_>) -> Result<Option<T>, Error> {
        if p.null()? {
            return Ok(None);
        }
        T::read_json(p).map(Some)
    }

    fn from_value(value: &Value) -> Result<Option<T>, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        T::write_json_seq(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(p: &mut Parser<'_>) -> Result<Vec<T>, Error> {
        let mut items = Vec::new();
        let mut more = p.begin_array("an array")?;
        while more {
            items.push(T::read_json(p).map_err(|e| e.in_index(items.len()))?);
            more = p.next_element()?;
        }
        Ok(items)
    }

    fn from_value(value: &Value) -> Result<Vec<T>, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        T::write_json_seq(self, out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        T::write_json_seq(self, out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn read_json(p: &mut Parser<'_>) -> Result<[T; N], Error> {
        let mut items = Vec::with_capacity(N);
        for i in 0..N {
            items.push(p.element("a fixed-size array", N, i)?);
        }
        p.end_elements("a fixed-size array", N)?;
        items
            .try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }

    fn from_value(value: &Value) -> Result<[T; N], Error> {
        let items = expect_array(value, "fixed-size array", N)?;
        let parsed: Vec<T> = items.iter().map(T::from_value).collect::<Result<_, _>>()?;
        parsed
            .try_into()
            .map_err(|_| Error::custom("array length mismatch"))
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+);)*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, out: &mut String) {
                $(
                    out.push(if $idx == 0 { '[' } else { ',' });
                    self.$idx.write_json(out);
                )+
                out.push(']');
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn read_json(p: &mut Parser<'_>) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                let tuple = ($(p.element::<$name>("a tuple", LEN, $idx)?,)+);
                p.end_elements("a tuple", LEN)?;
                Ok(tuple)
            }

            fn from_value(value: &Value) -> Result<Self, Error> {
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                let items = expect_array(value, "tuple", LEN)?;
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0);
    (A: 0, B: 1);
    (A: 0, B: 1, C: 2);
    (A: 0, B: 1, C: 2, D: 3);
    (A: 0, B: 1, C: 2, D: 3, E: 4);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.write_json(&mut out);
        out
    }

    #[test]
    fn an_error_names_its_path_and_byte() {
        let err = Error::custom("expected an integer, found a string")
            .at(48)
            .at(7)
            .in_index(12)
            .in_field("words")
            .in_index(7)
            .in_index(3)
            .in_field("replicas");
        assert_eq!(err.path(), "replicas[3][7].words[12]");
        assert_eq!(err.byte(), Some(48));
        assert_eq!(
            err.to_string(),
            "replicas[3][7].words[12]: expected an integer, found a string at byte 48"
        );
        assert_eq!(Error::custom("bare").to_string(), "bare");
    }

    #[test]
    fn option_round_trips_through_null() {
        let none: Option<u32> = None;
        assert_eq!(json(&none), "null");
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(json(&Some(7u32)), "7");
    }

    #[test]
    fn arrays_round_trip() {
        let bytes = [1u8, 2, 3];
        assert_eq!(json(&bytes), "[1,2,3]");
        let v = Value::Array(bytes.iter().map(|&b| Value::U64(u64::from(b))).collect());
        assert_eq!(<[u8; 3]>::from_value(&v).unwrap(), bytes);
        assert!(<[u8; 4]>::from_value(&v).is_err());
    }

    #[test]
    fn missing_field_reads_as_null() {
        let fields = vec![("a".to_string(), Value::U64(1))];
        assert_eq!(get_field(&fields, "a"), &Value::U64(1));
        assert_eq!(get_field(&fields, "b"), &Value::Null);
    }

    #[test]
    fn signed_integers_read_from_either_integer_kind() {
        assert_eq!(json(&5i64), "5");
        assert_eq!(json(&-5i64), "-5");
        assert_eq!(json(&i64::MIN), "-9223372036854775808");
        assert_eq!(i64::from_value(&Value::U64(5)).unwrap(), 5);
        assert_eq!(i64::from_value(&Value::I64(-5)).unwrap(), -5);
    }

    /// What `write_f64` must print: `{:?}` for a finite float, the
    /// documented literals for the rest.
    fn debug_json(x: f64) -> String {
        if x.is_nan() {
            "null".to_string()
        } else if x.is_infinite() {
            if x > 0.0 { "1e999" } else { "-1e999" }.to_string()
        } else {
            format!("{x:?}")
        }
    }

    /// The float writer, scalar and chunked sequence, against `{:?}` and
    /// the element-by-element writer: every edge of the integral fast
    /// path, then 100k random bit patterns and 100k random integral
    /// floats, in sequences whose rendering crosses the 4 KB flush many
    /// times.
    #[test]
    fn float_writer_matches_debug_formatting() {
        let two_53 = 9_007_199_254_740_992.0f64;
        let mut floats = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e15,
            -1e15,
            9_999_999_999_999_998.0,
            -9_999_999_999_999_998.0,
            1e16,
            -1e16,
            10_000_000_000_000_002.0,
            two_53 - 1.0,
            two_53,
            // 2⁵³ + 1 rounds to 2⁵³; the next float is 2⁵³ + 2.
            f64::from_bits(two_53.to_bits() + 1),
            -(two_53 - 1.0),
            -two_53,
            TWO_POW_63,
            TWO_POW_64,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 7.0,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            -2.225_073_858_507_201_4e-308,
        ];
        // xorshift64*: a fixed stream of bit patterns, then of integral
        // floats below and around 10¹⁶ of either sign.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..100_000 {
            floats.push(f64::from_bits(next()));
        }
        for _ in 0..100_000 {
            let bits = next();
            let whole = ((bits >> 8) % 20_000_000_000_000_000) >> (bits % 64);
            let x = whole as f64;
            floats.push(if bits & 0x80 == 0 { x } else { -x });
        }
        for &x in &floats {
            assert_eq!(json(&x), debug_json(x), "bits {:#x}", x.to_bits());
        }
        for len in [0, 1, 2, 170, 171, 1_000] {
            for items in floats.chunks(len.max(1)).take(50) {
                let items = &items[..len.min(items.len())];
                let mut by_element = String::new();
                write_seq(items, &mut by_element);
                let chunked = json(items);
                assert_eq!(chunked, by_element);
                let reference: Vec<String> = items.iter().map(|&x| debug_json(x)).collect();
                assert_eq!(chunked, format!("[{}]", reference.join(",")));
            }
        }
        let all = json(&floats[..]);
        assert!(all.len() > 100 * SEQ_CHUNK, "{} bytes", all.len());
        let mut by_element = String::new();
        write_seq(&floats, &mut by_element);
        assert_eq!(all, by_element);
    }

    #[test]
    fn integral_floats_convert_only_inside_the_target_range() {
        assert_eq!(u64::from_value(&Value::F64(4096.0)).unwrap(), 4096);
        assert_eq!(i64::from_value(&Value::F64(-4096.0)).unwrap(), -4096);
        assert_eq!(i64::from_value(&Value::F64(-TWO_POW_63)).unwrap(), i64::MIN);
        assert_eq!(u8::from_value(&Value::F64(255.0)).unwrap(), 255);
        // `as` would turn each of these into the target's MAX or MIN.
        for beyond in [1e30, TWO_POW_64, f64::MAX] {
            assert!(u64::from_value(&Value::F64(beyond)).is_err(), "{beyond}");
        }
        for beyond in [1e30, -1e30, TWO_POW_63, f64::MIN] {
            assert!(i64::from_value(&Value::F64(beyond)).is_err(), "{beyond}");
        }
        assert!(u8::from_value(&Value::F64(256.0)).is_err());
        assert!(u64::from_value(&Value::F64(f64::INFINITY)).is_err());
        assert!(u64::from_value(&Value::F64(0.5)).is_err());
    }
}
