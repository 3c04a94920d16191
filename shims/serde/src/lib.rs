//! Offline shim for the subset of `serde` used by this workspace.
//!
//! Instead of serde's visitor-based, format-agnostic architecture, this
//! shim knows one format. [`Serialize`] appends a value's compact JSON
//! straight to a `String` — no intermediate tree, no per-field allocation
//! — and [`Deserialize`] lifts a parsed [`Value`] tree into a type;
//! `serde_json` owns the parser and the entry points. That is sufficient
//! here because the workspace (a) only ever derives the traits — there
//! are no manual `impl Serialize` blocks — and (b) only uses JSON.
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
//! - Floats print via Rust's shortest-round-trip `{:?}` formatting, so
//!   every finite `f64` survives a serialize/parse round trip exactly
//!   (integral floats render with a trailing `.0`, which the parser maps
//!   back to `F64`).
//! - Non-finite floats have no JSON representation; they render as the
//!   out-of-range literals `1e999` / `-1e999`, which `str::parse::<f64>`
//!   reads back as `±inf`. `NaN` renders as `null`. This keeps infinite
//!   simulated latencies (a real sentinel in this codebase) round-trippable.
//! - Strings escape `"`, `\\` and the control characters below U+0020;
//!   everything else, multi-byte UTF-8 included, is copied through.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt::{self, Write as _};

/// An owned JSON data tree: what the parser produces and what
/// [`Deserialize`] lifts from. It serializes like any other type.
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

/// Error raised while lifting a [`Value`] back into a typed structure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    pub fn custom(msg: impl Into<String>) -> Error {
        Error(msg.into())
    }

    pub fn expected(what: &str, got: &Value) -> Error {
        Error(format!("expected {what}, found {}", got.kind()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Appends `self` to `out` as compact JSON.
pub trait Serialize {
    fn write_json(&self, out: &mut String);
}

/// Lifts a [`Value`] tree back into `Self`.
pub trait Deserialize: Sized {
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

/// Appends the decimal digits of `x`.
fn write_u64(mut x: u64, out: &mut String) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

fn write_i64(x: i64, out: &mut String) {
    if x < 0 {
        out.push('-');
    }
    write_u64(x.unsigned_abs(), out);
}

fn write_f64(x: f64, out: &mut String) {
    if x.is_nan() {
        out.push_str("null");
    } else if x == f64::INFINITY {
        out.push_str("1e999");
    } else if x == f64::NEG_INFINITY {
        out.push_str("-1e999");
    } else {
        // `{:?}` is shortest-round-trip and always includes `.0` or an
        // exponent, keeping the number recognizably float-typed. Writing
        // to a `String` cannot fail.
        let _ = write!(out, "{x:?}");
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
fn write_seq<'a, T: Serialize + 'a>(items: impl IntoIterator<Item = &'a T>, out: &mut String) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out);
    }
    out.push(']');
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
    fn from_value(value: &Value) -> Result<bool, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::expected("bool", other)),
        }
    }
}

/// 2⁶⁴ and 2⁶³: the first floats past `u64::MAX` and `i64::MAX`. An
/// integral float inside the range converts exactly; one at or beyond it
/// is refused, where `as` would saturate it to the maximum.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

fn out_of_range(x: impl fmt::Display) -> Error {
    Error::custom(format!("integer {x} out of range"))
}

macro_rules! impl_serde_uint {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_u64(*self as u64, out);
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<$t, Error> {
                let raw = match value {
                    Value::U64(x) => *x,
                    Value::I64(x) if *x >= 0 => *x as u64,
                    Value::F64(x) if x.fract() == 0.0 && *x >= 0.0 => {
                        if *x >= TWO_POW_64 {
                            return Err(out_of_range(x));
                        }
                        *x as u64
                    }
                    other => return Err(Error::expected("unsigned integer", other)),
                };
                <$t>::try_from(raw).map_err(|_| out_of_range(raw))
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) {
                write_i64(*self as i64, out);
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<$t, Error> {
                let raw = match value {
                    Value::I64(x) => *x,
                    Value::U64(x) => i64::try_from(*x)
                        .map_err(|_| Error::custom("integer out of i64 range"))?,
                    Value::F64(x) if x.fract() == 0.0 => {
                        if !(-TWO_POW_63..TWO_POW_63).contains(x) {
                            return Err(out_of_range(x));
                        }
                        *x as i64
                    }
                    other => return Err(Error::expected("integer", other)),
                };
                <$t>::try_from(raw).map_err(|_| out_of_range(raw))
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) {
        write_f64(*self, out);
    }
}

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<f64, Error> {
        match value {
            Value::F64(x) => Ok(*x),
            Value::U64(x) => Ok(*x as f64),
            Value::I64(x) => Ok(*x as f64),
            other => Err(Error::expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) {
        write_f64(f64::from(*self), out);
    }
}

impl Deserialize for f32 {
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

impl Deserialize for char {
    fn from_value(value: &Value) -> Result<char, Error> {
        match value {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error::expected("single-character string", other)),
        }
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
    fn from_value(value: &Value) -> Result<Option<T>, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Vec<T>, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::expected("array", other)),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) {
        write_seq(self, out);
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
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
