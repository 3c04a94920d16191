//! Offline shim for the subset of `serde` used by this workspace.
//!
//! Instead of serde's visitor-based, format-agnostic architecture, this
//! shim routes everything through an owned [`Value`] tree: `Serialize`
//! lowers a type to a `Value`, `Deserialize` lifts it back, and
//! `serde_json` renders/parses `Value`s. That is sufficient here because
//! the workspace (a) only ever derives the traits — there are no manual
//! `impl Serialize` blocks — and (b) only uses the JSON format.
//!
//! Encoding conventions match serde + serde_json defaults for the shapes
//! the workspace uses:
//! - structs → JSON objects keyed by field name;
//! - newtype structs (single-field tuple structs, including
//!   `#[serde(transparent)]` wrappers) → the inner value;
//! - tuple structs of arity ≥ 2 → arrays;
//! - enums → externally tagged: unit variants as `"Name"`, data variants
//!   as `{"Name": ...}`.

#![allow(clippy::disallowed_types, reason = "vendored API surface")]

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An owned, format-independent data tree (the shim's serialization
/// intermediate representation).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered key/value pairs, so serialized field order is
    /// stable and matches declaration order.
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

/// Lowers `self` into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
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
    fields
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or(&NULL)
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
// Primitive impls.
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
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

macro_rules! impl_serde_uint {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<$t, Error> {
                let raw = match value {
                    Value::U64(x) => *x,
                    Value::I64(x) if *x >= 0 => *x as u64,
                    Value::F64(x) if x.fract() == 0.0 && *x >= 0.0 => *x as u64,
                    other => return Err(Error::expected("unsigned integer", other)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("integer {raw} out of range")))
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),* $(,)?) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::U64(v as u64) } else { Value::I64(v) }
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<$t, Error> {
                let raw = match value {
                    Value::I64(x) => *x,
                    Value::U64(x) => i64::try_from(*x)
                        .map_err(|_| Error::custom("integer out of i64 range"))?,
                    Value::F64(x) if x.fract() == 0.0 => *x as i64,
                    other => return Err(Error::expected("integer", other)),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("integer {raw} out of range")))
            }
        }
    )*};
}

impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
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
    fn to_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<f32, Error> {
        f64::from_value(value).map(|x| x as f32)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
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
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
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
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(value: &Value) -> Result<Box<T>, Error> {
        T::from_value(value).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(inner) => inner.to_value(),
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
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
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
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
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

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    /// Maps serialize as objects; non-string keys are rendered through
    /// their serialized form (numbers become their decimal strings),
    /// mirroring `serde_json`'s behaviour for integer-keyed maps.
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (key_to_string(&k.to_value()), v.to_value()))
                .collect(),
        )
    }
}

impl<K: Serialize, V: Serialize, S: std::hash::BuildHasher> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_to_string(&k.to_value()), v.to_value()))
            .collect();
        // Sort for deterministic output regardless of hasher state.
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(pairs)
    }
}

fn key_to_string(key: &Value) -> String {
    match key {
        Value::Str(s) => s.clone(),
        Value::U64(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for std::collections::BTreeSet<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::expected("array", other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_round_trips_through_null() {
        let none: Option<u32> = None;
        assert_eq!(none.to_value(), Value::Null);
        assert_eq!(Option::<u32>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Some(7u32).to_value(), Value::U64(7));
    }

    #[test]
    fn arrays_round_trip() {
        let bytes = [1u8, 2, 3];
        let v = bytes.to_value();
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
    fn signed_integers_prefer_u64_when_non_negative() {
        assert_eq!(5i64.to_value(), Value::U64(5));
        assert_eq!((-5i64).to_value(), Value::I64(-5));
        assert_eq!(i64::from_value(&Value::U64(5)).unwrap(), 5);
        assert_eq!(i64::from_value(&Value::I64(-5)).unwrap(), -5);
    }
}
