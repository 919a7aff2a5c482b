//! Offline stand-in for [`serde`](https://docs.rs/serde).
//!
//! The build environment has no network access to a crate registry, so this
//! shim implements the serde surface the workspace uses: the [`Serialize`] /
//! [`Deserialize`] traits, `#[derive(Serialize, Deserialize)]` (re-exported
//! from the sibling `serde_derive` shim, a hand-rolled proc macro), and impls
//! for the std types that appear in derived structs.
//!
//! Instead of serde's visitor architecture, everything funnels through a
//! self-describing [`Value`] tree — `Serialize` lowers to a `Value`,
//! `Deserialize` lifts from one.  The `serde_json` shim renders and parses
//! that tree, so `to_string`/`from_str` round-trips work for every derived
//! type.  The derive output follows serde's externally-tagged JSON data
//! model (unit enum variants as strings, field maps for structs), so files
//! written by this shim stay readable by real serde later.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

/// A self-describing serialized value (the JSON data model).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer.
    I64(i64),
    /// Unsigned integer (used when the value does not fit `i64`).
    U64(u64),
    /// Floating point.
    F64(f64),
    /// String.
    Str(String),
    /// Ordered sequence.
    Array(Vec<Value>),
    /// Key-value map with insertion order preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrow as an object (field list), if this is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Borrow as an array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Borrow as a string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Short description of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) | Value::U64(_) => "integer",
            Value::F64(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl Error {
    /// Build an error from any message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can lower themselves into a [`Value`] tree.
pub trait Serialize {
    /// Produce the value tree for `self`.
    fn serialize_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuild `Self` from a value tree.
    fn deserialize_value(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Serialize impls for std types
// ---------------------------------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl Serialize for Value {
    fn serialize_value(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

macro_rules! ser_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value { Value::I64(*self as i64) }
        }
    )*};
}
ser_signed!(i8, i16, i32, i64, isize);

macro_rules! ser_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                let v = *self as u64;
                if v <= i64::MAX as u64 { Value::I64(v as i64) } else { Value::U64(v) }
            }
        }
    )*};
}
ser_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Serialize for f32 {
    fn serialize_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for char {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(inner) => inner.serialize_value(),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize_value()))
                .collect(),
        )
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.serialize_value()))
                .collect(),
        )
    }
}

macro_rules! ser_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize_value()),+])
            }
        }
    )*};
}
ser_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

// ---------------------------------------------------------------------------
// Deserialize impls for std types
// ---------------------------------------------------------------------------

impl Deserialize for Value {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl Deserialize for bool {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                let out = match value {
                    Value::I64(v) => <$t>::try_from(*v).ok(),
                    Value::U64(v) => <$t>::try_from(*v).ok(),
                    // Tolerate floats with an exact integer value, as real
                    // serde_json does for `1.0 as u64`-style inputs.
                    Value::F64(v) if v.fract() == 0.0 => <$t>::try_from(*v as i64).ok(),
                    _ => None,
                };
                out.ok_or_else(|| {
                    Error::custom(format!(
                        "expected {}, got {}", stringify!($t), value.kind()
                    ))
                })
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! de_float {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::F64(v) => Ok(*v as $t),
                    Value::I64(v) => Ok(*v as $t),
                    Value::U64(v) => Ok(*v as $t),
                    other => Err(Error::custom(format!(
                        "expected {}, got {}", stringify!($t), other.kind()
                    ))),
                }
            }
        }
    )*};
}
de_float!(f32, f64);

impl Deserialize for String {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl Deserialize for char {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let s = value
            .as_str()
            .ok_or_else(|| Error::custom(format!("expected char, got {}", value.kind())))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom(format!("expected single char, got {s:?}"))),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom(format!("expected array, got {}", value.kind())))?
            .iter()
            .map(T::deserialize_value)
            .collect()
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom(format!("expected array, got {}", value.kind())))?
            .iter()
            .map(T::deserialize_value)
            .collect()
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        value
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {}", value.kind())))?
            .iter()
            .map(|(k, v)| V::deserialize_value(v).map(|v| (k.clone(), v)))
            .collect()
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        value
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {}", value.kind())))?
            .iter()
            .map(|(k, v)| V::deserialize_value(v).map(|v| (k.clone(), v)))
            .collect()
    }
}

macro_rules! de_tuple {
    ($(($($name:ident : $idx:tt),+ ; $len:expr))*) => {$(
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                let items = value.as_array().ok_or_else(|| {
                    Error::custom(format!("expected array, got {}", value.kind()))
                })?;
                if items.len() != $len {
                    return Err(Error::custom(format!(
                        "expected tuple of {}, got array of {}", $len, items.len()
                    )));
                }
                Ok(($($name::deserialize_value(&items[$idx])?,)+))
            }
        }
    )*};
}
de_tuple! {
    (A: 0; 1)
    (A: 0, B: 1; 2)
    (A: 0, B: 1, C: 2; 3)
    (A: 0, B: 1, C: 2, D: 3; 4)
}

/// Support code for the derive macros; not part of the public API.
pub mod __private {
    use super::{Deserialize, Error, Value};

    /// Look up and deserialize a struct field by name.
    ///
    /// Missing keys deserialize from `Null`, so `Option` fields tolerate
    /// omission the way real serde's do.
    pub fn field<T: Deserialize>(fields: &[(String, Value)], name: &str) -> Result<T, Error> {
        let value = fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or(&Value::Null);
        T::deserialize_value(value).map_err(|e| Error::custom(format!("field `{name}`: {e}")))
    }

    /// Error for an unknown enum variant name.
    pub fn unknown_variant(enum_name: &str, got: &Value) -> Error {
        match got.as_str() {
            Some(s) => Error::custom(format!("unknown variant `{s}` for enum {enum_name}")),
            None => Error::custom(format!(
                "expected variant of {enum_name}, got {}",
                got.kind()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_roundtrip_through_null() {
        let v: Option<usize> = None;
        assert_eq!(v.serialize_value(), Value::Null);
        assert_eq!(
            Option::<usize>::deserialize_value(&Value::Null).unwrap(),
            None
        );
        assert_eq!(
            Option::<usize>::deserialize_value(&Value::I64(4)).unwrap(),
            Some(4)
        );
    }

    #[test]
    fn nested_containers_roundtrip() {
        let v: Vec<(String, f64)> = vec![("a".into(), 0.5), ("b".into(), 1.5)];
        let tree = v.serialize_value();
        let back = Vec::<(String, f64)>::deserialize_value(&tree).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn int_narrowing_is_checked() {
        assert!(u8::deserialize_value(&Value::I64(300)).is_err());
        assert_eq!(u8::deserialize_value(&Value::I64(255)).unwrap(), 255);
        assert!(usize::deserialize_value(&Value::I64(-1)).is_err());
    }

    #[test]
    fn missing_field_is_null_for_option() {
        let fields = vec![("present".to_string(), Value::I64(1))];
        let missing: Option<usize> = __private::field(&fields, "absent").unwrap();
        assert_eq!(missing, None);
        let present: usize = __private::field(&fields, "present").unwrap();
        assert_eq!(present, 1);
        assert!(__private::field::<usize>(&fields, "absent").is_err());
    }
}
