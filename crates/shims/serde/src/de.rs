//! Deserialization half of the shim: trait shapes mirror real serde, with the
//! whole input surfaced as one [`Value`] via [`Deserializer::into_value`],
//! plus a direct reader from JSON text ([`Deserialize::read_json`]).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;
use std::sync::Arc;

use crate::json::{context, sort_keys_keep_last, JsonReader};
use crate::value::{from_value, Error as ValueError, Number, Value, ValueDeserializer};

/// Mirror of `serde::de::Error`.
pub trait Error: Sized {
    fn custom<T: fmt::Display>(msg: T) -> Self;
}

/// Mirror of `serde::Deserializer`, collapsed to one required method.
pub trait Deserializer<'de>: Sized {
    type Error: Error;

    /// Surrender the parsed value tree.
    fn into_value(self) -> Result<Value, Self::Error>;
}

/// Mirror of `serde::Deserialize`, plus a direct JSON reader.
pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;

    /// Read `Self` from JSON text without building a value tree. The
    /// default builds the tree; it must accept and produce the same.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        Self::deserialize(ValueDeserializer(r.value()?))
    }
}

/// Mirror of `serde::de::DeserializeOwned`.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

fn type_err<T, E: Error>(expected: &str, got: &Value) -> Result<T, E> {
    let got = match got {
        Value::Null => "null".to_string(),
        Value::Bool(_) => "bool".to_string(),
        Value::Number(n) => format!("number {n:?}"),
        Value::String(s) => format!("string {s:?}"),
        Value::Array(_) => "array".to_string(),
        Value::Object(_) => "object".to_string(),
    };
    Err(E::custom(format!("expected {expected}, got {got}")))
}

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.into_value()?;
                match &v {
                    Value::Number(n) => n
                        .as_u64()
                        .and_then(|u| <$t>::try_from(u).ok())
                        .map_or_else(|| type_err(stringify!($t), &v), Ok),
                    _ => type_err(stringify!($t), &v),
                }
            }
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
                let n = r.number()?;
                n.as_u64()
                    .and_then(|u| <$t>::try_from(u).ok())
                    .ok_or_else(|| r.error(format_args!("expected {}, got number {n:?}", stringify!($t))))
            }
        }
    )*};
}
de_uint!(u8, u16, u32, u64, usize);

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                let v = d.into_value()?;
                match &v {
                    Value::Number(n) => n
                        .as_i64()
                        .and_then(|i| <$t>::try_from(i).ok())
                        .map_or_else(|| type_err(stringify!($t), &v), Ok),
                    _ => type_err(stringify!($t), &v),
                }
            }
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
                let n = r.number()?;
                n.as_i64()
                    .and_then(|i| <$t>::try_from(i).ok())
                    .ok_or_else(|| r.error(format_args!("expected {}, got number {n:?}", stringify!($t))))
            }
        }
    )*};
}
de_int!(i8, i16, i32, i64, isize);

impl<'de> Deserialize<'de> for f64 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        match &v {
            Value::Number(n) => Ok(n.as_f64()),
            // serde_json maps non-finite floats to null on write; accept the
            // round-trip back as NaN rather than failing the whole payload.
            Value::Null => Ok(f64::NAN),
            _ => type_err("f64", &v),
        }
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        if r.take_null()? {
            return Ok(f64::NAN);
        }
        r.number().map(|n| n.as_f64())
    }
}

impl<'de> Deserialize<'de> for f32 {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        f64::deserialize(d).map(|f| f as f32)
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        f64::read_json(r).map(|f| f as f32)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        v.as_bool().map_or_else(|| type_err("bool", &v), Ok)
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        r.bool()
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::String(s) => Ok(s),
            v => type_err("string", &v),
        }
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        r.str().map(Cow::into_owned)
    }
}

fn single_char<E: Error>(s: &str) -> Result<char, E> {
    let mut it = s.chars();
    match (it.next(), it.next()) {
        (Some(c), None) => Ok(c),
        _ => Err(E::custom("expected single-char string")),
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        single_char(&String::deserialize(d)?)
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        single_char(&r.str()?)
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let _ = d.into_value()?;
        Ok(())
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        r.skip_value()
    }
}

fn elem<T: DeserializeOwned, E: Error>(v: Value, what: &str) -> Result<T, E> {
    from_value(v).map_err(|e| E::custom(format!("{what}: {e}")))
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Null => Ok(None),
            v => Ok(Some(
                from_value(v).map_err(|e| D::Error::custom(e.to_string()))?,
            )),
        }
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        if r.take_null()? {
            return Ok(None);
        }
        T::read_json(r).map(Some)
    }
}

impl<'de, T: DeserializeOwned> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Array(a) => a.into_iter().map(|v| elem(v, "array element")).collect(),
            v => type_err("array", &v),
        }
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        r.begin_array()?;
        let mut items = Vec::new();
        while r.next_element()? {
            items.push(context(T::read_json(r), "array element")?);
        }
        Ok(items)
    }
}

/// A collection read as the `Vec` it is written as.
macro_rules! de_via_vec {
    ($([$($bound:tt)*] $t:ty),* $(,)?) => {$(
        impl<'de, $($bound)*> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                Vec::<T>::deserialize(d).map(|v| v.into_iter().collect())
            }
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
                Vec::<T>::read_json(r).map(|v| v.into_iter().collect())
            }
        }
    )*};
}
de_via_vec! {
    [T: DeserializeOwned] VecDeque<T>,
    [T: DeserializeOwned + Ord] BTreeSet<T>,
    [T: DeserializeOwned + Eq + Hash, H: BuildHasher + Default] HashSet<T, H>,
}

fn to_array<T, E: Error, const N: usize>(v: Vec<T>) -> Result<[T; N], E> {
    <[T; N]>::try_from(v)
        .map_err(|v| E::custom(format!("expected array of length {N}, got {}", v.len())))
}

impl<'de, T: DeserializeOwned, const N: usize> Deserialize<'de> for [T; N] {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        to_array(Vec::<T>::deserialize(d)?)
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        to_array(Vec::<T>::read_json(r)?)
    }
}

/// A smart pointer read as what it points to.
macro_rules! de_wrapper {
    ($($w:ident),*) => {$(
        impl<'de, T: DeserializeOwned> Deserialize<'de> for $w<T> {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                T::deserialize(d).map($w::new)
            }
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
                T::read_json(r).map($w::new)
            }
        }
    )*};
}
de_wrapper!(Box, Arc, Rc);

/// Re-hydrate a map key from its stringified JSON-object-key form: first as
/// a string (covers String and string-newtype keys), then as an integer.
fn key_from_string<K: DeserializeOwned, E: Error>(k: &str) -> Result<K, E> {
    if let Ok(key) = from_value(Value::String(k.to_owned())) {
        return Ok(key);
    }
    if let Ok(u) = k.parse::<u64>() {
        if let Ok(key) = from_value(Value::Number(Number::PosInt(u))) {
            return Ok(key);
        }
    }
    if let Ok(i) = k.parse::<i64>() {
        if let Ok(key) = from_value(Value::Number(Number::NegInt(i))) {
            return Ok(key);
        }
    }
    Err(E::custom(format!("cannot deserialize map key from {k:?}")))
}

fn de_map_pairs<K: DeserializeOwned, V: DeserializeOwned, E: Error>(
    v: Value,
) -> Result<Vec<(K, V)>, E> {
    match v {
        Value::Object(m) => m
            .into_iter()
            .map(|(k, v)| {
                let key = key_from_string(&k)?;
                let val =
                    from_value(v).map_err(|e| E::custom(format!("map value for {k:?}: {e}")))?;
                Ok((key, val))
            })
            .collect(),
        v => type_err("object", &v),
    }
}

/// Read a map as the tree would: entries taken in byte order of their
/// keys, and the last of equal keys kept.
fn read_map_pairs<K: DeserializeOwned, V: DeserializeOwned>(
    r: &mut JsonReader<'_>,
) -> Result<Vec<(K, V)>, ValueError> {
    r.begin_object()?;
    let mut entries: Vec<(Cow<str>, Result<V, ValueError>)> = Vec::new();
    while let Some(k) = r.next_key()? {
        entries.push((k, r.read_or_skip()?));
    }
    sort_keys_keep_last(&mut entries);
    entries
        .into_iter()
        .map(|(k, v)| {
            let key = key_from_string(&k)?;
            let val = v.map_err(|e| ValueError(format!("map value for {k:?}: {e}")))?;
            Ok((key, val))
        })
        .collect()
}

macro_rules! de_map {
    ($([$($bound:tt)*] $t:ty),* $(,)?) => {$(
        impl<'de, $($bound)*> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                Ok(de_map_pairs::<K, V, D::Error>(d.into_value()?)?
                    .into_iter()
                    .collect())
            }
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
                Ok(read_map_pairs::<K, V>(r)?.into_iter().collect())
            }
        }
    )*};
}
de_map! {
    [K: DeserializeOwned + Eq + Hash, V: DeserializeOwned, H: BuildHasher + Default] HashMap<K, V, H>,
    [K: DeserializeOwned + Ord, V: DeserializeOwned] BTreeMap<K, V>,
}

macro_rules! de_tuple {
    ($(($len:literal; $($n:tt $t:ident),+))*) => {$(
        impl<'de, $($t: DeserializeOwned),+> Deserialize<'de> for ($($t,)+) {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                match d.into_value()? {
                    Value::Array(a) if a.len() == $len => {
                        let mut a = a.into_iter();
                        Ok(($(elem::<$t, D::Error>(a.next().unwrap_or_default(), "tuple element")?,)+))
                    }
                    v => type_err(concat!("array of length ", $len), &v),
                }
            }
            fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
                r.begin_array()?;
                let t = ($(r.element::<$t>("tuple element")?,)+);
                r.end_array($len)?;
                Ok(t)
            }
        }
    )*};
}
de_tuple! {
    (1; 0 T0)
    (2; 0 T0, 1 T1)
    (3; 0 T0, 1 T1, 2 T2)
    (4; 0 T0, 1 T1, 2 T2, 3 T3)
    (5; 0 T0, 1 T1, 2 T2, 3 T3, 4 T4)
}

impl<'de> Deserialize<'de> for std::time::Duration {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = d.into_value()?;
        let secs = v
            .get("secs")
            .and_then(Value::as_u64)
            .ok_or_else(|| D::Error::custom("Duration: missing secs"))?;
        let nanos = v.get("nanos").and_then(Value::as_u64).unwrap_or(0) as u32;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

// Keep `Number` usable directly in derived containers.
impl<'de> Deserialize<'de> for Number {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.into_value()? {
            Value::Number(n) => Ok(n),
            v => type_err("number", &v),
        }
    }
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, ValueError> {
        r.number()
    }
}

impl crate::ser::Serialize for Number {
    fn serialize<S: crate::ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Number(*self))
    }
    fn write_json(&self, w: &mut crate::json::JsonWriter) {
        w.number(*self);
    }
}
