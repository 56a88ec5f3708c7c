//! Serialization half of the shim: same trait shapes as real serde, but every
//! serializer bottoms out in [`Serializer::serialize_value`].

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use crate::json::{sort_keys_keep_last, JsonWriter};
use crate::value::{to_value, Map, Number, Value};

/// Mirror of `serde::ser::Error`.
pub trait Error: Sized {
    fn custom<T: fmt::Display>(msg: T) -> Self;
}

/// Mirror of `serde::Serializer`, collapsed to one required method.
pub trait Serializer: Sized {
    type Ok;
    type Error: Error;

    /// Consume a fully-built value tree.
    fn serialize_value(self, v: Value) -> Result<Self::Ok, Self::Error>;

    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::String(v.to_owned()))
    }
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Bool(v))
    }
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Number(Number::PosInt(v)))
    }
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::from(v))
    }
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::from(v))
    }
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Null)
    }
    fn serialize_none(self) -> Result<Self::Ok, Self::Error> {
        self.serialize_value(Value::Null)
    }
}

/// Mirror of `serde::Serialize`, plus a direct JSON writer.
pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;

    /// Write `self` as JSON text without building a value tree. The
    /// default builds the tree; it must produce the same bytes as that.
    fn write_json(&self, w: &mut JsonWriter) {
        to_value(self).write_json(w);
    }
}

// --- primitive impls ---

macro_rules! ser_forward {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::from(*self))
            }
            fn write_json(&self, w: &mut JsonWriter) {
                // A scalar tree holds no heap data: building it is free.
                Value::from(*self).write_json(w);
            }
        }
    )*};
}
ser_forward!(bool, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.null();
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: Serialize + ?Sized> Serialize for Rc<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        (**self).write_json(w);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(t) => serializer.serialize_value(to_value(t)),
            None => serializer.serialize_none(),
        }
    }
    fn write_json(&self, w: &mut JsonWriter) {
        match self {
            Some(t) => t.write_json(w),
            None => w.null(),
        }
    }
}

/// Write a sequence as a JSON array.
fn write_seq<'a, T: Serialize + 'a>(w: &mut JsonWriter, items: impl IntoIterator<Item = &'a T>) {
    w.begin_array();
    for t in items {
        t.write_json(w);
    }
    w.end_array();
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Array(self.iter().map(to_value).collect()))
    }
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(w, self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(w, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(w, self);
    }
}

impl<T: Serialize> Serialize for std::collections::VecDeque<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Array(self.iter().map(to_value).collect()))
    }
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(w, self);
    }
}

impl<T: Serialize + Ord> Serialize for std::collections::BTreeSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(Value::Array(self.iter().map(to_value).collect()))
    }
    fn write_json(&self, w: &mut JsonWriter) {
        write_seq(w, self);
    }
}

impl<T: Serialize, H> Serialize for std::collections::HashSet<T, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Sort for deterministic output; hash-set order is arbitrary.
        let mut items: Vec<Value> = self.iter().map(to_value).collect();
        items.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        serializer.serialize_value(Value::Array(items))
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.serialize_value(Value::Array(vec![$(to_value(&self.$n)),+]))
            }
            fn write_json(&self, w: &mut JsonWriter) {
                w.begin_array();
                $(self.$n.write_json(w);)+
                w.end_array();
            }
        }
    )*};
}
ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// JSON object keys must be strings: stringify string-ish and integer keys,
/// reject everything else at runtime (mirrors serde_json's behavior).
fn key_string<K: Serialize>(k: &K) -> Result<String, String> {
    match to_value(k) {
        Value::String(s) => Ok(s),
        Value::Number(n) => Ok(match n {
            Number::PosInt(v) => v.to_string(),
            Number::NegInt(v) => v.to_string(),
            Number::Float(v) => v.to_string(),
        }),
        other => Err(format!("map key must be string-like, got {other:?}")),
    }
}

fn serialize_map<'a, K, V, S>(
    entries: impl Iterator<Item = (&'a K, &'a V)>,
    serializer: S,
) -> Result<S::Ok, S::Error>
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    S: Serializer,
{
    let mut m = Map::new();
    for (k, v) in entries {
        let k = key_string(k).map_err(S::Error::custom)?;
        m.insert(k, to_value(v));
    }
    serializer.serialize_value(Value::Object(m))
}

/// Write a map as the tree would: keys in byte order, the last of equal
/// keys kept, and `null` for a map with a key that has no string form.
fn write_map<'a, K: Serialize + 'a, V: Serialize + 'a>(
    w: &mut JsonWriter,
    entries: impl Iterator<Item = (&'a K, &'a V)>,
) {
    let mut keyed = Vec::new();
    for (k, v) in entries {
        match key_string(k) {
            Ok(key) => keyed.push((key, v)),
            Err(_) => return w.null(),
        }
    }
    sort_keys_keep_last(&mut keyed);
    w.begin_object();
    for (k, v) in keyed {
        w.key(&k);
        v.write_json(w);
    }
    w.end_object();
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_map(self.iter(), serializer)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        write_map(w, self.iter());
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serialize_map(self.iter(), serializer)
    }
    fn write_json(&self, w: &mut JsonWriter) {
        write_map(w, self.iter());
    }
}

impl Serialize for std::time::Duration {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut m = Map::new();
        m.insert("secs".into(), Value::from(self.as_secs()));
        m.insert("nanos".into(), Value::from(self.subsec_nanos()));
        serializer.serialize_value(Value::Object(m))
    }
}
