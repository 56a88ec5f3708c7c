//! Offline stand-in for `serde`.
//!
//! The build container has no crates.io access, so this workspace vendors a
//! small, value-based serialization facade under the `serde` name. It keeps
//! the trait *shapes* of real serde (`Serialize::serialize<S: Serializer>`,
//! `Deserialize::deserialize<D: Deserializer<'de>>`) so hand-written impls
//! compile unchanged, but the data model is a single JSON-like [`value::Value`]
//! rather than serde's full visitor machinery. Each trait also has a direct
//! JSON method (`Serialize::write_json`, `Deserialize::read_json`) that
//! skips the tree; see [`json`]. `serde_json` (also vendored) is the text
//! front end over both.

pub mod de;
pub mod json;
pub mod ser;
pub mod value;

pub use de::{Deserialize, Deserializer};
pub use ser::{Serialize, Serializer};
pub use serde_derive::{Deserialize, Serialize};

#[doc(hidden)]
pub mod __private {
    //! Helpers the derive macro expands against.
    pub use crate::json::{context, field, JsonReader, JsonWriter};
    pub use crate::value::{from_value, to_value, Error, Map, Value};
}
