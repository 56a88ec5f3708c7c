//! Node identities.
//!
//! A node is one addressable grid participant — an experiment site's service
//! host ("uiuc", "cu-boulder", "ncsa"), the simulation coordinator, a
//! repository host, or a remote CHEF user. Names are cheap to clone (shared
//! `Arc<str>`) because they appear in every envelope.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Identity of a grid node on the virtual network.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(Arc<str>);

impl NodeId {
    /// Create a node id from any string-like name.
    pub fn new(name: impl AsRef<str>) -> Self {
        NodeId(Arc::from(name.as_ref()))
    }

    /// The node's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for NodeId {
    fn from(s: &str) -> Self {
        NodeId::new(s)
    }
}

impl From<String> for NodeId {
    fn from(s: String) -> Self {
        NodeId::new(s)
    }
}

impl Borrow<str> for NodeId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl Serialize for NodeId {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.0)
    }

    fn write_json(&self, w: &mut serde::json::JsonWriter) {
        w.str(&self.0);
    }
}

impl<'de> Deserialize<'de> for NodeId {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        Ok(NodeId::new(s))
    }

    fn read_json(r: &mut serde::json::JsonReader<'_>) -> Result<Self, serde::value::Error> {
        r.str().map(NodeId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn equality_and_hash_are_by_name() {
        let a = NodeId::new("uiuc");
        let b = NodeId::from("uiuc");
        assert_eq!(a, b);
        let mut m = HashMap::new();
        m.insert(a.clone(), 1);
        assert_eq!(m.get(&b), Some(&1));
        // Borrow<str> lets us look up by &str without allocating.
        assert_eq!(m.get("uiuc"), Some(&1));
    }

    #[test]
    fn display_and_as_str() {
        let n = NodeId::new("ncsa");
        assert_eq!(n.to_string(), "ncsa");
        assert_eq!(n.as_str(), "ncsa");
    }

    #[test]
    fn serde_roundtrip() {
        let n = NodeId::new("cu-boulder");
        let json = serde_json::to_string(&n).unwrap();
        assert_eq!(json, "\"cu-boulder\"");
        let back: NodeId = serde_json::from_str(&json).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut v = [NodeId::new("ncsa"), NodeId::new("cu"), NodeId::new("uiuc")];
        v.sort();
        let names: Vec<&str> = v.iter().map(|n| n.as_str()).collect();
        assert_eq!(names, vec!["cu", "ncsa", "uiuc"]);
    }
}
