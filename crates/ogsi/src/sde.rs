//! Service data elements (SDEs).
//!
//! OGSI's state-exposure mechanism: a service publishes named, timestamped
//! JSON values that any authorized party can inspect or subscribe to. The
//! paper leans on two patterns this module implements directly:
//!
//! * *one SDE per NTCP transaction* — name, state, requested actions,
//!   timeouts, results, and per-state-change timestamps (§2.1);
//! * *a "most recently changed" SDE* used "to monitor the behavior of the
//!   server as a whole".

use std::collections::BTreeMap;

use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use neesgrid_gridsim::SimTime;

/// One named piece of exposed service state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceDataElement {
    /// Element name, unique within a service.
    pub name: String,
    /// Current value.
    pub value: Value,
    /// When the element was created.
    pub created_at: SimTime,
    /// When the element last changed.
    pub modified_at: SimTime,
    /// Monotonic per-element version, bumped on every set.
    pub version: u64,
}

/// A change event delivered to subscribers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SdeChange {
    /// Name of the element that changed.
    pub name: String,
    /// The new value.
    pub value: Value,
    /// Time of the change.
    pub at: SimTime,
    /// New version of the element.
    pub version: u64,
}

/// The service-data set of one grid service.
///
/// Not internally synchronized: the owning service (or its container thread)
/// is the single writer; remote reads arrive via service operations on the
/// same thread.
///
/// Elements are either *set* (value supplied now) or *touched* (value
/// rendered on demand). A touch does all the bookkeeping of a set —
/// version, timestamps, most-recently-changed — but renders the value only
/// if a subscriber is watching the element; otherwise the element is
/// marked stale and its value is filled in by [`ServiceData::render_stale`],
/// which the owning service calls before handing the set to a reader.
#[derive(Debug, Default)]
pub struct ServiceData {
    elements: BTreeMap<String, Slot>,
    subscribers: Vec<(String, Sender<SdeChange>)>,
    most_recently_changed: Option<String>,
}

#[derive(Debug)]
struct Slot {
    element: ServiceDataElement,
    // `element.value` predates the element's latest change.
    stale: bool,
}

impl ServiceData {
    /// An empty service-data set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create or update an element, notifying subscribers.
    pub fn set(&mut self, name: impl Into<String>, value: Value, now: SimTime) {
        self.change(&name.into(), now, Some(value));
    }

    /// Record a change to an element whose value `render` produces.
    ///
    /// Version, timestamps and most-recently-changed update now. `render`
    /// runs now only if a subscriber's pattern matches `name` (subscribers
    /// see every intermediate value); otherwise the element goes stale until
    /// the next [`ServiceData::render_stale`].
    pub fn touch(&mut self, name: &str, now: SimTime, render: impl FnOnce() -> Value) {
        let watched = self.subscribers.iter().any(|(p, _)| name_matches(p, name));
        self.change(name, now, watched.then(render));
    }

    /// Render every stale element's value with `render(name)`. Call before
    /// exposing the set to readers.
    pub fn render_stale(&mut self, mut render: impl FnMut(&str) -> Value) {
        for slot in self.elements.values_mut().filter(|s| s.stale) {
            slot.element.value = render(&slot.element.name);
            slot.stale = false;
        }
    }

    fn change(&mut self, name: &str, now: SimTime, value: Option<Value>) {
        let version = self.elements.get(name).map_or(1, |s| s.element.version + 1);
        if let Some(value) = &value {
            self.subscribers.retain(|(pattern, tx)| {
                !name_matches(pattern, name)
                    || tx
                        .send(SdeChange {
                            name: name.to_string(),
                            value: value.clone(),
                            at: now,
                            version,
                        })
                        .is_ok()
            });
        }
        let stale = value.is_none();
        let value = value.unwrap_or_default();
        match self.elements.get_mut(name) {
            Some(slot) => {
                slot.element.value = value;
                slot.element.modified_at = now;
                slot.element.version = version;
                slot.stale = stale;
            }
            None => {
                self.elements.insert(
                    name.to_string(),
                    Slot {
                        element: ServiceDataElement {
                            name: name.to_string(),
                            value,
                            created_at: now,
                            modified_at: now,
                            version,
                        },
                        stale,
                    },
                );
            }
        }
        // Reuse the buffer: a run of changes to one element allocates nothing.
        let latest = self.most_recently_changed.get_or_insert_with(String::new);
        latest.clear();
        latest.push_str(name);
    }

    /// Inspect one element. A stale element's value is only current after
    /// [`ServiceData::render_stale`].
    pub fn get(&self, name: &str) -> Option<&ServiceDataElement> {
        self.elements.get(name).map(|s| &s.element)
    }

    /// Remove an element (e.g. a destroyed transaction).
    pub fn remove(&mut self, name: &str) -> Option<ServiceDataElement> {
        self.elements.remove(name).map(|s| s.element)
    }

    /// Keep only the elements for which `keep(name)` holds.
    pub fn retain(&mut self, mut keep: impl FnMut(&str) -> bool) {
        self.elements.retain(|name, _| keep(name));
    }

    /// Names of all elements matching a pattern (`*` suffix wildcard).
    pub fn query(&self, pattern: &str) -> Vec<&ServiceDataElement> {
        // The map is ordered by name, so the result is too.
        self.elements
            .values()
            .map(|s| &s.element)
            .filter(|el| name_matches(pattern, &el.name))
            .collect()
    }

    /// The element changed most recently, if any — the whole-server
    /// monitoring hook from §2.1.
    pub fn most_recently_changed(&self) -> Option<&ServiceDataElement> {
        self.most_recently_changed
            .as_deref()
            .and_then(|n| self.get(n))
    }

    /// Subscribe to changes of elements matching `pattern`
    /// (exact name, or prefix ending in `*`).
    pub fn subscribe(&mut self, pattern: impl Into<String>) -> Receiver<SdeChange> {
        let (tx, rx) = unbounded();
        self.subscribers.push((pattern.into(), tx));
        rx
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }
}

/// `pattern` matches `name` if equal, or if pattern ends in `*` and the rest
/// is a prefix of `name`.
fn name_matches(pattern: &str, name: &str) -> bool {
    match pattern.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => pattern == name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn set_then_get() {
        let mut sd = ServiceData::new();
        sd.set(
            "transaction/t1",
            json!({"state": "Proposed"}),
            SimTime::from_secs(1),
        );
        let el = sd.get("transaction/t1").unwrap();
        assert_eq!(el.value["state"], "Proposed");
        assert_eq!(el.version, 1);
        assert_eq!(el.created_at, SimTime::from_secs(1));
    }

    #[test]
    fn update_bumps_version_and_modified() {
        let mut sd = ServiceData::new();
        sd.set("x", json!(1), SimTime::from_secs(1));
        sd.set("x", json!(2), SimTime::from_secs(5));
        let el = sd.get("x").unwrap();
        assert_eq!(el.version, 2);
        assert_eq!(el.created_at, SimTime::from_secs(1));
        assert_eq!(el.modified_at, SimTime::from_secs(5));
    }

    #[test]
    fn most_recently_changed_tracks_latest() {
        let mut sd = ServiceData::new();
        sd.set("a", json!(1), SimTime::from_secs(1));
        sd.set("b", json!(2), SimTime::from_secs(2));
        assert_eq!(sd.most_recently_changed().unwrap().name, "b");
        sd.set("a", json!(3), SimTime::from_secs(3));
        assert_eq!(sd.most_recently_changed().unwrap().name, "a");
    }

    #[test]
    fn query_with_wildcard() {
        let mut sd = ServiceData::new();
        sd.set("transaction/t1", json!(1), SimTime::ZERO);
        sd.set("transaction/t2", json!(2), SimTime::ZERO);
        sd.set("serverInfo", json!(3), SimTime::ZERO);
        let names: Vec<&str> = sd
            .query("transaction/*")
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, vec!["transaction/t1", "transaction/t2"]);
        assert_eq!(sd.query("*").len(), 3);
        assert_eq!(sd.query("serverInfo").len(), 1);
        assert_eq!(sd.query("nope").len(), 0);
    }

    #[test]
    fn subscription_receives_matching_changes() {
        let mut sd = ServiceData::new();
        let rx = sd.subscribe("transaction/*");
        sd.set(
            "transaction/t1",
            json!({"state": "Executing"}),
            SimTime::from_secs(2),
        );
        sd.set("other", json!(0), SimTime::from_secs(3));
        let ev = rx.try_recv().unwrap();
        assert_eq!(ev.name, "transaction/t1");
        assert_eq!(ev.version, 1);
        assert!(rx.try_recv().is_err(), "non-matching change not delivered");
    }

    #[test]
    fn dropped_subscriber_is_pruned() {
        let mut sd = ServiceData::new();
        let rx = sd.subscribe("*");
        drop(rx);
        // First set after drop prunes the dead subscriber.
        sd.set("a", json!(1), SimTime::ZERO);
        sd.set("a", json!(2), SimTime::ZERO);
        assert_eq!(sd.get("a").unwrap().version, 2);
    }

    #[test]
    fn touch_defers_render_until_read() {
        let renders = std::cell::Cell::new(0);
        let render = || {
            renders.set(renders.get() + 1);
            json!({"state": "Completed"})
        };
        let mut sd = ServiceData::new();
        sd.touch("transaction/t1", SimTime::from_secs(1), render);
        sd.touch("transaction/t1", SimTime::from_secs(4), render);
        assert_eq!(renders.get(), 0, "nobody watching, nothing rendered");
        // Bookkeeping is current before the render.
        let el = sd.get("transaction/t1").unwrap();
        assert_eq!(
            (el.version, el.created_at, el.modified_at),
            (2, SimTime::from_secs(1), SimTime::from_secs(4))
        );
        assert_eq!(sd.most_recently_changed().unwrap().name, "transaction/t1");

        sd.render_stale(|name| {
            assert_eq!(name, "transaction/t1");
            render()
        });
        assert_eq!(renders.get(), 1, "one render however many touches");
        assert_eq!(
            sd.get("transaction/t1").unwrap().value["state"],
            "Completed"
        );
        sd.render_stale(|_| render());
        assert_eq!(renders.get(), 1, "nothing stale, nothing rendered");
    }

    #[test]
    fn touch_renders_every_change_for_a_subscriber() {
        let mut sd = ServiceData::new();
        let rx = sd.subscribe("transaction/*");
        for (i, state) in ["Accepted", "Executing", "Completed"].iter().enumerate() {
            sd.touch(
                "transaction/t1",
                SimTime::from_secs(i as u64),
                || json!({ "state": state }),
            );
        }
        sd.touch("other", SimTime::ZERO, || json!(0));
        let seen: Vec<(u64, Value)> = std::iter::from_fn(|| rx.try_recv().ok())
            .map(|c| (c.version, c.value["state"].clone()))
            .collect();
        assert_eq!(
            seen,
            vec![
                (1, json!("Accepted")),
                (2, json!("Executing")),
                (3, json!("Completed")),
            ]
        );
        // The watched element is already current; only `other` is stale.
        let mut rendered = Vec::new();
        sd.render_stale(|name| {
            rendered.push(name.to_string());
            json!(0)
        });
        assert_eq!(rendered, ["other"]);
    }

    #[test]
    fn removed_stale_elements_are_not_rendered() {
        let mut sd = ServiceData::new();
        for name in ["a", "b", "c"] {
            sd.touch(name, SimTime::ZERO, || json!(name));
        }
        sd.remove("a");
        sd.retain(|name| name != "b");
        let mut rendered = Vec::new();
        sd.render_stale(|name| {
            rendered.push(name.to_string());
            json!(name)
        });
        assert_eq!(rendered, ["c"]);
        assert_eq!(sd.len(), 1);
    }

    #[test]
    fn remove_deletes_element() {
        let mut sd = ServiceData::new();
        sd.set("x", json!(1), SimTime::ZERO);
        assert!(sd.remove("x").is_some());
        assert!(sd.get("x").is_none());
        assert!(sd.is_empty());
    }
}
