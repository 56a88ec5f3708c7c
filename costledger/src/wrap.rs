//! Wrappers the benchmark puts around the program's trait objects, so
//! each layer can be timed from outside through its public interface.
//!
//! Each wrapper forwards every trait method unchanged and opens a span
//! (see [`crate::spans`]) around the calls it times. With recording off
//! the wrappers only forward.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use neesgrid_checkpoint::{snapshot, CheckpointError, CheckpointStore, Snapshot};
use neesgrid_gridsim::SimTime;
use neesgrid_ntcp::{ControlPlugin, ControlPoint, ExecuteOutcome, PluginError};
use neesgrid_ogsi::{CallContext, GridService, ServiceData, ServiceFault};
use serde_json::Value;

use crate::spans::Recorder;

/// Request and reply bodies captured for the after-run codec timing.
#[derive(Debug, Default)]
pub struct BodyCapture {
    limit: usize,
    bodies: Mutex<Vec<Value>>,
}

impl BodyCapture {
    /// Keep at most `limit` bodies.
    pub fn new(limit: usize) -> Arc<BodyCapture> {
        Arc::new(BodyCapture {
            limit,
            bodies: Mutex::new(Vec::new()),
        })
    }

    fn offer(&self, body: &Value) {
        let mut bodies = self.bodies.lock().expect("capture poisoned by a panic");
        if bodies.len() < self.limit {
            bodies.push(body.clone());
        }
    }

    /// The captured bodies.
    pub fn take(&self) -> Vec<Value> {
        std::mem::take(&mut *self.bodies.lock().expect("capture poisoned by a panic"))
    }
}

/// A [`GridService`] wrapper that times `handle` as `ntcp.<operation>`
/// and optionally captures request and reply bodies.
pub struct TimedService {
    inner: Box<dyn GridService>,
    capture: Option<Arc<BodyCapture>>,
}

impl TimedService {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn GridService>, capture: Option<Arc<BodyCapture>>) -> Self {
        TimedService { inner, capture }
    }
}

impl GridService for TimedService {
    fn service_type(&self) -> &'static str {
        self.inner.service_type()
    }

    fn handle(
        &mut self,
        ctx: &CallContext,
        operation: &str,
        body: &Value,
    ) -> Result<Value, ServiceFault> {
        let rec = Recorder::global();
        let span = rec.open(match operation {
            "propose" => "ntcp.propose",
            "execute" => "ntcp.execute",
            _ => "ntcp.other",
        });
        let result = self.inner.handle(ctx, operation, body);
        rec.close(span);
        if let Some(capture) = &self.capture {
            capture.offer(body);
            if let Ok(reply) = &result {
                capture.offer(reply);
            }
        }
        result
    }

    fn sde(&mut self) -> Option<&mut ServiceData> {
        self.inner.sde()
    }

    fn tick(&mut self, now: SimTime) {
        self.inner.tick(now)
    }
}

/// A [`ControlPlugin`] wrapper that times `review` and `execute` as
/// `plugin.review` and `plugin.execute`.
pub struct TimedPlugin {
    inner: Box<dyn ControlPlugin>,
}

impl TimedPlugin {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ControlPlugin>) -> Self {
        TimedPlugin { inner }
    }
}

impl ControlPlugin for TimedPlugin {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn review(&mut self, actions: &[ControlPoint]) -> Result<(), String> {
        let rec = Recorder::global();
        let span = rec.open("plugin.review");
        let result = self.inner.review(actions);
        rec.close(span);
        result
    }

    fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError> {
        let rec = Recorder::global();
        let span = rec.open("plugin.execute");
        let result = self.inner.execute(actions);
        rec.close(span);
        result
    }

    fn cancel(&mut self, actions: &[ControlPoint]) -> Result<(), PluginError> {
        self.inner.cancel(actions)
    }

    fn state(&self) -> Option<Value> {
        self.inner.state()
    }

    fn restore(&mut self, state: &Value) -> Result<(), PluginError> {
        self.inner.restore(state)
    }
}

/// A [`CheckpointStore`] wrapper that times `save` and `load` as
/// `checkpoint.save` and `checkpoint.load`, and counts saves and the
/// encoded size of what it saved.
pub struct TimedStore {
    inner: Arc<dyn CheckpointStore>,
    saves: AtomicU64,
    snapshot_bytes: AtomicU64,
}

impl TimedStore {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn CheckpointStore>) -> Arc<TimedStore> {
        Arc::new(TimedStore {
            inner,
            saves: AtomicU64::new(0),
            snapshot_bytes: AtomicU64::new(0),
        })
    }

    /// Successful saves so far.
    pub fn saves(&self) -> u64 {
        self.saves.load(Ordering::Relaxed)
    }

    /// Encoded bytes of every snapshot saved while recording was on.
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes.load(Ordering::Relaxed)
    }
}

impl CheckpointStore for TimedStore {
    fn save(&self, snapshot: &Snapshot) -> Result<(), CheckpointError> {
        let rec = Recorder::global();
        let span = rec.open("checkpoint.save");
        let result = self.inner.save(snapshot);
        rec.close(span);
        if result.is_ok() {
            self.saves.fetch_add(1, Ordering::Relaxed);
            if rec.enabled() {
                let bytes = snapshot::encode(snapshot).len() as u64;
                self.snapshot_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
        result
    }

    fn load(&self, run_id: &str, step: u64) -> Result<Snapshot, CheckpointError> {
        let rec = Recorder::global();
        let span = rec.open("checkpoint.load");
        let result = self.inner.load(run_id, step);
        rec.close(span);
        result
    }

    fn list(&self, run_id: &str) -> Vec<u64> {
        self.inner.list(run_id)
    }

    fn delete(&self, run_id: &str, step: u64) -> bool {
        self.inner.delete(run_id, step)
    }
}
