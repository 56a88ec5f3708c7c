//! # neesgrid-costledger — the cost ledger
//!
//! One benchmark over four workloads of the NEESgrid reproduction. An
//! untraced run reports the end-to-end metrics; a traced run attributes
//! each workload's wall time to the crates it passes through, using
//! wrappers around the program's public trait objects, the counters the
//! program already exposes, and an in-memory span recorder. See
//! `costledger/README.md` for the workloads, the metric map and the
//! predictions.

pub mod alloc;
pub mod ledger;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod sys;
pub mod workloads;
pub mod wrap;

use std::path::PathBuf;

/// Directory the traced run writes its spans to: `traces/` beside this
/// package's manifest.
pub const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");

/// Write `spans` as JSON lines to `TRACE_DIR/<workload>-<seed>.jsonl`.
/// A failure to write is reported on stderr and otherwise ignored: the
/// spans are a by-product, not a result.
pub fn write_trace(workload: &str, seed: u64, spans: &[spans::Span]) {
    let path = PathBuf::from(TRACE_DIR).join(format!("{workload}-{seed}.jsonl"));
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, spans::to_jsonl(spans)));
    if let Err(e) = written {
        eprintln!("costledger: could not write {}: {e}", path.display());
    }
}
