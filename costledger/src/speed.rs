//! Host-speed scaling of the end-to-end timings.
//!
//! On a shared host the speed of cache- and allocation-heavy code drifts
//! by a fifth or more over seconds to minutes, while plain arithmetic
//! keeps its speed: the neighbours share the caches and memory, not the
//! core. A fixed piece of work that owes nothing to the program, timed
//! on the measuring thread just before and just after a measurement,
//! reads the host's speed at that moment. The end-to-end timings are
//! wall times multiplied by that reading, so they are in seconds of a
//! reference host on which the probe takes [`REF_PROBE_S`]. The
//! README's "Host-speed scaling" gives the measurements behind the
//! probe's design.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;
use crate::sys;

/// Wall time of one [`probe`] on the reference host, s.
pub const REF_PROBE_S: f64 = 0.010;
/// Probes per reading, after one untimed warm-up probe; the reading is
/// their median.
const PROBES: usize = 3;
/// Records one probe formats, parses and files.
const PROBE_RECORDS: u64 = 6_000;
/// Records the probe's map keeps live.
const PROBE_LIVE: usize = 512;
/// Length of one quiet check, and the share of it this process may
/// spend on the CPU for the check to pass.
const SETTLE_INTERVAL: Duration = Duration::from_millis(20);
const SETTLE_BUSY: f64 = 0.1;
/// Quiet checks made at most before reading anyway.
const SETTLE_MAX: usize = 100;

/// Time one fixed piece of std-only work, s: format small numeric
/// records as text, parse them back and keep the latest few hundred in
/// an ordered map under string keys. That is the kind of work the
/// program's codec and services do, and on the calibration host its
/// speed tracked the program's from pass to pass (README).
pub fn probe() -> f64 {
    let start = Instant::now();
    let mut map: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut text = String::new();
    let mut total = 0.0;
    for i in 0..PROBE_RECORDS {
        let key = format!("site-{:03}/step-{i}", i % 64);
        let row: Vec<f64> = (0..8).map(|k| (i * k) as f64 * 0.37).collect();
        text.clear();
        for x in &row {
            // Writing to a String cannot fail.
            let _ = write!(text, "{x},");
        }
        total += text
            .split(',')
            .filter_map(|s| s.parse::<f64>().ok())
            .sum::<f64>();
        map.insert(key, row);
        if map.len() > PROBE_LIVE {
            map.pop_first();
        }
    }
    black_box((total, map.len()));
    start.elapsed().as_secs_f64()
}

/// Wait until this process is quiet: until, over one
/// [`SETTLE_INTERVAL`], its threads together use the CPU for less than
/// [`SETTLE_BUSY`] of it, or [`SETTLE_MAX`] checks have failed. A MOST
/// deployment's live threads go on working for a while after its run
/// returns; a reading taken then would time them as well as the host.
fn settle() {
    for _ in 0..SETTLE_MAX {
        let cpu = sys::cpu_s();
        std::thread::sleep(SETTLE_INTERVAL);
        if sys::cpu_s() - cpu < SETTLE_BUSY * SETTLE_INTERVAL.as_secs_f64() {
            return;
        }
    }
}

/// One reading, s: once the process is quiet, an untimed warm-up probe
/// (the first allocations after a pass pay for sorting out what the
/// pass freed), then the median of [`PROBES`] probes.
fn reading() -> f64 {
    settle();
    probe();
    let probes: Vec<f64> = (0..PROBES).map(|_| probe()).collect();
    median(&probes)
}

/// Run `f` between two host-speed readings. Returns what `f` returned
/// and the factor that turns a wall time measured inside `f` into
/// reference-host seconds: [`REF_PROBE_S`] over the mean of the two
/// readings. Below 1 the host ran slower than the reference.
pub fn around<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = reading();
    let out = f();
    let after = reading();
    (out, REF_PROBE_S / ((before + after) / 2.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_is_positive_and_finite() {
        let (value, factor) = around(|| 7);
        assert_eq!(value, 7);
        assert!(factor.is_finite() && factor > 0.0, "{factor}");
    }
}
