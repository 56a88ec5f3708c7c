//! The four workloads. Each is a closed loop driven from this process:
//! one coordinator or one portal client waits for every reply.

use std::time::Instant;

use crate::ledger::Outcome;

pub mod most_public;
pub mod most_resume;
pub mod nsite64;
pub mod portal_load;

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 2004;

/// Names accepted by `--workload`, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["nsite64", "most_public", "most_resume", "portal_load"];

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed.
    pub seed: u64,
    /// Wall-clock budget of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// Run the workload called `name`.
pub fn run(name: &str, opts: Opts) -> Result<Outcome, String> {
    match name {
        "nsite64" => Ok(nsite64::run(opts)),
        "most_public" => Ok(most_public::run(opts)),
        "most_resume" => Ok(most_resume::run(opts)),
        "portal_load" => Ok(portal_load::run(opts)),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {NAMES:?}"
        )),
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// How many passes a measured phase of `budget` seconds makes, when one
/// pass took about `pass_s` seconds on the code the benchmark was
/// written against; at least `min`. The count depends only on these
/// arguments, never on how fast the code under test runs, so two
/// commits take their best-of or median over the same number of passes.
pub fn passes(budget: f64, pass_s: f64, min: usize) -> usize {
    ((budget / pass_s).round() as usize).max(min)
}

/// Build `batches × size` times and return the last build, which the
/// caller runs straight away, as a user would run what they just built.
/// Appends one sample per batch to `times`: the sum of the batch's
/// build times divided by `size`. Each build is timed on its own, and
/// each build but the last is dropped outside the timed sections.
pub fn build_batches<T>(
    batches: usize,
    size: usize,
    times: &mut Vec<f64>,
    mut build: impl FnMut() -> T,
) -> T {
    let size = size.max(1);
    let mut last = None;
    for _ in 0..batches.max(1) {
        let mut total = 0.0;
        for _ in 0..size {
            drop(last.take());
            let t = Instant::now();
            last = Some(build());
            total += secs(t);
        }
        times.push(total / size as f64);
    }
    last.expect("at least one build")
}

/// The end-to-end samples of an untraced run, one entry per pass.
#[derive(Debug, Default)]
pub struct Timings {
    /// `setup_s` samples, in reference-host seconds.
    pub setup: Vec<f64>,
    /// `run_s` samples, in reference-host seconds.
    pub run: Vec<f64>,
    /// The `run_s` samples' wall times as measured.
    pub wall: Vec<f64>,
    /// The host-speed factor of each pass.
    pub speed: Vec<f64>,
    /// Peak resident set once the first pass had ended, MB.
    pub peak_rss_mb: Option<f64>,
}

impl Timings {
    /// Add one pass: its build-time samples and run wall time, measured
    /// inside a [`crate::speed::around`] call that returned `speed`.
    pub fn push(&mut self, setup: &[f64], wall: f64, speed: f64) {
        self.setup.extend(setup.iter().map(|s| s * speed));
        self.run.push(wall * speed);
        self.wall.push(wall);
        self.speed.push(speed);
        self.peak_rss_mb.get_or_insert_with(crate::sys::peak_rss_mb);
    }

    /// Record the median samples as `setup_s` and `run_s`, the peak
    /// resident set after the first pass as `peak_rss_mb`, and the
    /// median wall time and host-speed factor on the detail line;
    /// returns `run_s`.
    ///
    /// The peak is taken after the first pass because the later ones
    /// add what the allocator kept from earlier passes: one
    /// `most_public` pass peaked at about 153 MB, while four in one
    /// process peaked anywhere from 182 to 241 MB.
    pub fn report(&self, out: &mut Outcome) -> f64 {
        out.set_median("setup_s", &self.setup);
        out.set("peak_rss_mb", self.peak_rss_mb.unwrap_or(0.0));
        out.detail
            .insert("run_s.wall", crate::stats::median(&self.wall));
        out.detail
            .insert("host.speed", crate::stats::median(&self.speed));
        out.set_median("run_s", &self.run)
    }
}
