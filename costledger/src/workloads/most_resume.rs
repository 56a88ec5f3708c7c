//! `most_resume`: crash and restart. The simulation-only MOST deployment
//! runs the public fault plan with a checkpoint every 100 steps and dies
//! at step 1493; a freshly built deployment then loads the latest
//! snapshot from the shared repository store and runs to 1500/1500. The
//! resumed history must equal an uncrashed run's bit for bit.
//!
//! The scenario is fixed by the paper, so the workload seed does not
//! change its inputs.

use std::sync::Arc;
use std::time::Instant;

use neesgrid_checkpoint::{CheckpointPolicy, CheckpointStore, RepoCheckpointStore};
use neesgrid_coordinator::{ExperimentOutcome, FaultPolicy, Termination};
use neesgrid_most::{public_run_fault_plan, MostConfig, MostDeployment};
use neesgrid_repo::VirtualStore;
use neesgrid_telemetry::Telemetry;

use super::nsite64::bit_identical;
use super::{build_batches, passes, secs, Opts, Timings};
use crate::ledger::Outcome;
use crate::spans::{Recorder, Span};
use crate::speed;
use crate::stats::{best, median};
use crate::wrap::TimedStore;

const RUN_ID: &str = "most-public";
const PREFIX: &str = "/experiments/most";
/// Steps between checkpoints.
pub const EVERY: u64 = 100;
/// `setup_s` samples per cycle, and deployments built per sample.
const SETUP_BATCHES: usize = 8;
const SETUP_BUILDS: usize = 4;
/// One untraced cycle (builds, doomed run, recovery, check) on the
/// 2-core host the benchmark was calibrated on, s; it sets how many
/// cycles fit in `--seconds` (see [`passes`]).
const CYCLE_S: f64 = 4.0;
/// One doomed run with checkpointing off, on the same host, s.
const NEVER_PASS_S: f64 = 1.0;
/// Checkpoints saved before the crash at step 1493.
pub const CHECKPOINTS: u64 = 14;
/// Step of the fatal link reset.
pub const FATAL_STEP: u64 = 1493;

fn full_policy() -> FaultPolicy {
    FaultPolicy::Full {
        max_step_retries: 3,
    }
}

/// One crash-and-restart cycle.
pub struct Cycle {
    /// Mean wall time of one build of the doomed deployment, one sample
    /// per batch of builds, s.
    pub setup_s: Vec<f64>,
    /// The doomed run, s.
    pub run_s: f64,
    /// Building the fresh deployment and resuming to the end, s.
    pub recovery_s: f64,
    /// Modelled time at the crash, ms.
    pub virtual_ms: f64,
    /// The doomed run's outcome.
    pub doomed: ExperimentOutcome,
    /// The resumed run's outcome, or why the resume failed.
    pub resumed: Result<ExperimentOutcome, String>,
    /// The store wrapper both phases used.
    pub store: Arc<TimedStore>,
}

fn checkpoint_store(backing: &VirtualStore, d: &MostDeployment) -> Arc<TimedStore> {
    TimedStore::new(Arc::new(RepoCheckpointStore::new(
        backing.clone(),
        d.clock(),
        PREFIX,
    )))
}

/// The doomed run alone under checkpoint `policy`; returns the wall
/// time of the run and its outcome.
pub fn doomed(policy: CheckpointPolicy) -> (f64, ExperimentOutcome) {
    let config = MostConfig::simulation_only();
    let backing = VirtualStore::new();
    let d = MostDeployment::build_with_store(config.clone(), 0, backing.clone());
    d.set_fault_plan(public_run_fault_plan(config.steps));
    let store = checkpoint_store(&backing, &d);
    let t = Instant::now();
    let a = d.run_with_checkpoints(FaultPolicy::Partial, RUN_ID, policy, store);
    (secs(t), a.outcome)
}

/// Run one full cycle with `telemetry` in both deployments, building
/// the doomed deployment `batches × size` times (see [`build_batches`])
/// for the `setup_s` samples.
pub fn cycle(telemetry: &Telemetry, batches: usize, size: usize) -> Cycle {
    let config = MostConfig::simulation_only();
    let mut setup_s = Vec::with_capacity(batches);
    let (d, backing) = build_batches(batches, size, &mut setup_s, || {
        let backing = VirtualStore::new();
        let d = MostDeployment::build_full(config.clone(), 0, backing.clone(), telemetry.clone());
        d.set_fault_plan(public_run_fault_plan(config.steps));
        (d, backing)
    });
    let store = checkpoint_store(&backing, &d);
    let clock = d.clock();
    let t = Instant::now();
    let crashed = d.run_with_checkpoints(
        FaultPolicy::Partial,
        RUN_ID,
        CheckpointPolicy::every(EVERY),
        Arc::clone(&store) as Arc<dyn CheckpointStore>,
    );
    let run_s = secs(t);
    let virtual_ms = clock.now().as_millis_f64();

    let t = Instant::now();
    let d = MostDeployment::build_full(config, 0, backing.clone(), telemetry.clone());
    let resume_store = checkpoint_store(&backing, &d);
    let resumed = d
        .resume_latest(
            full_policy(),
            RUN_ID,
            Arc::clone(&resume_store) as Arc<dyn CheckpointStore>,
        )
        .map(|a| a.outcome)
        .map_err(|e| e.to_string());
    let recovery_s = secs(t);
    Cycle {
        setup_s,
        run_s,
        recovery_s,
        virtual_ms,
        doomed: crashed.outcome,
        resumed,
        store,
    }
}

/// Check a cycle against the uncrashed reference.
pub fn check(out: &mut Outcome, c: &Cycle, reference: &ExperimentOutcome) {
    let died_right = matches!(
        &c.doomed.termination,
        Termination::Aborted { step, site, .. } if *step == FATAL_STEP && site == "cu"
    );
    out.check(died_right, || {
        format!(
            "most_resume: doomed run terminated {:?}",
            c.doomed.termination
        )
    });
    out.check(c.doomed.log.checkpoints_saved() == CHECKPOINTS, || {
        format!(
            "most_resume: {} checkpoints saved",
            c.doomed.log.checkpoints_saved()
        )
    });
    match &c.resumed {
        Ok(resumed) => {
            out.check(
                resumed.termination == Termination::Completed && resumed.steps_completed() == 1500,
                || {
                    format!(
                        "most_resume: resumed run {} steps, {:?}",
                        resumed.steps_completed(),
                        resumed.termination
                    )
                },
            );
            out.check(bit_identical(&resumed.history, &reference.history), || {
                "most_resume: resumed history differs from the uncrashed run".into()
            });
        }
        Err(e) => out.check(false, || format!("most_resume: resume failed: {e}")),
    }
}

/// Run the workload.
pub fn run(opts: Opts) -> Outcome {
    let mut out = Outcome::default();
    // Untimed: the uncrashed reference, which is also the warm-up.
    let reference = MostDeployment::build(MostConfig::simulation_only(), 0)
        .run(full_policy())
        .outcome;
    out.check(reference.termination == Termination::Completed, || {
        "most_resume: the uncrashed reference did not complete".into()
    });

    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (mut timings, mut cycles, mut recoveries) = (Timings::default(), Vec::new(), Vec::new());
    for _ in 0..passes(budget, CYCLE_S, 3) {
        let (c, speed) =
            speed::around(|| cycle(&Telemetry::disabled(), SETUP_BATCHES, SETUP_BUILDS));
        check(&mut out, &c, &reference);
        timings.push(&c.setup_s, c.run_s, speed);
        cycles.push((c.run_s + c.recovery_s) * speed);
        recoveries.push(c.recovery_s);
    }
    let runs = &timings.wall;
    if !opts.trace {
        let run_s = timings.report(&mut out);
        out.set("steps_per_s", FATAL_STEP as f64 / run_s);
        out.set("experiments_per_s", 1.0 / median(&cycles));
        return out;
    }
    out.set("recovery_s", best(&recoveries));

    // Cadence differencing: the doomed run with checkpointing off.
    let mut never = Vec::new();
    for _ in 0..passes(opts.seconds / 4.0, NEVER_PASS_S, 3) {
        let (run_s, outcome) = doomed(CheckpointPolicy::never());
        out.check(outcome.steps_completed() as u64 == FATAL_STEP, || {
            format!(
                "most_resume: never() run committed {}",
                outcome.steps_completed()
            )
        });
        never.push(run_s);
    }
    out.set("checkpoint.overhead_s", best(runs) - best(&never));

    let rec = Recorder::global();
    rec.take();
    rec.set_enabled(true);
    let telemetry = Telemetry::recording();
    let c = cycle(&telemetry, 1, 1);
    rec.set_enabled(false);
    check(&mut out, &c, &reference);
    let spans = rec.take();
    let us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s: &Span| s.dur_ns() as f64 / 1e3)
            .collect()
    };
    out.set("trace.overhead_frac", c.run_s / best(runs));
    out.set("virtual_step_ms", c.virtual_ms / FATAL_STEP as f64);
    out.set("checkpoint.saves", c.store.saves() as f64);
    out.set("checkpoint.save_us", median(&us("checkpoint.save")));
    out.set("checkpoint.load_us", median(&us("checkpoint.load")));
    out.set(
        "checkpoint.snapshot_bytes",
        c.store.snapshot_bytes() as f64 / c.store.saves().max(1) as f64,
    );
    out.set("ogsi.rpc_calls", telemetry.counter("rpc.calls") as f64);
    out.set("ogsi.rpc_retries", telemetry.counter("rpc.retries") as f64);
    out.set(
        "ogsi.completion_waits",
        telemetry.counter("rpc.completion_waits") as f64,
    );
    out.check(c.store.saves() == CHECKPOINTS, || {
        format!("most_resume: store wrapper saw {} saves", c.store.saves())
    });
    crate::write_trace("most_resume", opts.seed, &spans);
    out
}
