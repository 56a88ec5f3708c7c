//! `most_public`: the §3.4 public run. 1,500 planned steps on the paper
//! configuration (live-thread containers, emulated rigs), 132 remote
//! participants watching through the portal, repository ingest every
//! 100 steps, and the public fault plan that kills the run at step 1493.
//!
//! The scenario is fixed by the paper, so the workload seed does not
//! change its inputs.

use std::time::Instant;

use neesgrid_coordinator::Termination;
use neesgrid_most::{MostConfig, MostDeployment, MostRunArtifacts, Scenario};
use neesgrid_repo::VirtualStore;
use neesgrid_telemetry::Telemetry;

use super::{build_batches, passes, secs, Opts, Timings};
use crate::ledger::Outcome;
use crate::spans::Recorder;
use crate::speed;
use crate::stats::best;

/// Remote participants in the public run.
pub const PARTICIPANTS: usize = 132;
/// Steps committed before the fatal link reset.
pub const FATAL_STEP: u64 = 1493;
/// Transient faults the coordinator recovers from before the reset.
pub const RECOVERIES: u64 = 4;
/// Data files shipped to the repository before the abort.
pub const FILES: u64 = 84;
/// NSDS samples published before the abort.
pub const NSDS_SAMPLES: u64 = 11_944;
/// Steps of the scaled warm-up run (which dies one step short).
const WARMUP_STEPS: usize = 150;
/// Where the ingest path stores the shipped data files.
const DATA_PREFIX: &str = "/store/experiments/most/data/";
/// `setup_s` samples per pass, and deployments built per sample.
const SETUP_BATCHES: usize = 4;
const SETUP_BUILDS: usize = 3;
/// One untraced pass (builds, run, check) on the 2-core host the
/// benchmark was calibrated on, s; it sets how many passes fit in
/// `--seconds` (see [`passes`]).
const PASS_S: f64 = 5.0;
/// The same for a pass with no participants.
const HOSTING_PASS_S: f64 = 0.6;

/// One built-and-run public run.
pub struct Pass {
    /// Mean wall time of one `MostDeployment::build_full`, one sample
    /// per batch of builds, s.
    pub setup_s: Vec<f64>,
    /// Wall time of the run, s.
    pub run_s: f64,
    /// Modelled time at the end of the run, ms.
    pub virtual_ms: f64,
    /// What the run produced.
    pub artifacts: MostRunArtifacts,
    /// The repository's backing store after the run.
    pub store: VirtualStore,
}

/// Build the public run with `participants` observers `batches × size`
/// times (see [`build_batches`]) and run the first build.
pub fn pass(participants: usize, telemetry: Telemetry, batches: usize, size: usize) -> Pass {
    let scenario = Scenario::PublicRun;
    let config: MostConfig = scenario.config();
    let mut setup_s = Vec::with_capacity(batches);
    let (deployment, store) = build_batches(batches, size, &mut setup_s, || {
        let store = VirtualStore::new();
        let d = MostDeployment::build_full(
            config.clone(),
            participants,
            store.clone(),
            telemetry.clone(),
        );
        d.set_fault_plan(scenario.fault_plan(config.steps));
        (d, store)
    });
    let clock = deployment.clock();
    let t = Instant::now();
    let artifacts = deployment.run(scenario.policy());
    Pass {
        setup_s,
        run_s: secs(t),
        virtual_ms: clock.now().as_millis_f64(),
        artifacts,
        store,
    }
}

/// Check one pass against the paper's §3.4 outcome.
pub fn check(out: &mut Outcome, p: &Pass, participants: usize) {
    let a = &p.artifacts;
    out.check(a.outcome.steps_completed() as u64 == FATAL_STEP, || {
        format!(
            "most_public: {} steps committed",
            a.outcome.steps_completed()
        )
    });
    let aborted_right = matches!(
        &a.outcome.termination,
        Termination::Aborted { step, site, error }
            if *step == FATAL_STEP && site == "cu" && error == "transport: link reset"
    );
    out.check(aborted_right, || {
        format!("most_public: terminated {:?}", a.outcome.termination)
    });
    out.check(a.report.transient_recoveries == RECOVERIES, || {
        format!(
            "most_public: {} transient recoveries",
            a.report.transient_recoveries
        )
    });
    out.check(a.files_ingested == FILES, || {
        format!("most_public: {} files ingested", a.files_ingested)
    });
    // The byte count depends on how much the live-thread DAQ sampled, so
    // the oracle is that every byte shipped arrived in the repository.
    let stored: u64 = p
        .store
        .list(DATA_PREFIX)
        .iter()
        .filter_map(|path| p.store.get(path))
        .map(|f| f.content.len() as u64)
        .sum();
    out.check(a.bytes_ingested > 0 && stored == a.bytes_ingested, || {
        format!(
            "most_public: {} bytes ingested, {stored} bytes stored",
            a.bytes_ingested
        )
    });
    out.check(a.nsds_published == NSDS_SAMPLES, || {
        format!("most_public: {} NSDS samples", a.nsds_published)
    });
    out.check(a.participants == participants, || {
        format!("most_public: {} participants logged in", a.participants)
    });
}

/// Run the workload.
pub fn run(opts: Opts) -> Outcome {
    let mut out = Outcome::default();
    // Untimed warm-up: the same scenario scaled to 150 steps.
    let warm = Scenario::PublicRun.run_with_steps(WARMUP_STEPS);
    out.check(warm.outcome.steps_completed() == WARMUP_STEPS - 1, || {
        format!(
            "most_public: warm-up committed {}",
            warm.outcome.steps_completed()
        )
    });
    drop(warm);

    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut timings = Timings::default();
    for _ in 0..passes(budget, PASS_S, 2) {
        let (p, speed) = speed::around(|| {
            pass(
                PARTICIPANTS,
                Telemetry::disabled(),
                SETUP_BATCHES,
                SETUP_BUILDS,
            )
        });
        check(&mut out, &p, PARTICIPANTS);
        timings.push(&p.setup_s, p.run_s, speed);
    }
    let runs = &timings.wall;
    if !opts.trace {
        let run_s = timings.report(&mut out);
        out.set("steps_per_s", FATAL_STEP as f64 / run_s);
        out.set("experiments_per_s", 1.0 / run_s);
        return out;
    }

    // Participant differencing: the same run with nobody watching.
    let mut hosting = Vec::new();
    for _ in 0..passes(opts.seconds / 4.0, HOSTING_PASS_S, 3) {
        let p = pass(0, Telemetry::disabled(), 1, 1);
        check(&mut out, &p, 0);
        hosting.push(p.run_s);
    }
    out.set("hosting.s", best(&hosting));
    out.set("fanout.s", best(runs) - best(&hosting));

    // One traced pass: telemetry recording plus the bench's phase spans.
    let rec = Recorder::global();
    rec.take();
    rec.set_enabled(true);
    let span = rec.open("most.pass");
    let telemetry = Telemetry::recording();
    let p = pass(PARTICIPANTS, telemetry.clone(), 1, 1);
    rec.close(span);
    rec.set_enabled(false);
    check(&mut out, &p, PARTICIPANTS);
    out.set("trace.overhead_frac", p.run_s / best(runs));
    out.set("virtual_step_ms", p.virtual_ms / FATAL_STEP as f64);
    let a = &p.artifacts;
    out.set("nsds.published", a.nsds_published as f64);
    out.set("repo.files_ingested", a.files_ingested as f64);
    out.set("repo.bytes_ingested", a.bytes_ingested as f64);
    let metrics = telemetry.metrics_snapshot();
    let sum = |prefix: &str| -> f64 {
        metrics
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, v)| *v as f64)
            .sum()
    };
    let (drops, resets) = (sum("link.dropped{"), sum("link.reset{"));
    let retries = telemetry.counter("rpc.retries");
    // The fault plan's four silent drops each cost one retransmission;
    // its one reset is fatal.
    out.check(
        drops == 4.0 && resets == 1.0 && retries == RECOVERIES,
        || format!("most_public: {drops} drops, {resets} resets, {retries} RPC retries"),
    );
    out.set("gridsim.drops", drops);
    out.set("gridsim.resets", resets);
    out.set("ogsi.rpc_calls", telemetry.counter("rpc.calls") as f64);
    out.set("ogsi.rpc_retries", retries as f64);
    out.set(
        "ogsi.completion_waits",
        telemetry.counter("rpc.completion_waits") as f64,
    );
    crate::write_trace("most_public", opts.seed, &rec.take());
    out
}
