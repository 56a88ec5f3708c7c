//! The benchmark's own checks: the wrapped 64-site construction is the
//! program's `n_site`, and every workload passes its oracles both
//! untraced and traced.
//!
//! The workloads share the process-wide span recorder and allocation
//! counters, so the tests that run them take [`SERIAL`] first.

use std::sync::Mutex;

use neesgrid_costledger::ledger::{END_TO_END, PER_LAYER};
use neesgrid_costledger::workloads::nsite64::{self, bit_identical, CODEC_BODIES, SITES, STEPS};
use neesgrid_costledger::workloads::{self, Opts, NAMES};
use neesgrid_most::n_site;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn wrapped_nsite64_is_bit_identical_to_n_site() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (seed, reference) = nsite64::experiment_seed(workloads::DEFAULT_SEED);
    let fresh = n_site(SITES, seed).run(STEPS);
    assert!(bit_identical(&fresh.history, &reference.history));
    for traced in [false, true] {
        let exp = nsite64::build(SITES, seed, traced);
        let capture = exp.capture.clone();
        let run = exp.run(STEPS);
        assert!(bit_identical(&run.outcome.history, &reference.history));
        assert_eq!(run.outcome.log, reference.log);
        assert_eq!(run.outcome.termination, reference.termination);
        assert_eq!(
            run.net.sent,
            4 * (SITES * STEPS) as u64,
            "4 envelopes per site-step"
        );
        assert_eq!(run.step_marks.len(), STEPS + 1);
        assert_eq!(
            capture.map(|c| c.take().len()),
            traced.then_some(CODEC_BODIES)
        );
    }
}

fn run_both_ways(name: &str) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for trace in [false, true] {
        let opts = Opts {
            seed: workloads::DEFAULT_SEED,
            seconds: 0.0,
            trace,
        };
        let out = workloads::run(name, opts).expect("known workload");
        assert!(out.attempted > 0, "{name}: nothing attempted");
        assert_eq!(
            out.failed, 0,
            "{name} (trace {trace}): {:?}",
            out.mismatches
        );
        let table = if trace { PER_LAYER } else { END_TO_END };
        for (metric, _) in table {
            if let Some(v) = out.metrics.get(metric) {
                assert!(v.is_finite(), "{name}: {metric} = {v}");
            } else {
                assert!(trace, "{name}: {metric} missing");
            }
        }
    }
}

#[test]
fn nsite64_passes_its_oracles_traced_and_untraced() {
    run_both_ways("nsite64");
}

#[test]
fn most_public_passes_its_oracles_traced_and_untraced() {
    run_both_ways("most_public");
}

#[test]
fn most_resume_passes_its_oracles_traced_and_untraced() {
    run_both_ways("most_resume");
}

#[test]
fn portal_load_passes_its_oracles_traced_and_untraced() {
    run_both_ways("portal_load");
}

#[test]
fn every_workload_is_listed_and_unknown_ones_are_refused() {
    assert_eq!(NAMES.len(), 4);
    let opts = Opts {
        seed: 1,
        seconds: 0.0,
        trace: false,
    };
    assert!(workloads::run("nope", opts).is_err());
}

#[test]
fn benchmark_json_lists_the_ledger_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        doc[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m[f].as_str().expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), owned(END_TO_END));
    assert_eq!(names("per_layer"), owned(PER_LAYER));
    let workloads: Vec<&str> = doc["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    assert_eq!(workloads, NAMES);
}
