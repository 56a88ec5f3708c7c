//! The metric tables, the result record and its JSON rendering.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror `BENCHMARK.json`: an untraced
//! run reports every end-to-end metric, a traced run every per-layer
//! metric. A per-layer metric a workload does not pass through is
//! reported as 0 (see the benchmark's README for the map).

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("steps_per_s", "1/s"),
    ("experiments_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-level figures taken in the traced run.
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_frac", "ratio"),
    ("step_p50_us", "us"),
    ("step_p95_us", "us"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
    ("recovery_s", "s"),
    ("virtual_step_ms", "virtual_ms"),
    ("first_step_p99_virtual_ms", "virtual_ms"),
    // gridsim
    ("gridsim.envelopes_per_step", "count"),
    ("gridsim.bytes_per_envelope", "B"),
    ("gridsim.drops", "count"),
    ("gridsim.resets", "count"),
    // codec (body-only: the request and reply bodies, not the envelope)
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    // ogsi
    ("ogsi.rpc_calls", "count"),
    ("ogsi.rpc_retries", "count"),
    ("ogsi.completion_waits", "count"),
    // ntcp
    ("ntcp.propose_us_p50", "us"),
    ("ntcp.propose_us_p95", "us"),
    ("ntcp.execute_us_p50", "us"),
    ("ntcp.execute_us_p95", "us"),
    ("ntcp.self_us", "us"),
    // structsim behind the plugin
    ("plugin.review_us", "us"),
    ("plugin.execute_us", "us"),
    // coordinator
    ("coordinator.step_self_us", "us"),
    ("trace.step_us", "us"),
    // alloc
    ("alloc.count_per_step", "count"),
    ("alloc.bytes_per_step", "B"),
    ("alloc.count_per_experiment", "count"),
    // fan-out: daq NSDS -> portal observers -> chef viewers
    ("fanout.s", "s"),
    ("hosting.s", "s"),
    ("nsds.published", "count"),
    // repo
    ("repo.files_ingested", "count"),
    ("repo.bytes_ingested", "B"),
    // checkpoint
    ("checkpoint.overhead_s", "s"),
    ("checkpoint.saves", "count"),
    ("checkpoint.save_us", "us"),
    ("checkpoint.load_us", "us"),
    ("checkpoint.snapshot_bytes", "B"),
    // portal
    ("portal.login_us_p50", "us"),
    ("portal.login_us_p99", "us"),
    ("portal.submit_us_p50", "us"),
    ("portal.submit_us_p99", "us"),
    ("portal.observe_us_p50", "us"),
    ("portal.observe_us_p99", "us"),
    ("portal.poll_us_p50", "us"),
    ("portal.poll_us_p99", "us"),
    ("portal.tick_s", "s"),
    ("portal.shed", "count"),
    ("portal.completed", "count"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (steps, runs or wire calls, per workload).
    pub attempted: u64,
    /// Operations whose outcome differed from the workload's oracle.
    pub failed: u64,
    /// Oracle mismatches, one line each.
    pub mismatches: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra figures printed on the detail line only.
    pub detail: BTreeMap<&'static str, f64>,
    /// How each pass-derived metric's samples were spread.
    pub detail_pass: Vec<PassSummary>,
}

/// The samples behind one metric, for the detail line.
#[derive(Debug, Clone, Copy)]
pub struct PassSummary {
    /// Metric name.
    pub name: &'static str,
    /// Number of samples.
    pub passes: usize,
    /// Fastest sample.
    pub min: f64,
    /// Median sample.
    pub median: f64,
    /// Slowest sample.
    pub max: f64,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record the median of `samples` as metric `name`; their count,
    /// minimum, median and maximum go on the detail line.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) -> f64 {
        let value = crate::stats::median(samples);
        self.set(name, value);
        self.detail_pass.push(PassSummary {
            name,
            passes: samples.len(),
            min: crate::stats::best(samples),
            median: value,
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        });
        value
    }

    /// Count one attempted operation and whether it matched its oracle.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.mismatches.len() < 20 {
                self.mismatches.push(what());
            }
        }
    }
}

fn number(value: f64) -> String {
    if value.is_finite() {
        // `{:?}` prints the shortest digits that round-trip.
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Render the result line: `correct`, `attempted`, `failed` and every
/// metric of `table`, with its unit. Returns an error naming a metric
/// the run did not produce or produced as a non-finite number.
pub fn result_line(out: &Outcome, table: &[(&str, &str)], traced: bool) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload does not pass through.
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    ))
}

/// Render a flat JSON object of `(key, number)` pairs plus string fields.
pub fn detail_line(strings: &[(String, String)], numbers: &BTreeMap<&'static str, f64>) -> String {
    let mut parts: Vec<String> = strings
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "")))
        .collect();
    parts.extend(
        numbers
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", number(*v))),
    );
    format!("{{{}}}", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let mut out = Outcome::default();
        out.check(true, String::new);
        for &(name, _) in END_TO_END {
            out.set(name, 1.25);
        }
        let line = result_line(&out, END_TO_END, false).expect("all measured");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        out.metrics.remove("run_s");
        assert!(result_line(&out, END_TO_END, false).is_err());
        // Traced runs fill layers a workload does not reach with 0.
        let traced = result_line(&out, PER_LAYER, true).expect("zeros allowed");
        assert!(traced.contains("\"portal.shed\": {\"value\": 0.0, \"unit\": \"count\"}"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut out = Outcome::default();
        out.check(false, || "wrong".into());
        out.set("setup_s", 1.0);
        let line = result_line(&out, &[("setup_s", "s")], false).expect("measured");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
        assert_eq!(out.mismatches, vec!["wrong".to_string()]);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
