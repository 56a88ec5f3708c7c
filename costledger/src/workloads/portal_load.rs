//! `portal_load`: 10,000 tenants through the multi-tenant portal's wire
//! API. Each logs in and submits an 8-step experiment; every 250th
//! streams its own run through an observer, and every 97th probes its
//! neighbour's run, which must be refused. Submissions shed by the
//! bounded queue are retried after a scheduler tick.
//!
//! The workload seed drives the control network, the CA, every
//! credential and every experiment seed.

use std::sync::Arc;
use std::time::Instant;

use neesgrid_checkpoint::MemoryCheckpointStore;
use neesgrid_gridsim::{NetworkProfile, SimTime, VirtualNetwork};
use neesgrid_gsi::{CertificateAuthority, Credential, DistinguishedName};
use neesgrid_portal::{
    ExperimentSpec, Portal, PortalClient, PortalConfig, Rejection, Request, Response,
};

use super::{build_batches, passes, secs, Opts, Timings};
use crate::alloc::AllocWindow;
use crate::ledger::Outcome;
use crate::spans::Recorder;
use crate::speed;
use crate::stats::{best, median, quantile};

/// Tenants per pass.
pub const TENANTS: u64 = 10_000;
/// Tenants in the untimed warm-up pass.
const WARMUP_TENANTS: u64 = 1_000;
/// Steps per submitted experiment.
pub const STEPS: usize = 8;
const OBSERVE_EVERY: u64 = 250;
const PROBE_EVERY: u64 = 97;
/// `setup_s` samples per pass, and services built per sample.
const SETUP_BATCHES: usize = 16;
const SETUP_BUILDS: usize = 64;
/// One untraced pass (builds, tenant loop, check) on the 2-core host
/// the benchmark was calibrated on, s; it sets how many passes fit in
/// `--seconds` (see [`passes`]).
const PASS_S: f64 = 5.0;

/// The wire verbs timed separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Login,
    Submit,
    Observe,
    Poll,
    Other,
}

impl Verb {
    fn span_name(self) -> &'static str {
        match self {
            Verb::Login => "portal.login",
            Verb::Submit => "portal.submit",
            Verb::Observe => "portal.observe",
            Verb::Poll => "portal.poll",
            Verb::Other => "portal.other",
        }
    }
}

/// A built portal service and its client.
pub struct Service {
    ca: CertificateAuthority,
    portal: Portal,
    client: PortalClient,
    _net: VirtualNetwork,
}

/// Stand up the portal service for `seed`.
pub fn build(seed: u64) -> Service {
    let net = VirtualNetwork::new(NetworkProfile::CampusWan.config(seed));
    let ca = CertificateAuthority::nees(seed);
    let portal = Portal::serve(
        &net,
        "portal",
        ca.verifier(),
        Arc::new(MemoryCheckpointStore::new()),
        PortalConfig {
            workers: 8,
            slice_steps: 16,
            queue_capacity: 64,
            ..PortalConfig::default()
        },
    )
    .expect("portal node is fresh");
    let client = PortalClient::connect(&net, "client", "portal").expect("client node is fresh");
    Service {
        ca,
        portal,
        client,
        _net: net,
    }
}

/// What one pass observed, for the oracles and the metrics.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the tenant loop and the final drain, s.
    pub run_s: f64,
    /// Wall time inside `tick` and `drain`, s.
    pub tick_s: f64,
    /// Every wire call's wall latency, µs, by verb.
    calls: Vec<(Verb, f64)>,
    /// Calls whose reply was not the one the protocol requires.
    pub bad_replies: u64,
    /// Probes of a neighbour's run that were not refused.
    pub leaks: u64,
    /// `QueueFull` sheds the client saw and retried.
    pub retries: u64,
    /// Samples streamed to observers.
    pub samples: u64,
    /// Runs completed, from the service's stats.
    pub completed: u64,
    /// Submissions shed, from the service's stats.
    pub shed: u64,
    /// Peak concurrent sessions.
    pub peak_sessions: u64,
    /// p99 submission → first step, virtual ns.
    pub p99_first_step_ns: u64,
}

impl Pass {
    fn latencies(&self, verb: Verb) -> Vec<f64> {
        self.calls
            .iter()
            .filter(|(v, _)| *v == verb)
            .map(|(_, us)| *us)
            .collect()
    }
}

/// Drive `tenants` tenants through a freshly built service.
pub fn pass(svc: &Service, seed: u64, tenants: u64) -> Pass {
    let rec = Recorder::global();
    let mut p = Pass::default();
    // A client-side error (no route, undecodable frame) reads as `None`.
    let call = |p: &mut Pass, verb: Verb, who: &DistinguishedName, request: Request| {
        let span = rec.open(verb.span_name());
        let t = Instant::now();
        let reply = svc.client.call_as(who, request);
        p.calls.push((verb, t.elapsed().as_nanos() as f64 / 1e3));
        rec.close(span);
        reply.ok()
    };
    let tick = |p: &mut Pass, drain: bool| {
        let span = rec.open("portal.tick");
        let t = Instant::now();
        if drain {
            svc.portal.drain();
        } else {
            svc.portal.tick();
        }
        p.tick_s += secs(t);
        rec.close(span);
    };

    let mut previous_run: Option<String> = None;
    let start = Instant::now();
    for i in 0..tenants {
        rec.set_current_id(i);
        let cred = Credential::issue(
            &svc.ca,
            DistinguishedName::nees_user("REMOTE", &format!("tenant-{i:05}")),
            SimTime::ZERO,
            SimTime::from_secs(24 * 3600),
            seed + i,
        );
        let who = cred.identity().clone();
        let login = call(
            &mut p,
            Verb::Login,
            &who,
            Request::Login {
                token: cred.token(),
            },
        );
        if !matches!(login, Some(Response::Session { .. })) {
            p.bad_replies += 1;
            continue;
        }

        let spec = ExperimentSpec::basic(1, STEPS, seed + i, 0);
        let run = loop {
            match call(
                &mut p,
                Verb::Submit,
                &who,
                Request::Submit { spec: spec.clone() },
            ) {
                Some(Response::Submitted { run, .. }) => break Some(run),
                Some(Response::Rejected {
                    rejection: Rejection::QueueFull { .. },
                }) => {
                    p.retries += 1;
                    tick(&mut p, false);
                }
                _ => break None,
            }
        };
        let Some(run) = run else {
            p.bad_replies += 1;
            continue;
        };

        if i % OBSERVE_EVERY == 0 {
            let observe = Request::Observe {
                run: run.clone(),
                channels: "*".into(),
                buffer: 256,
            };
            match call(&mut p, Verb::Observe, &who, observe) {
                Some(Response::Observing { observer }) => {
                    tick(&mut p, true);
                    loop {
                        match call(
                            &mut p,
                            Verb::Poll,
                            &who,
                            Request::Poll { observer, max: 256 },
                        ) {
                            Some(Response::Samples { samples, done, .. }) => {
                                p.samples += samples.len() as u64;
                                if done {
                                    break;
                                }
                            }
                            _ => {
                                p.bad_replies += 1;
                                break;
                            }
                        }
                    }
                    call(&mut p, Verb::Other, &who, Request::Unobserve { observer });
                }
                _ => p.bad_replies += 1,
            }
        }

        if i % PROBE_EVERY == 0 {
            if let Some(victim) = &previous_run {
                for probe in [
                    Request::Cancel {
                        run: victim.clone(),
                    },
                    Request::Observe {
                        run: victim.clone(),
                        channels: "*".into(),
                        buffer: 16,
                    },
                ] {
                    match call(&mut p, Verb::Other, &who, probe) {
                        Some(Response::Rejected {
                            rejection: Rejection::CrossTenant { .. },
                        }) => {}
                        _ => p.leaks += 1,
                    }
                }
            }
        }
        previous_run = Some(run);

        if i % 16 == 0 {
            tick(&mut p, false);
        }
    }
    tick(&mut p, true);
    p.run_s = secs(start);
    let stats = svc.portal.stats();
    p.completed = stats.completed;
    p.shed = stats.shed;
    p.peak_sessions = stats.peak_sessions as u64;
    p.p99_first_step_ns = stats.p99_first_step_ns;
    p
}

/// Check a pass: every tenant's experiment completed, no probe leaked,
/// every reply was the expected one, the service's shed count matches
/// the client's retries, and the shed and virtual p99 figures equal the
/// reference pass's (the service is deterministic in the seed).
pub fn check(out: &mut Outcome, p: &Pass, reference: Option<&Pass>) {
    out.check(p.completed == TENANTS, || {
        format!("portal_load: {} of {TENANTS} completed", p.completed)
    });
    out.check(p.leaks == 0, || {
        format!("portal_load: {} cross-tenant leaks", p.leaks)
    });
    out.check(p.bad_replies == 0, || {
        format!("portal_load: {} unexpected replies", p.bad_replies)
    });
    out.check(p.shed == p.retries && p.peak_sessions >= TENANTS, || {
        format!(
            "portal_load: shed {} vs {} client retries, {} peak sessions",
            p.shed, p.retries, p.peak_sessions
        )
    });
    out.check(p.samples > 0, || {
        "portal_load: observers saw no sample".into()
    });
    if let Some(r) = reference {
        out.check(
            p.shed == r.shed
                && p.p99_first_step_ns == r.p99_first_step_ns
                && p.samples == r.samples,
            || {
                format!(
                    "portal_load: shed {} / p99 {} ns / samples {} vs reference {} / {} / {}",
                    p.shed, p.p99_first_step_ns, p.samples, r.shed, r.p99_first_step_ns, r.samples
                )
            },
        );
    }
}

/// Run the workload.
pub fn run(opts: Opts) -> Outcome {
    let mut out = Outcome::default();
    // Untimed warm-up on a smaller crowd.
    let warm = pass(&build(opts.seed), opts.seed, WARMUP_TENANTS);
    out.check(warm.completed == WARMUP_TENANTS && warm.leaks == 0, || {
        format!(
            "portal_load: warm-up completed {} with {} leaks",
            warm.completed, warm.leaks
        )
    });

    // The first timed pass is the reference for the determinism oracle.
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let (mut timings, mut calls) = (Timings::default(), Vec::new());
    let mut tick_s = Vec::new();
    let mut reference: Option<Pass> = None;
    for _ in 0..passes(budget, PASS_S, 2) {
        let ((setups, mut p), speed) = speed::around(|| {
            let mut setups = Vec::with_capacity(SETUP_BATCHES);
            let svc = build_batches(SETUP_BATCHES, SETUP_BUILDS, &mut setups, || {
                build(opts.seed)
            });
            (setups, pass(&svc, opts.seed, TENANTS))
        });
        check(&mut out, &p, reference.as_ref());
        timings.push(&setups, p.run_s, speed);
        tick_s.push(p.tick_s);
        calls.append(&mut p.calls);
        reference.get_or_insert(p);
    }
    let reference = reference.expect("at least one pass");
    out.detail.insert("shed", reference.shed as f64);
    out.detail
        .insert("p99_first_step_ns", reference.p99_first_step_ns as f64);
    if !opts.trace {
        let run_s = timings.report(&mut out);
        out.set("steps_per_s", (TENANTS * STEPS as u64) as f64 / run_s);
        out.set("experiments_per_s", TENANTS as f64 / run_s);
        return out;
    }
    let wire: Vec<f64> = calls.iter().map(|(_, us)| *us).collect();
    out.set("call_p50_us", median(&wire));
    out.set("call_p99_us", quantile(&wire, 0.99));
    out.set("portal.tick_s", median(&tick_s));
    out.set("portal.shed", reference.shed as f64);
    out.set("portal.completed", reference.completed as f64);
    out.set(
        "first_step_p99_virtual_ms",
        reference.p99_first_step_ns as f64 / 1e6,
    );

    // One traced pass, which also counts allocations (the span list's
    // own growth is a few dozen of them).
    let rec = Recorder::global();
    let svc = build(opts.seed);
    rec.take();
    rec.set_enabled(true);
    AllocWindow::start();
    let p = pass(&svc, opts.seed, TENANTS);
    let allocs = AllocWindow::stop();
    rec.set_enabled(false);
    check(&mut out, &p, Some(&reference));
    out.set(
        "alloc.count_per_experiment",
        allocs.count as f64 / TENANTS as f64,
    );
    out.set("trace.overhead_frac", p.run_s / best(&timings.wall));
    for (verb, p50, p99) in [
        (Verb::Login, "portal.login_us_p50", "portal.login_us_p99"),
        (Verb::Submit, "portal.submit_us_p50", "portal.submit_us_p99"),
        (
            Verb::Observe,
            "portal.observe_us_p50",
            "portal.observe_us_p99",
        ),
        (Verb::Poll, "portal.poll_us_p50", "portal.poll_us_p99"),
    ] {
        let xs = p.latencies(verb);
        out.set(p50, median(&xs));
        out.set(p99, quantile(&xs, 0.99));
    }
    crate::write_trace("portal_load", opts.seed, &rec.take());
    out
}
