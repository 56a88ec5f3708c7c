//! NTCP service data rendered on read against eager publication.
//!
//! An NTCP server records every transaction state change in its
//! `transaction/<name>` service data element at once (version, created and
//! modified times, most-recently-changed), but renders the element's value
//! only when something reads it — unless a subscriber is watching, in which
//! case each change is rendered and delivered as it happens.
//!
//! Each test runs the same operation sequence over the virtual network
//! against two servers: one with a `transaction/*` subscriber (every value
//! rendered eagerly) and one without (values rendered on read). Every
//! answer — the operations' own replies, `ogsi:query`,
//! `ogsi:mostRecentlyChanged` and `getTransaction` — must be the same bytes
//! on both, and the subscriber must have seen one notification per state
//! change carrying that change's value.

use std::collections::BTreeMap;

use proptest::prelude::*;
use serde_json::{json, Value};

use neesgrid::gridsim::{LatencyModel, NetworkConfig, NodeId, SimTime, VirtualNetwork};
use neesgrid::gsi::{ActionLimits, DistinguishedName, SitePolicy};
use neesgrid::ntcp::{
    ControlPlugin, ControlPoint, ControlPointResult, ExecuteOutcome, NtcpServer, PluginError,
};
use neesgrid::ogsi::{
    AttachedContainer, GridService, RpcClient, RpcError, RpcMux, RpcRequest, SdeChange,
    ServiceContainer,
};

/// Transaction names used by the sequences: `tx-0` … `tx-6`.
const NAMES: u8 = 7;

/// One protocol step. Displacements are in millimetres and pick the path:
/// beyond ±50 the site policy rejects, 0 the plugin's review rejects, a
/// negative one fails in execution, and above 30 the plugin cannot cancel.
#[derive(Debug, Clone)]
enum Op {
    Propose {
        tx: u8,
        d_mm: i8,
    },
    Execute {
        tx: u8,
    },
    Cancel {
        tx: u8,
    },
    /// Retransmit the previous mutating request under its request id.
    Replay,
    /// `snapshotSite`, kept for a later `Restore`.
    Snapshot,
    /// `restoreSite` on the live server with the kept snapshot.
    Restore,
    /// `getTransaction` between writes.
    Get {
        tx: u8,
    },
    /// Every read between writes.
    Read,
}

/// A one-DOF spring whose failure modes are chosen by the displacement.
#[derive(Default)]
struct Spring {
    position: f64,
    executions: u64,
}

impl ControlPlugin for Spring {
    fn name(&self) -> &str {
        "spring"
    }

    fn review(&mut self, actions: &[ControlPoint]) -> Result<(), String> {
        match actions {
            [a] if a.displacement_m != 0.0 => Ok(()),
            _ => Err("spring: one non-zero move per proposal".into()),
        }
    }

    fn execute(&mut self, actions: &[ControlPoint]) -> Result<ExecuteOutcome, PluginError> {
        let a = &actions[0];
        if a.displacement_m < 0.0 {
            return Err(PluginError::transient("spring: actuator fault"));
        }
        self.position = a.displacement_m;
        self.executions += 1;
        Ok(ExecuteOutcome {
            results: vec![ControlPointResult {
                name: a.name.clone(),
                displacement_m: a.displacement_m,
                force_n: 2.0e5 * a.displacement_m,
            }],
            duration: SimTime::from_millis(250),
        })
    }

    fn cancel(&mut self, actions: &[ControlPoint]) -> Result<(), PluginError> {
        if actions[0].displacement_m > 0.030 {
            return Err(PluginError::permanent("spring: hold not released"));
        }
        Ok(())
    }

    fn state(&self) -> Option<Value> {
        Some(json!({ "position": self.position, "executions": self.executions }))
    }

    fn restore(&mut self, state: &Value) -> Result<(), PluginError> {
        self.position = state["position"].as_f64().unwrap_or_default();
        self.executions = state["executions"].as_u64().unwrap_or_default();
        Ok(())
    }
}

/// One site on its own virtual network, driven by one client.
struct Rig {
    _net: VirtualNetwork,
    _site: AttachedContainer,
    client: RpcClient,
    // Drains the `transaction/*` subscription of an eager rig.
    changes: Option<Box<dyn Fn() -> Vec<SdeChange>>>,
    last: Option<RpcRequest>,
    snapshot: Value,
}

fn caller() -> DistinguishedName {
    DistinguishedName::nees_user("NCSA", "Coordinator")
}

fn tx_name(tx: u8) -> String {
    format!("tx-{tx}")
}

impl Rig {
    /// A site whose transaction elements are rendered eagerly (`watched`,
    /// through a `transaction/*` subscriber) or on read.
    fn new(watched: bool) -> Self {
        let net = VirtualNetwork::new(NetworkConfig {
            default_latency: LatencyModel::Fixed(SimTime::from_millis(20)),
            seed: 2004,
        });
        let mut server = NtcpServer::new(
            "uiuc",
            SitePolicy::permissive("uiuc", ActionLimits::most_large_scale()),
            Box::<Spring>::default(),
            net.clock(),
        );
        let changes = watched.then(|| {
            let rx = server
                .sde()
                .expect("ntcp exposes service data")
                .subscribe("transaction/*");
            Box::new(move || std::iter::from_fn(|| rx.try_recv().ok()).collect())
                as Box<dyn Fn() -> Vec<SdeChange>>
        });
        let site = ServiceContainer::new(net.endpoint("uiuc").unwrap())
            .with_service("ntcp", Box::new(server))
            .permissive()
            .attach();
        let mux = RpcMux::new(net.endpoint("coordinator").unwrap());
        let client = RpcClient::new(mux, NodeId::new("uiuc"), "ntcp", caller());
        Rig {
            _net: net,
            _site: site,
            client,
            changes,
            last: None,
            snapshot: Value::Null,
        }
    }

    /// Call `operation`; returns the reply as wire bytes (or the error).
    fn call(&self, operation: &str, body: Value) -> (u64, String) {
        let pending = self.client.call_async(operation, body);
        let id = pending.request_id();
        (id, render(pending.wait().map(|r| r.value)))
    }

    fn mutate(&mut self, operation: &str, body: Value) -> String {
        let (request_id, out) = self.call(operation, body.clone());
        self.last = Some(RpcRequest {
            request_id,
            caller: caller(),
            operation: operation.into(),
            body,
        });
        out
    }

    fn step(&mut self, op: &Op) -> String {
        match op {
            Op::Propose { tx, d_mm } => self.mutate(
                "propose",
                json!({
                    "transaction": tx_name(*tx),
                    "actions": [ControlPoint::displacement("dof-0", *d_mm as f64 * 1e-3, 1000.0)],
                    "timeout": SimTime::from_secs(30),
                }),
            ),
            Op::Execute { tx } => self.mutate("execute", json!({ "transaction": tx_name(*tx) })),
            Op::Cancel { tx } => self.mutate("cancel", json!({ "transaction": tx_name(*tx) })),
            Op::Replay => match &self.last {
                // A one-way copy: the next call's pump delivers it first
                // (fixed latency keeps the link in order). The server answers
                // it from its at-most-once cache, unless a restore rewound
                // the cache to before the request.
                Some(req) => {
                    self.client.mux().send_oneway(
                        NodeId::new("uiuc"),
                        "ntcp",
                        &serde_json::to_value(req).unwrap(),
                    );
                    format!("replayed {}", req.request_id)
                }
                None => "nothing to replay".into(),
            },
            Op::Snapshot => {
                let out = self.client.call_value("snapshotSite", Value::Null);
                if let Ok(snap) = &out {
                    self.snapshot = snap.clone();
                }
                render(out)
            }
            Op::Restore => {
                let body = json!({ "snapshot": self.snapshot });
                self.call("restoreSite", body).1
            }
            Op::Get { tx } => {
                self.call("getTransaction", json!({ "transaction": tx_name(*tx) }))
                    .1
            }
            Op::Read => self.reads().join("\n"),
        }
    }

    /// Every service-data read, plus `getTransaction` for every name.
    fn reads(&self) -> Vec<String> {
        let mut out = vec![
            self.call("ogsi:query", json!({ "pattern": "*" })).1,
            self.call("ogsi:query", json!({ "pattern": "transaction/*" }))
                .1,
            self.call("ogsi:mostRecentlyChanged", Value::Null).1,
        ];
        for tx in 0..NAMES {
            out.push(
                self.call("getTransaction", json!({ "transaction": tx_name(tx) }))
                    .1,
            );
        }
        out
    }

    /// Run `ops`, then read everything: the transcript of all answers.
    fn run(&mut self, ops: &[Op]) -> Vec<String> {
        let mut transcript: Vec<String> = ops.iter().map(|op| self.step(op)).collect();
        transcript.extend(self.reads());
        transcript
    }

    fn query(&self, pattern: &str) -> Vec<Value> {
        let out = self
            .client
            .call_value("ogsi:query", json!({ "pattern": pattern }))
            .unwrap();
        out["elements"].as_array().unwrap().clone()
    }

    fn notifications(&self) -> Vec<SdeChange> {
        (self.changes.as_ref().unwrap())()
    }
}

fn render(out: Result<Value, RpcError>) -> String {
    match out {
        Ok(v) => serde_json::to_string(&v).unwrap(),
        Err(e) => format!("error: {e:?}"),
    }
}

/// Run `ops` on an eagerly rendering and an on-read server; assert equal
/// transcripts and a well-formed notification stream. Returns the
/// notifications and the final `transaction/*` elements.
fn equivalent(ops: &[Op]) -> (Vec<SdeChange>, Vec<Value>) {
    let mut eager = Rig::new(true);
    let mut lazy = Rig::new(false);
    let eager_answers = eager.run(ops);
    let lazy_answers = lazy.run(ops);
    assert_eq!(eager_answers.len(), lazy_answers.len());
    for (i, (e, l)) in eager_answers.iter().zip(&lazy_answers).enumerate() {
        assert_eq!(e, l, "answer {i} differs (ops {ops:?})");
    }
    let changes = eager.notifications();
    let elements = eager.query("transaction/*");
    check_notifications(&changes, &elements);
    (changes, elements)
}

/// One notification per change: each element's versions count up from 1
/// without gaps (a restore may drop an element and a later propose start
/// it again), every value is a transaction's state at that change, and
/// the latest notification of every live element is what a query returns.
fn check_notifications(changes: &[SdeChange], elements: &[Value]) {
    let mut latest: BTreeMap<&str, &SdeChange> = BTreeMap::new();
    for change in changes {
        let expected = latest
            .get(change.name.as_str())
            .map_or(1, |c| c.version + 1);
        assert!(
            change.version == expected || change.version == 1,
            "{} jumped to version {} (expected {expected})",
            change.name,
            change.version
        );
        let trail = change.value["timestamps"].as_array().unwrap();
        assert_eq!(
            trail.last().unwrap()["state"],
            change.value["state"],
            "{} notified a value that is not its latest state",
            change.name
        );
        latest.insert(&change.name, change);
    }
    for el in elements {
        let name = el["name"].as_str().unwrap();
        let last = latest
            .get(name)
            .unwrap_or_else(|| panic!("{name} was never notified"));
        assert_eq!(
            el["value"], last.value,
            "{name}: query vs last notification"
        );
        assert_eq!(el["version"], json!(last.version), "{name}: version");
    }
}

/// The states the subscriber saw for one transaction, in order.
fn states_seen(changes: &[SdeChange], tx: u8) -> Vec<String> {
    let name = format!("transaction/{}", tx_name(tx));
    changes
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value["state"].as_str().unwrap().to_string())
        .collect()
}

#[test]
fn lifecycles_answer_identically_and_notify_every_transition() {
    use Op::*;
    let ops = [
        Propose { tx: 0, d_mm: 10 }, // accepted
        Read,
        Execute { tx: 0 },           // completed
        Replay,                      // retransmitted: replayed, not re-run
        Propose { tx: 1, d_mm: 70 }, // policy rejects (beyond ±50 mm)
        Propose { tx: 2, d_mm: 0 },  // plugin review rejects
        Propose { tx: 3, d_mm: -5 }, // accepted, then fails in execution
        Execute { tx: 3 },
        Propose { tx: 0, d_mm: 5 }, // duplicate name
        Propose { tx: 4, d_mm: 10 },
        Get { tx: 4 },
        Cancel { tx: 4 },
        Propose { tx: 5, d_mm: 40 },
        Cancel { tx: 5 }, // cancelled, though the plugin's cancel fails
        Snapshot,
        Propose { tx: 6, d_mm: 20 }, // after the snapshot …
        Execute { tx: 6 },
        Read,
        Restore, // … so the in-place restore drops it
        Read,
        Propose { tx: 6, d_mm: 15 }, // the name is free again
        Execute { tx: 6 },
        Replay,
        Restore,
    ];
    let (changes, elements) = equivalent(&ops);

    // Every transition, then one republication per restore.
    let seen = |tx| states_seen(&changes, tx);
    assert_eq!(
        seen(0),
        [
            "Accepted",
            "Executing",
            "Completed",
            "Completed",
            "Completed"
        ]
    );
    assert_eq!(seen(1), ["Rejected"; 3]);
    assert_eq!(seen(2), ["Rejected"; 3]);
    assert_eq!(
        seen(3),
        ["Accepted", "Executing", "Failed", "Failed", "Failed"]
    );
    assert_eq!(seen(4), ["Accepted", "Cancelled", "Cancelled", "Cancelled"]);
    assert_eq!(seen(5), ["Accepted", "Cancelled", "Cancelled", "Cancelled"]);
    assert_eq!(
        seen(6),
        [
            "Accepted",
            "Executing",
            "Completed",
            "Accepted",
            "Executing",
            "Completed"
        ]
    );

    // After the last restore the service data holds exactly the
    // snapshot's transactions.
    let names: Vec<&str> = elements
        .iter()
        .map(|el| el["name"].as_str().unwrap())
        .collect();
    let expected: Vec<String> = (0..6).map(|tx| format!("transaction/tx-{tx}")).collect();
    assert_eq!(names, expected);
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..NAMES, -60i8..60).prop_map(|(tx, d_mm)| Op::Propose { tx, d_mm }),
        3 => (0..NAMES).prop_map(|tx| Op::Execute { tx }),
        1 => (0..NAMES).prop_map(|tx| Op::Cancel { tx }),
        1 => Just(Op::Replay),
        1 => Just(Op::Snapshot),
        1 => Just(Op::Restore),
        1 => (0..NAMES).prop_map(|tx| Op::Get { tx }),
        1 => Just(Op::Read),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn random_sequences_answer_identically(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        equivalent(&ops);
    }
}
