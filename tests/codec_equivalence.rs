//! The serde shim's direct JSON codec against its value-tree path.
//!
//! `serde_json::to_vec` / `from_slice` write and read typed values with no
//! intermediate `Value`. The reference is the tree path: `to_value` and
//! the compact printer on the way out, the `Value` parser and `from_value`
//! on the way in. For every wire and on-disk type the two must write the
//! same bytes, decode to the same value, and agree on which hostile inputs
//! they refuse.
//!
//! Campaign verdict lines and telemetry JSONL are not serde types: the
//! telemetry crate's canonical printer writes them, so the campaign and
//! trace byte-identity tests cover them instead.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use proptest::prelude::*;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use neesgrid::archive::{CasStore, Manifest, TransferCheckpoint};
use neesgrid::checkpoint::{CheckpointPolicy, CheckpointStore, MemoryCheckpointStore, Snapshot};
use neesgrid::coordinator::{ExperimentLog, FaultPolicy};
use neesgrid::daq::nsds::NsdsSample;
use neesgrid::gridsim::{NetworkProfile, SimTime};
use neesgrid::gsi::{CertificateAuthority, Credential, DistinguishedName, PolicyDecision};
use neesgrid::most::{public_run_fault_plan, MostConfig, MostDeployment};
use neesgrid::ntcp::msg::{ExecuteResponse, ProposeBody, TransactionRef};
use neesgrid::ntcp::{ControlPoint, ControlPointResult, ProposalDecision};
use neesgrid::ogsi::rpc::RpcOutcome;
use neesgrid::ogsi::{RpcRequest, RpcResponse, ServiceFault};
use neesgrid::portal::{
    BoardEntry, ExperimentSpec, LinkProfile, MotionSuite, PortalStats, Rejection, Request,
    RequestFrame, Response, Role, RunPolicy, RunReport, RunState, SiteKind,
};
use neesgrid::repo::{RestartMarker, VirtualStore};
use neesgrid::structsim::psd::PsdHistory;

// ------------------------------------------------------------ the oracle

/// The bytes the tree path writes.
fn tree_bytes<T: Serialize>(v: &T) -> Vec<u8> {
    serde_json::to_value(v)
        .expect("to_value is infallible")
        .to_string()
        .into_bytes()
}

/// What the tree path decodes.
fn tree_decode<T: DeserializeOwned>(bytes: &[u8]) -> serde_json::Result<T> {
    serde_json::from_value(serde_json::from_slice::<Value>(bytes)?)
}

/// Both paths decode `bytes` alike: equal values, or both an error.
fn decode_agreement<T: DeserializeOwned + Debug>(bytes: &[u8]) -> Result<(), String> {
    let direct = serde_json::from_slice::<T>(bytes);
    let tree = tree_decode::<T>(bytes);
    match (&direct, &tree) {
        (Ok(a), Ok(b)) if format!("{a:?}") == format!("{b:?}") => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        _ => Err(format!(
            "paths disagree on {:?}:\n direct: {direct:?}\n   tree: {tree:?}",
            String::from_utf8_lossy(bytes)
        )),
    }
}

fn assert_same_decode<T: DeserializeOwned + Debug>(text: &str) {
    if let Err(e) = decode_agreement::<T>(text.as_bytes()) {
        panic!("{e}");
    }
}

/// Byte identity, decode equality, and a bit-exact round trip.
fn assert_equivalent<T: Serialize + DeserializeOwned + Debug>(label: &str, v: &T) {
    let direct = serde_json::to_vec(v).expect("to_vec is infallible");
    assert_eq!(
        String::from_utf8_lossy(&direct),
        String::from_utf8_lossy(&tree_bytes(v)),
        "{label}: direct and tree bytes differ"
    );
    let a: T = serde_json::from_slice(&direct)
        .unwrap_or_else(|e| panic!("{label}: direct decode failed: {e}"));
    let b: T = tree_decode(&direct).unwrap_or_else(|e| panic!("{label}: tree decode failed: {e}"));
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{label}: decoded values differ"
    );
    assert_eq!(
        serde_json::to_vec(&a).expect("to_vec is infallible"),
        direct,
        "{label}: round trip is not bit-exact"
    );
}

// --------------------------------------------------------- sample values

/// A 30-step MOST run on the public-run fault schedule, checkpointed
/// every 10 steps: real snapshots, a log with recoveries and the abort,
/// and a trajectory.
struct MostSamples {
    snapshots: Vec<Snapshot>,
    log: ExperimentLog,
    history: PsdHistory,
}

fn most_samples() -> MostSamples {
    let mut config = MostConfig::simulation_only();
    config.steps = 30;
    let deployment = MostDeployment::build_with_store(config, 0, VirtualStore::new());
    deployment.set_fault_plan(public_run_fault_plan(30));
    let store = MemoryCheckpointStore::new();
    let run = deployment.run_with_checkpoints(
        FaultPolicy::Partial,
        "codec",
        CheckpointPolicy::every(10),
        Arc::new(store.clone()),
    );
    let snapshots: Vec<Snapshot> = store
        .list("codec")
        .into_iter()
        .map(|step| store.load("codec", step).expect("saved snapshot loads"))
        .collect();
    assert!(!snapshots.is_empty(), "the run saved checkpoints");
    MostSamples {
        snapshots,
        log: run.outcome.log,
        history: run.outcome.history,
    }
}

fn propose_body() -> ProposeBody {
    ProposeBody {
        transaction: "step-0042".into(),
        actions: vec![
            ControlPoint::displacement("dof-0", 0.001_234_567_890_123, -1523.75),
            ControlPoint {
                name: "dof-1".into(),
                displacement_m: -2.5e-7,
                velocity_mps: 0.1,
                expected_force_n: 1e21,
            },
        ],
        timeout: SimTime::from_millis(10_250),
    }
}

fn execute_response() -> ExecuteResponse {
    ExecuteResponse {
        results: vec![ControlPointResult {
            name: "dof-0".into(),
            displacement_m: 0.000_98,
            force_n: 196.2,
        }],
        duration: SimTime::from_micros(8_000_123),
    }
}

fn samples(n: u64) -> Vec<NsdsSample> {
    (0..n)
        .map(|i| NsdsSample {
            channel: format!("most-public/resp/dof-{}", i % 3),
            t: SimTime::from_millis(i * 10),
            value: (i as f64 * 0.0137).sin() * 0.023_456_7,
        })
        .collect()
}

fn spec() -> ExperimentSpec {
    let mut spec = ExperimentSpec::basic(3, 120, 2004, 25);
    spec.profile = NetworkProfile::LossyWan;
    spec.links = vec![LinkProfile {
        src: "coordinator".into(),
        dst: "site-1".into(),
        profile: NetworkProfile::Lan,
    }];
    spec.mix = vec![SiteKind::Numerical, SiteKind::Emulated];
    spec.faults = public_run_fault_plan(120);
    spec.policy = RunPolicy::Partial;
    spec.motion = MotionSuite::Strong;
    spec.amplitude = 0.75;
    spec.record_trace = true;
    spec
}

fn every_request(cred: &Credential) -> Vec<Request> {
    let run = || "alice/run-0007".to_string();
    vec![
        Request::Login {
            token: cred.token(),
        },
        Request::Logout,
        Request::Whoami,
        Request::Submit { spec: spec() },
        Request::Status { run: run() },
        Request::Fetch { run: run() },
        Request::FetchArtifact {
            run: run(),
            artifact: "capture.jsonl".into(),
            offset: 65_536,
            max: 262_144,
        },
        Request::Cancel { run: run() },
        Request::Observe {
            run: run(),
            channels: "dof-*".into(),
            buffer: 4096,
        },
        Request::ObserveFacility {
            pattern: "most/*".into(),
            buffer: 1024,
        },
        Request::Poll {
            observer: 17,
            max: 1024,
        },
        Request::Unobserve { observer: 17 },
        Request::Post {
            board: "chat".into(),
            text: "step 1493: \"cu\" reset\n\tretrying…".into(),
        },
        Request::Board {
            board: "notebook".into(),
        },
        Request::Stats,
    ]
}

fn every_rejection() -> Vec<Rejection> {
    vec![
        Rejection::NotLoggedIn,
        Rejection::BadCredential {
            error: "proxy expired".into(),
        },
        Rejection::AlreadyLoggedIn,
        Rejection::RoleDenied {
            need: Role::Operator,
        },
        Rejection::QueueFull { capacity: 64 },
        Rejection::QuotaConcurrent { limit: 2 },
        Rejection::QuotaSteps {
            limit: 10_000,
            requested: 1_500,
            used: 9_000,
        },
        Rejection::QuotaObservers { limit: 4 },
        Rejection::CrossTenant {
            decision: PolicyDecision::deny("run belongs to bob"),
        },
        Rejection::UnknownRun {
            run: "observer-9".into(),
        },
        Rejection::BadSpec {
            reason: "sites must be 1..=64".into(),
        },
    ]
}

fn every_response(history: &PsdHistory) -> Vec<Response> {
    let author = DistinguishedName::nees_user("REMOTE", "carol");
    let report = |state| RunReport {
        run: "alice/run-0007".into(),
        state,
        steps_completed: 1493,
        steps_requested: 1500,
    };
    let mut responses = vec![
        Response::Ok,
        Response::Session {
            role: Role::Participant,
            expires_at: SimTime::from_secs(6 * 3600),
        },
        Response::Submitted {
            run: "alice/run-0007".into(),
            queued: 3,
        },
        Response::Observing { observer: 17 },
        Response::Samples {
            samples: samples(64),
            dropped: 12,
            done: false,
        },
        Response::Artifact {
            artifact: "capture.jsonl".into(),
            total_len: 1 << 20,
            digest: 0xCBF4_3926,
            offset: 0,
            data: b"{\"t\":0}\n\x00\xff".to_vec(),
            eof: false,
        },
        Response::History {
            history: history.clone(),
            digest: u32::MAX,
        },
        Response::Posted { seq: 8 },
        Response::BoardEntries {
            entries: vec![BoardEntry {
                seq: 8,
                author,
                at: SimTime::from_millis(1_234),
                text: "αβγ \u{1F30B} \\ done".into(),
            }],
        },
        Response::Stats {
            report: PortalStats {
                admitted: 10_000,
                shed: 77,
                p99_first_step_ns: u64::MAX,
                ..PortalStats::default()
            },
        },
        Response::Error {
            message: "unknown operation".into(),
        },
    ];
    for state in [
        RunState::Queued,
        RunState::Running { worker: 2 },
        RunState::Rescheduling,
        RunState::Completed,
        RunState::Cancelled,
        RunState::Failed {
            error: "cu: transport: link reset".into(),
        },
    ] {
        responses.push(Response::Status {
            report: report(state),
        });
    }
    for rejection in every_rejection() {
        responses.push(Response::Rejected { rejection });
    }
    responses
}

fn rpc_requests(snapshot: &Snapshot) -> Vec<RpcRequest> {
    let caller = DistinguishedName::nees_user("UIUC", "coordinator");
    let body = |operation: &str, body: Value| RpcRequest {
        request_id: 6 * 1493 + 1,
        caller: caller.clone(),
        operation: operation.into(),
        body,
    };
    vec![
        body("propose", serde_json::to_value(propose_body()).unwrap()),
        body(
            "execute",
            serde_json::to_value(TransactionRef {
                transaction: "step-0042".into(),
            })
            .unwrap(),
        ),
        body("restoreSite", snapshot.sites[0].state.clone()),
        body("ping", Value::Null),
    ]
}

fn rpc_responses() -> Vec<RpcResponse> {
    vec![
        RpcResponse {
            request_id: 8959,
            outcome: RpcOutcome::Ok(serde_json::to_value(execute_response()).unwrap()),
        },
        RpcResponse {
            request_id: 8960,
            outcome: RpcOutcome::Ok(serde_json::to_value(ProposalDecision::Accepted).unwrap()),
        },
        RpcResponse {
            request_id: 8961,
            outcome: RpcOutcome::Fault(ServiceFault::transient("Busy", "retry later")),
        },
    ]
}

fn manifest() -> Manifest {
    let cas = CasStore::new(VirtualStore::new());
    let content: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
    cas.ingest(
        "/runs/r-0001/capture.jsonl",
        &Bytes::from(content),
        512,
        SimTime::ZERO,
    )
}

fn credential() -> Credential {
    let ca = CertificateAuthority::nees(7);
    let cred = Credential::issue(
        &ca,
        DistinguishedName::nees_user("REMOTE", "alice"),
        SimTime::ZERO,
        SimTime::from_secs(6 * 3600),
        7,
    );
    cred.delegate(SimTime::from_secs(60), SimTime::from_secs(3600))
        .expect("one proxy hop is within depth")
}

// ------------------------------------------------------- wire and disk

#[test]
fn every_wire_and_disk_type_encodes_identically_and_decodes_equal() {
    let most = most_samples();
    let cred = credential();

    for request in every_request(&cred) {
        let frame = RequestFrame {
            tenant: cred.identity().clone(),
            request,
        };
        assert_equivalent("RequestFrame", &frame);
    }
    for response in every_response(&most.history) {
        assert_equivalent("Response", &response);
    }
    assert_equivalent(
        "Response::Samples (one full Poll)",
        &Response::Samples {
            samples: samples(1024),
            dropped: 0,
            done: true,
        },
    );
    for sample in samples(8) {
        assert_equivalent("NsdsSample", &sample);
    }

    assert_equivalent("ProposeBody", &propose_body());
    assert_equivalent("ExecuteResponse", &execute_response());
    assert_equivalent(
        "TransactionRef",
        &TransactionRef {
            transaction: "step-1493".into(),
        },
    );
    assert_equivalent("ProposalDecision::Accepted", &ProposalDecision::Accepted);
    assert_equivalent(
        "ProposalDecision::Rejected",
        &ProposalDecision::Rejected {
            reason: "force 2.1e6 N exceeds limit".into(),
        },
    );
    for request in rpc_requests(&most.snapshots[0]) {
        assert_equivalent("RpcRequest", &request);
    }
    for response in rpc_responses() {
        assert_equivalent("RpcResponse", &response);
    }

    for snapshot in &most.snapshots {
        assert_equivalent("Snapshot", snapshot);
    }
    assert!(most.log.transient_recoveries() > 0 || most.log.abort().is_some());
    assert_equivalent("ExperimentLog", &most.log);
    assert_equivalent("PsdHistory", &most.history);

    let manifest = manifest();
    assert_equivalent("Manifest", &manifest);
    assert_equivalent(
        "TransferCheckpoint",
        &TransferCheckpoint {
            src: "uiuc".into(),
            dst: "ncsa".into(),
            transfer_id: 3,
            manifest,
            marker: RestartMarker {
                ranges: vec![(0, 512), (1024, 3072)],
            },
        },
    );
    assert_equivalent("ExperimentSpec", &spec());
}

#[test]
fn value_path_decodes_moved_fields_unchanged() {
    // The tree path moves each field out of its parsed object rather than
    // cloning it; the decoded values must be exactly the encoded ones.
    let most = most_samples();
    let snapshot = &most.snapshots[most.snapshots.len() - 1];
    let back: Snapshot = serde_json::from_value(serde_json::to_value(snapshot).unwrap()).unwrap();
    assert_eq!(&back, snapshot);
    for request in rpc_requests(snapshot) {
        let back: RpcRequest =
            serde_json::from_value(serde_json::to_value(&request).unwrap()).unwrap();
        assert_eq!(back, request);
        let body: Value = serde_json::from_value(request.body.clone()).unwrap();
        assert_eq!(body, request.body);
    }
    let propose: ProposeBody =
        serde_json::from_value(serde_json::to_value(propose_body()).unwrap()).unwrap();
    assert_eq!(propose, propose_body());
    let log: ExperimentLog =
        serde_json::from_value(serde_json::to_value(&most.log).unwrap()).unwrap();
    assert_eq!(log, most.log);
    let edge = Edge::sample();
    let back: Edge = serde_json::from_value(serde_json::to_value(&edge).unwrap()).unwrap();
    assert_eq!(format!("{back:?}"), format!("{edge:?}"));
}

// ------------------------------------------------------------ edge cases

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "camelCase")]
struct Edge {
    zeta_value: f64,
    alpha: Option<u64>,
    big: u64,
    neg: i64,
    text: String,
    by_id: BTreeMap<u64, String>,
    floats: Vec<Option<f32>>,
    pair: (i32, bool),
    kind: EdgeKind,
    raw: Value,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum EdgeKind {
    Unit,
    One(f64),
    Two(u8, String),
    Named { zulu: u64, alpha: String },
}

impl Edge {
    fn sample() -> Edge {
        Edge {
            zeta_value: 1.0,
            alpha: None,
            big: u64::MAX,
            neg: i64::MIN,
            text: "quote\" back\\ nl\n cr\r tab\t bs\u{8} ff\u{c} ctl\u{1} \u{1f} del\u{7f} é 😀"
                .into(),
            by_id: [(2, "two"), (10, "ten"), (100, "hundred")]
                .into_iter()
                .map(|(k, v)| (k, v.to_string()))
                .collect(),
            floats: vec![Some(0.1), None, Some(-3.5e-9), Some(f32::MAX)],
            pair: (-7, true),
            kind: EdgeKind::Named {
                zulu: 0,
                alpha: String::new(),
            },
            raw: json!({"b": [1, -2, 2.5, null, true], "a": {"nested": "x"}}),
        }
    }
}

#[test]
fn edge_values_encode_identically() {
    let edge = Edge::sample();
    assert_equivalent("Edge", &edge);
    let text = serde_json::to_string(&edge).unwrap();
    // Keys in byte order after renaming; integral floats without `.0`;
    // integer map keys sorted as strings; `None` written as null.
    assert!(text.starts_with(r#"{"alpha":null,"big":18446744073709551615,"byId":{"10":"ten","100":"hundred","2":"two"}"#), "{text}");
    assert!(text.contains(r#""zetaValue":1}"#), "{text}");
    assert!(
        text.contains(r#""kind":{"Named":{"alpha":"","zulu":0}}"#),
        "{text}"
    );
    assert!(text.contains(r#"ctl\u0001 \u001f del"#), "{text}");

    for kind in [
        EdgeKind::Unit,
        EdgeKind::One(-0.5),
        EdgeKind::Two(255, "x".into()),
    ] {
        assert_equivalent("EdgeKind", &kind);
    }

    // Non-finite floats become null on both paths, and null reads as NaN.
    for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut edge = Edge::sample();
        edge.zeta_value = f;
        edge.kind = EdgeKind::One(f);
        let direct = serde_json::to_vec(&edge).unwrap();
        assert_eq!(direct, tree_bytes(&edge));
        let back: Edge = serde_json::from_slice(&direct).unwrap();
        assert!(back.zeta_value.is_nan());
        assert!(matches!(back.kind, EdgeKind::One(x) if x.is_nan()));
        assert_same_decode::<Edge>(std::str::from_utf8(&direct).unwrap());
    }
}

#[test]
fn edge_inputs_decode_alike_on_both_paths() {
    let valid = serde_json::to_string(&Edge::sample()).unwrap();
    let body = &valid[1..valid.len() - 1];
    let cases = [
        // Unknown keys are skipped, but must still be valid JSON.
        format!(r#"{{"zzz":[1,{{"q":null}}],{body},"aaa":"é"}}"#),
        format!(r#"{{"zzz":[1,}},{body}}}"#),
        // Duplicate keys: the last wins, even over a value of the wrong type.
        format!(r#"{{{body},"big":7}}"#),
        format!(r#"{{"big":"seven",{body}}}"#),
        format!(r#"{{{body},"big":"seven"}}"#),
        // Missing fields read as null: fine for Option and f64, not for u64.
        format!(r#"{{{}}}"#, body.replace(r#""zetaValue":1"#, r#""zzz":0"#)),
        format!(r#"{{{}}}"#, body.replace(r#""alpha":null,"#, "")),
        format!(
            r#"{{{}}}"#,
            body.replace(r#""big":18446744073709551615,"#, "")
        ),
        // Integer versus float: the same numbers parse the same way.
        format!(
            r#"{{{}}}"#,
            body.replace("18446744073709551615", "18446744073709551616")
        ),
        format!(r#"{{{}}}"#, body.replace("18446744073709551615", "1.0")),
        format!(r#"{{{}}}"#, body.replace("18446744073709551615", "1e2")),
        format!(
            r#"{{{}}}"#,
            body.replace(r#""zetaValue":1"#, r#""zetaValue":-0"#)
        ),
        // Map keys out of order, duplicated, or spelled two ways.
        format!(
            r#"{{{}}}"#,
            body.replace(
                r#"{"10":"ten","100":"hundred","2":"two"}"#,
                r#"{"2":"b","01":"a","1":"c","2":"d"}"#
            )
        ),
        format!(
            r#"{{{}}}"#,
            body.replace(r#"{"10":"ten","100":"hundred","2":"two"}"#, r#"{"x":"y"}"#)
        ),
        // Escapes and surrogate pairs.
        format!(
            r#"{{{}}}"#,
            body.replace(r#""text":"quote"#, r#""text":"😀\/\b\fA"#)
        ),
        format!(
            r#"{{{}}}"#,
            body.replace(r#""text":"quote"#, r#""text":"\ud83d"#)
        ),
        format!(
            r#"{{{}}}"#,
            body.replace(r#""text":"quote"#, r#""text":"\udc00"#)
        ),
        format!(
            r#"{{{}}}"#,
            body.replace(r#""text":"quote"#, r#""text":"\x"#)
        ),
        // Enums: string form, object form, unknown and multi-key objects.
        format!(
            r#"{{{}}}"#,
            body.replace(r#"{"Named":{"alpha":"","zulu":0}}"#, r#""Unit""#)
        ),
        format!(
            r#"{{{}}}"#,
            body.replace(r#"{"Named":{"alpha":"","zulu":0}}"#, r#"{"Unit":[1,2]}"#)
        ),
        format!(
            r#"{{{}}}"#,
            body.replace(r#"{"Named":{"alpha":"","zulu":0}}"#, r#""One""#)
        ),
        format!(
            r#"{{{}}}"#,
            body.replace(r#"{"Named":{"alpha":"","zulu":0}}"#, r#"{"Two":[1]}"#)
        ),
        format!(
            r#"{{{}}}"#,
            body.replace(
                r#"{"Named":{"alpha":"","zulu":0}}"#,
                r#"{"One":"x","One":2}"#
            )
        ),
        format!(
            r#"{{{}}}"#,
            body.replace(
                r#"{"Named":{"alpha":"","zulu":0}}"#,
                r#"{"One":1,"Unit":null}"#
            )
        ),
        format!(
            r#"{{{}}}"#,
            body.replace(r#"{"Named":{"alpha":"","zulu":0}}"#, r#"{}"#)
        ),
        // Whitespace everywhere, and trailing garbage.
        format!(
            " \n{{ {} }}\t",
            body.replace(',', " ,\r\n ").replace(':', " : ")
        ),
        format!("{{{body}}} x"),
        format!("{{{body}}}{{}}"),
    ];
    for case in &cases {
        assert_same_decode::<Edge>(case);
    }
}

#[test]
fn multi_key_enum_objects_are_refused_on_both_paths() {
    let input = r#"{"Accepted":null,"Rejected":{"reason":"too big"}}"#;
    let direct = serde_json::from_str::<ProposalDecision>(input).unwrap_err();
    assert!(direct.to_string().contains("single-key"), "{direct}");
    let tree = serde_json::from_value::<ProposalDecision>(serde_json::from_str(input).unwrap())
        .unwrap_err();
    assert!(tree.to_string().contains("single-key"), "{tree}");
    // A lone key still decodes on both.
    assert_same_decode::<ProposalDecision>(r#"{"Rejected":{"reason":"too big"}}"#);
    assert_same_decode::<ProposalDecision>(r#"{"Accepted":null}"#);
}

#[test]
fn the_one_tokenizer_refuses_malformed_json() {
    let deep_ok = format!("{}{}", "[".repeat(128), "]".repeat(128));
    let too_deep = format!("{}{}", "[".repeat(129), "]".repeat(129));
    for ok in [
        "null",
        " [ 1 , -2.5e3 , \"\\u00e9\" , {} , [] ] ",
        "{\"a\":{\"b\":[true,false,null]}}",
        "01",
        "-0",
        "1.",
        deep_ok.as_str(),
    ] {
        assert!(serde_json::from_str::<Value>(ok).is_ok(), "refused {ok:?}");
    }
    for bad in [
        "",
        "[1,]",
        "[,1]",
        "[1 2]",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "{\"a\":1 \"b\":2}",
        "{\"a\":{}\"b\":2}",
        "{1:2}",
        "nul",
        "tru",
        "\"abc",
        "\"\\u12\"",
        "\"\\ud800\"",
        "\"\\ud800\\u0041\"",
        "\"tab\there\"",
        "1.2.3",
        "-",
        "1e",
        "[",
        "}",
        "[1]]",
        too_deep.as_str(),
    ] {
        assert!(
            serde_json::from_str::<Value>(bad).is_err(),
            "accepted {bad:?}"
        );
        assert!(
            serde_json::from_str::<Edge>(bad).is_err(),
            "accepted {bad:?}"
        );
    }
    assert!(serde_json::from_slice::<Value>(b"\"\xff\"").is_err());
}

// --------------------------------------------------------- hostile input

/// Valid frames of several types, each with its agreement check.
type Check = fn(&[u8]) -> Result<(), String>;

fn build_corpus() -> Vec<(Vec<u8>, Check)> {
    let cred = credential();
    let history = PsdHistory {
        dt: 0.01,
        displacement: vec![vec![0.0, 1.5e-3], vec![-2.25e-3, 4.0]],
        velocity: vec![vec![0.1, -0.2], vec![0.3, 0.0]],
        acceleration: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        restoring: vec![vec![-10.0, 20.5], vec![30.0, -40.0]],
        steps_completed: 2,
    };
    let mut out: Vec<(Vec<u8>, Check)> = Vec::new();
    for request in every_request(&cred) {
        let frame = RequestFrame {
            tenant: cred.identity().clone(),
            request,
        };
        out.push((
            serde_json::to_vec(&frame).unwrap(),
            decode_agreement::<RequestFrame>,
        ));
    }
    for response in every_response(&history) {
        out.push((
            serde_json::to_vec(&response).unwrap(),
            decode_agreement::<Response>,
        ));
    }
    let snapshot_like = json!({"sites": [{"site": "uiuc", "state": {"tx": [1, 2]}}]});
    let request = RpcRequest {
        request_id: 9,
        caller: cred.identity().clone(),
        operation: "propose".into(),
        body: serde_json::to_value(propose_body()).unwrap(),
    };
    out.push((
        serde_json::to_vec(&request).unwrap(),
        decode_agreement::<RpcRequest>,
    ));
    for response in rpc_responses() {
        out.push((
            serde_json::to_vec(&response).unwrap(),
            decode_agreement::<RpcResponse>,
        ));
    }
    out.push((
        serde_json::to_vec(&snapshot_like).unwrap(),
        decode_agreement::<Value>,
    ));
    out.push((
        serde_json::to_vec(&manifest()).unwrap(),
        decode_agreement::<Manifest>,
    ));
    out.push((
        serde_json::to_vec(&Edge::sample()).unwrap(),
        decode_agreement::<Edge>,
    ));
    out.push((
        serde_json::to_vec(&ProposalDecision::Rejected { reason: "x".into() }).unwrap(),
        decode_agreement::<ProposalDecision>,
    ));
    out
}

/// Bytes JSON is made of, so random input reaches past the first token.
const JSONISH: &[u8] = b"{}[]\":,0123456789-+.eEnulltruefalse\\u \t\nabcxyz\xc3\xa9\xff";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn hostile_input_gets_the_same_verdict_on_both_paths(
        which in 0usize..1000,
        mutation in 0u8..5,
        at in 0usize..100_000,
        bit in 0u8..8,
        noise in proptest::collection::vec(0usize..JSONISH.len(), 0..48),
        raw in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        static CORPUS: OnceLock<Vec<(Vec<u8>, Check)>> = OnceLock::new();
        let corpus = CORPUS.get_or_init(build_corpus);
        let (valid, check) = &corpus[which % corpus.len()];
        let mut bytes = valid.clone();
        let at = at % bytes.len().max(1);
        match mutation {
            // Truncation.
            0 => bytes.truncate(at),
            // One flipped bit.
            1 => bytes[at] ^= 1 << bit,
            // A run of JSON-ish noise spliced in.
            2 => {
                let noise: Vec<u8> = noise.iter().map(|&i| JSONISH[i]).collect();
                bytes.splice(at..at, noise);
            }
            // JSON-ish noise alone.
            3 => bytes = noise.iter().map(|&i| JSONISH[i]).collect(),
            // Random bytes alone.
            _ => bytes = raw,
        }
        if let Err(e) = check(&bytes) {
            prop_assert!(false, "{}", e);
        }
    }
}
