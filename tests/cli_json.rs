//! CLI `--json` schema round-trip coverage: every JSON report the
//! `ringdeploy` binary emits — deploy, explore, adversary and certify —
//! must parse back through `ringdeploy-json::FromJson` into the typed
//! report it came from, and the field-name sets are pinned so the JSON
//! surface cannot silently drift (downstream consumers parse these by
//! key).

use std::process::Command;

use ringdeploy::json::{FromJson, Json};
use ringdeploy::sim::adversary::WorstCase;
use ringdeploy::sim::explore::ExploreReport;
use ringdeploy::sim::scheduler::Replay;
use ringdeploy::sim::{Ring, RunLimits};
use ringdeploy::{Algorithm, BoundCertificate, DeployReport, FullKnowledge, InitialConfig};

/// Runs the CLI binary and returns its stdout parsed as one JSON
/// document: under `--json` stdout holds nothing else (the human
/// "ring n = …" header goes to stderr).
fn run_cli(args: &[&str], expect_success: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_ringdeploy"))
        .args(args)
        .output()
        .expect("spawn ringdeploy");
    assert_eq!(
        output.status.success(),
        expect_success,
        "ringdeploy {args:?}: status {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    Json::parse(&stdout)
        .unwrap_or_else(|e| panic!("stdout is not one JSON document: {e}\n{stdout}"))
}

/// The exact key set of a JSON object — the schema pin.
fn keys(json: &Json) -> Vec<String> {
    let Json::Object(map) = json else {
        panic!("expected object, found {json}");
    };
    map.keys().cloned().collect()
}

fn field<'a>(json: &'a Json, name: &str) -> &'a Json {
    let Json::Object(map) = json else {
        panic!("expected object, found {json}");
    };
    map.get(name)
        .unwrap_or_else(|| panic!("missing field `{name}` in {json}"))
}

#[test]
fn deploy_report_round_trips_with_pinned_fields() {
    let json = run_cli(
        &[
            "--n", "12", "--homes", "0,1,2,3", "--algo", "algo2", "--json",
        ],
        true,
    );
    assert_eq!(
        keys(&json),
        [
            "algorithm",
            "check",
            "ideal_time",
            "instance_fingerprint",
            "k",
            "metrics",
            "n",
            "phases",
            "positions",
            "scheduler",
            "steps",
            "symmetry_degree",
        ],
        "DeployReport JSON schema drifted"
    );
    assert_eq!(
        keys(field(&json, "metrics")),
        [
            "activations",
            "message_receipts",
            "messages_sent",
            "moves",
            "peak_memory_bits",
            "token_releases",
        ],
        "Metrics JSON schema drifted"
    );
    let report = DeployReport::from_json(&json).expect("DeployReport decodes");
    assert_eq!(report.algorithm, Algorithm::LogSpace);
    assert_eq!((report.n, report.k), (12, 4));
    assert!(report.succeeded());
    assert_eq!(report.steps, report.metrics.total_activations());
}

#[test]
fn explore_report_round_trips_with_pinned_fields() {
    let json = run_cli(
        &[
            "--n",
            "8",
            "--homes",
            "0,4",
            "--algo",
            "algo1",
            "--explore",
            "--json",
        ],
        true,
    );
    assert_eq!(
        keys(&json),
        ["algorithm", "k", "mode", "n", "report", "symmetry_degree"],
        "explore envelope schema drifted"
    );
    assert_eq!(field(&json, "mode"), &Json::String("explore".into()));
    assert_eq!(
        keys(field(&json, "report")),
        [
            "instance_fingerprint",
            "max_depth_seen",
            "merge_edges",
            "peak_frontier",
            "states",
            "terminals"
        ],
        "ExploreReport JSON schema drifted"
    );
    let report = ExploreReport::from_json(field(&json, "report")).expect("ExploreReport decodes");
    assert!(report.states > report.terminals);
    assert!(report.terminals >= 1);
}

#[test]
fn adversary_report_round_trips_and_the_decoded_witness_replays() {
    let json = run_cli(
        &[
            "--n",
            "6",
            "--homes",
            "0,3",
            "--algo",
            "algo1",
            "--adversary",
            "moves",
            "--json",
        ],
        true,
    );
    assert_eq!(
        keys(&json),
        ["algorithm", "k", "mode", "n", "report", "symmetry_degree"],
        "adversary envelope schema drifted"
    );
    assert_eq!(field(&json, "mode"), &Json::String("adversary".into()));
    assert_eq!(
        keys(field(&json, "report")),
        [
            "bound_prunes",
            "distinct_states",
            "dominance_prunes",
            "expansions",
            "max_depth_seen",
            "objective",
            "terminal_fingerprint",
            "terminal_hits",
            "value",
            "witness",
        ],
        "WorstCase JSON schema drifted"
    );
    let worst = WorstCase::from_json(field(&json, "report")).expect("WorstCase decodes");
    // The decoded witness is a complete, replayable schedule: drive a
    // fresh ring with it and reproduce the claimed worst case — the
    // JSON surface carries real evidence, not a summary.
    let init = InitialConfig::new(6, vec![0, 3]).expect("valid");
    let mut ring = Ring::new(&init, |_| FullKnowledge::new(2));
    let outcome = ring
        .run(
            &mut Replay::new(worst.witness.clone()),
            RunLimits::default(),
        )
        .expect("decoded witness replays");
    assert!(outcome.quiescent);
    assert_eq!(outcome.metrics.total_moves(), worst.value);
}

#[test]
fn certify_report_round_trips_with_pinned_fields() {
    let json = run_cli(
        &[
            "--n",
            "8",
            "--homes",
            "0,4",
            "--algo",
            "relaxed",
            "--certify",
            "--json",
        ],
        true,
    );
    assert_eq!(
        keys(&json),
        [
            "algorithm",
            "certificates",
            "k",
            "mode",
            "n",
            "symmetry_degree",
            "tier"
        ],
        "certify envelope schema drifted"
    );
    assert_eq!(field(&json, "mode"), &Json::String("certify".into()));
    let certificates = field(&json, "certificates")
        .as_array()
        .expect("certificates is an array");
    assert_eq!(certificates.len(), 3, "one certificate per objective");
    for cert_json in certificates {
        assert_eq!(
            keys(cert_json),
            [
                "algorithm",
                "bound",
                "competitive_ratio",
                "holds",
                "instance_fingerprint",
                "k",
                "n",
                "objective",
                "oracle_moves",
                "search",
                "symmetry_degree",
                "terminal_fingerprint",
                "tier",
                "witness",
                "worst_value",
            ],
            "BoundCertificate JSON schema drifted"
        );
        assert_eq!(
            keys(field(cert_json, "bound")),
            ["constant", "formula", "value"],
            "PaperBound JSON schema drifted"
        );
        let cert = BoundCertificate::from_json(cert_json).expect("BoundCertificate decodes");
        assert_eq!(cert.algorithm, Algorithm::Relaxed);
        assert!(cert.holds(), "{}: bound violated", cert.objective);
        assert!(cert.witness.is_some(), "adversarial tier carries evidence");
        // The emitted `holds` flag must agree with the decoded
        // certificate's own arithmetic.
        assert_eq!(field(cert_json, "holds"), &Json::Bool(cert.holds()));
    }
}

/// Success-path pin for the CI gate: on a real instance every emitted
/// `holds` flag is true and the process exits 0. The *violation* half
/// of the gate — non-zero exit when any certificate fails — cannot be
/// reached from the CLI with a real instance (no recorded bound is
/// violated; that is what the CI `adversary` job asserts), so it is
/// covered by the `violation_error_fires_exactly_on_violated_bounds`
/// unit test inside `src/bin/ringdeploy.rs`, which feeds the decision
/// function a fabricated violated certificate.
#[test]
fn certify_succeeds_with_all_holds_flags_true_on_a_real_instance() {
    let json = run_cli(
        &[
            "--n",
            "6",
            "--homes",
            "0,1",
            "--algo",
            "algo1",
            "--certify",
            "--json",
        ],
        true,
    );
    for cert_json in field(&json, "certificates").as_array().expect("array") {
        assert_eq!(field(cert_json, "holds"), &Json::Bool(true));
    }
}

/// Headers never reach stdout under `--json`: a faulted run prints a
/// `faults:` line before the ring header, and both go to stderr. A
/// random placement (`--k`) is covered too. `--render` draws text, so
/// asking for it with `--json` is a usage error (exit 2).
#[test]
fn json_stdout_is_one_document_under_faults_and_render_is_refused() {
    let json = run_cli(
        &[
            "--n",
            "8",
            "--homes",
            "0,1,4",
            "--faults",
            "crash=1@2",
            "--json",
        ],
        true,
    );
    DeployReport::from_json(&json).expect("deploy report");
    let output = Command::new(env!("CARGO_BIN_EXE_ringdeploy"))
        .args(["--n", "12", "--k", "3", "--faults", "crash=1@2", "--json"])
        .output()
        .expect("spawn ringdeploy");
    let stderr = String::from_utf8(output.stderr).expect("utf-8 stderr");
    assert!(
        stderr.starts_with("faults: crash=1@2\nring n = 12, k = 3"),
        "{stderr}"
    );
    Json::parse(std::str::from_utf8(&output.stdout).expect("utf-8 stdout")).expect("one document");

    let output = Command::new(env!("CARGO_BIN_EXE_ringdeploy"))
        .args(["--n", "12", "--k", "3", "--render", "--json"])
        .output()
        .expect("spawn ringdeploy");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
