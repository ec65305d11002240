//! Wire-protocol pinning tests: every frame round-trips through its
//! JSON encoding, and every encoding's field-name set is pinned so an
//! accidental rename breaks loudly (clients parse these names).

use proptest::prelude::*;
use proptest::TestCaseError;
use ringdeploy_analysis::key::{InstanceKey, JobKind};
use ringdeploy_analysis::{EvidenceTier, Objective, SweepSchedule, Workload};
use ringdeploy_core::{Algorithm, Schedule};
use ringdeploy_json::{FromJson, Json, ToJson};
use ringdeploy_service::{
    parse_request, parse_response, Backpressure, CacheStats, JobSpec, Request, Response, RowFrame,
    StatsReport, MAX_JOB_CELLS, MAX_RING_NODES,
};
use ringdeploy_sim::{AgentId, FaultPlan};

fn keys(json: &Json) -> Vec<String> {
    let Json::Object(map) = json else {
        panic!("expected object, found {json}");
    };
    map.keys().cloned().collect()
}

fn round_trip_request(request: &Request) -> Request {
    let line = request.to_json().to_string();
    parse_request(&line).expect("round-trip")
}

fn round_trip_response(response: &Response) -> Response {
    let line = response.to_json().to_string();
    parse_response(&line).expect("round-trip")
}

fn spec() -> JobSpec {
    JobSpec {
        kind: JobKind::Certify,
        algorithms: vec![Algorithm::FullKnowledge, Algorithm::LogSpace],
        workloads: vec![
            Workload::Random { n: 16, k: 4 },
            Workload::Periodic { n: 12, k: 4, l: 2 },
        ],
        schedules: vec![
            SweepSchedule::Preset(Schedule::Random(9)),
            SweepSchedule::RandomPerSeed,
        ],
        objectives: vec![Objective::TotalMoves],
        tier: EvidenceTier::Adversarial,
        seeds: vec![0, 7],
        faults: FaultPlan::none(),
        timeout_ms: None,
    }
}

fn key() -> InstanceKey {
    InstanceKey {
        kind: JobKind::Sweep,
        algorithm: Algorithm::FullKnowledge,
        workload: Workload::Random { n: 32, k: 8 },
        schedule: Some(Schedule::Random(7)),
        seed: 7,
        objective: None,
        tier: None,
        faults: FaultPlan::none(),
    }
}

/// One frame of every request kind.
fn requests() -> Vec<Request> {
    vec![
        Request::Submit {
            id: 3,
            backpressure: Backpressure::Reject,
            job: spec(),
        },
        Request::Stats,
        Request::Shutdown,
    ]
}

#[test]
fn every_request_round_trips() {
    for request in &requests() {
        assert_eq!(&round_trip_request(request), request);
    }
}

/// One frame of every response kind (`error` with and without an id).
fn responses() -> Vec<Response> {
    let stats = StatsReport {
        cache: CacheStats {
            hits: 5,
            misses: 7,
            evictions: 1,
            entries: 6,
            bytes: 4096,
        },
        active_jobs: 2,
        waiting_jobs: 1,
        completed_jobs: 9,
        rejected_jobs: 3,
        cells_computed: 41,
        panics: 1,
        timeouts: 2,
    };
    vec![
        Response::Accepted { id: 3, cells: 12 },
        Response::Rejected {
            id: 3,
            reason: "at capacity".to_string(),
        },
        Response::Row(RowFrame {
            id: 3,
            seq: 4,
            cached: true,
            fingerprint: 0xdfa0_b50a_9791_74b7,
            key: key(),
            payload: Json::object([("check", Json::String("ok".to_string()))]),
        }),
        Response::Done {
            id: 3,
            rows: 12,
            cache_hits: 4,
        },
        Response::Error {
            id: Some(3),
            message: "boom".to_string(),
        },
        Response::Error {
            id: None,
            message: "bad frame".to_string(),
        },
        Response::Timeout { id: 3, rows: 5 },
        Response::Stats(stats),
        Response::Bye,
    ]
}

#[test]
fn every_response_round_trips() {
    for response in &responses() {
        assert_eq!(&round_trip_response(response), response);
    }
}

#[test]
fn frame_field_sets_are_pinned() {
    let submit = Request::Submit {
        id: 1,
        backpressure: Backpressure::Block,
        job: spec(),
    };
    assert_eq!(
        keys(&submit.to_json()),
        ["backpressure", "id", "job", "type"]
    );
    assert_eq!(
        keys(&spec().to_json()),
        [
            "algorithms",
            "kind",
            "objectives",
            "schedules",
            "seeds",
            "tier",
            "workloads",
        ]
    );
    let row = Response::Row(RowFrame {
        id: 1,
        seq: 0,
        cached: false,
        fingerprint: 1,
        key: key(),
        payload: Json::Null,
    });
    assert_eq!(
        keys(&row.to_json()),
        [
            "cached",
            "fingerprint",
            "id",
            "key",
            "payload",
            "seq",
            "type"
        ]
    );
    assert_eq!(
        keys(&Response::Accepted { id: 1, cells: 2 }.to_json()),
        ["cells", "id", "type"]
    );
    assert_eq!(
        keys(
            &Response::Done {
                id: 1,
                rows: 2,
                cache_hits: 1
            }
            .to_json()
        ),
        ["cache_hits", "id", "rows", "type"]
    );
    assert_eq!(
        keys(&Response::Timeout { id: 1, rows: 2 }.to_json()),
        ["id", "rows", "type"]
    );
    assert_eq!(
        keys(&Response::Stats(StatsReport::default()).to_json()),
        [
            "active_jobs",
            "cache",
            "cells_computed",
            "completed_jobs",
            "panics",
            "rejected_jobs",
            "timeouts",
            "type",
            "waiting_jobs",
        ]
    );
    assert_eq!(
        keys(&CacheStats::default().to_json()),
        ["bytes", "entries", "evictions", "hits", "misses"]
    );
}

/// The fingerprint crosses the wire as 16 hex digits — JSON numbers only
/// round-trip 53 bits.
#[test]
fn row_fingerprint_is_hex_encoded_full_width() {
    let row = Response::Row(RowFrame {
        id: 1,
        seq: 0,
        cached: false,
        fingerprint: u64::MAX,
        key: key(),
        payload: Json::Null,
    });
    let json = row.to_json();
    let hex: String = json.field("fingerprint").expect("fingerprint field");
    assert_eq!(hex, "ffffffffffffffff");
    let Response::Row(back) = Response::from_json(&json).expect("decode") else {
        panic!("expected row frame");
    };
    assert_eq!(back.fingerprint, u64::MAX);
}

/// Submit defaults: backpressure, tier and seeds may be omitted.
#[test]
fn submit_defaults_are_applied_on_decode() {
    let line = r#"{"type":"submit","id":9,"job":{"kind":"sweep",
        "algorithms":["algo1-full-knowledge"],
        "workloads":[{"family":"random","n":16,"k":4}]}}"#
        .replace('\n', " ");
    let Request::Submit {
        id,
        backpressure,
        job,
    } = parse_request(&line).expect("decode")
    else {
        panic!("expected submit");
    };
    assert_eq!(id, 9);
    assert_eq!(backpressure, Backpressure::Block);
    assert_eq!(job.kind, JobKind::Sweep);
    assert_eq!(job.tier, EvidenceTier::Adversarial);
    assert_eq!(job.seeds, vec![0]);
    assert!(job.schedules.is_empty());
    assert!(job.objectives.is_empty());
}

#[test]
fn malformed_frames_are_errors_not_panics() {
    assert!(parse_request("not json").is_err());
    assert!(parse_request("{\"type\":\"warp\"}").is_err());
    assert!(parse_request("{\"no\":\"type\"}").is_err());
    assert!(parse_response("{\"type\":\"warp\"}").is_err());
}

/// Values a mutation swaps in for a number: negative, out of range,
/// past `u64::MAX`, and of the wrong JSON type.
const HOSTILE_NUMBERS: [&str; 5] = ["-1", "1e300", "18446744073709551616", "null", "\"x\""];

/// Bytes valid frames are made of, so random strings get past the
/// tokenizer often enough to reach the decoders.
const JSON_BYTES: &[u8] = b"{}[]:,\"-.0123456789eEtrufalsnxy ";

/// One wire line per request and response kind, plus a submit of every
/// job kind with a fault plan and a deadline.
fn valid_lines() -> Vec<String> {
    let faulted = spec()
        .faults(
            FaultPlan::none()
                .with_crash(AgentId(1), 2)
                .with_edge_outages(1),
        )
        .timeout_ms(500);
    let submits = JobKind::ALL.map(|kind| Request::Submit {
        id: 8,
        backpressure: Backpressure::Block,
        job: JobSpec {
            kind,
            ..faulted.clone()
        },
    });
    let requests = requests().into_iter().chain(submits);
    let mut lines: Vec<String> = requests.map(|r| r.to_json().to_string()).collect();
    lines.extend(responses().iter().map(|r| r.to_json().to_string()));
    lines
}

/// The JSON numbers in `bytes`: digit runs right after `:`, `[` or `,`.
fn numbers(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
        if i > start && start > 0 && b":[,".contains(&bytes[start - 1]) {
            runs.push(start..i);
        }
        i = i.max(start + 1);
    }
    runs
}

/// Applies one mutation: `op` 0 flips bits of a byte, 1 deletes a byte,
/// 2 inserts `byte`, and 3 to 5 swap a number for a hostile value — a
/// frame whose structure survives reaches the field decoders.
fn mutate(bytes: &mut Vec<u8>, (op, at, byte): (u8, usize, u8)) {
    match op {
        0 if !bytes.is_empty() => {
            let i = at % bytes.len();
            bytes[i] ^= byte.max(1);
        }
        1 if !bytes.is_empty() => {
            bytes.remove(at % bytes.len());
        }
        2 => bytes.insert(at % (bytes.len() + 1), byte),
        _ => {
            let numbers = numbers(bytes);
            if !numbers.is_empty() {
                let number = numbers[at % numbers.len()].clone();
                let value = HOSTILE_NUMBERS[usize::from(byte) % HOSTILE_NUMBERS.len()];
                bytes.splice(number, value.bytes());
            }
        }
    }
}

/// Runs every decoder the daemon's reader and actor threads run on one
/// line — `parse_request`, `parse_response`, and for a decoded submit
/// `JobSpec::keys` and each key's `canonical`, `fingerprint` and
/// `label` — and fails the case if any of them panics: no
/// `catch_unwind` protects those threads.
fn decoders_never_panic(bytes: &[u8]) -> Result<(), TestCaseError> {
    let line = String::from_utf8_lossy(bytes);
    let outcome = std::panic::catch_unwind(|| {
        let _ = parse_response(&line);
        if let Ok(Request::Submit { job, .. }) = parse_request(&line) {
            for key in job.keys().unwrap_or_default() {
                let _ = (key.canonical(), key.fingerprint(), key.label());
            }
        }
    });
    prop_assert!(outcome.is_ok(), "a decoder panicked on {line:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn random_bytes_decode_without_panicking(
        bytes in prop::collection::vec(0u8..=255, 0..256),
        json_ish in prop::collection::vec(prop::sample::select(JSON_BYTES.to_vec()), 0..64),
    ) {
        decoders_never_panic(&bytes)?;
        decoders_never_panic(&json_ish)?;
    }

    #[test]
    fn mutated_frames_decode_without_panicking(
        line in prop::sample::select(valid_lines()),
        mutations in prop::collection::vec((0u8..6, any::<usize>(), 0u8..=255), 1..4),
    ) {
        let mut bytes = line.into_bytes();
        for mutation in mutations {
            mutate(&mut bytes, mutation);
        }
        decoders_never_panic(&bytes)?;
    }
}

/// The canonical wire encoding of a frame is deterministic (sorted
/// keys, no whitespace) — the cache byte-identity guarantee needs this.
#[test]
fn frame_encoding_is_deterministic() {
    let frame = Response::Row(RowFrame {
        id: 2,
        seq: 1,
        cached: true,
        fingerprint: 0xdfa0_b50a_9791_74b7,
        key: key(),
        payload: Json::object([("b", 1u64.to_json()), ("a", 2u64.to_json())]),
    });
    let first = frame.to_json().to_string();
    let second = frame.to_json().to_string();
    assert_eq!(first, second);
    assert!(first.contains(r#""a":2,"b":1"#), "keys sorted: {first}");
    assert!(!first.contains('\n'));
}

/// A job spec expands to keys in the deterministic batch row order, and
/// those keys carry the spec's kind.
#[test]
fn job_spec_expansion_matches_batch_row_order() {
    let job = JobSpec {
        kind: JobKind::Sweep,
        objectives: Vec::new(),
        schedules: Vec::new(),
        ..spec()
    };
    let keys = job.keys().expect("expansion");
    // 2 algorithms × 2 workloads × 1 default schedule × 2 seeds.
    assert_eq!(keys.len(), 8);
    assert!(keys.iter().all(|k| k.kind == JobKind::Sweep));
    let again = job.keys().expect("expansion is deterministic");
    assert_eq!(keys, again);
}

/// Fault-plan and deadline plumbing: a faulty spec round-trips, emits
/// the two extra fields, and every expanded key carries the plan — while
/// the fault-free spec's encoding stays byte-identical to the pre-fault
/// protocol (pinned by `frame_field_sets_are_pinned` above).
#[test]
fn fault_plans_and_deadlines_ride_the_job_spec() {
    let plan = FaultPlan::none()
        .with_crash(AgentId(2), 3)
        .with_edge_outages(1);
    let job = JobSpec {
        kind: JobKind::Sweep,
        objectives: Vec::new(),
        schedules: Vec::new(),
        ..spec()
    }
    .faults(plan.clone())
    .timeout_ms(1500);
    assert_eq!(
        keys(&job.to_json()),
        [
            "algorithms",
            "faults",
            "kind",
            "objectives",
            "schedules",
            "seeds",
            "tier",
            "timeout_ms",
            "workloads",
        ]
    );
    let line = Request::Submit {
        id: 4,
        backpressure: Backpressure::Block,
        job: job.clone(),
    }
    .to_json()
    .to_string();
    let Request::Submit { job: back, .. } = parse_request(&line).expect("decode") else {
        panic!("expected submit");
    };
    assert_eq!(back, job);
    let expanded = job.keys().expect("expansion");
    assert!(!expanded.is_empty());
    assert!(expanded.iter().all(|k| k.faults == plan));
    // Same spec without faults expands to fault-free keys whose
    // canonical encodings never mention the field.
    let bare = JobSpec {
        faults: FaultPlan::none(),
        ..job
    };
    for key in bare.keys().expect("expansion") {
        assert!(key.faults.is_empty());
        assert!(!key.canonical().contains("faults"));
    }
}

#[test]
fn empty_dimensions_are_rejected() {
    let job = JobSpec {
        algorithms: Vec::new(),
        ..spec()
    };
    assert!(job.keys().is_err());
}

/// A job is refused before enumeration when its cells exceed
/// `MAX_JOB_CELLS`: exactly at the cap expands, one over does not.
#[test]
fn job_cells_are_capped() {
    let at_cap = JobSpec {
        seeds: (0..MAX_JOB_CELLS as u64).collect(),
        ..JobSpec::new(
            JobKind::Sweep,
            Algorithm::FullKnowledge,
            Workload::Random { n: 16, k: 4 },
        )
    };
    assert_eq!(at_cap.keys().expect("at the cap").len(), MAX_JOB_CELLS);
    let over = JobSpec {
        seeds: (0..=MAX_JOB_CELLS as u64).collect(),
        ..at_cap
    };
    let message = over.keys().expect_err("one over the cap");
    assert!(message.contains(&MAX_JOB_CELLS.to_string()), "{message}");
}

/// A workload's ring size is capped before any worker instantiates it:
/// `n` at `MAX_RING_NODES` expands, one over is refused.
#[test]
fn ring_sizes_are_capped() {
    let job = |n| {
        JobSpec::new(
            JobKind::Sweep,
            Algorithm::FullKnowledge,
            Workload::Uniform { n, k: 2 },
        )
    };
    assert_eq!(job(MAX_RING_NODES).keys().expect("at the cap").len(), 1);
    let message = job(MAX_RING_NODES + 1)
        .keys()
        .expect_err("one over the cap");
    assert!(message.contains(&MAX_RING_NODES.to_string()), "{message}");
}

/// Cache-identity separation across problem families: two keys that
/// agree on every dimension except the family must produce distinct
/// canonical encodings *and* distinct FNV fingerprints — otherwise the
/// daemon would serve a uniform-deployment result for a gathering
/// request (or a g=2 result for a g=3 one) straight from the cache.
#[test]
fn cache_keys_never_collide_across_families() {
    let families = [
        Algorithm::FullKnowledge,
        Algorithm::LogSpace,
        Algorithm::Relaxed,
        Algorithm::partial_gathering(2),
        Algorithm::partial_gathering(3),
    ];
    let keys: Vec<InstanceKey> = families
        .iter()
        .map(|&algorithm| InstanceKey { algorithm, ..key() })
        .collect();
    for (i, a) in keys.iter().enumerate() {
        for b in &keys[i + 1..] {
            assert_ne!(
                a.canonical(),
                b.canonical(),
                "canonical encodings must differ: {} vs {}",
                a.label(),
                b.label()
            );
            assert_ne!(
                a.fingerprint(),
                b.fingerprint(),
                "fingerprints must differ: {} vs {}",
                a.label(),
                b.label()
            );
        }
    }
}

/// The gathering family name survives the wire: an `InstanceKey`
/// carrying `partial-gathering-g3` round-trips through its canonical
/// JSON back to the *same interned* family handle.
#[test]
fn gathering_family_round_trips_through_the_wire_encoding() {
    let original = InstanceKey {
        algorithm: Algorithm::partial_gathering(3),
        ..key()
    };
    let encoded = original.to_json();
    assert!(
        encoded
            .to_string()
            .contains(r#""algorithm":"partial-gathering-g3""#),
        "canonical name on the wire: {encoded}"
    );
    let decoded = InstanceKey::from_json(&encoded).expect("round-trip");
    assert_eq!(decoded, original);
    assert_eq!(decoded.fingerprint(), original.fingerprint());
}

/// 64-bit FNV-1a with the reference offset basis and prime.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins `JobSpec::keys` byte for byte for every kind: a 2 × 2 × 2 × 2
/// spec (algorithms × workloads × schedules-or-objectives × seeds),
/// expanded with its default axes (empty schedules, objectives and
/// seeds) and with explicit ones, each fault-free and under a crash +
/// edge-outage plan. Each expansion pins its key count, its first and
/// last label, and an FNV-1a digest of the newline-joined canonical
/// encodings — so the row order and every cache identity are fixed.
#[test]
fn job_spec_keys_are_pinned_for_every_kind() {
    let plan = FaultPlan::none()
        .with_crash(AgentId(2), 3)
        .with_edge_outages(1);
    let explicit = JobSpec {
        algorithms: vec![Algorithm::FullKnowledge, Algorithm::partial_gathering(2)],
        objectives: vec![Objective::TotalMoves, Objective::PeakMemoryBits],
        tier: EvidenceTier::Exhaustive,
        ..spec()
    };
    let defaults = JobSpec {
        schedules: Vec::new(),
        objectives: Vec::new(),
        seeds: Vec::new(),
        ..explicit.clone()
    };
    let mut got = String::new();
    for kind in JobKind::ALL {
        for (axes, base) in [("default", &defaults), ("explicit", &explicit)] {
            for faulted in [false, true] {
                let mut job = JobSpec {
                    kind,
                    ..base.clone()
                };
                if faulted {
                    job = job.faults(plan.clone());
                }
                let keys = job.keys().expect("expansion");
                let canonical: Vec<String> = keys.iter().map(InstanceKey::canonical).collect();
                got.push_str(&format!(
                    "{kind} {axes} {}: {} keys, digest {:016x}\n  first {}\n  last  {}\n",
                    if faulted { "faulted" } else { "fault-free" },
                    keys.len(),
                    fnv1a64(canonical.join("\n").as_bytes()),
                    keys[0].label(),
                    keys[keys.len() - 1].label(),
                ));
            }
        }
    }
    assert_eq!(got, PINNED_JOB_KEYS);
}

/// Expected output of `job_spec_keys_are_pinned_for_every_kind`.
const PINNED_JOB_KEYS: &str = "\
sweep default fault-free: 4 keys, digest 3affd2f01f87beb9
  first sweep:algo1-full-knowledge:random(n=16,k=4):seed0:random(0)
  last  sweep:partial-gathering-g2:periodic(n=12,k=4,l=2):seed0:random(0)
sweep default faulted: 4 keys, digest 9cf16e5f0e4cc75d
  first sweep:algo1-full-knowledge:random(n=16,k=4):seed0:random(0):faults[crash=2@3,dynamic-edge:1]
  last  sweep:partial-gathering-g2:periodic(n=12,k=4,l=2):seed0:random(0):faults[crash=2@3,dynamic-edge:1]
sweep explicit fault-free: 16 keys, digest ab7a924e54a3ed9d
  first sweep:algo1-full-knowledge:random(n=16,k=4):seed0:random(9)
  last  sweep:partial-gathering-g2:periodic(n=12,k=4,l=2):seed7:random(7)
sweep explicit faulted: 16 keys, digest d6d0e0ef498c36fd
  first sweep:algo1-full-knowledge:random(n=16,k=4):seed0:random(9):faults[crash=2@3,dynamic-edge:1]
  last  sweep:partial-gathering-g2:periodic(n=12,k=4,l=2):seed7:random(7):faults[crash=2@3,dynamic-edge:1]
explore default fault-free: 4 keys, digest e997d4c2259fc835
  first explore:algo1-full-knowledge:random(n=16,k=4):seed0
  last  explore:partial-gathering-g2:periodic(n=12,k=4,l=2):seed0
explore default faulted: 4 keys, digest 0dd5e79afae04389
  first explore:algo1-full-knowledge:random(n=16,k=4):seed0:faults[crash=2@3,dynamic-edge:1]
  last  explore:partial-gathering-g2:periodic(n=12,k=4,l=2):seed0:faults[crash=2@3,dynamic-edge:1]
explore explicit fault-free: 8 keys, digest 6920e222f5c9d9f9
  first explore:algo1-full-knowledge:random(n=16,k=4):seed0
  last  explore:partial-gathering-g2:periodic(n=12,k=4,l=2):seed7
explore explicit faulted: 8 keys, digest 5bac5eb3b078f7e9
  first explore:algo1-full-knowledge:random(n=16,k=4):seed0:faults[crash=2@3,dynamic-edge:1]
  last  explore:partial-gathering-g2:periodic(n=12,k=4,l=2):seed7:faults[crash=2@3,dynamic-edge:1]
adversary default fault-free: 12 keys, digest 8ba02a1a77d0db89
  first adversary:algo1-full-knowledge:random(n=16,k=4):seed0:total-moves
  last  adversary:partial-gathering-g2:periodic(n=12,k=4,l=2):seed0:peak-memory-bits
adversary default faulted: 12 keys, digest fc1f1a6a27fc6a45
  first adversary:algo1-full-knowledge:random(n=16,k=4):seed0:total-moves:faults[crash=2@3,dynamic-edge:1]
  last  adversary:partial-gathering-g2:periodic(n=12,k=4,l=2):seed0:peak-memory-bits:faults[crash=2@3,dynamic-edge:1]
adversary explicit fault-free: 16 keys, digest 09d077ece720898d
  first adversary:algo1-full-knowledge:random(n=16,k=4):seed0:total-moves
  last  adversary:partial-gathering-g2:periodic(n=12,k=4,l=2):seed7:peak-memory-bits
adversary explicit faulted: 16 keys, digest 044e6ec328a5c2ad
  first adversary:algo1-full-knowledge:random(n=16,k=4):seed0:total-moves:faults[crash=2@3,dynamic-edge:1]
  last  adversary:partial-gathering-g2:periodic(n=12,k=4,l=2):seed7:peak-memory-bits:faults[crash=2@3,dynamic-edge:1]
certify default fault-free: 12 keys, digest 225bd5d0121abc51
  first certify:algo1-full-knowledge:random(n=16,k=4):seed0:total-moves:exhaustive
  last  certify:partial-gathering-g2:periodic(n=12,k=4,l=2):seed0:peak-memory-bits:exhaustive
certify default faulted: 12 keys, digest 95bf6a103f731e35
  first certify:algo1-full-knowledge:random(n=16,k=4):seed0:total-moves:exhaustive:faults[crash=2@3,dynamic-edge:1]
  last  certify:partial-gathering-g2:periodic(n=12,k=4,l=2):seed0:peak-memory-bits:exhaustive:faults[crash=2@3,dynamic-edge:1]
certify explicit fault-free: 16 keys, digest efc5a07d9acc69e5
  first certify:algo1-full-knowledge:random(n=16,k=4):seed0:total-moves:exhaustive
  last  certify:partial-gathering-g2:periodic(n=12,k=4,l=2):seed7:peak-memory-bits:exhaustive
certify explicit faulted: 16 keys, digest 521f2a2995278d75
  first certify:algo1-full-knowledge:random(n=16,k=4):seed0:total-moves:exhaustive:faults[crash=2@3,dynamic-edge:1]
  last  certify:partial-gathering-g2:periodic(n=12,k=4,l=2):seed7:peak-memory-bits:exhaustive:faults[crash=2@3,dynamic-edge:1]
";
