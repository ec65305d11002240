//! Chaos on a unit of work: a worker panic while computing the keys of
//! one instance that differ only in objective.
//!
//! The worker computes such a unit with one call, so one injected panic
//! fails every key of the unit. The job must still see exactly one
//! `error` frame, `panics` must count the panic once, and nothing of
//! the unit may be cached. The hook is the process-global
//! `RINGDEPLOYD_CHAOS_PANIC` env var, so this test has a binary of its
//! own instead of sharing `chaos.rs`'s.

use std::time::Duration;

use ringdeploy_analysis::key::JobKind;
use ringdeploy_analysis::Workload;
use ringdeploy_core::Algorithm;
use ringdeploy_service::{
    Backpressure, Client, DaemonConfig, JobSpec, Request, Response, Server, StatsReport,
};

/// The all-objective adversary job of algo1 on `Random{8,3}`, seed 9.
fn adversary_job() -> JobSpec {
    JobSpec {
        seeds: vec![9],
        ..JobSpec::new(
            JobKind::Adversary,
            Algorithm::FullKnowledge,
            Workload::Random { n: 8, k: 3 },
        )
    }
}

fn submit(client: &mut Client, id: u64) {
    client
        .send(&Request::Submit {
            id,
            backpressure: Backpressure::Block,
            job: adversary_job(),
        })
        .expect("send submit");
}

/// Collects frames until job `id`'s terminal (`done`/`error`/`timeout`).
fn collect_job(client: &mut Client, id: u64) -> Vec<Response> {
    let mut frames = Vec::new();
    loop {
        let frame = client
            .recv()
            .expect("recv frame")
            .expect("daemon hung up mid-job");
        let terminal = matches!(&frame, Response::Done { id: done, .. } if *done == id)
            || matches!(&frame, Response::Error { id: Some(e), .. } if *e == id)
            || matches!(&frame, Response::Timeout { id: t, .. } if *t == id);
        frames.push(frame);
        if terminal {
            return frames;
        }
    }
}

fn stats(client: &mut Client) -> StatsReport {
    client.send(&Request::Stats).expect("send stats");
    match client.recv().expect("recv stats") {
        Some(Response::Stats(stats)) => stats,
        other => panic!("expected stats frame, got {other:?}"),
    }
}

/// Armed, the hook panics the unit of seed 9: one `error` frame, no
/// `done`, one counted panic. Disarmed, the same job computes all three
/// keys cold, so the panicked unit cached nothing.
#[test]
fn a_panicking_unit_fails_its_job_once_and_caches_nothing() {
    std::env::set_var("RINGDEPLOYD_CHAOS_PANIC", "seed9:");
    let server = Server::bind(
        "127.0.0.1:0",
        DaemonConfig {
            workers: 2,
            queue_capacity: 4,
            cache_bytes: 1 << 20,
            max_jobs: 4,
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(&addr).expect("connect");

    submit(&mut client, 1);
    let frames = collect_job(&mut client, 1);
    assert_eq!(frames.len(), 2, "accepted, then one error: {frames:?}");
    assert!(matches!(frames[0], Response::Accepted { id: 1, cells: 3 }));
    let Response::Error {
        id: Some(1),
        message,
    } = &frames[1]
    else {
        panic!("the injected panic must abort job 1: {frames:?}");
    };
    assert!(message.contains("panic"), "typed panic message: {message}");
    // The cancelled job lingers until its unit's last key drains.
    let before = loop {
        let report = stats(&mut client);
        if report.active_jobs == 0 {
            break report;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(before.panics, 1, "one caught panic counts once");
    assert_eq!(before.cache.entries, 0, "a panicked unit caches nothing");

    std::env::remove_var("RINGDEPLOYD_CHAOS_PANIC");
    submit(&mut client, 2);
    let frames = collect_job(&mut client, 2);
    let rows: Vec<(usize, bool)> = frames
        .iter()
        .filter_map(|f| match f {
            Response::Row(row) => Some((row.seq, row.cached)),
            _ => None,
        })
        .collect();
    assert_eq!(rows, [(0, false), (1, false), (2, false)]);
    assert!(matches!(
        frames.last(),
        Some(Response::Done {
            id: 2,
            rows: 3,
            cache_hits: 0
        })
    ));
    let after = stats(&mut client);
    assert_eq!(after.cells_computed, before.cells_computed + 3);
    assert_eq!(after.panics, 1);

    client.send(&Request::Shutdown).expect("send shutdown");
    while let Some(frame) = client.recv().expect("recv during shutdown") {
        if frame == Response::Bye {
            break;
        }
    }
    let final_stats = handle.join().expect("server thread joins cleanly");
    assert_eq!(final_stats.panics, 1);
    assert_eq!(final_stats.completed_jobs, 1);
}
