//! End-to-end daemon tests over real TCP connections: cache
//! determinism, in-order streaming under a tiny queue, units of keys
//! that differ only in objective, concurrent clients, admission
//! backpressure, failure isolation, round-trip latency, stalled readers
//! and graceful shutdown (the final
//! `handle.join()` in every test doubles as the no-thread-leak
//! assertion — `Server::run` joins the pool, the accept thread and
//! every reader before returning).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ringdeploy_analysis::key::JobKind;
use ringdeploy_analysis::{worst_case_one, Adversary, Objective, Workload};
use ringdeploy_core::Algorithm;
use ringdeploy_json::ToJson;
use ringdeploy_service::{
    parse_response, Backpressure, Client, DaemonConfig, JobSpec, Request, Response, RowFrame,
    Server, StatsReport, MAX_FRAME_BYTES,
};
use ringdeploy_sim::explore::{ExploreLimits, SymmetryMode};

fn start(config: DaemonConfig) -> (String, JoinHandle<StatsReport>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn small_config() -> DaemonConfig {
    DaemonConfig {
        workers: 2,
        queue_capacity: 4,
        cache_bytes: 1 << 20,
        max_jobs: 4,
    }
}

fn sweep_job(seeds: &[u64]) -> JobSpec {
    JobSpec {
        seeds: seeds.to_vec(),
        ..JobSpec::new(
            JobKind::Sweep,
            Algorithm::FullKnowledge,
            Workload::Random { n: 16, k: 4 },
        )
    }
}

/// An adversary job for algo1 on `Random{8,3}`; no `objectives` means
/// all three.
fn adversary_job(seeds: &[u64], objectives: &[Objective]) -> JobSpec {
    JobSpec {
        seeds: seeds.to_vec(),
        objectives: objectives.to_vec(),
        ..JobSpec::new(
            JobKind::Adversary,
            Algorithm::FullKnowledge,
            Workload::Random { n: 8, k: 3 },
        )
    }
}

/// The job's `(rows, cache_hits)` from its `done` frame.
fn done_counts(frames: &[Response]) -> (usize, usize) {
    match frames.last() {
        Some(Response::Done {
            rows, cache_hits, ..
        }) => (*rows, *cache_hits),
        other => panic!("expected done, got {other:?}"),
    }
}

fn submit(client: &mut Client, id: u64, backpressure: Backpressure, job: JobSpec) {
    client
        .send(&Request::Submit {
            id,
            backpressure,
            job,
        })
        .expect("send submit");
}

/// Collects frames until the `done`/`rejected`/`error` of job `id`.
fn collect_job(client: &mut Client, id: u64) -> Vec<Response> {
    let mut frames = Vec::new();
    loop {
        let frame = client
            .recv()
            .expect("recv frame")
            .expect("daemon hung up mid-job");
        let terminal = matches!(
            &frame,
            Response::Done { id: done, .. } if *done == id
        ) || matches!(
            &frame,
            Response::Rejected { id: rej, .. } if *rej == id
        ) || matches!(&frame, Response::Error { id: Some(e), .. } if *e == id)
            || matches!(&frame, Response::Timeout { id: t, .. } if *t == id);
        frames.push(frame);
        if terminal {
            return frames;
        }
    }
}

fn rows(frames: &[Response]) -> Vec<&RowFrame> {
    frames
        .iter()
        .filter_map(|f| match f {
            Response::Row(row) => Some(row),
            _ => None,
        })
        .collect()
}

fn shutdown(client: &mut Client) {
    client.send(&Request::Shutdown).expect("send shutdown");
    loop {
        match client.recv().expect("recv during shutdown") {
            Some(Response::Bye) | None => return,
            Some(_) => {}
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

/// The tentpole guarantee: a repeated identical request is served from
/// the cache, byte-identical, without re-running the engine.
#[test]
fn repeated_job_is_served_from_cache_byte_identical() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(&addr).expect("connect");

    submit(&mut client, 1, Backpressure::Block, sweep_job(&[0, 1]));
    let cold = collect_job(&mut client, 1);
    let cold_rows = rows(&cold);
    assert_eq!(cold_rows.len(), 2);
    assert!(cold_rows.iter().all(|r| !r.cached), "cold run computes");

    let computed_after_cold = stats(&mut client).cells_computed;
    assert_eq!(computed_after_cold, 2);

    submit(&mut client, 2, Backpressure::Block, sweep_job(&[0, 1]));
    let warm = collect_job(&mut client, 2);
    let warm_rows = rows(&warm);
    assert_eq!(warm_rows.len(), 2);
    assert!(
        warm_rows.iter().all(|r| r.cached),
        "warm run hits the cache"
    );
    for (cold_row, warm_row) in cold_rows.iter().zip(&warm_rows) {
        assert_eq!(
            cold_row.payload.to_string(),
            warm_row.payload.to_string(),
            "cached payload must be byte-identical to the cold payload"
        );
        assert_eq!(cold_row.fingerprint, warm_row.fingerprint);
        assert_eq!(cold_row.key, warm_row.key);
    }
    match warm.last() {
        Some(Response::Done {
            rows, cache_hits, ..
        }) => {
            assert_eq!((*rows, *cache_hits), (2, 2));
        }
        other => panic!("expected done, got {other:?}"),
    }

    let after = stats(&mut client);
    assert_eq!(
        after.cells_computed, computed_after_cold,
        "the warm run must not re-run the engine"
    );
    assert_eq!(after.cache.hits, 2);

    shutdown(&mut client);
    let final_stats = handle.join().expect("server thread");
    assert_eq!(final_stats.completed_jobs, 2);
}

/// Rows stream with consecutive `seq` starting at 0 even when the
/// worker queue holds a single slot (maximal stall pressure).
#[test]
fn rows_arrive_in_cell_order_under_a_one_slot_queue() {
    let (addr, handle) = start(DaemonConfig {
        workers: 1,
        queue_capacity: 1,
        ..small_config()
    });
    let mut client = Client::connect(&addr).expect("connect");
    submit(
        &mut client,
        7,
        Backpressure::Block,
        sweep_job(&[0, 1, 2, 3, 4, 5]),
    );
    let frames = collect_job(&mut client, 7);
    let rows = rows(&frames);
    assert_eq!(rows.len(), 6);
    for (expect, row) in rows.iter().enumerate() {
        assert_eq!(row.seq, expect, "in-order delivery");
        assert_eq!(row.id, 7);
    }
    shutdown(&mut client);
    handle.join().expect("server thread");
}

/// An all-objective adversary job is one unit: one walk answers its
/// three keys. Each row is still the per-objective worst case of its
/// own key, every key counts in `cells_computed`, and a repeat is
/// served from the cache byte for byte.
#[test]
fn an_all_objective_adversary_job_streams_one_row_per_objective() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(&addr).expect("connect");

    submit(
        &mut client,
        1,
        Backpressure::Block,
        adversary_job(&[3], &[]),
    );
    let cold = collect_job(&mut client, 1);
    let cold_rows = rows(&cold);
    assert_eq!(cold_rows.len(), 3);
    for ((seq, row), objective) in cold_rows.iter().enumerate().zip(Objective::ALL) {
        assert_eq!((row.seq, row.cached), (seq, false));
        assert_eq!(row.key.objective, Some(objective));
        let init = row.key.instantiate();
        let adversary = Adversary::new()
            .limits(ExploreLimits::for_instance(
                init.ring_size(),
                init.agent_count(),
            ))
            .symmetry(SymmetryMode::Rotation);
        let worst = worst_case_one(Algorithm::FullKnowledge, &init, &adversary, objective)
            .expect("the instance searches");
        assert_eq!(
            row.payload.to_string(),
            worst.to_json().to_string(),
            "{}",
            row.key.label()
        );
    }
    assert_eq!(done_counts(&cold), (3, 0));
    assert_eq!(stats(&mut client).cells_computed, 3);

    submit(
        &mut client,
        2,
        Backpressure::Block,
        adversary_job(&[3], &[]),
    );
    let warm = collect_job(&mut client, 2);
    let warm_rows = rows(&warm);
    assert_eq!(done_counts(&warm), (3, 3));
    assert!(warm_rows.iter().all(|r| r.cached), "fully cached repeat");
    for (cold_row, warm_row) in cold_rows.iter().zip(&warm_rows) {
        assert_eq!(cold_row.payload.to_string(), warm_row.payload.to_string());
    }
    assert_eq!(stats(&mut client).cells_computed, 3);

    shutdown(&mut client);
    handle.join().expect("server thread");
}

/// A unit with a cached key computes only its other keys: after a
/// moves-only job, the all-objective job of the same instance serves
/// row 0 from the cache and computes rows 1 and 2.
#[test]
fn a_partly_cached_unit_computes_only_its_misses() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(&addr).expect("connect");

    submit(
        &mut client,
        1,
        Backpressure::Block,
        adversary_job(&[4], &[Objective::TotalMoves]),
    );
    let first = collect_job(&mut client, 1);
    assert_eq!(done_counts(&first), (1, 0));
    let before = stats(&mut client).cells_computed;

    submit(
        &mut client,
        2,
        Backpressure::Block,
        adversary_job(&[4], &[]),
    );
    let frames = collect_job(&mut client, 2);
    assert_eq!(done_counts(&frames), (3, 1));
    let cached: Vec<bool> = rows(&frames).iter().map(|r| r.cached).collect();
    assert_eq!(cached, [true, false, false]);
    assert_eq!(
        rows(&frames)[0].payload.to_string(),
        rows(&first)[0].payload.to_string()
    );
    assert_eq!(stats(&mut client).cells_computed, before + 2);

    shutdown(&mut client);
    handle.join().expect("server thread");
}

/// A unit that meets a full queue stalls its job and is probed again on
/// retry; a cache hit found before the stall counts once, and so does
/// each miss. The job's
/// units are keys {0, 2, 4} (seed 5) and {1, 3, 5} (seed 6), and key 1
/// is cached first. A job submitted just before keeps the one worker
/// busy, so unit {0, 2, 4} normally waits in the one-slot queue and
/// unit {1, 3, 5} stalls after probing key 1; the assertions hold
/// however the units interleave.
#[test]
fn a_stalled_unit_counts_its_cache_hits_once() {
    let (addr, handle) = start(DaemonConfig {
        workers: 1,
        queue_capacity: 1,
        ..small_config()
    });
    let mut client = Client::connect(&addr).expect("connect");
    submit(
        &mut client,
        1,
        Backpressure::Block,
        adversary_job(&[6], &[Objective::TotalMoves]),
    );
    assert_eq!(done_counts(&collect_job(&mut client, 1)), (1, 0));

    submit(
        &mut client,
        2,
        Backpressure::Block,
        adversary_job(&[7], &[]),
    );
    submit(
        &mut client,
        3,
        Backpressure::Block,
        adversary_job(&[5, 6], &[]),
    );
    let mut frames = collect_job(&mut client, 2);
    frames.extend(collect_job(&mut client, 3));
    let job_rows: Vec<_> = rows(&frames).into_iter().filter(|r| r.id == 3).collect();
    let seqs: Vec<usize> = job_rows.iter().map(|r| r.seq).collect();
    assert_eq!(seqs, [0, 1, 2, 3, 4, 5]);
    let cached: Vec<bool> = job_rows.iter().map(|r| r.cached).collect();
    assert_eq!(cached, [false, true, false, false, false, false]);
    assert_eq!(done_counts(&frames), (6, 1));
    // Each key looked up counts once, however often a stalled unit
    // re-probed it: 1 + 3 + 5 keys computed, key 1 of job 3 served.
    let stats = stats(&mut client);
    assert_eq!(stats.cells_computed, 9);
    assert_eq!((stats.cache.hits, stats.cache.misses), (1, 9));

    shutdown(&mut client);
    handle.join().expect("server thread");
}

/// Two clients stream interleaved jobs; each sees its own rows in
/// order with its own id.
#[test]
fn concurrent_clients_get_independent_in_order_streams() {
    let (addr, handle) = start(small_config());
    let workers: Vec<_> = (0..2u64)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                // Distinct seeds per client → distinct cells → both
                // clients genuinely compute concurrently.
                let seeds: Vec<u64> = (0..4).map(|s| 100 * c + s).collect();
                submit(&mut client, c, Backpressure::Block, sweep_job(&seeds));
                let frames = collect_job(&mut client, c);
                let rows = rows(&frames);
                assert_eq!(rows.len(), 4);
                for (expect, row) in rows.iter().enumerate() {
                    assert_eq!((row.id, row.seq), (c, expect));
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("client thread");
    }
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(stats(&mut client).completed_jobs, 2);
    shutdown(&mut client);
    handle.join().expect("server thread");
}

/// With `max_jobs = 1`, a second submit is refused under
/// [`Backpressure::Reject`] and queued under [`Backpressure::Block`]
/// (its `accepted` only arrives after the first job's `done`).
#[test]
fn admission_backpressure_rejects_or_queues() {
    let (addr, handle) = start(DaemonConfig {
        workers: 1,
        queue_capacity: 1,
        max_jobs: 1,
        ..small_config()
    });
    let mut client = Client::connect(&addr).expect("connect");

    // Both submits go out back-to-back so the daemon processes the
    // second while the first is still running.
    submit(
        &mut client,
        1,
        Backpressure::Block,
        sweep_job(&[0, 1, 2, 3]),
    );
    submit(&mut client, 2, Backpressure::Reject, sweep_job(&[9]));
    let frames = collect_job(&mut client, 2);
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, Response::Rejected { id: 2, .. })),
        "reject policy refuses at capacity: {frames:?}"
    );
    // Job 1's rows are split across both collections (the reject
    // frame may interleave with them); count them together.
    let mut first = frames;
    first.extend(collect_job(&mut client, 1));
    let first_rows: Vec<_> = rows(&first).into_iter().filter(|r| r.id == 1).collect();
    assert_eq!(first_rows.len(), 4);

    // Same shape with Block: job 4 queues, its `accepted` must come
    // after job 3's `done`.
    submit(
        &mut client,
        3,
        Backpressure::Block,
        sweep_job(&[10, 11, 12]),
    );
    submit(&mut client, 4, Backpressure::Block, sweep_job(&[13]));
    let mut all = collect_job(&mut client, 4);
    let done_3 = all
        .iter()
        .position(|f| matches!(f, Response::Done { id: 3, .. }))
        .expect("job 3 completes");
    let accepted_4 = all
        .iter()
        .position(|f| matches!(f, Response::Accepted { id: 4, .. }))
        .expect("job 4 admitted");
    assert!(
        accepted_4 > done_3,
        "blocked job admitted only after the running job drained"
    );
    all.clear();

    let report = stats(&mut client);
    assert_eq!(report.completed_jobs, 3);
    assert_eq!(report.rejected_jobs, 1);
    shutdown(&mut client);
    handle.join().expect("server thread");
}

/// A cell whose workload parameters are invalid aborts its job with an
/// `error` frame — and the daemon (and its workers) survive to serve
/// the next job.
#[test]
fn failed_cells_abort_the_job_not_the_daemon() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(&addr).expect("connect");

    // l = 3 divides n = 12 but not k = 4: the generator rejects it.
    let bad = JobSpec::new(
        JobKind::Sweep,
        Algorithm::FullKnowledge,
        Workload::Periodic { n: 12, k: 4, l: 3 },
    );
    submit(&mut client, 1, Backpressure::Block, bad);
    let frames = collect_job(&mut client, 1);
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, Response::Error { id: Some(1), .. })),
        "invalid cell surfaces as an error frame: {frames:?}"
    );
    assert!(
        !frames.iter().any(|f| matches!(f, Response::Done { .. })),
        "an aborted job has no done frame"
    );

    submit(&mut client, 2, Backpressure::Block, sweep_job(&[0]));
    let frames = collect_job(&mut client, 2);
    assert_eq!(
        rows(&frames).len(),
        1,
        "daemon still serves after a failure"
    );

    shutdown(&mut client);
    handle.join().expect("server thread");
}

/// Per-job deadlines: a job whose `timeout_ms` expires before its cells
/// dispatch is cancelled with a typed `timeout` frame (never a `done`),
/// the daemon counts it, and the same job resubmitted with a generous
/// deadline completes normally — the timeout never poisoned the cache
/// or wedged the daemon.
#[test]
fn deadlines_cancel_jobs_with_a_typed_timeout_frame() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(&addr).expect("connect");

    let hopeless = JobSpec {
        timeout_ms: Some(0),
        ..sweep_job(&[20, 21])
    };
    submit(&mut client, 1, Backpressure::Block, hopeless);
    let frames = collect_job(&mut client, 1);
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, Response::Timeout { id: 1, .. })),
        "an expired deadline surfaces as a typed timeout frame: {frames:?}"
    );
    assert!(
        !frames.iter().any(|f| matches!(f, Response::Done { .. })),
        "a timed-out job has no done frame"
    );

    let generous = JobSpec {
        timeout_ms: Some(60_000),
        ..sweep_job(&[20, 21])
    };
    submit(&mut client, 2, Backpressure::Block, generous);
    let frames = collect_job(&mut client, 2);
    assert_eq!(rows(&frames).len(), 2, "daemon still serves after timeout");
    assert!(
        frames
            .iter()
            .any(|f| matches!(f, Response::Done { id: 2, .. })),
        "a met deadline is invisible: {frames:?}"
    );

    let report = stats(&mut client);
    assert_eq!(report.timeouts, 1);
    assert_eq!(report.panics, 0);
    shutdown(&mut client);
    let final_stats = handle.join().expect("server thread");
    assert_eq!(final_stats.completed_jobs, 1);
}

/// Shutdown drains: a job submitted immediately before `shutdown`
/// still streams every row and its `done` before `bye`.
#[test]
fn shutdown_drains_in_flight_jobs() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(&addr).expect("connect");
    submit(&mut client, 1, Backpressure::Block, sweep_job(&[0, 1, 2]));
    client.send(&Request::Shutdown).expect("send shutdown");

    let mut saw_done = false;
    let mut row_count = 0;
    loop {
        match client.recv().expect("recv") {
            Some(Response::Accepted { id: 1, cells: 3 }) => {}
            Some(Response::Row(row)) => {
                assert_eq!(row.seq, row_count, "drained rows stay in order");
                row_count += 1;
            }
            Some(Response::Done { id: 1, rows, .. }) => {
                assert_eq!(rows, 3);
                saw_done = true;
            }
            Some(Response::Bye) | None => break,
            Some(other) => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(saw_done, "in-flight job completed before bye");
    assert_eq!(row_count, 3);

    let final_stats = handle.join().expect("server thread");
    assert_eq!(final_stats.completed_jobs, 1);
    assert_eq!(final_stats.active_jobs, 0);

    // A submit racing the drain is refused, not lost silently.
    // (Covered implicitly: the daemon already exited, so a new connect
    // must fail.)
    assert!(Client::connect(&addr).is_err(), "daemon is gone");
}

/// Over TCP, a non-UTF-8 frame gets a typed `error` frame and the
/// connection keeps serving; an oversize frame gets a typed `error`
/// frame and then EOF. Another client is still served.
#[test]
fn hostile_frames_get_typed_errors() {
    let (addr, handle) = start(small_config());
    let mut hostile = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(hostile.try_clone().expect("clone"));
    let mut next_frame = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read frame");
        (!line.is_empty()).then(|| parse_response(&line).expect("typed frame"))
    };
    hostile
        .write_all(b"\xff\n{\"type\":\"stats\"}\n")
        .expect("write");
    assert!(matches!(
        next_frame(),
        Some(Response::Error { id: None, .. })
    ));
    assert!(matches!(next_frame(), Some(Response::Stats(_))));
    // The daemon hangs up before reading it all, so the write may fail.
    let _ = hostile.write_all(&vec![b'x'; 2 * MAX_FRAME_BYTES]);
    assert!(matches!(
        next_frame(),
        Some(Response::Error { id: None, .. })
    ));
    assert_eq!(next_frame(), None, "connection closed after the error");

    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(stats(&mut client).active_jobs, 0);
    shutdown(&mut client);
    handle.join().expect("server thread");
}

/// Round trips pay no Nagle stall: each frame leaves in one write on a
/// `TCP_NODELAY` socket at both ends. When a frame went out as two
/// writes on Nagle sockets, each round trip waited about 84 ms for a
/// delayed ACK (50 took about 4.2 s).
#[test]
fn sequential_round_trips_do_not_wait_for_delayed_acks() {
    let (addr, handle) = start(small_config());
    let mut client = Client::connect(&addr).expect("connect");
    let started = Instant::now();
    for _ in 0..50 {
        stats(&mut client);
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 sequential stats round trips took {elapsed:?}"
    );
    shutdown(&mut client);
    handle.join().expect("server thread");
}

/// A client that submits a 40 000-cell job and never reads fills the
/// socket buffers, and the actor's next write to it blocks. The write
/// fails after `WRITE_STALL_LIMIT`, which closes that connection and
/// cancels its job: a client connecting later is answered, and shutdown
/// drains while the stalled client is still connected.
#[test]
fn a_client_that_stops_reading_does_not_freeze_the_daemon() {
    let (addr, handle) = start(small_config());
    let mut stalled = TcpStream::connect(&addr).expect("connect stalled client");
    let seeds: Vec<u64> = (0..40_000).collect();
    let submit = Request::Submit {
        id: 1,
        backpressure: Backpressure::Block,
        job: sweep_job(&seeds),
    };
    stalled
        .write_all(format!("{}\n", submit.to_json()).as_bytes())
        .expect("write submit");
    std::thread::sleep(Duration::from_secs(6));

    let (answered, answer) = mpsc::channel();
    let probe = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            let _ = stats(&mut client);
            answered.send(()).expect("test thread waits");
            client
        })
    };
    answer
        .recv_timeout(Duration::from_secs(5))
        .expect("stats must be answered while another client stalls");
    let mut client = probe.join().expect("probe thread");
    shutdown(&mut client);
    let final_stats = handle.join().expect("server thread");
    assert_eq!(
        final_stats.completed_jobs, 0,
        "the stalled job was cancelled"
    );
    // Still connected, still not reading: the daemon gave up on it.
    drop(stalled);
}
