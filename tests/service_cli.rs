//! `ringdeploy --serve` / `--connect` integration tests: real daemon
//! subprocess, real client subprocesses, plus the stdio transport.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

use ringdeploy_json::Json;

fn binary() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ringdeploy"))
}

/// Spawns the daemon on an ephemeral port and reads the advertised
/// address off its `listening <addr>` line.
fn spawn_daemon() -> (Child, String) {
    let mut child = binary()
        .args(["--serve", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let stdout = child.stdout.as_mut().expect("daemon stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .trim()
        .to_string();
    (child, addr)
}

/// Runs `--connect` with `args`, asserting success; returns the parsed
/// frame lines.
fn connect(addr: &str, args: &[&str]) -> Vec<Json> {
    let output = binary()
        .arg("--connect")
        .arg(addr)
        .args(args)
        .output()
        .expect("run client");
    assert!(
        output.status.success(),
        "client failed: {}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("utf8 frames")
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad frame {l:?}: {e}")))
        .collect()
}

fn frame_type(frame: &Json) -> String {
    frame.field("type").expect("typed frame")
}

fn rows(frames: &[Json]) -> Vec<&Json> {
    frames.iter().filter(|f| frame_type(f) == "row").collect()
}

#[test]
fn serve_and_connect_round_trip_with_cache_hits() {
    let (mut daemon, addr) = spawn_daemon();
    let job = [
        "--job",
        "sweep",
        "--workload",
        "random",
        "--n",
        "16",
        "--k",
        "4",
        "--seeds",
        "0,1",
    ];

    let cold = connect(&addr, &job);
    let cold_rows = rows(&cold);
    assert_eq!(cold_rows.len(), 2);
    for row in &cold_rows {
        let cached: bool = row.field("cached").expect("cached flag");
        assert!(!cached);
    }

    let warm = connect(&addr, &job);
    let warm_rows = rows(&warm);
    assert_eq!(warm_rows.len(), 2);
    for (cold_row, warm_row) in cold_rows.iter().zip(&warm_rows) {
        let cached: bool = warm_row.field("cached").expect("cached flag");
        assert!(cached, "second run served from cache");
        let cold_payload = cold_row.field_json("payload").to_string();
        let warm_payload = warm_row.field_json("payload").to_string();
        assert_eq!(cold_payload, warm_payload, "byte-identical cached reply");
    }

    let stats = connect(&addr, &["--stats"]);
    assert_eq!(stats.len(), 1);
    let cache = stats[0].field_json("cache");
    let hits: u64 = cache.field("hits").expect("hits counter");
    let cells: u64 = stats[0].field("cells_computed").expect("cells counter");
    assert_eq!(hits, 2);
    assert_eq!(cells, 2, "warm run did not re-run the engine");

    let bye = connect(&addr, &["--shutdown"]);
    assert!(bye.iter().any(|f| frame_type(f) == "bye"));

    let status = daemon.wait().expect("daemon exit");
    assert!(status.success(), "daemon exits cleanly after shutdown");
}

/// stdio transport: frames on stdin/stdout of a single process; EOF on
/// stdin doubles as shutdown.
#[test]
fn stdio_mode_serves_one_client_and_exits_on_eof() {
    let mut daemon = binary()
        .args(["--serve", "stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn stdio daemon");
    {
        let stdin = daemon.stdin.as_mut().expect("daemon stdin");
        writeln!(
            stdin,
            r#"{{"type":"submit","id":5,"job":{{"kind":"sweep","algorithms":["algo1-full-knowledge"],"workloads":[{{"family":"uniform","n":12,"k":3}}]}}}}"#
        )
        .expect("write submit");
    }
    daemon.stdin.take(); // close stdin: EOF = shutdown

    let output = daemon.wait_with_output().expect("daemon exit");
    assert!(output.status.success());
    let frames: Vec<Json> = String::from_utf8(output.stdout)
        .expect("utf8 frames")
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad frame {l:?}: {e}")))
        .collect();
    let types: Vec<String> = frames.iter().map(frame_type).collect();
    assert!(
        types.iter().any(|t| t == "row"),
        "job streamed before EOF shutdown: {types:?}"
    );
    // Frames per job: accepted, row, done — then bye on drain.
    assert_eq!(types.last().map(String::as_str), Some("bye"));
}

/// Feeds `input` to a stdio daemon, closes stdin (EOF = shutdown),
/// asserts a clean exit and returns the types of the frames it wrote.
fn stdio_frame_types(input: &[u8]) -> Vec<String> {
    let mut daemon = binary()
        .args(["--serve", "stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn stdio daemon");
    // A daemon that stops reading early closes the pipe mid-write.
    let _ = daemon.stdin.take().expect("daemon stdin").write_all(input);
    let output = daemon.wait_with_output().expect("daemon exit");
    assert!(
        output.status.success(),
        "daemon must exit 0: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout)
        .expect("utf8 frames")
        .lines()
        .map(|l| frame_type(&Json::parse(l).unwrap_or_else(|e| panic!("bad frame {l:?}: {e}"))))
        .collect()
}

const STATS: &str = r#"{"type":"stats"}"#;

/// A hostile frame — a megabyte of `[` — is answered with one typed
/// `error` frame instead of overflowing the parser's stack; the daemon
/// then serves the next request and drains to a clean exit on EOF.
#[test]
fn stdio_mode_survives_a_deeply_nested_frame() {
    let input = format!("{}\n{STATS}\n", "[".repeat(1_000_000));
    assert_eq!(
        stdio_frame_types(input.as_bytes()),
        ["error", "stats", "bye"]
    );
}

/// A frame that is not UTF-8 gets a typed `error` frame and reading goes
/// on: the next request is still answered.
#[test]
fn stdio_mode_answers_a_non_utf8_frame_and_keeps_reading() {
    let input = [&b"\xff\n"[..], STATS.as_bytes(), b"\n"].concat();
    assert_eq!(stdio_frame_types(&input), ["error", "stats", "bye"]);
}

/// A frame longer than the reader's bound gets a typed `error` frame and
/// ends the connection: nothing after it is read, and the daemon drains
/// and exits 0.
#[test]
fn stdio_mode_closes_on_an_oversize_frame() {
    let input = [&vec![b'x'; 2 << 20][..], b"\n", STATS.as_bytes(), b"\n"].concat();
    assert_eq!(stdio_frame_types(&input), ["error", "bye"]);
}

/// A 162-byte submit asking for a ring of four billion nodes gets one
/// typed `error` frame before any worker allocates for it, and the next
/// request is still answered. (An allocation that size aborts the
/// process; no `catch_unwind` can turn it into an error frame.)
#[test]
fn stdio_mode_refuses_a_huge_ring() {
    let submit = r#"{"type":"submit","id":1,"job":{"kind":"sweep","algorithms":["algo1-full-knowledge"],"workloads":[{"family":"uniform","n":4000000000,"k":4000000000}],"seeds":[1]}}"#;
    assert_eq!(submit.len(), 162);
    let input = format!("{submit}\n{STATS}\n");
    assert_eq!(
        stdio_frame_types(input.as_bytes()),
        ["error", "stats", "bye"]
    );
}

/// Helper: read a sub-object (Json has typed `field` but frames nest).
trait FieldJson {
    fn field_json(&self, name: &str) -> &Json;
}

impl FieldJson for Json {
    fn field_json(&self, name: &str) -> &Json {
        let Json::Object(map) = self else {
            panic!("expected object frame");
        };
        map.get(name)
            .unwrap_or_else(|| panic!("missing field `{name}`"))
    }
}
