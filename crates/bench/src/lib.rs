//! # ringdeploy-bench — the experiment harness and the bench files
//!
//! Regenerates every table and figure of the paper as measured output,
//! one function per section of the `experiments` binary (its section
//! name in parentheses where it differs):
//!
//! * [`table1`] — the complexity table (Results 1, 2 and 4) as measured
//!   memory / ideal time / total moves over parameter sweeps, with ratios
//!   against the paper's bounds;
//! * [`lower_bound`] (`lower-bound`) — Theorems 1 and 2 on the Fig. 3
//!   quarter-ring workload;
//! * [`impossibility`] — the Theorem 5 / Fig. 7 construction, showing the
//!   terminating strawman halting at the wrong spacing while the relaxed
//!   algorithm (Result 4) succeeds on the same ring;
//! * [`figures`] — scenario reproductions of Figs. 1, 2, 4, 5, 6, 8, 9,
//!   10 and 11;
//! * [`rendezvous_contrast`] (`rendezvous`) — the §1.3 contrast:
//!   rendezvous fails on periodic configurations, uniform deployment
//!   never does;
//! * [`scheduler_ablation`] (`ablation`) — correctness across schedule
//!   adversaries;
//! * [`optimality`] — measured moves against the instance-wise offline
//!   optimum;
//! * [`tokens_necessity`] (`tokens`) — §2.1: without tokens the gap
//!   multiset never changes, with them Algorithm 1 deploys;
//! * [`tree_extension`] (`tree`) — §5: deployment on trees and graphs
//!   through the Euler-tour embedding;
//! * [`verified`] — every schedule of small instances, model-checked.
//!
//! Run everything with `cargo run -p ringdeploy-bench --bin experiments`,
//! or a single section with e.g. `… --bin experiments -- table1`.
//!
//! # Bench files
//!
//! The `engine_step`, `explore_scale` and `adversary_scale` benches
//! (`cargo bench -p ringdeploy-bench --bench <name>`) each write one
//! `BENCH_*.json` at the workspace root through [`publish`]. A file names
//! its bench, the git revision and the core count it ran on, and holds
//! one [`Row`] per line. A row's *key* columns name the instance it
//! measures, its *checked* columns are exact counts and flags, and its
//! *timing* columns are wall-clock measurements. Before overwriting the
//! committed file, [`publish`] compares the new rows with it: timings
//! are printed as ratios to the committed run, and a row that appeared
//! or vanished, or a checked column that changed, fails the bench once
//! the new file is written. To accept an intended change, commit the
//! regenerated file.

#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::{
    figures, impossibility, lower_bound, optimality, rendezvous_contrast, scheduler_ablation,
    table1, tokens_necessity, tree_extension, verified,
};

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use ringdeploy_json::{Json, ToJson};

/// One row of a bench file: the columns that name its instance, the
/// counts and flags that must not drift, and the timings that may.
#[derive(Debug, Clone, Default)]
pub struct Row {
    key: Vec<(&'static str, Json)>,
    checked: Vec<(&'static str, Json)>,
    timings: Vec<(&'static str, Json)>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Adds a key column. Together the key columns identify the row in
    /// the committed file.
    pub fn key(mut self, name: &'static str, value: impl ToJson) -> Row {
        self.key.push((name, value.to_json()));
        self
    }

    /// Adds a checked column: an integer count or a flag, which must
    /// equal the committed value exactly.
    pub fn checked(mut self, name: &'static str, value: impl ToJson) -> Row {
        self.checked.push((name, value.to_json()));
        self
    }

    /// Adds a timing column, rounded to three decimals.
    pub fn timing(mut self, name: &'static str, value: f64) -> Row {
        self.timings.push((name, rounded(value)));
        self
    }

    /// Adds a timing column holding every repeat of one measurement, in
    /// the order they ran.
    pub fn timing_runs(mut self, name: &'static str, values: &[f64]) -> Row {
        let runs = values.iter().map(|&value| rounded(value)).collect();
        self.timings.push((name, Json::Array(runs)));
        self
    }

    /// The key columns as text: string values bare, others `name=value`.
    fn label(&self) -> String {
        label(self.key.iter().map(|(name, value)| (*name, Some(value))))
    }

    /// Whether `committed` has this row's key.
    fn matches(&self, committed: &Json) -> bool {
        self.key
            .iter()
            .all(|(name, value)| field(committed, name) == Some(value))
    }

    /// The row as one JSON object, columns in key, checked, timing order.
    fn line(&self) -> String {
        let columns: Vec<String> = self
            .key
            .iter()
            .chain(&self.checked)
            .chain(&self.timings)
            .map(|(name, value)| format!("{}: {value}", name.to_json()))
            .collect();
        format!("{{{}}}", columns.join(", "))
    }

    /// The row for the terminal, each timing followed by its ratio to the
    /// committed value where both are numbers.
    fn summary(&self, committed: Option<&Json>) -> String {
        let mut text = self.label();
        for (name, value) in &self.checked {
            text.push_str(&format!("  {name} {value}"));
        }
        for (name, value) in &self.timings {
            text.push_str(&format!("  {name} {value}"));
            if let (Json::Number(now), Some(Json::Number(was))) =
                (value, committed.and_then(|row| field(row, name)))
            {
                text.push_str(&format!(" ({:.2}x)", now / was));
            }
        }
        text
    }
}

fn rounded(value: f64) -> Json {
    Json::Number((value * 1e3).round() / 1e3)
}

fn label<'a>(key: impl Iterator<Item = (&'a str, Option<&'a Json>)>) -> String {
    let parts: Vec<String> = key
        .map(|(name, value)| match value {
            Some(Json::String(text)) => text.clone(),
            Some(value) => format!("{name}={value}"),
            None => format!("{name}=?"),
        })
        .collect();
    parts.join(" ")
}

fn field<'a>(row: &'a Json, name: &str) -> Option<&'a Json> {
    match row {
        Json::Object(columns) => columns.get(name),
        _ => None,
    }
}

fn committed_rows(committed: &Json) -> &[Json] {
    field(committed, "results")
        .and_then(Json::as_array)
        .unwrap_or(&[])
}

/// Every difference between `rows` and the committed file's rows `old`
/// that fails the bench: a row that appeared or vanished, or a checked
/// column whose value changed. Timings never drift.
fn drift(bench: &str, rows: &[Row], old: &[Json]) -> Vec<String> {
    let mut found = Vec::new();
    for row in rows {
        let Some(before) = old.iter().find(|before| row.matches(before)) else {
            found.push(format!("{bench}: row {} appeared", row.label()));
            continue;
        };
        for (name, value) in &row.checked {
            let was = field(before, name);
            if was != Some(value) {
                let was = was.map_or_else(|| "absent".to_string(), Json::to_string);
                found.push(format!(
                    "{bench}: row {}: {name} changed from {was} to {value}",
                    row.label()
                ));
            }
        }
    }
    let key_names: Vec<&str> = rows
        .first()
        .map(|row| row.key.iter().map(|(name, _)| *name).collect())
        .unwrap_or_default();
    for before in old {
        if !rows.iter().any(|row| row.matches(before)) {
            let key = key_names.iter().map(|name| (*name, field(before, name)));
            found.push(format!("{bench}: row {} vanished", label(key)));
        }
    }
    found
}

/// The text of a bench file: header fields, then one row per line.
fn file_text(bench: &str, revision: &str, cores: usize, rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|row| format!("    {}", row.line()))
        .collect();
    format!(
        "{{\n  \"benchmark\": {},\n  \"revision\": {},\n  \"cores\": {cores},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        bench.to_json(),
        revision.to_json(),
        lines.join(",\n")
    )
}

/// `git rev-parse HEAD` of the checkout, or `"unknown"`.
fn revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Publishes `bench`'s `rows` as `file` at the workspace root.
///
/// Reads the committed `file` first, prints every row with its timings
/// as ratios to the committed ones, and writes the new file stamped with
/// the git revision and the core count. Then, if a row appeared or
/// vanished or a checked column changed — or the committed file could
/// not be read — it names the bench, row and column on stderr and exits
/// with status 1.
pub fn publish(bench: &str, file: &str, rows: &[Row]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let committed = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()));
    let old = committed.as_ref().map_or(&[][..], committed_rows);
    let mut drift = drift(bench, rows, old);
    if let Err(e) = &committed {
        drift.push(format!("{bench}: cannot read the committed {file}: {e}"));
    }

    println!("{bench}, timings as a ratio to the committed {file}:");
    for row in rows {
        let before = old.iter().find(|before| row.matches(before));
        println!("  {}", row.summary(before));
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let text = file_text(bench, &revision(), cores, rows);
    std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());

    if !drift.is_empty() {
        for line in &drift {
            eprintln!("{line}");
        }
        eprintln!("{bench}: {file} drifted from the committed run; commit it if that is intended");
        std::process::exit(1);
    }
}

/// Runs `run` `repeats` times; returns the last result and the fastest
/// run's wall-clock time.
pub fn best_of<T>(repeats: usize, mut run: impl FnMut() -> T) -> (T, Duration) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let result = run();
        best = best.min(start.elapsed());
        last = Some(result);
    }
    (last.expect("at least one repeat"), best)
}

/// `duration` in milliseconds.
pub fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(states: usize, serial_ms: f64) -> Vec<Row> {
        vec![
            Row::new()
                .key("algo", "algo1-full-knowledge")
                .key("n", 12usize)
                .checked("states", states)
                .checked("already_uniform", true)
                .timing("serial_ms", serial_ms),
            Row::new()
                .key("algo", "algo4-relaxed")
                .key("n", 12usize)
                .checked("states", 3928usize)
                .checked("already_uniform", false)
                .timing_runs("serial_ms", &[5.6964, 5.8, 6.1]),
        ]
    }

    fn file(rows: &[Row]) -> Json {
        Json::parse(&file_text("explore_scale", "unknown", 2, rows)).expect("the file parses")
    }

    /// The drift of `rows` against a written and re-read file of `committed`.
    fn check(rows: &[Row], committed: &[Row]) -> Vec<String> {
        drift("explore_scale", rows, committed_rows(&file(committed)))
    }

    #[test]
    fn the_written_file_parses_and_matches_its_own_rows() {
        let rows = rows(1144, 1.697);
        let file = file(&rows);
        assert_eq!(field(&file, "benchmark"), Some(&"explore_scale".to_json()));
        assert_eq!(field(&file, "revision"), Some(&"unknown".to_json()));
        assert_eq!(field(&file, "cores"), Some(&Json::Number(2.0)));
        assert_eq!(committed_rows(&file).len(), 2);
        assert!(check(&rows, &rows).is_empty());
    }

    #[test]
    fn timings_may_change_but_checked_columns_may_not() {
        let committed = rows(1144, 1.697);
        assert!(check(&rows(1144, 9.0), &committed).is_empty());
        assert_eq!(
            check(&rows(1145, 1.697), &committed),
            ["explore_scale: row algo1-full-knowledge n=12: states changed from 1144 to 1145"]
        );
    }

    #[test]
    fn a_row_that_appears_or_vanishes_is_named() {
        let all = rows(1144, 1.697);
        assert_eq!(
            check(&all, &all[..1]),
            ["explore_scale: row algo4-relaxed n=12 appeared"]
        );
        assert_eq!(
            check(&all[1..], &all),
            ["explore_scale: row algo1-full-knowledge n=12 vanished"]
        );
    }

    #[test]
    fn a_checked_column_missing_from_the_committed_row_is_drift() {
        let grown: Vec<Row> = rows(1144, 1.697)
            .into_iter()
            .map(|row| row.checked("peak_frontier", 52usize))
            .collect();
        let found = check(&grown, &rows(1144, 1.697));
        assert_eq!(found.len(), 2);
        assert!(found[0].ends_with("peak_frontier changed from absent to 52"));
    }
}
