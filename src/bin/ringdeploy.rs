//! `ringdeploy` — command-line front end: run one uniform-deployment
//! instance and print the outcome (optionally with ASCII renders).
//!
//! ```text
//! ringdeploy --n 18 --homes 0,1,2,3,4,5 --algo algo1 --schedule random:42 --render
//! ringdeploy --n 60 --k 6 --seed 7 --algo relaxed --sync
//! ringdeploy --n 12 --homes 0,3,6,9 --algo algo2 --explore
//! ringdeploy --n 12 --homes 0,1,2,3 --algo algo1 --adversary moves
//! ringdeploy --n 12 --homes 0,3,6,9 --algo relaxed --certify --json
//! ```
//!
//! Options:
//!
//! * `--n <usize>`            ring size (required)
//! * `--homes <a,b,c>`        explicit agent homes, or
//! * `--k <usize>`            number of agents placed uniformly at random
//! * `--seed <u64>`           placement seed for `--k` (default 0)
//! * `--algo <name>`          `algo1` | `algo2` | `relaxed` |
//!   `partial-gathering[-g<G>]` (default `algo1`)
//! * `--g <usize>`            group size for `--algo partial-gathering`
//!   (default 2)
//! * `--schedule <s>`         `round-robin` | `random:<seed>` | `one-at-a-time`
//!   | `delay:<agent>` (default `round-robin`)
//! * `--sync`                 run in lock-step rounds and report ideal time
//! * `--explore`              exhaustively verify EVERY fair schedule of the
//!   instance (symmetry-reduced bounded model checking) instead of running one
//! * `--adversary <obj>`      synthesise the exact worst-case schedule for
//!   `moves` | `activations` | `memory` (exact search over every fair
//!   schedule) and report the maximum with its replayable witness
//! * `--symmetry <mode>`      state-space quotient for `--explore` /
//!   `--adversary`: `off` | `rotation` (default)
//! * `--certify`              certify the paper bounds: adversarial exact
//!   worst case for all three objectives vs. the recorded `c·k·n`-style
//!   bounds, with the competitive ratio vs. the offline oracle; exits
//!   non-zero if any bound is violated
//! * `--tier <t>`             with `--certify`: evidence tier `sweep` |
//!   `exhaustive` | `adversarial` (default `adversarial`)
//! * `--faults <spec>`        deterministic fault plan: comma-separated
//!   `crash=<agent>@<step>` (crash-stop that agent after its `<step>`-th
//!   activation) and `dynamic-edge[:<budget>]` (grant the adversary that
//!   many one-edge outages under 1-interval connectivity); composes with
//!   every mode including `--explore`/`--adversary`/`--certify`
//! * `--render`               print before/after ASCII ring renders
//! * `--json`                 print the full report as JSON instead of text:
//!   stdout holds that one JSON document and nothing else (the `faults:`
//!   and `ring n = …` header lines go to stderr); not with `--render`
//!
//! Daemon modes (see `DESIGN.md` §0.7 — the `ringdeployd` service):
//!
//! * `--serve stdio|<addr>`   run the long-lived deployment daemon on
//!   stdin/stdout or a TCP listener (`127.0.0.1:0` picks a free port and
//!   prints `listening <addr>`); tuning: `--workers`, `--queue`,
//!   `--cache-bytes`, `--max-jobs`
//! * `--connect <addr>`       submit one job to a running daemon and print
//!   its frames verbatim (one JSON object per line). The job is
//!   `--job sweep|explore|adversary|certify` over `--workload
//!   random|aperiodic|quarter|periodic|uniform|large` with `--n`, `--k`
//!   (and `--l` for periodic), `--seeds a,b,c`, `--algo`, `--objective`,
//!   `--tier`, `--id`, `--backpressure block|reject`. `--connect <addr>
//!   --stats` prints a stats snapshot; `--connect <addr> --shutdown`
//!   drains and stops the daemon.

use std::process::ExitCode;

use rand::SeedableRng;
use ringdeploy::analysis::certify::{certify_all, CertifySettings, EvidenceTier};
use ringdeploy::analysis::{random_config, worst_case_one};
use ringdeploy::sim::adversary::{Adversary, Objective};
use ringdeploy::sim::explore::SymmetryMode;
use ringdeploy::{
    AgentId, Algorithm, Deployment, FaultPlan, FullKnowledge, InitialConfig, Ring, Schedule,
};

struct Options {
    n: usize,
    homes: Option<Vec<usize>>,
    k: Option<usize>,
    seed: u64,
    algo: Algorithm,
    g: Option<usize>,
    schedule: Schedule,
    schedule_set: bool,
    explore: bool,
    adversary: Option<Objective>,
    symmetry: SymmetryMode,
    symmetry_set: bool,
    certify: bool,
    tier: EvidenceTier,
    tier_set: bool,
    faults: FaultPlan,
    render: bool,
    json: bool,
}

fn usage() -> &'static str {
    "usage: ringdeploy --n <nodes> (--homes a,b,c | --k <agents> [--seed s]) \
     [--algo algo1|algo2|relaxed|partial-gathering [--g <size>]] \
     [--schedule round-robin|random:<seed>|one-at-a-time|delay:<agent>] \
     [--sync] [--explore] \
     [--adversary moves|activations|memory] [--symmetry off|rotation] \
     [--certify [--tier sweep|exhaustive|adversarial]] \
     [--faults crash=<agent>@<step>,dynamic-edge[:<budget>]] [--render] [--json]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        n: 0,
        homes: None,
        k: None,
        seed: 0,
        algo: Algorithm::FullKnowledge,
        g: None,
        schedule: Schedule::RoundRobin,
        schedule_set: false,
        explore: false,
        adversary: None,
        symmetry: SymmetryMode::Rotation,
        symmetry_set: false,
        certify: false,
        tier: EvidenceTier::Adversarial,
        tier_set: false,
        faults: FaultPlan::none(),
        render: false,
        json: false,
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}", args[*i - 1]))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--n" => {
                opts.n = value(&mut i)?.parse().map_err(|e| format!("--n: {e}"))?;
            }
            "--homes" => {
                let list = value(&mut i)?;
                let homes: Result<Vec<usize>, _> =
                    list.split(',').map(|s| s.trim().parse()).collect();
                opts.homes = Some(homes.map_err(|e| format!("--homes: {e}"))?);
            }
            "--k" => {
                opts.k = Some(value(&mut i)?.parse().map_err(|e| format!("--k: {e}"))?);
            }
            "--seed" => {
                opts.seed = value(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--algo" => {
                let spec = value(&mut i)?;
                opts.algo = Algorithm::from_name(&spec)
                    .ok_or_else(|| format!("unknown algorithm `{spec}`"))?;
            }
            "--g" => {
                opts.g = Some(value(&mut i)?.parse().map_err(|e| format!("--g: {e}"))?);
            }
            "--schedule" => {
                let spec = value(&mut i)?;
                opts.schedule = parse_schedule(&spec)?;
                opts.schedule_set = true;
            }
            "--sync" => opts.schedule = Schedule::Synchronous,
            "--explore" => opts.explore = true,
            "--adversary" => opts.adversary = Some(parse_objective(&value(&mut i)?)?),
            "--symmetry" => {
                opts.symmetry = match value(&mut i)?.as_str() {
                    "off" | "none" => SymmetryMode::Off,
                    "rotation" => SymmetryMode::Rotation,
                    other => return Err(format!("unknown symmetry mode `{other}`")),
                };
                opts.symmetry_set = true;
            }
            "--certify" => opts.certify = true,
            "--tier" => {
                let spec = value(&mut i)?;
                opts.tier = EvidenceTier::from_name(&spec)
                    .ok_or_else(|| format!("unknown evidence tier `{spec}`"))?;
                opts.tier_set = true;
            }
            "--faults" => {
                let spec = value(&mut i)?;
                opts.faults = parse_faults(&spec)?;
            }
            "--render" => opts.render = true,
            "--json" => opts.json = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
        i += 1;
    }
    if opts.n == 0 {
        return Err(format!("--n is required\n{}", usage()));
    }
    if opts.homes.is_none() && opts.k.is_none() {
        return Err(format!("one of --homes / --k is required\n{}", usage()));
    }
    opts.algo = with_group_size(opts.algo, opts.g, usage())?;
    if opts.json && opts.render {
        return Err(format!(
            "--render draws text; it cannot share stdout with --json\n{}",
            usage()
        ));
    }
    if opts.tier_set && !opts.certify {
        return Err(format!("--tier requires --certify\n{}", usage()));
    }
    if opts.symmetry_set && !opts.explore && opts.adversary.is_none() {
        return Err(format!(
            "--symmetry requires --explore or --adversary\n{}",
            usage()
        ));
    }
    let quantified_modes = usize::from(opts.explore)
        + usize::from(opts.adversary.is_some())
        + usize::from(opts.certify);
    if quantified_modes > 1 {
        return Err(format!(
            "--explore, --adversary and --certify are mutually exclusive\n{}",
            usage()
        ));
    }
    if quantified_modes > 0 && (opts.schedule_set || opts.schedule == Schedule::Synchronous) {
        return Err(format!(
            "--explore/--adversary/--certify quantify over every fair schedule; \
             drop --schedule/--sync\n{}",
            usage()
        ));
    }
    Ok(opts)
}

/// Parses an objective name: `moves`, `activations` or `memory`, or the
/// objective's full name.
fn parse_objective(spec: &str) -> Result<Objective, String> {
    match spec {
        "moves" | "total-moves" => Ok(Objective::TotalMoves),
        "activations" | "total-activations" => Ok(Objective::TotalActivations),
        "memory" | "peak-memory-bits" => Ok(Objective::PeakMemoryBits),
        other => Err(format!("unknown objective `{other}`")),
    }
}

/// Folds `--g` into the partial-gathering family `algo`; `usage` is the
/// text the error carries.
fn with_group_size(algo: Algorithm, g: Option<usize>, usage: &str) -> Result<Algorithm, String> {
    let Some(g) = g else {
        return Ok(algo);
    };
    if !algo.name().starts_with("partial-gathering") {
        return Err(format!(
            "--g only applies to --algo partial-gathering\n{usage}"
        ));
    }
    Ok(Algorithm::partial_gathering(g))
}

/// Parses `--faults`: comma-separated `crash=<agent>@<step>` and
/// `dynamic-edge[:<budget>]` clauses, e.g. `crash=0@3,dynamic-edge:2`.
/// `dynamic-edge` without a budget grants one outage.
fn parse_faults(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::none();
    for clause in spec.split(',') {
        let clause = clause.trim();
        if let Some(rest) = clause.strip_prefix("crash=") {
            let (agent, after) = rest
                .split_once('@')
                .ok_or_else(|| format!("--faults: `{clause}` should be crash=<agent>@<step>"))?;
            let agent: usize = agent
                .parse()
                .map_err(|e| format!("--faults crash agent: {e}"))?;
            let after: u64 = after
                .parse()
                .map_err(|e| format!("--faults crash step: {e}"))?;
            plan = plan.with_crash(AgentId(agent), after);
        } else if clause == "dynamic-edge" {
            plan = plan.with_edge_outages(1);
        } else if let Some(budget) = clause.strip_prefix("dynamic-edge:") {
            let budget: u32 = budget
                .parse()
                .map_err(|e| format!("--faults dynamic-edge budget: {e}"))?;
            plan = plan.with_edge_outages(budget);
        } else {
            return Err(format!(
                "--faults: unknown clause `{clause}` (want crash=<agent>@<step> \
                 or dynamic-edge[:<budget>])"
            ));
        }
    }
    Ok(plan)
}

fn parse_schedule(spec: &str) -> Result<Schedule, String> {
    if spec == "round-robin" {
        return Ok(Schedule::RoundRobin);
    }
    if spec == "one-at-a-time" {
        return Ok(Schedule::OneAtATime);
    }
    if let Some(seed) = spec.strip_prefix("random:") {
        return Ok(Schedule::Random(
            seed.parse()
                .map_err(|e| format!("--schedule random: {e}"))?,
        ));
    }
    if let Some(agent) = spec.strip_prefix("delay:") {
        return Ok(Schedule::DelayAgent(
            agent
                .parse()
                .map_err(|e| format!("--schedule delay: {e}"))?,
        ));
    }
    Err(format!("unknown schedule `{spec}`"))
}

fn run(opts: &Options) -> Result<(), String> {
    let init = match (&opts.homes, opts.k) {
        (Some(homes), _) => InitialConfig::new(opts.n, homes.clone()).map_err(|e| e.to_string())?,
        (None, Some(k)) => {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(opts.seed);
            random_config(&mut rng, opts.n, k)
        }
        (None, None) => unreachable!("validated in parse_args"),
    };
    if let Some(crash) = opts
        .faults
        .crashes()
        .iter()
        .find(|c| c.agent.index() >= init.agent_count())
    {
        return Err(format!(
            "--faults: crash agent {} out of range (k = {})",
            crash.agent.index(),
            init.agent_count()
        ));
    }
    let init = init.with_faults(opts.faults.clone());
    // Under --json, stdout carries the one JSON document only.
    let header = |line: String| {
        if opts.json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    if !opts.faults.is_empty() {
        header(format!("faults: {}", opts.faults));
    }
    header(format!(
        "ring n = {}, k = {}, homes = {:?} (symmetry degree l = {})",
        init.ring_size(),
        init.agent_count(),
        init.homes(),
        init.symmetry_degree()
    ));
    if opts.render {
        let before: Ring<FullKnowledge> =
            Ring::new(&init, |_| FullKnowledge::new(init.agent_count()));
        println!(
            "\ninitial configuration:\n{}",
            ringdeploy::render_ring(&before)
        );
    }
    if opts.explore {
        return explore(opts, &init);
    }
    if let Some(objective) = opts.adversary {
        return adversary(opts, &init, objective);
    }
    if opts.certify {
        return certify(opts, &init);
    }
    let report = Deployment::of(&init)
        .algorithm(opts.algo)
        .run_preset(opts.schedule)
        .map_err(|e| e.to_string())?;
    if opts.json {
        use ringdeploy_json::ToJson;
        println!("{}", report.to_json());
        return if report.succeeded() || report.degraded() {
            Ok(())
        } else {
            Err(format!("deployment check failed: {:?}", report.check))
        };
    }
    println!("algorithm : {}", report.algorithm.name());
    println!("scheduler : {}", report.scheduler);
    println!(
        "verdict   : {}",
        if report.succeeded() {
            "success (problem predicate satisfied)"
        } else if report.degraded() {
            "degraded (crash-stop agents excused; survivors settled)"
        } else {
            "FAILED"
        }
    );
    println!("positions : {:?}", report.positions);
    println!(
        "moves     : {} total, {} max per agent",
        report.metrics.total_moves(),
        report.metrics.max_moves()
    );
    println!(
        "memory    : {} bits peak per agent",
        report.metrics.peak_memory_bits()
    );
    println!("messages  : {}", report.metrics.messages_sent());
    if let Some(rounds) = report.ideal_time {
        println!("ideal time: {rounds} rounds");
    }
    if !report.succeeded() && !report.degraded() {
        return Err(format!("deployment check failed: {:?}", report.check));
    }
    Ok(())
}

/// Exhaustively verifies the instance: every fair asynchronous schedule,
/// with rotation-symmetry reduction, through `explore_one`. (The
/// `Explore` batch enumerates workload families; a CLI instance has
/// explicit homes, so it explores that one instance directly.)
fn explore(opts: &Options, init: &InitialConfig) -> Result<(), String> {
    let report = explore_instance(opts, init)?;
    if opts.json {
        use ringdeploy_json::{Json, ToJson};
        let json = Json::object([
            ("mode", "explore".to_json()),
            ("algorithm", opts.algo.to_json()),
            ("n", init.ring_size().to_json()),
            ("k", init.agent_count().to_json()),
            ("symmetry_degree", init.symmetry_degree().to_json()),
            ("report", report.to_json()),
        ]);
        println!("{json}");
        return Ok(());
    }
    let quotient = match opts.symmetry {
        SymmetryMode::Off => "no quotient",
        SymmetryMode::Rotation => "rotation quotient",
    };
    println!("algorithm : {}", opts.algo.name());
    println!("mode      : exhaustive (every fair schedule, {quotient})");
    println!(
        "verdict   : {}",
        if opts.faults.is_empty() {
            "verified — all schedules reach uniform deployment, no livelock"
        } else {
            "verified — every bounded-fault schedule quiesces \
             (satisfied or crash-degraded), no livelock"
        }
    );
    println!("states    : {} state classes visited", report.states);
    println!(
        "terminals : {} distinct final configurations",
        report.terminals
    );
    println!(
        "depth     : {} (longest schedule explored)",
        report.max_depth_seen
    );
    println!("merges    : {} back/cross edges", report.merge_edges);
    println!(
        "frontier  : {} peak live states (deepest DFS stack)",
        report.peak_frontier
    );
    Ok(())
}

fn explore_instance(
    opts: &Options,
    init: &InitialConfig,
) -> Result<ringdeploy::sim::explore::ExploreReport, String> {
    use ringdeploy::analysis::explore_one;
    use ringdeploy::sim::explore::{ExploreLimits, Explorer};

    let explorer = Explorer::new()
        .limits(ExploreLimits::for_instance(
            init.ring_size(),
            init.agent_count(),
        ))
        .symmetry(opts.symmetry);
    explore_one(opts.algo, init, &explorer)
        .map_err(|e| format!("exhaustive verification FAILED: {e}"))
}

/// Synthesises the exact worst-case schedule for one objective
/// (exact search over every fair schedule, rotation quotient).
fn adversary(opts: &Options, init: &InitialConfig, objective: Objective) -> Result<(), String> {
    use ringdeploy::sim::explore::ExploreLimits;

    let engine = Adversary::new()
        .limits(ExploreLimits::for_instance(
            init.ring_size(),
            init.agent_count(),
        ))
        .symmetry(opts.symmetry);
    let worst = worst_case_one(opts.algo, init, &engine, objective)
        .map_err(|e| format!("worst-case search FAILED: {e}"))?;
    if opts.json {
        use ringdeploy_json::{Json, ToJson};
        let json = Json::object([
            ("mode", "adversary".to_json()),
            ("algorithm", opts.algo.to_json()),
            ("n", init.ring_size().to_json()),
            ("k", init.agent_count().to_json()),
            ("symmetry_degree", init.symmetry_degree().to_json()),
            ("report", worst.to_json()),
        ]);
        println!("{json}");
        return Ok(());
    }
    println!("algorithm : {}", opts.algo.name());
    println!("mode      : adversarial worst case (every fair schedule, exact)");
    println!("objective : {objective}");
    println!("worst case: {}", worst.value);
    println!(
        "witness   : {} scheduler picks (replayable via Replay)",
        worst.witness.len()
    );
    println!(
        "search    : {} states, {} expansions, {} dominance prunes, depth {}",
        worst.distinct_states, worst.expansions, worst.dominance_prunes, worst.max_depth_seen
    );
    Ok(())
}

/// Certifies the paper bounds for all three objectives at the selected
/// evidence tier, from one search (or one set of sweep runs) of the
/// instance; fails (non-zero exit) if any bound is violated.
fn certify(opts: &Options, init: &InitialConfig) -> Result<(), String> {
    let certificates = certify_all(
        opts.algo,
        init,
        &Objective::ALL,
        opts.tier,
        &CertifySettings::default(),
    )
    .map_err(|e| format!("certification FAILED: {e}"))?;
    let violation = violation_error(&certificates);
    if opts.json {
        use ringdeploy_json::{Json, ToJson};
        let json = Json::object([
            ("mode", "certify".to_json()),
            ("algorithm", opts.algo.to_json()),
            ("n", init.ring_size().to_json()),
            ("k", init.agent_count().to_json()),
            ("symmetry_degree", init.symmetry_degree().to_json()),
            ("tier", opts.tier.to_json()),
            ("certificates", certificates.to_json()),
        ]);
        println!("{json}");
    } else {
        println!("algorithm : {}", opts.algo.name());
        println!("mode      : bound certification ({} tier)", opts.tier);
        for cert in &certificates {
            let ratio = cert
                .competitive_ratio
                .map(|r| format!(", {r:.2}x vs offline oracle"))
                .unwrap_or_default();
            println!(
                "{:<17} : worst {:>6}  bound {:>8.1} ({} with c = {})  {}{ratio}",
                cert.objective.name(),
                cert.worst_value,
                cert.bound.value,
                cert.bound.formula,
                cert.bound.constant,
                if cert.holds() { "OK" } else { "VIOLATED" },
            );
        }
    }
    match violation {
        Some(error) => Err(error),
        None => Ok(()),
    }
}

/// The non-zero-exit decision of `--certify` (the CI gate): `Some`
/// error text when any certificate's measured worst case violates its
/// recorded paper bound.
fn violation_error(certificates: &[ringdeploy::BoundCertificate]) -> Option<String> {
    let violated = certificates.iter().filter(|c| !c.holds()).count();
    (violated > 0).then(|| {
        format!(
            "{violated} of {} paper bounds VIOLATED by a measured worst case",
            certificates.len()
        )
    })
}

/// `--serve` / `--connect`: the `ringdeployd` daemon front end.
mod service_cli {
    use std::io::Write;
    use std::process::ExitCode;

    use ringdeploy::analysis::certify::EvidenceTier;
    use ringdeploy::analysis::key::JobKind;
    use ringdeploy::analysis::Workload;
    use ringdeploy::service::{
        parse_response, serve_stdio, Backpressure, Client, DaemonConfig, JobSpec, Request,
        Response, Server,
    };
    use ringdeploy::Algorithm;
    use ringdeploy_json::ToJson;

    /// True when the invocation is a daemon-mode one (dispatched here
    /// instead of the single-instance parser).
    pub fn wants_dispatch(args: &[String]) -> bool {
        args.iter().any(|a| a == "--serve" || a == "--connect")
    }

    pub fn dispatch(args: &[String]) -> ExitCode {
        match run(args) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        }
    }

    fn usage() -> &'static str {
        "usage: ringdeploy --serve stdio|<addr> [--workers w] [--queue q] \
         [--cache-bytes b] [--max-jobs j]\n\
         \x20      ringdeploy --connect <addr> (--stats | --shutdown | \
         [--job sweep|explore|adversary|certify] --workload <family> --n <n> --k <k> \
         [--l <l>] [--seeds a,b,c] [--algo a [--g <size>]] [--objective o] [--tier t] \
         [--faults spec] [--timeout-ms ms] [--id i] [--backpressure block|reject])"
    }

    fn run(args: &[String]) -> Result<ExitCode, String> {
        if args.iter().any(|a| a == "--serve") {
            serve(args)
        } else {
            connect(args)
        }
    }

    fn value(args: &[String], i: &mut usize) -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("missing value after {}\n{}", args[*i - 1], usage()))
    }

    fn parse<T: std::str::FromStr>(flag: &str, raw: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        raw.parse().map_err(|e| format!("{flag}: {e}"))
    }

    fn serve(args: &[String]) -> Result<ExitCode, String> {
        let mut target = None;
        let mut config = DaemonConfig::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--serve" => target = Some(value(args, &mut i)?),
                "--workers" => config.workers = parse("--workers", &value(args, &mut i)?)?,
                "--queue" => config.queue_capacity = parse("--queue", &value(args, &mut i)?)?,
                "--cache-bytes" => {
                    config.cache_bytes = parse("--cache-bytes", &value(args, &mut i)?)?;
                }
                "--max-jobs" => config.max_jobs = parse("--max-jobs", &value(args, &mut i)?)?,
                other => return Err(format!("unknown serve option `{other}`\n{}", usage())),
            }
            i += 1;
        }
        let target = target.expect("dispatched on --serve");
        let stats = if target == "stdio" {
            let stats = serve_stdio(config);
            // stdout is the protocol channel in stdio mode.
            eprintln!("{}", stats.to_json());
            stats
        } else {
            let server =
                Server::bind(&target, config).map_err(|e| format!("--serve {target}: {e}"))?;
            let addr = server.local_addr().map_err(|e| e.to_string())?;
            println!("listening {addr}");
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            let stats = server.run();
            println!("{}", stats.to_json());
            stats
        };
        let _ = stats;
        Ok(ExitCode::SUCCESS)
    }

    fn workload(family: &str, n: usize, k: usize, l: Option<usize>) -> Result<Workload, String> {
        match family {
            "random" => Ok(Workload::Random { n, k }),
            "aperiodic" | "random-aperiodic" => Ok(Workload::RandomAperiodic { n, k }),
            "quarter" | "quarter-ring" => Ok(Workload::QuarterRing { n, k }),
            "periodic" => {
                let l = l.ok_or_else(|| "--workload periodic requires --l".to_string())?;
                Ok(Workload::Periodic { n, k, l })
            }
            "uniform" => Ok(Workload::Uniform { n, k }),
            "large" | "large-ring" => Ok(Workload::LargeRing { n, k }),
            other => Err(format!("unknown workload family `{other}`\n{}", usage())),
        }
    }

    enum Action {
        Stats,
        Shutdown,
        Submit,
    }

    fn connect(args: &[String]) -> Result<ExitCode, String> {
        let mut addr = None;
        let mut action = Action::Submit;
        let mut job_kind = JobKind::Sweep;
        let mut algo = Algorithm::FullKnowledge;
        let mut g: Option<usize> = None;
        let mut family = "random".to_string();
        let mut n = 0usize;
        let mut k = 0usize;
        let mut l = None;
        let mut seeds = vec![0u64];
        let mut objectives = Vec::new();
        let mut tier = EvidenceTier::Adversarial;
        let mut faults = ringdeploy::FaultPlan::none();
        let mut timeout_ms = None;
        let mut id = 1u64;
        let mut backpressure = Backpressure::Block;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--connect" => addr = Some(value(args, &mut i)?),
                "--stats" => action = Action::Stats,
                "--shutdown" => action = Action::Shutdown,
                "--job" => {
                    let spec = value(args, &mut i)?;
                    job_kind = JobKind::from_name(&spec)
                        .ok_or_else(|| format!("unknown job kind `{spec}`\n{}", usage()))?;
                }
                "--algo" => {
                    let spec = value(args, &mut i)?;
                    algo = Algorithm::from_name(&spec)
                        .ok_or_else(|| format!("unknown algorithm `{spec}`"))?;
                }
                "--g" => {
                    g = Some(parse("--g", &value(args, &mut i)?)?);
                }
                "--workload" => family = value(args, &mut i)?,
                "--n" => n = parse("--n", &value(args, &mut i)?)?,
                "--k" => k = parse("--k", &value(args, &mut i)?)?,
                "--l" => l = Some(parse("--l", &value(args, &mut i)?)?),
                "--seeds" => {
                    let list = value(args, &mut i)?;
                    let parsed: Result<Vec<u64>, String> = list
                        .split(',')
                        .map(|s| parse("--seeds", s.trim()))
                        .collect();
                    seeds = parsed?;
                }
                "--objective" => objectives.push(super::parse_objective(&value(args, &mut i)?)?),
                "--tier" => {
                    let spec = value(args, &mut i)?;
                    tier = EvidenceTier::from_name(&spec)
                        .ok_or_else(|| format!("unknown evidence tier `{spec}`"))?;
                }
                "--faults" => {
                    let spec = value(args, &mut i)?;
                    faults = super::parse_faults(&spec)?;
                }
                "--timeout-ms" => {
                    timeout_ms = Some(parse("--timeout-ms", &value(args, &mut i)?)?);
                }
                "--id" => id = parse("--id", &value(args, &mut i)?)?,
                "--backpressure" => {
                    let spec = value(args, &mut i)?;
                    backpressure = Backpressure::from_name(&spec)
                        .ok_or_else(|| format!("unknown backpressure policy `{spec}`"))?;
                }
                other => return Err(format!("unknown connect option `{other}`\n{}", usage())),
            }
            i += 1;
        }
        let addr = addr.expect("dispatched on --connect");
        let algo = super::with_group_size(algo, g, usage())?;
        // Retry transient connect failures (a daemon launched just
        // before us may still be binding its listener).
        let mut client = Client::connect_with_retry(&addr, 5, std::time::Duration::from_millis(50))
            .map_err(|e| format!("--connect {addr}: {e}"))?;
        match action {
            Action::Stats => {
                client.send(&Request::Stats).map_err(|e| e.to_string())?;
                let line = client
                    .recv_line()
                    .map_err(|e| e.to_string())?
                    .ok_or_else(|| "daemon closed the connection".to_string())?;
                println!("{line}");
                Ok(ExitCode::SUCCESS)
            }
            Action::Shutdown => {
                client.send(&Request::Shutdown).map_err(|e| e.to_string())?;
                while let Some(line) = client.recv_line().map_err(|e| e.to_string())? {
                    println!("{line}");
                    if matches!(parse_response(&line), Ok(Response::Bye)) {
                        break;
                    }
                }
                Ok(ExitCode::SUCCESS)
            }
            Action::Submit => {
                if n == 0 || k == 0 {
                    return Err(format!("--n and --k are required to submit\n{}", usage()));
                }
                let job = JobSpec {
                    kind: job_kind,
                    algorithms: vec![algo],
                    workloads: vec![workload(&family, n, k, l)?],
                    schedules: Vec::new(),
                    objectives,
                    tier,
                    seeds,
                    faults,
                    timeout_ms,
                };
                client
                    .send(&Request::Submit {
                        id,
                        backpressure,
                        job,
                    })
                    .map_err(|e| e.to_string())?;
                // Forward frames verbatim (the output stays jq-able) and
                // derive the exit code from the job's terminal frame.
                while let Some(line) = client.recv_line().map_err(|e| e.to_string())? {
                    println!("{line}");
                    match parse_response(&line) {
                        Ok(Response::Done { id: done_id, .. }) if done_id == id => {
                            return Ok(ExitCode::SUCCESS);
                        }
                        Ok(
                            Response::Rejected { .. }
                            | Response::Error { .. }
                            | Response::Timeout { .. },
                        ) => {
                            return Ok(ExitCode::FAILURE);
                        }
                        _ => {}
                    }
                }
                Err("daemon closed the connection before the job finished".to_string())
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if service_cli::wants_dispatch(&args) {
        return service_cli::dispatch(&args);
    }
    match parse_args(&args) {
        Ok(opts) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringdeploy::analysis::PaperBound;
    use ringdeploy::BoundCertificate;

    fn certificate(worst_value: u64, bound_value: f64) -> BoundCertificate {
        BoundCertificate {
            algorithm: Algorithm::FullKnowledge,
            objective: Objective::TotalMoves,
            tier: EvidenceTier::Adversarial,
            n: 12,
            k: 4,
            symmetry_degree: 1,
            bound: PaperBound {
                formula: "c*k*n",
                constant: 3.0,
                value: bound_value,
            },
            worst_value,
            witness: None,
            terminal_fingerprint: None,
            oracle_moves: None,
            competitive_ratio: None,
            search: None,
            degradation: None,
            instance_fingerprint: None,
        }
    }

    /// The CI gate's decision function: a violated bound — which no real
    /// instance produces (that is what the CI `adversary` job asserts) —
    /// must turn into the non-zero-exit error, and exactly then. A bound
    /// met with equality still holds.
    #[test]
    fn violation_error_fires_exactly_on_violated_bounds() {
        assert_eq!(violation_error(&[certificate(96, 144.0)]), None);
        assert_eq!(violation_error(&[certificate(144, 144.0)]), None);
        let error = violation_error(&[
            certificate(96, 144.0),
            certificate(145, 144.0),
            certificate(700, 144.0),
        ])
        .expect("violations must fail the run");
        assert_eq!(
            error,
            "2 of 3 paper bounds VIOLATED by a measured worst case"
        );
    }
}
