//! Pins of the engine's transition function, across all four paper
//! families, fault-free and under crash and edge-outage plans, under
//! both link disciplines:
//!
//! * traced [`Ring::run`] executions under a seeded `Random` scheduler:
//!   an FNV-1a digest of every trace event's `Debug` text, and a digest
//!   of the final `metrics()`, `phase_tallies()`, `steps()` and run
//!   outcome — so any change to what one activation does, or to the
//!   order it does it in, shows up as a changed digest;
//! * an `apply`-versus-`step` twin walk: a ring advanced by
//!   [`Ring::apply`] and a twin advanced by [`Ring::step`] agree on every
//!   observable after every step, and unwinding the recorded undos
//!   restores the start.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ringdeploy::sim::canonical::{canonical_fingerprint, plain_fingerprint};
use ringdeploy::sim::scheduler::{Activation, Random};
use ringdeploy::sim::{Behavior, LinkDiscipline, Metrics, PhaseTally, Ring, Scheduler};
use ringdeploy::{
    AgentId, FaultPlan, FullKnowledge, InitialConfig, LogSpace, NoKnowledge, PartialGathering,
    RunLimits,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The three plans every family runs under.
fn plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("none", FaultPlan::none()),
        ("crash", FaultPlan::none().with_crash(AgentId(1), 3)),
        ("outages", FaultPlan::none().with_edge_outages(2)),
    ]
}

const DISCIPLINES: [LinkDiscipline; 2] = [LinkDiscipline::Fifo, LinkDiscipline::Lifo];

/// One traced run: `(trace digest, state digest, steps)`. The state
/// digest covers the run's result, the final metrics and phase tallies.
fn traced_run<B: Behavior>(
    init: &InitialConfig,
    make: &dyn Fn() -> B,
    discipline: LinkDiscipline,
    seed: u64,
) -> (u64, u64, u64) {
    let mut ring = Ring::new(init, |_| make());
    ring.set_link_discipline(discipline);
    ring.enable_trace(1 << 20);
    let result = ring.run(&mut Random::seeded(seed), RunLimits::new(20_000, 1));
    let trace = ring.trace().expect("tracing is on");
    assert_eq!(trace.dropped(), 0, "the trace must hold the whole run");
    let mut trace_fp = FNV_OFFSET;
    for event in trace.events() {
        trace_fp = fnv1a(trace_fp, format!("{event:?}\n").as_bytes());
    }
    let state = format!(
        "{:?}\n{:?}\n{:?}\n{}",
        result.map(|o| (o.quiescent, o.steps)),
        ring.metrics(),
        ring.phase_tallies(),
        ring.steps()
    );
    (trace_fp, fnv1a(FNV_OFFSET, state.as_bytes()), ring.steps())
}

/// Every traced case as `(label, trace digest, state digest, steps)`.
fn traced_cases() -> Vec<(String, u64, u64, u64)> {
    let dense = InitialConfig::new(12, vec![0, 1, 2, 3]).expect("valid");
    let periodic = InitialConfig::new(16, vec![0, 1, 8, 9]).expect("valid");
    let mut out = Vec::new();
    for (plan_name, plan) in plans() {
        let dense = dense.clone().with_faults(plan.clone());
        let periodic = periodic.clone().with_faults(plan);
        for discipline in DISCIPLINES {
            let tag = |family: &str| format!("{family} {plan_name} {discipline:?}");
            let push = |out: &mut Vec<_>, label: String, (t, s, n): (u64, u64, u64)| {
                out.push((label, t, s, n));
            };
            push(
                &mut out,
                tag("algo1"),
                traced_run(&dense, &|| FullKnowledge::new(4), discipline, 11),
            );
            push(
                &mut out,
                tag("algo2"),
                traced_run(&dense, &|| LogSpace::new(4), discipline, 12),
            );
            push(
                &mut out,
                tag("relaxed"),
                traced_run(&dense, &NoKnowledge::new, discipline, 13),
            );
            push(
                &mut out,
                tag("partial-gathering-g2"),
                traced_run(&periodic, &|| PartialGathering::new(4), discipline, 14),
            );
        }
    }
    out
}

/// `(label, trace digest, state digest, steps)` per traced case.
#[rustfmt::skip]
const PINNED: [(&str, u64, u64, u64); 24] = [
    ("algo1 none Fifo", 0x59481e811f88cb53, 0xa6e37f453e26731f, 100),
    ("algo2 none Fifo", 0x77c40b61b208a671, 0x90cd368e91de98d3, 111),
    ("relaxed none Fifo", 0x1424c6ca5e9a5b47, 0x96fe0768f2eea124, 628),
    ("partial-gathering-g2 none Fifo", 0x1984208d3c992923, 0xa8b104bb0ec702d6, 82),
    ("algo1 none Lifo", 0x7aae348e93762ff3, 0xa6e37f453e26731f, 100),
    ("algo2 none Lifo", 0xe239e1dec3d54053, 0xfb5228931afad2cf, 54),
    ("relaxed none Lifo", 0x695855b028be5c6a, 0x186c4703b1a840ae, 20000),
    ("partial-gathering-g2 none Lifo", 0x6185f321ece1c17a, 0x710ad6f4cdf93c45, 91),
    ("algo1 crash Fifo", 0xb51d409257f0da03, 0x5597bc8b75015b73, 71),
    ("algo2 crash Fifo", 0x99505e273498c48e, 0x7ec4feddc0587c7a, 55),
    ("relaxed crash Fifo", 0x6cdb0b069eeff4ea, 0x712ee34f34fb1930, 467),
    ("partial-gathering-g2 crash Fifo", 0xb8b5c68eff881f21, 0x960f050d2312fe7c, 62),
    ("algo1 crash Lifo", 0x7a9cee83edd3a89f, 0x5597bc8b75015b73, 71),
    ("algo2 crash Lifo", 0xe4c13a6fb76b882a, 0xfa4c849a2d077d97, 45),
    ("relaxed crash Lifo", 0xc7342a2c9527fb30, 0xb25916d56722b9ca, 20000),
    ("partial-gathering-g2 crash Lifo", 0xb7ee977a76c779fc, 0xc5ddd09a26dfa041, 71),
    ("algo1 outages Fifo", 0x1609ddffb3cd3649, 0x81ab13510ed3b62f, 104),
    ("algo2 outages Fifo", 0x92bbf56e8d460327, 0xef4fab9292a5a6b5, 115),
    ("relaxed outages Fifo", 0xedfb074259431d65, 0xebc22b102ccc1b34, 632),
    ("partial-gathering-g2 outages Fifo", 0x8b0d4a43be716025, 0x747d6623a3f2c0d0, 86),
    ("algo1 outages Lifo", 0x392309e0185151df, 0xff33135dee16738a, 126),
    ("algo2 outages Lifo", 0x1ae471adcc1aa017, 0xe57e98b6fbdc5777, 58),
    ("relaxed outages Lifo", 0xadebb50d101e6f10, 0x157752824b0a12c4, 20000),
    ("partial-gathering-g2 outages Lifo", 0x027cadf5ab203732, 0xdbd8fcaa240b3015, 95),
];

#[test]
fn traced_runs_match_their_pinned_digests() {
    let actual = traced_cases();
    assert_eq!(actual.len(), PINNED.len());
    for (got, want) in actual.iter().zip(PINNED) {
        assert_eq!(
            (got.0.as_str(), got.1, got.2, got.3),
            want,
            "traced run {} changed",
            want.0
        );
    }
}

/// Everything `apply` and `step` must agree on after every step.
#[derive(Debug, Clone, PartialEq)]
struct Snapshot {
    plain_fp: u64,
    canonical_fp: u64,
    schedule_hash: u64,
    enabled: Vec<Activation>,
    steps: u64,
    metrics: Metrics,
    phases: Vec<PhaseTally>,
    down_edge: Option<ringdeploy::sim::NodeId>,
    outages_left: u32,
    crashed_count: usize,
}

fn snapshot<B>(ring: &Ring<B>) -> Snapshot
where
    B: Behavior + Hash,
    B::Message: Hash,
{
    let mut h = DefaultHasher::new();
    ring.hash_schedule_state(&mut h);
    Snapshot {
        plain_fp: plain_fingerprint(ring),
        canonical_fp: canonical_fingerprint(ring),
        schedule_hash: h.finish(),
        enabled: ring.enabled_activations().to_vec(),
        steps: ring.steps(),
        metrics: ring.metrics().clone(),
        phases: ring.phase_tallies().to_vec(),
        down_edge: ring.down_edge(),
        outages_left: ring.outages_left(),
        crashed_count: ring.crashed_count(),
    }
}

/// Walks one ring by `apply` and a twin by `step` along the same seeded
/// random schedule, comparing snapshots after every step; then unwinds
/// the undos. Returns the number of steps compared.
fn twin_walk<B>(
    init: &InitialConfig,
    make: &dyn Fn() -> B,
    discipline: LinkDiscipline,
    seed: u64,
    label: &str,
) -> u64
where
    B: Behavior + Clone + Hash,
    B::Message: Clone + Hash,
{
    let prepare = || {
        let mut ring = Ring::new(init, |_| make());
        ring.set_link_discipline(discipline);
        ring
    };
    let mut ring = prepare();
    let mut twin = prepare();
    let initial = snapshot(&ring);
    let mut scheduler = Random::seeded(seed);
    let mut undos = Vec::new();
    for _ in 0..2_000 {
        if ring.enabled_activations().is_empty() {
            break;
        }
        let act = ring.enabled_activations()[scheduler.select(ring.enabled_activations())];
        undos.push(ring.apply(act));
        twin.step(act);
        assert_eq!(
            snapshot(&ring),
            snapshot(&twin),
            "{label} seed {seed}: apply diverged from step after {act:?}"
        );
    }
    let walked = undos.len() as u64;
    while let Some(undo) = undos.pop() {
        ring.undo(undo);
    }
    assert_eq!(snapshot(&ring), initial, "{label} seed {seed}: unwind");
    walked
}

#[test]
fn apply_walks_step_for_step_under_fault_plans() {
    let mut compared = 0u64;
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa17);
        let n = rng.gen_range(5..=10usize);
        let k = rng.gen_range(2..=4usize);
        let mut homes: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = rng.gen_range(i..n);
            homes.swap(i, j);
        }
        homes.truncate(k);
        let plan = FaultPlan::none()
            .with_crash(AgentId(rng.gen_range(0..k)), rng.gen_range(0..6))
            .with_edge_outages(rng.gen_range(1..=3));
        let init = InitialConfig::new(n, homes)
            .expect("distinct homes")
            .with_faults(plan);
        for discipline in DISCIPLINES {
            let label = |family: &str| format!("{family} n={n} k={k} {discipline:?}");
            compared += twin_walk(
                &init,
                &|| FullKnowledge::new(k),
                discipline,
                seed,
                &label("algo1"),
            );
            compared += twin_walk(
                &init,
                &|| LogSpace::new(k),
                discipline,
                seed,
                &label("algo2"),
            );
            compared += twin_walk(
                &init,
                &NoKnowledge::new,
                discipline,
                seed,
                &label("relaxed"),
            );
            compared += twin_walk(
                &init,
                &|| PartialGathering::new(k),
                discipline,
                seed,
                &label("partial-gathering"),
            );
        }
    }
    assert!(
        compared > 50_000,
        "the walk must be long enough to bite: {compared}"
    );
}
