//! Tiny-size runs of every workload: the traced replays must reproduce
//! the untraced outcomes, and the deterministic counts must repeat
//! exactly across runs at a fixed seed.

use perfbench::trace::Tracer;
use perfbench::{fleet, fuzz, resolve, Outcome, MIN_UNITS};

/// No time budget: a run measures its fewest units, each paired with a
/// traced replay in a traced run.
const TINY: f64 = 0.0;

/// A seed no benchmark run used while the workloads were tuned.
const HELD_OUT_SEED: u64 = 0x0DD5_EED5;

fn assert_counts_repeat(a: &Outcome, b: &Outcome, names: &[&str]) {
    for name in names {
        let x = a
            .metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{name} missing"));
        let y = b
            .metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(x.0.to_bits(), y.0.to_bits(), "{name} differs between runs");
    }
}

fn assert_coverage(out: &Outcome) {
    let coverage = out.metrics["trace.span_coverage"].0;
    assert!(
        coverage > 0.5 && coverage <= 1.0,
        "layer self times cover {coverage} of the traced loop"
    );
}

#[test]
fn fleet_replays_match_run_fleet_cfg_and_counts_repeat() {
    for (shape, per_cohort, sessions) in
        [(fleet::Shape::Aslr, 4, 12), (fleet::Shape::Matrix, 2, 20)]
    {
        let spec = fleet::spec(shape, 7, per_cohort);
        let (a, tracer) = fleet::run_traced(&spec, TINY);
        assert!(a.correct(), "{shape:?}: {:?}", a.problems);
        assert_eq!(a.attempted, MIN_UNITS as u64 * sessions);
        assert!(tracer.spans().iter().any(|s| s.name == "daemon.deliver"));
        assert_coverage(&a);
        let (b, _) = fleet::run_traced(&spec, TINY);
        let mut names = vec![
            "vm.insns_per_session",
            "vm.dcache_misses_per_session",
            "vm.dcache_hit_ratio",
            "exploit.bank_hit_ratio",
        ];
        let cells: Vec<String> = spec
            .cohorts
            .iter()
            .map(|c| format!("cell.{}.dcache_misses_per_session", c.name))
            .collect();
        names.extend(cells.iter().map(String::as_str));
        assert_counts_repeat(&a, &b, &names);
        assert_eq!(a.metrics["exploit.bank_hit_ratio"].0, 1.0);
    }
}

#[test]
fn fleet_render_is_a_function_of_the_seed() {
    let spec = fleet::spec(fleet::Shape::Matrix, 3, 2);
    assert_eq!(
        fleet::run_unit(&spec).report.render(),
        fleet::run_unit(&spec).report.render()
    );
    let held_out = fleet::spec(fleet::Shape::Matrix, HELD_OUT_SEED, 2);
    assert!(fleet::run_untraced(&held_out, TINY).correct());
}

#[test]
fn fuzz_replay_rebuilds_the_fuzz_report_and_counts_repeat() {
    let cfgs = fuzz::configs(5, 1500);
    let (a, tracer) = fuzz::run_traced(&cfgs, TINY);
    assert!(a.correct(), "{:?}", a.problems);
    assert!(tracer.spans().iter().any(|s| s.name == "fuzz.mutate"));
    assert_coverage(&a);
    let (b, _) = fuzz::run_traced(&cfgs, TINY);
    assert_counts_repeat(
        &a,
        &b,
        &[
            "fuzz.rejected_ratio",
            "fuzz.parse_failed_ratio",
            "fuzz.crashed_ratio",
            "fuzz.admit_ratio",
            "fuzz.triage_exec_ratio",
            "fuzz.edges",
            "fuzz.unique_crashes",
        ],
    );
    let first = fuzz::run_unit(&cfgs);
    let second = fuzz::run_unit(&cfgs);
    for (x, y) in first.reports.iter().zip(&second.reports) {
        assert_eq!(x.stats_json(), y.stats_json());
    }
    assert!(fuzz::run_untraced(&fuzz::configs(HELD_OUT_SEED, 1500), TINY).correct());
}

const TINY_WORLD: resolve::Size = resolve::Size {
    zones: 24,
    hosts: 6,
    cnames: 2,
    queries: 2_000,
};

#[test]
fn resolve_answers_match_the_zones_and_counts_repeat() {
    let (a, tracer) = resolve::run_traced(11, TINY_WORLD, TINY);
    assert!(a.correct(), "{:?}", a.problems);
    assert_eq!(a.attempted, (MIN_UNITS * TINY_WORLD.queries) as u64);
    assert!(tracer.spans().iter().any(|s| s.name == "resolver.miss"));
    assert!(tracer.spans().iter().any(|s| s.name == "resolver.hit"));
    assert_coverage(&a);
    let (b, _) = resolve::run_traced(11, TINY_WORLD, TINY);
    assert_counts_repeat(
        &a,
        &b,
        &[
            "resolver.cache_hit_ratio",
            "resolver.upstream_per_miss",
            "resolver.referrals_per_miss",
            "resolver.evictions",
            "resolver.expirations",
            "resolver.failures",
            "resolver.trace_bytes_per_query",
        ],
    );
    let mut world = resolve::build(11, TINY_WORLD);
    assert_eq!(
        resolve::serve(&mut world, &mut Tracer::off(), &mut Vec::new()).0,
        resolve::serve(
            &mut resolve::build(11, TINY_WORLD),
            &mut Tracer::off(),
            &mut Vec::new()
        )
        .0
    );
    assert!(resolve::run_untraced(HELD_OUT_SEED, TINY_WORLD, TINY).correct());
}
