//! The fuzz workload.
//!
//! Untraced, a unit is three `cml_fuzz::fuzz` campaigns, one each on
//! vulnerable OpenELEC for x86, ARMv7 and RISC-V, with coverage and the
//! sanitizer on, in fork mode, on one worker. Traced, each campaign is
//! replayed exactly as `run_campaign` runs it, through `Mutator::mutate`,
//! `Corpus::pick/pick_donor/admit`, `minimize`, and the calls
//! `Harness::exec` makes (`BootForge::fork`, `Daemon::resolve`,
//! `Daemon::deliver_response`, `CoverageAccum::note_new`), so the
//! restore, the parse and the coverage fold get spans of their own. The
//! replay rebuilds the campaign's `FuzzReport`, which must equal the
//! one `fuzz()` returned.

use std::time::Instant;

use cml_connman::ProxyOutcome;
use cml_core::derive_seed;
use cml_dns::{Name, RecordType};
use cml_firmware::{Arch, BootForge, Firmware, FirmwareKind, Protections};
use cml_fuzz::{
    crash_key, fuzz, minimize, Corpus, CoverageAccum, CrashRecord, FuzzConfig, FuzzReport, Harness,
    Mutator, WorkerStats,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{self, median, Tracer, ROOT};
use crate::{metrics, ratio, repeat, Metric, Outcome, Replays, Run};

/// The three campaigns of a unit, `execs` executions each.
pub fn configs(seed: u64, execs: u64) -> Vec<FuzzConfig> {
    Arch::ALL
        .iter()
        .enumerate()
        .map(|(k, &arch)| {
            FuzzConfig::new(
                FirmwareKind::OpenElec,
                arch,
                derive_seed(seed, 0xF022 + k as u64),
                execs,
                1,
            )
        })
        .collect()
}

/// One untraced unit: the three campaigns' reports, their wall time,
/// and the time to boot their fork servers first.
pub struct UnitRun {
    pub reports: Vec<FuzzReport>,
    pub wall_s: f64,
    pub setup_s: f64,
}

impl UnitRun {
    pub fn execs(&self) -> u64 {
        self.reports.iter().map(FuzzReport::total_execs).sum()
    }
}

/// Boots the three fork servers (`Harness::new`: firmware build plus
/// forge boot, the set-up a campaign pays before its first exec) and
/// times it, then runs the three campaigns.
pub fn run_unit(cfgs: &[FuzzConfig]) -> UnitRun {
    let t = Instant::now();
    for cfg in cfgs {
        let h = Harness::new(cfg.kind, cfg.arch, cfg.seed, cfg.coverage, false);
        std::hint::black_box(&h);
    }
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let reports = cfgs.iter().map(fuzz).collect();
    UnitRun {
        reports,
        wall_s: t.elapsed().as_secs_f64(),
        setup_s,
    }
}

/// What a run keeps of an untraced unit. Reports are checked as each
/// unit finishes and then dropped, so memory does not grow with the run.
struct Timed {
    execs: u64,
    wall_s: f64,
    setup_s: f64,
}

/// Execs per second over every unit of a run.
fn execs_per_s(units: &[Timed]) -> f64 {
    let execs: u64 = units.iter().map(|u| u.execs).sum();
    execs as f64 / units.iter().map(|u| u.wall_s).sum::<f64>()
}

/// Unique oracle escapes of a campaign: crash records whose key says the
/// sanitizer did not stop the hijack. `fuzz()` keeps no per-exec outcome,
/// so an untraced run counts each escape kind once; the traced replay
/// tags every exec and fails its check on any escaping one.
fn escapes(report: &FuzzReport) -> u64 {
    report
        .crashes
        .iter()
        .filter(|c| c.key.starts_with("oracle-escape"))
        .count() as u64
}

/// Runs untraced units for `seconds`. Each is checked as it finishes:
/// the overflow is rediscovered on every ISA, nothing escapes the
/// oracle, and its stats are byte-identical to the first unit's. `also`
/// sees every unit before its reports are dropped.
fn measure(
    cfgs: &[FuzzConfig],
    seconds: f64,
    out: &mut Outcome,
    mut also: impl FnMut(&UnitRun, &mut Outcome),
) -> Run<Timed> {
    let mut first: Option<Vec<String>> = None;
    repeat(seconds, || {
        let u = run_unit(cfgs);
        let stats: Vec<String> = u.reports.iter().map(FuzzReport::stats_json).collect();
        let first = first.get_or_insert_with(|| stats.clone());
        out.attempted += u.execs();
        for ((r, json), first_json) in u.reports.iter().zip(&stats).zip(first.iter()) {
            out.failed += escapes(r);
            out.check(r.found_overflow(), || {
                format!(
                    "{:?}: campaign did not rediscover the overflow",
                    r.config.arch
                )
            });
            out.check(json == first_json, || {
                format!("{:?}: stats differ between repeats", r.config.arch)
            });
        }
        also(&u, out);
        Timed {
            execs: u.execs(),
            wall_s: u.wall_s,
            setup_s: u.setup_s,
        }
    })
}

pub fn run_untraced(cfgs: &[FuzzConfig], seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let run = measure(cfgs, seconds, &mut out, |_, _| {});
    put_rates(&run, &mut out);
    out
}

fn put_rates(run: &Run<Timed>, out: &mut Outcome) {
    let setups: Vec<f64> = run.units.iter().map(|u| u.setup_s).collect();
    out.put_rates(execs_per_s(&run.units), median(&setups), run.speed);
}

/// The fork server of a replayed campaign.
struct Target {
    forge: BootForge,
    boot_seed: u64,
    qname: Name,
}

struct ExecOut {
    tag: &'static str,
    key: Option<String>,
    fault: Option<String>,
    novel: bool,
}

/// `Harness::exec`, call for call, with a span around each layer call.
fn exec(
    t: &mut Target,
    input: &[u8],
    accum: &mut CoverageAccum,
    tr: &mut Tracer,
    id: u32,
    parent: u32,
) -> ExecOut {
    let root = tr.open("fuzz.exec", id, parent);
    let s = tr.open("forge.fork", id, root);
    let daemon = t.forge.fork(t.boot_seed);
    tr.close(s);
    daemon.set_sanitizer(true);
    daemon.machine_mut().set_coverage_enabled(true);
    daemon.machine_mut().coverage_reset();
    let s = tr.open("daemon.resolve", id, root);
    let _query = daemon.resolve(&t.qname, RecordType::A);
    tr.close(s);
    let s = tr.open("daemon.deliver", id, root);
    let outcome = daemon.deliver_response(input);
    tr.close(s);
    let s = tr.open("fuzz.cov_fold", id, root);
    let novel = daemon
        .machine()
        .coverage()
        .is_some_and(|map| accum.note_new(map.bytes()));
    tr.close(s);
    let (tag, key, fault) = match &outcome {
        ProxyOutcome::Rejected(_) => ("rejected", None, None),
        ProxyOutcome::ParseFailed { .. } => ("parse-failed", None, None),
        ProxyOutcome::Answered { .. } => ("answered", None, None),
        ProxyOutcome::Crashed(report) => (
            "crashed",
            Some(crash_key(&report.fault)),
            Some(report.fault.to_string()),
        ),
        ProxyOutcome::Compromised(_) => (
            "compromised",
            Some("oracle-escape-compromised".to_string()),
            Some(outcome.to_string()),
        ),
        ProxyOutcome::HijackedExit { .. } => (
            "hijacked-exit",
            Some("oracle-escape-hijack".to_string()),
            Some(outcome.to_string()),
        ),
        ProxyOutcome::DaemonDown => ("daemon-down", None, None),
        _ => ("other", None, None),
    };
    tr.close(root);
    ExecOut {
        tag,
        key,
        fault,
        novel,
    }
}

/// Outcome counts of a replayed campaign, beyond what `WorkerStats` keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    /// Execs of the search loop and the seed corpus (triage excluded).
    search: u64,
    /// Execs spent minimizing crashes.
    triage: u64,
    /// Search execs whose input was admitted to the corpus as novel.
    admitted: u64,
    /// Execs tagged compromised, hijacked-exit or other.
    escapes: u64,
}

fn tally(stats: &mut WorkerStats, t: &mut Tally, tag: &str) {
    t.search += 1;
    match tag {
        "answered" => stats.answered += 1,
        "rejected" => stats.rejected += 1,
        "parse-failed" => stats.parse_failed += 1,
        "crashed" => stats.crashed += 1,
        "compromised" | "hijacked-exit" => {
            stats.crashed += 1;
            t.escapes += 1;
        }
        "other" => t.escapes += 1,
        _ => {}
    }
}

/// One replayed campaign: the rebuilt report, its tally and the wall
/// time of its exec loop (set-up excluded).
struct Campaign {
    report: FuzzReport,
    tally: Tally,
    loop_s: f64,
}

/// Replays `run_campaign` for worker 0 of a one-worker campaign.
fn campaign(cfg: &FuzzConfig, tr: &mut Tracer, next_id: &mut u32) -> Campaign {
    let fw = tr.span("setup.firmware", 0, ROOT, || {
        Firmware::build(cfg.kind, cfg.arch)
    });
    let forge = tr.span("setup.forge_boot", 0, ROOT, || {
        fw.forge(Protections::none(), cfg.seed)
    });
    let seeds = tr.span("setup.template", 0, ROOT, || {
        Harness::new(cfg.kind, cfg.arch, cfg.seed, cfg.coverage, false).seed_inputs()
    });
    let mut target = Target {
        forge,
        boot_seed: cfg.seed,
        qname: Name::parse("iot.example.com").expect("static name"),
    };

    let t = Instant::now();
    let budget = cfg.max_execs;
    let wseed = derive_seed(cfg.seed, 0);
    let mut pick_rng = StdRng::seed_from_u64(derive_seed(wseed, 1));
    let mut mutator = Mutator::new(derive_seed(wseed, 2));
    let mut accum = CoverageAccum::new();
    let mut corpus = Corpus::new();
    let mut stats = WorkerStats::default();
    let mut counts = Tally::default();
    let mut crashes: Vec<CrashRecord> = Vec::new();
    let mut scratch: Vec<u8> = Vec::new();

    for seed_input in &seeds {
        if stats.execs >= budget {
            break;
        }
        let id = *next_id;
        *next_id += 1;
        let it = tr.open("iteration", id, ROOT);
        let out = exec(&mut target, seed_input, &mut accum, tr, id, it);
        stats.execs += 1;
        tally(&mut stats, &mut counts, out.tag);
        tr.span("fuzz.corpus", id, it, || corpus.admit(seed_input));
        tr.close(it);
    }

    while stats.execs < budget {
        let id = *next_id;
        *next_id += 1;
        let it = tr.open("iteration", id, ROOT);
        if corpus.is_empty() {
            corpus.admit(&[0u8; 12]);
        }
        let s = tr.open("fuzz.corpus", id, it);
        let base = corpus.pick(&mut pick_rng);
        let donor = corpus.pick_donor(&mut pick_rng, base);
        tr.close(s);
        tr.span("fuzz.mutate", id, it, || {
            mutator.mutate(base, donor, &mut scratch)
        });
        let out = exec(&mut target, &scratch, &mut accum, tr, id, it);
        stats.execs += 1;
        tally(&mut stats, &mut counts, out.tag);
        if let Some(key) = out.key {
            if !crashes.iter().any(|c| c.key == key) {
                let input = scratch.clone();
                let budget_left = budget - stats.execs;
                let mut spent = 0u64;
                let tri = tr.open("fuzz.triage", id, it);
                let minimized = minimize(&input, |candidate| {
                    if spent >= budget_left {
                        return None;
                    }
                    spent += 1;
                    let mut throwaway = CoverageAccum::new();
                    let again = exec(&mut target, candidate, &mut throwaway, tr, id, tri);
                    Some(again.key.as_deref() == Some(key.as_str()))
                });
                tr.close(tri);
                stats.execs += spent;
                counts.triage += spent;
                crashes.push(CrashRecord {
                    key,
                    worker: 0,
                    input: minimized,
                    fault: out.fault.unwrap_or_default(),
                });
            }
        } else if out.novel {
            tr.span("fuzz.corpus", id, it, || corpus.admit(&scratch));
            counts.admitted += 1;
        }
        tr.close(it);
    }
    stats.corpus_len = corpus.len();
    stats.edges = accum.edges_seen();
    let loop_s = t.elapsed().as_secs_f64();
    Campaign {
        report: FuzzReport {
            config: *cfg,
            workers: vec![stats],
            crashes,
            corpus: corpus.entries().to_vec(),
        },
        tally: counts,
        loop_s,
    }
}

/// One traced replay of a unit's three campaigns.
struct Replay {
    tracer: Tracer,
    campaigns: Vec<Campaign>,
}

impl Replay {
    fn loop_s(&self) -> f64 {
        self.campaigns.iter().map(|c| c.loop_s).sum()
    }

    fn execs(&self) -> u64 {
        self.campaigns.iter().map(|c| c.report.total_execs()).sum()
    }
}

fn replay(cfgs: &[FuzzConfig]) -> Replay {
    let mut tracer = Tracer::new();
    let mut next_id = 0u32;
    let campaigns = cfgs
        .iter()
        .map(|cfg| campaign(cfg, &mut tracer, &mut next_id))
        .collect();
    Replay { tracer, campaigns }
}

/// Deterministic outcome ratios and counts of one replay.
fn count_metrics(r: &Replay) -> Vec<Metric> {
    let mut w = WorkerStats::default();
    let mut t = Tally::default();
    let mut crashes = 0u64;
    for c in &r.campaigns {
        let s = &c.report.workers[0];
        w.execs += s.execs;
        w.edges += s.edges;
        w.rejected += s.rejected;
        w.parse_failed += s.parse_failed;
        w.crashed += s.crashed;
        t.search += c.tally.search;
        t.triage += c.tally.triage;
        t.admitted += c.tally.admitted;
        crashes += c.report.crashes.len() as u64;
    }
    metrics([
        ("fuzz.rejected_ratio", ratio(w.rejected, t.search), "ratio"),
        (
            "fuzz.parse_failed_ratio",
            ratio(w.parse_failed, t.search),
            "ratio",
        ),
        ("fuzz.crashed_ratio", ratio(w.crashed, t.search), "ratio"),
        ("fuzz.admit_ratio", ratio(t.admitted, t.search), "ratio"),
        ("fuzz.triage_exec_ratio", ratio(t.triage, w.execs), "ratio"),
        ("fuzz.edges", w.edges as f64, "count"),
        ("fuzz.unique_crashes", crashes as f64, "count"),
    ])
}

/// Span timings of one replay.
fn timing_metrics(r: &Replay) -> Vec<Metric> {
    let stats = trace::by_name(r.tracer.spans());
    let get = |name: &str| stats.get(name).cloned().unwrap_or_default();
    let (exec, fork, resolve, deliver) = (
        get("fuzz.exec"),
        get("forge.fork"),
        get("daemon.resolve"),
        get("daemon.deliver"),
    );
    metrics([
        ("fuzz.exec_s", exec.self_s(), "s"),
        ("fuzz.exec_us_p50", exec.pct_us(50.0), "us"),
        ("fuzz.exec_us_p99", exec.pct_us(99.0), "us"),
        ("fuzz.mutate_s", get("fuzz.mutate").self_s(), "s"),
        ("fuzz.corpus_s", get("fuzz.corpus").self_s(), "s"),
        ("fuzz.triage_s", get("fuzz.triage").self_s(), "s"),
        ("fuzz.cov_fold_s", get("fuzz.cov_fold").self_s(), "s"),
        ("forge.fork_s", fork.self_s(), "s"),
        ("forge.fork_us_p50", fork.pct_us(50.0), "us"),
        ("forge.fork_us_p99", fork.pct_us(99.0), "us"),
        ("daemon.resolve_s", resolve.self_s(), "s"),
        ("daemon.resolve_us_p50", resolve.pct_us(50.0), "us"),
        ("daemon.deliver_s", deliver.self_s(), "s"),
        ("daemon.deliver_us_p50", deliver.pct_us(50.0), "us"),
        ("daemon.deliver_us_p99", deliver.pct_us(99.0), "us"),
        ("setup.firmware_s", get("setup.firmware").self_s(), "s"),
        ("setup.forge_boot_s", get("setup.forge_boot").self_s(), "s"),
        ("setup.template_s", get("setup.template").self_s(), "s"),
        (
            "trace.span_coverage",
            trace::layer_self_ns(&stats) as f64 / 1e9 / r.loop_s(),
            "ratio",
        ),
    ])
}

/// Traced run: untraced units alternate with traced replays of the same
/// campaigns, so both see the same machine conditions.
pub fn run_traced(cfgs: &[FuzzConfig], seconds: f64) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut replays = Replays::default();
    let run = measure(cfgs, seconds, &mut out, |unit, out| {
        let r = replay(cfgs);
        for (c, reference) in r.campaigns.iter().zip(&unit.reports) {
            let arch = reference.config.arch;
            out.check(c.report == *reference, || {
                format!("{arch:?}: traced replay differs from fuzz()")
            });
            out.check(c.tally.escapes == 0, || {
                format!("{arch:?}: {} execs escaped the oracle", c.tally.escapes)
            });
        }
        let (counts, timings) = (count_metrics(&r), timing_metrics(&r));
        let ops = (r.execs(), r.loop_s());
        replays.add(counts, timings, r.tracer, ops, out);
    });
    put_rates(&run, &mut out);
    let tracer = replays.finish(execs_per_s(&run.units), &mut out);
    (out, tracer)
}
