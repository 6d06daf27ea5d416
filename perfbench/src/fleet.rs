//! The fleet workloads.
//!
//! Untraced, a unit is one `run_fleet_cfg` call on a fixed spec with one
//! worker. Traced, the same spec is replayed session by session through
//! the calls `class_session` makes on the answer-bank path:
//! `SharedForge::spawn`, `BootForge::fork`, `Daemon::resolve`,
//! `AnswerBank::capture/answer` and `Daemon::deliver_response`, with the
//! verdicts folded by the same `fan_out`. The replay's per-cohort
//! accumulators must equal the untraced report's.

use std::time::Instant;

use cml_connman::Resolution;
use cml_core::fleet::{fan_out, run_fleet_cfg, ENTROPY_FULL};
use cml_core::{
    derive_seed, Arch, CohortAccum, CohortSpec, FirmwareKind, FleetConfig, FleetReport, FleetSpec,
    Lab, Protections, ProxyOutcome, TargetInfo, Verdict,
};
use cml_dns::{Name, RecordType};
use cml_exploit::{
    AnswerBank, ArmGadgetExeclp, CodeInjection, ExploitStrategy, MaliciousDnsServer, Ret2Libc,
    RiscvGadgetSystem, RopMemcpyChain, Slides, TemplateSet,
};
use cml_firmware::{BootForge, Firmware, SharedForge};

use crate::trace::{self, median, Tracer, ROOT};
use crate::{ratio, repeat, Metric, Outcome, Replays};

/// Which cohort mix a fleet workload attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// OpenELEC 1.34 on each ISA under W⊕X+ASLR (the ROP strategy).
    Aslr,
    /// The nine {none, wxorx, full} × ISA cells plus a patched 1.35
    /// ARMv7 cohort.
    Matrix,
}

fn arch_label(arch: Arch) -> &'static str {
    match arch {
        Arch::X86 => "x86",
        Arch::Armv7 => "armv7",
        Arch::Riscv => "riscv",
    }
}

/// A cohort at full boot entropy, built directly: the `entropy=full`
/// spelling of `CohortSpec::parse_list` is rejected today.
fn cohort(kind: FirmwareKind, arch: Arch, prot: (&str, Protections), count: u64) -> CohortSpec {
    let label = if kind.is_vulnerable() {
        prot.0
    } else {
        "patched"
    };
    CohortSpec {
        protections: prot.1,
        entropy_bits: ENTROPY_FULL,
        ..CohortSpec::new(&format!("{}-{label}", arch_label(arch)), kind, arch, count)
    }
}

/// The workload's fleet: `per_cohort` devices in every cohort, boot
/// layouts drawn from `seed`.
pub fn spec(shape: Shape, seed: u64, per_cohort: u64) -> FleetSpec {
    let full = ("full", Protections::full());
    let mut cohorts = Vec::new();
    match shape {
        Shape::Aslr => {
            for arch in Arch::ALL {
                cohorts.push(cohort(FirmwareKind::OpenElec, arch, full, per_cohort));
            }
        }
        Shape::Matrix => {
            let prots = [
                ("none", Protections::none()),
                ("wxorx", Protections::wxorx()),
                full,
            ];
            for prot in prots {
                for arch in Arch::ALL {
                    cohorts.push(cohort(FirmwareKind::OpenElec, arch, prot, per_cohort));
                }
            }
            cohorts.push(cohort(FirmwareKind::Patched, Arch::Armv7, full, per_cohort));
        }
    }
    FleetSpec {
        base_seed: derive_seed(seed, 0xF1EE7),
        cohorts,
    }
}

/// The verdict every device of a cohort must get.
fn expected(cohort: &CohortSpec) -> Verdict {
    if cohort.kind.is_vulnerable() {
        Verdict::Shell
    } else {
        Verdict::Refused
    }
}

/// Devices whose verdict differs from their cohort's expected one: a
/// vulnerable cohort must be fully compromised, the patched cohort
/// refused on every device.
fn failures(spec: &FleetSpec, accums: &[CohortAccum]) -> u64 {
    spec.cohorts
        .iter()
        .zip(accums)
        .map(|(c, a)| a.devices - a.histo[expected(c) as usize])
        .sum()
}

/// One untraced `run_fleet_cfg` call.
pub struct UnitRun {
    pub report: FleetReport,
    /// Whole call, prep included.
    pub wall_s: f64,
}

impl UnitRun {
    /// Prep before the first session: firmware builds, recon, shared boots.
    pub fn setup_s(&self) -> f64 {
        (self.wall_s - self.report.elapsed.as_secs_f64()).max(0.0)
    }
}

/// Sessions per second over every unit of a run: all sessions over all
/// fan-out time.
fn sessions_per_s(units: &[UnitRun]) -> f64 {
    let sessions: u64 = units.iter().map(|u| u.report.sessions).sum();
    let secs: f64 = units.iter().map(|u| u.report.elapsed.as_secs_f64()).sum();
    sessions as f64 / secs
}

pub fn run_unit(spec: &FleetSpec) -> UnitRun {
    let t = Instant::now();
    let report = run_fleet_cfg(spec, &FleetConfig::new(1));
    UnitRun {
        report,
        wall_s: t.elapsed().as_secs_f64(),
    }
}

/// The attacker's strategy for a mitigation config, as the fleet picks it.
fn pick_strategy(arch: Arch, p: &Protections) -> Box<dyn ExploitStrategy> {
    if p.aslr.enabled {
        Box::new(RopMemcpyChain::new(arch))
    } else if p.wxorx {
        match arch {
            Arch::X86 => Box::new(Ret2Libc::new()),
            Arch::Armv7 => Box::new(ArmGadgetExeclp::new()),
            Arch::Riscv => Box::new(RiscvGadgetSystem::new()),
        }
    } else {
        Box::new(CodeInjection::new(arch))
    }
}

/// Per-cohort attack rig of the replay. Every cohort of these specs has
/// its own (kind, arch, protections) profile, so each owns its forge.
struct Rig {
    forge: BootForge,
    server: MaliciousDnsServer,
    host: Name,
    bank: Option<AnswerBank>,
}

/// Builds the rigs the way `run_fleet_cfg` preps, under `setup.*` spans.
fn rig_up(spec: &FleetSpec, tr: &mut Tracer) -> Vec<Rig> {
    let mut firmwares: Vec<((FirmwareKind, Arch), Firmware)> = Vec::new();
    let mut references: Vec<((Arch, Protections), TargetInfo)> = Vec::new();
    let mut templates = TemplateSet::new();
    let mut rigs = Vec::new();
    let mut start = 0u64;
    for c in &spec.cohorts {
        let fw_key = (c.kind, c.arch);
        if !firmwares.iter().any(|(k, _)| *k == fw_key) {
            let fw = tr.span("setup.firmware", 0, ROOT, || {
                Firmware::build(c.kind, c.arch)
            });
            firmwares.push((fw_key, fw));
        }
        let fw = &firmwares
            .iter()
            .find(|(k, _)| *k == fw_key)
            .expect("built")
            .1;
        let ref_key = (c.arch, c.protections);
        if !references.iter().any(|(k, _)| *k == ref_key) {
            let info = tr.span("setup.recon", 0, ROOT, || {
                Lab::new(FirmwareKind::OpenElec, c.arch)
                    .with_protections(c.protections)
                    .recon()
                    .expect("vulnerable replica recon succeeds")
            });
            references.push((ref_key, info));
        }
        let reference = &references
            .iter()
            .find(|(k, _)| *k == ref_key)
            .expect("recon")
            .1;
        let forge = tr.span("setup.forge_boot", 0, ROOT, || {
            SharedForge::new(fw, c.protections, derive_seed(spec.base_seed, start)).spawn()
        });
        let server = tr.span("setup.template", 0, ROOT, || {
            let strategy = pick_strategy(c.arch, &c.protections);
            let template = templates
                .get_or_compile(strategy.as_ref(), reference)
                .expect("payload template compiles against the replica");
            let labels = template
                .instantiate(&Slides::identity())
                .expect("identity relocation labelizes");
            MaliciousDnsServer::with_labels(labels, template.name())
        });
        rigs.push(Rig {
            forge,
            server,
            host: Name::parse(&format!("telemetry.{}.vendor.example", c.name))
                .expect("cohort names are label-safe"),
            bank: None,
        });
        start += c.count;
    }
    rigs
}

fn classify(outcome: &ProxyOutcome) -> Verdict {
    match outcome {
        ProxyOutcome::Compromised(_) => Verdict::Shell,
        ProxyOutcome::Crashed(_) => Verdict::Crash,
        ProxyOutcome::HijackedExit { .. } => Verdict::Exit,
        ProxyOutcome::Rejected(_) | ProxyOutcome::ParseFailed { .. } => Verdict::Refused,
        ProxyOutcome::DaemonDown => Verdict::Down,
        _ => Verdict::Served,
    }
}

/// VM counters of one cohort, summed over its sessions' deliveries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct VmCounts {
    sessions: u64,
    insns: u64,
    dcache_hits: u64,
    dcache_misses: u64,
}

/// One traced replay of a spec.
struct Replay {
    tracer: Tracer,
    accums: Vec<CohortAccum>,
    vm: Vec<VmCounts>,
    bank_hits: u64,
    bank_misses: u64,
    /// Wall time of the session loop (setup excluded).
    loop_s: f64,
    sessions: u64,
}

fn replay(spec: &FleetSpec) -> Replay {
    let mut tr = Tracer::new();
    let mut rigs = rig_up(spec, &mut tr);
    let mut accums = vec![CohortAccum::default(); spec.cohorts.len()];
    let mut vm = vec![VmCounts::default(); spec.cohorts.len()];
    let mut sid = 0u32;
    let mut device = 0u64;
    let t = Instant::now();
    for (c, cohort) in spec.cohorts.iter().enumerate() {
        let rig = &mut rigs[c];
        for i in device..device + cohort.count {
            let seed = derive_seed(spec.base_seed, i);
            let root = tr.open("session", sid, ROOT);
            let s = tr.open("forge.fork", sid, root);
            let daemon = rig.forge.fork(seed);
            tr.close(s);
            let verdict = if !daemon.is_running() {
                Verdict::Down
            } else {
                let s = tr.open("daemon.resolve", sid, root);
                let resolution = daemon.resolve(&rig.host, RecordType::A);
                tr.close(s);
                match resolution {
                    Resolution::Cached(_) => Verdict::Served,
                    Resolution::Query(query) => {
                        if rig.bank.is_none() {
                            rig.bank = tr.span("exploit.capture", sid, root, || {
                                AnswerBank::capture(&mut rig.server, &query)
                            });
                        }
                        let s = tr.open("exploit.answer", sid, root);
                        let banked = rig.bank.as_mut().and_then(|b| b.answer(&query)).is_some();
                        tr.close(s);
                        match rig.bank.as_ref().filter(|_| banked) {
                            // The bank declines only non-canonical queries,
                            // which forged boots never issue; the ratio
                            // check reports it if one ever does.
                            None => Verdict::Lost,
                            Some(bank) => {
                                let (h0, m0) = daemon.machine().decode_cache_stats();
                                let i0 = daemon.machine().insn_count();
                                let s = tr.open("daemon.deliver", sid, root);
                                let outcome = daemon.deliver_response(bank.response());
                                tr.close(s);
                                let (h1, m1) = daemon.machine().decode_cache_stats();
                                let v = &mut vm[c];
                                v.sessions += 1;
                                v.insns += daemon.machine().insn_count() - i0;
                                v.dcache_hits += h1 - h0;
                                v.dcache_misses += m1 - m0;
                                classify(&outcome)
                            }
                        }
                    }
                }
            };
            tr.close(root);
            fan_out(
                verdict,
                i..i + 1,
                spec.base_seed,
                cohort.loss_ppm,
                &mut accums[c],
            );
            sid += 1;
        }
        device += cohort.count;
    }
    let loop_s = t.elapsed().as_secs_f64();
    let (bank_hits, bank_misses) = rigs
        .iter()
        .filter_map(|r| r.bank.as_ref())
        .fold((0, 0), |(h, m), b| (h + b.hits(), m + b.misses()));
    Replay {
        tracer: tr,
        accums,
        vm,
        bank_hits,
        bank_misses,
        loop_s,
        sessions: u64::from(sid),
    }
}

/// Per-layer metrics of one replay (timings are medianed across replays
/// by the caller).
fn replay_metrics(spec: &FleetSpec, r: &Replay) -> Vec<Metric> {
    let stats = trace::by_name(r.tracer.spans());
    let get = |name: &str| stats.get(name).cloned().unwrap_or_default();
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    let fork = get("forge.fork");
    put("forge.fork_s", fork.self_s(), "s");
    put("forge.fork_us_p50", fork.pct_us(50.0), "us");
    put("forge.fork_us_p99", fork.pct_us(99.0), "us");
    let resolve = get("daemon.resolve");
    put("daemon.resolve_s", resolve.self_s(), "s");
    put("daemon.resolve_us_p50", resolve.pct_us(50.0), "us");
    put(
        "exploit.answer_s",
        get("exploit.answer").self_s() + get("exploit.capture").self_s(),
        "s",
    );
    let deliver = get("daemon.deliver");
    put("daemon.deliver_s", deliver.self_s(), "s");
    put("daemon.deliver_us_p50", deliver.pct_us(50.0), "us");
    put("daemon.deliver_us_p99", deliver.pct_us(99.0), "us");
    let session = get("session");
    put("session_us_p50", session.pct_us(50.0), "us");
    put("session_us_p99", session.pct_us(99.0), "us");
    put("setup.firmware_s", get("setup.firmware").self_s(), "s");
    put("setup.recon_s", get("setup.recon").self_s(), "s");
    put("setup.forge_boot_s", get("setup.forge_boot").self_s(), "s");
    put("setup.template_s", get("setup.template").self_s(), "s");
    let layer_s = trace::layer_self_ns(&stats) as f64 / 1e9;
    put("trace.span_coverage", layer_s / r.loop_s, "ratio");

    // Per-cell delivery latency: session ids run cohort by cohort.
    let mut first = 0u64;
    let mut per_cell = vec![Vec::new(); spec.cohorts.len()];
    let bounds: Vec<u64> = spec
        .cohorts
        .iter()
        .map(|c| {
            first += c.count;
            first
        })
        .collect();
    for s in r
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "daemon.deliver")
    {
        let c = bounds.partition_point(|&end| end <= u64::from(s.id));
        per_cell[c].push(s.dur_ns());
    }
    for (c, mut durations) in spec.cohorts.iter().zip(per_cell) {
        durations.sort_unstable();
        put(
            &format!("cell.{}.deliver_us_p50", c.name),
            trace::percentile(&durations, 50.0) as f64 / 1e3,
            "us",
        );
    }
    m
}

/// Deterministic VM and bank counts of one replay.
fn count_metrics(spec: &FleetSpec, r: &Replay) -> Vec<Metric> {
    let total = r.vm.iter().fold(VmCounts::default(), |a, v| VmCounts {
        sessions: a.sessions + v.sessions,
        insns: a.insns + v.insns,
        dcache_hits: a.dcache_hits + v.dcache_hits,
        dcache_misses: a.dcache_misses + v.dcache_misses,
    });
    let mut m = vec![
        (
            "vm.insns_per_session".to_string(),
            ratio(total.insns, total.sessions),
            "count",
        ),
        (
            "vm.dcache_misses_per_session".to_string(),
            ratio(total.dcache_misses, total.sessions),
            "count",
        ),
        (
            "vm.dcache_hit_ratio".to_string(),
            ratio(total.dcache_hits, total.dcache_hits + total.dcache_misses),
            "ratio",
        ),
        (
            "exploit.bank_hit_ratio".to_string(),
            ratio(r.bank_hits, r.bank_hits + r.bank_misses),
            "ratio",
        ),
    ];
    for (c, v) in spec.cohorts.iter().zip(&r.vm) {
        m.push((
            format!("cell.{}.dcache_misses_per_session", c.name),
            ratio(v.dcache_misses, v.sessions),
            "count",
        ));
    }
    m
}

/// Untraced run: `run_fleet_cfg` repeated for `seconds`.
pub fn run_untraced(spec: &FleetSpec, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let run = repeat(seconds, || run_unit(spec));
    check_units(spec, &run.units, &mut out);
    put_rates(&run.units, run.speed, &mut out);
    out
}

fn put_rates(units: &[UnitRun], speed: f64, out: &mut Outcome) {
    let setups: Vec<f64> = units.iter().map(UnitRun::setup_s).collect();
    out.put_rates(sessions_per_s(units), median(&setups), speed);
}

/// Correctness of the untraced units: every device gets its cohort's
/// verdict, and every repeat renders byte-identically to the first.
fn check_units(spec: &FleetSpec, units: &[UnitRun], out: &mut Outcome) {
    let first = units[0].report.render();
    for u in units {
        out.attempted += u.report.devices;
        let accums: Vec<CohortAccum> = u.report.cohorts.iter().map(|c| c.accum).collect();
        out.failed += failures(spec, &accums);
        out.check(u.report.render() == first, || {
            "fleet render differs between repeats of one spec".to_string()
        });
    }
}

/// Traced run: untraced units alternate with traced replays of the same
/// spec, so both see the same machine conditions.
pub fn run_traced(spec: &FleetSpec, seconds: f64) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let mut replays = Replays::default();
    let run = repeat(seconds, || {
        let unit = run_unit(spec);
        let r = replay(spec);
        let accums: Vec<CohortAccum> = unit.report.cohorts.iter().map(|c| c.accum).collect();
        out.check(r.accums == accums, || {
            "traced replay's verdict histograms differ from run_fleet_cfg".to_string()
        });
        out.check(r.bank_misses == 0, || {
            "answer bank declined a query".to_string()
        });
        let (counts, timings) = (count_metrics(spec, &r), replay_metrics(spec, &r));
        replays.add(counts, timings, r.tracer, (r.sessions, r.loop_s), &mut out);
        unit
    });
    check_units(spec, &run.units, &mut out);
    let phase = |f: fn(&FleetReport) -> f64| {
        median(&run.units.iter().map(|u| f(&u.report)).collect::<Vec<_>>())
    };
    out.put("fleet.phase_forge_s", phase(|r| r.phases.forge_secs), "s");
    out.put(
        "fleet.phase_deliver_s",
        phase(|r| r.phases.deliver_secs),
        "s",
    );
    out.put("fleet.phase_vm_s", phase(|r| r.phases.vm_secs), "s");
    put_rates(&run.units, run.speed, &mut out);
    let tracer = replays.finish(sessions_per_s(&run.units), &mut out);
    (out, tracer)
}
