//! Fleet-scale rogue-AP scenario: cohorts of devices, one attacker,
//! `--jobs` workers, bounded memory at any fleet size.
//!
//! The paper closes with "exploit code designed to create a botnet" —
//! `tests/fleet.rs` walks a 7-device version of that story on a shared
//! radio environment. This module is the *population* version: a
//! campaign is described by a handful of [`CohortSpec`] descriptors
//! (firmware version, CPU, mitigation config, packet-loss profile,
//! boot-entropy model, device count), never by a materialized
//! per-device list, so a million-device fleet costs the same to
//! describe as a ten-device one.
//!
//! # Scaling architecture
//!
//! * **Shared copy-on-write boots.** Each firmware/protection profile
//!   is booted **once** into a [`SharedForge`]; every worker spawns a
//!   private [`BootForge`] whose snapshot pages ride along by `Arc`
//!   refcount and whose dirty sets are its own. Memory is
//!   O(workers × profiles), not O(workers × profiles × boots).
//! * **Class-level sessions.** Embedded devices are notorious for
//!   boot-time entropy starvation: a cohort's
//!   [`entropy_bits`](CohortSpec::entropy_bits) bounds how many
//!   distinct ASLR draws its population actually exhibits (default
//!   [`DEFAULT_COHORT_ENTROPY_BITS`], i.e. 4096 layouts; use
//!   [`ENTROPY_FULL`] for per-device unique layouts). Devices are
//!   partitioned into contiguous *address classes* sharing one boot
//!   layout; the attack session (fork → lookup → forged answer → VM
//!   run) executes once per class and its verdict fans out to every
//!   device of the class.
//! * **Batched answer fan-out.** A forked victim's first lookup is a
//!   pure function of its snapshot, so one [`AnswerBank`] per cohort
//!   captures the relocated exploit response once; every further class
//!   of the cohort is answered by a byte-compare and a borrow
//!   ([`fan_out`] is allocation-free, see `tests/zero_alloc.rs`).
//! * **Streaming reports.** Workers fold verdicts into per-cohort
//!   integer accumulators ([`CohortAccum`]) per chunk; chunk partials
//!   merge commutatively, so the report stays O(cohorts) and
//!   [`FleetReport::render`] is byte-identical at any `--jobs`.
//!
//! Determinism: the class containing device `i` boots with
//! [`derive_seed`]`(base_seed, first_device_of_class)` and per-device
//! packet-loss draws are a pure function of `(base_seed, i)`, so every
//! aggregate is independent of worker count and chunk boundaries.

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cml_connman::{ProxyOutcome, Resolution};
use cml_dns::{BufPool, Label, Name, RecordType};
use cml_exploit::{
    AnswerBank, ArmGadgetExeclp, CodeInjection, ExploitStrategy, MaliciousDnsServer, Ret2Libc,
    RiscvGadgetSystem, RopMemcpyChain, Slides, TargetInfo, TemplateSet,
};
use cml_firmware::{Arch, BootForge, Firmware, FirmwareKind, Protections, SharedForge};
use cml_netsim::ResolverCache;

use crate::lab::Lab;
use crate::runner::{derive_seed, Runner};

/// Default per-cohort boot-entropy model: 2¹² = 4096 distinct ASLR
/// layouts per cohort, the "entropy-starved embedded boot" regime the
/// IoT literature documents. Raise to [`ENTROPY_FULL`] for per-device
/// unique layouts.
pub const DEFAULT_COHORT_ENTROPY_BITS: u8 = 12;

/// Sentinel entropy: every device draws its own boot layout (the
/// pre-cohort behavior, and the honest setting for benchmarking
/// per-device session cost).
pub const ENTROPY_FULL: u8 = 63;

/// Largest fleet [`run_fleet_cfg`] accepts, in devices: at the
/// automatic chunk size's 16,384-device cap the chunk runner then holds
/// at most 262,144 chunk partials.
pub const MAX_FLEET_DEVICES: u64 = 1 << 32;

/// Salt mixed into per-device packet-loss draws so they decorrelate
/// from the boot-seed stream.
const LOSS_SALT: u64 = 0x4C4F_5353; // "LOSS"

/// One cohort: a contiguous block of identically-provisioned devices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CohortSpec {
    /// Cohort name (used in reports and as the DNS label the cohort's
    /// telemetry hostname carries).
    pub name: String,
    /// Firmware profile the cohort ships.
    pub kind: FirmwareKind,
    /// Its CPU.
    pub arch: Arch,
    /// Mitigation configuration its vendor enabled.
    pub protections: Protections,
    /// Devices in the cohort.
    pub count: u64,
    /// Packet-loss probability of the cohort's radio environment, in
    /// parts per million (responses lost in flight; a lost response
    /// leaves the device alive and uncompromised).
    pub loss_ppm: u32,
    /// Boot-entropy model: the cohort exhibits at most
    /// `2^entropy_bits` distinct boot layouts (≥ 63 means every device
    /// draws its own).
    pub entropy_bits: u8,
}

impl CohortSpec {
    /// A cohort with no packet loss and the default entropy model.
    pub fn new(name: &str, kind: FirmwareKind, arch: Arch, count: u64) -> CohortSpec {
        CohortSpec {
            name: name.to_string(),
            kind,
            arch,
            protections: Protections::full(),
            count,
            loss_ppm: 0,
            entropy_bits: DEFAULT_COHORT_ENTROPY_BITS,
        }
    }

    /// Distinct boot layouts the cohort's population draws.
    pub fn classes(&self) -> u64 {
        if self.entropy_bits >= ENTROPY_FULL || self.count == 0 {
            return self.count;
        }
        self.count.min(1u64 << self.entropy_bits)
    }

    /// Devices per address class (the last class may be shorter).
    pub fn run_len(&self) -> u64 {
        let classes = self.classes().max(1);
        self.count.div_ceil(classes).max(1)
    }

    /// Parses a comma-separated cohort list:
    /// `name=kind/arch/prot/count[/loss=P%|PPM][/entropy=BITS|full]`
    /// (`entropy=full` is [`ENTROPY_FULL`]), e.g.
    /// `tv=openelec/armv7/full/400000,cam=patched/armv7/full/100`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field: a
    /// name that is not one DNS label, an unknown firmware, arch or
    /// protection, a loss that is not a number within 0–100% (or
    /// 0–1,000,000 ppm), or a device count that takes the fleet past
    /// [`MAX_FLEET_DEVICES`].
    pub fn parse_list(s: &str) -> Result<Vec<CohortSpec>, String> {
        let mut out = Vec::new();
        let mut total = 0u64;
        for (idx, part) in s.split(',').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, rest) = part
                .split_once('=')
                .ok_or_else(|| format!("cohort {idx}: expected name=..., got {part:?}"))?;
            // The name becomes a label of the cohort's telemetry host.
            Label::new(name).map_err(|e| format!("cohort {idx}: bad name {name:?}: {e}"))?;
            let mut fields = rest.split('/');
            let kind = match fields.next() {
                Some("openelec") => FirmwareKind::OpenElec,
                Some("yocto") => FirmwareKind::Yocto,
                Some("tizen") => FirmwareKind::Tizen,
                Some("patched") => FirmwareKind::Patched,
                other => return Err(format!("cohort {name}: unknown firmware {other:?}")),
            };
            let arch = match fields.next() {
                Some("x86") => Arch::X86,
                Some("arm") | Some("armv7") => Arch::Armv7,
                Some("riscv") | Some("rv32") => Arch::Riscv,
                other => return Err(format!("cohort {name}: unknown arch {other:?}")),
            };
            let protections = match fields.next() {
                Some("none") => Protections::none(),
                Some("wxorx") => Protections::wxorx(),
                Some("full") => Protections::full(),
                Some("canary") => Protections::full().with_canary(),
                Some("cfi") => Protections::full().with_cfi(),
                Some("pie") => Protections::full().with_pie(),
                other => return Err(format!("cohort {name}: unknown protections {other:?}")),
            };
            let count: u64 = fields
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("cohort {name}: bad device count"))?;
            total = total
                .checked_add(count)
                .filter(|&t| t <= MAX_FLEET_DEVICES)
                .ok_or_else(|| {
                    format!(
                        "cohort {name}: device count {count} takes the fleet past \
                         {MAX_FLEET_DEVICES} devices"
                    )
                })?;
            let mut spec = CohortSpec {
                name: name.to_string(),
                kind,
                arch,
                protections,
                count,
                loss_ppm: 0,
                entropy_bits: DEFAULT_COHORT_ENTROPY_BITS,
            };
            for extra in fields {
                if let Some(v) = extra.strip_prefix("loss=") {
                    let bad = || format!("cohort {name}: bad loss {v:?} (0-100% or 0-1000000 ppm)");
                    let ppm = if let Some(pct) = v.strip_suffix('%') {
                        let pct: f64 = pct.parse().map_err(|_| bad())?;
                        if !(0.0..=100.0).contains(&pct) {
                            return Err(bad());
                        }
                        (pct * 10_000.0).round() as u32
                    } else {
                        v.parse().map_err(|_| bad())?
                    };
                    if ppm > 1_000_000 {
                        return Err(bad());
                    }
                    spec.loss_ppm = ppm;
                } else if let Some(v) = extra.strip_prefix("entropy=") {
                    spec.entropy_bits = match v {
                        "full" => ENTROPY_FULL,
                        bits => bits
                            .parse()
                            .map_err(|_| format!("cohort {name}: bad entropy {v:?}"))?,
                    };
                } else {
                    return Err(format!("cohort {name}: unknown field {extra:?}"));
                }
            }
            out.push(spec);
        }
        if out.is_empty() {
            return Err("no cohorts given".to_string());
        }
        Ok(out)
    }
}

/// A parameterized fleet: a base seed plus cohort descriptors. Device
/// membership is *computed*, never materialized — the spec for 10⁶
/// devices is a few hundred bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Base seed; the class containing device `i` boots with
    /// `derive_seed(base_seed, first_device_of_class)`.
    pub base_seed: u64,
    /// The cohorts, in fleet order (cohort `c` occupies the device
    /// index range `[starts[c], starts[c] + counts[c])`).
    pub cohorts: Vec<CohortSpec>,
}

impl FleetSpec {
    /// Total devices across cohorts.
    pub fn devices(&self) -> u64 {
        self.cohorts.iter().map(|c| c.count).sum()
    }

    /// A single-cohort fleet: `n` smart-TVs (OpenELEC 1.34 / ARMv7,
    /// full W⊕X+ASLR) — the homogeneous headline scenario.
    pub fn homogeneous(n: u64, base_seed: u64) -> FleetSpec {
        FleetSpec {
            base_seed,
            cohorts: vec![CohortSpec::new(
                "tv",
                FirmwareKind::OpenElec,
                Arch::Armv7,
                n,
            )],
        }
    }

    /// A heterogeneous fleet of `n` devices in four cohorts mirroring
    /// the paper's survey mix — 40% smart-TV (OpenELEC/ARMv7, full
    /// mitigations), 30% thermostat (Yocto/x86, W⊕X only), 20% set-top
    /// (Tizen/ARMv7, full, on a lossy 2% link), 10% patched camera
    /// (Connman 1.35) — so firmware versions, mitigation configs and
    /// packet-loss profiles all vary across the population.
    pub fn heterogeneous(n: u64, base_seed: u64) -> FleetSpec {
        let tv = n * 4 / 10;
        let thermo = n * 3 / 10;
        let settop = n * 2 / 10;
        let cam = n - tv - thermo - settop;
        let mut cohorts = vec![
            CohortSpec::new("tv", FirmwareKind::OpenElec, Arch::Armv7, tv),
            CohortSpec {
                protections: Protections::wxorx(),
                ..CohortSpec::new("thermostat", FirmwareKind::Yocto, Arch::X86, thermo)
            },
            CohortSpec {
                loss_ppm: 20_000,
                ..CohortSpec::new("settop", FirmwareKind::Tizen, Arch::Armv7, settop)
            },
            CohortSpec::new("camera", FirmwareKind::Patched, Arch::Armv7, cam),
        ];
        cohorts.retain(|c| c.count > 0);
        FleetSpec { base_seed, cohorts }
    }

    /// Device-index range of cohort `c`.
    fn cohort_range(&self, c: usize) -> Range<u64> {
        let start: u64 = self.cohorts[..c].iter().map(|x| x.count).sum();
        start..start + self.cohorts[c].count
    }
}

/// What one attack session (or its absence) did to a device. The
/// buckets form the per-cohort fault histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Verdict {
    /// Arbitrary code executed and spawned a root shell.
    Shell = 0,
    /// The daemon crashed (denial of service).
    Crash = 1,
    /// Hijacked execution ended in a clean exit.
    Exit = 2,
    /// The response was rejected (header gate or parse, including the
    /// patched 1.35 bounds check); the daemon keeps serving.
    Refused = 3,
    /// The response was accepted and served benignly.
    Served = 4,
    /// The daemon was already down before the attack round.
    Down = 5,
    /// The forged response was lost in flight; the device was never
    /// attacked this round.
    Lost = 6,
}

impl Verdict {
    /// Number of buckets.
    pub const COUNT: usize = 7;

    /// All verdicts, histogram order.
    pub const ALL: [Verdict; Verdict::COUNT] = [
        Verdict::Shell,
        Verdict::Crash,
        Verdict::Exit,
        Verdict::Refused,
        Verdict::Served,
        Verdict::Down,
        Verdict::Lost,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Shell => "shell",
            Verdict::Crash => "crash",
            Verdict::Exit => "exit",
            Verdict::Refused => "refused",
            Verdict::Served => "served",
            Verdict::Down => "down",
            Verdict::Lost => "lost",
        }
    }

    /// Whether the daemon still serves after this verdict.
    pub fn alive(self) -> bool {
        matches!(self, Verdict::Refused | Verdict::Served | Verdict::Lost)
    }

    /// Whether the attacker got a root shell.
    pub fn compromised(self) -> bool {
        self == Verdict::Shell
    }

    fn classify(outcome: &ProxyOutcome) -> Verdict {
        match outcome {
            ProxyOutcome::Compromised(_) => Verdict::Shell,
            ProxyOutcome::Crashed(_) => Verdict::Crash,
            ProxyOutcome::HijackedExit { .. } => Verdict::Exit,
            ProxyOutcome::Rejected(_) | ProxyOutcome::ParseFailed { .. } => Verdict::Refused,
            ProxyOutcome::Answered { .. } => Verdict::Served,
            ProxyOutcome::DaemonDown => Verdict::Down,
            // `ProxyOutcome` is non-exhaustive; a future outcome that
            // doesn't kill the daemon reads as a benign serve.
            _ => Verdict::Served,
        }
    }
}

/// Streaming per-cohort accumulator: everything the report needs, in
/// integers, so chunk partials merge commutatively and the rendered
/// output cannot depend on worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CohortAccum {
    /// Devices folded in.
    pub devices: u64,
    /// Devices with a root shell.
    pub compromised: u64,
    /// Devices whose daemon still serves.
    pub alive: u64,
    /// Devices whose forged response was lost in flight.
    pub lost: u64,
    /// Fault histogram over [`Verdict::ALL`].
    pub histo: [u64; Verdict::COUNT],
}

impl CohortAccum {
    /// Folds `n` devices sharing `verdict` into the accumulator.
    pub fn fold(&mut self, verdict: Verdict, n: u64) {
        self.devices += n;
        if verdict.compromised() {
            self.compromised += n;
        }
        if verdict.alive() {
            self.alive += n;
        }
        if verdict == Verdict::Lost {
            self.lost += n;
        }
        self.histo[verdict as usize] += n;
    }

    /// Merges another accumulator (commutative, associative).
    pub fn merge(&mut self, other: &CohortAccum) {
        self.devices += other.devices;
        self.compromised += other.compromised;
        self.alive += other.alive;
        self.lost += other.lost;
        for (a, b) in self.histo.iter_mut().zip(other.histo.iter()) {
            *a += b;
        }
    }
}

/// Whether device `i`'s forged response is lost in flight — a pure
/// function of `(base_seed, i)`, independent of scheduling.
#[inline]
fn response_lost(base_seed: u64, i: u64, loss_ppm: u32) -> bool {
    loss_ppm != 0 && derive_seed(base_seed ^ LOSS_SALT, i) % 1_000_000 < loss_ppm as u64
}

/// The batched answer fan-out: applies one class session's `verdict`
/// to every device in `range`, drawing each device's packet-loss fate
/// from `(base_seed, index)`. This is the entire per-device cost of
/// the streamed fleet path; it performs **zero heap allocations**
/// (`tests/zero_alloc.rs` pins that under a counting allocator).
pub fn fan_out(
    verdict: Verdict,
    range: Range<u64>,
    base_seed: u64,
    loss_ppm: u32,
    acc: &mut CohortAccum,
) {
    if loss_ppm == 0 {
        acc.fold(verdict, range.end.saturating_sub(range.start));
        return;
    }
    for i in range {
        if response_lost(base_seed, i, loss_ppm) {
            acc.fold(Verdict::Lost, 1);
        } else {
            acc.fold(verdict, 1);
        }
    }
}

/// Cumulative per-phase wall time across all sessions of a fleet run
/// (summed over workers, so the phases can exceed the run's wall
/// clock when `jobs > 1`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Forking (or booting) the victim daemon.
    pub forge_secs: f64,
    /// Resolving through the proxy and obtaining the forged response
    /// (answer bank or poisoned upstream cache).
    pub deliver_secs: f64,
    /// Executing the delivered payload in the victim VM.
    pub vm_secs: f64,
}

/// One cohort's merged results.
#[derive(Debug, Clone)]
pub struct CohortReport {
    /// The cohort description.
    pub spec: CohortSpec,
    /// Its merged accumulator.
    pub accum: CohortAccum,
}

/// The merged result of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Total devices attacked (or lost) this run.
    pub devices: u64,
    /// Per-cohort results, in fleet order.
    pub cohorts: Vec<CohortReport>,
    /// Wall-clock time of the attack fan-out (excludes the shared
    /// firmware/recon prep).
    pub elapsed: Duration,
    /// Worker count used.
    pub jobs: usize,
    /// Where the session time went, summed across workers.
    pub phases: PhaseTimings,
    /// Distinct VM attack sessions executed (≤ devices; chunk
    /// boundaries may replay a class, so this can vary with `--jobs`
    /// and is excluded from [`FleetReport::render`]).
    pub sessions: u64,
}

impl FleetReport {
    /// Number of devices with a root shell.
    pub fn compromised(&self) -> usize {
        self.cohorts
            .iter()
            .map(|c| c.accum.compromised)
            .sum::<u64>() as usize
    }

    /// Number of devices still serving.
    pub fn survivors(&self) -> usize {
        self.cohorts.iter().map(|c| c.accum.alive).sum::<u64>() as usize
    }

    /// Devices attacked per second of wall time.
    pub fn devices_per_sec(&self) -> f64 {
        self.devices as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Deterministic rendering — integer-derived and ordered by cohort,
    /// so serial and parallel runs of the same [`FleetSpec`] produce
    /// identical bytes, including the per-cohort sections.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fleet: {} devices, {} compromised, {} survivors\n",
            self.devices,
            self.compromised(),
            self.survivors()
        );
        out.push_str(&format!(
            "{:<12} {:<18} {:<6} {:<7} {:>9} {:>9} {:>8} {:>9} {:>7}\n",
            "cohort", "firmware", "arch", "prot", "devices", "shell", "rate", "alive", "lost"
        ));
        for c in &self.cohorts {
            let a = &c.accum;
            let rate = if a.devices == 0 {
                0.0
            } else {
                a.compromised as f64 * 100.0 / a.devices as f64
            };
            out.push_str(&format!(
                "{:<12} {:<18} {:<6} {:<7} {:>9} {:>9} {:>7.2}% {:>9} {:>7}\n",
                c.spec.name,
                format!(
                    "{} {}",
                    c.spec.kind.os_name(),
                    c.spec.kind.connman_version()
                ),
                c.spec.arch.to_string(),
                prot_label(&c.spec.protections),
                a.devices,
                a.compromised,
                rate,
                a.alive,
                a.lost
            ));
            let crash = a.histo[Verdict::Crash as usize];
            let exit = a.histo[Verdict::Exit as usize];
            let down = a.histo[Verdict::Down as usize];
            if crash + exit + down > 0 {
                out.push_str(&format!(
                    "  faults[{}]: crash={crash} exit={exit} down={down}\n",
                    c.spec.name
                ));
            }
        }
        out
    }

    /// The per-cohort table as a markdown [`crate::report::Table`]
    /// (used to regenerate EXPERIMENTS.md).
    pub fn to_table(&self, id: &str, title: &str) -> crate::report::Table {
        let mut t = crate::report::Table::new(
            id,
            title,
            &[
                "cohort",
                "firmware",
                "arch",
                "protections",
                "devices",
                "compromised",
                "rate",
                "alive",
                "lost",
            ],
        );
        for c in &self.cohorts {
            let a = &c.accum;
            let rate = if a.devices == 0 {
                0.0
            } else {
                a.compromised as f64 * 100.0 / a.devices as f64
            };
            t.row([
                c.spec.name.clone(),
                format!(
                    "{} {}",
                    c.spec.kind.os_name(),
                    c.spec.kind.connman_version()
                ),
                c.spec.arch.to_string(),
                prot_label(&c.spec.protections).to_string(),
                a.devices.to_string(),
                a.compromised.to_string(),
                format!("{rate:.2}%"),
                a.alive.to_string(),
                a.lost.to_string(),
            ]);
        }
        t
    }
}

/// Human label for the known protection configurations.
fn prot_label(p: &Protections) -> &'static str {
    match (p.wxorx, p.aslr.enabled, p.stack_canary, p.cfi, p.pie) {
        (false, false, false, false, false) => "none",
        (true, false, false, false, false) => "wxorx",
        (true, true, false, false, false) => "full",
        (true, true, true, false, false) => "canary",
        (true, true, false, true, false) => "cfi",
        (true, true, false, false, true) => "pie",
        _ => "custom",
    }
}

/// Progress callback: `(devices done so far, seconds elapsed)`. Called
/// from worker threads after each chunk.
pub type ProgressFn = Arc<dyn Fn(u64, f64) + Send + Sync>;

/// Knobs of a fleet run. The defaults are the fast path.
#[derive(Clone, Default)]
pub struct FleetConfig {
    /// Worker threads (0 = one per CPU).
    pub jobs: usize,
    /// Boot every session's daemon from scratch instead of forking the
    /// shared copy-on-write boot snapshot (`--fresh-boot`; the semantic
    /// reference fork equivalence is checked against).
    pub no_snapshot: bool,
    /// Route each cohort's queries through a shared upstream
    /// [`ResolverCache`] that the attacker poisons **once** (the XDRI
    /// upstream-compromise topology): the malicious server crafts one
    /// response per worker × cohort, and every further session is a
    /// cache-hit replay with no per-device malicious delivery. The
    /// report renders byte-identically to the direct path.
    pub resolver: bool,
    /// Scheduling chunk size in devices (0 = auto).
    pub chunk: u64,
    /// Progress callback for `--stream`.
    pub progress: Option<ProgressFn>,
}

impl std::fmt::Debug for FleetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetConfig")
            .field("jobs", &self.jobs)
            .field("no_snapshot", &self.no_snapshot)
            .field("resolver", &self.resolver)
            .field("chunk", &self.chunk)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl FleetConfig {
    /// The fast path on `jobs` workers.
    pub fn new(jobs: usize) -> FleetConfig {
        FleetConfig {
            jobs,
            ..FleetConfig::default()
        }
    }
}

/// Runs the rogue-AP attack against every device in the spec on `jobs`
/// workers (0 = one per CPU), on the default fast path.
///
/// # Panics
///
/// Panics if reconnaissance or payload-template construction fails for
/// a profile present in the spec — the fleet scenario is only
/// meaningful with working exploits.
pub fn run_fleet(spec: &FleetSpec, jobs: usize) -> FleetReport {
    run_fleet_cfg(spec, &FleetConfig::new(jobs))
}

/// [`run_fleet`] with an explicit boot path: when `snapshot` is false,
/// every session boots its daemon from scratch instead of forking a
/// snapshot. The report renders byte-identically either way.
pub fn run_fleet_with(spec: &FleetSpec, jobs: usize, snapshot: bool) -> FleetReport {
    run_fleet_cfg(
        spec,
        &FleetConfig {
            jobs,
            no_snapshot: !snapshot,
            ..FleetConfig::default()
        },
    )
}

/// Profile key: firmware kind + arch + protection bits, used to index
/// worker forges and shared boots in O(1).
fn profile_key(kind: FirmwareKind, arch: Arch, p: &Protections) -> u64 {
    let kind_idx = FirmwareKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("known kind") as u64;
    let arch_idx = Arch::ALL
        .iter()
        .position(|a| *a == arch)
        .expect("known arch") as u64;
    (kind_idx << 40) | (arch_idx << 32) | prot_key(p)
}

/// Reference key: arch + protection bits (recon is kind-independent —
/// the attacker probes their own vulnerable replica).
fn reference_key(arch: Arch, p: &Protections) -> u64 {
    let arch_idx = Arch::ALL
        .iter()
        .position(|a| *a == arch)
        .expect("known arch") as u64;
    (arch_idx << 32) | prot_key(p)
}

fn prot_key(p: &Protections) -> u64 {
    (p.wxorx as u64)
        | (p.aslr.enabled as u64) << 1
        | (p.stack_canary as u64) << 2
        | (p.cfi as u64) << 3
        | (p.pie as u64) << 4
        | (p.aslr.entropy_bits as u64) << 8
}

/// The attacker's exploitation strategy for a mitigation config —
/// mirrors `cml --strategy auto`.
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

/// Immutable run context shared by every worker.
struct FleetCtx<'a> {
    spec: &'a FleetSpec,
    cfg: &'a FleetConfig,
    run_gen: u64,
    started: Instant,
    done: AtomicU64,
    /// Cohort start indices (parallel to `spec.cohorts`).
    starts: Vec<u64>,
    /// One firmware build per distinct (kind, arch).
    firmwares: HashMap<u64, Firmware>,
    /// One shared boot per distinct (kind, arch, protections).
    shared: HashMap<u64, SharedForge>,
    /// One recon per distinct (arch, protections).
    references: HashMap<u64, TargetInfo>,
}

impl FleetCtx<'_> {
    /// Cohort containing global device index `i`.
    fn locate(&self, i: u64) -> usize {
        match self.starts.binary_search(&i) {
            Ok(c) => c,
            Err(c) => c - 1,
        }
    }
}

/// Per-cohort worker state: the malicious resolver (armed with the
/// cohort's strategy), its captured answer bank, and the cohort's
/// telemetry hostname.
struct CohortState {
    host: Name,
    server: MaliciousDnsServer,
    bank: Option<AnswerBank>,
    /// The cohort's shared upstream resolver cache, poisoned once on
    /// first use ([`FleetConfig::resolver`] topology).
    upstream: Option<ResolverCache>,
}

/// Per-worker persistent attack state: built on the worker's first
/// chunk of a run, reused for every later one.
struct Worker {
    /// Which run this state belongs to; a stale generation (a previous
    /// run on the same thread) rebuilds.
    run_gen: u64,
    /// Boot-once/fork-many victims, **indexed by profile key** (O(1),
    /// replacing the linear scan the Vec-keyed version paid per fork).
    forges: HashMap<u64, BootForge>,
    /// Per-cohort attacker state, indexed by cohort position.
    cohorts: Vec<Option<CohortState>>,
    /// Compiled payload templates, keyed by (strategy, arch).
    templates: TemplateSet,
    /// Warm DNS round-trip buffers.
    pool: BufPool,
}

thread_local! {
    static WORKER: RefCell<Option<Worker>> = const { RefCell::new(None) };
}

/// Distinguishes runs so a worker thread surviving across calls (the
/// `jobs == 1` path runs on the caller) never reuses another run's
/// forges or servers.
static RUN_GEN: AtomicU64 = AtomicU64::new(0);

/// One chunk's partial result.
struct ChunkPartial {
    accums: Vec<CohortAccum>,
    phases: PhaseTimings,
    sessions: u64,
}

/// Runs a fleet under an explicit [`FleetConfig`].
///
/// # Panics
///
/// Panics if reconnaissance or payload-template construction fails for
/// a profile present in the spec (see [`run_fleet`]), or if the cohorts
/// hold more than [`MAX_FLEET_DEVICES`] devices in total.
pub fn run_fleet_cfg(spec: &FleetSpec, cfg: &FleetConfig) -> FleetReport {
    let mut starts = Vec::with_capacity(spec.cohorts.len());
    let mut acc = 0u64;
    for c in &spec.cohorts {
        starts.push(acc);
        acc = acc
            .checked_add(c.count)
            .filter(|&t| t <= MAX_FLEET_DEVICES)
            .unwrap_or_else(|| panic!("fleet exceeds {MAX_FLEET_DEVICES} devices"));
    }
    let total = acc;

    // Attacker prep, once and serially: one recon per (arch,
    // protections), one firmware build per (kind, arch), one shared
    // copy-on-write boot per (kind, arch, protections).
    let mut firmwares: HashMap<u64, Firmware> = HashMap::new();
    let mut references: HashMap<u64, TargetInfo> = HashMap::new();
    let mut shared: HashMap<u64, SharedForge> = HashMap::new();
    for (c, cohort) in spec.cohorts.iter().enumerate() {
        if cohort.count == 0 {
            continue;
        }
        let fw_key = profile_key(cohort.kind, cohort.arch, &Protections::none());
        firmwares
            .entry(fw_key)
            .or_insert_with(|| Firmware::build(cohort.kind, cohort.arch));
        let ref_key = reference_key(cohort.arch, &cohort.protections);
        references.entry(ref_key).or_insert_with(|| {
            Lab::new(FirmwareKind::OpenElec, cohort.arch)
                .with_protections(cohort.protections)
                .recon()
                .expect("vulnerable replica recon succeeds")
        });
        if !cfg.no_snapshot {
            let forge_key = profile_key(cohort.kind, cohort.arch, &cohort.protections);
            let seed = derive_seed(spec.base_seed, starts[c]);
            let fw = &firmwares[&fw_key];
            shared
                .entry(forge_key)
                .or_insert_with(|| SharedForge::new(fw, cohort.protections, seed));
        }
    }

    let run_gen = RUN_GEN.fetch_add(1, Ordering::Relaxed) + 1;
    let runner = Runner::new(cfg.jobs);
    let chunk = if cfg.chunk > 0 {
        cfg.chunk
    } else {
        (total.div_ceil(runner.jobs() as u64 * 8)).clamp(64, 16_384)
    };
    let ctx = FleetCtx {
        spec,
        cfg,
        run_gen,
        started: Instant::now(),
        done: AtomicU64::new(0),
        starts,
        firmwares,
        shared,
        references,
    };

    let partials = runner.run_chunks(total, chunk, |range| process_chunk(&ctx, range));

    let mut accums = vec![CohortAccum::default(); spec.cohorts.len()];
    let mut phases = PhaseTimings::default();
    let mut sessions = 0u64;
    for p in &partials {
        for (a, b) in accums.iter_mut().zip(p.accums.iter()) {
            a.merge(b);
        }
        phases.forge_secs += p.phases.forge_secs;
        phases.deliver_secs += p.phases.deliver_secs;
        phases.vm_secs += p.phases.vm_secs;
        sessions += p.sessions;
    }
    FleetReport {
        devices: total,
        cohorts: spec
            .cohorts
            .iter()
            .zip(accums)
            .map(|(spec, accum)| CohortReport {
                spec: spec.clone(),
                accum,
            })
            .collect(),
        elapsed: ctx.started.elapsed(),
        jobs: runner.jobs(),
        phases,
        sessions,
    }
}

/// Processes one contiguous device-index chunk on the calling worker.
fn process_chunk(ctx: &FleetCtx<'_>, range: Range<u64>) -> ChunkPartial {
    WORKER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let worker = match slot.as_mut() {
            Some(w) if w.run_gen == ctx.run_gen => w,
            _ => {
                *slot = Some(Worker {
                    run_gen: ctx.run_gen,
                    forges: HashMap::new(),
                    cohorts: (0..ctx.spec.cohorts.len()).map(|_| None).collect(),
                    templates: TemplateSet::new(),
                    pool: BufPool::new(),
                });
                slot.as_mut().expect("just set")
            }
        };
        let partial = run_range(worker, ctx, range.clone());
        if let Some(progress) = &ctx.cfg.progress {
            let done = ctx
                .done
                .fetch_add(range.end - range.start, Ordering::Relaxed)
                + (range.end - range.start);
            progress(done, ctx.started.elapsed().as_secs_f64());
        }
        partial
    })
}

/// The chunk loop: walk the cohorts and address classes overlapping
/// `range`, run one session per class, fan its verdict out.
fn run_range(worker: &mut Worker, ctx: &FleetCtx<'_>, range: Range<u64>) -> ChunkPartial {
    let mut partial = ChunkPartial {
        accums: vec![CohortAccum::default(); ctx.spec.cohorts.len()],
        phases: PhaseTimings::default(),
        sessions: 0,
    };
    let mut i = range.start;
    while i < range.end {
        let c = ctx.locate(i);
        let cohort = &ctx.spec.cohorts[c];
        let c_range = ctx.spec.cohort_range(c);
        let upto = range.end.min(c_range.end);
        let run_len = cohort.run_len();
        while i < upto {
            let local = i - c_range.start;
            let class_first = c_range.start + (local / run_len) * run_len;
            let sub = i..upto.min(class_first + run_len).min(c_range.end);
            let seed = derive_seed(ctx.spec.base_seed, class_first);
            let verdict = class_session(worker, ctx, c, seed, &mut partial);
            partial.sessions += 1;
            fan_out(
                verdict,
                sub.clone(),
                ctx.spec.base_seed,
                cohort.loss_ppm,
                &mut partial.accums[c],
            );
            i = sub.end;
        }
    }
    partial
}

/// Ensures the worker's per-cohort attacker state exists and returns
/// it: the strategy-armed resolver (template relocated once per
/// worker × cohort profile), the cohort hostname, and — lazily, on
/// first session — the captured answer bank.
fn cohort_state<'w>(worker: &'w mut Worker, ctx: &FleetCtx<'_>, c: usize) -> &'w mut CohortState {
    if worker.cohorts[c].is_none() {
        let cohort = &ctx.spec.cohorts[c];
        let reference = &ctx.references[&reference_key(cohort.arch, &cohort.protections)];
        let strategy = pick_strategy(cohort.arch, &cohort.protections);
        let template = worker
            .templates
            .get_or_compile(strategy.as_ref(), reference)
            .expect("fleet payload templates against the replica");
        let labels = template
            .instantiate(&Slides::identity())
            .expect("identity relocation labelizes");
        let server = MaliciousDnsServer::with_labels(labels, template.name());
        let host = Name::parse(&format!("telemetry.{}.vendor.example", cohort.name))
            .expect("cohort names are label-safe");
        worker.cohorts[c] = Some(CohortState {
            host,
            server,
            bank: None,
            upstream: None,
        });
    }
    worker.cohorts[c].as_mut().expect("just ensured")
}

/// One attack session against a freshly forked (or freshly booted)
/// victim of cohort `c` at boot seed `seed`. Returns the verdict every
/// device of the class inherits.
fn class_session(
    worker: &mut Worker,
    ctx: &FleetCtx<'_>,
    c: usize,
    seed: u64,
    partial: &mut ChunkPartial,
) -> Verdict {
    let cohort = &ctx.spec.cohorts[c];
    let cfg = ctx.cfg;

    // Make sure the cohort's resolver exists.
    cohort_state(worker, ctx, c);

    let t_forge = Instant::now();
    let forge_key = profile_key(cohort.kind, cohort.arch, &cohort.protections);
    let fw_key = profile_key(cohort.kind, cohort.arch, &Protections::none());
    let mut fresh_daemon;
    let daemon = if cfg.no_snapshot {
        fresh_daemon = ctx.firmwares[&fw_key].boot(cohort.protections, seed);
        &mut fresh_daemon
    } else {
        worker
            .forges
            .entry(forge_key)
            .or_insert_with(|| ctx.shared[&forge_key].spawn())
            .fork(seed)
    };
    partial.phases.forge_secs += t_forge.elapsed().as_secs_f64();

    if !daemon.is_running() {
        return Verdict::Down;
    }
    let state = worker.cohorts[c].as_mut().expect("ensured above");

    let t_deliver = Instant::now();
    let query = match daemon.resolve(&state.host, RecordType::A) {
        Resolution::Query(q) => q,
        Resolution::Cached(_) => {
            partial.phases.deliver_secs += t_deliver.elapsed().as_secs_f64();
            return Verdict::Served;
        }
    };

    let outcome;
    if cfg.resolver {
        // Upstream-resolver topology: the cohort's devices query
        // through a shared cache the attacker poisoned once. The
        // malicious server crafts exactly one response per
        // worker × cohort; every session after that is a cache-hit
        // replay (canonical-question match, id patched), so fleet-wide
        // compromise needs no per-device malicious delivery.
        if state.upstream.is_none() {
            let mut cache = ResolverCache::new(1024);
            if let Some(resp) = state.server.handle(&query) {
                // The injected TTL outlives any campaign; E10 sweeps
                // realistic TTLs and cache pressure.
                cache.poison(0, &query, &resp, u64::MAX / 2);
            }
            state.upstream = Some(cache);
        }
        let cache = state.upstream.as_mut().expect("just ensured");
        let mut buf = worker.pool.checkout();
        let hit = cache.lookup_into(0, &query, buf.as_mut_vec());
        partial.phases.deliver_secs += t_deliver.elapsed().as_secs_f64();
        let t_vm = Instant::now();
        if !hit {
            // The poisoning itself failed (non-canonical query): the
            // class was never attacked this round.
            worker.pool.checkin(buf);
            partial.phases.vm_secs += t_vm.elapsed().as_secs_f64();
            return Verdict::Lost;
        }
        outcome = daemon.deliver_response(buf.as_bytes());
        partial.phases.vm_secs += t_vm.elapsed().as_secs_f64();
        worker.pool.checkin(buf);
    } else {
        // Batched fan-out: the cohort's relocated response was encoded
        // once; this class is answered by a byte-compare and a borrow.
        if state.bank.is_none() {
            state.bank = AnswerBank::capture(&mut state.server, &query);
        }
        let banked = state.bank.as_mut().and_then(|b| b.answer(&query)).is_some();
        partial.phases.deliver_secs += t_deliver.elapsed().as_secs_f64();
        let t_vm = Instant::now();
        outcome = if banked {
            let bytes = state
                .bank
                .as_ref()
                .map(|b| b.response())
                .expect("banked implies bank");
            daemon.deliver_response(bytes)
        } else {
            // Non-canonical query (never on the forged boot path, but
            // semantics must not depend on the bank): ask the live
            // server.
            match state.server.handle(&query) {
                Some(resp) => daemon.deliver_response(&resp),
                None => {
                    partial.phases.vm_secs += t_vm.elapsed().as_secs_f64();
                    return Verdict::Lost;
                }
            }
        };
        partial.phases.vm_secs += t_vm.elapsed().as_secs_f64();
    }

    Verdict::classify(&outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vulnerable_cohorts_fall_and_patched_survive() {
        let spec = FleetSpec::heterogeneous(20, 0xF1EE7);
        let report = run_fleet(&spec, 2);
        assert_eq!(report.devices, 20);
        for c in &report.cohorts {
            let a = &c.accum;
            if c.spec.kind.is_vulnerable() {
                assert_eq!(
                    a.compromised + a.lost,
                    a.devices,
                    "{}: every delivered response pops a shell",
                    c.spec.name
                );
                assert_eq!(
                    a.alive, a.lost,
                    "{}: only lost devices survive",
                    c.spec.name
                );
            } else {
                assert_eq!(a.compromised, 0, "{} is patched", c.spec.name);
                assert_eq!(a.alive, a.devices, "{} survives", c.spec.name);
                assert_eq!(
                    a.histo[Verdict::Refused as usize],
                    a.devices - a.lost,
                    "{}: bounds check refuses the payload",
                    c.spec.name
                );
            }
        }
    }

    #[test]
    fn render_is_byte_identical_across_worker_counts() {
        let spec = FleetSpec::heterogeneous(30, 42);
        let serial = run_fleet(&spec, 1);
        for jobs in [2, 4] {
            let parallel = run_fleet(&spec, jobs);
            assert_eq!(serial.render(), parallel.render(), "jobs={jobs}");
        }
        // And across chunk geometries, which is the sharper contract.
        for chunk in [1, 3, 7, 64] {
            let cfg = FleetConfig {
                jobs: 3,
                chunk,
                ..FleetConfig::default()
            };
            assert_eq!(
                serial.render(),
                run_fleet_cfg(&spec, &cfg).render(),
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn snapshot_fleet_matches_fresh_boot_fleet() {
        let spec = FleetSpec::heterogeneous(12, 0xF1EE7);
        let fresh = run_fleet_with(&spec, 2, false).render();
        let forked = run_fleet_with(&spec, 2, true).render();
        assert_eq!(fresh, forked);
    }

    #[test]
    fn cow_forges_match_fresh_boots_on_the_full_matrix() {
        // The 9-cell matrix: {none, wxorx, full} × {x86, ARMv7, RISC-V},
        // one cohort each, plus loss on the W⊕X row for good measure.
        let mut cohorts = Vec::new();
        for (pi, prot) in [
            Protections::none(),
            Protections::wxorx(),
            Protections::full(),
        ]
        .iter()
        .enumerate()
        {
            for arch in Arch::ALL {
                cohorts.push(CohortSpec {
                    protections: *prot,
                    loss_ppm: if pi == 1 { 50_000 } else { 0 },
                    ..CohortSpec::new(
                        &format!("cell-{pi}-{arch}"),
                        FirmwareKind::OpenElec,
                        arch,
                        5,
                    )
                });
            }
        }
        let spec = FleetSpec {
            base_seed: 0xC0C0A,
            cohorts,
        };
        let shared = run_fleet_cfg(&spec, &FleetConfig::new(2));
        let fresh = run_fleet_with(&spec, 2, false);
        assert_eq!(shared.render(), fresh.render());
        // Every vulnerable cell actually fell (modulo injected loss).
        for c in &shared.cohorts {
            assert_eq!(
                c.accum.compromised + c.accum.lost,
                c.accum.devices,
                "{}",
                c.spec.name
            );
        }
    }

    #[test]
    fn resolver_topology_matches_direct_path_with_one_poisoning() {
        let spec = FleetSpec::heterogeneous(18, 0xBEEF);
        let direct = run_fleet_cfg(&spec, &FleetConfig::new(2));
        let through_resolver = |jobs| {
            run_fleet_cfg(
                &spec,
                &FleetConfig {
                    jobs,
                    resolver: true,
                    ..FleetConfig::default()
                },
            )
        };
        let upstream = through_resolver(1);
        // One poisoned upstream cache per cohort compromises exactly
        // the devices the direct malicious-delivery path does.
        assert_eq!(direct.render(), upstream.render());
        // And the topology is as deterministic as the rest.
        for jobs in [2, 4] {
            assert_eq!(
                upstream.render(),
                through_resolver(jobs).render(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn entropy_classes_share_boot_layouts() {
        // 16 devices, 2 bits of boot entropy → 4 classes of 4: exactly
        // 4 distinct sessions at jobs=1, same compromise totals as the
        // full-entropy run of the same cohort.
        let narrow = FleetSpec {
            base_seed: 0xE41,
            cohorts: vec![CohortSpec {
                entropy_bits: 2,
                ..CohortSpec::new("tv", FirmwareKind::OpenElec, Arch::X86, 16)
            }],
        };
        let full = FleetSpec {
            base_seed: 0xE41,
            cohorts: vec![CohortSpec {
                entropy_bits: ENTROPY_FULL,
                ..CohortSpec::new("tv", FirmwareKind::OpenElec, Arch::X86, 16)
            }],
        };
        let narrow_report = run_fleet(&narrow, 1);
        let full_report = run_fleet(&full, 1);
        assert_eq!(narrow_report.sessions, 4);
        assert_eq!(full_report.sessions, 16);
        assert_eq!(narrow_report.compromised(), 16);
        assert_eq!(full_report.compromised(), 16);
    }

    #[test]
    fn loss_profile_spares_a_deterministic_subset() {
        let spec = FleetSpec {
            base_seed: 0x10,
            cohorts: vec![CohortSpec {
                loss_ppm: 300_000, // 30%
                ..CohortSpec::new("lossy", FirmwareKind::OpenElec, Arch::Armv7, 40)
            }],
        };
        let a = run_fleet(&spec, 1);
        let b = run_fleet(&spec, 4);
        let acc = &a.cohorts[0].accum;
        assert!(acc.lost > 0, "30% loss over 40 devices loses some");
        assert!(acc.lost < 40, "but not all");
        assert_eq!(acc.compromised + acc.lost, 40);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn cohort_spec_parsing_round_trips() {
        let parsed = CohortSpec::parse_list(
            "tv=openelec/armv7/full/400,stat=yocto/x86/wxorx/300/loss=2%,\
             cam=patched/arm/canary/100/entropy=8,hub=openelec/x86/full/10/entropy=full",
        )
        .expect("parses");
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].count, 400);
        assert_eq!(parsed[1].loss_ppm, 20_000);
        assert_eq!(parsed[1].protections, Protections::wxorx());
        assert_eq!(parsed[2].entropy_bits, 8);
        assert!(parsed[2].protections.stack_canary);
        assert_eq!(parsed[3].entropy_bits, ENTROPY_FULL);
        assert_eq!(
            parsed[3].classes(),
            10,
            "full entropy: one layout per device"
        );
        assert!(CohortSpec::parse_list("bogus").is_err());
        assert!(CohortSpec::parse_list("a=nope/x86/full/1").is_err());
        let err = CohortSpec::parse_list("a=openelec/x86/full/1/entropy=lots").unwrap_err();
        assert!(err.contains("bad entropy \"lots\""), "{err}");

        // Hostile input is an error naming the field, never a panic and
        // never silently clamped.
        for (spec, field) in [
            ("=openelec/x86/full/1", "bad name"),
            ("a b=openelec/x86/full/1", "bad name"),
            ("a.b=openelec/x86/full/1", "bad name"),
            (
                &format!("{}=openelec/x86/full/1", "n".repeat(64)),
                "bad name",
            ),
            ("a=openelec/x86/full/1/loss=200%", "bad loss"),
            ("a=openelec/x86/full/1/loss=nan%", "bad loss"),
            ("a=openelec/x86/full/1/loss=inf%", "bad loss"),
            ("a=openelec/x86/full/1/loss=-5%", "bad loss"),
            ("a=openelec/x86/full/1/loss=1000001", "bad loss"),
            (
                "a=openelec/x86/full/18446744073709551615",
                "past 4294967296 devices",
            ),
            (
                "a=openelec/x86/full/4294967296,b=openelec/x86/full/1",
                "cohort b: device count 1 takes the fleet past",
            ),
        ] {
            let err = CohortSpec::parse_list(spec).unwrap_err();
            assert!(err.contains(field), "{spec}: {err}");
        }
        let edge = CohortSpec::parse_list(&format!(
            "{}=openelec/x86/full/4294967295/loss=100%,b=yocto/x86/none/1/loss=1000000",
            "n".repeat(63)
        ))
        .expect("a 63-byte name, 100% loss and a total of MAX_FLEET_DEVICES parse");
        assert_eq!(edge[0].loss_ppm, 1_000_000);
        assert_eq!(edge[1].loss_ppm, 1_000_000);
    }

    #[test]
    fn cohort_spec_accepts_riscv_and_rejects_unknown_arches() {
        let parsed = CohortSpec::parse_list("gw=openelec/riscv/wxorx/50,hub=patched/rv32/full/10")
            .expect("riscv spellings parse");
        assert_eq!(parsed[0].arch, Arch::Riscv);
        assert_eq!(parsed[1].arch, Arch::Riscv);

        let err = CohortSpec::parse_list("gw=openelec/mips/full/50").unwrap_err();
        assert!(
            err.contains("unknown arch") && err.contains("mips"),
            "error must name the offending field: {err}"
        );
    }

    #[test]
    fn fan_out_honours_loss_and_counts() {
        let mut acc = CohortAccum::default();
        fan_out(Verdict::Shell, 0..1000, 0xAB, 0, &mut acc);
        assert_eq!(acc.devices, 1000);
        assert_eq!(acc.compromised, 1000);
        let mut lossy = CohortAccum::default();
        fan_out(Verdict::Shell, 0..1000, 0xAB, 100_000, &mut lossy);
        assert_eq!(lossy.devices, 1000);
        assert!(lossy.lost > 50 && lossy.lost < 200, "≈10%: {}", lossy.lost);
        assert_eq!(lossy.compromised + lossy.lost, 1000);
        assert_eq!(lossy.alive, lossy.lost);
    }
}
