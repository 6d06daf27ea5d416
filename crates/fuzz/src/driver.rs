//! The parallel fuzzing driver.
//!
//! Workers run *independent* campaigns over [`cml_core::Runner`]'s
//! claim counter: campaign `w` derives its own RNG streams from
//! `derive_seed(cfg.seed, w)`, owns its corpus and coverage
//! accumulator, and spends a fixed slice of the exec budget. Each
//! worker thread builds its fork server and mutation scratch pool once,
//! in `run_chunks`' `init`, and drops them before [`fuzz`] returns.
//! Every exec starts from a snapshot rewind, so which thread serves a
//! campaign changes nothing. Nothing crosses threads mid-campaign, so
//! the merged report is byte-identical for a given `(seed, jobs)` pair
//! regardless of scheduling — the reproducibility contract `--seed`
//! promises.

use std::fs;
use std::io;
use std::path::Path;

use cml_core::json::{obj, s, u, Value};
use cml_core::{derive_seed, Runner};
use cml_dns::BufPool;
use cml_firmware::{Arch, FirmwareKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::corpus::{Corpus, CoverageAccum};
use crate::harness::Harness;
use crate::mutate::Mutator;
use crate::triage::{minimize, CrashSite};

/// Everything that shapes a campaign. Two equal configs produce
/// byte-identical [`FuzzReport`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Guest architecture of the target firmware.
    pub arch: Arch,
    /// Firmware variant under test.
    pub kind: FirmwareKind,
    /// Campaign master seed; every worker stream derives from it.
    pub seed: u64,
    /// Total executions across all workers (seeds and minimization
    /// count against it).
    pub max_execs: u64,
    /// Worker count. Part of the determinism key: changing it
    /// repartitions the budget.
    pub jobs: usize,
    /// Arm the VM edge map (off measures the `coverage_hook_overhead`
    /// ablation's baseline: blind fuzzing, no admission signal).
    pub coverage: bool,
    /// Full boot instead of snapshot restore per exec (the
    /// `fork_vs_reboot_fuzz` ablation's slow leg).
    pub reboot_per_exec: bool,
}

impl FuzzConfig {
    /// A coverage-guided snapshot-fork campaign with `jobs` workers.
    pub fn new(kind: FirmwareKind, arch: Arch, seed: u64, max_execs: u64, jobs: usize) -> Self {
        FuzzConfig {
            arch,
            kind,
            seed,
            max_execs,
            jobs: jobs.max(1),
            coverage: true,
            reboot_per_exec: false,
        }
    }
}

/// One deduplicated crash, with its minimized reproducer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRecord {
    /// Triage key (fault site); the dedup identity.
    pub key: String,
    /// Worker that found it first (in merge order).
    pub worker: usize,
    /// Minimized input that still reproduces the key.
    pub input: Vec<u8>,
    /// Human-readable fault description from the first hit.
    pub fault: String,
}

/// Per-worker campaign tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Executions this worker performed (its full budget slice).
    pub execs: u64,
    /// Inputs admitted to this worker's corpus.
    pub corpus_len: usize,
    /// Distinct coverage-map edges this worker observed.
    pub edges: usize,
    /// Executions that parsed and answered normally.
    pub answered: u64,
    /// Executions the header gate rejected.
    pub rejected: u64,
    /// Executions that failed parsing without a fault.
    pub parse_failed: u64,
    /// Executions that crashed the daemon.
    pub crashed: u64,
}

/// The merged result of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// The config that produced this report.
    pub config: FuzzConfig,
    /// Per-worker tallies, in worker order.
    pub workers: Vec<WorkerStats>,
    /// Deduplicated crashes in worker-then-discovery order.
    pub crashes: Vec<CrashRecord>,
    /// Every worker corpus, flattened in worker-then-admission order.
    pub corpus: Vec<Vec<u8>>,
}

impl FuzzReport {
    /// Total executions across workers.
    pub fn total_execs(&self) -> u64 {
        self.workers.iter().map(|w| w.execs).sum()
    }

    /// The deduplicated crash keys, in discovery order.
    pub fn crash_keys(&self) -> Vec<&str> {
        self.crashes.iter().map(|c| c.key.as_str()).collect()
    }

    /// Whether any crash triaged to the sanitizer's overflow site —
    /// the CVE-2017-12865 rediscovery signal.
    pub fn found_overflow(&self) -> bool {
        self.crashes.iter().any(|c| c.key.starts_with("redzone-"))
    }

    /// Deterministic stats document: no wall-clock, no paths — only
    /// campaign-derived numbers, so `--seed` reruns diff clean.
    pub fn stats_json(&self) -> String {
        let cfg = &self.config;
        let workers = self.workers.iter().map(|w| {
            obj([
                ("execs", u(w.execs)),
                ("corpus", u(w.corpus_len as u64)),
                ("edges", u(w.edges as u64)),
                ("answered", u(w.answered)),
                ("rejected", u(w.rejected)),
                ("parse_failed", u(w.parse_failed)),
                ("crashed", u(w.crashed)),
            ])
        });
        let doc = obj([
            ("arch", s(format!("{:?}", cfg.arch))),
            ("firmware", s(format!("{:?}", cfg.kind))),
            ("seed", u(cfg.seed)),
            ("jobs", u(cfg.jobs as u64)),
            ("coverage", Value::Bool(cfg.coverage)),
            ("total_execs", u(self.total_execs())),
            ("corpus_len", u(self.corpus.len() as u64)),
            ("unique_crashes", u(self.crashes.len() as u64)),
            (
                "crash_keys",
                Value::Arr(self.crash_keys().into_iter().map(s).collect()),
            ),
            ("workers", Value::Arr(workers.collect())),
        ]);
        let mut text = doc.to_string();
        text.push('\n');
        text
    }

    /// Writes `corpus/`, `crashes/`, and `stats.json` under `dir`.
    pub fn write_artifacts(&self, dir: &Path) -> io::Result<()> {
        let corpus_dir = dir.join("corpus");
        let crash_dir = dir.join("crashes");
        fs::create_dir_all(&corpus_dir)?;
        fs::create_dir_all(&crash_dir)?;
        for (i, entry) in self.corpus.iter().enumerate() {
            fs::write(corpus_dir.join(format!("input_{i:05}.bin")), entry)?;
        }
        for c in &self.crashes {
            fs::write(crash_dir.join(format!("{}.bin", c.key)), &c.input)?;
        }
        fs::write(dir.join("stats.json"), self.stats_json())?;
        Ok(())
    }
}

/// What one worker brings back for the ordered merge.
struct WorkerResult {
    stats: WorkerStats,
    corpus: Vec<Vec<u8>>,
    crashes: Vec<CrashRecord>,
}

/// A worker's fork server plus mutation scratch, reused across the
/// execs of one campaign and dropped before [`fuzz`] returns.
struct WorkerState {
    harness: Harness,
    pool: BufPool,
}

/// Runs one campaign and merges the worker results deterministically.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let cfg = *cfg;
    let runner = Runner::new(cfg.jobs);
    let per_worker = cfg.max_execs / cfg.jobs as u64;
    let remainder = cfg.max_execs % cfg.jobs as u64;
    let results = runner.run_chunks(
        cfg.jobs as u64,
        1,
        || WorkerState {
            harness: Harness::new(
                cfg.kind,
                cfg.arch,
                cfg.seed,
                cfg.coverage,
                cfg.reboot_per_exec,
            ),
            pool: BufPool::new(),
        },
        |state, cell| {
            let widx = cell.start as usize;
            let budget = per_worker + if widx == 0 { remainder } else { 0 };
            run_campaign(&cfg, widx, budget, state)
        },
    );
    let mut workers = Vec::with_capacity(results.len());
    let mut corpus = Vec::new();
    let mut crashes: Vec<CrashRecord> = Vec::new();
    // Worker order, then per-worker discovery order: deterministic for
    // a given (seed, jobs) no matter how threads interleaved.
    for r in results {
        workers.push(r.stats);
        corpus.extend(r.corpus);
        for c in r.crashes {
            if !crashes.iter().any(|seen| seen.key == c.key) {
                crashes.push(c);
            }
        }
    }
    FuzzReport {
        config: cfg,
        workers,
        crashes,
        corpus,
    }
}

/// One worker's whole campaign: prime seeds, then mutate/exec/admit
/// until the budget slice is spent.
fn run_campaign(
    cfg: &FuzzConfig,
    widx: usize,
    budget: u64,
    state: &mut WorkerState,
) -> WorkerResult {
    let wseed = derive_seed(cfg.seed, widx as u64);
    let mut pick_rng = StdRng::seed_from_u64(derive_seed(wseed, 1));
    let mut mutator = Mutator::new(derive_seed(wseed, 2));
    let mut accum = CoverageAccum::new();
    let mut corpus = Corpus::new();
    let mut stats = WorkerStats::default();
    let mut crashes: Vec<CrashRecord> = Vec::new();
    // The site of each record in `crashes`, compared without rendering.
    let mut sites: Vec<CrashSite> = Vec::new();
    let harness = &mut state.harness;

    let mut scratch = state.pool.checkout();

    // Seed corpus: always admitted (they define the baseline coverage),
    // each priming exec counted against the budget.
    for seed_input in harness.seed_inputs() {
        if stats.execs >= budget {
            break;
        }
        let out = harness.exec(&seed_input, &mut accum);
        stats.execs += 1;
        tally(&mut stats, out.tag);
        corpus.admit(&seed_input);
    }

    while stats.execs < budget {
        if corpus.is_empty() {
            // Coverage-off blind mode can theoretically admit nothing;
            // fall back to mutating a minimal header so the campaign
            // still spends its budget.
            corpus.admit(&[0u8; 12]);
        }
        let base = corpus.pick(&mut pick_rng);
        let donor = corpus.pick_donor(&mut pick_rng, base);
        mutator.mutate(base, donor, scratch.as_mut_vec());
        let out = harness.exec(scratch.as_bytes(), &mut accum);
        stats.execs += 1;
        tally(&mut stats, out.tag);
        if let Some(crash) = out.crash {
            let site = crash.site();
            if !sites.contains(&site) {
                let budget_left = budget - stats.execs;
                let mut spent = 0u64;
                let minimized = minimize(scratch.as_bytes(), |candidate| {
                    if spent >= budget_left {
                        return None;
                    }
                    spent += 1;
                    Some(harness.reproduces(candidate, site))
                });
                // Minimization execs count against the budget but not
                // the outcome tallies — they are triage, not search.
                stats.execs += spent;
                sites.push(site);
                crashes.push(CrashRecord {
                    key: site.to_string(),
                    worker: widx,
                    input: minimized,
                    fault: crash.describe(),
                });
            }
        } else if out.novel {
            corpus.admit(scratch.as_bytes());
        }
    }

    stats.corpus_len = corpus.len();
    stats.edges = accum.edges_seen();
    let corpus_entries = corpus.entries().to_vec();
    state.pool.checkin(scratch);
    WorkerResult {
        stats,
        corpus: corpus_entries,
        crashes,
    }
}

fn tally(stats: &mut WorkerStats, tag: &str) {
    match tag {
        "answered" => stats.answered += 1,
        "rejected" => stats.rejected += 1,
        "parse-failed" => stats.parse_failed += 1,
        "crashed" | "compromised" | "hijacked-exit" => stats.crashed += 1,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_cfg(kind: FirmwareKind, arch: Arch) -> FuzzConfig {
        FuzzConfig::new(kind, arch, 0xC0FFEE, 400, 2)
    }

    #[test]
    fn campaign_rediscovers_the_overflow_on_x86() {
        let report = fuzz(&smoke_cfg(FirmwareKind::OpenElec, Arch::X86));
        assert!(
            report.found_overflow(),
            "expected a redzone crash; keys: {:?}",
            report.crash_keys()
        );
        assert_eq!(report.total_execs(), 400);
    }

    #[test]
    fn patched_campaign_finds_nothing() {
        let report = fuzz(&smoke_cfg(FirmwareKind::Patched, Arch::X86));
        assert!(
            report.crashes.is_empty(),
            "1.35 must survive the same budget; keys: {:?}",
            report.crash_keys()
        );
    }

    #[test]
    fn same_seed_same_report() {
        let cfg = smoke_cfg(FirmwareKind::OpenElec, Arch::X86);
        let a = fuzz(&cfg);
        let b = fuzz(&cfg);
        assert_eq!(a, b, "byte-identical reruns per seed");
        assert_eq!(a.stats_json(), b.stats_json());
    }

    #[test]
    fn different_seed_diverges() {
        let a = fuzz(&smoke_cfg(FirmwareKind::OpenElec, Arch::X86));
        let mut cfg = smoke_cfg(FirmwareKind::OpenElec, Arch::X86);
        cfg.seed = 0xBEEF;
        let b = fuzz(&cfg);
        assert_ne!(a.stats_json(), b.stats_json());
    }
}
