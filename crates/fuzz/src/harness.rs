//! The fork-server execution harness.
//!
//! Boots one firmware variant via [`Firmware::forge`], then serves
//! every fuzz input from a snapshot restore: fork at the forge's base
//! seed is a pure dirty-page rewind, so the per-input cost is the parse
//! itself, not a boot. The driver builds one harness per worker thread
//! per campaign, so one build and boot is each campaign's fixed cost. A
//! reboot mode (`FuzzConfig::reboot_per_exec`: a full
//! [`Firmware::boot`] per input) exists solely so the
//! `fork_vs_reboot_fuzz` ablation can measure what the snapshot path
//! saves.

use cml_connman::{ProxyOutcome, Resolution};
use cml_dns::forge::ResponseForge;
use cml_dns::{Message, Name, RecordType};
use cml_firmware::{Arch, BootForge, Daemon, Firmware, FirmwareKind, Protections};
use cml_vm::Fault;

use crate::corpus::CoverageAccum;
use crate::triage::CrashSite;

/// What one execution of the target produced. Nothing in it is
/// rendered: a crash's key and fault text are formatted only when a
/// campaign records a new crash.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// Coarse outcome class (stable labels, used in stats).
    pub tag: &'static str,
    /// The crash, when the daemon crashed (or the oracle was escaped).
    pub crash: Option<Crash>,
    /// Whether this execution lit coverage no earlier one had.
    pub novel: bool,
}

/// A crash one execution found.
#[derive(Debug, Clone, PartialEq)]
pub enum Crash {
    /// The daemon faulted: the sanitizer's overflow report, or any
    /// other fault.
    Fault(Fault),
    /// The hijack escaped the sanitizer oracle, which an armed
    /// sanitizer should make unreachable: its key and the outcome's
    /// text.
    Escape(&'static str, String),
}

impl Crash {
    /// The crash's site, its deduplication identity.
    pub fn site(&self) -> CrashSite {
        match self {
            Crash::Fault(fault) => CrashSite::of(fault),
            Crash::Escape(key, _) => CrashSite::Named(key),
        }
    }

    /// Human-readable fault description for crash reports.
    pub fn describe(&self) -> String {
        match self {
            Crash::Fault(fault) => fault.to_string(),
            Crash::Escape(_, text) => text.clone(),
        }
    }
}

/// The per-worker fork server: one booted forge plus the canonical
/// query every input answers.
#[derive(Debug)]
pub struct Harness {
    firmware: Firmware,
    forge: BootForge,
    boot_seed: u64,
    qname: Name,
    coverage: bool,
    reboot_per_exec: bool,
    /// Scratch daemon for reboot mode (kept so fork mode's forge stays
    /// untouched by ablation runs).
    reboot_daemon: Option<Daemon>,
}

impl Harness {
    /// Boots `kind`/`arch` once and snapshots it.
    ///
    /// `coverage` arms the VM edge map per exec; `reboot_per_exec`
    /// replaces snapshot restores with full boots (ablation only).
    pub fn new(
        kind: FirmwareKind,
        arch: Arch,
        boot_seed: u64,
        coverage: bool,
        reboot_per_exec: bool,
    ) -> Self {
        let firmware = Firmware::build(kind, arch);
        let forge = firmware.forge(Protections::none(), boot_seed);
        Harness {
            firmware,
            forge,
            boot_seed,
            qname: Name::parse("iot.example.com").expect("static name"),
            coverage,
            reboot_per_exec,
            reboot_daemon: None,
        }
    }

    /// The benign seed corpus: well-formed responses answering the
    /// canonical query, in growing shapes. Deterministic — no RNG.
    pub fn seed_inputs(&mut self) -> Vec<Vec<u8>> {
        let query = self.fresh_query();
        vec![
            ResponseForge::answering(&query)
                .with_payload_labels(vec![b"iot".to_vec(), b"example".to_vec(), b"com".to_vec()])
                .expect("labels fit")
                .build()
                .expect("benign response encodes"),
            ResponseForge::answering(&query)
                .with_payload_labels(vec![vec![b'a'; 20], vec![b'b'; 20]])
                .expect("labels fit")
                .build()
                .expect("benign response encodes"),
            ResponseForge::answering(&query)
                .with_chunked_payload(&[b'c'; 100])
                .expect("labels fit")
                .build()
                .expect("benign response encodes"),
        ]
    }

    /// Forks (or reboots), re-issues the canonical query, and delivers
    /// `input` as the upstream response under the sanitizer oracle.
    pub fn exec(&mut self, input: &[u8], accum: &mut CoverageAccum) -> ExecOutcome {
        self.run(input, Some(accum))
    }

    /// [`exec`](Harness::exec), folding the run's coverage into `accum`
    /// only when one is given.
    fn run(&mut self, input: &[u8], accum: Option<&mut CoverageAccum>) -> ExecOutcome {
        let coverage = self.coverage;
        let boot_seed = self.boot_seed;
        let daemon = if self.reboot_per_exec {
            self.reboot_daemon = Some(self.firmware.boot(Protections::none(), boot_seed));
            self.reboot_daemon.as_mut().expect("just set")
        } else {
            self.forge.fork(boot_seed)
        };
        daemon.set_sanitizer(true);
        daemon.machine_mut().set_coverage_enabled(coverage);
        daemon.machine_mut().coverage_reset();
        // Re-issue the pending query; the snapshot rewinds the id
        // counter, so every fork awaits the same transaction id and the
        // seed corpus stays valid across the whole campaign.
        let _query = daemon.resolve(&self.qname, RecordType::A);
        let outcome = daemon.deliver_response(input);
        let novel = match (daemon.machine().coverage(), accum) {
            (Some(map), Some(accum)) => accum.note_touched(map),
            _ => false,
        };
        let (tag, crash) = match outcome {
            ProxyOutcome::Rejected(_) => ("rejected", None),
            ProxyOutcome::ParseFailed { .. } => ("parse-failed", None),
            ProxyOutcome::Answered { .. } => ("answered", None),
            ProxyOutcome::Crashed(report) => ("crashed", Some(Crash::Fault(report.fault))),
            // With the sanitizer armed these should be unreachable; if
            // an input ever escapes the oracle, surface it loudly as its
            // own crash bucket instead of miscounting it as benign.
            ProxyOutcome::Compromised(_) => (
                "compromised",
                Some(Crash::Escape(
                    "oracle-escape-compromised",
                    outcome.to_string(),
                )),
            ),
            ProxyOutcome::HijackedExit { .. } => (
                "hijacked-exit",
                Some(Crash::Escape("oracle-escape-hijack", outcome.to_string())),
            ),
            ProxyOutcome::DaemonDown => ("daemon-down", None),
            // `ProxyOutcome` is non_exhaustive; treat unknown future
            // outcomes as benign rather than fabricating crash keys.
            _ => ("other", None),
        };
        ExecOutcome { tag, crash, novel }
    }

    /// Re-runs `input` and reports whether it crashes at `site` — the
    /// minimization predicate. Coverage is deliberately not folded
    /// anywhere, so minimization cannot perturb corpus admission.
    pub fn reproduces(&mut self, input: &[u8], site: CrashSite) -> bool {
        let out = self.run(input, None);
        out.crash.is_some_and(|c| c.site() == site)
    }

    /// The wire bytes of the canonical query a fresh fork issues.
    fn fresh_query(&mut self) -> Message {
        let daemon = self.forge.fork(self.boot_seed);
        match daemon.resolve(&self.qname, RecordType::A) {
            Resolution::Query(bytes) => Message::decode(&bytes).expect("own query decodes"),
            Resolution::Cached(_) => unreachable!("fresh fork has a cold cache"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_benign_on_the_vulnerable_daemon() {
        let mut h = Harness::new(FirmwareKind::OpenElec, Arch::X86, 0xF022, true, false);
        let mut accum = CoverageAccum::new();
        for seed in h.seed_inputs() {
            let out = h.exec(&seed, &mut accum);
            assert_eq!(out.tag, "answered", "seed corpus must be benign");
            assert!(out.crash.is_none());
        }
        assert!(accum.edges_seen() > 0, "benign parses still light edges");
    }

    #[test]
    fn oversized_payload_trips_the_oracle_on_fork_and_reboot() {
        for reboot in [false, true] {
            let mut h = Harness::new(FirmwareKind::OpenElec, Arch::X86, 0xF022, true, reboot);
            let query = h.fresh_query();
            let evil = ResponseForge::answering(&query)
                .with_chunked_payload(&[0x41; 1300])
                .unwrap()
                .build()
                .unwrap();
            let mut accum = CoverageAccum::new();
            let out = h.exec(&evil, &mut accum);
            assert_eq!(out.tag, "crashed");
            let site = out.crash.expect("sanitizer crash").site();
            assert!(site.to_string().starts_with("redzone-"), "{site}");
            assert!(h.reproduces(&evil, site));
        }
    }

    #[test]
    fn patched_daemon_never_crashes_on_the_same_payload() {
        let mut h = Harness::new(FirmwareKind::Patched, Arch::X86, 0xF022, true, false);
        let query = h.fresh_query();
        let evil = ResponseForge::answering(&query)
            .with_chunked_payload(&[0x41; 1300])
            .unwrap()
            .build()
            .unwrap();
        let mut accum = CoverageAccum::new();
        let out = h.exec(&evil, &mut accum);
        assert_eq!(out.tag, "parse-failed", "1.35 bounds check holds");
    }
}
