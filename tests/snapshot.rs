//! Equivalence property: snapshot forks and threaded-code IR dispatch
//! are pure throughput levers. For every cell of the paper's exploit
//! matrix — and with the shadow-memory sanitizer both on and off — the
//! proxy outcome, the fault details inside it, and the machine's event
//! stream must be byte-identical across {fresh boot, snapshot fork} ×
//! {IR dispatch, per-instruction dispatch}.

use connman_lab::exploit::target::deliver_labels;
use connman_lab::exploit::{
    ArmGadgetExeclp, CodeInjection, ExploitStrategy, Ret2Libc, RiscvGadgetSystem,
};
use connman_lab::{Arch, FirmwareKind, Lab, Protections};

/// The nine PoC cells of §III: protection level + the matched technique.
fn matrix() -> Vec<(Arch, Protections, Box<dyn ExploitStrategy>)> {
    let mut cells: Vec<(Arch, Protections, Box<dyn ExploitStrategy>)> = Vec::new();
    for arch in Arch::ALL {
        cells.push((
            arch,
            Protections::none(),
            Box::new(CodeInjection::new(arch)),
        ));
        let wx: Box<dyn ExploitStrategy> = match arch {
            Arch::X86 => Box::new(Ret2Libc::new()),
            Arch::Armv7 => Box::new(ArmGadgetExeclp::new()),
            Arch::Riscv => Box::new(RiscvGadgetSystem::new()),
        };
        cells.push((arch, Protections::wxorx(), wx));
        cells.push((
            arch,
            Protections::full(),
            Box::new(connman_lab::exploit::RopMemcpyChain::new(arch)),
        ));
    }
    cells
}

#[test]
fn all_modes_produce_byte_identical_outcomes_across_the_matrix() {
    const BASE_SEED: u64 = 0x50AA;
    for (arch, protections, strategy) in matrix() {
        let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(protections);
        let target = lab.recon().expect("recon succeeds on vulnerable build");
        let payload = strategy.build(&target).expect("payload builds");
        let labels = payload.to_labels().expect("labelizes");
        let fw = lab.firmware();

        for sanitize in [false, true] {
            // One forge per cell; the second seed forces the fork to
            // re-slide (fresh ASLR draw on top of the restore).
            let mut forge = fw.forge(protections, BASE_SEED);
            for seed in [BASE_SEED, BASE_SEED + 1] {
                let mut prints: Vec<(&str, String)> = Vec::new();
                for snapshot in [false, true] {
                    for ir in [true, false] {
                        let mode = match (snapshot, ir) {
                            (false, true) => "fresh/ir",
                            (false, false) => "fresh/insn",
                            (true, true) => "fork/ir",
                            (true, false) => "fork/insn",
                        };
                        let fingerprint = if snapshot {
                            let daemon = forge.fork(seed);
                            daemon.set_sanitizer(sanitize);
                            daemon.machine_mut().set_ir_dispatch_enabled(ir);
                            let out = deliver_response_print(daemon, &labels);
                            daemon.machine_mut().set_ir_dispatch_enabled(true);
                            out
                        } else {
                            let mut daemon = fw.boot(protections, seed);
                            daemon.set_sanitizer(sanitize);
                            daemon.machine_mut().set_ir_dispatch_enabled(ir);
                            deliver_response_print(&mut daemon, &labels)
                        };
                        prints.push((mode, fingerprint));
                    }
                }
                let (ref_mode, reference) = &prints[0];
                for (mode, fingerprint) in &prints[1..] {
                    assert_eq!(
                        fingerprint,
                        reference,
                        "{arch}/{}/sanitize={sanitize}/seed={seed:#x}: \
                         {mode} diverged from {ref_mode}",
                        protections.label()
                    );
                }
            }
        }
    }
}

/// The acceptance metric behind `snapshot_vs_reboot`: forking a booted
/// snapshot must execute at least 5x fewer instructions per E8-style
/// trial than booting from scratch (instruction counts, not wall time,
/// so a loaded 1-CPU container cannot mask a regression).
#[test]
fn fork_amortizes_at_least_5x_instructions_per_trial() {
    let fw = connman_lab::Firmware::build(FirmwareKind::OpenElec, Arch::X86);
    let protections = Protections::full();
    let labels: Vec<Vec<u8>> = vec![0x41u8; 1300].chunks(63).map(<[u8]>::to_vec).collect();
    const TRIALS: u64 = 8;

    let mut fresh_insns = 0u64;
    for seed in 0..TRIALS {
        let mut daemon = fw.boot(protections, 0x5EED_0000 + seed);
        deliver_labels(&mut daemon, labels.clone());
        fresh_insns += daemon.machine().insn_count();
    }

    let mut forge = fw.forge(protections, 0x5EED_0000);
    let mut forked_insns = 0u64;
    for seed in 0..TRIALS {
        let daemon = forge.fork(0x5EED_0000 + seed);
        let before = daemon.machine().insn_count();
        deliver_labels(daemon, labels.clone());
        forked_insns += daemon.machine().insn_count() - before;
    }

    assert!(
        fresh_insns >= 5 * forked_insns.max(1),
        "fresh {fresh_insns} insns vs forked {forked_insns} insns over {TRIALS} trials"
    );
}

/// Delivers the payload and fingerprints everything the harness
/// observes: the proxy outcome (faults carry full register/memory
/// context in their `Debug` form) and the machine's event stream.
fn deliver_response_print(daemon: &mut connman_lab::connman::Daemon, labels: &[Vec<u8>]) -> String {
    let outcome = deliver_labels(daemon, labels.to_vec());
    format!("{outcome:?}\n{:?}", daemon.machine().events())
}
