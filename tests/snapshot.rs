//! Equivalence property: snapshot forks and threaded-code IR dispatch
//! are pure throughput levers. For every cell of the paper's exploit
//! matrix — and with the shadow-memory sanitizer both on and off — the
//! proxy outcome, the fault details inside it, and the machine's event
//! stream must be byte-identical across {fresh boot, snapshot fork} ×
//! {IR dispatch, per-instruction dispatch}. A fork must also match a
//! fresh boot in every detail of its layout, and a `.text` write after
//! a fork must never leave a stale decode behind.

use connman_lab::connman::{Daemon, Resolution};
use connman_lab::dns::forge::ResponseForge;
use connman_lab::dns::{Message, Name, RecordType};
use connman_lab::exploit::matrix::LEVELS;
use connman_lab::exploit::target::deliver_labels;
use connman_lab::exploit::{matched_strategy, matrix, shellcode, DosCrash, ExploitStrategy};
use connman_lab::image::{Addr, SectionKind};
use connman_lab::vm::{arm, riscv, x86, Fault, X86Reg};
use connman_lab::{Arch, Firmware, FirmwareKind, Lab, Protections, ProxyOutcome};

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
    let fw = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
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

/// Every exploit-matrix level × ISA cell, with and without a canary,
/// over 32 seeds (the base seed among them). An overflow is delivered
/// after each fork, so every restore rewinds dirty pages and a crashed
/// daemon, and the next fork must leave no hook at the previous
/// layout's addresses.
#[test]
fn every_fork_matches_a_fresh_boot_in_depth() {
    for arch in Arch::ALL {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        for base in LEVELS {
            for p in [base, base.with_canary()] {
                let mut forge = fw.forge(p, 40);
                let mut previous: Vec<Addr> = Vec::new();
                for seed in 32..64u64 {
                    let cell = format!("{arch} {} seed {seed}", p.label());
                    let mut fresh = fw.boot(p, seed);
                    let forked = forge.fork(seed);
                    let (fm, m) = (fresh.map(), forked.map());
                    for kind in SectionKind::ALL {
                        assert_eq!(m.slide(kind), fm.slide(kind), "{cell} {kind}");
                    }
                    assert_eq!(m.stack_top(), fm.stack_top(), "{cell}");
                    assert_eq!(m.canary(), fm.canary(), "{cell}");
                    assert_eq!(forked.machine().canary(), fm.canary(), "{cell}");
                    let (regs, fresh_regs) = (forked.machine().regs(), fresh.machine().regs());
                    assert_eq!(regs.sp(), fresh_regs.sp(), "{cell}");
                    assert_eq!(regs.pc(), fresh_regs.pc(), "{cell}");
                    assert_eq!(m.symbols().count(), fm.symbols().count(), "{cell}");
                    for (name, addr) in fm.symbols() {
                        assert_eq!(m.symbol(name), Some(addr), "{cell} {name}");
                        assert_eq!(
                            forked.machine().hook_at(addr),
                            fresh.machine().hook_at(addr),
                            "{cell} hook at {name}"
                        );
                    }
                    for &old in &previous {
                        assert_eq!(
                            forked.machine().hook_at(old),
                            fresh.machine().hook_at(old),
                            "{cell}: hook left at old-layout address {old:#x}"
                        );
                    }
                    previous = fm.symbols().map(|(_, addr)| addr).collect();
                    let out_fork = attack_outcome(forked);
                    assert_eq!(out_fork, attack_outcome(&mut fresh), "{cell}");
                }
            }
        }
    }
}

/// The `.text` safety net for any decode cache that outlives a fork.
/// On each ISA's W⊕X+ASLR cell: a ROP session caches its gadget
/// decodes; the next fork overwrites one executed gadget with a branch
/// to itself, and the session must spin there until the watchdog
/// fires; the fork after that must rewind the page and drop the cached
/// loop, so the original chain pops its shell again.
#[test]
fn text_written_after_a_fork_never_runs_a_stale_decode() {
    const SEED: u64 = 0x57A1E;
    let protections = Protections::full();
    for arch in Arch::ALL {
        let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(protections);
        let target = lab.recon().expect("recon succeeds on vulnerable build");
        let labels = matched_strategy(arch, &protections)
            .build(&target)
            .expect("payload builds")
            .to_labels()
            .expect("labelizes");
        let fw = lab.firmware();
        let gadget = first_text_pc(fw, protections, SEED, &labels);

        let mut forge = fw.forge(protections, SEED);
        let first = deliver_labels(forge.fork(SEED), labels.clone()).expect("query issued");
        assert!(first.is_root_shell(), "{arch}: {first:?}");

        let daemon = forge.fork(SEED);
        let mem = daemon.machine_mut().mem_mut();
        mem.poke(gadget, &spin_loop(arch)).expect(".text is mapped");
        let spun = deliver_labels(daemon, labels.clone()).expect("query issued");
        assert!(
            matches!(&spun, ProxyOutcome::Crashed(r) if matches!(r.fault, Fault::StepLimit { .. }))
                && daemon.machine().regs().pc() == gadget,
            "{arch}: the loop poked at {gadget:#x} did not run: {spun:?}"
        );

        let again = deliver_labels(forge.fork(SEED), labels).expect("query issued");
        assert_eq!(
            format!("{again:?}"),
            format!("{first:?}"),
            "{arch}: the fork after the poke ran a stale decode"
        );
    }
}

/// The reslide path of the same safety net. The forge boots at one seed
/// and every fork reslides to another, so each restore moves the slid
/// regions back and swaps the libc hooks, and each reslide moves them
/// again: the paths that keep the non-PIE gadget decodes warm. After a
/// session at a fresh seed caches the chain, a fork at a second fresh
/// seed pokes a branch-to-self over an executed `.text` gadget and must
/// spin there; a fork at a third fresh seed must rewind the page, drop
/// the loop and pop the shell exactly as a fresh boot at that seed does.
#[test]
fn text_written_after_a_reslid_fork_never_runs_a_stale_decode() {
    const SEED: u64 = 0x5EA1E;
    let protections = Protections::full();
    for arch in Arch::ALL {
        let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(protections);
        let target = lab.recon().expect("recon succeeds on vulnerable build");
        let labels = matched_strategy(arch, &protections)
            .build(&target)
            .expect("payload builds")
            .to_labels()
            .expect("labelizes");
        let fw = lab.firmware();
        let gadget = first_text_pc(fw, protections, SEED + 1, &labels);

        let mut forge = fw.forge(protections, SEED);
        let warm = deliver_labels(forge.fork(SEED + 1), labels.clone()).expect("query issued");
        assert!(warm.is_root_shell(), "{arch}: {warm:?}");

        let daemon = forge.fork(SEED + 2);
        daemon
            .machine_mut()
            .mem_mut()
            .poke(gadget, &spin_loop(arch))
            .expect(".text is mapped");
        let spun = deliver_labels(daemon, labels.clone()).expect("query issued");
        assert!(
            matches!(&spun, ProxyOutcome::Crashed(r) if matches!(r.fault, Fault::StepLimit { .. }))
                && daemon.machine().regs().pc() == gadget,
            "{arch}: the loop poked at {gadget:#x} did not run: {spun:?}"
        );

        let again = deliver_response_print(forge.fork(SEED + 3), &labels);
        let fresh = deliver_response_print(&mut fw.boot(protections, SEED + 3), &labels);
        assert_eq!(
            again, fresh,
            "{arch}: the fork after the poke ran a stale decode"
        );
        assert!(again.starts_with("Some(Compromised"), "{arch}: {again}");
    }
}

/// The injection cells' safety net. Under no protection the payload's
/// sled and shellcode run from the stack, so every session leaves
/// decodes on a stack page that the next fork rewinds and the next
/// payload overwrites. Consecutive forks deliver different stack
/// payloads: the shellcode, the DoS overflow, the shellcode with its
/// sled turned into branch-to-self loops, and the shellcode again. Each
/// fork's outcome and libc/syscall log must equal a fresh boot's at the
/// same seed; a stale sled decode would pop a shell where the fresh
/// boot spins.
#[test]
fn stack_code_rewound_by_a_fork_never_runs_a_stale_decode() {
    const SEED: u64 = 0x1CED;
    let protections = Protections::none();
    for arch in Arch::ALL {
        let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(protections);
        let target = lab.recon().expect("recon succeeds on vulnerable build");
        let build = |strategy: &dyn ExploitStrategy| {
            strategy
                .build(&target)
                .expect("payload builds")
                .to_labels()
                .expect("labelizes")
        };
        let injection = build(matched_strategy(arch, &protections).as_ref());
        let dos = build(&DosCrash::new());
        let spun = spin_the_sled(arch, &injection);
        let bumped = bump_the_syscall(arch, &injection);
        let touched = touch_the_lookahead(arch, &injection);
        let fw = lab.firmware();

        // (name, labels, pops a shell, must decode afresh)
        let mut forge = fw.forge(protections, SEED);
        let sessions = [
            ("shellcode", &injection, true, false),
            ("DoS", &dos, false, false),
            ("shellcode", &injection, true, false),
            ("spun sled", &spun, false, true),
            ("shellcode", &injection, true, false),
            ("syscall bumped", &bumped, false, true),
            ("shellcode", &injection, true, false),
            ("lookahead touched", &touched, true, true),
            ("shellcode", &injection, true, false),
        ];
        for (i, (name, labels, pops, decodes)) in sessions.into_iter().enumerate() {
            let seed = SEED + i as u64;
            let daemon = forge.fork(seed);
            let misses = daemon.machine().decode_cache_stats().1;
            let forked = deliver_response_print(daemon, labels);
            let misses = daemon.machine().decode_cache_stats().1 - misses;
            let fresh = deliver_response_print(&mut fw.boot(protections, seed), labels);
            assert_eq!(forked, fresh, "{arch}: session {i} ({name}) after a fork");
            let popped = forked.starts_with("Some(Compromised");
            assert_eq!(popped, pops, "{arch} {name}: {forked}");
            if decodes {
                assert!(misses > 0, "{arch}: session {i} ({name}) decoded nothing");
            }
        }
    }
}

/// The instruction that loads the shellcode's syscall number
/// (`execve`), and the same instruction asking for the next syscall:
/// one byte apart on every ISA.
fn syscall_number_load(arch: Arch) -> (Vec<u8>, Vec<u8>) {
    match arch {
        Arch::X86 => {
            let load = |nr| x86::Asm::new().mov_r8_imm(X86Reg::Eax, nr).finish();
            (load(11), load(12))
        }
        Arch::Armv7 => {
            let load = |nr| arm::Asm::new().mov_imm(7, nr).finish();
            (load(11), load(12))
        }
        Arch::Riscv => {
            let load = |nr| riscv::Asm::new().addi(17, 0, nr).finish();
            (load(221), load(222))
        }
    }
}

/// The shellcode's syscall instruction.
fn syscall_gate(arch: Arch) -> Vec<u8> {
    match arch {
        Arch::X86 => x86::Asm::new().int80().finish(),
        Arch::Armv7 => arm::Asm::new().svc0().finish(),
        Arch::Riscv => riscv::Asm::new().ecall().finish(),
    }
}

/// Label index and offset of the one occurrence of `pattern`.
fn find_once(labels: &[Vec<u8>], pattern: &[u8]) -> (usize, usize) {
    let hits: Vec<(usize, usize)> = labels
        .iter()
        .enumerate()
        .flat_map(|(l, label)| {
            let n = label.len().saturating_sub(pattern.len() - 1);
            (0..n)
                .filter(move |&i| &label[i..i + pattern.len()] == pattern)
                .map(move |i| (l, i))
        })
        .collect();
    assert_eq!(hits.len(), 1, "{pattern:02x?} occurs once");
    hits[0]
}

/// `labels` with the shellcode asking for the syscall after `execve`:
/// one byte differs from the session before.
fn bump_the_syscall(arch: Arch, labels: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let (execve, next) = syscall_number_load(arch);
    let differing = execve.iter().zip(&next).filter(|(a, b)| a != b).count();
    assert_eq!(differing, 1, "{arch}");
    let (l, at) = find_once(labels, &execve);
    let mut out = labels.to_vec();
    out[l][at..at + next.len()].copy_from_slice(&next);
    out
}

/// `labels` with the first filler byte after the shellcode's syscall
/// instruction changed. No instruction runs it, but it lies in the
/// lookahead of the block that ends at the syscall, so that block must
/// not be revived.
fn touch_the_lookahead(arch: Arch, labels: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let gate = syscall_gate(arch);
    let (mut l, at) = find_once(labels, &gate);
    let mut out = labels.to_vec();
    // Bytes past the gate in guest memory, where one separator byte
    // sits between two labels.
    let (mut i, mut past) = (at + gate.len(), 0);
    loop {
        if i == out[l].len() {
            (l, i) = (l + 1, 0);
        } else if out[l][i] == b'a' {
            break;
        } else {
            i += 1;
        }
        past += 1;
    }
    assert!(
        past < 16,
        "{arch}: the filler sits {past} bytes past the gate"
    );
    out[l][i] = b'b';
    out
}

/// The first `.text` pc a chain executes, read off a traced fresh boot
/// (tracing single-steps; the forks dispatch through IR).
fn first_text_pc(fw: &Firmware, protections: Protections, seed: u64, labels: &[Vec<u8>]) -> Addr {
    let mut daemon = fw.boot(protections, seed);
    daemon.machine_mut().enable_trace(4096);
    deliver_labels(&mut daemon, labels.to_vec());
    let m = daemon.machine();
    m.trace()
        .expect("tracing is on")
        .entries()
        .iter()
        .map(|e| e.pc)
        .find(|&pc| m.mem().region_containing(pc).and_then(|r| r.kind()) == Some(SectionKind::Text))
        .expect("the chain runs a .text gadget")
}

/// A branch to itself, in the smallest encoding each ISA has.
fn spin_loop(arch: Arch) -> Vec<u8> {
    match arch {
        Arch::X86 => x86::Asm::new().jmp_rel8(-2).finish(),
        Arch::Armv7 => arm::Asm::new().b(-8).finish(),
        Arch::Riscv => riscv::Asm::new().c_j(0).finish(),
    }
}

/// `labels` with the NOP sled in front of the shellcode rewritten as
/// back-to-back [`spin_loop`]s, so a return anywhere into the sled
/// spins.
fn spin_the_sled(arch: Arch, labels: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let code = match arch {
        Arch::X86 => shellcode::x86_execve_bin_sh(),
        Arch::Armv7 => shellcode::arm_execve_bin_sh(),
        Arch::Riscv => shellcode::riscv_execve_bin_sh(),
    };
    let spin = spin_loop(arch);
    let nops = arch.nop_bytes().repeat(spin.len() / arch.nop_bytes().len());
    assert_eq!(nops.len(), spin.len(), "{arch}: a loop replaces whole NOPs");
    let mut out = labels.to_vec();
    // The sled and the code's first instructions share a label; the
    // embedded string may spill into the next one.
    let entry = &code[..8];
    let (label, mut end) = out
        .iter_mut()
        .find_map(|l| {
            let at = l.windows(entry.len()).position(|w| w == entry)?;
            Some((l, at))
        })
        .expect("a label holds the shellcode's entry");
    let mut loops = 0;
    while end >= spin.len() && label[end - spin.len()..end] == nops[..] {
        label[end - spin.len()..end].copy_from_slice(&spin);
        end -= spin.len();
        loops += 1;
    }
    assert!(loops >= 4, "{arch}: only {loops} loops replaced the sled");
    out
}

/// Resolves `update.example` and answers it with a 1,300-byte overflow.
fn attack_outcome(daemon: &mut Daemon) -> String {
    let name = Name::parse("update.example").unwrap();
    let Resolution::Query(qbytes) = daemon.resolve(&name, RecordType::A) else {
        panic!("cold cache");
    };
    let query = Message::decode(&qbytes).unwrap();
    let attack = ResponseForge::answering(&query)
        .with_chunked_payload(&[0x41; 1300])
        .unwrap()
        .build()
        .unwrap();
    format!("{:?}", daemon.deliver_response(&attack))
}

/// Delivers the payload and fingerprints everything the harness
/// observes: the proxy outcome (faults carry full register/memory
/// context in their `Debug` form) and the machine's libc-call and
/// syscall log.
fn deliver_response_print(daemon: &mut Daemon, labels: &[Vec<u8>]) -> String {
    let outcome = deliver_labels(daemon, labels.to_vec());
    format!("{outcome:?}\n{:?}", daemon.machine().events())
}
