//! Differential suite for the threaded-code IR dispatcher: lowering hot
//! blocks to superinstructions is a pure throughput lever. For every
//! cell of the paper's exploit matrix — with the shadow-memory
//! sanitizer both on and off — and for ISA-level programs that exercise
//! every lowered op shape, IR dispatch and the single-step reference
//! must produce byte-identical outcomes, fault details, libc/syscall
//! logs and instruction counts, including when the step budget expires in
//! the middle of a lowered block or a folded ALU run.

use cml_image::{Arch, Perms, SectionKind};
use cml_vm::x86::Asm;
use cml_vm::{arm, riscv, x86, CoverageMap, Machine, RunOutcome, X86Reg};
use connman_lab::exploit::matrix;
use connman_lab::exploit::target::deliver_labels;
use connman_lab::{FirmwareKind, Lab};

/// The two dispatch tiers under test: threaded-code IR and the
/// per-instruction reference.
const MODES: [(&str, bool); 2] = [("ir", true), ("insn", false)];

#[test]
fn ir_dispatch_is_invisible_across_the_exploit_matrix() {
    const SEED: u64 = 0x16D1;
    for (arch, protections, strategy) in matrix() {
        let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(protections);
        let target = lab.recon().expect("recon succeeds on vulnerable build");
        let payload = strategy.build(&target).expect("payload builds");
        let labels = payload.to_labels().expect("labelizes");
        let fw = lab.firmware();

        for sanitize in [false, true] {
            let mut prints: Vec<(&str, String)> = Vec::new();
            for (mode, ir_on) in MODES {
                let mut daemon = fw.boot(protections, SEED);
                daemon.set_sanitizer(sanitize);
                daemon.machine_mut().set_ir_dispatch_enabled(ir_on);
                let outcome = deliver_labels(&mut daemon, labels.clone());
                let m = daemon.machine();
                prints.push((
                    mode,
                    format!("{outcome:?}\n{:?}\n{}", m.events(), m.insn_count()),
                ));
            }
            let (ref_mode, reference) = &prints[0];
            for (mode, fingerprint) in &prints[1..] {
                assert_eq!(
                    fingerprint,
                    reference,
                    "{arch}/{}/sanitize={sanitize}: {mode} diverged from {ref_mode}",
                    protections.label()
                );
            }
        }
    }
}

fn boot(arch: Arch, code: &[u8]) -> Machine {
    let mut m = Machine::new(arch);
    m.mem_mut()
        .map(".text", Some(SectionKind::Text), 0x1000, 0x1000, Perms::RX);
    m.mem_mut()
        .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
    m.mem_mut().poke(0x1000, code).unwrap();
    m.regs_mut().set_pc(0x1000);
    m.regs_mut().set_sp(0x8800);
    m
}

/// An x86 program that hits every lowered op shape: immediate and
/// register moves, a foldable `inc` run, register-register ALU, shifts,
/// `lea`, absolute and based loads/stores, pushes and pops,
/// `cmp`+`jnz` fusion and an unconditional jump — looped so IR
/// chaining and the self-loop fast path both fire.
fn x86_program() -> Vec<u8> {
    let head = Asm::new().mov_r_imm(X86Reg::Ecx, 3);
    let loop_top = head.len() as i32;
    let body = head
        .push_r(X86Reg::Ecx)
        .push_imm(0x1111_2222)
        .mov_r_imm(X86Reg::Eax, 0x40)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .add_r_imm8(X86Reg::Eax, 5)
        .sub_r_imm8(X86Reg::Eax, 2)
        .shl_r_imm8(X86Reg::Eax, 3)
        .shr_r_imm8(X86Reg::Eax, 1)
        .mov_r_imm(X86Reg::Ebx, 0x8400)
        .mov_mem_r(X86Reg::Ebx, 8, X86Reg::Eax)
        .mov_r_mem(X86Reg::Edx, X86Reg::Ebx, 8)
        .mov_r_abs(X86Reg::Esi, 0x8408)
        .lea(X86Reg::Edi, X86Reg::Ebx, 0x10)
        .xor_rr(X86Reg::Edx, X86Reg::Eax)
        .and_rr(X86Reg::Edx, X86Reg::Esi)
        .or_rr(X86Reg::Edx, X86Reg::Edi)
        .test_rr(X86Reg::Edx, X86Reg::Edx)
        .cmp_rr(X86Reg::Eax, X86Reg::Ebx)
        .mov_r8_imm(X86Reg::Eax, 0x7F)
        .pop_r(X86Reg::Edx)
        .pop_r(X86Reg::Ecx)
        .dec_r(X86Reg::Ecx);
    // jnz is 2 bytes; rel8 is relative to the pc after it.
    let rel = loop_top - (body.len() as i32 + 2);
    body.jnz_rel8(i8::try_from(rel).expect("loop body fits rel8"))
        .jmp_rel8(0)
        .xor_rr(X86Reg::Eax, X86Reg::Eax)
        .mov_r8_imm(X86Reg::Eax, 1)
        .mov_r_imm(X86Reg::Ebx, 42)
        .int80()
        .finish()
}

/// The ARM counterpart: immediate/negated/register moves, pc-relative
/// folds, add/sub/bitwise immediates, shifts, `cmp`+`bne` fusion,
/// word/byte loads and stores, push/pop and an unconditional branch.
fn arm_program() -> Vec<u8> {
    let head = arm::Asm::new().mov_imm(2, 3);
    let loop_top = head.len() as i32;
    let body = head
        .mov_imm(0, 0x40)
        .add_imm(0, 0, 4)
        .sub_imm(0, 0, 1)
        .orr_imm(1, 0, 0x10)
        .and_imm(1, 1, 0xFF)
        .eor_imm(1, 1, 3)
        .lsl_imm(3, 1, 2)
        .mvn_imm(4, 0)
        .add_imm(5, 15, 4) // pc-relative, folds to a constant
        .mov_reg(6, 13)
        .str(0, 13, -8)
        .ldr(8, 13, -8)
        .strb(1, 13, -12)
        .ldrb(9, 13, -12)
        .push(&[0, 1])
        .pop(&[0, 1])
        .sub_imm(2, 2, 1)
        .cmp_imm(2, 0);
    // The branch target is pc + 8 + offset.
    let rel = loop_top - (body.len() as i32 + 8);
    body.bne(rel)
        .b(-4) // branch to the very next word
        .mov_imm(0, 9)
        .mov_imm(7, 1)
        .svc0()
        .finish()
}

/// The RISC-V counterpart, mixing 4-byte and compressed encodings so
/// the 2-byte-granular pc crosses both strides inside one block:
/// immediate materialisation (`lui`/`auipc`/`c.li`), ALU immediates and
/// register forms, shifts, sp-relative compressed loads/stores beside
/// the full-width ones, and a counted `bne` loop.
fn riscv_program() -> Vec<u8> {
    let head = riscv::Asm::new().c_li(14, 3);
    let loop_top = head.len() as i32;
    let body = head
        .c_li(10, 0x10)
        .addi(10, 10, 4)
        .c_addi(10, 1)
        .andi(11, 10, 0xFF)
        .ori(11, 11, 0x10)
        .xori(11, 11, 3)
        .slli(12, 11, 2)
        .srli(12, 12, 1)
        .c_slli(12, 1)
        .lui(13, 0x12000)
        .auipc(15, 0x1000)
        .add(12, 12, 11)
        .sub(12, 12, 10)
        .c_mv(5, 12)
        .c_add(5, 11)
        .sw(10, 2, -8)
        .lw(6, 2, -8)
        .sb(11, 2, -12)
        .lbu(7, 2, -12)
        .c_swsp(12, 0)
        .c_lwsp(28, 0)
        .c_addi4spn(9, 8)
        .addi(14, 14, -1);
    // Branch offsets are relative to the branch instruction itself.
    let rel = loop_top - body.len() as i32;
    body.bne(14, 0, rel)
        .jal(0, 4) // jump to the very next word
        .c_li(10, 9)
        .addi(17, 0, 93)
        .ecall()
        .finish()
}

/// x86/ARM/RISC-V programs agree across both dispatch tiers, for
/// every step budget from 1 up to past program exit — so budget
/// exhaustion lands on every possible op boundary, including inside
/// folded `AddImm` runs and between the halves of fused
/// `CmpBr`/`DecBr` ops.
#[test]
fn step_budget_parity_at_every_boundary() {
    for (arch, code) in [
        (Arch::X86, x86_program()),
        (Arch::Armv7, arm_program()),
        (Arch::Riscv, riscv_program()),
    ] {
        // Establish the total instruction count from per-insn dispatch.
        let mut full = boot(arch, &code);
        full.set_ir_dispatch_enabled(false);
        let outcome = full.run(100_000);
        assert_eq!(
            outcome,
            RunOutcome::Exited(if arch == Arch::X86 { 42 } else { 9 }),
            "{arch}: reference program must exit cleanly"
        );
        let total = full.insn_count();

        for budget in 1..=total + 2 {
            let mut prints: Vec<(&str, String)> = Vec::new();
            for (mode, ir_on) in MODES {
                let mut m = boot(arch, &code);
                m.set_ir_dispatch_enabled(ir_on);
                let out = m.run(budget);
                prints.push((
                    mode,
                    format!(
                        "{out:?}\npc={:#x} insns={} regs={:?}\n{:?}",
                        m.regs().pc(),
                        m.insn_count(),
                        m.regs(),
                        m.events()
                    ),
                ));
            }
            let (ref_mode, reference) = &prints[0];
            for (mode, fingerprint) in &prints[1..] {
                assert_eq!(
                    fingerprint, reference,
                    "{arch}/budget={budget}: {mode} diverged from {ref_mode}"
                );
            }
        }
    }
}

/// One [`mid_block_fault_parity`] program and the machine it runs on.
struct FaultCase {
    name: &'static str,
    code: Vec<u8>,
    /// Initial stack pointer.
    sp: u32,
    /// Permissions of the `[0x8000, 0x9000)` stack region.
    stack: Perms,
    /// Run the code from the stack base instead of `.text`.
    on_stack: bool,
    expected: fn(&RunOutcome) -> bool,
}

/// Faulting mid-block, and pushing or popping at the stack's edges,
/// must leave identical outcomes, fault details, pc, registers, stack
/// bytes and events across the tiers. Each access sits behind a folded
/// `inc` run so the IR reaches it mid-block.
#[test]
fn mid_block_fault_parity() {
    use X86Reg::{Eax, Ebx, Ecx, Esp};
    let run_up = || Asm::new().inc_r(Eax).inc_r(Eax);
    let exit_42 = |a: Asm| {
        a.xor_rr(Eax, Eax)
            .mov_r8_imm(Eax, 1)
            .mov_r_imm(Ebx, 42)
            .int80()
            .finish()
    };
    let crashes: fn(&RunOutcome) -> bool = |o| o.is_crash();
    let case = |name, code, sp, stack, expected| FaultCase {
        name,
        code,
        sp,
        stack,
        on_stack: false,
        expected,
    };
    // On an RWX stack, `push` overwrites the four `nop`s after it with
    // `inc ebx` x4: the block must be abandoned and re-decoded, so the
    // exit code is 44, not 40.
    let smc_head = Asm::new()
        .xor_rr(Eax, Eax)
        .mov_r8_imm(Eax, 1)
        .mov_r_imm(Ebx, 40)
        .inc_r(Ecx)
        .inc_r(Ecx)
        .push_imm(0x4343_4343);
    let smc_sp = 0x8000 + smc_head.len() as u32 + 4;
    let cases = [
        case(
            "store to unmapped memory",
            exit_42(
                Asm::new()
                    .mov_r_imm(Ebx, 0x4000_0000)
                    .inc_r(Eax)
                    .inc_r(Eax)
                    .mov_mem_r(Ebx, 0, Eax)
                    .nop(),
            ),
            0x8800,
            Perms::RW,
            crashes,
        ),
        case(
            "push below the stack region",
            exit_42(run_up().push_r(Eax).nop()),
            0x8000,
            Perms::RW,
            crashes,
        ),
        case(
            "pop past the stack top",
            exit_42(run_up().pop_r(Ecx).nop()),
            0x9000,
            Perms::RW,
            crashes,
        ),
        case(
            "push onto a read-only stack",
            exit_42(run_up().push_imm(7).nop()),
            0x8800,
            Perms::READ,
            crashes,
        ),
        case(
            "pop esp",
            run_up()
                .push_imm(0x8100)
                .pop_r(Esp)
                .push_r(Eax)
                .pop_r(Ecx)
                .mov_rr(Ebx, Esp)
                .xor_rr(Eax, Eax)
                .mov_r8_imm(Eax, 1)
                .int80()
                .finish(),
            0x8800,
            Perms::RW,
            |o| *o == RunOutcome::Exited(0x8100),
        ),
        FaultCase {
            on_stack: true,
            ..case(
                "push over the block's next instruction",
                smc_head.nop().nop().nop().nop().int80().finish(),
                smc_sp,
                Perms::RWX,
                |o| *o == RunOutcome::Exited(44),
            )
        },
    ];
    for c in &cases {
        let mut prints: Vec<(&str, String)> = Vec::new();
        for (mode, ir_on) in MODES {
            let mut m = boot(Arch::X86, &c.code);
            assert!(m.mem_mut().set_perms(0x8000, c.stack));
            if c.on_stack {
                m.mem_mut().poke(0x8000, &c.code).unwrap();
                m.regs_mut().set_pc(0x8000);
            }
            m.regs_mut().set_sp(c.sp);
            m.set_ir_dispatch_enabled(ir_on);
            let out = m.run(1_000);
            assert!((c.expected)(&out), "{}/{mode}: unexpected {out:?}", c.name);
            prints.push((
                mode,
                format!(
                    "{out:?}\npc={:#x} insns={} regs={:?}\nstack={:?}\n{:?}",
                    m.regs().pc(),
                    m.insn_count(),
                    m.regs(),
                    m.mem().read_bytes(0x8000, 0x1000, 0),
                    m.events()
                ),
            ));
        }
        let (ref_mode, reference) = &prints[0];
        for (mode, fingerprint) in &prints[1..] {
            assert_eq!(
                fingerprint, reference,
                "{}: {mode} diverged from {ref_mode}",
                c.name
            );
        }
    }
}

/// Mutating `.text` after a snapshot restore must orphan the lowered IR
/// blocks (generation bump), on top of the decode cache: the run
/// after the poke executes the *mutated* exit code, and a second
/// restore rewinds the mutation itself.
#[test]
fn text_mutation_after_snapshot_orphans_ir_blocks() {
    let code = x86_program();
    // The imm32 of `mov ebx, 42` sits one byte into the instruction,
    // 6 bytes before the end (int80 is 2, the mov is 5).
    let imm_off = (code.len() - 2 - 4) as u32;
    let mut m = boot(Arch::X86, &code);
    let snap = m.snapshot();
    assert_eq!(m.run(100_000), RunOutcome::Exited(42), "warms the IR cache");

    m.restore(&snap);
    m.mem_mut().poke(0x1000 + imm_off, &[43]).unwrap();
    assert_eq!(
        m.run(100_000),
        RunOutcome::Exited(43),
        "stale IR must not serve the old exit code"
    );

    m.restore(&snap);
    assert_eq!(
        m.run(100_000),
        RunOutcome::Exited(42),
        "restore must undo the .text write"
    );
}

/// Decodes the instruction at `pc` of a [`boot`]ed program: its length
/// and whether it is a control transfer (or trap), after which a basic
/// block ends whether or not the transfer is taken. ARM `pop` counts
/// too: it may load the pc, so blocks end there unconditionally.
fn decode_at(arch: Arch, code: &[u8], pc: u32) -> (u32, bool) {
    let bytes = &code[(pc - 0x1000) as usize..];
    match arch {
        Arch::X86 => {
            use x86::Insn::*;
            let (insn, len) = x86::decode(bytes).expect("program decodes");
            let ends = matches!(
                insn,
                Ret | RetImm16(_)
                    | CallRel32(_)
                    | CallRm(_)
                    | JmpRm(_)
                    | JmpRel8(_)
                    | JmpRel32(_)
                    | Jz8(_)
                    | Jnz8(_)
                    | Jz32(_)
                    | Jnz32(_)
                    | Int80
                    | Hlt
            );
            (len as u32, ends)
        }
        Arch::Armv7 => {
            use arm::Insn::*;
            let (insn, len) = arm::decode(bytes).expect("program decodes");
            let ends = matches!(
                insn,
                B { .. }
                    | BEq { .. }
                    | BNe { .. }
                    | Bl { .. }
                    | Bx { .. }
                    | Blx { .. }
                    | Pop { .. }
                    | Svc { .. }
            );
            (len as u32, ends)
        }
        Arch::Riscv => {
            use riscv::Insn::*;
            let (insn, len) = riscv::decode(bytes).expect("program decodes");
            let ends = matches!(
                insn,
                Jal { .. } | Jalr { .. } | Beq { .. } | Bne { .. } | Ecall | Ebreak
            );
            (len as u32, ends)
        }
    }
}

/// The coverage map IR dispatch must produce, derived from a
/// single-step run: one edge per basic-block entry, where a block
/// starts at the entry pc, after every control transfer or pc write,
/// and after 32 straight-line instructions (the block builder's cap).
fn block_entry_coverage(arch: Arch, code: &[u8]) -> Vec<u8> {
    const MAX_BLOCK: u32 = 32;
    let mut m = boot(arch, code);
    m.set_ir_dispatch_enabled(false);
    let mut cov = CoverageMap::new();
    let (mut entry, mut run) = (true, 0);
    loop {
        let pc = m.regs().pc();
        if entry || run == MAX_BLOCK {
            cov.note(pc);
            run = 0;
        }
        let (len, ends) = decode_at(arch, code, pc);
        run += 1;
        if !matches!(m.step(), Ok(None)) {
            break;
        }
        entry = ends || m.regs().pc() != pc.wrapping_add(len);
    }
    cov.bytes().to_vec()
}

/// IR dispatch notes one premixed edge per block entry: its map must
/// equal the block-entry map derived from a single-step run, byte for
/// byte, on all three ISAs.
#[test]
fn coverage_map_identical_ir_vs_insn_block_entries() {
    for (arch, code) in [
        (Arch::X86, x86_program()),
        (Arch::Armv7, arm_program()),
        (Arch::Riscv, riscv_program()),
    ] {
        let mut m = boot(arch, &code);
        m.set_coverage_enabled(true);
        let _ = m.run(100_000);
        assert_eq!(
            m.coverage().unwrap().bytes(),
            block_entry_coverage(arch, &code).as_slice(),
            "{arch}: IR coverage diverged from the single-step block entries"
        );
    }
}
