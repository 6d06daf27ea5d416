//! The predecoded-instruction cache must never serve stale decodes:
//! self-modifying shellcode, permission flips and page-straddling
//! instructions all have to observe the current bytes, and a restore
//! that changes the hook set must drop exactly the lowered blocks the
//! change affects.

use cml_image::{Arch, Perms, SectionKind};
use cml_vm::{x86, Fault, LibcFn, Machine, MachineSnapshot, RunOutcome, X86Reg};

fn x86_machine(code: &[u8], perms: Perms) -> Machine {
    let mut m = Machine::new(Arch::X86);
    m.mem_mut()
        .map(".text", Some(SectionKind::Text), 0x1000, 0x2000, perms);
    m.mem_mut()
        .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
    m.mem_mut().poke(0x1000, code).unwrap();
    m.regs_mut().set_pc(0x1000);
    m.regs_mut().set_sp(0x8800);
    m
}

#[test]
fn repeat_execution_hits_the_cache() {
    let code = x86::Asm::new().mov_r_imm(X86Reg::Eax, 1).finish();
    let mut m = x86_machine(&code, Perms::RX);
    for _ in 0..10 {
        m.regs_mut().set_pc(0x1000);
        m.step().unwrap();
    }
    let (hits, misses) = m.decode_cache_stats();
    assert_eq!(misses, 1, "only the first visit decodes");
    assert_eq!(hits, 9, "every revisit is served from the cache");
}

#[test]
fn self_modifying_code_invalidates_cached_decode() {
    // mov eax, 1 on an RWX page (the code-injection scenario).
    let code = x86::Asm::new().mov_r_imm(X86Reg::Eax, 1).finish();
    let mut m = x86_machine(&code, Perms::RWX);
    m.step().unwrap();
    assert_eq!(m.regs().x86().get(X86Reg::Eax), 1);

    // The shellcode patches its own immediate: mov eax, 1 -> mov eax, 2.
    // A stale cache would keep executing the old constant.
    m.regs_mut().set_pc(0x1000);
    m.step().unwrap(); // warm the cache a second time
    m.mem_mut().write_u8(0x1001, 2, 0).unwrap();
    m.regs_mut().set_pc(0x1000);
    m.step().unwrap();
    assert_eq!(
        m.regs().x86().get(X86Reg::Eax),
        2,
        "patched byte must be decoded"
    );
}

#[test]
fn poke_invalidates_cached_decode() {
    let code = x86::Asm::new().mov_r_imm(X86Reg::Eax, 7).finish();
    let mut m = x86_machine(&code, Perms::RX);
    m.step().unwrap();
    assert_eq!(m.regs().x86().get(X86Reg::Eax), 7);

    // Debugger/loader-style poke ignores W but must still invalidate.
    let patched = x86::Asm::new().mov_r_imm(X86Reg::Eax, 0xBEEF).finish();
    m.mem_mut().poke(0x1000, &patched).unwrap();
    m.regs_mut().set_pc(0x1000);
    m.step().unwrap();
    assert_eq!(m.regs().x86().get(X86Reg::Eax), 0xBEEF);
}

#[test]
fn permission_flip_drops_cached_page() {
    let code = x86::Asm::new().nop().finish();
    let mut m = x86_machine(&code, Perms::RX);
    m.step().unwrap(); // cache the nop
    assert!(m.mem_mut().set_perms(0x1000, Perms::RW));
    m.regs_mut().set_pc(0x1000);
    assert!(
        matches!(m.step(), Err(Fault::NxViolation { pc: 0x1000, .. })),
        "a cached decode must not bypass a revoked X bit"
    );
}

#[test]
fn page_straddling_instruction_sees_writes_to_second_page() {
    // Place a 5-byte mov eax,imm32 so its immediate crosses the 4 KiB
    // page boundary at 0x2000 (region is 0x1000..0x3000).
    let code = x86::Asm::new().mov_r_imm(X86Reg::Eax, 0x11111111).finish();
    assert_eq!(code.len(), 5);
    let mut m = x86_machine(&[], Perms::RWX);
    m.mem_mut().poke(0x1FFE, &code).unwrap();
    m.regs_mut().set_pc(0x1FFE);
    m.step().unwrap();
    assert_eq!(m.regs().x86().get(X86Reg::Eax), 0x11111111);

    // Patch an immediate byte that lives on the *second* page.
    m.mem_mut().write_u8(0x2001, 0x22, 0).unwrap();
    m.regs_mut().set_pc(0x1FFE);
    m.step().unwrap();
    assert_ne!(m.regs().x86().get(X86Reg::Eax), 0x11111111);
}

#[test]
fn arm_self_modifying_word_is_not_stale() {
    use cml_vm::{arm, ArmReg};
    let mut m = Machine::new(Arch::Armv7);
    m.mem_mut().map(
        ".text",
        Some(SectionKind::Text),
        0x1_0000,
        0x1000,
        Perms::RWX,
    );
    m.mem_mut().map(
        "stack",
        Some(SectionKind::Stack),
        0x7e00_0000,
        0x1000,
        Perms::RW,
    );
    let code = arm::Asm::new().mov_imm(0, 5).finish();
    m.mem_mut().poke(0x1_0000, &code).unwrap();
    m.regs_mut().set_pc(0x1_0000);
    m.regs_mut().set_sp(0x7e00_0800);
    m.step().unwrap();
    assert_eq!(m.regs().arm().get(ArmReg(0)), 5);

    let patched = arm::Asm::new().mov_imm(0, 9).finish();
    for (i, b) in patched.iter().enumerate() {
        m.mem_mut().write_u8(0x1_0000 + i as u32, *b, 0).unwrap();
    }
    m.regs_mut().set_pc(0x1_0000);
    m.step().unwrap();
    assert_eq!(
        m.regs().arm().get(ArmReg(0)),
        9,
        "patched word must be decoded"
    );
}

/// One straight-line block at 0x1000 that ends in `jmp eax` to an
/// `exit` hook at 0x1100, with `exit(9)`'s frame on the stack, and the
/// snapshot of that state. `extra_hook` is registered afterwards and
/// captured in a second snapshot.
fn hook_machine(extra_hook: u32) -> (Machine, MachineSnapshot, MachineSnapshot) {
    let code = x86::Asm::new()
        .mov_r_imm(X86Reg::Eax, 1) // 0x1000
        .mov_r_imm(X86Reg::Ebx, 2) // 0x1005
        .mov_r_imm(X86Reg::Eax, 0x1100) // 0x100A
        .jmp_r(X86Reg::Eax) // 0x100F
        .finish();
    let mut m = x86_machine(&code, Perms::RX);
    m.mem_mut().poke(0x8800, &[0, 0, 0, 0, 9, 0, 0, 0]).unwrap();
    m.register_hook(0x1100, LibcFn::Exit);
    let plain = m.snapshot();
    m.register_hook(extra_hook, LibcFn::Exit);
    let hooked = m.snapshot();
    (m, plain, hooked)
}

#[test]
fn restoring_a_hook_inside_a_cached_block_enters_it() {
    let (mut m, plain, hooked) = hook_machine(0x1005);
    m.restore(&plain);
    assert_eq!(m.run(100), RunOutcome::Exited(9));
    assert_eq!(m.regs().x86().get(X86Reg::Ebx), 2, "the block ran through");

    // The snapshot's hook set adds 0x1005, inside the lowered block.
    m.restore(&hooked);
    assert_eq!(m.run(100), RunOutcome::Exited(9));
    assert_eq!(
        m.regs().x86().get(X86Reg::Ebx),
        0,
        "the run must stop at the new hook before `mov ebx, 2`"
    );
}

#[test]
fn a_hook_change_outside_a_cached_block_keeps_it() {
    // Same page as the block, well past the bytes it was built from.
    let (mut m, plain, hooked) = hook_machine(0x1080);
    m.restore(&plain);
    assert_eq!(m.run(100), RunOutcome::Exited(9));
    let (hits, misses) = m.decode_cache_stats();

    m.restore(&hooked);
    assert_eq!(m.run(100), RunOutcome::Exited(9));
    assert_eq!(m.regs().x86().get(X86Reg::Ebx), 2);
    let (hits_after, misses_after) = m.decode_cache_stats();
    assert!(hits_after > hits, "the lowered block served the run");
    assert_eq!(misses_after, misses, "nothing was decoded again");
}

#[test]
fn dropping_a_hook_just_past_a_cached_block_regrows_it() {
    // Under the hooked snapshot the block at 0x1000 stops before the
    // hook at 0x1005. Once a restore removes that hook the block must
    // be rebuilt to run on, as on a machine that never saw the hook:
    // coverage notes one edge per block entry, so a stale short block
    // would log an extra one.
    let run_plain = |m: &mut Machine, plain: &MachineSnapshot| {
        m.restore(plain);
        m.coverage_reset();
        assert_eq!(m.run(100), RunOutcome::Exited(9));
        m.coverage().expect("coverage is on").bytes().to_vec()
    };
    let (mut fresh, plain, _) = hook_machine(0x1005);
    fresh.set_coverage_enabled(true);
    let want = run_plain(&mut fresh, &plain);

    let (mut m, plain, hooked) = hook_machine(0x1005);
    m.set_coverage_enabled(true);
    m.restore(&hooked);
    assert_eq!(m.run(100), RunOutcome::Exited(9));
    assert_eq!(m.regs().x86().get(X86Reg::Ebx), 0, "the hook cut the block");
    assert_eq!(run_plain(&mut m, &plain), want);
}

/// `hook_machine`'s straight line, `exit(9)` frame and snapshots, with
/// the code on an RWX stack page instead, written only after each
/// restore (as an injected payload is). Returns the code too.
fn stack_code_machine(extra_hook: u32) -> (Machine, MachineSnapshot, MachineSnapshot, Vec<u8>) {
    let code = x86::Asm::new()
        .mov_r_imm(X86Reg::Eax, 1) // 0x8100
        .mov_r_imm(X86Reg::Ebx, 2) // 0x8105
        .mov_r_imm(X86Reg::Eax, 0x1100) // 0x810A
        .jmp_r(X86Reg::Eax) // 0x810F
        .finish();
    let mut m = x86_machine(&[], Perms::RX);
    assert!(m.mem_mut().set_perms(0x8000, Perms::RWX));
    m.mem_mut().poke(0x8800, &[0, 0, 0, 0, 9, 0, 0, 0]).unwrap();
    m.register_hook(0x1100, LibcFn::Exit);
    let plain = m.snapshot();
    m.register_hook(extra_hook, LibcFn::Exit);
    let hooked = m.snapshot();
    (m, plain, hooked, code)
}

/// Restores `snap`, applies `between`, writes `code` to 0x8100 and runs
/// it to `exit(9)`. Returns ebx and the instructions decoded.
fn run_stack_code(
    m: &mut Machine,
    snap: &MachineSnapshot,
    between: impl FnOnce(&mut Machine),
    code: &[u8],
) -> (u32, u64) {
    m.restore(snap);
    between(m);
    m.mem_mut().write_bytes(0x8100, code, 0).unwrap();
    m.regs_mut().set_pc(0x8100);
    let misses = m.decode_cache_stats().1;
    assert_eq!(m.run(100), RunOutcome::Exited(9));
    (
        m.regs().x86().get(X86Reg::Ebx),
        m.decode_cache_stats().1 - misses,
    )
}

#[test]
fn stack_code_written_back_after_a_restore_decodes_nothing() {
    let (mut m, plain, _, code) = stack_code_machine(0x2000);
    let (ebx, misses) = run_stack_code(&mut m, &plain, |_| {}, &code);
    assert!(ebx == 2 && misses > 0, "the first run decodes");
    let revived = run_stack_code(&mut m, &plain, |_| {}, &code);
    assert_eq!(revived, (2, 0), "the same bytes revive the block");

    // `mov ebx, 2` → `mov ebx, 3`: one byte differs from the run before.
    let mut changed = code.clone();
    changed[6] = 3;
    let (ebx, misses) = run_stack_code(&mut m, &plain, |_| {}, &changed);
    assert!(ebx == 3 && misses > 0, "a changed byte decodes afresh");
    assert_eq!(run_stack_code(&mut m, &plain, |_| {}, &code).0, 2);
}

#[test]
fn hook_registration_and_the_ir_switch_discard_stack_code_victims() {
    for name in ["register_hook", "IR off and on"] {
        let change = |m: &mut Machine| {
            if name == "register_hook" {
                m.register_hook(0x3000, LibcFn::Exit);
            } else {
                m.set_ir_dispatch_enabled(false);
                m.set_ir_dispatch_enabled(true);
            }
        };
        let (mut m, plain, _, code) = stack_code_machine(0x2000);
        run_stack_code(&mut m, &plain, |_| {}, &code);
        let (ebx, misses) = run_stack_code(&mut m, &plain, change, &code);
        assert!(ebx == 2 && misses > 0, "{name}: decoded {misses}");
    }
}

#[test]
fn a_hook_restored_inside_stack_code_cuts_the_revived_block() {
    let (mut m, plain, hooked, code) = stack_code_machine(0x8105);
    assert_eq!(run_stack_code(&mut m, &plain, |_| {}, &code).0, 2);
    // The hooked snapshot adds a hook before `mov ebx, 2`: the block
    // that ran through it must not come back.
    assert_eq!(run_stack_code(&mut m, &hooked, |_| {}, &code).0, 0);
    assert_eq!(run_stack_code(&mut m, &plain, |_| {}, &code).0, 2);
}
