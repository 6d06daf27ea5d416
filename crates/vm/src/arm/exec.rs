//! A32 execution.

use cml_image::Addr;

use crate::hooks;
use crate::machine::{Machine, RunOutcome};
use crate::regs::ArmReg;
use crate::Fault;

use super::insn::{decode, reg_list, DecodeError, Insn};

fn illegal(m: &Machine, pc: Addr) -> Fault {
    let mut bytes = [0u8; 4];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = m.mem.read_u8(pc.wrapping_add(i as u32), pc).unwrap_or(0);
    }
    Fault::IllegalInstruction { pc, bytes }
}

/// Fetches and decodes the A32 word at `pc`, going through the
/// predecoded-instruction cache (a hit skips fetch and decode entirely;
/// the cache is push-invalidated by every write/permission path, so a
/// hit is valid by construction).
pub(crate) fn decode_at(m: &mut Machine, pc: Addr) -> Result<Insn, Fault> {
    match m.mem.dcache_get(pc) {
        Some(crate::dcache::CachedInsn::Arm(insn)) => Ok(insn),
        _ => {
            let mut window = [0u8; 4];
            let n = m.mem.fetch_into(pc, &mut window)?;
            let (insn, _) = match decode(&window[..n]) {
                Ok(v) => v,
                Err(DecodeError::Truncated) | Err(DecodeError::Unsupported(_)) => {
                    return Err(illegal(m, pc));
                }
            };
            m.mem
                .dcache_insert(pc, crate::dcache::CachedInsn::Arm(insn), 4);
            Ok(insn)
        }
    }
}

/// Whether `insn` terminates a decoded basic block: explicit branches,
/// returns, traps, and any data-processing/load form whose destination
/// is the pc.
pub(crate) fn ends_block(insn: &Insn) -> bool {
    match *insn {
        Insn::B { .. }
        | Insn::BEq { .. }
        | Insn::BNe { .. }
        | Insn::Bl { .. }
        | Insn::Bx { .. }
        | Insn::Blx { .. }
        | Insn::Pop { .. }
        | Insn::Svc { .. } => true,
        Insn::MovImm { rd, .. }
        | Insn::MvnImm { rd, .. }
        | Insn::MovReg { rd, .. }
        | Insn::AddImm { rd, .. }
        | Insn::SubImm { rd, .. }
        | Insn::OrrImm { rd, .. }
        | Insn::AndImm { rd, .. }
        | Insn::EorImm { rd, .. }
        | Insn::LslImm { rd, .. }
        | Insn::Ldr { rd, .. }
        | Insn::Ldrb { rd, .. } => rd == 15,
        Insn::CmpImm { .. } | Insn::Str { .. } | Insn::Strb { .. } | Insn::Push { .. } => false,
    }
}

/// Executes one A32 instruction at the current `pc`.
pub(crate) fn step(m: &mut Machine) -> Result<Option<RunOutcome>, Fault> {
    let pc = m.regs.pc();
    if !pc.is_multiple_of(4) {
        return Err(Fault::UnalignedFetch { pc });
    }
    let insn = decode_at(m, pc)?;
    exec_insn(m, insn, pc)
}

/// Executes an already-decoded instruction at `pc` — the semantic half
/// of [`step`], shared with the IR's `Exec` fallback op so both tiers
/// are one implementation.
pub(crate) fn exec_insn(
    m: &mut Machine,
    insn: Insn,
    pc: Addr,
) -> Result<Option<RunOutcome>, Fault> {
    let next = pc.wrapping_add(4);
    m.regs.set_pc(next);
    // Architectural pc reads as the *executing* instruction + 8, not the
    // already-advanced next pc.
    let get = move |m: &Machine, r: u8| {
        if r == 15 {
            pc.wrapping_add(8)
        } else {
            m.regs.arm().get(ArmReg(r))
        }
    };
    match insn {
        Insn::MovImm { rd, imm } => set_reg(m, rd, imm),
        Insn::MvnImm { rd, imm } => set_reg(m, rd, !imm),
        Insn::MovReg { rd, rm } => {
            let v = get(m, rm);
            set_reg(m, rd, v);
        }
        Insn::AddImm { rd, rn, imm } => {
            let v = get(m, rn).wrapping_add(imm);
            set_reg(m, rd, v);
        }
        Insn::SubImm { rd, rn, imm } => {
            let v = get(m, rn).wrapping_sub(imm);
            set_reg(m, rd, v);
        }
        Insn::OrrImm { rd, rn, imm } => {
            let v = get(m, rn) | imm;
            set_reg(m, rd, v);
        }
        Insn::AndImm { rd, rn, imm } => {
            let v = get(m, rn) & imm;
            set_reg(m, rd, v);
        }
        Insn::EorImm { rd, rn, imm } => {
            let v = get(m, rn) ^ imm;
            set_reg(m, rd, v);
        }
        Insn::LslImm { rd, rm, shift } => {
            let v = get(m, rm).wrapping_shl(shift as u32);
            set_reg(m, rd, v);
        }
        Insn::CmpImm { rn, imm } => {
            m.regs.arm_mut().zf = get(m, rn).wrapping_sub(imm) == 0;
        }
        Insn::Ldr { rd, rn, offset } => {
            let addr = get(m, rn).wrapping_add(offset as u32);
            let v = m.mem.read_u32(addr, pc)?;
            set_reg(m, rd, v);
        }
        Insn::Str { rd, rn, offset } => {
            let addr = get(m, rn).wrapping_add(offset as u32);
            let v = get(m, rd);
            m.mem.write_u32(addr, v, pc)?;
        }
        Insn::Ldrb { rd, rn, offset } => {
            let addr = get(m, rn).wrapping_add(offset as u32);
            let v = m.mem.read_u8(addr, pc)? as u32;
            set_reg(m, rd, v);
        }
        Insn::Strb { rd, rn, offset } => {
            let addr = get(m, rn).wrapping_add(offset as u32);
            let v = get(m, rd) as u8;
            m.mem.write_u8(addr, v, pc)?;
        }
        Insn::Push { list } => {
            let regs = reg_list(list);
            let sp = m.regs.sp().wrapping_sub(4 * regs.len() as u32);
            for (i, &r) in regs.iter().enumerate() {
                let v = get(m, r);
                m.mem.write_u32(sp.wrapping_add(4 * i as u32), v, pc)?;
            }
            m.regs.set_sp(sp);
        }
        Insn::Pop { list } => {
            let regs = reg_list(list);
            let sp = m.regs.sp();
            let mut pc_target = None;
            for (i, &r) in regs.iter().enumerate() {
                let v = m.mem.read_u32(sp.wrapping_add(4 * i as u32), pc)?;
                if r == 15 {
                    pc_target = Some(v);
                } else {
                    m.regs.arm_mut().set(ArmReg(r), v);
                }
            }
            m.regs.set_sp(sp.wrapping_add(4 * regs.len() as u32));
            if let Some(target) = pc_target {
                // `pop {…, pc}` is the function-return idiom: CFI treats
                // it as a return.
                m.ret_to(target & !1, pc)?;
            }
        }
        Insn::Bx { rm } => {
            let target = get(m, rm) & !1;
            if rm == 14 {
                // `bx lr` is the return idiom.
                m.ret_to(target, pc)?;
            } else {
                m.regs.set_pc(target);
            }
        }
        Insn::Blx { rm } => {
            let target = get(m, rm) & !1;
            m.regs.arm_mut().set(ArmReg::LR, next);
            m.shadow_push(next);
            m.regs.set_pc(target);
        }
        Insn::B { offset } => {
            m.regs
                .set_pc(pc.wrapping_add(8).wrapping_add(offset as u32));
        }
        Insn::BEq { offset } => {
            if m.regs.arm().zf {
                m.regs
                    .set_pc(pc.wrapping_add(8).wrapping_add(offset as u32));
            }
        }
        Insn::BNe { offset } => {
            if !m.regs.arm().zf {
                m.regs
                    .set_pc(pc.wrapping_add(8).wrapping_add(offset as u32));
            }
        }
        Insn::Bl { offset } => {
            m.regs.arm_mut().set(ArmReg::LR, next);
            m.shadow_push(next);
            m.regs
                .set_pc(pc.wrapping_add(8).wrapping_add(offset as u32));
        }
        Insn::Svc { .. } => return hooks::syscall_arm(m, pc),
    }
    Ok(None)
}

fn set_reg(m: &mut Machine, rd: u8, v: u32) {
    if rd == 15 {
        // Writing pc through data processing / ldr is an indirect branch.
        m.regs.arm_mut().set_pc(v & !1);
    } else {
        m.regs.arm_mut().set(ArmReg(rd), v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::Asm;
    use cml_image::{Arch, Perms, SectionKind};

    fn machine(code: Vec<u8>) -> Machine {
        let mut m = Machine::new(Arch::Armv7);
        m.mem.map(
            ".text",
            Some(SectionKind::Text),
            0x1_0000,
            0x1000,
            Perms::RX,
        );
        m.mem
            .map("data", Some(SectionKind::Data), 0x3_0000, 0x100, Perms::RW);
        m.mem.map(
            "stack",
            Some(SectionKind::Stack),
            0x7e00_0000,
            0x1000,
            Perms::RW,
        );
        m.mem.poke(0x1_0000, &code).unwrap();
        m.regs.set_pc(0x1_0000);
        m.regs.set_sp(0x7e00_0800);
        m
    }

    fn run_steps(m: &mut Machine, n: usize) {
        for _ in 0..n {
            assert!(m.step().unwrap().is_none(), "pc={:#x}", m.regs.pc());
        }
    }

    #[test]
    fn arithmetic_and_moves() {
        let code = Asm::new()
            .mov_imm(0, 40)
            .add_imm(0, 0, 2)
            .mov_reg(1, 0)
            .sub_imm(1, 1, 42)
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 4);
        assert_eq!(m.regs.arm().get(ArmReg(0)), 42);
        assert_eq!(m.regs.arm().get(ArmReg(1)), 0);
    }

    #[test]
    fn pc_relative_add_reads_plus_eight() {
        let code = Asm::new().add_imm(0, 15, 4).finish();
        let mut m = machine(code);
        run_steps(&mut m, 1);
        assert_eq!(m.regs.arm().get(ArmReg(0)), 0x1_0000 + 8 + 4);
    }

    #[test]
    fn push_pop_roundtrip_including_pc() {
        let code = Asm::new()
            .mov_imm(4, 0x99)
            .push(&[4, 14])
            .pop(&[5, 15])
            .finish();
        let mut m = machine(code);
        m.regs.arm_mut().set(ArmReg::LR, 0x1_0000); // lr = start
        run_steps(&mut m, 3);
        // pop {r5, pc}: r5 = 0x99 (old r4), pc = old lr.
        assert_eq!(m.regs.arm().get(ArmReg(5)), 0x99);
        assert_eq!(m.regs.pc(), 0x1_0000);
        assert_eq!(m.regs.sp(), 0x7e00_0800);
    }

    #[test]
    fn ldr_str() {
        let code = Asm::new()
            .mov_imm(1, 0x3_0000)
            .mov_imm(2, 0xAB)
            .str(2, 1, 8)
            .ldr(3, 1, 8)
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 4);
        assert_eq!(m.regs.arm().get(ArmReg(3)), 0xAB);
        assert_eq!(m.mem.read_u32(0x3_0008, 0).unwrap(), 0xAB);
    }

    #[test]
    fn blx_sets_lr_and_branches() {
        let code = Asm::new()
            .mov_imm(3, 0x1_0000)
            .add_imm(3, 3, 0x10)
            .blx(3)
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 3);
        assert_eq!(m.regs.pc(), 0x1_0010);
        assert_eq!(m.regs.arm().get(ArmReg::LR), 0x1_000C);
    }

    #[test]
    fn bl_and_bx_lr_roundtrip() {
        // 0x10000: bl +4 (target 0x1000c)
        // 0x10004: mov r0, #1   (returned here)
        // 0x10008: (never)
        // 0x1000c: bx lr
        let code = Asm::new().bl(4).mov_imm(0, 1).mov_imm(0, 2).bx(14).finish();
        let mut m = machine(code);
        run_steps(&mut m, 1);
        assert_eq!(m.regs.pc(), 0x1_000C);
        run_steps(&mut m, 1);
        assert_eq!(m.regs.pc(), 0x1_0004);
        run_steps(&mut m, 1);
        assert_eq!(m.regs.arm().get(ArmReg(0)), 1);
    }

    #[test]
    fn arm_execve_shellcode() {
        // add r0, pc, #16; mov r1, #0; mov r2, #0; mov r7, #11; svc 0;
        // then "/bin/sh\0" at pc+8+16 = start+24 (insn at start, so data
        // at offset 24; code is 20 bytes, pad 4).
        let code = Asm::new()
            .add_imm(0, 15, 16)
            .mov_imm(1, 0)
            .mov_imm(2, 0)
            .mov_imm(7, 11)
            .svc0()
            .word(0) // pad to offset 24
            .raw(b"/bin/sh\0")
            .finish();
        let mut m = machine(code);
        let out = m.run(10);
        assert!(out.is_root_shell(), "{out}");
        match out {
            RunOutcome::ShellSpawned(s) => {
                assert_eq!(s.program, "/bin/sh");
                assert_eq!(s.via, "execve");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn unaligned_pc_faults() {
        let mut m = machine(Asm::new().mov_reg(1, 1).finish());
        m.regs.set_pc(0x1_0002);
        assert_eq!(m.step(), Err(Fault::UnalignedFetch { pc: 0x1_0002 }));
    }

    #[test]
    fn cfi_blocks_hijacked_pop_pc() {
        let code = Asm::new().pop(&[15]).finish();
        let mut m = machine(code);
        m.enable_cfi();
        m.push_u32(0x1_0000).unwrap();
        assert!(matches!(m.step(), Err(Fault::CfiViolation { .. })));
    }

    #[test]
    fn cmp_sets_zero_flag() {
        let code = Asm::new().mov_imm(0, 5).cmp_imm(0, 5).finish();
        let mut m = machine(code);
        run_steps(&mut m, 2);
        assert!(m.regs.arm().zf);
    }
}
