//! IA-32 execution.

use cml_image::Addr;

use crate::hooks;
use crate::machine::{Machine, RunOutcome};
use crate::regs::X86Reg;
use crate::Fault;

use super::insn::{decode, DecodeError, Insn, Operand};

/// Longest instruction in the subset (opcode + ModRM + SIB + disp32 +
/// imm still stays well under 16).
const FETCH_WINDOW: usize = 16;

fn illegal(m: &Machine, pc: Addr) -> Fault {
    let mut bytes = [0u8; 4];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = m.mem.read_u8(pc.wrapping_add(i as u32), pc).unwrap_or(0);
    }
    Fault::IllegalInstruction { pc, bytes }
}

fn operand_addr(m: &Machine, base: Option<X86Reg>, disp: i32) -> Addr {
    let b = base.map_or(0, |r| m.regs.x86().get(r));
    b.wrapping_add(disp as u32)
}

fn read_operand(m: &Machine, op: Operand, pc: Addr) -> Result<u32, Fault> {
    match op {
        Operand::Reg(r) => Ok(m.regs.x86().get(r)),
        Operand::Mem { base, disp } => m.mem.read_u32(operand_addr(m, base, disp), pc),
    }
}

fn write_operand(m: &mut Machine, op: Operand, v: u32, pc: Addr) -> Result<(), Fault> {
    match op {
        Operand::Reg(r) => {
            m.regs.x86_mut().set(r, v);
            Ok(())
        }
        Operand::Mem { base, disp } => {
            let addr = operand_addr(m, base, disp);
            m.mem.write_u32(addr, v, pc)
        }
    }
}

/// Fetches and decodes the instruction at `pc`, going through the
/// predecoded-instruction cache (a hit skips fetch and decode entirely;
/// the cache is push-invalidated by every write/permission path, so a
/// hit is valid by construction).
pub(crate) fn decode_at(m: &mut Machine, pc: Addr) -> Result<(Insn, usize), Fault> {
    match m.mem.dcache_get(pc) {
        Some(crate::dcache::CachedInsn::X86(insn, len)) => Ok((insn, len as usize)),
        _ => {
            let mut window = [0u8; FETCH_WINDOW];
            let n = m.mem.fetch_into(pc, &mut window)?;
            let (insn, len) = match decode(&window[..n]) {
                Ok(v) => v,
                Err(DecodeError::Truncated) | Err(DecodeError::Unsupported(_)) => {
                    return Err(illegal(m, pc));
                }
            };
            m.mem.dcache_insert(
                pc,
                crate::dcache::CachedInsn::X86(insn, len as u8),
                len as u32,
            );
            Ok((insn, len))
        }
    }
}

/// Whether `insn` terminates a decoded basic block: anything that can set
/// the pc to something other than the fall-through address (the block
/// builder stops decoding here — the textbook basic-block boundary).
pub(crate) fn ends_block(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Ret
            | Insn::RetImm16(_)
            | Insn::CallRel32(_)
            | Insn::CallRm(_)
            | Insn::JmpRm(_)
            | Insn::JmpRel8(_)
            | Insn::JmpRel32(_)
            | Insn::Jz8(_)
            | Insn::Jnz8(_)
            | Insn::Jz32(_)
            | Insn::Jnz32(_)
            | Insn::Int80
            | Insn::Hlt
    )
}

/// Executes one x86 instruction at the current `eip`.
pub(crate) fn step(m: &mut Machine) -> Result<Option<RunOutcome>, Fault> {
    let pc = m.regs.pc();
    let (insn, len) = decode_at(m, pc)?;
    exec_insn(m, insn, len, pc)
}

/// Executes an already-decoded instruction of `len` encoded bytes at
/// `pc` — the semantic half of [`step`], shared with the IR's `Exec`
/// fallback op so both tiers are one implementation.
pub(crate) fn exec_insn(
    m: &mut Machine,
    insn: Insn,
    len: usize,
    pc: Addr,
) -> Result<Option<RunOutcome>, Fault> {
    let next = pc.wrapping_add(len as u32);
    // Default fall-through; control-flow instructions overwrite it below.
    m.regs.set_pc(next);
    match insn {
        Insn::Nop => {}
        Insn::PushR(r) => {
            let v = m.regs.x86().get(r);
            m.push_u32(v)?;
        }
        Insn::PopR(r) => {
            let v = m.pop_u32()?;
            m.regs.x86_mut().set(r, v);
        }
        Insn::PushImm(v) => m.push_u32(v)?,
        Insn::MovRImm(r, v) => m.regs.x86_mut().set(r, v),
        Insn::MovR8Imm(r, v) => {
            let old = m.regs.x86().get(r);
            m.regs.x86_mut().set(r, (old & 0xFFFF_FF00) | v as u32);
        }
        Insn::MovRmR { dst, src } => {
            let v = m.regs.x86().get(src);
            write_operand(m, dst, v, pc)?;
        }
        Insn::MovRRm { dst, src } => {
            let v = read_operand(m, src, pc)?;
            m.regs.x86_mut().set(dst, v);
        }
        Insn::XorRmR { dst, src } => {
            let v = read_operand(m, dst, pc)? ^ m.regs.x86().get(src);
            write_operand(m, dst, v, pc)?;
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::AddRmImm8 { dst, imm } => {
            let v = read_operand(m, dst, pc)?.wrapping_add(imm as i32 as u32);
            write_operand(m, dst, v, pc)?;
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::SubRmImm8 { dst, imm } => {
            let v = read_operand(m, dst, pc)?.wrapping_sub(imm as i32 as u32);
            write_operand(m, dst, v, pc)?;
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::CmpRmImm8 { dst, imm } => {
            let v = read_operand(m, dst, pc)?.wrapping_sub(imm as i32 as u32);
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::AddRmImm32 { dst, imm } => {
            let v = read_operand(m, dst, pc)?.wrapping_add(imm);
            write_operand(m, dst, v, pc)?;
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::SubRmImm32 { dst, imm } => {
            let v = read_operand(m, dst, pc)?.wrapping_sub(imm);
            write_operand(m, dst, v, pc)?;
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::CmpRmImm32 { dst, imm } => {
            let v = read_operand(m, dst, pc)?.wrapping_sub(imm);
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::AndRmR { dst, src } => {
            let v = read_operand(m, dst, pc)? & m.regs.x86().get(src);
            write_operand(m, dst, v, pc)?;
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::OrRmR { dst, src } => {
            let v = read_operand(m, dst, pc)? | m.regs.x86().get(src);
            write_operand(m, dst, v, pc)?;
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::CmpRmR { dst, src } => {
            let v = read_operand(m, dst, pc)?.wrapping_sub(m.regs.x86().get(src));
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::TestRmR { dst, src } => {
            let v = read_operand(m, dst, pc)? & m.regs.x86().get(src);
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::ShlRImm8 { reg, imm } => {
            let v = m.regs.x86().get(reg).wrapping_shl(imm as u32 & 31);
            m.regs.x86_mut().set(reg, v);
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::ShrRImm8 { reg, imm } => {
            let v = m.regs.x86().get(reg).wrapping_shr(imm as u32 & 31);
            m.regs.x86_mut().set(reg, v);
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::Lea { dst, src } => {
            let addr = match src {
                Operand::Mem { base, disp } => operand_addr(m, base, disp),
                Operand::Reg(_) => return Err(illegal(m, pc)),
            };
            m.regs.x86_mut().set(dst, addr);
        }
        Insn::XchgEaxR(r) => {
            let eax = m.regs.x86().get(X86Reg::Eax);
            let other = m.regs.x86().get(r);
            m.regs.x86_mut().set(X86Reg::Eax, other);
            m.regs.x86_mut().set(r, eax);
        }
        Insn::IncR(r) => {
            let v = m.regs.x86().get(r).wrapping_add(1);
            m.regs.x86_mut().set(r, v);
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::DecR(r) => {
            let v = m.regs.x86().get(r).wrapping_sub(1);
            m.regs.x86_mut().set(r, v);
            m.regs.x86_mut().zf = v == 0;
        }
        Insn::Ret => {
            let target = m.pop_u32()?;
            m.ret_to(target, pc)?;
        }
        Insn::RetImm16(n) => {
            let target = m.pop_u32()?;
            let sp = m.regs.sp();
            m.regs.set_sp(sp.wrapping_add(n as u32));
            m.ret_to(target, pc)?;
        }
        Insn::Leave => {
            let ebp = m.regs.x86().get(X86Reg::Ebp);
            m.regs.set_sp(ebp);
            let v = m.pop_u32()?;
            m.regs.x86_mut().set(X86Reg::Ebp, v);
        }
        Insn::CallRel32(rel) => {
            m.push_u32(next)?;
            m.shadow_push(next);
            m.regs.set_pc(next.wrapping_add(rel as u32));
        }
        Insn::CallRm(op) => {
            let target = read_operand(m, op, pc)?;
            m.push_u32(next)?;
            m.shadow_push(next);
            m.regs.set_pc(target);
        }
        Insn::JmpRm(op) => {
            let target = read_operand(m, op, pc)?;
            m.regs.set_pc(target);
        }
        Insn::JmpRel8(rel) => m.regs.set_pc(next.wrapping_add(rel as i32 as u32)),
        Insn::JmpRel32(rel) => m.regs.set_pc(next.wrapping_add(rel as u32)),
        Insn::Jz8(rel) => {
            if m.regs.x86().zf {
                m.regs.set_pc(next.wrapping_add(rel as i32 as u32));
            }
        }
        Insn::Jnz8(rel) => {
            if !m.regs.x86().zf {
                m.regs.set_pc(next.wrapping_add(rel as i32 as u32));
            }
        }
        Insn::Jz32(rel) => {
            if m.regs.x86().zf {
                m.regs.set_pc(next.wrapping_add(rel as u32));
            }
        }
        Insn::Jnz32(rel) => {
            if !m.regs.x86().zf {
                m.regs.set_pc(next.wrapping_add(rel as u32));
            }
        }
        Insn::Movzx8 { dst, src } => {
            let v = match src {
                Operand::Reg(r) => m.regs.x86().get(r) & 0xFF,
                Operand::Mem { base, disp } => {
                    m.mem.read_u8(operand_addr(m, base, disp), pc)? as u32
                }
            };
            m.regs.x86_mut().set(dst, v);
        }
        Insn::Int80 => return hooks::syscall_x86(m, pc),
        Insn::Hlt => return Err(illegal(m, pc)),
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x86::Asm;
    use cml_image::{Arch, Perms, SectionKind};

    fn machine(code: Vec<u8>) -> Machine {
        let mut m = Machine::new(Arch::X86);
        m.mem
            .map(".text", Some(SectionKind::Text), 0x1000, 0x1000, Perms::RX);
        m.mem
            .map("data", Some(SectionKind::Data), 0x3000, 0x100, Perms::RW);
        m.mem
            .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
        m.mem.poke(0x1000, &code).unwrap();
        m.regs.set_pc(0x1000);
        m.regs.set_sp(0x8800);
        m
    }

    fn run_steps(m: &mut Machine, n: usize) {
        for _ in 0..n {
            assert!(m.step().unwrap().is_none());
        }
    }

    #[test]
    fn mov_and_arith() {
        let code = Asm::new()
            .mov_r_imm(X86Reg::Eax, 10)
            .add_r_imm8(X86Reg::Eax, 5)
            .sub_r_imm8(X86Reg::Eax, 15)
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 3);
        assert_eq!(m.regs.x86().get(X86Reg::Eax), 0);
        assert!(m.regs.x86().zf);
    }

    #[test]
    fn memory_operands() {
        let code = Asm::new()
            .mov_r_imm(X86Reg::Ebx, 0x3000)
            .mov_r_imm(X86Reg::Eax, 0xCAFE)
            .mov_mem_r(X86Reg::Ebx, 4, X86Reg::Eax)
            .mov_r_mem(X86Reg::Ecx, X86Reg::Ebx, 4)
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 4);
        assert_eq!(m.regs.x86().get(X86Reg::Ecx), 0xCAFE);
        assert_eq!(m.mem.read_u32(0x3004, 0).unwrap(), 0xCAFE);
    }

    #[test]
    fn call_and_ret_pair() {
        // call +3 (skip hlt), hlt, then at target: ret back? Build:
        // 0x1000: call rel32 to 0x1008
        // 0x1005: nop nop nop
        // 0x1008: ret  -> returns to 0x1005
        let code = Asm::new().call_rel32(3).nop().nop().nop().ret().finish();
        let mut m = machine(code);
        run_steps(&mut m, 1);
        assert_eq!(m.regs.pc(), 0x1008);
        run_steps(&mut m, 1);
        assert_eq!(m.regs.pc(), 0x1005);
        assert_eq!(m.regs.sp(), 0x8800);
    }

    #[test]
    fn ret_imm16_cleans_stack() {
        let code = Asm::new().ret_imm16(8).finish();
        let mut m = machine(code);
        m.push_u32(0xAAAA).unwrap();
        m.push_u32(0xBBBB).unwrap();
        m.push_u32(0x1000).unwrap(); // return target
        run_steps(&mut m, 1);
        assert_eq!(m.regs.pc(), 0x1000);
        assert_eq!(m.regs.sp(), 0x8800);
    }

    #[test]
    fn conditional_jumps() {
        let code = Asm::new()
            .xor_rr(X86Reg::Eax, X86Reg::Eax) // zf = 1
            .jz_rel8(1)
            .hlt() // skipped
            .nop()
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 2);
        assert_eq!(m.regs.pc(), 0x1005);
        run_steps(&mut m, 1); // nop executes fine
    }

    #[test]
    fn jmp_indirect_via_register() {
        let code = Asm::new()
            .mov_r_imm(X86Reg::Eax, 0x1007)
            .jmp_r(X86Reg::Eax)
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 2);
        assert_eq!(m.regs.pc(), 0x1007);
    }

    #[test]
    fn plt_style_jmp_through_got() {
        // got slot at 0x3010 holds 0x1009; jmp [0x3010]
        let code = Asm::new().jmp_abs_mem(0x3010).finish();
        let mut m = machine(code);
        m.mem.write_u32(0x3010, 0x1009, 0).unwrap();
        run_steps(&mut m, 1);
        assert_eq!(m.regs.pc(), 0x1009);
    }

    #[test]
    fn leave_restores_frame() {
        let code = Asm::new().leave().finish();
        let mut m = machine(code);
        // Simulate a frame: ebp -> saved ebp on stack.
        m.push_u32(0xDEAD_0000).unwrap(); // saved ebp at 0x87FC
        m.regs.x86_mut().set(X86Reg::Ebp, 0x87FC);
        m.regs.set_sp(0x8700);
        run_steps(&mut m, 1);
        assert_eq!(m.regs.x86().get(X86Reg::Ebp), 0xDEAD_0000);
        assert_eq!(m.regs.sp(), 0x8800);
    }

    #[test]
    fn hlt_is_a_trap() {
        let code = Asm::new().hlt().finish();
        let mut m = machine(code);
        assert!(matches!(
            m.step(),
            Err(Fault::IllegalInstruction {
                pc: 0x1000,
                bytes: [0xF4, ..]
            })
        ));
    }

    #[test]
    fn fetch_from_unmapped_pc_reports_pc() {
        let mut m = machine(vec![0x90]);
        m.regs.set_pc(0x4141_4141);
        assert_eq!(m.step(), Err(Fault::UnmappedFetch { pc: 0x4141_4141 }));
    }
}
