//! RV32IC execution.

use cml_image::Addr;

use crate::hooks;
use crate::machine::{Machine, RunOutcome};
use crate::regs::RiscvReg;
use crate::Fault;

use super::insn::{decode, DecodeError, Insn};

fn illegal(m: &Machine, pc: Addr) -> Fault {
    let mut bytes = [0u8; 4];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = m.mem.read_u8(pc.wrapping_add(i as u32), pc).unwrap_or(0);
    }
    Fault::IllegalInstruction { pc, bytes }
}

/// Fetches and decodes the instruction at `pc` (2-byte compressed
/// parcel or 4-byte base word), going through the predecoded
/// instruction cache. Because `pc` only needs 2-byte alignment, the
/// same text bytes can cache *two* decodings at once — the aligned
/// stream and a misaligned stream entering the middle of a 4-byte
/// instruction — which is exactly what RVC-aware gadget scanning
/// exploits.
pub(crate) fn decode_at(m: &mut Machine, pc: Addr) -> Result<(Insn, usize), Fault> {
    match m.mem.dcache_get(pc) {
        Some(crate::dcache::CachedInsn::Riscv(insn, len)) => Ok((insn, len as usize)),
        _ => {
            let mut window = [0u8; 4];
            let n = m.mem.fetch_into(pc, &mut window)?;
            let (insn, len) = match decode(&window[..n]) {
                Ok(v) => v,
                Err(DecodeError::Truncated) | Err(DecodeError::Unsupported(_)) => {
                    return Err(illegal(m, pc));
                }
            };
            m.mem.dcache_insert(
                pc,
                crate::dcache::CachedInsn::Riscv(insn, len as u8),
                len as u32,
            );
            Ok((insn, len))
        }
    }
}

/// Whether `insn` terminates a decoded basic block: jumps, branches, and
/// traps. Straight-line ALU/memory forms never redirect the pc on
/// RISC-V (x0-writes are discarded, not branches), so everything else
/// falls through.
pub(crate) fn ends_block(insn: &Insn) -> bool {
    matches!(
        *insn,
        Insn::Jal { .. }
            | Insn::Jalr { .. }
            | Insn::Beq { .. }
            | Insn::Bne { .. }
            | Insn::Ecall
            | Insn::Ebreak
    )
}

/// Executes one RV32IC instruction at the current `pc`.
pub(crate) fn step(m: &mut Machine) -> Result<Option<RunOutcome>, Fault> {
    let pc = m.regs.pc();
    // IALIGN=16 with the C extension: odd pcs fault, but pc % 4 == 2 is
    // a legal fetch address.
    if !pc.is_multiple_of(2) {
        return Err(Fault::UnalignedFetch { pc });
    }
    let (insn, len) = decode_at(m, pc)?;
    exec_insn(m, insn, len, pc)
}

/// Executes an already-decoded instruction of encoded length `len` at
/// `pc` — the semantic half of [`step`], shared with the IR's `Exec`
/// fallback op so both tiers are one implementation.
pub(crate) fn exec_insn(
    m: &mut Machine,
    insn: Insn,
    len: usize,
    pc: Addr,
) -> Result<Option<RunOutcome>, Fault> {
    let next = pc.wrapping_add(len as u32);
    m.regs.set_pc(next);
    let get = |m: &Machine, r: u8| m.regs.riscv().get(RiscvReg(r));
    let set = |m: &mut Machine, r: u8, v: u32| m.regs.riscv_mut().set(RiscvReg(r), v);
    match insn {
        Insn::Lui { rd, imm } => set(m, rd, imm),
        Insn::Auipc { rd, imm } => set(m, rd, pc.wrapping_add(imm)),
        Insn::Jal { rd, offset } => {
            // rd=1 is the call idiom: record the link on the shadow
            // stack so the matching return is CFI-checked.
            set(m, rd, next);
            if rd == 1 {
                m.shadow_push(next);
            }
            m.regs.set_pc(pc.wrapping_add(offset as u32));
        }
        Insn::Jalr { rd, rs1, offset } => {
            let target = get(m, rs1).wrapping_add(offset as u32) & !1;
            if rd == 0 && rs1 == 1 && offset == 0 {
                // `jalr x0, 0(ra)` / `c.jr ra` — the `ret` idiom CFI
                // enforces.
                m.ret_to(target, pc)?;
            } else {
                set(m, rd, next);
                if rd == 1 {
                    m.shadow_push(next);
                }
                m.regs.set_pc(target);
            }
        }
        Insn::Beq { rs1, rs2, offset } => {
            if get(m, rs1) == get(m, rs2) {
                m.regs.set_pc(pc.wrapping_add(offset as u32));
            }
        }
        Insn::Bne { rs1, rs2, offset } => {
            if get(m, rs1) != get(m, rs2) {
                m.regs.set_pc(pc.wrapping_add(offset as u32));
            }
        }
        Insn::Lw { rd, rs1, offset } => {
            let addr = get(m, rs1).wrapping_add(offset as u32);
            let v = m.mem.read_u32(addr, pc)?;
            set(m, rd, v);
        }
        Insn::Lbu { rd, rs1, offset } => {
            let addr = get(m, rs1).wrapping_add(offset as u32);
            let v = m.mem.read_u8(addr, pc)? as u32;
            set(m, rd, v);
        }
        Insn::Sw { rs2, rs1, offset } => {
            let addr = get(m, rs1).wrapping_add(offset as u32);
            let v = get(m, rs2);
            m.mem.write_u32(addr, v, pc)?;
        }
        Insn::Sb { rs2, rs1, offset } => {
            let addr = get(m, rs1).wrapping_add(offset as u32);
            let v = get(m, rs2) as u8;
            m.mem.write_u8(addr, v, pc)?;
        }
        Insn::Addi { rd, rs1, imm } => {
            let v = get(m, rs1).wrapping_add(imm as u32);
            set(m, rd, v);
        }
        Insn::Andi { rd, rs1, imm } => {
            let v = get(m, rs1) & imm as u32;
            set(m, rd, v);
        }
        Insn::Ori { rd, rs1, imm } => {
            let v = get(m, rs1) | imm as u32;
            set(m, rd, v);
        }
        Insn::Xori { rd, rs1, imm } => {
            let v = get(m, rs1) ^ imm as u32;
            set(m, rd, v);
        }
        Insn::Slli { rd, rs1, shamt } => {
            let v = get(m, rs1).wrapping_shl(shamt as u32);
            set(m, rd, v);
        }
        Insn::Srli { rd, rs1, shamt } => {
            let v = get(m, rs1).wrapping_shr(shamt as u32);
            set(m, rd, v);
        }
        Insn::Add { rd, rs1, rs2 } => {
            let v = get(m, rs1).wrapping_add(get(m, rs2));
            set(m, rd, v);
        }
        Insn::Sub { rd, rs1, rs2 } => {
            let v = get(m, rs1).wrapping_sub(get(m, rs2));
            set(m, rd, v);
        }
        Insn::Ecall => return hooks::syscall_riscv(m, pc),
        // Like x86 `hlt`: a trapping filler, reported as illegal.
        Insn::Ebreak => return Err(illegal(m, pc)),
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::riscv::Asm;
    use cml_image::{Arch, Perms, SectionKind};

    fn machine(code: Vec<u8>) -> Machine {
        let mut m = Machine::new(Arch::Riscv);
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

    fn x(m: &Machine, r: u8) -> u32 {
        m.regs.riscv().get(RiscvReg(r))
    }

    #[test]
    fn arithmetic_and_moves() {
        let code = Asm::new()
            .addi(10, 0, 40)
            .addi(10, 10, 2)
            .c_mv(11, 10)
            .addi(11, 11, -42)
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 4);
        assert_eq!(x(&m, 10), 42);
        assert_eq!(x(&m, 11), 0);
    }

    #[test]
    fn x0_writes_are_discarded() {
        let code = Asm::new().addi(0, 0, 123).c_li(0, 7).finish();
        let mut m = machine(code);
        run_steps(&mut m, 2);
        assert_eq!(x(&m, 0), 0);
    }

    #[test]
    fn auipc_reads_executing_pc() {
        // Mix a 2-byte parcel before the auipc so the executing pc is
        // 0x1_0002 — auipc must see the *current* pc, not an aligned one.
        let code = Asm::new().c_nop().auipc(10, 0x1000).finish();
        let mut m = machine(code);
        run_steps(&mut m, 2);
        assert_eq!(x(&m, 10), 0x1_0002 + 0x1000);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let code = Asm::new()
            .lui(5, 0x3_0000)
            .addi(6, 0, 0xAB)
            .sw(6, 5, 8)
            .lw(7, 5, 8)
            .sb(6, 5, 12)
            .lbu(8, 5, 12)
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 6);
        assert_eq!(x(&m, 7), 0xAB);
        assert_eq!(x(&m, 8), 0xAB);
        assert_eq!(m.mem.read_u32(0x3_0008, 0).unwrap(), 0xAB);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        // 0x10000: jal ra, +8 → 0x10008
        // 0x10004: addi a0, x0, 1   (returned here)
        // 0x10008: ret (c.jr ra)
        let code = Asm::new().jal(1, 8).addi(10, 0, 1).c_ret().finish();
        let mut m = machine(code);
        run_steps(&mut m, 1);
        assert_eq!(m.regs.pc(), 0x1_0008);
        assert_eq!(x(&m, 1), 0x1_0004);
        run_steps(&mut m, 1);
        assert_eq!(m.regs.pc(), 0x1_0004);
        run_steps(&mut m, 1);
        assert_eq!(x(&m, 10), 1);
    }

    #[test]
    fn branches_compare_registers() {
        let code = Asm::new()
            .addi(10, 0, 5)
            .addi(11, 0, 5)
            .beq(10, 11, 8) // taken → skips the next insn
            .addi(12, 0, 99) // skipped
            .bne(10, 11, 8) // not taken
            .addi(13, 0, 7)
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 5);
        assert_eq!(x(&m, 12), 0);
        assert_eq!(x(&m, 13), 7);
    }

    #[test]
    fn compressed_and_wide_streams_interleave() {
        let code = Asm::new()
            .c_li(10, 3)
            .slli(10, 10, 4)
            .c_addi(10, 2)
            .finish();
        let mut m = machine(code);
        run_steps(&mut m, 3);
        assert_eq!(x(&m, 10), 50);
        // 2 + 4 + 2 bytes consumed.
        assert_eq!(m.regs.pc(), 0x1_0008);
    }

    #[test]
    fn riscv_execve_shellcode() {
        // auipc a0, 0; addi a0, a0, 20; li a1, 0; li a2, 0; li a7, 221;
        // ecall; then "/bin/sh\0" at start+20.
        let code = Asm::new()
            .auipc(10, 0)
            .addi(10, 10, 20)
            .c_li(11, 0)
            .c_li(12, 0)
            .addi(17, 0, 221)
            .ecall()
            .raw(b"/bin/sh\0")
            .finish();
        assert_eq!(code.len(), 20 + 8);
        let mut m = machine(code);
        let out = m.run(10);
        assert!(out.is_root_shell(), "{out}");
        match out {
            RunOutcome::ShellSpawned(s) => {
                assert_eq!(s.program(), "/bin/sh");
                assert_eq!(s.via, "execve");
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn exit_syscall_terminates() {
        let code = Asm::new().addi(10, 0, 3).addi(17, 0, 93).ecall().finish();
        let mut m = machine(code);
        let out = m.run(10);
        assert_eq!(out, RunOutcome::Exited(3));
    }

    #[test]
    fn odd_pc_faults_but_halfword_pc_executes() {
        let mut m = machine(Asm::new().c_nop().c_nop().finish());
        m.regs.set_pc(0x1_0001);
        assert_eq!(m.step(), Err(Fault::UnalignedFetch { pc: 0x1_0001 }));
        // pc % 4 == 2 is legal with the C extension.
        m.regs.set_pc(0x1_0002);
        assert!(m.step().unwrap().is_none());
        assert_eq!(m.regs.pc(), 0x1_0004);
    }

    #[test]
    fn misaligned_decode_inside_wide_insn_is_a_different_stream() {
        // lui a0, 0x77e00 → bytes 37 05 e0 77. Entering at +2 sees
        // e0 77 …: parcel 0x77e0 (quadrant 0, funct3=011) is outside the
        // subset → illegal, but crucially it is *decoded as its own
        // stream*, not rejected for alignment.
        let code = Asm::new().lui(10, 0x77e0_0000).c_ret().finish();
        let mut m = machine(code);
        m.regs.set_pc(0x1_0002);
        let err = m.step().unwrap_err();
        assert!(
            matches!(err, Fault::IllegalInstruction { pc: 0x1_0002, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn cfi_blocks_hijacked_ret() {
        let code = Asm::new().c_ret().finish();
        let mut m = machine(code);
        m.enable_cfi();
        m.regs.riscv_mut().set(RiscvReg::RA, 0x3_0000);
        assert!(matches!(m.step(), Err(Fault::CfiViolation { .. })));
    }

    #[test]
    fn ebreak_traps() {
        let mut m = machine(Asm::new().c_ebreak().finish());
        assert!(matches!(
            m.step(),
            Err(Fault::IllegalInstruction { pc: 0x1_0000, .. })
        ));
    }
}
