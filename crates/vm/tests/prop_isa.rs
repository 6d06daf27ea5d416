//! Property tests over the three instruction sets: everything the
//! assemblers can emit, the decoders must round-trip; decoding arbitrary
//! bytes must be total (no panics) and report honest lengths.

use proptest::prelude::*;

use cml_vm::{arm, riscv, x86, X86Reg};

/// A recipe for one x86 instruction, generatable by proptest.
#[derive(Debug, Clone)]
enum XInsn {
    Nop,
    PushR(u8),
    PopR(u8),
    PushImm(u32),
    MovRImm(u8, u32),
    MovR8Imm(u8, u8),
    MovRR(u8, u8),
    XorRR(u8, u8),
    AndRR(u8, u8),
    OrRR(u8, u8),
    CmpRR(u8, u8),
    TestRR(u8, u8),
    ShlImm(u8, u8),
    ShrImm(u8, u8),
    Lea(u8, u8, i8),
    AddImm8(u8, i8),
    SubImm8(u8, i8),
    CmpImm8(u8, i8),
    IncR(u8),
    DecR(u8),
    Ret,
    RetImm16(u16),
    Leave,
    CallRel(i32),
    CallR(u8),
    JmpR(u8),
    JmpRel8(i8),
    Jz(i8),
    Jnz(i8),
    Jz32(i32),
    Jnz32(i32),
    Movzx8(u8, u8),
    Int80,
    Hlt,
    MovMemR(u8, i8, u8),
    MovRMem(u8, u8, i8),
    MovRAbs(u8, u32),
    XchgEax(u8),
}

fn reg(bits: u8) -> X86Reg {
    X86Reg::from_bits(bits)
}

fn x_strategy() -> impl Strategy<Value = XInsn> {
    let r = 0u8..8;
    prop_oneof![
        Just(XInsn::Nop),
        r.clone().prop_map(XInsn::PushR),
        r.clone().prop_map(XInsn::PopR),
        any::<u32>().prop_map(XInsn::PushImm),
        (r.clone(), any::<u32>()).prop_map(|(a, b)| XInsn::MovRImm(a, b)),
        (r.clone(), any::<u8>()).prop_map(|(a, b)| XInsn::MovR8Imm(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::MovRR(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::XorRR(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::AndRR(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::OrRR(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::CmpRR(a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::TestRR(a, b)),
        (r.clone(), 0u8..32).prop_map(|(a, b)| XInsn::ShlImm(a, b)),
        (r.clone(), 0u8..32).prop_map(|(a, b)| XInsn::ShrImm(a, b)),
        (r.clone(), r.clone(), any::<i8>()).prop_map(|(a, b, c)| XInsn::Lea(a, b, c)),
        (r.clone(), any::<i8>()).prop_map(|(a, b)| XInsn::AddImm8(a, b)),
        (r.clone(), any::<i8>()).prop_map(|(a, b)| XInsn::SubImm8(a, b)),
        (r.clone(), any::<i8>()).prop_map(|(a, b)| XInsn::CmpImm8(a, b)),
        r.clone().prop_map(XInsn::IncR),
        r.clone().prop_map(XInsn::DecR),
        Just(XInsn::Ret),
        any::<u16>().prop_map(XInsn::RetImm16),
        Just(XInsn::Leave),
        any::<i32>().prop_map(XInsn::CallRel),
        r.clone().prop_map(XInsn::CallR),
        r.clone().prop_map(XInsn::JmpR),
        any::<i8>().prop_map(XInsn::JmpRel8),
        any::<i8>().prop_map(XInsn::Jz),
        any::<i8>().prop_map(XInsn::Jnz),
        any::<i32>().prop_map(XInsn::Jz32),
        any::<i32>().prop_map(XInsn::Jnz32),
        (r.clone(), r.clone()).prop_map(|(a, b)| XInsn::Movzx8(a, b)),
        Just(XInsn::Int80),
        Just(XInsn::Hlt),
        (r.clone(), any::<i8>(), r.clone()).prop_map(|(a, b, c)| XInsn::MovMemR(a, b, c)),
        (r.clone(), r.clone(), any::<i8>()).prop_map(|(a, b, c)| XInsn::MovRMem(a, b, c)),
        (r.clone(), any::<u32>()).prop_map(|(a, b)| XInsn::MovRAbs(a, b)),
        (1u8..8).prop_map(XInsn::XchgEax),
    ]
}

fn assemble_x86(insns: &[XInsn]) -> Vec<u8> {
    let mut a = x86::Asm::new();
    for i in insns {
        a = match *i {
            XInsn::Nop => a.nop(),
            XInsn::PushR(r0) => a.push_r(reg(r0)),
            XInsn::PopR(r0) => a.pop_r(reg(r0)),
            XInsn::PushImm(v) => a.push_imm(v),
            XInsn::MovRImm(r0, v) => a.mov_r_imm(reg(r0), v),
            XInsn::MovR8Imm(r0, v) => a.mov_r8_imm(reg(r0), v),
            XInsn::MovRR(d, s) => a.mov_rr(reg(d), reg(s)),
            XInsn::XorRR(d, s) => a.xor_rr(reg(d), reg(s)),
            XInsn::AndRR(d, s) => a.and_rr(reg(d), reg(s)),
            XInsn::OrRR(d, s) => a.or_rr(reg(d), reg(s)),
            XInsn::CmpRR(d, s) => a.cmp_rr(reg(d), reg(s)),
            XInsn::TestRR(d, s) => a.test_rr(reg(d), reg(s)),
            XInsn::ShlImm(r0, v) => a.shl_r_imm8(reg(r0), v),
            XInsn::ShrImm(r0, v) => a.shr_r_imm8(reg(r0), v),
            XInsn::Lea(d, b, disp) => a.lea(reg(d), reg(b), disp),
            XInsn::AddImm8(r0, v) => a.add_r_imm8(reg(r0), v),
            XInsn::SubImm8(r0, v) => a.sub_r_imm8(reg(r0), v),
            XInsn::CmpImm8(r0, v) => a.cmp_r_imm8(reg(r0), v),
            XInsn::IncR(r0) => a.inc_r(reg(r0)),
            XInsn::DecR(r0) => a.dec_r(reg(r0)),
            XInsn::Ret => a.ret(),
            XInsn::RetImm16(v) => a.ret_imm16(v),
            XInsn::Leave => a.leave(),
            XInsn::CallRel(v) => a.call_rel32(v),
            XInsn::CallR(r0) => a.call_r(reg(r0)),
            XInsn::JmpR(r0) => a.jmp_r(reg(r0)),
            XInsn::JmpRel8(v) => a.jmp_rel8(v),
            XInsn::Jz(v) => a.jz_rel8(v),
            XInsn::Jnz(v) => a.jnz_rel8(v),
            XInsn::Jz32(v) => a.jz_rel32(v),
            XInsn::Jnz32(v) => a.jnz_rel32(v),
            XInsn::Movzx8(d, s) => a.movzx_rr8(reg(d), reg(s)),
            XInsn::Int80 => a.int80(),
            XInsn::Hlt => a.hlt(),
            XInsn::MovMemR(b, disp, s) => a.mov_mem_r(reg(b), disp, reg(s)),
            XInsn::MovRMem(d, b, disp) => a.mov_r_mem(reg(d), reg(b), disp),
            XInsn::MovRAbs(d, addr) => a.mov_r_abs(reg(d), addr),
            XInsn::XchgEax(r0) => a.xchg_eax_r(reg(r0)),
        };
    }
    a.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Assembled x86 streams decode instruction-by-instruction, consuming
    /// every byte exactly.
    #[test]
    fn x86_streams_roundtrip(insns in proptest::collection::vec(x_strategy(), 1..24)) {
        let bytes = assemble_x86(&insns);
        let mut pos = 0usize;
        let mut count = 0usize;
        while pos < bytes.len() {
            let (_, len) = x86::decode(&bytes[pos..])
                .unwrap_or_else(|e| panic!("{e} at {pos} in {bytes:02x?}"));
            prop_assert!(len > 0);
            pos += len;
            count += 1;
        }
        prop_assert_eq!(pos, bytes.len());
        prop_assert_eq!(count, insns.len());
    }

    /// The near conditional branches and `movzx` decode back to their
    /// own forms, operands and lengths (6, 6 and 3 bytes).
    #[test]
    fn x86_near_branches_and_movzx_decode_to_their_forms(
        rel in any::<i32>(),
        d in 0u8..8,
        s in 0u8..8,
    ) {
        let jz = x86::Asm::new().jz_rel32(rel).finish();
        prop_assert_eq!(x86::decode(&jz).unwrap(), (x86::Insn::Jz32(rel), 6));
        let jnz = x86::Asm::new().jnz_rel32(rel).finish();
        prop_assert_eq!(x86::decode(&jnz).unwrap(), (x86::Insn::Jnz32(rel), 6));
        let movzx = x86::Asm::new().movzx_rr8(reg(d), reg(s)).finish();
        let want = x86::Insn::Movzx8 { dst: reg(d), src: x86::Operand::Reg(reg(s)) };
        prop_assert_eq!(x86::decode(&movzx).unwrap(), (want, 3));
    }

    /// x86 decode is total: arbitrary bytes either decode with an honest
    /// length or produce a typed error — never a panic, never a length
    /// beyond the input.
    #[test]
    fn x86_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..32)) {
        if let Ok((_, len)) = x86::decode(&bytes) { prop_assert!(len > 0 && len <= bytes.len()) }
    }

    /// ARM decode is total as well.
    #[test]
    fn arm_decode_total(word in any::<u32>()) {
        if let Ok((_, len)) = arm::decode(&word.to_le_bytes()) { prop_assert_eq!(len, 4) }
    }
}

/// A recipe for one A32 instruction.
#[derive(Debug, Clone)]
enum AInsn {
    MovImm(u8, u8),
    MvnImm(u8, u8),
    MovReg(u8, u8),
    AddImm(u8, u8, u8),
    SubImm(u8, u8, u8),
    OrrImm(u8, u8, u8),
    AndImm(u8, u8, u8),
    EorImm(u8, u8, u8),
    Lsl(u8, u8, u8),
    CmpImm(u8, u8),
    Ldr(u8, u8, i16),
    Str(u8, u8, i16),
    Ldrb(u8, u8, i16),
    Strb(u8, u8, i16),
    Push(u16),
    Pop(u16),
    Bx(u8),
    Blx(u8),
    B(i16),
    Bl(i16),
    Beq(i16),
    Bne(i16),
    Svc,
}

fn a_strategy() -> impl Strategy<Value = AInsn> {
    let r = 0u8..16;
    let rlo = 0u8..15; // exclude pc where it would be a branch
    let off = -1024i16..1024;
    prop_oneof![
        (rlo.clone(), any::<u8>()).prop_map(|(a, b)| AInsn::MovImm(a, b)),
        (rlo.clone(), any::<u8>()).prop_map(|(a, b)| AInsn::MvnImm(a, b)),
        (rlo.clone(), r.clone()).prop_map(|(a, b)| AInsn::MovReg(a, b)),
        (rlo.clone(), r.clone(), any::<u8>()).prop_map(|(a, b, c)| AInsn::AddImm(a, b, c)),
        (rlo.clone(), r.clone(), any::<u8>()).prop_map(|(a, b, c)| AInsn::SubImm(a, b, c)),
        (rlo.clone(), r.clone(), any::<u8>()).prop_map(|(a, b, c)| AInsn::OrrImm(a, b, c)),
        (rlo.clone(), r.clone(), any::<u8>()).prop_map(|(a, b, c)| AInsn::AndImm(a, b, c)),
        (rlo.clone(), r.clone(), any::<u8>()).prop_map(|(a, b, c)| AInsn::EorImm(a, b, c)),
        (rlo.clone(), r.clone(), 1u8..32).prop_map(|(a, b, c)| AInsn::Lsl(a, b, c)),
        (r.clone(), any::<u8>()).prop_map(|(a, b)| AInsn::CmpImm(a, b)),
        (rlo.clone(), r.clone(), off.clone()).prop_map(|(a, b, c)| AInsn::Ldr(a, b, c)),
        (rlo.clone(), r.clone(), off.clone()).prop_map(|(a, b, c)| AInsn::Str(a, b, c)),
        (rlo.clone(), r.clone(), off.clone()).prop_map(|(a, b, c)| AInsn::Ldrb(a, b, c)),
        (rlo.clone(), r.clone(), off.clone()).prop_map(|(a, b, c)| AInsn::Strb(a, b, c)),
        (1u16..0x8000).prop_map(AInsn::Push),
        (1u16..0xFFFF).prop_map(AInsn::Pop),
        r.clone().prop_map(AInsn::Bx),
        r.clone().prop_map(AInsn::Blx),
        off.clone().prop_map(AInsn::B),
        off.clone().prop_map(AInsn::Bl),
        off.clone().prop_map(AInsn::Beq),
        off.clone().prop_map(AInsn::Bne),
        Just(AInsn::Svc),
    ]
}

fn list_from(bits: u16) -> Vec<u8> {
    (0..16).filter(|i| bits & (1 << i) != 0).collect()
}

fn assemble_arm(insns: &[AInsn]) -> Vec<u8> {
    let mut a = arm::Asm::new();
    for i in insns {
        a = match *i {
            AInsn::MovImm(rd, v) => a.mov_imm(rd, v as u32),
            AInsn::MvnImm(rd, v) => a.mvn_imm(rd, v as u32),
            AInsn::MovReg(rd, rm) => a.mov_reg(rd, rm),
            AInsn::AddImm(rd, rn, v) => a.add_imm(rd, rn, v as u32),
            AInsn::SubImm(rd, rn, v) => a.sub_imm(rd, rn, v as u32),
            AInsn::OrrImm(rd, rn, v) => a.orr_imm(rd, rn, v as u32),
            AInsn::AndImm(rd, rn, v) => a.and_imm(rd, rn, v as u32),
            AInsn::EorImm(rd, rn, v) => a.eor_imm(rd, rn, v as u32),
            AInsn::Lsl(rd, rm, s) => a.lsl_imm(rd, rm, s),
            AInsn::CmpImm(rn, v) => a.cmp_imm(rn, v as u32),
            AInsn::Ldr(rd, rn, o) => a.ldr(rd, rn, o as i32),
            AInsn::Str(rd, rn, o) => a.str(rd, rn, o as i32),
            AInsn::Ldrb(rd, rn, o) => a.ldrb(rd, rn, o as i32),
            AInsn::Strb(rd, rn, o) => a.strb(rd, rn, o as i32),
            AInsn::Push(bits) => a.push(&list_from(bits)),
            AInsn::Pop(bits) => a.pop(&list_from(bits)),
            AInsn::Bx(rm) => a.bx(rm),
            AInsn::Blx(rm) => a.blx(rm),
            AInsn::B(o) => a.b(o as i32 * 4),
            AInsn::Bl(o) => a.bl(o as i32 * 4),
            AInsn::Beq(o) => a.beq(o as i32 * 4),
            AInsn::Bne(o) => a.bne(o as i32 * 4),
            AInsn::Svc => a.svc0(),
        };
    }
    a.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Assembled A32 streams decode word-by-word.
    #[test]
    fn arm_streams_roundtrip(insns in proptest::collection::vec(a_strategy(), 1..24)) {
        let bytes = assemble_arm(&insns);
        prop_assert_eq!(bytes.len(), insns.len() * 4);
        for (k, chunk) in bytes.chunks(4).enumerate() {
            arm::decode(chunk).unwrap_or_else(|e| panic!("insn {k}: {e}"));
        }
    }
}

/// A recipe for one RV32IC instruction: every `riscv::Asm` form, the
/// compressed ones included. Operands are drawn inside each form's
/// encodable range.
#[derive(Debug, Clone)]
enum RInsn {
    Lui(u8, i32),
    Auipc(u8, i32),
    Jal(u8, i32),
    Jalr(u8, u8, i32),
    Beq(u8, u8, i32),
    Bne(u8, u8, i32),
    Lw(u8, u8, i32),
    Lbu(u8, u8, i32),
    Sw(u8, u8, i32),
    Sb(u8, u8, i32),
    Addi(u8, u8, i32),
    Andi(u8, u8, i32),
    Ori(u8, u8, i32),
    Xori(u8, u8, i32),
    Slli(u8, u8, u8),
    Srli(u8, u8, u8),
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    Ecall,
    Ebreak,
    CNop,
    CAddi(u8, i32),
    CLi(u8, i32),
    CLui(u8, i32),
    CAddi16sp(i32),
    CAddi4spn(u8, i32),
    CMv(u8, u8),
    CAdd(u8, u8),
    CJr(u8),
    CRet,
    CJalr(u8),
    CEbreak,
    CJ(i32),
    CBeqz(u8, i32),
    CBnez(u8, i32),
    CSlli(u8, u8),
    CLwsp(u8, i32),
    CSwsp(u8, i32),
    CLw(u8, u8, i32),
    CSw(u8, u8, i32),
}

/// A nonzero 6-bit signed immediate, for the forms that reserve zero.
fn nonzero_imm6() -> impl Strategy<Value = i32> {
    (-32i32..31).prop_map(|k| if k >= 0 { k + 1 } else { k })
}

fn r_strategy() -> impl Strategy<Value = RInsn> {
    let r = 0u8..32;
    let nz = 1u8..32; // x0 is reserved in these compressed forms
    let rc = 8u8..16; // the compressed register window x8..x15
    let imm12 = -2048i32..2048;
    let upper = -(1i32 << 19)..(1 << 19); // a U-type immediate's top 20 bits
    prop_oneof![
        (r.clone(), upper.clone()).prop_map(|(a, b)| RInsn::Lui(a, b)),
        (r.clone(), upper).prop_map(|(a, b)| RInsn::Auipc(a, b)),
        (r.clone(), -(1i32 << 19)..(1 << 19)).prop_map(|(a, h)| RInsn::Jal(a, h * 2)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Jalr(a, b, c)),
        (r.clone(), r.clone(), -2048i32..2048).prop_map(|(a, b, h)| RInsn::Beq(a, b, h * 2)),
        (r.clone(), r.clone(), -2048i32..2048).prop_map(|(a, b, h)| RInsn::Bne(a, b, h * 2)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Lw(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Lbu(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Sw(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Sb(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Addi(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Andi(a, b, c)),
        (r.clone(), r.clone(), imm12.clone()).prop_map(|(a, b, c)| RInsn::Ori(a, b, c)),
        (r.clone(), r.clone(), imm12).prop_map(|(a, b, c)| RInsn::Xori(a, b, c)),
        (r.clone(), r.clone(), 0u8..32).prop_map(|(a, b, c)| RInsn::Slli(a, b, c)),
        (r.clone(), r.clone(), 0u8..32).prop_map(|(a, b, c)| RInsn::Srli(a, b, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| RInsn::Add(a, b, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| RInsn::Sub(a, b, c)),
        Just(RInsn::Ecall),
        Just(RInsn::Ebreak),
        Just(RInsn::CNop),
        (r.clone(), -32i32..32).prop_map(|(a, b)| RInsn::CAddi(a, b)),
        (r.clone(), -32i32..32).prop_map(|(a, b)| RInsn::CLi(a, b)),
        (
            // x0 is reserved and x2 selects c.addi16sp.
            (1u8..31).prop_map(|r| if r >= 2 { r + 1 } else { r }),
            nonzero_imm6(),
        )
            .prop_map(|(a, h)| RInsn::CLui(a, h << 12)),
        nonzero_imm6().prop_map(|k| RInsn::CAddi16sp(k * 16)),
        (rc.clone(), 1i32..256).prop_map(|(a, k)| RInsn::CAddi4spn(a, k * 4)),
        (nz.clone(), nz.clone()).prop_map(|(a, b)| RInsn::CMv(a, b)),
        (nz.clone(), nz.clone()).prop_map(|(a, b)| RInsn::CAdd(a, b)),
        nz.clone().prop_map(RInsn::CJr),
        Just(RInsn::CRet),
        nz.clone().prop_map(RInsn::CJalr),
        Just(RInsn::CEbreak),
        (-1024i32..1024).prop_map(|h| RInsn::CJ(h * 2)),
        (rc.clone(), -128i32..128).prop_map(|(a, h)| RInsn::CBeqz(a, h * 2)),
        (rc.clone(), -128i32..128).prop_map(|(a, h)| RInsn::CBnez(a, h * 2)),
        (r.clone(), 0u8..32).prop_map(|(a, b)| RInsn::CSlli(a, b)),
        (nz, 0i32..64).prop_map(|(a, k)| RInsn::CLwsp(a, k * 4)),
        (r, 0i32..64).prop_map(|(a, k)| RInsn::CSwsp(a, k * 4)),
        (rc.clone(), rc.clone(), 0i32..32).prop_map(|(a, b, k)| RInsn::CLw(a, b, k * 4)),
        (rc.clone(), rc, 0i32..32).prop_map(|(a, b, k)| RInsn::CSw(a, b, k * 4)),
    ]
}

/// Appends one recipe to `a`, returning the grown assembler with the
/// instruction the decoder must recover (a compressed form's RV32I
/// expansion) and its encoded length.
fn emit_riscv(a: riscv::Asm, insn: &RInsn) -> (riscv::Asm, riscv::Insn, usize) {
    use riscv::Insn as I;
    let (a, want) = match *insn {
        RInsn::Lui(rd, hi) => {
            let imm = (hi << 12) as u32;
            (a.lui(rd, imm), I::Lui { rd, imm })
        }
        RInsn::Auipc(rd, hi) => {
            let imm = (hi << 12) as u32;
            (a.auipc(rd, imm), I::Auipc { rd, imm })
        }
        RInsn::Jal(rd, offset) => (a.jal(rd, offset), I::Jal { rd, offset }),
        RInsn::Jalr(rd, rs1, offset) => (a.jalr(rd, rs1, offset), I::Jalr { rd, rs1, offset }),
        RInsn::Beq(rs1, rs2, offset) => (a.beq(rs1, rs2, offset), I::Beq { rs1, rs2, offset }),
        RInsn::Bne(rs1, rs2, offset) => (a.bne(rs1, rs2, offset), I::Bne { rs1, rs2, offset }),
        RInsn::Lw(rd, rs1, offset) => (a.lw(rd, rs1, offset), I::Lw { rd, rs1, offset }),
        RInsn::Lbu(rd, rs1, offset) => (a.lbu(rd, rs1, offset), I::Lbu { rd, rs1, offset }),
        RInsn::Sw(rs2, rs1, offset) => (a.sw(rs2, rs1, offset), I::Sw { rs2, rs1, offset }),
        RInsn::Sb(rs2, rs1, offset) => (a.sb(rs2, rs1, offset), I::Sb { rs2, rs1, offset }),
        RInsn::Addi(rd, rs1, imm) => (a.addi(rd, rs1, imm), I::Addi { rd, rs1, imm }),
        RInsn::Andi(rd, rs1, imm) => (a.andi(rd, rs1, imm), I::Andi { rd, rs1, imm }),
        RInsn::Ori(rd, rs1, imm) => (a.ori(rd, rs1, imm), I::Ori { rd, rs1, imm }),
        RInsn::Xori(rd, rs1, imm) => (a.xori(rd, rs1, imm), I::Xori { rd, rs1, imm }),
        RInsn::Slli(rd, rs1, shamt) => (a.slli(rd, rs1, shamt), I::Slli { rd, rs1, shamt }),
        RInsn::Srli(rd, rs1, shamt) => (a.srli(rd, rs1, shamt), I::Srli { rd, rs1, shamt }),
        RInsn::Add(rd, rs1, rs2) => (a.add(rd, rs1, rs2), I::Add { rd, rs1, rs2 }),
        RInsn::Sub(rd, rs1, rs2) => (a.sub(rd, rs1, rs2), I::Sub { rd, rs1, rs2 }),
        RInsn::Ecall => (a.ecall(), I::Ecall),
        RInsn::Ebreak => (a.ebreak(), I::Ebreak),
        _ => {
            let (a, want) = match *insn {
                RInsn::CNop => (
                    a.c_nop(),
                    I::Addi {
                        rd: 0,
                        rs1: 0,
                        imm: 0,
                    },
                ),
                RInsn::CAddi(rd, imm) => (a.c_addi(rd, imm), I::Addi { rd, rs1: rd, imm }),
                RInsn::CLi(rd, imm) => (a.c_li(rd, imm), I::Addi { rd, rs1: 0, imm }),
                RInsn::CLui(rd, imm) => (
                    a.c_lui(rd, imm as u32),
                    I::Lui {
                        rd,
                        imm: imm as u32,
                    },
                ),
                RInsn::CAddi16sp(imm) => (a.c_addi16sp(imm), I::Addi { rd: 2, rs1: 2, imm }),
                RInsn::CAddi4spn(rd, imm) => (a.c_addi4spn(rd, imm), I::Addi { rd, rs1: 2, imm }),
                RInsn::CMv(rd, rs2) => (a.c_mv(rd, rs2), I::Add { rd, rs1: 0, rs2 }),
                RInsn::CAdd(rd, rs2) => (a.c_add(rd, rs2), I::Add { rd, rs1: rd, rs2 }),
                RInsn::CJr(rs1) => (
                    a.c_jr(rs1),
                    I::Jalr {
                        rd: 0,
                        rs1,
                        offset: 0,
                    },
                ),
                RInsn::CRet => (
                    a.c_ret(),
                    I::Jalr {
                        rd: 0,
                        rs1: 1,
                        offset: 0,
                    },
                ),
                RInsn::CJalr(rs1) => (
                    a.c_jalr(rs1),
                    I::Jalr {
                        rd: 1,
                        rs1,
                        offset: 0,
                    },
                ),
                RInsn::CEbreak => (a.c_ebreak(), I::Ebreak),
                RInsn::CJ(offset) => (a.c_j(offset), I::Jal { rd: 0, offset }),
                RInsn::CBeqz(rs1, offset) => (
                    a.c_beqz(rs1, offset),
                    I::Beq {
                        rs1,
                        rs2: 0,
                        offset,
                    },
                ),
                RInsn::CBnez(rs1, offset) => (
                    a.c_bnez(rs1, offset),
                    I::Bne {
                        rs1,
                        rs2: 0,
                        offset,
                    },
                ),
                RInsn::CSlli(rd, shamt) => (a.c_slli(rd, shamt), I::Slli { rd, rs1: rd, shamt }),
                RInsn::CLwsp(rd, offset) => (a.c_lwsp(rd, offset), I::Lw { rd, rs1: 2, offset }),
                RInsn::CSwsp(rs2, offset) => (
                    a.c_swsp(rs2, offset),
                    I::Sw {
                        rs2,
                        rs1: 2,
                        offset,
                    },
                ),
                RInsn::CLw(rd, rs1, offset) => (a.c_lw(rd, rs1, offset), I::Lw { rd, rs1, offset }),
                RInsn::CSw(rs2, rs1, offset) => {
                    (a.c_sw(rs2, rs1, offset), I::Sw { rs2, rs1, offset })
                }
                _ => unreachable!("base forms are handled above"),
            };
            return (a, want, 2);
        }
    };
    (a, want, 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Assembled RV32IC streams, base and compressed forms mixed, decode
    /// back instruction by instruction to the expected `Insn` and
    /// length, consuming every byte exactly.
    #[test]
    fn riscv_streams_roundtrip(insns in proptest::collection::vec(r_strategy(), 1..24)) {
        let mut a = riscv::Asm::new();
        let mut want = Vec::new();
        for i in &insns {
            let (next, insn, len) = emit_riscv(a, i);
            a = next;
            want.push((insn, len));
        }
        let bytes = a.finish();
        let mut pos = 0usize;
        for (k, (insn, len)) in want.into_iter().enumerate() {
            let got = riscv::decode(&bytes[pos..])
                .unwrap_or_else(|e| panic!("insn {k} ({:?}): {e}", insns[k]));
            prop_assert_eq!(got, (insn, len), "insn {} ({:?})", k, &insns[k]);
            pos += len;
        }
        prop_assert_eq!(pos, bytes.len());
    }

    /// RISC-V decode is total: any 0–8-byte window decodes to a 2- or
    /// 4-byte instruction it fully contains, or to a typed error.
    #[test]
    fn riscv_decode_total(bytes in proptest::collection::vec(any::<u8>(), 0..=8)) {
        if let Ok((_, len)) = riscv::decode(&bytes) {
            prop_assert!((len == 2 || len == 4) && len <= bytes.len());
        }
    }
}

/// Machine determinism: the same program produces bit-identical outcomes
/// and event logs on repeated runs.
#[test]
fn execution_is_deterministic() {
    use cml_image::{Arch, Perms, SectionKind};
    use cml_vm::Machine;

    let code = assemble_x86(&[
        XInsn::MovRImm(1, 5),
        XInsn::PushR(1),
        XInsn::PopR(2),
        XInsn::XorRR(0, 0),
        XInsn::MovR8Imm(0, 1),
        XInsn::Int80,
    ]);
    let run = || {
        let mut m = Machine::new(Arch::X86);
        m.mem_mut()
            .map(".text", Some(SectionKind::Text), 0x1000, 0x1000, Perms::RX);
        m.mem_mut()
            .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
        m.mem_mut().poke(0x1000, &code).unwrap();
        m.regs_mut().set_pc(0x1000);
        m.regs_mut().set_sp(0x8800);
        let out = m.run(100);
        (out, m.events().to_vec())
    };
    assert_eq!(run(), run());
}
