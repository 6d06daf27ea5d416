//! Threaded-code IR: hot basic blocks lowered to superinstructions.
//!
//! Walking one [`CachedInsn`] at a time through the full `exec_insn`
//! match pays the architectural pc write, enum-wrapped register
//! accesses, byte-at-a-time memory, and a coverage `Option` probe per
//! instruction. This module lowers each decoded block once into a
//! linear array of [`IrOp`] *superinstructions* executed by a tight
//! dispatch loop:
//!
//! * **constant folding** — decoded operands become raw register
//!   indices and immediates; ARM's architectural `pc+8` reads fold to
//!   constants at build time;
//! * **run folding** — a run of identical ALU-immediate instructions
//!   (`inc eax; inc eax; …`) becomes one `AddImm` op carrying the total
//!   and an instruction count, since only the final value and flag are
//!   architecturally observable inside a straight line;
//! * **flag fusion** — `cmp`/`dec` followed by a conditional branch
//!   fuses into `CmpBr`/`DecBr`, so the zero flag is consumed where it
//!   is produced;
//! * **memory pre-check** — the block's push/pop stack traffic is
//!   range-checked against the permission map once per block entry
//!   (and per-op accesses use word-at-a-time checked fast paths),
//!   falling back to the canonical byte path whenever a check cannot be
//!   hoisted (redzone armed, region straddle, unknown sp);
//! * **inline coverage** — the AFL edge-map update runs once in the
//!   block-entry preamble with its hash premixed at build time,
//!   replacing the generic per-entry hook;
//! * **chained dispatch** — a constant branch target that is the
//!   current block restarts it without touching the cache (the
//!   self-loop fast path); any other constant target chains straight
//!   into its lowered block while budget remains.
//!
//! The contract is *byte-identical observable behaviour* versus
//! per-instruction dispatch ([`Machine::step`], the reference tier):
//! same outcomes, faults (including fault pc fields and the
//! pre-advanced pc convention), events and `insn_count`, enforced by
//! `tests/ir.rs` and the unit suites. Coverage notes one edge per block
//! entry. Invalidation reuses the decode cache's push model: the IR
//! table lives beside the per-instruction table and is dropped by the
//! same flushes, and the dispatch loop re-checks the flush generation
//! after every op that can write memory.

use std::sync::Arc;

use cml_image::Addr;

use crate::coverage::premix;
use crate::dcache::CachedInsn;
use crate::machine::{Machine, RunOutcome};
use crate::{arm, riscv, x86, Fault};

/// Sentinel register index meaning "no base register" (absolute
/// addressing / pc-relative folded to a constant).
const NO_BASE: u8 = 0xFF;

/// x86 stack-pointer index in the gpr file.
const ESP: u8 = 4;

/// ARM bitwise-immediate flavours (ARM data-processing sets no flags in
/// the supported subset).
#[derive(Debug, Clone, Copy)]
pub(crate) enum BitKind {
    /// `orr rd, rn, #imm`
    Orr,
    /// `and rd, rn, #imm`
    And,
    /// `eor rd, rn, #imm`
    Eor,
}

/// x86 register-register ALU flavours (all set the zero flag).
#[derive(Debug, Clone, Copy)]
pub(crate) enum AluKind {
    /// `xor r/m, r` (writes dst)
    Xor,
    /// `and r/m, r` (writes dst)
    And,
    /// `or r/m, r` (writes dst)
    Or,
    /// `cmp r/m, r` (flags only)
    Cmp,
    /// `test r/m, r` (flags only)
    Test,
}

/// One superinstruction. Register operands are raw indices into the
/// architectural register file ([`crate::Regs::gp`]); immediates and
/// branch targets are fully resolved at lowering time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IrOp {
    /// `nop`.
    Nop,
    /// `rd = imm` (also folds ARM `mvn` and pc-relative arithmetic).
    MovImm {
        /// Destination register index.
        rd: u8,
        /// The folded immediate.
        imm: u32,
    },
    /// x86 `mov r8, imm8`: replace the low byte of `rd`.
    MovLow8 {
        /// Destination register index.
        rd: u8,
        /// The byte.
        imm: u8,
    },
    /// `rd = rm`.
    MovReg {
        /// Destination register index.
        rd: u8,
        /// Source register index.
        rm: u8,
    },
    /// A folded run of `count` identical x86 ALU-immediate instructions
    /// on one register (`inc`/`dec`/`add`/`sub` imm8). `total` is the
    /// precomputed sum of the deltas; `delta` and `ilen` reconstruct a
    /// partial run when the step budget expires inside it.
    AddImm {
        /// Destination register index.
        rd: u8,
        /// Sum of all deltas in the run.
        total: u32,
        /// Per-instruction delta (two's complement).
        delta: u32,
        /// How many guest instructions the run folds.
        count: u8,
        /// Encoded length of each instruction in the run.
        ilen: u8,
        /// Whether the zero flag is set from the result.
        set_zf: bool,
    },
    /// ARM `add/sub rd, rn, #imm` (no flags).
    AddRegImm {
        /// Destination register index.
        rd: u8,
        /// Source register index.
        rn: u8,
        /// Delta (two's complement for `sub`).
        imm: u32,
    },
    /// ARM bitwise immediate (no flags).
    BitImm {
        /// Destination register index.
        rd: u8,
        /// Source register index.
        rn: u8,
        /// Immediate operand.
        imm: u32,
        /// Which operation.
        kind: BitKind,
    },
    /// x86 register-register ALU (sets the zero flag).
    AluRR {
        /// Destination register index (unwritten for `Cmp`/`Test`).
        dst: u8,
        /// Source register index.
        src: u8,
        /// Which operation.
        kind: AluKind,
    },
    /// `zf = (rn - imm == 0)` — x86 `cmp r, imm8` / ARM `cmp rn, #imm`.
    CmpImm {
        /// Register compared.
        rn: u8,
        /// Immediate subtrahend.
        imm: u32,
    },
    /// Shift by constant.
    ShiftImm {
        /// Destination register index.
        rd: u8,
        /// Source register index.
        rm: u8,
        /// Shift amount (masked to 31 like the interpreter).
        amount: u8,
        /// Left (`shl`/`lsl`) or right (`shr`).
        left: bool,
        /// x86 sets the zero flag; ARM `lsl` does not.
        set_zf: bool,
    },
    /// x86 `lea rd, [base + disp]`.
    Lea {
        /// Destination register index.
        rd: u8,
        /// Base register index.
        base: u8,
        /// Displacement.
        disp: i32,
    },
    /// Word or byte load, `rd = [base + disp]` (byte loads zero-extend).
    Load {
        /// Destination register index.
        rd: u8,
        /// Base register index, or [`NO_BASE`].
        base: u8,
        /// Displacement (holds the absolute address under [`NO_BASE`]).
        disp: i32,
        /// Byte-sized access.
        byte: bool,
    },
    /// Word or byte store, `[base + disp] = rs`.
    Store {
        /// Source register index.
        rs: u8,
        /// Base register index, or [`NO_BASE`].
        base: u8,
        /// Displacement (holds the absolute address under [`NO_BASE`]).
        disp: i32,
        /// Byte-sized access.
        byte: bool,
    },
    /// x86 `push r32`. `fast` marks eligibility for the prechecked
    /// stack path (sp still derivable from the entry sp).
    PushR {
        /// Pushed register index.
        r: u8,
        /// Covered by the block-entry stack precheck.
        fast: bool,
    },
    /// x86 `push imm32`.
    PushImm {
        /// Pushed immediate.
        imm: u32,
        /// Covered by the block-entry stack precheck.
        fast: bool,
    },
    /// x86 `pop r32`.
    PopR {
        /// Destination register index.
        r: u8,
        /// Covered by the block-entry stack precheck.
        fast: bool,
    },
    /// Unconditional constant-target jump (x86 `jmp rel`, ARM `b`).
    Jmp {
        /// Resolved target.
        target: Addr,
    },
    /// RISC-V register-compare branch (`beq`/`bne` — no flags register,
    /// the comparison and branch are one instruction).
    BrReg {
        /// Left comparand register index.
        rs1: u8,
        /// Right comparand register index.
        rs2: u8,
        /// Branch when the operands are equal (`beq`); inverted for
        /// `bne`.
        eq: bool,
        /// Resolved taken target.
        target: Addr,
        /// Fall-through address.
        fallthrough: Addr,
    },
    /// Conditional branch on the zero flag (taken when
    /// `zf == br_if_zf`).
    Br {
        /// Branch when the zero flag equals this.
        br_if_zf: bool,
        /// Resolved taken target.
        target: Addr,
        /// Fall-through address.
        fallthrough: Addr,
    },
    /// Fused `cmp rn, #imm` + conditional branch (two instructions).
    CmpBr {
        /// Register compared.
        rn: u8,
        /// Immediate subtrahend.
        imm: u32,
        /// Branch when the zero flag equals this.
        br_if_zf: bool,
        /// Resolved taken target.
        target: Addr,
        /// Fall-through address.
        fallthrough: Addr,
        /// pc of the branch instruction — where a budget that expires
        /// between the two halves leaves the machine.
        mid: Addr,
    },
    /// Fused single ALU-immediate (`dec`/`inc`/`add`/`sub` imm8) +
    /// conditional branch (two instructions).
    DecBr {
        /// ALU destination register index.
        rd: u8,
        /// ALU delta (two's complement).
        delta: u32,
        /// Branch when the zero flag equals this.
        br_if_zf: bool,
        /// Resolved taken target.
        target: Addr,
        /// Fall-through address.
        fallthrough: Addr,
        /// pc of the branch instruction (see [`IrOp::CmpBr::mid`]).
        mid: Addr,
    },
    /// Anything else: run the interpreter's `exec_insn` for this one
    /// instruction — the universal slow path (calls, returns, syscalls,
    /// read-modify-write memory operands, pc-destination writes, …).
    Exec {
        /// The decoded instruction.
        ci: CachedInsn,
    },
}

/// A lowered basic block: the op stream plus the parallel pc tables the
/// dispatcher needs only on early exits (budget expiry, faults, flush).
#[derive(Debug)]
pub(crate) struct IrBlock {
    /// Guest address of the first instruction.
    pub(crate) start: Addr,
    /// Total encoded bytes the block spans.
    pub(crate) span: u32,
    /// Premixed coverage hash of `start`, noted once per block entry in
    /// the dispatch preamble (the inlined edge-bitmap update).
    cov: u32,
    /// The superinstruction stream.
    ops: Vec<IrOp>,
    /// pc of each op's first guest instruction.
    pcs: Vec<Addr>,
    /// Fall-through pc after each op's last guest instruction.
    ends: Vec<Addr>,
    /// Lowest sp-relative byte the fast push/pop ops touch (≤ 0).
    stack_lo: i32,
    /// Size of the fast-op stack window; 0 disables the precheck.
    stack_len: u32,
}

/// Executes lowered IR starting at the current pc for up to `budget`
/// guest instructions, falling back to a single [`Machine::step`] when
/// no IR applies (hooked pc, undecodable bytes). Returns instructions
/// consumed and the step result, leaving pc/insn_count exactly where
/// per-instruction dispatch would.
pub(crate) fn step_ir(m: &mut Machine, budget: u64) -> (u64, Result<Option<RunOutcome>, Fault>) {
    let start = m.regs.pc();
    if m.hook_at(start).is_some() {
        return (1, m.step());
    }
    let block = match m.mem.dcache_get_ir(start) {
        Some(b) => b,
        None => match build_ir(m, start) {
            Some(b) => b,
            None => return (1, m.step()),
        },
    };
    let (used, res) = exec_ir(m, block, budget);
    m.insn_count += used;
    (used, res)
}

/// Decodes and lowers the block at `start`.
fn build_ir(m: &mut Machine, start: Addr) -> Option<Arc<IrBlock>> {
    let insns = m.build_block(start)?;
    let ir = Arc::new(lower(&insns, start));
    let span = ir.span;
    m.mem.dcache_insert_ir(start, Arc::clone(&ir), span);
    Some(ir)
}

/// The dispatch loop. `used` counts guest instructions; every exit path
/// leaves the pc exactly where per-instruction stepping would after the
/// same count (pre-advanced past a faulting instruction, at the first
/// unexecuted instruction on budget expiry, at the branch target on a
/// taken exit).
fn exec_ir(
    m: &mut Machine,
    mut block: Arc<IrBlock>,
    budget: u64,
) -> (u64, Result<Option<RunOutcome>, Fault>) {
    debug_assert!(budget > 0, "run() never dispatches with an empty budget");
    let gen = m.mem.dcache_generation();
    // Register-resident coverage flag: probing `Option<&mut _>` through
    // `&mut m` every block entry costs ~20% on tight self-loops, so the
    // presence test is hoisted and the borrow only taken when armed.
    let has_cov = m.cov.is_some();
    let mut used: u64 = 0;
    'blocks: loop {
        // Block-entry preamble: the inlined edge-bitmap update (hash
        // premixed at build time) and one stack-range probe that
        // licences the fast push/pop ops below to skip per-byte
        // permission checks.
        let cov = block.cov;
        if has_cov {
            if let Some(c) = &mut m.cov {
                c.note_premixed(cov);
            }
        }
        let stack_lo = block.stack_lo;
        let stack_len = block.stack_len;
        let mut stack_ok = stack_len > 0
            && m.mem
                .stack_precheck(m.regs.sp().wrapping_add(stack_lo as u32), stack_len);
        let start = block.start;
        let end = start.wrapping_add(block.span);
        let ops = &block.ops;
        let pcs = &block.pcs;
        let ends = &block.ends;
        let n = ops.len();
        let mut i = 0usize;

        // The labelled inner loop exists so `chain!`'s self-loop path
        // can restart the op walk (`i = 0; continue 'ops`) without
        // leaving the hoisted borrows above; it never falls through.
        #[allow(clippy::never_loop)]
        'ops: loop {
            /// Exits with the budget exhausted before op `i` executed.
            macro_rules! out_of_budget {
                () => {{
                    m.regs.set_pc(pcs[i]);
                    return (used, Ok(None));
                }};
            }
            /// Resolves a taken constant branch: self-loop, chain, or exit.
            macro_rules! chain {
                ($t:expr) => {{
                    let t = $t;
                    if used < budget {
                        if t == start {
                            // Self-loop fast path: the generation is
                            // unchanged (every write re-checks it), so the
                            // held block is still valid — rerun the entry
                            // preamble in place without touching the cache,
                            // the `Arc`, or the hook table.
                            if has_cov {
                                if let Some(c) = &mut m.cov {
                                    c.note_premixed(cov);
                                }
                            }
                            if stack_len > 0 {
                                stack_ok = m.mem.stack_precheck(
                                    m.regs.sp().wrapping_add(stack_lo as u32),
                                    stack_len,
                                );
                            }
                            i = 0;
                            continue 'ops;
                        }
                        if let Some(b) = m.mem.dcache_get_ir(t) {
                            // An IR hit is hook-free and current by
                            // construction (push invalidation).
                            block = b;
                            continue 'blocks;
                        }
                    }
                    m.regs.set_pc(t);
                    return (used, Ok(None));
                }};
            }

            while i < n {
                match ops[i] {
                    IrOp::Nop => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                    }
                    IrOp::MovImm { rd, imm } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        m.regs.set_gp(rd, imm);
                    }
                    IrOp::MovLow8 { rd, imm } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let old = m.regs.gp(rd);
                        m.regs.set_gp(rd, (old & 0xFFFF_FF00) | imm as u32);
                    }
                    IrOp::MovReg { rd, rm } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let v = m.regs.gp(rm);
                        m.regs.set_gp(rd, v);
                    }
                    IrOp::AddImm {
                        rd,
                        total,
                        delta,
                        count,
                        ilen,
                        set_zf,
                    } => {
                        let c = count as u64;
                        if used + c > budget {
                            // Partial run: execute the instructions that
                            // still fit, one delta each.
                            let r = budget - used;
                            if r == 0 {
                                out_of_budget!();
                            }
                            let v = m.regs.gp(rd).wrapping_add(delta.wrapping_mul(r as u32));
                            m.regs.set_gp(rd, v);
                            if set_zf {
                                m.regs.set_zf(v == 0);
                            }
                            m.regs.set_pc(pcs[i].wrapping_add(r as u32 * ilen as u32));
                            return (used + r, Ok(None));
                        }
                        used += c;
                        let v = m.regs.gp(rd).wrapping_add(total);
                        m.regs.set_gp(rd, v);
                        if set_zf {
                            m.regs.set_zf(v == 0);
                        }
                    }
                    IrOp::AddRegImm { rd, rn, imm } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let v = m.regs.gp(rn).wrapping_add(imm);
                        m.regs.set_gp(rd, v);
                    }
                    IrOp::BitImm { rd, rn, imm, kind } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let s = m.regs.gp(rn);
                        let v = match kind {
                            BitKind::Orr => s | imm,
                            BitKind::And => s & imm,
                            BitKind::Eor => s ^ imm,
                        };
                        m.regs.set_gp(rd, v);
                    }
                    IrOp::AluRR { dst, src, kind } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let (d, s) = (m.regs.gp(dst), m.regs.gp(src));
                        let v = match kind {
                            AluKind::Xor => d ^ s,
                            AluKind::And | AluKind::Test => d & s,
                            AluKind::Or => d | s,
                            AluKind::Cmp => d.wrapping_sub(s),
                        };
                        if matches!(kind, AluKind::Xor | AluKind::And | AluKind::Or) {
                            m.regs.set_gp(dst, v);
                        }
                        m.regs.set_zf(v == 0);
                    }
                    IrOp::CmpImm { rn, imm } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        m.regs.set_zf(m.regs.gp(rn).wrapping_sub(imm) == 0);
                    }
                    IrOp::ShiftImm {
                        rd,
                        rm,
                        amount,
                        left,
                        set_zf,
                    } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let s = m.regs.gp(rm);
                        let v = if left {
                            s.wrapping_shl(amount as u32 & 31)
                        } else {
                            s.wrapping_shr(amount as u32 & 31)
                        };
                        m.regs.set_gp(rd, v);
                        if set_zf {
                            m.regs.set_zf(v == 0);
                        }
                    }
                    IrOp::Lea { rd, base, disp } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let v = m.regs.gp(base).wrapping_add(disp as u32);
                        m.regs.set_gp(rd, v);
                    }
                    IrOp::Load {
                        rd,
                        base,
                        disp,
                        byte,
                    } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let b = if base == NO_BASE { 0 } else { m.regs.gp(base) };
                        let a = b.wrapping_add(disp as u32);
                        let res = if byte {
                            m.mem.read_u8(a, pcs[i]).map(u32::from)
                        } else {
                            m.mem.read_u32_ir(a, pcs[i])
                        };
                        match res {
                            Ok(v) => m.regs.set_gp(rd, v),
                            Err(f) => {
                                // `exec_insn` pre-advances the pc, so a
                                // faulting load leaves pc at fall-through.
                                m.regs.set_pc(ends[i]);
                                return (used, Err(f));
                            }
                        }
                    }
                    IrOp::Store {
                        rs,
                        base,
                        disp,
                        byte,
                    } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let b = if base == NO_BASE { 0 } else { m.regs.gp(base) };
                        let a = b.wrapping_add(disp as u32);
                        let v = m.regs.gp(rs);
                        let res = if byte {
                            m.mem.write_u8(a, v as u8, pcs[i])
                        } else {
                            m.mem.write_u32_ir(a, v, pcs[i])
                        };
                        match res {
                            Ok(()) => {
                                if m.mem.dcache_generation() != gen {
                                    // Self-modifying store: abandon the
                                    // block, pc at fall-through.
                                    m.regs.set_pc(ends[i]);
                                    return (used, Ok(None));
                                }
                            }
                            Err(f) => {
                                m.regs.set_pc(ends[i]);
                                return (used, Err(f));
                            }
                        }
                    }
                    IrOp::PushR { r, fast } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let v = m.regs.gp(r);
                        let sp = m.regs.sp().wrapping_sub(4);
                        if fast && stack_ok && m.mem.stack_write_u32(sp, v) {
                            m.regs.set_sp(sp);
                        } else {
                            // Slow path replicates `push_u32`: the fault pc
                            // is the already-advanced next pc.
                            match m.mem.write_u32_ir(sp, v, ends[i]) {
                                Ok(()) => {
                                    m.regs.set_sp(sp);
                                    if m.mem.dcache_generation() != gen {
                                        m.regs.set_pc(ends[i]);
                                        return (used, Ok(None));
                                    }
                                }
                                Err(f) => {
                                    m.regs.set_pc(ends[i]);
                                    return (used, Err(f));
                                }
                            }
                        }
                    }
                    IrOp::PushImm { imm, fast } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let sp = m.regs.sp().wrapping_sub(4);
                        if fast && stack_ok && m.mem.stack_write_u32(sp, imm) {
                            m.regs.set_sp(sp);
                        } else {
                            match m.mem.write_u32_ir(sp, imm, ends[i]) {
                                Ok(()) => {
                                    m.regs.set_sp(sp);
                                    if m.mem.dcache_generation() != gen {
                                        m.regs.set_pc(ends[i]);
                                        return (used, Ok(None));
                                    }
                                }
                                Err(f) => {
                                    m.regs.set_pc(ends[i]);
                                    return (used, Err(f));
                                }
                            }
                        }
                    }
                    IrOp::PopR { r, fast } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let sp = m.regs.sp();
                        let v = if fast && stack_ok {
                            match m.mem.stack_read_u32(sp) {
                                Some(v) => v,
                                None => match m.mem.read_u32_ir(sp, ends[i]) {
                                    Ok(v) => v,
                                    Err(f) => {
                                        m.regs.set_pc(ends[i]);
                                        return (used, Err(f));
                                    }
                                },
                            }
                        } else {
                            match m.mem.read_u32_ir(sp, ends[i]) {
                                Ok(v) => v,
                                Err(f) => {
                                    m.regs.set_pc(ends[i]);
                                    return (used, Err(f));
                                }
                            }
                        };
                        // sp first, then the register write — `pop esp`
                        // must end with esp = the popped value.
                        m.regs.set_sp(sp.wrapping_add(4));
                        m.regs.set_gp(r, v);
                    }
                    IrOp::Jmp { target } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        chain!(target);
                    }
                    IrOp::BrReg {
                        rs1,
                        rs2,
                        eq,
                        target,
                        fallthrough,
                    } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let t = if (m.regs.gp(rs1) == m.regs.gp(rs2)) == eq {
                            target
                        } else {
                            fallthrough
                        };
                        chain!(t);
                    }
                    IrOp::Br {
                        br_if_zf,
                        target,
                        fallthrough,
                    } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let t = if m.regs.zf() == br_if_zf {
                            target
                        } else {
                            fallthrough
                        };
                        chain!(t);
                    }
                    IrOp::CmpBr {
                        rn,
                        imm,
                        br_if_zf,
                        target,
                        fallthrough,
                        mid,
                    } => {
                        if used + 2 > budget {
                            if used >= budget {
                                out_of_budget!();
                            }
                            // Room for the compare half only.
                            m.regs.set_zf(m.regs.gp(rn).wrapping_sub(imm) == 0);
                            m.regs.set_pc(mid);
                            return (used + 1, Ok(None));
                        }
                        used += 2;
                        let zf = m.regs.gp(rn).wrapping_sub(imm) == 0;
                        m.regs.set_zf(zf);
                        let t = if zf == br_if_zf { target } else { fallthrough };
                        chain!(t);
                    }
                    IrOp::DecBr {
                        rd,
                        delta,
                        br_if_zf,
                        target,
                        fallthrough,
                        mid,
                    } => {
                        if used + 2 > budget {
                            if used >= budget {
                                out_of_budget!();
                            }
                            // Room for the ALU half only.
                            let v = m.regs.gp(rd).wrapping_add(delta);
                            m.regs.set_gp(rd, v);
                            m.regs.set_zf(v == 0);
                            m.regs.set_pc(mid);
                            return (used + 1, Ok(None));
                        }
                        used += 2;
                        let v = m.regs.gp(rd).wrapping_add(delta);
                        m.regs.set_gp(rd, v);
                        let zf = v == 0;
                        m.regs.set_zf(zf);
                        let t = if zf == br_if_zf { target } else { fallthrough };
                        chain!(t);
                    }
                    IrOp::Exec { ci } => {
                        if used >= budget {
                            out_of_budget!();
                        }
                        used += 1;
                        let res = match ci {
                            CachedInsn::X86(insn, len) => {
                                x86::exec_insn(m, insn, len as usize, pcs[i])
                            }
                            CachedInsn::Arm(insn) => arm::exec_insn(m, insn, pcs[i]),
                            CachedInsn::Riscv(insn, len) => {
                                riscv::exec_insn(m, insn, len as usize, pcs[i])
                            }
                        };
                        match res {
                            Ok(None) => {}
                            terminal => return (used, terminal),
                        }
                        if m.regs.pc() != ends[i] || m.mem.dcache_generation() != gen {
                            // Taken branch or cache flush: pc is already
                            // architecturally correct — hand back to run().
                            return (used, Ok(None));
                        }
                    }
                }
                i += 1;
            }
            // Natural block end without a terminator (MAX_BLOCK, decode
            // boundary, mid-block hook): fall through.
            m.regs.set_pc(end);
            return (used, Ok(None));
        } // 'ops
    }
}

/// Build-time state for one block's lowering.
struct Lowerer {
    ops: Vec<IrOp>,
    pcs: Vec<Addr>,
    ends: Vec<Addr>,
    /// Whether sp is still the entry sp plus `sp_off` (no Exec op or
    /// sp-writing ALU op seen yet) — the licence for fast push/pop.
    sp_known: bool,
    /// Current sp offset from the entry sp, while `sp_known`.
    sp_off: i32,
    /// Stack-window extents (sp-relative) the fast ops touch.
    lo: i32,
    hi: i32,
}

impl Lowerer {
    fn emit(&mut self, op: IrOp, pc: Addr, next: Addr) {
        self.ops.push(op);
        self.pcs.push(pc);
        self.ends.push(next);
    }

    /// Emits an op that writes register `rd`; a write to the stack
    /// pointer ends sp tracking for later push/pop ops.
    fn emit_w(&mut self, op: IrOp, pc: Addr, next: Addr, rd: u8) {
        self.emit(op, pc, next);
        if rd == ESP {
            self.sp_known = false;
        }
    }

    /// Emits the universal fallback; native semantics may move sp
    /// arbitrarily (leave, ret, syscalls), so tracking stops.
    fn exec(&mut self, ci: CachedInsn, pc: Addr, next: Addr) {
        self.sp_known = false;
        self.emit(IrOp::Exec { ci }, pc, next);
    }

    /// Accounts a fast push's write window.
    fn note_push(&mut self) {
        self.sp_off -= 4;
        self.lo = self.lo.min(self.sp_off);
        self.hi = self.hi.max(self.sp_off + 4);
    }

    /// Accounts a fast pop's read window.
    fn note_pop(&mut self) {
        self.lo = self.lo.min(self.sp_off);
        self.hi = self.hi.max(self.sp_off + 4);
        self.sp_off += 4;
    }

    /// Emits an x86 ALU-immediate, folding it into an immediately
    /// preceding identical one (same register, delta and encoding
    /// length, so partial-budget replay stays exact).
    fn add_imm(&mut self, rd: u8, delta: u32, ilen: u8, pc: Addr, next: Addr) {
        if let Some(IrOp::AddImm {
            rd: prd,
            total,
            delta: pdelta,
            count,
            ilen: pilen,
            ..
        }) = self.ops.last_mut()
        {
            if *prd == rd && *pdelta == delta && *pilen == ilen && *count < u8::MAX {
                *total = total.wrapping_add(delta);
                *count += 1;
                *self.ends.last_mut().expect("parallel to ops") = next;
                return;
            }
        }
        self.emit(
            IrOp::AddImm {
                rd,
                total: delta,
                delta,
                count: 1,
                ilen,
                set_zf: true,
            },
            pc,
            next,
        );
        if rd == ESP {
            self.sp_known = false;
        }
    }

    /// Emits a conditional branch, fusing it with an immediately
    /// preceding `cmp` or single ALU-immediate (both set the flag the
    /// branch consumes).
    fn br(&mut self, br_if_zf: bool, target: Addr, pc: Addr, next: Addr) {
        let fused = match self.ops.last().copied() {
            Some(IrOp::CmpImm { rn, imm }) => Some(IrOp::CmpBr {
                rn,
                imm,
                br_if_zf,
                target,
                fallthrough: next,
                mid: pc,
            }),
            Some(IrOp::AddImm {
                rd,
                delta,
                count: 1,
                set_zf: true,
                ..
            }) => Some(IrOp::DecBr {
                rd,
                delta,
                br_if_zf,
                target,
                fallthrough: next,
                mid: pc,
            }),
            _ => None,
        };
        match fused {
            Some(op) => {
                *self.ops.last_mut().expect("fusion peeked last") = op;
                *self.ends.last_mut().expect("parallel to ops") = next;
            }
            None => self.emit(
                IrOp::Br {
                    br_if_zf,
                    target,
                    fallthrough: next,
                },
                pc,
                next,
            ),
        }
    }
}

/// Lowers a decoded block (from [`Machine::build_block`]) into an
/// [`IrBlock`].
pub(crate) fn lower(insns: &[CachedInsn], start: Addr) -> IrBlock {
    let mut lw = Lowerer {
        ops: Vec::with_capacity(insns.len() + 1),
        pcs: Vec::with_capacity(insns.len() + 1),
        ends: Vec::with_capacity(insns.len() + 1),
        sp_known: true,
        sp_off: 0,
        lo: 0,
        hi: 0,
    };
    let mut pc = start;
    for &ci in insns {
        let next = pc.wrapping_add(ci.byte_len());
        match ci {
            CachedInsn::X86(insn, len) => lower_x86(&mut lw, insn, len, pc, next),
            CachedInsn::Arm(insn) => lower_arm(&mut lw, insn, pc, next),
            CachedInsn::Riscv(insn, len) => lower_riscv(&mut lw, insn, len, pc, next),
        }
        pc = next;
    }
    IrBlock {
        start,
        span: pc.wrapping_sub(start),
        cov: premix(start),
        ops: lw.ops,
        pcs: lw.pcs,
        ends: lw.ends,
        stack_lo: lw.lo,
        stack_len: (lw.hi - lw.lo) as u32,
    }
}

fn lower_x86(lw: &mut Lowerer, insn: x86::Insn, ilen: u8, pc: Addr, next: Addr) {
    use x86::{Insn as I, Operand as O};
    match insn {
        I::Nop => lw.emit(IrOp::Nop, pc, next),
        I::PushR(r) => {
            let fast = lw.sp_known;
            if fast {
                lw.note_push();
            }
            lw.emit(IrOp::PushR { r: r.bits(), fast }, pc, next);
        }
        I::PushImm(imm) => {
            let fast = lw.sp_known;
            if fast {
                lw.note_push();
            }
            lw.emit(IrOp::PushImm { imm, fast }, pc, next);
        }
        I::PopR(r) => {
            let fast = lw.sp_known && r.bits() != ESP;
            if fast {
                lw.note_pop();
            }
            lw.emit(IrOp::PopR { r: r.bits(), fast }, pc, next);
            if r.bits() == ESP {
                lw.sp_known = false;
            }
        }
        I::MovRImm(r, imm) => lw.emit_w(IrOp::MovImm { rd: r.bits(), imm }, pc, next, r.bits()),
        I::MovR8Imm(r, imm) => lw.emit_w(IrOp::MovLow8 { rd: r.bits(), imm }, pc, next, r.bits()),
        I::MovRmR {
            dst: O::Reg(d),
            src,
        } => lw.emit_w(
            IrOp::MovReg {
                rd: d.bits(),
                rm: src.bits(),
            },
            pc,
            next,
            d.bits(),
        ),
        I::MovRmR {
            dst: O::Mem { base, disp },
            src,
        } => lw.emit(
            IrOp::Store {
                rs: src.bits(),
                base: base.map_or(NO_BASE, |b| b.bits()),
                disp,
                byte: false,
            },
            pc,
            next,
        ),
        I::MovRRm {
            dst,
            src: O::Reg(s),
        } => lw.emit_w(
            IrOp::MovReg {
                rd: dst.bits(),
                rm: s.bits(),
            },
            pc,
            next,
            dst.bits(),
        ),
        I::MovRRm {
            dst,
            src: O::Mem { base, disp },
        } => lw.emit_w(
            IrOp::Load {
                rd: dst.bits(),
                base: base.map_or(NO_BASE, |b| b.bits()),
                disp,
                byte: false,
            },
            pc,
            next,
            dst.bits(),
        ),
        I::XorRmR {
            dst: O::Reg(d),
            src,
        } => lw.emit_w(
            IrOp::AluRR {
                dst: d.bits(),
                src: src.bits(),
                kind: AluKind::Xor,
            },
            pc,
            next,
            d.bits(),
        ),
        I::AndRmR {
            dst: O::Reg(d),
            src,
        } => lw.emit_w(
            IrOp::AluRR {
                dst: d.bits(),
                src: src.bits(),
                kind: AluKind::And,
            },
            pc,
            next,
            d.bits(),
        ),
        I::OrRmR {
            dst: O::Reg(d),
            src,
        } => lw.emit_w(
            IrOp::AluRR {
                dst: d.bits(),
                src: src.bits(),
                kind: AluKind::Or,
            },
            pc,
            next,
            d.bits(),
        ),
        I::CmpRmR {
            dst: O::Reg(d),
            src,
        } => lw.emit(
            IrOp::AluRR {
                dst: d.bits(),
                src: src.bits(),
                kind: AluKind::Cmp,
            },
            pc,
            next,
        ),
        I::TestRmR {
            dst: O::Reg(d),
            src,
        } => lw.emit(
            IrOp::AluRR {
                dst: d.bits(),
                src: src.bits(),
                kind: AluKind::Test,
            },
            pc,
            next,
        ),
        I::AddRmImm8 {
            dst: O::Reg(d),
            imm,
        } => lw.add_imm(d.bits(), imm as i32 as u32, ilen, pc, next),
        I::SubRmImm8 {
            dst: O::Reg(d),
            imm,
        } => lw.add_imm(d.bits(), (imm as i32 as u32).wrapping_neg(), ilen, pc, next),
        I::IncR(r) => lw.add_imm(r.bits(), 1, ilen, pc, next),
        I::DecR(r) => lw.add_imm(r.bits(), 1u32.wrapping_neg(), ilen, pc, next),
        I::CmpRmImm8 {
            dst: O::Reg(d),
            imm,
        } => lw.emit(
            IrOp::CmpImm {
                rn: d.bits(),
                imm: imm as i32 as u32,
            },
            pc,
            next,
        ),
        I::ShlRImm8 { reg, imm } => lw.emit_w(
            IrOp::ShiftImm {
                rd: reg.bits(),
                rm: reg.bits(),
                amount: imm,
                left: true,
                set_zf: true,
            },
            pc,
            next,
            reg.bits(),
        ),
        I::ShrRImm8 { reg, imm } => lw.emit_w(
            IrOp::ShiftImm {
                rd: reg.bits(),
                rm: reg.bits(),
                amount: imm,
                left: false,
                set_zf: true,
            },
            pc,
            next,
            reg.bits(),
        ),
        I::Lea {
            dst,
            src: O::Mem {
                base: Some(b),
                disp,
            },
        } => lw.emit_w(
            IrOp::Lea {
                rd: dst.bits(),
                base: b.bits(),
                disp,
            },
            pc,
            next,
            dst.bits(),
        ),
        I::Lea {
            dst,
            src: O::Mem { base: None, disp },
        } => lw.emit_w(
            IrOp::MovImm {
                rd: dst.bits(),
                imm: disp as u32,
            },
            pc,
            next,
            dst.bits(),
        ),
        I::JmpRel8(rel) => lw.emit(
            IrOp::Jmp {
                target: next.wrapping_add(rel as i32 as u32),
            },
            pc,
            next,
        ),
        I::JmpRel32(rel) => lw.emit(
            IrOp::Jmp {
                target: next.wrapping_add(rel as u32),
            },
            pc,
            next,
        ),
        I::Jz8(rel) => lw.br(true, next.wrapping_add(rel as i32 as u32), pc, next),
        I::Jnz8(rel) => lw.br(false, next.wrapping_add(rel as i32 as u32), pc, next),
        I::Jz32(rel) => lw.br(true, next.wrapping_add(rel as u32), pc, next),
        I::Jnz32(rel) => lw.br(false, next.wrapping_add(rel as u32), pc, next),
        // Everything else — calls, returns, indirect jumps, syscalls,
        // memory-destination RMW forms, movzx, xchg, leave — runs
        // through the interpreter verbatim.
        other => lw.exec(CachedInsn::X86(other, ilen), pc, next),
    }
}

fn lower_arm(lw: &mut Lowerer, insn: arm::Insn, pc: Addr, next: Addr) {
    use arm::Insn as I;
    // The architectural value `pc` reads as mid-instruction.
    let pc8 = pc.wrapping_add(8);
    match insn {
        I::MovImm { rd, imm } if rd != 15 => lw.emit(IrOp::MovImm { rd, imm }, pc, next),
        I::MvnImm { rd, imm } if rd != 15 => lw.emit(IrOp::MovImm { rd, imm: !imm }, pc, next),
        I::MovReg { rd, rm } if rd != 15 => {
            let op = if rm == 15 {
                IrOp::MovImm { rd, imm: pc8 }
            } else {
                IrOp::MovReg { rd, rm }
            };
            lw.emit(op, pc, next);
        }
        I::AddImm { rd, rn, imm } if rd != 15 => {
            let op = if rn == 15 {
                IrOp::MovImm {
                    rd,
                    imm: pc8.wrapping_add(imm),
                }
            } else {
                IrOp::AddRegImm { rd, rn, imm }
            };
            lw.emit(op, pc, next);
        }
        I::SubImm { rd, rn, imm } if rd != 15 => {
            let op = if rn == 15 {
                IrOp::MovImm {
                    rd,
                    imm: pc8.wrapping_sub(imm),
                }
            } else {
                IrOp::AddRegImm {
                    rd,
                    rn,
                    imm: imm.wrapping_neg(),
                }
            };
            lw.emit(op, pc, next);
        }
        I::OrrImm { rd, rn, imm } if rd != 15 => {
            let op = if rn == 15 {
                IrOp::MovImm { rd, imm: pc8 | imm }
            } else {
                IrOp::BitImm {
                    rd,
                    rn,
                    imm,
                    kind: BitKind::Orr,
                }
            };
            lw.emit(op, pc, next);
        }
        I::AndImm { rd, rn, imm } if rd != 15 => {
            let op = if rn == 15 {
                IrOp::MovImm { rd, imm: pc8 & imm }
            } else {
                IrOp::BitImm {
                    rd,
                    rn,
                    imm,
                    kind: BitKind::And,
                }
            };
            lw.emit(op, pc, next);
        }
        I::EorImm { rd, rn, imm } if rd != 15 => {
            let op = if rn == 15 {
                IrOp::MovImm { rd, imm: pc8 ^ imm }
            } else {
                IrOp::BitImm {
                    rd,
                    rn,
                    imm,
                    kind: BitKind::Eor,
                }
            };
            lw.emit(op, pc, next);
        }
        I::LslImm { rd, rm, shift } if rd != 15 => {
            let op = if rm == 15 {
                IrOp::MovImm {
                    rd,
                    imm: pc8.wrapping_shl(shift as u32),
                }
            } else {
                IrOp::ShiftImm {
                    rd,
                    rm,
                    amount: shift,
                    left: true,
                    set_zf: false,
                }
            };
            lw.emit(op, pc, next);
        }
        I::CmpImm { rn, imm } if rn != 15 => lw.emit(IrOp::CmpImm { rn, imm }, pc, next),
        I::Ldr { rd, rn, offset } if rd != 15 => {
            let (base, disp) = arm_mem(rn, offset, pc8);
            lw.emit(
                IrOp::Load {
                    rd,
                    base,
                    disp,
                    byte: false,
                },
                pc,
                next,
            );
        }
        I::Ldrb { rd, rn, offset } if rd != 15 => {
            let (base, disp) = arm_mem(rn, offset, pc8);
            lw.emit(
                IrOp::Load {
                    rd,
                    base,
                    disp,
                    byte: true,
                },
                pc,
                next,
            );
        }
        I::Str { rd, rn, offset } if rd != 15 => {
            let (base, disp) = arm_mem(rn, offset, pc8);
            lw.emit(
                IrOp::Store {
                    rs: rd,
                    base,
                    disp,
                    byte: false,
                },
                pc,
                next,
            );
        }
        I::Strb { rd, rn, offset } if rd != 15 => {
            let (base, disp) = arm_mem(rn, offset, pc8);
            lw.emit(
                IrOp::Store {
                    rs: rd,
                    base,
                    disp,
                    byte: true,
                },
                pc,
                next,
            );
        }
        I::B { offset } => lw.emit(
            IrOp::Jmp {
                target: pc8.wrapping_add(offset as u32),
            },
            pc,
            next,
        ),
        I::BEq { offset } => lw.br(true, pc8.wrapping_add(offset as u32), pc, next),
        I::BNe { offset } => lw.br(false, pc8.wrapping_add(offset as u32), pc, next),
        // push/pop multiples, bx/blx/bl, svc, and every pc-destination
        // form run through the interpreter verbatim.
        other => lw.exec(CachedInsn::Arm(other), pc, next),
    }
}

/// Resolves an ARM base+offset address operand: a pc base folds to an
/// absolute address at lowering time.
fn arm_mem(rn: u8, offset: i32, pc8: Addr) -> (u8, i32) {
    if rn == 15 {
        (NO_BASE, pc8.wrapping_add(offset as u32) as i32)
    } else {
        (rn, offset)
    }
}

fn lower_riscv(lw: &mut Lowerer, insn: riscv::Insn, ilen: u8, pc: Addr, next: Addr) {
    use riscv::Insn as I;
    // x0 folds aggressively: it reads as the constant 0 and writes to it
    // vanish (loads still execute for their fault semantics — the
    // register write is discarded by `Regs::set_gp`).
    match insn {
        I::Addi { rd: 0, .. }
        | I::Andi { rd: 0, .. }
        | I::Ori { rd: 0, .. }
        | I::Xori { rd: 0, .. }
        | I::Slli { rd: 0, .. }
        | I::Srli { rd: 0, .. }
        | I::Add { rd: 0, .. }
        | I::Sub { rd: 0, .. }
        | I::Lui { rd: 0, .. }
        | I::Auipc { rd: 0, .. } => lw.emit(IrOp::Nop, pc, next),
        I::Lui { rd, imm } => lw.emit(IrOp::MovImm { rd, imm }, pc, next),
        I::Auipc { rd, imm } => lw.emit(
            IrOp::MovImm {
                rd,
                imm: pc.wrapping_add(imm),
            },
            pc,
            next,
        ),
        I::Addi { rd, rs1: 0, imm } => lw.emit(
            IrOp::MovImm {
                rd,
                imm: imm as u32,
            },
            pc,
            next,
        ),
        I::Addi { rd, rs1, imm } => lw.emit(
            IrOp::AddRegImm {
                rd,
                rn: rs1,
                imm: imm as u32,
            },
            pc,
            next,
        ),
        I::Andi { rd, rs1, imm } => lw.emit(
            IrOp::BitImm {
                rd,
                rn: rs1,
                imm: imm as u32,
                kind: BitKind::And,
            },
            pc,
            next,
        ),
        I::Ori { rd, rs1, imm } => lw.emit(
            IrOp::BitImm {
                rd,
                rn: rs1,
                imm: imm as u32,
                kind: BitKind::Orr,
            },
            pc,
            next,
        ),
        I::Xori { rd, rs1, imm } => lw.emit(
            IrOp::BitImm {
                rd,
                rn: rs1,
                imm: imm as u32,
                kind: BitKind::Eor,
            },
            pc,
            next,
        ),
        I::Slli { rd, rs1, shamt } => lw.emit(
            IrOp::ShiftImm {
                rd,
                rm: rs1,
                amount: shamt,
                left: true,
                set_zf: false,
            },
            pc,
            next,
        ),
        I::Srli { rd, rs1, shamt } => lw.emit(
            IrOp::ShiftImm {
                rd,
                rm: rs1,
                amount: shamt,
                left: false,
                set_zf: false,
            },
            pc,
            next,
        ),
        // `c.mv`/`mv` expand to add-with-x0.
        I::Add { rd, rs1: 0, rs2 } => lw.emit(IrOp::MovReg { rd, rm: rs2 }, pc, next),
        I::Add { rd, rs1, rs2: 0 } => lw.emit(IrOp::MovReg { rd, rm: rs1 }, pc, next),
        I::Lw { rd, rs1, offset } => {
            let (base, disp) = riscv_mem(rs1, offset);
            lw.emit(
                IrOp::Load {
                    rd,
                    base,
                    disp,
                    byte: false,
                },
                pc,
                next,
            );
        }
        I::Lbu { rd, rs1, offset } => {
            let (base, disp) = riscv_mem(rs1, offset);
            lw.emit(
                IrOp::Load {
                    rd,
                    base,
                    disp,
                    byte: true,
                },
                pc,
                next,
            );
        }
        I::Sw { rs2, rs1, offset } => {
            let (base, disp) = riscv_mem(rs1, offset);
            lw.emit(
                IrOp::Store {
                    rs: rs2,
                    base,
                    disp,
                    byte: false,
                },
                pc,
                next,
            );
        }
        I::Sb { rs2, rs1, offset } => {
            let (base, disp) = riscv_mem(rs1, offset);
            lw.emit(
                IrOp::Store {
                    rs: rs2,
                    base,
                    disp,
                    byte: true,
                },
                pc,
                next,
            );
        }
        I::Jal { rd: 0, offset } => lw.emit(
            IrOp::Jmp {
                target: pc.wrapping_add(offset as u32),
            },
            pc,
            next,
        ),
        I::Beq { rs1, rs2, offset } if rs1 == rs2 => lw.emit(
            // `beq x, x` is unconditional (`beq x0, x0` shows up as a
            // compact jump idiom).
            IrOp::Jmp {
                target: pc.wrapping_add(offset as u32),
            },
            pc,
            next,
        ),
        I::Bne { rs1, rs2, .. } if rs1 == rs2 => lw.emit(IrOp::Nop, pc, next),
        I::Beq { rs1, rs2, offset } => lw.emit(
            IrOp::BrReg {
                rs1,
                rs2,
                eq: true,
                target: pc.wrapping_add(offset as u32),
                fallthrough: next,
            },
            pc,
            next,
        ),
        I::Bne { rs1, rs2, offset } => lw.emit(
            IrOp::BrReg {
                rs1,
                rs2,
                eq: false,
                target: pc.wrapping_add(offset as u32),
                fallthrough: next,
            },
            pc,
            next,
        ),
        // Linking jumps, indirect jumps/returns, reg-reg add/sub and the
        // traps run through the interpreter verbatim (they touch the
        // shadow stack, CFI, or the syscall layer).
        other => lw.exec(CachedInsn::Riscv(other, ilen), pc, next),
    }
}

/// Resolves a RISC-V base+offset address operand: an x0 base folds to
/// an absolute address.
fn riscv_mem(rs1: u8, offset: i32) -> (u8, i32) {
    if rs1 == 0 {
        (NO_BASE, offset)
    } else {
        (rs1, offset)
    }
}
