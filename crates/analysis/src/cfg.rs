//! Control-flow-graph recovery over firmware images.
//!
//! Function boundaries come from the image's symbol table (the lab's
//! stand-in for `.symtab`); instruction lifting uses the VM's own
//! decoders through a per-address memo table — the same predecoding
//! idea the interpreter's decode cache uses at run time, applied
//! statically so no byte is decoded twice across passes.

use std::collections::{BTreeMap, BTreeSet};

use cml_image::{Addr, Arch, Image, SymbolKind};
use cml_vm::{arm, riscv, x86};

use crate::predecode::Predecoder;

/// One lifted instruction from any of the three ISAs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// An IA-32 instruction.
    X86(x86::Insn),
    /// An A32 instruction.
    Arm(arm::Insn),
    /// An RV32IC instruction (compressed forms pre-expanded).
    Riscv(riscv::Insn),
}

/// A lifted instruction with its location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiftedInsn {
    /// Virtual address.
    pub addr: Addr,
    /// Encoded length in bytes.
    pub len: u32,
    /// The decoded operation.
    pub op: Op,
}

/// How a basic block transfers control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminator {
    /// Function return (`ret`, `pop {.., pc}`, `bx lr`).
    Return,
    /// Unconditional direct branch.
    Jump(Addr),
    /// Conditional direct branch.
    Branch {
        /// Target when the condition holds.
        taken: Addr,
        /// Fall-through address.
        fall: Addr,
    },
    /// Direct call; control resumes at `fall`.
    Call {
        /// Callee entry.
        target: Addr,
        /// Return site.
        fall: Addr,
    },
    /// Indirect transfer through a register or memory operand.
    Indirect,
    /// `hlt` or an undecodable tail.
    Halt,
    /// Straight-line flow into the next block.
    FallThrough(Addr),
}

/// A maximal straight-line run of instructions.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// First instruction address.
    pub start: Addr,
    /// One past the last instruction byte.
    pub end: Addr,
    /// The block's instructions, in address order.
    pub insns: Vec<LiftedInsn>,
    /// How the block exits.
    pub term: Terminator,
    /// Successor block starts *within the same function*.
    pub succs: Vec<Addr>,
}

/// A recovered function: symbol name plus its basic blocks.
#[derive(Debug, Clone)]
pub struct Function {
    /// Symbol name.
    pub name: String,
    /// Entry address.
    pub entry: Addr,
    /// Declared size in bytes.
    pub size: u32,
    /// Basic blocks in address order.
    pub blocks: Vec<BasicBlock>,
    /// `true` when lifting stopped early on an undecodable byte.
    pub truncated: bool,
}

/// A direct call resolved through the symbol table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallEdge {
    /// Calling function's name.
    pub caller: String,
    /// Callee's symbol name (or `"<unresolved>"`).
    pub callee: String,
    /// Address of the call instruction.
    pub at: Addr,
}

/// Aggregate size metrics, for the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CfgStats {
    /// Functions recovered.
    pub functions: usize,
    /// Basic blocks across all functions.
    pub blocks: usize,
    /// Instructions lifted.
    pub instructions: usize,
    /// Direct call edges.
    pub call_edges: usize,
    /// Predecode-memo hits (an address decoded once, consumed again).
    pub decode_hits: u64,
    /// Predecode-memo misses (fresh decodes).
    pub decode_misses: u64,
}

/// The whole-image control-flow graph.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Image architecture.
    pub arch: Arch,
    /// Recovered functions in address order.
    pub functions: Vec<Function>,
    /// Direct call edges.
    pub call_edges: Vec<CallEdge>,
    /// Size metrics.
    pub stats: CfgStats,
}

impl Cfg {
    /// The function named `name`, if recovered.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Control-flow class of a single instruction.
enum Flow {
    Seq,
    Jump(Addr),
    Cond(Addr),
    Call(Addr),
    IndirectJump,
    IndirectCall,
    Return,
    Halt,
}

fn flow_of(insn: &LiftedInsn) -> Flow {
    let next = insn.addr.wrapping_add(insn.len);
    match insn.op {
        Op::X86(i) => match i {
            x86::Insn::Ret | x86::Insn::RetImm16(_) => Flow::Return,
            x86::Insn::JmpRel8(d) => Flow::Jump(next.wrapping_add(d as i32 as u32)),
            x86::Insn::JmpRel32(d) => Flow::Jump(next.wrapping_add(d as u32)),
            x86::Insn::Jz8(d) | x86::Insn::Jnz8(d) => {
                Flow::Cond(next.wrapping_add(d as i32 as u32))
            }
            x86::Insn::Jz32(d) | x86::Insn::Jnz32(d) => Flow::Cond(next.wrapping_add(d as u32)),
            x86::Insn::CallRel32(d) => Flow::Call(next.wrapping_add(d as u32)),
            x86::Insn::CallRm(_) => Flow::IndirectCall,
            x86::Insn::JmpRm(_) => Flow::IndirectJump,
            x86::Insn::Hlt => Flow::Halt,
            _ => Flow::Seq,
        },
        Op::Arm(i) => match i {
            // Branch offsets are relative to pc + 8 (A32 pipeline).
            arm::Insn::B { offset } => {
                Flow::Jump(insn.addr.wrapping_add(8).wrapping_add(offset as u32))
            }
            arm::Insn::BEq { offset } | arm::Insn::BNe { offset } => {
                Flow::Cond(insn.addr.wrapping_add(8).wrapping_add(offset as u32))
            }
            arm::Insn::Bl { offset } => {
                Flow::Call(insn.addr.wrapping_add(8).wrapping_add(offset as u32))
            }
            arm::Insn::Bx { rm } => {
                if rm == 14 {
                    Flow::Return
                } else {
                    Flow::IndirectJump
                }
            }
            arm::Insn::Blx { .. } => Flow::IndirectCall,
            arm::Insn::Pop { list } if list & (1 << 15) != 0 => Flow::Return,
            _ => Flow::Seq,
        },
        Op::Riscv(i) => match i {
            // Branch/jump offsets are relative to the instruction itself.
            riscv::Insn::Jalr {
                rd: 0,
                rs1: 1,
                offset: 0,
            } => Flow::Return,
            riscv::Insn::Jal { rd: 0, offset } => Flow::Jump(insn.addr.wrapping_add(offset as u32)),
            riscv::Insn::Jal { offset, .. } => Flow::Call(insn.addr.wrapping_add(offset as u32)),
            riscv::Insn::Jalr { rd: 0, .. } => Flow::IndirectJump,
            riscv::Insn::Jalr { .. } => Flow::IndirectCall,
            riscv::Insn::Beq { offset, .. } | riscv::Insn::Bne { offset, .. } => {
                Flow::Cond(insn.addr.wrapping_add(offset as u32))
            }
            riscv::Insn::Ebreak => Flow::Halt,
            _ => Flow::Seq,
        },
    }
}

/// Recovers the control-flow graph of every `Function` symbol living in
/// an executable section.
pub fn recover(image: &Image) -> Cfg {
    let mut pred = Predecoder::new(image);
    // Symbol map for call resolution: addr -> name.
    let by_addr: BTreeMap<Addr, &str> = image
        .symbols()
        .iter()
        .filter(|s| {
            matches!(
                s.kind(),
                SymbolKind::Function | SymbolKind::PltEntry | SymbolKind::LibcFunction
            )
        })
        .map(|s| (s.addr(), s.name()))
        .collect();

    let mut functions = Vec::new();
    let mut call_edges = Vec::new();
    let mut syms: Vec<_> = image
        .symbols()
        .iter()
        .filter(|s| s.kind() == SymbolKind::Function)
        .filter(|s| {
            image
                .section_containing(s.addr())
                .is_some_and(|sec| sec.perms().executable())
        })
        .collect();
    syms.sort_by_key(|s| s.addr());

    for sym in syms {
        let f = lift_function(sym.name(), sym.addr(), sym.size(), &mut pred);
        for block in &f.blocks {
            if let Terminator::Call { target, .. } = block.term {
                call_edges.push(CallEdge {
                    caller: f.name.clone(),
                    callee: by_addr
                        .get(&target)
                        .map_or_else(|| "<unresolved>".to_string(), |n| (*n).to_string()),
                    at: block.insns.last().map_or(block.start, |i| i.addr),
                });
            }
        }
        functions.push(f);
    }

    let stats = CfgStats {
        functions: functions.len(),
        blocks: functions.iter().map(|f| f.blocks.len()).sum(),
        instructions: functions
            .iter()
            .map(|f| f.blocks.iter().map(|b| b.insns.len()).sum::<usize>())
            .sum(),
        call_edges: call_edges.len(),
        decode_hits: pred.hits(),
        decode_misses: pred.misses(),
    };

    Cfg {
        arch: image.arch(),
        functions,
        call_edges,
        stats,
    }
}

fn lift_function(name: &str, entry: Addr, size: u32, pred: &mut Predecoder<'_>) -> Function {
    let end = entry.wrapping_add(size.max(4));
    let in_span = |a: Addr| a >= entry && a < end;

    // Pass 1: linear decode of the whole span.
    let mut insns: Vec<LiftedInsn> = Vec::new();
    let mut truncated = false;
    let mut addr = entry;
    while addr < end {
        match pred.decode_at(addr) {
            Some((op, len)) => {
                insns.push(LiftedInsn { addr, len, op });
                addr = addr.wrapping_add(len);
            }
            None => {
                truncated = true;
                break;
            }
        }
    }

    // Pass 2: leaders = entry, branch targets in span, fall-throughs of
    // control transfers.
    let mut leaders: BTreeSet<Addr> = BTreeSet::new();
    leaders.insert(entry);
    for insn in &insns {
        let next = insn.addr.wrapping_add(insn.len);
        match flow_of(insn) {
            Flow::Jump(t) => {
                if in_span(t) {
                    leaders.insert(t);
                }
                if in_span(next) {
                    leaders.insert(next);
                }
            }
            Flow::Cond(t) => {
                if in_span(t) {
                    leaders.insert(t);
                }
                if in_span(next) {
                    leaders.insert(next);
                }
            }
            Flow::Call(_) | Flow::IndirectCall => {
                // Calls return; the next instruction continues the block
                // only conceptually — treat it as a leader so the call
                // terminates its block (call edges live on terminators).
                if in_span(next) {
                    leaders.insert(next);
                }
            }
            Flow::Return | Flow::IndirectJump | Flow::Halt => {
                if in_span(next) {
                    leaders.insert(next);
                }
            }
            Flow::Seq => {}
        }
    }

    // Pass 3: split at leaders and attach terminators/successors.
    let starts: Vec<Addr> = leaders.into_iter().collect();
    let mut blocks: Vec<BasicBlock> = Vec::new();
    for (bi, &start) in starts.iter().enumerate() {
        let stop = starts.get(bi + 1).copied().unwrap_or(end);
        let body: Vec<LiftedInsn> = insns
            .iter()
            .filter(|i| i.addr >= start && i.addr < stop)
            .copied()
            .collect();
        let Some(last) = body.last().copied() else {
            continue;
        };
        let block_end = last.addr.wrapping_add(last.len);
        let term = match flow_of(&last) {
            Flow::Return => Terminator::Return,
            Flow::Jump(t) => Terminator::Jump(t),
            Flow::Cond(t) => Terminator::Branch {
                taken: t,
                fall: block_end,
            },
            Flow::Call(t) => Terminator::Call {
                target: t,
                fall: block_end,
            },
            Flow::IndirectJump | Flow::IndirectCall => Terminator::Indirect,
            Flow::Halt => Terminator::Halt,
            Flow::Seq => Terminator::FallThrough(block_end),
        };
        let mut succs = Vec::new();
        match term {
            Terminator::Jump(t) => {
                if in_span(t) {
                    succs.push(t);
                }
            }
            Terminator::Branch { taken, fall } => {
                if in_span(taken) {
                    succs.push(taken);
                }
                if in_span(fall) {
                    succs.push(fall);
                }
            }
            Terminator::Call { fall, .. } => {
                if in_span(fall) {
                    succs.push(fall);
                }
            }
            Terminator::FallThrough(next) => {
                if in_span(next) {
                    succs.push(next);
                }
            }
            Terminator::Return | Terminator::Indirect | Terminator::Halt => {}
        }
        blocks.push(BasicBlock {
            start,
            end: block_end,
            insns: body,
            term,
            succs,
        });
    }

    Function {
        name: name.to_string(),
        entry,
        size,
        blocks,
        truncated,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cml_firmware::build_image_for;

    /// A hand-built x86 function: each block is its start address, its
    /// instructions (laid out 2 bytes apart) and its terminator, whose
    /// targets are the block's successors.
    pub(crate) fn x86_function(
        name: &str,
        blocks: Vec<(Addr, Vec<x86::Insn>, Terminator)>,
    ) -> Function {
        let blocks = blocks
            .into_iter()
            .map(|(start, ops, term)| (start, ops.into_iter().map(Op::X86).collect(), term))
            .collect();
        hand_built(name, 2, blocks)
    }

    /// A hand-built function of any ISA, its instructions laid out
    /// `len` bytes apart; blocks as for [`x86_function`].
    pub(crate) fn hand_built(
        name: &str,
        len: u32,
        blocks: Vec<(Addr, Vec<Op>, Terminator)>,
    ) -> Function {
        let blocks: Vec<BasicBlock> = blocks
            .into_iter()
            .map(|(start, ops, term)| BasicBlock {
                start,
                end: start + len * ops.len() as u32,
                insns: (0..)
                    .zip(ops)
                    .map(|(k, op)| LiftedInsn {
                        addr: start + len * k,
                        len,
                        op,
                    })
                    .collect(),
                succs: match term {
                    Terminator::Branch { taken, fall } => vec![taken, fall],
                    Terminator::Jump(to) | Terminator::FallThrough(to) => vec![to],
                    Terminator::Call { fall, .. } => vec![fall],
                    Terminator::Return | Terminator::Indirect | Terminator::Halt => Vec::new(),
                },
                term,
            })
            .collect();
        Function {
            name: name.to_string(),
            entry: blocks[0].start,
            size: blocks.last().map_or(0, |b| b.end) - blocks[0].start,
            blocks,
            truncated: false,
        }
    }

    #[test]
    fn recovers_parse_response_loop_on_both_arches() {
        for arch in Arch::ALL {
            let (img, _) = build_image_for(arch, 0, false);
            let cfg = recover(&img);
            let f = cfg.function("parse_response").expect("function recovered");
            assert!(!f.truncated, "{arch}: body must decode fully");
            assert!(f.blocks.len() >= 3, "{arch}: prologue/loop/exit blocks");
            // Exactly one return, and at least one back edge (the loop).
            let rets = f
                .blocks
                .iter()
                .filter(|b| b.term == Terminator::Return)
                .count();
            assert_eq!(rets, 1, "{arch}");
            let back_edges = f
                .blocks
                .iter()
                .flat_map(|b| b.succs.iter().map(move |s| (b.start, *s)))
                .filter(|(from, to)| to <= from)
                .count();
            assert!(back_edges >= 1, "{arch}: copy loop missing");
        }
    }

    #[test]
    fn predecode_memo_pays_off_across_analyses() {
        let (img, _) = build_image_for(Arch::X86, 0, false);
        let first = recover(&img);
        assert!(first.stats.decode_misses > 0);
        assert!(first.stats.instructions > 0);
    }
}
