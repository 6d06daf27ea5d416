//! Per-function stack-frame layout recovery.
//!
//! Walks each recovered function's entry block and interprets the
//! prologue the way a debugger's unwinder would: register saves, the
//! frame-pointer handoff, the stack carve, and the first frame-relative
//! address taken (the buffer slot). All offsets are **entry-SP
//! relative**: offset 0 is the stack pointer value at the function's
//! first instruction, negative offsets grow down into the frame.
//!
//! * x86: the caller's `call` leaves the return address *at* entry SP,
//!   so `ret_offset` is always 0. `push ebp; mov ebp,esp` puts the
//!   frame pointer at −4, `sub esp, N` carves locals, and
//!   `lea r, [ebp−d]` reveals a buffer at `−4 − d + 4 = −d` … i.e.
//!   `fp_offset + d`.
//! * ARM: the return address arrives in `lr` and only reaches the stack
//!   via `push {…, lr}`; `lr` is the highest-numbered register in the
//!   list, so it lands at the highest address of the save area.
//!   A leaf that never pushes `lr` has no saved-return slot
//!   (`ret_offset == None`) and cannot be hijacked by a stack smash.
//!
//! The recovered `buf_to_ret` distance is the number the exploit layer
//! measures dynamically (`FrameRecon::ret_offset`); the oracle tests
//! pin the two against each other byte-for-byte.

use cml_image::Arch;
use cml_vm::{x86, X86Reg};

use crate::cfg::{Cfg, Function, Op};

/// Recovered frame layout for one function, entry-SP relative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameInfo {
    /// Function name.
    pub function: String,
    /// Bytes of locals carved by the prologue (`sub esp/sp, N`).
    pub frame_size: u32,
    /// Registers the prologue saves on the stack.
    pub saved_regs: u32,
    /// Offset of the lowest frame-relative address taken in the entry
    /// block — the buffer the body writes through.
    pub buf_offset: Option<i64>,
    /// Offset of the saved return address (x86: always 0; ARM: the
    /// `lr` slot of the prologue push, absent for true leaves).
    pub ret_offset: Option<i64>,
    /// Offset of a stack-guard slot. `Some` only for canary-
    /// instrumented builds; the lab firmware images are uninstrumented,
    /// so recovery reports `None` and the exploitability layer instead
    /// reasons about *hypothetical* canary placement.
    pub canary_offset: Option<i64>,
}

impl FrameInfo {
    /// Bytes from the buffer's first byte up to the saved return
    /// address — the overwrite distance an exploit must cover.
    pub fn buf_to_ret(&self) -> Option<i64> {
        match (self.buf_offset, self.ret_offset) {
            (Some(buf), Some(ret)) => Some(ret - buf),
            _ => None,
        }
    }
}

/// Recovers the frame layout of every function in the CFG.
pub fn recover_frames(cfg: &Cfg) -> Vec<FrameInfo> {
    cfg.functions
        .iter()
        .map(|f| frame_of(cfg.arch, f))
        .collect()
}

/// The frame layout of one function.
fn frame_of(arch: Arch, f: &Function) -> FrameInfo {
    let mut info = FrameInfo {
        function: f.name.clone(),
        frame_size: 0,
        saved_regs: 0,
        buf_offset: None,
        ret_offset: match arch {
            Arch::X86 => Some(0),
            Arch::Armv7 | Arch::Riscv => None,
        },
        canary_offset: None,
    };
    let Some(entry) = f.blocks.first() else {
        return info;
    };

    // Entry-SP-relative cursor of the stack pointer, and (x86) of the
    // frame pointer once established.
    let mut sp: i64 = 0;
    let mut fp: Option<i64> = None;
    let take_buf = |info: &mut FrameInfo, candidate: i64| {
        if candidate < 0 && info.buf_offset.is_none_or(|cur| candidate < cur) {
            info.buf_offset = Some(candidate);
        }
    };

    for insn in &entry.insns {
        match insn.op {
            Op::X86(i) => {
                use x86::Insn as I;
                use x86::Operand as O;
                match i {
                    I::PushR(_) => {
                        sp -= 4;
                        info.saved_regs += 1;
                    }
                    I::PushImm(_) => sp -= 4,
                    I::MovRmR {
                        dst: O::Reg(X86Reg::Ebp),
                        src: X86Reg::Esp,
                    } => fp = Some(sp),
                    I::SubRmImm8 {
                        dst: O::Reg(X86Reg::Esp),
                        imm,
                    } => {
                        sp -= imm as i64;
                        info.frame_size += imm as u32;
                    }
                    I::SubRmImm32 {
                        dst: O::Reg(X86Reg::Esp),
                        imm,
                    } => {
                        sp -= imm as i64;
                        info.frame_size += imm;
                    }
                    I::Lea {
                        src:
                            O::Mem {
                                base: Some(base),
                                disp,
                            },
                        ..
                    } => {
                        let anchor = match base {
                            X86Reg::Ebp => fp,
                            X86Reg::Esp => Some(sp),
                            _ => None,
                        };
                        if let Some(a) = anchor {
                            take_buf(&mut info, a + disp as i64);
                        }
                    }
                    _ => {}
                }
            }
            Op::Arm(i) => {
                use cml_vm::arm::{reg_list, Insn as I};
                match i {
                    I::Push { list } => {
                        sp -= 4 * list.count_ones() as i64;
                        info.saved_regs += list.count_ones();
                        // Slot of register `k` in a push: ascending
                        // register number → ascending address.
                        for (slot, reg) in reg_list(list).enumerate() {
                            if reg == 14 {
                                info.ret_offset = Some(sp + 4 * slot as i64);
                            }
                        }
                    }
                    I::SubImm {
                        rd: 13,
                        rn: 13,
                        imm,
                        ..
                    } => {
                        sp -= imm as i64;
                        info.frame_size += imm;
                    }
                    I::MovReg { rm: 13, rd } if rd != 13 => take_buf(&mut info, sp),
                    I::AddImm {
                        rn: 13, rd, imm, ..
                    } if rd != 13 => take_buf(&mut info, sp + imm as i64),
                    _ => {}
                }
            }
            Op::Riscv(i) => {
                use cml_vm::riscv::Insn as I;
                match i {
                    I::Addi { rd: 2, rs1: 2, imm } => {
                        sp += imm as i64;
                        if imm < 0 {
                            info.frame_size += (-imm) as u32;
                        }
                    }
                    I::Sw {
                        rs2,
                        rs1: 2,
                        offset,
                    } => {
                        info.saved_regs += 1;
                        if rs2 == 1 {
                            info.ret_offset = Some(sp + offset as i64);
                        }
                    }
                    I::Addi { rd, rs1: 2, imm } if rd != 2 => {
                        take_buf(&mut info, sp + imm as i64);
                    }
                    _ => {}
                }
            }
        }
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use cml_firmware::build_image_for;

    fn frame(arch: Arch, patched: bool, name: &str) -> FrameInfo {
        let (img, _) = build_image_for(arch, 0, patched);
        let cfg = cfg::recover(&img);
        let f = cfg.function(name).expect("function recovered");
        frame_of(arch, f)
    }

    #[test]
    fn recovers_parse_response_frame_geometry() {
        for patched in [false, true] {
            let fx = frame(Arch::X86, patched, "parse_response");
            assert_eq!(fx.frame_size, 0x40C, "x86 patched={patched}");
            assert_eq!(fx.saved_regs, 1, "x86");
            assert_eq!(fx.buf_offset, Some(-1040), "x86");
            assert_eq!(fx.ret_offset, Some(0), "x86");
            assert_eq!(fx.buf_to_ret(), Some(1040), "x86");

            let fa = frame(Arch::Armv7, patched, "parse_response");
            assert_eq!(fa.frame_size, 0x410, "arm patched={patched}");
            assert_eq!(fa.saved_regs, 9, "arm");
            assert_eq!(fa.buf_offset, Some(-1076), "arm");
            assert_eq!(fa.ret_offset, Some(-4), "arm: lr is the top slot");
            assert_eq!(fa.buf_to_ret(), Some(1072), "arm");

            let fr = frame(Arch::Riscv, patched, "parse_response");
            assert_eq!(fr.frame_size, 0x424, "riscv patched={patched}");
            assert_eq!(fr.saved_regs, 3, "riscv: ra, s0, s1");
            assert_eq!(fr.buf_offset, Some(-1060), "riscv");
            assert_eq!(fr.ret_offset, Some(-4), "riscv: ra at the frame top");
            assert_eq!(fr.buf_to_ret(), Some(1056), "riscv");
        }
    }

    #[test]
    fn uninstrumented_images_have_no_canary_slot() {
        for arch in Arch::ALL {
            let fx = frame(arch, false, "parse_response");
            assert_eq!(fx.canary_offset, None, "{arch}");
        }
    }
}
