//! The `parse_response` stack frame, materialized in machine memory.
//!
//! Offsets model a plausible compilation of the real function. What
//! matters for fidelity is the *shape* the paper's exploits interact
//! with: a 1024-byte buffer below a small pad, saved registers, and the
//! saved return address; on ARM additionally two local slots that
//! `parse_rr` dereferences when non-NULL (the paper had to keep them
//! NULL to survive until the `pop {pc}`).

use cml_image::{Addr, Arch};
use cml_vm::{ArmReg, Fault, Machine, RiscvReg, X86Reg};

use crate::NAME_BUFFER_SIZE;

/// Per-architecture frame geometry (offsets from the buffer start).
///
/// The default layouts model the Connman `parse_response` frame with its
/// 1024-byte `name` buffer; [`FrameLayout::scaled`] builds the same
/// shape around a different buffer size, which is how the §V adaptation
/// experiments model *other* vulnerable services (dnsmasq-like,
/// resolver-like) without new exploit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLayout {
    /// Architecture the layout models.
    pub arch: Arch,
    /// Size of the overflowable buffer.
    pub buf_size: usize,
    /// Offset of the saved return address from the buffer start.
    pub ret_offset: usize,
    /// Offset of the canary slot (meaningful only when canaries are
    /// compiled in).
    pub canary_offset: usize,
    /// Offsets of the locals that ARM's `parse_rr` treats as pointers
    /// when non-NULL (empty on x86).
    pub null_check_offsets: [Option<usize>; 2],
    /// Offset of the saved callee-saved register block.
    pub saved_regs_offset: usize,
    /// Number of saved callee-saved registers.
    pub saved_regs_count: usize,
}

impl FrameLayout {
    /// The paper's Connman layouts (1024-byte buffer).
    pub fn connman(arch: Arch) -> FrameLayout {
        FrameLayout::scaled(arch, NAME_BUFFER_SIZE)
    }

    /// The same frame shape around an arbitrary buffer size.
    ///
    /// # Panics
    ///
    /// Panics unless `buf_size` is a positive multiple of 4.
    pub fn scaled(arch: Arch, buf_size: usize) -> FrameLayout {
        assert!(
            buf_size > 0 && buf_size.is_multiple_of(4),
            "buffer must be word-sized"
        );
        match arch {
            // x86: `[buf][locals 8][canary 4][saved ebp 4][ret]`.
            Arch::X86 => FrameLayout {
                arch,
                buf_size,
                ret_offset: buf_size + 16,
                canary_offset: buf_size + 8,
                null_check_offsets: [None, None],
                saved_regs_offset: buf_size + 12,
                saved_regs_count: 1, // ebp
            },
            // ARM: `[buf][null slots 8][canary 4][pad 4][saved r4-r11 32][saved lr]`.
            Arch::Armv7 => FrameLayout {
                arch,
                buf_size,
                ret_offset: buf_size + 48,
                canary_offset: buf_size + 8,
                null_check_offsets: [Some(buf_size), Some(buf_size + 4)],
                saved_regs_offset: buf_size + 16,
                saved_regs_count: 8, // r4-r11
            },
            // RISC-V: `[buf][pad 8][canary 4][pad 4][saved s0-s3 16][saved ra]`.
            // gcc on rv32 spills only the callee-saved registers the body
            // uses; parse_response touches four, and keeps no ARM-style
            // pointer locals between the buffer and the canary.
            Arch::Riscv => FrameLayout {
                arch,
                buf_size,
                ret_offset: buf_size + 32,
                canary_offset: buf_size + 8,
                null_check_offsets: [None, None],
                saved_regs_offset: buf_size + 16,
                saved_regs_count: 4, // s0, s1, s2, s3
            },
        }
    }

    /// The ARM NULL-check slot offsets actually present.
    pub fn null_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.null_check_offsets.iter().flatten().copied()
    }
}

/// Returns the Connman layout for an architecture.
pub fn layout_for(arch: Arch) -> FrameLayout {
    FrameLayout::connman(arch)
}

/// A concrete frame instance: the layout bound to addresses on the
/// simulated stack.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    layout: FrameLayout,
    buf_addr: Addr,
    caller_sp: Addr,
}

impl Frame {
    /// [`Frame::enter_with`] with this ISA's Connman geometry.
    #[cfg(test)]
    fn enter(
        machine: &mut Machine,
        caller_sp: Addr,
        resume_pc: Addr,
        canary: u32,
        pc: Addr,
    ) -> Result<Frame, Fault> {
        let layout = layout_for(machine.arch());
        Frame::enter_with(machine, layout, caller_sp, resume_pc, canary, pc)
    }

    /// Lays the frame out as if the daemon loop (running with stack
    /// pointer `caller_sp`) had just called `parse_response`, and plants
    /// the legitimate saved state: return address `resume_pc`, canary
    /// (when non-zero), NULL locals, and benign saved-register values.
    /// `layout` is Connman's frame geometry or another service's (paper
    /// §V).
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if the stack mapping rejects the setup writes.
    pub fn enter_with(
        machine: &mut Machine,
        layout: FrameLayout,
        caller_sp: Addr,
        resume_pc: Addr,
        canary: u32,
        pc: Addr,
    ) -> Result<Frame, Fault> {
        // Return-address slot sits just below the caller's stack pointer
        // (x86 `call` pushes it; ARM's prologue stores lr there).
        let ret_addr = caller_sp.wrapping_sub(4);
        let buf_addr = ret_addr.wrapping_sub(layout.ret_offset as u32);
        let frame = Frame {
            layout,
            buf_addr,
            caller_sp,
        };
        let mem = machine.mem_mut();
        mem.write_u32(ret_addr, resume_pc, pc)?;
        for (i, slot) in (0..layout.saved_regs_count).enumerate() {
            // Benign callee-saved values: recognizable, mapped-nothing.
            let v = 0x5A5A_0000u32 | slot as u32;
            mem.write_u32(
                buf_addr.wrapping_add((layout.saved_regs_offset + 4 * i) as u32),
                v,
                pc,
            )?;
        }
        for off in layout.null_offsets() {
            mem.write_u32(buf_addr.wrapping_add(off as u32), 0, pc)?;
        }
        if canary != 0 {
            mem.write_u32(
                buf_addr.wrapping_add(layout.canary_offset as u32),
                canary,
                pc,
            )?;
        }
        // The function body runs with sp at the buffer (frame fully
        // reserved).
        machine.regs_mut().set_sp(buf_addr);
        machine.shadow_push(resume_pc);
        Ok(frame)
    }

    /// The frame's geometry.
    pub fn layout(&self) -> FrameLayout {
        self.layout
    }

    /// Address of the `name` buffer.
    pub fn buf_addr(&self) -> Addr {
        self.buf_addr
    }

    /// Address of the saved return address slot.
    pub fn ret_slot(&self) -> Addr {
        self.buf_addr.wrapping_add(self.layout.ret_offset as u32)
    }

    /// Address of the canary slot.
    fn canary_slot(&self) -> Addr {
        self.buf_addr.wrapping_add(self.layout.canary_offset as u32)
    }

    /// Reads the (possibly clobbered) saved return address.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if the slot is unreadable.
    fn saved_ret(&self, machine: &Machine) -> Result<Addr, Fault> {
        machine.mem().read_u32(self.ret_slot(), 0)
    }

    /// Runs the ARM `parse_rr` pointer checks: each NULL-check local that
    /// is non-zero is dereferenced; a bogus pointer faults exactly as the
    /// paper's `mvn.w`-adjacent crash did.
    ///
    /// # Errors
    ///
    /// Returns the dereference [`Fault`] when a clobbered local points
    /// into unmapped memory.
    pub fn run_parse_rr_checks(&self, machine: &Machine, pc: Addr) -> Result<(), Fault> {
        for off in self.layout.null_offsets() {
            let v = machine
                .mem()
                .read_u32(self.buf_addr.wrapping_add(off as u32), pc)?;
            if v != 0 {
                // The C code treats this local as a pointer to record
                // state and reads through it.
                machine.mem().read_u32(v, pc)?;
            }
        }
        Ok(())
    }

    /// Verifies the canary slot against the machine's canary.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::CanarySmashed`] on mismatch.
    pub fn check_canary(&self, machine: &Machine, pc: Addr) -> Result<(), Fault> {
        if machine.canary() == 0 {
            return Ok(());
        }
        let found = machine.mem().read_u32(self.canary_slot(), pc)?;
        if found != machine.canary() {
            return Err(Fault::CanarySmashed {
                found,
                expected: machine.canary(),
            });
        }
        Ok(())
    }

    /// Executes the function epilogue: restores callee-saved registers
    /// from their (possibly clobbered) slots, points the stack pointer
    /// past the return slot, and transfers control to the saved return
    /// address (CFI-checked when enabled).
    ///
    /// On return the machine's `pc` holds wherever the saved return
    /// address pointed; if the frame was smashed, that is
    /// attacker-controlled.
    ///
    /// # Errors
    ///
    /// Returns a [`Fault`] if restoring state faults or CFI rejects the
    /// return target.
    pub fn leave(&self, machine: &mut Machine, pc: Addr) -> Result<(), Fault> {
        let target = self.saved_ret(machine)?;
        match self.layout.arch {
            Arch::X86 => {
                let ebp = machine.mem().read_u32(
                    self.buf_addr
                        .wrapping_add(self.layout.saved_regs_offset as u32),
                    pc,
                )?;
                machine.regs_mut().x86_mut().set(X86Reg::Ebp, ebp);
            }
            Arch::Armv7 => {
                for i in 0..self.layout.saved_regs_count {
                    let v = machine.mem().read_u32(
                        self.buf_addr
                            .wrapping_add((self.layout.saved_regs_offset + 4 * i) as u32),
                        pc,
                    )?;
                    machine.regs_mut().arm_mut().set(ArmReg(4 + i as u8), v);
                }
            }
            Arch::Riscv => {
                // s0, s1 are x8, x9; s2.. start at x18.
                const SAVED: [RiscvReg; 4] = [RiscvReg(8), RiscvReg(9), RiscvReg(18), RiscvReg(19)];
                for (i, reg) in SAVED.iter().take(self.layout.saved_regs_count).enumerate() {
                    let v = machine.mem().read_u32(
                        self.buf_addr
                            .wrapping_add((self.layout.saved_regs_offset + 4 * i) as u32),
                        pc,
                    )?;
                    machine.regs_mut().riscv_mut().set(*reg, v);
                }
            }
        }
        // sp lands just above the return slot: on x86 that is what `ret`
        // leaves behind; on ARM the epilogue's `add sp` does the same.
        machine.regs_mut().set_sp(self.caller_sp);
        machine.ret_to(target, pc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_image::{Perms, SectionKind};

    fn machine(arch: Arch) -> Machine {
        let mut m = Machine::new(arch);
        m.mem_mut().map(
            "stack",
            Some(SectionKind::Stack),
            0x1_0000,
            0x4000,
            Perms::RW,
        );
        m.regs_mut().set_sp(0x1_3000);
        m
    }

    #[test]
    fn geometry_x86() {
        let mut m = machine(Arch::X86);
        let f = Frame::enter(&mut m, 0x1_3000, 0xAABB_CCDD, 0, 0).unwrap();
        assert_eq!(f.ret_slot(), 0x1_3000 - 4);
        assert_eq!(f.buf_addr(), 0x1_3000 - 4 - (1024 + 16) as u32);
        assert_eq!(f.saved_ret(&m).unwrap(), 0xAABB_CCDD);
        assert_eq!(m.regs().sp(), f.buf_addr());
    }

    #[test]
    fn geometry_arm_with_null_slots() {
        let mut m = machine(Arch::Armv7);
        let f = Frame::enter(&mut m, 0x1_3000, 0x0001_2345, 0, 0).unwrap();
        assert_eq!(f.ret_slot() - f.buf_addr(), 1024 + 48);
        f.run_parse_rr_checks(&m, 0).unwrap();
        // Clobber a NULL slot with a bogus pointer: checks now fault.
        m.mem_mut()
            .write_u32(f.buf_addr() + 1024, 0x4141_4141, 0)
            .unwrap();
        assert!(matches!(
            f.run_parse_rr_checks(&m, 0),
            Err(Fault::UnmappedRead {
                addr: 0x4141_4141,
                ..
            })
        ));
        // A *mapped* pointer (e.g. into the stack itself) passes — which
        // is why placeholder values in the paper's chains could also be
        // valid addresses rather than zero.
        m.mem_mut()
            .write_u32(f.buf_addr() + 1024, 0x1_0000, 0)
            .unwrap();
        f.run_parse_rr_checks(&m, 0).unwrap();
    }

    #[test]
    fn canary_detects_clobber() {
        let mut m = machine(Arch::X86);
        m.set_canary(0xFEED_F000);
        let f = Frame::enter(&mut m, 0x1_3000, 0x1000, 0xFEED_F000, 0).unwrap();
        f.check_canary(&m, 0).unwrap();
        m.mem_mut()
            .write_u32(f.canary_slot(), 0x4242_4242, 0)
            .unwrap();
        assert!(matches!(
            f.check_canary(&m, 0),
            Err(Fault::CanarySmashed { .. })
        ));
    }

    #[test]
    fn epilogue_restores_and_returns() {
        let mut m = machine(Arch::Armv7);
        let f = Frame::enter(&mut m, 0x1_3000, 0xDEAD_BEE0, 0, 0).unwrap();
        f.leave(&mut m, 0).unwrap();
        assert_eq!(m.regs().pc(), 0xDEAD_BEE0);
        assert_eq!(m.regs().sp(), 0x1_3000);
        // r4 got the planted benign value.
        assert_eq!(m.regs().arm().get(ArmReg(4)), 0x5A5A_0000);
    }

    #[test]
    fn smashed_ret_controls_pc() {
        let mut m = machine(Arch::X86);
        let f = Frame::enter(&mut m, 0x1_3000, 0x1000, 0, 0).unwrap();
        m.mem_mut().write_u32(f.ret_slot(), 0x6161_6161, 0).unwrap();
        f.leave(&mut m, 0).unwrap();
        assert_eq!(m.regs().pc(), 0x6161_6161);
    }

    #[test]
    fn cfi_rejects_smashed_ret() {
        let mut m = machine(Arch::X86);
        m.enable_cfi();
        let f = Frame::enter(&mut m, 0x1_3000, 0x1000, 0, 0).unwrap();
        m.mem_mut().write_u32(f.ret_slot(), 0x6161_6161, 0).unwrap();
        assert!(matches!(
            f.leave(&mut m, 0),
            Err(Fault::CfiViolation {
                target: 0x6161_6161,
                ..
            })
        ));
        // And accepts the legitimate return.
        let mut m = machine(Arch::X86);
        m.enable_cfi();
        let f = Frame::enter(&mut m, 0x1_3000, 0x1000, 0, 0).unwrap();
        f.leave(&mut m, 0).unwrap();
        assert_eq!(m.regs().pc(), 0x1000);
    }
}
