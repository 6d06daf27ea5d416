//! Post-mortem and live inspection — the simulation's `gdb`.
//!
//! The paper's exploit-construction workflow is: run the target under
//! gdb, examine the `parse_response` frame, find libc/symbol addresses,
//! crash it with a pattern and read the faulting pc. [`Inspector`]
//! provides gdb's `find` and `x/i` against a [`Machine`], and
//! [`FaultReport`] packages what a crash log would show.

use std::fmt;

use cml_image::Addr;

use crate::machine::Machine;
use crate::{arm, riscv, x86, Fault};

/// A read-only view over a machine for address discovery: byte search
/// and disassembly.
#[derive(Debug)]
pub struct Inspector<'m> {
    machine: &'m Machine,
}

impl<'m> Inspector<'m> {
    /// Attaches to a machine.
    pub fn new(machine: &'m Machine) -> Self {
        Inspector { machine }
    }

    /// Searches all mapped regions for a byte pattern, returning
    /// addresses (like gdb's `find`).
    pub fn find(&self, needle: &[u8]) -> Vec<Addr> {
        let mut hits = Vec::new();
        if needle.is_empty() {
            return hits;
        }
        for r in self.machine.mem().regions() {
            let data = r.data();
            if data.len() < needle.len() {
                continue;
            }
            for i in 0..=data.len() - needle.len() {
                if &data[i..i + needle.len()] == needle {
                    hits.push(r.base() + i as Addr);
                }
            }
        }
        hits
    }

    /// Disassembles up to `count` instructions at `addr` into text lines
    /// (`x/i` analogue). Stops at the first undecodable word.
    pub fn disassemble(&self, addr: Addr, count: usize) -> Vec<String> {
        let mut lines = Vec::new();
        let mut pc = addr;
        for _ in 0..count {
            let window = match self.machine.mem().read_bytes(pc, 16, 0) {
                Ok(w) => w,
                Err(_) => match self.machine.mem().read_bytes(pc, 4, 0) {
                    Ok(w) => w,
                    Err(_) => break,
                },
            };
            let (text, len) = match self.machine.arch() {
                cml_image::Arch::X86 => match x86::decode(&window) {
                    Ok((i, n)) => (i.to_string(), n),
                    Err(_) => break,
                },
                cml_image::Arch::Armv7 => match arm::decode(&window) {
                    Ok((i, n)) => (i.to_string(), n),
                    Err(_) => break,
                },
                cml_image::Arch::Riscv => match riscv::decode(&window) {
                    Ok((i, n)) => (i.to_string(), n),
                    Err(_) => break,
                },
            };
            lines.push(format!("{pc:#010x}: {text}"));
            pc = pc.wrapping_add(len as u32);
        }
        lines
    }
}

/// A crash report: what the daemon's log / a core dump shows after a
/// fault. Offset discovery reads `pattern_pc` out of this. Everything
/// is held inline, so capturing one allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// The fault itself.
    pub fault: Fault,
    /// Program-counter value at the fault, when the fault carries one.
    pub pc: Option<Addr>,
    /// Stack pointer at the time of death.
    pub sp: Addr,
    /// A few words of stack context, as a crash handler would dump.
    pub stack: StackDump,
}

impl FaultReport {
    /// Builds a report from a faulted machine.
    pub fn capture(machine: &Machine, fault: Fault) -> Self {
        let sp = machine.regs().sp();
        let mut stack = StackDump::default();
        for i in 0..StackDump::WORDS as u32 {
            if let Ok(w) = machine.mem().read_u32(sp.wrapping_add(4 * i), 0) {
                stack.words[stack.len] = w;
                stack.len += 1;
            }
        }
        FaultReport {
            pc: fault.pc(),
            fault,
            sp,
            stack,
        }
    }
}

/// The readable words among the eight above a dead machine's stack
/// pointer, in address order, held inline. Derefs to the words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StackDump {
    words: [u32; StackDump::WORDS],
    len: usize,
}

impl StackDump {
    /// How many words above the stack pointer a capture reads.
    pub const WORDS: usize = 8;
}

impl std::ops::Deref for StackDump {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.words[..self.len]
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "*** {} ***", self.fault)?;
        if let Some(pc) = self.pc {
            writeln!(f, "pc: {pc:#010x}")?;
        }
        writeln!(f, "sp: {:#010x}", self.sp)?;
        for (i, w) in self.stack.iter().enumerate() {
            writeln!(f, "  [sp+{:#04x}] {w:#010x}", i * 4)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x86::Asm;
    use cml_image::{Arch, Perms, SectionKind};

    fn machine() -> Machine {
        let mut m = Machine::new(Arch::X86);
        m.mem_mut()
            .map(".text", Some(SectionKind::Text), 0x1000, 0x100, Perms::RX);
        m.mem_mut()
            .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
        m.mem_mut()
            .poke(
                0x1000,
                &Asm::new().nop().push_r(crate::X86Reg::Eax).ret().finish(),
            )
            .unwrap();
        m.regs_mut().set_pc(0x1000);
        m.regs_mut().set_sp(0x8800);
        m
    }

    #[test]
    fn disassembly_lines() {
        let m = machine();
        let lines = Inspector::new(&m).disassemble(0x1000, 3);
        assert_eq!(lines.len(), 3);
        assert!(lines[0].ends_with("nop"));
        assert!(lines[2].ends_with("ret"));
    }

    #[test]
    fn find_locates_bytes() {
        let mut m = machine();
        m.mem_mut().write_bytes(0x8100, b"/bin/sh", 0).unwrap();
        let insp = Inspector::new(&m);
        assert_eq!(insp.find(b"/bin/sh"), vec![0x8100]);
        assert!(insp.find(b"missing-string").is_empty());
    }

    #[test]
    fn fault_report_shows_hijacked_pc() {
        let mut m = machine();
        m.regs_mut().set_pc(0x6161_6161);
        let out = m.run(5);
        let fault = match out {
            crate::RunOutcome::Fault(f) => f,
            other => panic!("expected fault, got {other}"),
        };
        let report = FaultReport::capture(&m, fault);
        assert_eq!(report.pc, Some(0x6161_6161));
        let text = report.to_string();
        assert!(text.contains("0x61616161"));
    }
}
