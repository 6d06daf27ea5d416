//! Target architectures.

use std::fmt;
use std::str::FromStr;

/// The 32-bit instruction sets the lab targets: the paper's two, plus
/// RISC-V for the IoT fleets the paper's successors cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Arch {
    /// Intel IA-32 (the paper's Ubuntu 16.04 VM).
    X86,
    /// ARMv7-A in ARM state (the paper's Raspberry Pi 3 Model B).
    Armv7,
    /// RV32IC — base RV32I plus the C (compressed) extension, the
    /// dominant embedded-RISC-V profile.
    Riscv,
}

impl Arch {
    /// Width of a pointer / general register, in bytes.
    pub const fn pointer_width(self) -> usize {
        4
    }

    /// Instruction alignment requirement in bytes: x86 is unaligned, ARM
    /// (ARM state) requires 4-byte alignment, and RV32IC requires only
    /// 2-byte alignment (the C extension halves the granule). Gadget
    /// scanning honours this, which is why x86 yields unintended
    /// unaligned gadgets, ARM does not, and RISC-V yields the in-between
    /// class: 2-byte-misaligned entries into 4-byte instructions.
    pub const fn insn_align(self) -> usize {
        match self {
            Arch::X86 => 1,
            Arch::Armv7 => 4,
            Arch::Riscv => 2,
        }
    }

    /// The byte sequence used as a no-operation filler in injected
    /// payloads: `0x90` on x86, the paper's 4-byte `mov r1, r1`
    /// equivalent on ARMv7, and the 2-byte `c.nop` on RV32IC.
    pub fn nop_bytes(self) -> &'static [u8] {
        match self {
            Arch::X86 => &[0x90],
            // e1a01001 = mov r1, r1 (little-endian in memory).
            Arch::Armv7 => &[0x01, 0x10, 0xa0, 0xe1],
            // 0001 = c.nop (c.addi x0, 0).
            Arch::Riscv => &[0x01, 0x00],
        }
    }

    /// Human-readable name matching the paper's usage.
    pub const fn name(self) -> &'static str {
        match self {
            Arch::X86 => "x86",
            Arch::Armv7 => "ARMv7",
            Arch::Riscv => "RISC-V",
        }
    }

    /// All architectures, paper order first, RISC-V third.
    pub const ALL: [Arch; 3] = [Arch::X86, Arch::Armv7, Arch::Riscv];
}

impl fmt::Display for Arch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses an architecture by its command-line spelling: `x86`,
/// `arm` (or `armv7`), `riscv` (or `rv32`).
impl FromStr for Arch {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "x86" => Ok(Arch::X86),
            "arm" | "armv7" => Ok(Arch::Armv7),
            "riscv" | "rv32" => Ok(Arch::Riscv),
            other => Err(format!("unknown arch {other:?} (want x86 | arm | riscv)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn properties() {
        assert_eq!(Arch::X86.pointer_width(), 4);
        assert_eq!(Arch::Armv7.pointer_width(), 4);
        assert_eq!(Arch::X86.insn_align(), 1);
        assert_eq!(Arch::Armv7.insn_align(), 4);
        assert_eq!(Arch::Riscv.insn_align(), 2);
        assert_eq!(Arch::X86.nop_bytes(), &[0x90]);
        assert_eq!(Arch::Armv7.nop_bytes().len(), 4);
        assert_eq!(Arch::Riscv.nop_bytes(), &[0x01, 0x00]);
    }

    #[test]
    fn display() {
        assert_eq!(Arch::X86.to_string(), "x86");
        assert_eq!(Arch::Armv7.to_string(), "ARMv7");
        assert_eq!(Arch::Riscv.to_string(), "RISC-V");
    }

    #[test]
    fn parses_every_spelling() {
        for (s, arch) in [
            ("x86", Arch::X86),
            ("arm", Arch::Armv7),
            ("armv7", Arch::Armv7),
            ("riscv", Arch::Riscv),
            ("rv32", Arch::Riscv),
        ] {
            assert_eq!(s.parse::<Arch>(), Ok(arch));
        }
        let err = "mips".parse::<Arch>().unwrap_err();
        assert!(err.contains("unknown arch \"mips\""), "{err}");
    }
}
