//! Simulated 32-bit machine for `connman-lab`.
//!
//! This crate is the hardware-and-OS substitute for the reproduced
//! paper's x86 VM and Raspberry Pi: a little-endian 32-bit machine with
//!
//! * permissioned, region-based [`Memory`] — instruction fetch from
//!   non-executable pages and writes to read-only pages raise [`Fault`]s,
//!   which is how W⊕X ("DEP"/NX) manifests;
//! * three interpreters over **real instruction encodings**: an IA-32
//!   subset ([`x86`]), an ARMv7 (ARM state) subset ([`arm`]), and an
//!   RV32IC subset ([`riscv`]), each with a matching assembler and
//!   disassembler, all decoding through one declarative rule-table
//!   subsystem ([`decoder`]);
//! * a libc [`hooks`] layer: `memcpy`, `system`, `execlp`, `execve` and
//!   `exit` are native functions triggered when the program counter
//!   enters their address, following each architecture's calling
//!   convention — spawning `/bin/sh` becomes an observable
//!   [`RunOutcome::ShellSpawned`] instead of an actual process;
//! * a [`loader`] that maps a [`cml_image::Image`] under a
//!   [`Protections`] policy: W⊕X strips the execute bit from writable
//!   regions, ASLR slides the libc/stack/heap bases by a per-boot random
//!   page offset (program `.text`/`.plt`/`.bss` stay fixed, as in the
//!   paper's non-PIE binaries);
//! * an optional shadow-stack CFI mode and per-boot stack-canary value,
//!   used by the mitigation experiments (paper §IV).
//!
//! Nothing in this crate touches the host: "spawning a shell" is a pure
//! simulation event.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arm;
pub mod coverage;
mod dcache;
pub mod debug;
pub mod decoder;
mod fault;
pub mod hooks;
mod ir;
pub mod loader;
mod machine;
mod mem;
mod regs;
pub mod riscv;
pub mod trace;
pub mod x86;

pub use coverage::{CoverageMap, COV_MAP_SIZE};
pub use fault::Fault;
pub use hooks::LibcFn;
pub use loader::{AslrConfig, LoadMap, Loader, Protections};
pub use machine::{Event, Machine, MachineSnapshot, RunOutcome, ShellSpawn};
pub use mem::{Memory, MemorySnapshot, RedzoneAccess, RedzoneHit, Region};
pub use regs::{ArmReg, ArmRegs, Regs, RiscvReg, RiscvRegs, X86Reg, X86Regs};
pub use trace::{Trace, TraceEntry};

/// Virtual address alias re-exported from the image crate.
pub use cml_image::Addr;
