//! Native libc functions, triggered by program-counter entry.
//!
//! The loader registers each libc symbol (and its PLT stub) as a hook.
//! When the program counter lands on a hooked address — whether via a
//! legitimate `call`, a `ret` into libc (ret2libc), or a `blx r3`
//! trampoline — the function's semantics run natively and control returns
//! per the architecture's convention. This mirrors how the paper's
//! exploits treat libc: as a black box reached purely through addresses.

use cml_image::{Addr, Arch};

use crate::machine::{Event, Machine, RunOutcome};
use crate::Fault;

/// The libc functions the simulated Connman binary links against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum LibcFn {
    /// `memcpy(dest, src, n)` — the ROP chains' string-building tool.
    Memcpy,
    /// `system(command)` — the x86 ret2libc target.
    System,
    /// `execlp(file, arg0, ..., NULL)` — the PLT-reachable exec used by
    /// the ARM chains (accepts relative paths, hence copying only "sh").
    Execlp,
    /// `execve(path, argv, envp)`.
    Execve,
    /// `exit(code)`.
    Exit,
    /// `__stack_chk_fail()` — reached when a canary check fails.
    StackChkFail,
}

impl LibcFn {
    /// The function's symbol name.
    pub fn name(self) -> &'static str {
        match self {
            LibcFn::Memcpy => "memcpy",
            LibcFn::System => "system",
            LibcFn::Execlp => "execlp",
            LibcFn::Execve => "execve",
            LibcFn::Exit => "exit",
            LibcFn::StackChkFail => "__stack_chk_fail",
        }
    }

    /// All hookable functions.
    pub const ALL: [LibcFn; 6] = [
        LibcFn::Memcpy,
        LibcFn::System,
        LibcFn::Execlp,
        LibcFn::Execve,
        LibcFn::Exit,
        LibcFn::StackChkFail,
    ];
}

/// Reads the calling convention's first three arguments and the return
/// address without consuming them.
fn read_args(m: &Machine, pc: Addr) -> Result<(Addr, [u32; 3]), Fault> {
    match m.arch {
        Arch::X86 => {
            // cdecl: [esp] = return address, args above it.
            let sp = m.regs.sp();
            let ret = m.mem.read_u32(sp, pc)?;
            let a0 = m.mem.read_u32(sp.wrapping_add(4), pc)?;
            let a1 = m.mem.read_u32(sp.wrapping_add(8), pc)?;
            let a2 = m.mem.read_u32(sp.wrapping_add(12), pc)?;
            Ok((ret, [a0, a1, a2]))
        }
        Arch::Armv7 => {
            let r = m.regs.arm();
            use crate::regs::ArmReg;
            Ok((
                r.get(ArmReg::LR),
                [r.get(ArmReg(0)), r.get(ArmReg(1)), r.get(ArmReg(2))],
            ))
        }
        Arch::Riscv => {
            let r = m.regs.riscv();
            use crate::regs::RiscvReg;
            Ok((
                r.get(RiscvReg::RA),
                [
                    r.get(RiscvReg::A0),
                    r.get(RiscvReg::A1),
                    r.get(RiscvReg::A2),
                ],
            ))
        }
    }
}

/// Simulates the function's return: x86 pops the return address; ARM
/// branches to `lr`, RISC-V to `ra`.
fn do_return(m: &mut Machine, ret: Addr, retval: u32) -> Result<(), Fault> {
    match m.arch {
        Arch::X86 => {
            m.regs.x86_mut().set(crate::X86Reg::Eax, retval);
            let sp = m.regs.sp();
            m.regs.set_sp(sp.wrapping_add(4));
            m.regs.set_pc(ret);
        }
        Arch::Armv7 => {
            m.regs.arm_mut().set(crate::regs::ArmReg(0), retval);
            m.regs.set_pc(ret);
        }
        Arch::Riscv => {
            m.regs.riscv_mut().set(crate::regs::RiscvReg::A0, retval);
            m.regs.set_pc(ret);
        }
    }
    Ok(())
}

/// Executes the hooked function `f` with the program counter at `pc`.
///
/// # Errors
///
/// Propagates memory faults raised while reading arguments or copying
/// data (e.g. `memcpy` into a read-only page).
pub(crate) fn invoke(m: &mut Machine, f: LibcFn, pc: Addr) -> Result<Option<RunOutcome>, Fault> {
    let (ret, args) = read_args(m, pc)?;
    m.events.push(Event::LibcCall {
        name: f.name(),
        args,
    });
    match f {
        LibcFn::Memcpy => {
            let [dest, src, n] = args;
            // Copy through the MMU: a destination without the W bit
            // faults exactly as a real memcpy would. Non-overlapping
            // copies go region-sized chunks at a time (reads bounded to
            // one region fault only at the chunk head, and chunked
            // writes fault after their written prefix — byte-for-byte
            // the same observable behaviour as a byte-wise copy).
            let (s0, s1) = (src as u64, src as u64 + n as u64);
            let (d0, d1) = (dest as u64, dest as u64 + n as u64);
            let wraps = s1 > u32::MAX as u64 + 1 || d1 > u32::MAX as u64 + 1;
            if wraps || (s0 < d1 && d0 < s1) {
                // Overlapping (or address-space-wrapping) copy keeps the
                // forward byte-wise smear of the original memcpy.
                for i in 0..n {
                    let b = m.mem.read_u8(src.wrapping_add(i), pc)?;
                    m.mem.write_u8(dest.wrapping_add(i), b, pc)?;
                }
            } else {
                // Fixed stack buffer + `read_into`: no per-chunk `Vec`
                // allocation on what is the exploits' hottest libc path.
                let mut buf = [0u8; 256];
                let mut i = 0u32;
                while i < n {
                    let a = src.wrapping_add(i);
                    let avail = m
                        .mem
                        .region_containing(a)
                        .map_or(1, |r| (r.end() - a as u64) as u32);
                    let take = avail.min(n - i).min(buf.len() as u32);
                    m.mem.read_into(a, &mut buf[..take as usize], pc)?;
                    m.mem
                        .write_bytes(dest.wrapping_add(i), &buf[..take as usize], pc)?;
                    i += take;
                }
            }
            do_return(m, ret, dest)?;
            Ok(None)
        }
        LibcFn::System => {
            let mut buf = [0; crate::machine::GUEST_STR_MAX];
            let cmd = m.mem.read_cstr(args[0], &mut buf, pc)?;
            if !cmd.is_empty() && cmd.iter().all(|b| b.is_ascii_graphic() || *b == b' ') {
                Ok(Some(RunOutcome::ShellSpawned(
                    crate::machine::ShellSpawn::system(cmd),
                )))
            } else {
                // Garbage "command" (stale pointer): the spawned sh exits
                // 127 and system() returns to the chain.
                do_return(m, ret, 127 << 8)?;
                Ok(None)
            }
        }
        LibcFn::Execlp => {
            // Variadic: file in arg0, then arg list until NULL. We only
            // need the file and the fact that arg1 terminates the list.
            match m.do_exec(args[0], None, "execlp", pc)? {
                Some(outcome) => Ok(Some(outcome)),
                None => {
                    do_return(m, ret, u32::MAX)?; // -1: ENOENT
                    Ok(None)
                }
            }
        }
        LibcFn::Execve => match m.do_exec(args[0], Some(args[1]), "execve", pc)? {
            Some(outcome) => Ok(Some(outcome)),
            None => {
                do_return(m, ret, u32::MAX)?;
                Ok(None)
            }
        },
        LibcFn::Exit => Ok(Some(RunOutcome::Exited(args[0] as i32))),
        LibcFn::StackChkFail => Ok(Some(RunOutcome::Fault(Fault::CanarySmashed {
            found: args[0],
            expected: m.canary,
        }))),
    }
}

/// x86 Linux syscall dispatch (`int 0x80`).
pub(crate) fn syscall_x86(m: &mut Machine, pc: Addr) -> Result<Option<RunOutcome>, Fault> {
    use crate::X86Reg;
    let r = *m.regs.x86();
    let number = r.get(X86Reg::Eax);
    m.events.push(Event::Syscall { number });
    match number {
        1 => Ok(Some(RunOutcome::Exited(r.get(X86Reg::Ebx) as i32))),
        11 => {
            let path = r.get(X86Reg::Ebx);
            let argv = r.get(X86Reg::Ecx);
            match m.do_exec(path, Some(argv), "execve", pc)? {
                Some(outcome) => Ok(Some(outcome)),
                None => {
                    m.regs.x86_mut().set(X86Reg::Eax, u32::MAX); // -ENOENT
                    Ok(None)
                }
            }
        }
        other => Err(Fault::UnknownSyscall { number: other, pc }),
    }
}

/// ARM EABI syscall dispatch (`svc #0`, number in `r7`).
pub(crate) fn syscall_arm(m: &mut Machine, pc: Addr) -> Result<Option<RunOutcome>, Fault> {
    use crate::regs::ArmReg;
    let r = *m.regs.arm();
    let number = r.get(ArmReg(7));
    m.events.push(Event::Syscall { number });
    match number {
        1 => Ok(Some(RunOutcome::Exited(r.get(ArmReg(0)) as i32))),
        11 => {
            let path = r.get(ArmReg(0));
            let argv = r.get(ArmReg(1));
            match m.do_exec(path, Some(argv), "execve", pc)? {
                Some(outcome) => Ok(Some(outcome)),
                None => {
                    m.regs.arm_mut().set(ArmReg(0), u32::MAX);
                    Ok(None)
                }
            }
        }
        other => Err(Fault::UnknownSyscall { number: other, pc }),
    }
}

/// RISC-V Linux syscall dispatch (`ecall`, number in `a7`). Unlike the
/// legacy x86/ARM tables, riscv32-linux uses the generic numbers:
/// `exit` is 93 and `execve` is 221.
pub(crate) fn syscall_riscv(m: &mut Machine, pc: Addr) -> Result<Option<RunOutcome>, Fault> {
    use crate::regs::RiscvReg;
    let r = *m.regs.riscv();
    let number = r.get(RiscvReg::A7);
    m.events.push(Event::Syscall { number });
    match number {
        93 => Ok(Some(RunOutcome::Exited(r.get(RiscvReg::A0) as i32))),
        221 => {
            let path = r.get(RiscvReg::A0);
            let argv = r.get(RiscvReg::A1);
            match m.do_exec(path, Some(argv), "execve", pc)? {
                Some(outcome) => Ok(Some(outcome)),
                None => {
                    m.regs.riscv_mut().set(RiscvReg::A0, u32::MAX);
                    Ok(None)
                }
            }
        }
        other => Err(Fault::UnknownSyscall { number: other, pc }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_image::{Perms, SectionKind};

    fn x86_machine() -> Machine {
        let mut m = Machine::new(Arch::X86);
        m.mem
            .map(".text", Some(SectionKind::Text), 0x1000, 0x100, Perms::RX);
        m.mem
            .map(".bss", Some(SectionKind::Bss), 0x3000, 0x100, Perms::RW);
        m.mem
            .map("libc", Some(SectionKind::Libc), 0x7000, 0x100, Perms::RX);
        m.mem
            .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
        m.regs.set_sp(0x8800);
        m
    }

    #[test]
    fn memcpy_hook_copies_and_returns() {
        let mut m = x86_machine();
        m.register_hook(0x7000, LibcFn::Memcpy);
        m.mem.poke(0x3000, b"X").unwrap();
        m.mem.write_bytes(0x3010, b"hi!", 0).unwrap();
        // Build cdecl frame: ret=0x1000, dest=0x3000, src=0x3010, n=3.
        for v in [3u32, 0x3010, 0x3000, 0x1000] {
            m.push_u32(v).unwrap();
        }
        m.regs.set_pc(0x7000);
        let out = m.step().unwrap();
        assert!(out.is_none());
        assert_eq!(m.regs().pc(), 0x1000);
        assert_eq!(m.mem().read_bytes(0x3000, 3, 0).unwrap(), b"hi!");
        // eax = dest per the C ABI.
        assert_eq!(m.regs().x86().get(crate::X86Reg::Eax), 0x3000);
    }

    #[test]
    fn memcpy_into_text_faults() {
        let mut m = x86_machine();
        m.register_hook(0x7000, LibcFn::Memcpy);
        for v in [1u32, 0x3000, 0x1000, 0x1000] {
            m.push_u32(v).unwrap();
        }
        m.regs.set_pc(0x7000);
        assert!(matches!(
            m.step(),
            Err(Fault::ProtectedWrite { addr: 0x1000, .. })
        ));
    }

    #[test]
    fn system_hook_spawns_shell() {
        let mut m = x86_machine();
        m.register_hook(0x7010, LibcFn::System);
        m.mem.write_bytes(0x3020, b"/bin/sh\0", 0).unwrap();
        for v in [0u32, 0x3020, 0xdead_0000] {
            m.push_u32(v).unwrap();
        }
        m.regs.set_pc(0x7010);
        let out = m.step().unwrap().expect("terminal");
        assert!(out.is_root_shell());
    }

    #[test]
    fn execlp_on_arm_uses_r0() {
        let mut m = Machine::new(Arch::Armv7);
        m.mem
            .map(".bss", Some(SectionKind::Bss), 0x3000, 0x100, Perms::RW);
        m.mem
            .map(".plt", Some(SectionKind::Plt), 0x1b000, 0x100, Perms::RX);
        m.mem.write_bytes(0x3004, b"sh\0", 0).unwrap();
        m.register_hook(0x1b2d0, LibcFn::Execlp);
        m.regs.arm_mut().set(crate::regs::ArmReg(0), 0x3004);
        m.regs.arm_mut().set(crate::regs::ArmReg(1), 0);
        m.regs.set_pc(0x1b2d0);
        let out = m.step().unwrap().expect("terminal");
        match out {
            RunOutcome::ShellSpawned(s) => {
                assert_eq!(s.program(), "sh");
                assert_eq!(s.via, "execlp");
                assert!(s.is_root_shell());
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn exit_hook_terminates() {
        let mut m = x86_machine();
        m.register_hook(0x7020, LibcFn::Exit);
        for v in [9u32, 0x0] {
            m.push_u32(v).unwrap();
        }
        m.regs.set_pc(0x7020);
        assert_eq!(m.step().unwrap(), Some(RunOutcome::Exited(9)));
    }

    #[test]
    fn stack_chk_fail_reports_canary() {
        let mut m = x86_machine();
        m.set_canary(0xAABB_CCDD);
        m.register_hook(0x7030, LibcFn::StackChkFail);
        for v in [0x4141_4141u32, 0x0] {
            m.push_u32(v).unwrap();
        }
        m.regs.set_pc(0x7030);
        let out = m.step().unwrap().expect("terminal");
        assert_eq!(
            out,
            RunOutcome::Fault(Fault::CanarySmashed {
                found: 0x4141_4141,
                expected: 0xAABB_CCDD
            })
        );
    }
}
