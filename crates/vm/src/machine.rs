//! The machine: registers + memory + hooks + run loop.

use std::borrow::Cow;
use std::fmt;

use cml_image::{Addr, Arch};

use crate::coverage::CoverageMap;
use crate::dcache::CachedInsn;
use crate::hooks::{self, LibcFn};
use crate::mem::{Memory, MemorySnapshot};
use crate::regs::Regs;
use crate::trace::{Trace, TraceEntry};
use crate::{arm, riscv, x86, Fault};

/// Decoded blocks stop after this many instructions (straight-line runs
/// longer than a real basic block are rare; bounding keeps lowering
/// cost and the budget-accounting granularity small).
const MAX_BLOCK: usize = 32;

/// The longest guest C string an exec-family hook reads.
pub(crate) const GUEST_STR_MAX: usize = 256;

/// Bytes of guest text a [`ShellSpawn`] holds: room for the longest
/// program, a `system` command's `sh -c ` and its string. Argv strings
/// share what the program leaves.
const SPAWN_TEXT: usize = GUEST_STR_MAX + 16;

/// The most argv entries an exec reads from the guest's list.
const MAX_ARGV: usize = 16;

/// A simulated `/bin/sh` spawn — the goal state of every exploit in the
/// paper ("interrupt the flow of Connman and spawn a root shell").
///
/// The program and argv are the guest's bytes, held inline so that a
/// hijack that spawns a shell allocates nothing. A guest string is read
/// with a 256-byte cap, so the program always fits; argv
/// strings are kept in order while they fit in the rest of the inline
/// text, and a string that does not fit is left out with every one
/// after it (the lab's shellcode passes at most one short string).
#[derive(Clone, PartialEq, Eq)]
pub struct ShellSpawn {
    text: [u8; SPAWN_TEXT],
    /// `text[..program]` is the program.
    program: u16,
    /// Argv entry `i` is `text[start..ends[i]]`, where `start` is
    /// `argv_start` for the first entry and `ends[i - 1]` after it.
    argv_start: u16,
    ends: [u16; MAX_ARGV],
    argc: u8,
    /// Which entry point produced it: `"execve"`, `"execlp"` or
    /// `"system"`.
    pub via: &'static str,
    /// Effective uid of the compromised process (0: Connman runs as
    /// root).
    pub uid: u32,
}

impl ShellSpawn {
    /// A spawn of `program` with an empty argv. A program longer than
    /// the inline text is cut to fit.
    pub fn new(program: &[u8], via: &'static str, uid: u32) -> Self {
        let program = &program[..program.len().min(SPAWN_TEXT)];
        let mut text = [0; SPAWN_TEXT];
        text[..program.len()].copy_from_slice(program);
        ShellSpawn {
            text,
            program: program.len() as u16,
            argv_start: program.len() as u16,
            ends: [0; MAX_ARGV],
            argc: 0,
            via,
            uid,
        }
    }

    /// `system(cmd)`: the program `sh -c <cmd>`, and `cmd` its one
    /// argument, read back out of the program's text.
    pub(crate) fn system(cmd: &[u8]) -> Self {
        const SH_C: &[u8] = b"sh -c ";
        let mut spawn = ShellSpawn::new(SH_C, "system", 0);
        let end = SH_C.len() + cmd.len();
        spawn.text[SH_C.len()..end].copy_from_slice(cmd);
        spawn.program = end as u16;
        spawn.ends[0] = end as u16;
        spawn.argc = 1;
        spawn
    }

    /// Appends one argv string, unless the argv is full or the string
    /// does not fit. Returns whether it was kept.
    pub(crate) fn push_arg(&mut self, arg: &[u8]) -> bool {
        let argc = self.argc as usize;
        let start = argc
            .checked_sub(1)
            .map_or(self.argv_start, |i| self.ends[i]) as usize;
        let end = start + arg.len();
        if argc == MAX_ARGV || end > SPAWN_TEXT {
            return false;
        }
        self.text[start..end].copy_from_slice(arg);
        self.ends[argc] = end as u16;
        self.argc += 1;
        true
    }

    /// The program path or name passed to the exec-family call, as text
    /// (invalid UTF-8 replaced, as `String::from_utf8_lossy` does).
    pub fn program(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(self.program_bytes())
    }

    /// The argument vector (excluding the terminating NULL), as text.
    pub fn argv(&self) -> impl Iterator<Item = Cow<'_, str>> {
        let ends = &self.ends[..self.argc as usize];
        let starts = std::iter::once(self.argv_start).chain(ends.iter().copied());
        starts
            .zip(ends)
            .map(|(a, &b)| String::from_utf8_lossy(&self.text[a as usize..b as usize]))
    }

    fn program_bytes(&self) -> &[u8] {
        &self.text[..self.program as usize]
    }

    /// Whether this is the paper's success criterion: a shell, as root.
    pub fn is_root_shell(&self) -> bool {
        let program = self.program_bytes();
        self.uid == 0 && (program.ends_with(b"sh") || program.windows(5).any(|w| w == b"sh -c"))
    }
}

impl fmt::Display for ShellSpawn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} via {} (uid {})", self.program(), self.via, self.uid)
    }
}

impl fmt::Debug for ShellSpawn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShellSpawn")
            .field("program", &self.program())
            .field("argv", &self.argv().collect::<Vec<_>>())
            .field("via", &self.via)
            .field("uid", &self.uid)
            .finish()
    }
}

/// A non-terminal side effect recorded during execution. How a run
/// ended is its [`RunOutcome`]; the log holds only what happened on the
/// way there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// A hooked libc function ran.
    LibcCall {
        /// Function name.
        name: &'static str,
        /// First three integer arguments (convention-dependent).
        args: [u32; 3],
    },
    /// A syscall trap was taken.
    Syscall {
        /// Syscall number.
        number: u32,
    },
}

/// Why [`Machine::run`] stopped.
// The spawn is held inline on purpose: boxing it would put an
// allocation back on every hijack that spawns a shell.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Clean exit.
    Exited(i32),
    /// A shell was spawned — exploitation succeeded.
    ShellSpawned(ShellSpawn),
    /// The machine faulted (includes step-limit exhaustion).
    Fault(Fault),
}

impl RunOutcome {
    /// Whether the run ended in the paper's success state.
    pub fn is_root_shell(&self) -> bool {
        matches!(self, RunOutcome::ShellSpawned(s) if s.is_root_shell())
    }

    /// Whether the run ended in a crash (DoS).
    pub fn is_crash(&self) -> bool {
        matches!(self, RunOutcome::Fault(f) if f.is_segfault())
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunOutcome::Exited(c) => write!(f, "exited with code {c}"),
            RunOutcome::ShellSpawned(s) => write!(f, "shell spawned: {s}"),
            RunOutcome::Fault(fault) => write!(f, "fault: {fault}"),
        }
    }
}

/// The simulated machine.
///
/// Create one directly for unit-scale work, or through
/// [`crate::Loader`] to get an image mapped under a protection policy.
#[derive(Debug, Clone)]
pub struct Machine {
    pub(crate) arch: Arch,
    pub(crate) mem: Memory,
    pub(crate) regs: Regs,
    /// Hooked addresses, sorted and distinct (probed by binary search).
    pub(crate) hooks: Vec<(Addr, LibcFn)>,
    /// The hook list [`Machine::set_hooks`] replaced, kept for its
    /// capacity so a warm reslide builds the new list without allocating.
    spare_hooks: Vec<(Addr, LibcFn)>,
    pub(crate) shadow: Option<Vec<Addr>>,
    /// Side-effect log. Like `insn_count` it observes execution: it is
    /// not captured by [`Machine::snapshot`], and [`Machine::restore`]
    /// empties it, keeping its capacity.
    pub(crate) events: Vec<Event>,
    pub(crate) canary: u32,
    pub(crate) trace: Option<Trace>,
    /// Monotonic count of executed instructions (hooked calls count as
    /// one). Deliberately *not* restored by [`Machine::restore`] — it is
    /// the meter the snapshot-vs-reboot ablation reads.
    pub(crate) insn_count: u64,
    /// Edge-coverage map, armed only by the fuzzer. Like `insn_count`
    /// it observes execution rather than being part of machine state, so
    /// [`Machine::restore`] leaves it alone — the fork-server resets it
    /// per input instead.
    pub(crate) cov: Option<Box<CoverageMap>>,
}

/// A point-in-time capture of a [`Machine`]: registers, memory (as
/// `Arc`-shared pages — see [`MemorySnapshot`]), hooks, shadow stack
/// and canary. Restoring costs O(pages dirtied since the snapshot);
/// cloning the snapshot itself is cheap.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    mem: MemorySnapshot,
    regs: Regs,
    hooks: Vec<(Addr, LibcFn)>,
    shadow: Option<Vec<Addr>>,
    canary: u32,
}

impl Machine {
    /// Creates a bare machine with empty memory.
    pub fn new(arch: Arch) -> Self {
        Machine {
            arch,
            mem: Memory::new(),
            regs: Regs::new(arch),
            hooks: Vec::new(),
            spare_hooks: Vec::new(),
            shadow: None,
            events: Vec::new(),
            canary: 0,
            trace: None,
            insn_count: 0,
            cov: None,
        }
    }

    /// Target architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Memory, shared view.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Memory, mutable view.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// `(hits, misses)` counters of the predecoded-instruction cache: a
    /// hit is a dispatch served without decoding (a cached instruction
    /// or a lowered IR block), a miss is an instruction decoded afresh.
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        self.mem.dcache_stats()
    }

    /// Turns threaded-code IR dispatch on or off for this machine (on by
    /// default). With IR off, [`run`](Machine::run) single-steps — the
    /// reference tier the differential suites and the `ir_vs_insn`
    /// ablation compare against. Outcomes, faults, events and
    /// instruction counts are byte-identical either way.
    pub fn set_ir_dispatch_enabled(&mut self, on: bool) {
        self.mem.dcache_set_ir_enabled(on);
    }

    /// Whether threaded-code IR dispatch is enabled.
    fn ir_dispatch_enabled(&self) -> bool {
        self.mem.dcache_ir_enabled()
    }

    /// Arms or drops the edge-coverage bitmap (off by default; the
    /// fuzzer turns it on). When off, execution pays a single `Option`
    /// check per dispatched block — the same "pay only when armed"
    /// contract as the shadow-memory sanitizer.
    pub fn set_coverage_enabled(&mut self, on: bool) {
        match (on, self.cov.is_some()) {
            (true, false) => self.cov = Some(Box::default()),
            (false, true) => self.cov = None,
            _ => {}
        }
    }

    /// The coverage map, when armed.
    pub fn coverage(&self) -> Option<&CoverageMap> {
        self.cov.as_deref()
    }

    /// Zeroes the coverage map (no-op when disarmed). The fork server
    /// calls this between inputs; [`Machine::restore`] deliberately does
    /// not, since the map observes execution rather than machine state.
    pub fn coverage_reset(&mut self) {
        if let Some(c) = &mut self.cov {
            c.reset();
        }
    }

    /// Feeds a **virtual edge** into the coverage map (no-op when
    /// disarmed). Ported native code — the DNS parse loop that executes
    /// no guest instructions but writes through this machine's MMU —
    /// calls this with bucketed progress locations, the moral equivalent
    /// of compile-time instrumentation of the real `get_name`.
    #[inline]
    pub fn cov_note(&mut self, loc: u32) {
        if let Some(c) = &mut self.cov {
            c.note(loc);
        }
    }

    /// Total instructions executed by this machine since creation
    /// (hooked native calls count as one). Monotonic: survives
    /// [`restore`](Machine::restore), so a boot-once/fork-many harness
    /// can meter exactly how much execution each trial cost.
    pub fn insn_count(&self) -> u64 {
        self.insn_count
    }

    /// Captures the machine: registers, memory (page-granular, with
    /// dirty tracking armed so restore is O(dirty pages)), hooks, shadow
    /// stack and canary. The execution trace (if any), the event log and
    /// the instruction meter are *not* captured.
    pub fn snapshot(&mut self) -> MachineSnapshot {
        MachineSnapshot {
            mem: self.mem.snapshot(),
            regs: self.regs,
            hooks: self.hooks.clone(),
            shadow: self.shadow.clone(),
            canary: self.canary,
        }
    }

    /// Rewinds the machine to `snap`. Memory restore copies back only
    /// the pages dirtied since the snapshot and drops the decode-cache
    /// entries of what it rewinds (see [`Memory::restore`]); a hook set
    /// that differs from the snapshot's drops only the lowered IR blocks
    /// around the pcs that gained or lost a hook. Decodes of untouched
    /// code stay warm across the fork. Tracing is reset and the event
    /// log emptied; [`insn_count`](Machine::insn_count) keeps counting.
    pub fn restore(&mut self, snap: &MachineSnapshot) {
        self.mem.restore(&snap.mem);
        self.regs = snap.regs;
        if self.hooks != snap.hooks {
            invalidate_hook_changes(&mut self.mem, &self.hooks, &snap.hooks);
        }
        self.hooks.clone_from(&snap.hooks);
        self.shadow.clone_from(&snap.shadow);
        self.events.clear();
        self.canary = snap.canary;
        self.trace = None;
    }

    /// Registers, shared view.
    pub fn regs(&self) -> &Regs {
        &self.regs
    }

    /// Registers, mutable view.
    pub fn regs_mut(&mut self) -> &mut Regs {
        &mut self.regs
    }

    /// Registers a native libc function at `addr`; entering that address
    /// runs the native semantics instead of fetching instructions.
    ///
    /// Flushes the decode cache: an IR block lowered before the hook
    /// existed could otherwise run straight through the hooked address.
    pub fn register_hook(&mut self, addr: Addr, f: LibcFn) {
        match self.hooks.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => self.hooks[i].1 = f,
            Err(i) => self.hooks.insert(i, (addr, f)),
        }
        self.mem.dcache_flush();
    }

    /// Replaces every registered hook with `hooks`, whose addresses must
    /// be distinct (the loader's boot and reslide paths install a whole
    /// image's hooks this way). The decode cache drops only the lowered
    /// IR blocks around pcs that gained or lost a hook, so a reslide that
    /// moves libc keeps the `.text` blocks warm.
    pub(crate) fn set_hooks(&mut self, hooks: impl Iterator<Item = (Addr, LibcFn)>) {
        let mut new = std::mem::take(&mut self.spare_hooks);
        new.clear();
        new.extend(hooks);
        new.sort_unstable_by_key(|&(a, _)| a);
        debug_assert!(new.windows(2).all(|w| w[0].0 < w[1].0));
        invalidate_hook_changes(&mut self.mem, &self.hooks, &new);
        self.spare_hooks = std::mem::replace(&mut self.hooks, new);
    }

    /// The hooked function at `addr`, if any.
    #[inline]
    pub fn hook_at(&self, addr: Addr) -> Option<LibcFn> {
        self.hooks
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.hooks[i].1)
    }

    /// Enables shadow-stack CFI (paper §IV's hardware-supported CFI
    /// analogue). Returns from frames that were never entered via a call
    /// then fault with [`Fault::CfiViolation`].
    pub fn enable_cfi(&mut self) {
        self.shadow = Some(Vec::new());
    }

    /// The per-boot stack canary value.
    pub fn canary(&self) -> u32 {
        self.canary
    }

    /// Sets the per-boot canary (done by the loader).
    pub fn set_canary(&mut self, canary: u32) {
        self.canary = canary;
    }

    /// Enables execution tracing with a bounded ring of `capacity`
    /// steps (the *end* of the run is retained).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The execution trace, when tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Libc calls and syscalls since the last
    /// [`restore`](Machine::restore), oldest first.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Pushes a 32-bit word onto the stack (both ISAs grow down).
    ///
    /// # Errors
    ///
    /// Returns a write fault if the stack page rejects the store.
    pub fn push_u32(&mut self, v: u32) -> Result<(), Fault> {
        let sp = self.regs.sp().wrapping_sub(4);
        self.mem.write_u32(sp, v, self.regs.pc())?;
        self.regs.set_sp(sp);
        Ok(())
    }

    /// Pops a 32-bit word off the stack.
    ///
    /// # Errors
    ///
    /// Returns a read fault if the stack page rejects the load.
    pub fn pop_u32(&mut self) -> Result<u32, Fault> {
        let sp = self.regs.sp();
        let v = self.mem.read_u32(sp, self.regs.pc())?;
        self.regs.set_sp(sp.wrapping_add(4));
        Ok(v)
    }

    /// Records a legitimate call on the shadow stack (no-op without
    /// CFI). The daemon model uses this when simulating its own call into
    /// `parse_response`, so that a *hijacked* return mismatches.
    pub fn shadow_push(&mut self, ret: Addr) {
        if let Some(s) = &mut self.shadow {
            s.push(ret);
        }
    }

    /// Performs a return to `target`, enforcing the shadow stack when CFI
    /// is enabled.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::CfiViolation`] on mismatch or underflow.
    pub fn ret_to(&mut self, target: Addr, pc: Addr) -> Result<(), Fault> {
        if let Some(s) = &mut self.shadow {
            match s.pop() {
                Some(expected) if expected == target => {}
                other => {
                    return Err(Fault::CfiViolation {
                        target,
                        expected: other,
                        pc,
                    });
                }
            }
        }
        self.regs.set_pc(target);
        Ok(())
    }

    /// Executes one instruction (or one hooked native call).
    ///
    /// Returns `Ok(Some(outcome))` when execution reaches a terminal
    /// state, `Ok(None)` to continue.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] that stopped the machine.
    pub fn step(&mut self) -> Result<Option<RunOutcome>, Fault> {
        self.insn_count += 1;
        let pc = self.regs.pc();
        if let Some(c) = &mut self.cov {
            c.note(pc);
        }
        let hook = self.hook_at(pc);
        if let Some(t) = &mut self.trace {
            t.push(TraceEntry {
                pc,
                sp: self.regs.sp(),
                hook: hook.map(LibcFn::name),
            });
        }
        if let Some(f) = hook {
            return hooks::invoke(self, f, pc);
        }
        match self.arch {
            Arch::X86 => x86::step(self),
            Arch::Armv7 => arm::step(self),
            Arch::Riscv => riscv::step(self),
        }
    }

    /// Decodes the basic block at `start`: a straight-line run of
    /// instructions that stops at the first control-flow instruction,
    /// hooked address, decode failure, or [`MAX_BLOCK`] instructions.
    /// Returns `None` when not even one instruction decodes (the caller
    /// falls back to [`step`](Machine::step), which raises the identical
    /// fault).
    pub(crate) fn build_block(&mut self, start: Addr) -> Option<Vec<CachedInsn>> {
        if !start.is_multiple_of(self.arch.insn_align() as u32) {
            return None;
        }
        let mut insns = Vec::new();
        let mut pc = start;
        while insns.len() < MAX_BLOCK {
            if pc != start && self.hook_at(pc).is_some() {
                break;
            }
            let (ci, ends) = match self.arch {
                Arch::X86 => match x86::decode_at(self, pc) {
                    Ok((insn, len)) => (CachedInsn::X86(insn, len as u8), x86::ends_block(&insn)),
                    Err(_) => break,
                },
                Arch::Armv7 => match arm::decode_at(self, pc) {
                    Ok(insn) => (CachedInsn::Arm(insn), arm::ends_block(&insn)),
                    Err(_) => break,
                },
                Arch::Riscv => match riscv::decode_at(self, pc) {
                    Ok((insn, len)) => {
                        (CachedInsn::Riscv(insn, len as u8), riscv::ends_block(&insn))
                    }
                    Err(_) => break,
                },
            };
            pc = pc.wrapping_add(ci.byte_len());
            insns.push(ci);
            if ends {
                break;
            }
        }
        (!insns.is_empty()).then_some(insns)
    }

    /// Whether [`run`](Machine::run) dispatches through the threaded-code
    /// IR: tracing wants one entry per instruction, and turning IR off
    /// selects the single-step reference.
    fn ir_dispatch(&self) -> bool {
        self.trace.is_none() && self.ir_dispatch_enabled()
    }

    /// Runs until a terminal state or `max_steps` instructions.
    pub fn run(&mut self, max_steps: u64) -> RunOutcome {
        let ir = self.ir_dispatch();
        let mut left = max_steps;
        while left > 0 {
            let (used, res) = if ir {
                crate::ir::step_ir(self, left)
            } else {
                (1, self.step())
            };
            left = left.saturating_sub(used.max(1));
            match res {
                Ok(None) => {}
                Ok(Some(outcome)) => return outcome,
                Err(fault) => return RunOutcome::Fault(fault),
            }
        }
        RunOutcome::Fault(Fault::StepLimit { limit: max_steps })
    }

    /// Single-steps until the pc reaches `target` (checked before each
    /// step), for running a known-benign stretch like the firmware's
    /// boot path. Always per-instruction, so arrival is detected
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns the fault that stopped the machine, or
    /// [`Fault::StepLimit`] if `target` was not reached within
    /// `max_steps` (a terminal outcome before `target` counts as not
    /// reaching it).
    pub fn run_to(&mut self, target: Addr, max_steps: u64) -> Result<(), Fault> {
        for _ in 0..max_steps {
            if self.regs.pc() == target {
                return Ok(());
            }
            match self.step() {
                Ok(None) => {}
                Ok(Some(_)) => return Err(Fault::StepLimit { limit: max_steps }),
                Err(fault) => return Err(fault),
            }
        }
        if self.regs.pc() == target {
            Ok(())
        } else {
            Err(Fault::StepLimit { limit: max_steps })
        }
    }

    /// Shared semantics of `execve`-like entries: read the path (and
    /// argv, when `argv_ptr` is non-null). Returns the terminal
    /// shell-spawn outcome when the path names a program that exists in
    /// the simulated rootfs; returns `Ok(None)` when the exec fails
    /// (`ENOENT`-style) and the caller should deliver `-1` and continue —
    /// which is what a ROP chain built from *stale* ASLR addresses hits.
    pub(crate) fn do_exec(
        &mut self,
        path_ptr: Addr,
        argv_ptr: Option<Addr>,
        via: &'static str,
        pc: Addr,
    ) -> Result<Option<RunOutcome>, Fault> {
        let mut buf = [0; GUEST_STR_MAX];
        let path = self.mem.read_cstr(path_ptr, &mut buf, pc)?;
        if !program_exists(path) {
            return Ok(None);
        }
        let mut spawn = ShellSpawn::new(path, via, 0);
        if let Some(list) = argv_ptr.filter(|&list| list != 0) {
            let mut keep = true;
            for i in 0..MAX_ARGV as u32 {
                let p = self.mem.read_u32(list.wrapping_add(i * 4), pc)?;
                if p == 0 {
                    break;
                }
                // Every string is read, kept or not, so a bad pointer
                // faults as it always did.
                let arg = self.mem.read_cstr(p, &mut buf, pc)?;
                keep = keep && spawn.push_arg(arg);
            }
        }
        Ok(Some(RunOutcome::ShellSpawned(spawn)))
    }
}

/// Drops the lowered IR blocks a change of hook set from `old` to `new`
/// (both sorted by address) invalidates: one merge pass visits every pc
/// hooked in exactly one of them. A pc whose hooked function merely
/// changed needs nothing, since blocks never contain a hooked pc and
/// `step` looks the function up at dispatch.
fn invalidate_hook_changes(mem: &mut Memory, old: &[(Addr, LibcFn)], new: &[(Addr, LibcFn)]) {
    let (mut i, mut j) = (0, 0);
    loop {
        let pc = match (old.get(i).map(|h| h.0), new.get(j).map(|h| h.0)) {
            (None, None) => break,
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
                continue;
            }
            (Some(a), None) => {
                i += 1;
                a
            }
            (Some(a), Some(b)) if a < b => {
                i += 1;
                a
            }
            (_, Some(b)) => {
                j += 1;
                b
            }
        };
        mem.dcache_invalidate_blocks_at(pc);
    }
}

/// The simulated rootfs: the handful of binaries an embedded Connman
/// image ships. Exec of anything else fails with `ENOENT`.
fn program_exists(path: &[u8]) -> bool {
    matches!(
        path,
        b"sh" | b"/bin/sh" | b"/bin//sh" | b"//bin//sh" | b"/bin/busybox" | b"busybox"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::x86::Asm;
    use crate::X86Reg;
    use cml_image::{Perms, SectionKind};

    fn machine_with(code: Vec<u8>) -> Machine {
        let mut m = Machine::new(Arch::X86);
        m.mem
            .map(".text", Some(SectionKind::Text), 0x1000, 0x1000, Perms::RX);
        m.mem
            .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
        m.mem.poke(0x1000, &code).unwrap();
        m.regs.set_pc(0x1000);
        m.regs.set_sp(0x8800);
        m
    }

    #[test]
    fn exit_syscall_terminates() {
        // mov ebx, 7; mov eax... use xor+mov al: eax=1 exit, ebx=7
        let code = Asm::new()
            .xor_rr(X86Reg::Eax, X86Reg::Eax)
            .mov_r8_imm(X86Reg::Eax, 1)
            .mov_r_imm(X86Reg::Ebx, 7)
            .int80()
            .finish();
        let mut m = machine_with(code);
        assert_eq!(m.run(100), RunOutcome::Exited(7));
        assert_eq!(m.events(), [Event::Syscall { number: 1 }]);
    }

    /// The canonical 25-byte /bin//sh shellcode.
    fn execve_shellcode() -> Vec<u8> {
        Asm::new()
            .xor_rr(X86Reg::Eax, X86Reg::Eax)
            .push_r(X86Reg::Eax)
            .push_imm(u32::from_le_bytes(*b"//sh"))
            .push_imm(u32::from_le_bytes(*b"/bin"))
            .mov_rr(X86Reg::Ebx, X86Reg::Esp)
            .push_r(X86Reg::Eax)
            .push_r(X86Reg::Ebx)
            .mov_rr(X86Reg::Ecx, X86Reg::Esp)
            .xor_rr(X86Reg::Edx, X86Reg::Edx)
            .mov_r8_imm(X86Reg::Eax, 11)
            .int80()
            .finish()
    }

    #[test]
    fn classic_execve_shellcode_spawns_shell() {
        let mut m = machine_with(execve_shellcode());
        let out = m.run(100);
        assert!(out.is_root_shell(), "{out}");
        match out {
            RunOutcome::ShellSpawned(s) => {
                assert_eq!(s.program(), "/bin//sh");
                assert_eq!(s.via, "execve");
                assert_eq!(s.argv().collect::<Vec<_>>(), ["/bin//sh"]);
            }
            other => panic!("unexpected outcome {other}"),
        }
    }

    #[test]
    fn spawn_keeps_argv_strings_while_they_fit() {
        let mut s = ShellSpawn::new(b"/bin/sh", "execve", 0);
        let long = [b'a'; GUEST_STR_MAX];
        assert!(s.push_arg(b"sh"));
        assert!(s.push_arg(&long[..200]));
        // 7 + 2 + 200 bytes are taken; 100 more do not fit.
        assert!(!s.push_arg(&long[..100]));
        assert_eq!(s.argv().count(), 2);
        assert_eq!(s.program(), "/bin/sh");
        assert_eq!(s.argv().next().unwrap(), "sh");

        let cmd = [b'c'; GUEST_STR_MAX];
        let s = ShellSpawn::system(&cmd);
        assert_eq!(s.program().len(), "sh -c ".len() + GUEST_STR_MAX);
        assert_eq!(
            s.argv().collect::<Vec<_>>(),
            [String::from_utf8_lossy(&cmd)]
        );
        assert!(s.is_root_shell());
    }

    #[test]
    fn coverage_map_records_dispatch_and_virtual_edges() {
        // A short loop so block dispatch takes distinct edges.
        let mut m = machine_with(loop_code());
        assert!(m.coverage().is_none());
        m.cov_note(0xDEAD); // no-op while disarmed
        assert!(m.coverage().is_none());

        m.set_coverage_enabled(true);
        let _ = m.run(10_000);
        let guest_edges = m.coverage().unwrap().edges();
        assert!(guest_edges >= 2, "loop should light several edges");

        // Virtual edges land in the same map.
        m.cov_note(0xAAAA_0001);
        assert!(m.coverage().unwrap().edges() >= guest_edges);

        // Reset clears; restore does not (the map observes execution).
        m.coverage_reset();
        assert_eq!(m.coverage().unwrap().edges(), 0);
        let mut m2 = machine_with(loop_code());
        m2.set_coverage_enabled(true);
        let snap = m2.snapshot();
        let _ = m2.run(10_000);
        let before = m2.coverage().unwrap().edges();
        assert!(before > 0);
        m2.restore(&snap);
        assert_eq!(
            m2.coverage().unwrap().edges(),
            before,
            "restore must leave the coverage map alone"
        );
        m2.set_coverage_enabled(false);
        assert!(m2.coverage().is_none());
    }

    #[test]
    fn coverage_deterministic_in_both_dispatch_tiers() {
        // Per-insn dispatch notes every pc; IR dispatch notes block
        // entries. The *set* of noted locations differs between the
        // tiers but determinism per tier must hold.
        let run_mode = |ir_on: bool| {
            let mut m = machine_with(loop_code());
            m.set_ir_dispatch_enabled(ir_on);
            m.set_coverage_enabled(true);
            let _ = m.run(10_000);
            m.coverage().unwrap().bytes().to_vec()
        };
        assert_eq!(run_mode(true), run_mode(true), "IR tier deterministic");
        assert_eq!(run_mode(false), run_mode(false), "insn tier deterministic");
    }

    #[test]
    fn step_limit_is_a_fault() {
        let code = Asm::new().jmp_rel8(-2).finish(); // infinite loop
        let mut m = machine_with(code);
        let out = m.run(50);
        assert_eq!(out, RunOutcome::Fault(Fault::StepLimit { limit: 50 }));
        assert!(!out.is_crash());
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut m = machine_with(vec![0x90]);
        m.push_u32(0xdead_beef).unwrap();
        m.push_u32(0x1337).unwrap();
        assert_eq!(m.pop_u32().unwrap(), 0x1337);
        assert_eq!(m.pop_u32().unwrap(), 0xdead_beef);
    }

    #[test]
    fn cfi_blocks_unpaired_return() {
        let code = Asm::new().ret().finish();
        let mut m = machine_with(code);
        m.enable_cfi();
        m.push_u32(0x1000).unwrap(); // forged return address
        let out = m.run(10);
        assert!(matches!(
            out,
            RunOutcome::Fault(Fault::CfiViolation { expected: None, .. })
        ));
    }

    #[test]
    fn cfi_allows_matching_return() {
        let code = Asm::new().ret().nop().finish();
        let mut m = machine_with(code);
        m.enable_cfi();
        m.shadow_push(0x1001);
        m.push_u32(0x1001).unwrap();
        // ret to 0x1001 (nop) then run out of code into illegal bytes.
        assert!(m.step().unwrap().is_none());
        assert_eq!(m.regs().pc(), 0x1001);
    }

    #[test]
    fn nx_stack_faults_when_executing() {
        let mut m = machine_with(vec![0x90]);
        m.regs.set_pc(0x8100); // stack is RW, not X
        let out = m.run(5);
        assert!(out.is_crash());
        assert!(matches!(
            out,
            RunOutcome::Fault(Fault::NxViolation { pc: 0x8100, .. })
        ));
    }

    /// A hot backward loop then `exit(ebx)` — the workload IR dispatch
    /// targets (and the shape of the firmware's `daemon_init`).
    fn loop_code() -> Vec<u8> {
        Asm::new()
            .mov_r_imm(X86Reg::Ecx, 200)
            .inc_r(X86Reg::Eax)
            .inc_r(X86Reg::Eax)
            .dec_r(X86Reg::Ecx)
            .jnz_rel8(-5)
            .xor_rr(X86Reg::Eax, X86Reg::Eax)
            .mov_r8_imm(X86Reg::Eax, 1)
            .mov_r_imm(X86Reg::Ebx, 7)
            .int80()
            .finish()
    }

    #[test]
    fn ir_and_insn_dispatch_agree() {
        let mut ir = machine_with(loop_code());
        let mut insn = machine_with(loop_code());
        insn.set_ir_dispatch_enabled(false);
        let (a, b) = (ir.run(10_000), insn.run(10_000));
        assert_eq!(a, b);
        assert_eq!(a, RunOutcome::Exited(7));
        assert_eq!(ir.insn_count(), insn.insn_count());
        assert_eq!(ir.events(), insn.events());
        assert_eq!(format!("{:?}", ir.regs()), format!("{:?}", insn.regs()));
    }

    #[test]
    fn ir_dispatch_respects_step_budget() {
        // Budget 50 expires mid-loop — inside a lowered block (and a
        // folded `inc` run).
        let mut reference = machine_with(loop_code());
        reference.set_ir_dispatch_enabled(false);
        assert_eq!(
            reference.run(50),
            RunOutcome::Fault(Fault::StepLimit { limit: 50 })
        );
        let mut m = machine_with(loop_code());
        let out = m.run(50);
        assert_eq!(out, RunOutcome::Fault(Fault::StepLimit { limit: 50 }));
        assert_eq!(m.insn_count(), reference.insn_count());
        assert_eq!(format!("{:?}", m.regs()), format!("{:?}", reference.regs()));
    }

    #[test]
    fn snapshot_restore_rewinds_machine_state() {
        let mut m = machine_with(loop_code());
        m.push_u32(0x1234).unwrap();
        let snap = m.snapshot();
        let insns_at_snap = m.insn_count();
        let first = m.run(10_000);
        assert_eq!(first, RunOutcome::Exited(7));
        assert!(!m.events().is_empty());

        m.restore(&snap);
        assert_eq!(m.regs().pc(), 0x1000);
        assert_eq!(m.pop_u32().unwrap(), 0x1234, "stack contents rewound");
        m.push_u32(0x1234).unwrap();
        assert!(m.events().is_empty(), "events rewound");
        assert!(
            m.insn_count() > insns_at_snap,
            "insn meter keeps counting across restore"
        );
        assert_eq!(m.run(10_000), first, "replay is identical");
    }

    #[test]
    fn restore_empties_the_event_log() {
        // A snapshot taken after a logged run does not capture the log:
        // `events()` means "side effects since the last restore".
        let mut m = machine_with(loop_code());
        assert_eq!(m.run(10_000), RunOutcome::Exited(7));
        let after_run = m.snapshot();
        m.regs.set_pc(0x1000);
        assert_eq!(m.run(10_000), RunOutcome::Exited(7));
        assert_eq!(m.events(), [Event::Syscall { number: 1 }; 2]);
        m.restore(&after_run);
        assert!(m.events().is_empty(), "restore empties the log");
    }

    #[test]
    fn terminal_outcomes_log_only_libc_calls_and_syscalls() {
        // exit(7) via int 0x80, a hooked exit and __stack_chk_fail, an
        // unknown syscall, a plain fault and the execve shellcode: how
        // each run ended lives in its outcome alone.
        let hooked = |f: LibcFn| {
            let mut m = machine_with(vec![0x90]);
            m.set_canary(0xAABB_CCDD);
            m.register_hook(0x1000, f);
            for v in [0x4141_4141u32, 0x0] {
                m.push_u32(v).unwrap();
            }
            m
        };
        let unknown = Asm::new()
            .xor_rr(X86Reg::Eax, X86Reg::Eax)
            .mov_r8_imm(X86Reg::Eax, 99)
            .int80()
            .finish();
        let mut nx = machine_with(vec![0x90]);
        nx.regs.set_pc(0x8100);
        let cases = [
            (
                machine_with(loop_code()),
                RunOutcome::Exited(7),
                vec![Event::Syscall { number: 1 }],
            ),
            (
                hooked(LibcFn::Exit),
                RunOutcome::Exited(0x4141_4141),
                vec![Event::LibcCall {
                    name: "exit",
                    args: [0x4141_4141, 0, 0],
                }],
            ),
            (
                hooked(LibcFn::StackChkFail),
                RunOutcome::Fault(Fault::CanarySmashed {
                    found: 0x4141_4141,
                    expected: 0xAABB_CCDD,
                }),
                vec![Event::LibcCall {
                    name: "__stack_chk_fail",
                    args: [0x4141_4141, 0, 0],
                }],
            ),
            (
                machine_with(unknown),
                RunOutcome::Fault(Fault::UnknownSyscall {
                    number: 99,
                    pc: 0x1004,
                }),
                vec![Event::Syscall { number: 99 }],
            ),
            (
                nx,
                RunOutcome::Fault(Fault::NxViolation {
                    pc: 0x8100,
                    perms: Perms::RW,
                }),
                vec![],
            ),
        ];
        for (mut m, outcome, events) in cases {
            assert_eq!(m.run(10_000), outcome);
            assert_eq!(m.events(), events, "{outcome}");
        }
        let mut m = machine_with(execve_shellcode());
        assert!(m.run(100).is_root_shell());
        assert_eq!(m.events(), [Event::Syscall { number: 11 }]);
    }

    #[test]
    fn text_mutation_after_snapshot_is_coherent_and_undone_by_restore() {
        // The imm32 of `mov ebx, 7` sits one byte into the instruction.
        let code = loop_code();
        let imm_off = (code.len() - 2 - 4) as Addr; // before int80's 2 bytes
        for ir_on in [true, false] {
            let mut m = machine_with(loop_code());
            m.set_ir_dispatch_enabled(ir_on);
            let snap = m.snapshot();
            // Populate the decode cache and IR table.
            assert_eq!(m.run(10_000), RunOutcome::Exited(7));

            // Mutate .text after restoring: cached decodes for the page
            // must not serve the stale exit code.
            m.restore(&snap);
            m.mem_mut().poke(0x1000 + imm_off, &[9]).unwrap();
            assert_eq!(
                m.run(10_000),
                RunOutcome::Exited(9),
                "ir_on={ir_on}: mutated code must execute"
            );

            // Restore again: the mutation itself is rewound.
            m.restore(&snap);
            assert_eq!(
                m.run(10_000),
                RunOutcome::Exited(7),
                "ir_on={ir_on}: restore must undo the .text write"
            );
        }
    }

    #[test]
    fn restore_drops_hooks_registered_after_snapshot() {
        let mut m = machine_with(loop_code());
        let snap = m.snapshot();
        m.register_hook(0x1000, LibcFn::Exit);
        m.restore(&snap);
        assert!(m.hooks.is_empty());
        assert_eq!(m.run(10_000), RunOutcome::Exited(7), "code runs, not hook");
    }
}
