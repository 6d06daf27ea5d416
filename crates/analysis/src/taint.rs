//! Static taint pass: DNS-response bytes → fixed-size stack buffers.
//!
//! The pass runs a small abstract interpretation over each recovered
//! function. In a *source* function (by default `forward_dns_reply`,
//! where the raw DNS reply first enters dnsproxy) the incoming packet
//! pointer is seeded as tainted; loads through it yield tainted data,
//! and stores of tainted data through stack-derived pointers are
//! candidate sinks. Sources propagate **interprocedurally**: when a
//! source function passes a tainted argument at a call site (last push
//! on x86, `r0` on ARM), the callee joins the source set — which is how
//! taint walks the real CVE-2017-12865 chain `forward_dns_reply` →
//! `uncompress` → `parse_response` without `parse_response` being
//! configured by hand.
//!
//! A candidate store becomes a finding when it sits inside a loop none
//! of whose exits compare an *untainted* value against a constant —
//! i.e. the copy runs until attacker-controlled data says stop, the
//! exact shape of CVE-2017-12865's `get_name`. The bounds-checked 1.35
//! body adds a counter-vs-capacity exit, which is untainted-vs-constant,
//! so the same loop is classified bounded and the pass stays quiet.
//!
//! The pass also *consumes* call summaries (see [`crate::callgraph`]):
//! a call site whose callee is summarized as returning a statically
//! evident constant re-seeds the return register with that constant
//! instead of clobbering it to unknown.
//!
//! This is a may-taint analysis: joins prefer `Tainted`, and pointer
//! classes collapse to `Top` on conflict. Buffer capacities come from
//! [`TaintConfig`] frame metadata (the lab's stand-in for DWARF variable
//! info).

use std::collections::{BTreeSet, HashMap};

use cml_image::{Addr, Arch};
use cml_vm::{arm, riscv, x86, X86Reg};

use crate::callgraph::Summaries;
use crate::cfg::{BasicBlock, Cfg, Function, Op, Terminator};

/// Abstract value tracked per register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abs {
    /// Unknown.
    Top,
    /// A known constant (from an immediate move / register zeroing).
    Const(u32),
    /// Pointer into the tainted input (the DNS response).
    ArgPtr,
    /// Data derived from the tainted input.
    Tainted,
    /// Pointer into the current stack frame.
    StackPtr,
}

impl Abs {
    fn join(self, other: Abs) -> Abs {
        if self == other {
            self
        } else if self == Abs::Tainted || other == Abs::Tainted {
            Abs::Tainted
        } else {
            Abs::Top
        }
    }

    fn is_tainted(self) -> bool {
        matches!(self, Abs::Tainted | Abs::ArgPtr)
    }

    fn is_const(self) -> bool {
        matches!(self, Abs::Const(_))
    }

    /// Pointer arithmetic / increments preserve pointer and taint
    /// classes; a stale constant becomes unknown.
    fn after_arith(self) -> Abs {
        match self {
            Abs::ArgPtr | Abs::StackPtr | Abs::Tainted => self,
            Abs::Const(_) | Abs::Top => Abs::Top,
        }
    }
}

/// Per-program-point abstract state: 32 register slots (x86 uses the
/// low 8, ARM the low 16), the class pair of the last flag-setting
/// comparison (on RISC-V, of the last conditional branch — there is no
/// separate compare), and the class of the most recent push (the
/// outgoing x86 call argument).
#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: [Abs; 32],
    flags: (Abs, Abs),
    last_push: Abs,
}

impl State {
    fn entry(arch: Arch, is_source: bool) -> State {
        let mut regs = [Abs::Top; 32];
        match arch {
            Arch::X86 => {
                regs[X86Reg::Esp.bits() as usize] = Abs::StackPtr;
            }
            Arch::Armv7 => {
                regs[13] = Abs::StackPtr;
                if is_source {
                    regs[0] = Abs::ArgPtr;
                }
            }
            Arch::Riscv => {
                regs[0] = Abs::Const(0); // x0 is hardwired
                regs[2] = Abs::StackPtr;
                if is_source {
                    regs[10] = Abs::ArgPtr; // a0
                }
            }
        }
        State {
            regs,
            flags: (Abs::Top, Abs::Top),
            last_push: Abs::Top,
        }
    }

    /// Joins `other` in; returns whether anything widened.
    fn join_with(&mut self, other: &State) -> bool {
        let mut changed = false;
        for i in 0..32 {
            let j = self.regs[i].join(other.regs[i]);
            if j != self.regs[i] {
                self.regs[i] = j;
                changed = true;
            }
        }
        let f = (
            self.flags.0.join(other.flags.0),
            self.flags.1.join(other.flags.1),
        );
        if f != self.flags {
            self.flags = f;
            changed = true;
        }
        let p = self.last_push.join(other.last_push);
        if p != self.last_push {
            self.last_push = p;
            changed = true;
        }
        changed
    }
}

/// A store of some abstract value through a stack-derived pointer.
#[derive(Debug, Clone, Copy)]
struct StackStore {
    addr: Addr,
    value: Abs,
}

/// Facts collected on the post-fixpoint pass.
#[derive(Debug, Default)]
struct Collected {
    /// Stores through stack-derived pointers.
    stores: Vec<StackStore>,
    /// Per-call-site outgoing first argument: (call insn addr, class).
    call_args: Vec<(Addr, Abs)>,
    /// Whether any store through any pointer class was seen.
    writes_mem: bool,
}

/// Source/sink configuration.
#[derive(Debug, Clone)]
pub struct TaintConfig {
    /// Functions whose arguments carry attacker-controlled bytes.
    /// Taint propagates from here down the call graph.
    pub sources: Vec<String>,
    /// Frame metadata: function name → stack-buffer capacity in bytes
    /// (the lab's stand-in for DWARF local-variable info).
    pub sink_capacities: Vec<(String, u32)>,
}

impl Default for TaintConfig {
    fn default() -> Self {
        TaintConfig {
            sources: vec![cml_connman::SYM_FORWARD_DNS_REPLY.to_string()],
            sink_capacities: vec![(
                cml_connman::SYM_PARSE_RESPONSE.to_string(),
                cml_connman::NAME_BUFFER_SIZE as u32,
            )],
        }
    }
}

/// One tainted, unbounded copy into a stack buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintFinding {
    /// Function the flow lives in.
    pub function: String,
    /// Address of (one of) the offending store instruction(s).
    pub store_addr: Addr,
    /// Head of the unbounded copy loop.
    pub loop_head: Addr,
    /// Human-readable taint source.
    pub source: String,
    /// Human-readable sink description.
    pub sink: String,
    /// Sink buffer capacity in bytes (0 when unknown).
    pub capacity: u32,
}

/// Runs the taint pass over a recovered CFG, computing call summaries
/// on the fly.
#[cfg(test)]
fn taint_pass(cfg: &Cfg, config: &TaintConfig) -> Vec<TaintFinding> {
    taint_pass_with(cfg, config, &Summaries::compute(cfg))
}

/// Runs the taint pass over a recovered CFG with precomputed call
/// summaries.
pub fn taint_pass_with(
    cfg: &Cfg,
    config: &TaintConfig,
    summaries: &Summaries,
) -> Vec<TaintFinding> {
    let ret_consts = ret_const_sites(cfg, summaries);
    let sources = effective_sources(cfg, config);
    let mut findings = Vec::new();
    for f in &cfg.functions {
        let is_source = sources.contains(&f.name);
        findings.extend(findings_in(cfg.arch, f, is_source, config, &ret_consts));
    }
    findings
}

/// The transitive source set: configured sources plus every function
/// reached by a tainted first argument at a call site, to a fixpoint.
pub fn effective_sources(cfg: &Cfg, config: &TaintConfig) -> BTreeSet<String> {
    let callee_by_site: HashMap<Addr, &str> = cfg
        .call_edges
        .iter()
        .map(|e| (e.at, e.callee.as_str()))
        .collect();
    let mut sources: BTreeSet<String> = config.sources.iter().cloned().collect();
    let no_consts = HashMap::new();
    loop {
        let mut grew = false;
        for f in &cfg.functions {
            if !sources.contains(&f.name) {
                continue;
            }
            let collected = collect_function(cfg.arch, f, true, &no_consts);
            for (site, class) in &collected.call_args {
                if !class.is_tainted() {
                    continue;
                }
                if let Some(callee) = callee_by_site.get(site) {
                    grew |= sources.insert((*callee).to_string());
                }
            }
        }
        if !grew {
            return sources;
        }
    }
}

/// Per-function facts the call-summary computation needs, derived with
/// the same abstract interpreter the findings pass uses (arguments
/// assumed tainted, no summaries consumed).
#[derive(Debug, Clone, Default)]
pub(crate) struct FnProfile {
    /// Whether the body stores through any pointer.
    pub writes_mem: bool,
    /// Whether the body copies tainted data into the stack through a
    /// loop with no untainted bound, assuming its arguments are
    /// attacker-controlled.
    pub unbounded_copy: bool,
    /// The constant the function leaves in the return register on every
    /// `ret` path, when statically evident.
    pub returns_const: Option<u32>,
}

pub(crate) fn function_profile(arch: Arch, f: &Function) -> FnProfile {
    let no_consts = HashMap::new();
    let Some(fx) = fixpoint(arch, f, true, &no_consts) else {
        return FnProfile::default();
    };
    // Return-constant detection: every Return block must leave the
    // return register holding the same constant.
    let ret_reg = match arch {
        Arch::X86 => X86Reg::Eax.bits() as usize,
        Arch::Armv7 => 0,
        Arch::Riscv => 10, // a0
    };
    let mut returns_const = None;
    let mut consistent = true;
    for (i, b) in f.blocks.iter().enumerate() {
        if b.term != Terminator::Return {
            continue;
        }
        match fx.exit_states[i].as_ref().map(|s| s.regs[ret_reg]) {
            Some(Abs::Const(v)) => match returns_const {
                None => returns_const = Some(v),
                Some(prev) if prev == v => {}
                Some(_) => consistent = false,
            },
            _ => consistent = false,
        }
    }
    let writes_mem = fx.collected.writes_mem;
    FnProfile {
        writes_mem,
        unbounded_copy: !unbounded_stores(f, fx).is_empty(),
        returns_const: if consistent { returns_const } else { None },
    }
}

/// Call-site address → constant the callee returns, per the summaries.
fn ret_const_sites(cfg: &Cfg, summaries: &Summaries) -> HashMap<Addr, u32> {
    cfg.call_edges
        .iter()
        .filter_map(|e| {
            summaries
                .get(&e.callee)
                .and_then(|s| s.returns_const)
                .map(|v| (e.at, v))
        })
        .collect()
}

/// The fixpoint result of one function analysis.
struct Fixpoint {
    /// Post-state of every block (indexed like `f.blocks`).
    exit_states: Vec<Option<State>>,
    /// Facts collected on the final pass.
    collected: Collected,
}

fn fixpoint(
    arch: Arch,
    f: &Function,
    is_source: bool,
    ret_consts: &HashMap<Addr, u32>,
) -> Option<Fixpoint> {
    if f.blocks.is_empty() {
        return None;
    }
    let idx: HashMap<Addr, usize> = f
        .blocks
        .iter()
        .enumerate()
        .map(|(i, b)| (b.start, i))
        .collect();
    let n = f.blocks.len();

    // Fixed point over block input states.
    let mut inputs: Vec<Option<State>> = vec![None; n];
    inputs[0] = Some(State::entry(arch, is_source));
    loop {
        let mut changed = false;
        for i in 0..n {
            let Some(mut st) = inputs[i].clone() else {
                continue;
            };
            walk_block(&mut st, &f.blocks[i], is_source, ret_consts, None);
            for succ in &f.blocks[i].succs {
                let Some(&j) = idx.get(succ) else { continue };
                match &mut inputs[j] {
                    slot @ None => {
                        *slot = Some(st.clone());
                        changed = true;
                    }
                    Some(existing) => changed |= existing.join_with(&st),
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Final pass: collect stores / call args and per-block exit states.
    let mut collected = Collected::default();
    let mut exit_states: Vec<Option<State>> = vec![None; n];
    for i in 0..n {
        let Some(mut st) = inputs[i].clone() else {
            continue;
        };
        walk_block(
            &mut st,
            &f.blocks[i],
            is_source,
            ret_consts,
            Some(&mut collected),
        );
        exit_states[i] = Some(st);
    }
    Some(Fixpoint {
        exit_states,
        collected,
    })
}

fn collect_function(
    arch: Arch,
    f: &Function,
    is_source: bool,
    ret_consts: &HashMap<Addr, u32>,
) -> Collected {
    fixpoint(arch, f, is_source, ret_consts)
        .map(|fx| fx.collected)
        .unwrap_or_default()
}

/// Tainted stores sitting in loops with no untainted bounding exit:
/// `(store addr, loop head)` pairs, one per loop.
fn unbounded_stores(f: &Function, fx: Fixpoint) -> Vec<(Addr, Addr)> {
    // Natural-loop approximation: a back edge `b -> h` (h ≤ b.start)
    // bounds the address range [h, b.end). Sufficient for the reducible
    // compiler-shaped loops these images contain.
    let loops: Vec<(Addr, Addr)> = f
        .blocks
        .iter()
        .flat_map(|b| {
            b.succs
                .iter()
                .filter(move |&&s| s <= b.start)
                .map(move |&s| (s, b.end))
        })
        .collect();
    let exit_flags: Vec<Option<(Abs, Abs)>> = fx
        .exit_states
        .iter()
        .map(|s| s.as_ref().map(|s| s.flags))
        .collect();

    let mut out = Vec::new();
    let mut seen: BTreeSet<(Addr, Addr)> = BTreeSet::new();
    for store in fx
        .collected
        .stores
        .iter()
        .filter(|s| s.value == Abs::Tainted)
    {
        for &(head, end) in &loops {
            let in_loop = store.addr >= head && store.addr < end;
            if !in_loop || !seen.insert((head, store.addr)) {
                continue;
            }
            if loop_has_bounding_exit(f, &exit_flags, head, end) {
                continue;
            }
            out.push((store.addr, head));
        }
    }
    // One finding per loop is enough signal; collapse duplicate stores.
    out.sort_by_key(|&(store, head)| (head, store));
    out.dedup_by_key(|&mut (_, head)| head);
    out
}

fn findings_in(
    arch: Arch,
    f: &Function,
    is_source: bool,
    config: &TaintConfig,
    ret_consts: &HashMap<Addr, u32>,
) -> Vec<TaintFinding> {
    let Some(fx) = fixpoint(arch, f, is_source, ret_consts) else {
        return Vec::new();
    };
    let capacity = config
        .sink_capacities
        .iter()
        .find(|(name, _)| name == &f.name)
        .map_or(0, |(_, c)| *c);
    unbounded_stores(f, fx)
        .into_iter()
        .map(|(store_addr, loop_head)| TaintFinding {
            function: f.name.clone(),
            store_addr,
            loop_head,
            source: format!("DNS response bytes ({} argument)", f.name),
            sink: if capacity > 0 {
                format!("{capacity}-byte stack name buffer")
            } else {
                "stack buffer (capacity unknown)".to_string()
            },
            capacity,
        })
        .collect()
}

/// Whether any conditional exit of the loop `[head, end)` compares an
/// untainted value against a constant — the signature of a capacity
/// check.
fn loop_has_bounding_exit(
    f: &Function,
    exit_flags: &[Option<(Abs, Abs)>],
    head: Addr,
    end: Addr,
) -> bool {
    let in_range = |a: Addr| a >= head && a < end;
    f.blocks.iter().enumerate().any(|(i, b)| {
        if !in_range(b.start) {
            return false;
        }
        let Terminator::Branch { taken, fall } = b.term else {
            return false;
        };
        if in_range(taken) && in_range(fall) {
            return false; // not an exit
        }
        let Some((l, r)) = exit_flags[i] else {
            return false;
        };
        !l.is_tainted() && !r.is_tainted() && (l.is_const() || r.is_const())
    })
}

fn walk_block(
    st: &mut State,
    b: &BasicBlock,
    is_source: bool,
    ret_consts: &HashMap<Addr, u32>,
    mut collect: Option<&mut Collected>,
) {
    for insn in &b.insns {
        match insn.op {
            Op::X86(i) => step_x86(
                st,
                &i,
                is_source,
                insn.addr,
                ret_consts,
                collect.as_deref_mut(),
            ),
            Op::Arm(i) => step_arm(st, &i, insn.addr, ret_consts, collect.as_deref_mut()),
            Op::Riscv(i) => step_riscv(st, &i, insn.addr, ret_consts, collect.as_deref_mut()),
        }
    }
}

fn step_x86(
    st: &mut State,
    i: &x86::Insn,
    is_source: bool,
    addr: Addr,
    ret_consts: &HashMap<Addr, u32>,
    collect: Option<&mut Collected>,
) {
    use x86::Insn as I;
    use x86::Operand as O;
    let r = |reg: X86Reg| reg.bits() as usize;
    match *i {
        I::MovRImm(d, v) => st.regs[r(d)] = Abs::Const(v),
        I::MovR8Imm(d, _) => st.regs[r(d)] = Abs::Top,
        I::MovRmR { dst, src } => match dst {
            O::Reg(d) => st.regs[r(d)] = st.regs[r(src)],
            O::Mem { base: Some(b), .. } => {
                if let Some(out) = collect {
                    out.writes_mem = true;
                    if st.regs[r(b)] == Abs::StackPtr {
                        out.stores.push(StackStore {
                            addr,
                            value: st.regs[r(src)],
                        });
                    }
                }
            }
            O::Mem { base: None, .. } => {}
        },
        I::MovRRm { dst, src } | I::Movzx8 { dst, src } => {
            st.regs[r(dst)] = load_class(st, src, is_source, &r);
        }
        I::Lea { dst, src } => {
            st.regs[r(dst)] = match src {
                O::Mem { base: Some(b), .. } => st.regs[r(b)].after_arith(),
                _ => Abs::Top,
            };
        }
        I::XorRmR {
            dst: O::Reg(d),
            src,
        } if d == src => st.regs[r(d)] = Abs::Const(0),
        I::XorRmR { dst: O::Reg(d), .. }
        | I::AndRmR { dst: O::Reg(d), .. }
        | I::OrRmR { dst: O::Reg(d), .. } => st.regs[r(d)] = Abs::Top,
        I::AddRmImm8 { dst: O::Reg(d), .. }
        | I::SubRmImm8 { dst: O::Reg(d), .. }
        | I::AddRmImm32 { dst: O::Reg(d), .. }
        | I::SubRmImm32 { dst: O::Reg(d), .. } => {
            st.regs[r(d)] = st.regs[r(d)].after_arith();
        }
        I::IncR(d) | I::DecR(d) => st.regs[r(d)] = st.regs[r(d)].after_arith(),
        I::ShlRImm8 { reg, .. } | I::ShrRImm8 { reg, .. } => st.regs[r(reg)] = Abs::Top,
        I::PushR(s) => st.last_push = st.regs[r(s)],
        I::PushImm(v) => st.last_push = Abs::Const(v),
        I::PopR(d) => st.regs[r(d)] = Abs::Top,
        I::XchgEaxR(d) => {
            let eax = r(X86Reg::Eax);
            st.regs.swap(eax, r(d));
        }
        I::TestRmR { dst, src } | I::CmpRmR { dst, src } => {
            st.flags = (load_class(st, dst, is_source, &r), st.regs[r(src)]);
        }
        I::CmpRmImm8 { dst, imm } => {
            st.flags = (
                load_class(st, dst, is_source, &r),
                Abs::Const(imm as i32 as u32),
            );
        }
        I::CmpRmImm32 { dst, imm } => {
            st.flags = (load_class(st, dst, is_source, &r), Abs::Const(imm));
        }
        I::CallRel32(_) | I::CallRm(_) => {
            if let Some(out) = collect {
                out.call_args.push((addr, st.last_push));
            }
            // Caller-saved registers are clobbered by the callee; a
            // summarized constant return re-seeds eax.
            for reg in [X86Reg::Eax, X86Reg::Ecx, X86Reg::Edx] {
                st.regs[r(reg)] = Abs::Top;
            }
            if let Some(&v) = ret_consts.get(&addr) {
                st.regs[r(X86Reg::Eax)] = Abs::Const(v);
            }
        }
        _ => {}
    }
}

/// The abstract value read through an operand: argument slots of a
/// source function yield [`Abs::ArgPtr`] (the DNS response pointer);
/// dereferencing a tainted pointer yields tainted data.
fn load_class(
    st: &State,
    operand: x86::Operand,
    is_source: bool,
    r: &impl Fn(X86Reg) -> usize,
) -> Abs {
    match operand {
        x86::Operand::Reg(s) => st.regs[r(s)],
        x86::Operand::Mem {
            base: Some(b),
            disp,
        } => match st.regs[r(b)] {
            Abs::StackPtr if is_source && disp >= 8 => Abs::ArgPtr,
            Abs::ArgPtr | Abs::Tainted => Abs::Tainted,
            _ => Abs::Top,
        },
        x86::Operand::Mem { base: None, .. } => Abs::Top,
    }
}

fn step_arm(
    st: &mut State,
    i: &arm::Insn,
    addr: Addr,
    ret_consts: &HashMap<Addr, u32>,
    collect: Option<&mut Collected>,
) {
    use arm::Insn as I;
    match *i {
        I::MovImm { rd, imm } => st.regs[rd as usize] = Abs::Const(imm),
        I::MvnImm { rd, .. } => st.regs[rd as usize] = Abs::Top,
        I::MovReg { rd, rm } => st.regs[rd as usize] = st.regs[rm as usize],
        I::AddImm { rd, rn, .. } | I::SubImm { rd, rn, .. } => {
            st.regs[rd as usize] = st.regs[rn as usize].after_arith();
        }
        I::OrrImm { rd, .. } | I::AndImm { rd, .. } | I::EorImm { rd, .. } => {
            st.regs[rd as usize] = Abs::Top;
        }
        I::LslImm { rd, .. } => st.regs[rd as usize] = Abs::Top,
        I::CmpImm { rn, imm } => st.flags = (st.regs[rn as usize], Abs::Const(imm)),
        I::Ldr { rd, rn, .. } | I::Ldrb { rd, rn, .. } => {
            st.regs[rd as usize] = match st.regs[rn as usize] {
                Abs::ArgPtr | Abs::Tainted => Abs::Tainted,
                _ => Abs::Top,
            };
        }
        I::Str { rd, rn, .. } | I::Strb { rd, rn, .. } => {
            if let Some(out) = collect {
                out.writes_mem = true;
                if st.regs[rn as usize] == Abs::StackPtr {
                    out.stores.push(StackStore {
                        addr,
                        value: st.regs[rd as usize],
                    });
                }
            }
        }
        I::Pop { list } => {
            for reg in arm::reg_list(list) {
                if reg != 15 && reg != 13 {
                    st.regs[reg as usize] = Abs::Top;
                }
            }
        }
        I::Bl { .. } | I::Blx { .. } => {
            if let Some(out) = collect {
                out.call_args.push((addr, st.regs[0]));
            }
            // AAPCS caller-saved registers; a summarized constant
            // return re-seeds r0.
            for reg in 0..4 {
                st.regs[reg] = Abs::Top;
            }
            if let Some(&v) = ret_consts.get(&addr) {
                st.regs[0] = Abs::Const(v);
            }
        }
        _ => {}
    }
}

fn step_riscv(
    st: &mut State,
    i: &riscv::Insn,
    addr: Addr,
    ret_consts: &HashMap<Addr, u32>,
    collect: Option<&mut Collected>,
) {
    use riscv::Insn as I;
    // x0 is hardwired to zero: writes to it are discarded.
    match *i {
        I::Lui { rd, imm } if rd != 0 => st.regs[rd as usize] = Abs::Const(imm),
        I::Auipc { rd, .. } if rd != 0 => st.regs[rd as usize] = Abs::Top,
        I::Addi { rd, rs1: 0, imm } if rd != 0 => {
            st.regs[rd as usize] = Abs::Const(imm as u32);
        }
        I::Addi { rd, rs1, .. } if rd != 0 => {
            st.regs[rd as usize] = st.regs[rs1 as usize].after_arith();
        }
        I::Andi { rd, .. } | I::Ori { rd, .. } | I::Xori { rd, .. } if rd != 0 => {
            st.regs[rd as usize] = Abs::Top;
        }
        I::Slli { rd, .. } | I::Srli { rd, .. } if rd != 0 => st.regs[rd as usize] = Abs::Top,
        I::Add { rd, rs1, rs2 } | I::Sub { rd, rs1, rs2 } if rd != 0 => {
            st.regs[rd as usize] = st.regs[rs1 as usize]
                .join(st.regs[rs2 as usize])
                .after_arith();
        }
        I::Lw { rd, rs1, .. } | I::Lbu { rd, rs1, .. } if rd != 0 => {
            st.regs[rd as usize] = match st.regs[rs1 as usize] {
                Abs::ArgPtr | Abs::Tainted => Abs::Tainted,
                _ => Abs::Top,
            };
        }
        I::Sw { rs2, rs1, .. } | I::Sb { rs2, rs1, .. } => {
            if let Some(out) = collect {
                out.writes_mem = true;
                if st.regs[rs1 as usize] == Abs::StackPtr {
                    out.stores.push(StackStore {
                        addr,
                        value: st.regs[rs2 as usize],
                    });
                }
            }
        }
        // No compare instruction: the conditional branch's own operand
        // classes stand in for flags.
        I::Beq { rs1, rs2, .. } | I::Bne { rs1, rs2, .. } => {
            st.flags = (st.regs[rs1 as usize], st.regs[rs2 as usize]);
        }
        I::Jal { rd: 1, .. } | I::Jalr { rd: 1, .. } => {
            if let Some(out) = collect {
                out.call_args.push((addr, st.regs[10]));
            }
            // Caller-saved registers (ra, t0-t6, a0-a7) are clobbered;
            // a summarized constant return re-seeds a0.
            for reg in [1usize, 5, 6, 7, 28, 29, 30, 31] {
                st.regs[reg] = Abs::Top;
            }
            for reg in 10..18 {
                st.regs[reg] = Abs::Top;
            }
            if let Some(&v) = ret_consts.get(&addr) {
                st.regs[10] = Abs::Const(v);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use cml_firmware::build_image_for;

    #[test]
    fn flags_vulnerable_quiet_on_patched() {
        for arch in Arch::ALL {
            let (vuln, _) = build_image_for(arch, 0, false);
            let findings = taint_pass(&cfg::recover(&vuln), &TaintConfig::default());
            assert_eq!(findings.len(), 1, "{arch}: expected exactly one finding");
            let f = &findings[0];
            assert_eq!(f.function, "parse_response", "{arch}");
            assert_eq!(f.capacity, 1024, "{arch}");
            assert!(f.source.contains("DNS response"), "{arch}");

            let (fixed, _) = build_image_for(arch, 0, true);
            let quiet = taint_pass(&cfg::recover(&fixed), &TaintConfig::default());
            assert!(
                quiet.is_empty(),
                "{arch}: patched body must be clean: {quiet:?}"
            );
        }
    }

    #[test]
    fn taint_reaches_parse_response_through_the_call_chain() {
        // The default source is forward_dns_reply; parse_response is
        // flagged only because taint walks the planted call chain.
        for arch in Arch::ALL {
            let (img, _) = build_image_for(arch, 0, false);
            let cfg = cfg::recover(&img);
            let sources = effective_sources(&cfg, &TaintConfig::default());
            for name in ["forward_dns_reply", "uncompress", "parse_response"] {
                assert!(sources.contains(name), "{arch}: {name} not tainted");
            }
            assert!(!sources.contains("daemon_loop"), "{arch}");
        }
    }

    #[test]
    fn non_source_functions_stay_untainted() {
        let (img, _) = build_image_for(Arch::X86, 0, false);
        let config = TaintConfig {
            sources: vec!["daemon_loop".to_string()],
            sink_capacities: Vec::new(),
        };
        assert!(taint_pass(&cfg::recover(&img), &config).is_empty());
    }
}
