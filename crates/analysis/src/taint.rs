//! Static taint rules: DNS-response bytes → fixed-size stack buffers.
//!
//! Taint is tracked by the one abstract interpreter, [`crate::vsa`]: in
//! a *source* function (by default `forward_dns_reply`, where the raw
//! DNS reply first enters dnsproxy) the incoming packet pointer is a
//! [`Region::Input`] value, and bytes loaded through it are
//! [`Region::Tainted`] data. This module reads that one pass.
//!
//! Sources propagate **interprocedurally**: when a source function
//! passes a tainted first argument at a call site (last push on x86,
//! `r0` on ARM, `a0` on RISC-V), the callee joins the source set — which
//! is how taint walks the real CVE-2017-12865 chain `forward_dns_reply`
//! → `uncompress` → `parse_response` without `parse_response` being
//! configured by hand.
//!
//! A store of tainted data through a stack pointer becomes a finding
//! when it sits inside a loop whose trip count VSA cannot bound (the
//! write's `extent` is `None`): no exit compares an untainted counter
//! of known start against a constant, so the copy runs until
//! attacker-controlled data says stop — the exact shape of
//! CVE-2017-12865's `get_name`. The
//! bounds-checked 1.35 body adds a counter-vs-capacity exit, its copy
//! is bounded to 1024 bytes, and the pass stays quiet. Storing the
//! packet pointer itself is not a finding.
//!
//! This is a may-taint analysis: joins prefer attacker data, then the
//! input pointer. Buffer capacities come from [`TaintConfig`] frame
//! metadata (the lab's stand-in for DWARF variable info).

use std::collections::{BTreeSet, HashMap};

use cml_image::{Addr, Arch};

use crate::cfg::{Cfg, Function};
use crate::vsa::{self, Ctx, FnFacts, Region};

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

/// The findings in one interpreter run per function.
pub(crate) fn findings(config: &TaintConfig, facts: &[FnFacts]) -> Vec<TaintFinding> {
    let mut out = Vec::new();
    for fx in facts {
        let name = &fx.vsa.function;
        let capacity = config
            .sink_capacities
            .iter()
            .find(|(sink, _)| sink == name)
            .map_or(0, |(_, c)| *c);
        out.extend(
            unbounded_copies(fx)
                .into_iter()
                .map(|(loop_head, store_addr)| TaintFinding {
                    function: name.clone(),
                    store_addr,
                    loop_head,
                    source: format!("DNS response bytes ({name} argument)"),
                    sink: if capacity > 0 {
                        format!("{capacity}-byte stack name buffer")
                    } else {
                        "stack buffer (capacity unknown)".to_string()
                    },
                    capacity,
                }),
        );
    }
    out
}

/// The finding rule: tainted data stored to the stack inside a loop,
/// with no bound on the bytes written. `(loop head, store)` pairs, one
/// per loop head, keeping the lowest store address.
fn unbounded_copies(fx: &FnFacts) -> Vec<(Addr, Addr)> {
    let mut out: Vec<(Addr, Addr)> = fx
        .vsa
        .writes
        .iter()
        .zip(&fx.write_loops)
        .filter(|(w, (value, _))| *value == Region::Tainted && w.extent.is_none())
        .flat_map(|(w, (_, heads))| heads.iter().map(move |&head| (head, w.store_addr)))
        .collect();
    out.sort_unstable();
    out.dedup_by_key(|&mut (head, _)| head);
    out
}

/// The transitive source set: configured sources plus every function
/// reached by a tainted first argument at a call site, to a fixpoint.
pub fn effective_sources(cfg: &Cfg, config: &TaintConfig) -> BTreeSet<String> {
    sources_from(cfg, config, &profiles(cfg))
}

/// [`effective_sources`] over precomputed per-function profiles
/// (indexed like `cfg.functions`).
pub(crate) fn sources_from(
    cfg: &Cfg,
    config: &TaintConfig,
    profiles: &[FnProfile],
) -> BTreeSet<String> {
    let callee_by_site: HashMap<Addr, &str> = cfg
        .call_edges
        .iter()
        .map(|e| (e.at, e.callee.as_str()))
        .collect();
    let mut sources: BTreeSet<String> = config.sources.iter().cloned().collect();
    loop {
        let mut grew = false;
        for (f, p) in cfg.functions.iter().zip(profiles) {
            if !sources.contains(&f.name) {
                continue;
            }
            for site in &p.tainted_calls {
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

/// Per-function facts for call summaries and source propagation, read
/// from one interpreter run with the function's arguments assumed
/// attacker-controlled and no summaries consumed.
#[derive(Debug)]
pub(crate) struct FnProfile {
    /// Whether the body stores through any pointer.
    pub writes_mem: bool,
    /// Whether the body copies tainted data into the stack through a
    /// loop with no bound on the bytes written.
    pub unbounded_copy: bool,
    /// The constant the function leaves in the return register on every
    /// `ret` path, when statically evident.
    pub returns_const: Option<u32>,
    /// Call sites whose outgoing first argument is tainted.
    pub tainted_calls: Vec<Addr>,
}

pub(crate) fn function_profile(arch: Arch, f: &Function) -> FnProfile {
    let cx = Ctx {
        image: None,
        is_source: true,
        ret_consts: &HashMap::new(),
    };
    let fx = vsa::analyze_function(arch, f, &cx);
    FnProfile {
        writes_mem: fx.writes_mem,
        unbounded_copy: !unbounded_copies(&fx).is_empty(),
        returns_const: fx.returns_const,
        tainted_calls: fx
            .call_args
            .iter()
            .filter(|(_, arg)| arg.is_tainted())
            .map(|&(site, _)| site)
            .collect(),
    }
}

/// [`function_profile`] of every function, indexed like
/// `cfg.functions`.
pub(crate) fn profiles(cfg: &Cfg) -> Vec<FnProfile> {
    cfg.functions
        .iter()
        .map(|f| function_profile(cfg.arch, f))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use cml_firmware::build_image_for;

    fn taint_pass(image: &cml_image::Image, config: &TaintConfig) -> Vec<TaintFinding> {
        crate::analyze_with(image, config).findings
    }

    #[test]
    fn flags_vulnerable_quiet_on_patched() {
        for arch in Arch::ALL {
            let (vuln, _) = build_image_for(arch, 0, false);
            let findings = taint_pass(&vuln, &TaintConfig::default());
            assert_eq!(findings.len(), 1, "{arch}: expected exactly one finding");
            let f = &findings[0];
            assert_eq!(f.function, "parse_response", "{arch}");
            assert_eq!(f.capacity, 1024, "{arch}");
            assert!(f.source.contains("DNS response"), "{arch}");

            let (fixed, _) = build_image_for(arch, 0, true);
            let quiet = taint_pass(&fixed, &TaintConfig::default());
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
        assert!(taint_pass(&img, &config).is_empty());
    }

    /// A source whose loop reads through the packet pointer in `esi`
    /// and stores `stored` to the stack until a packet byte is zero:
    /// `mov esi,[esp+8]; lea edi,[esp-64]; l: mov eax,[esi];
    /// mov [edi],stored; inc esi; inc edi; test eax,eax; jnz l; ret`.
    fn copy_loop(stored: cml_vm::X86Reg) -> Function {
        use crate::cfg::Terminator;
        use cml_vm::{x86, X86Reg};
        let mem = |base, disp| x86::Operand::Mem {
            base: Some(base),
            disp,
        };
        cfg::tests::x86_function(
            "copy",
            vec![
                (
                    0x100,
                    vec![
                        x86::Insn::MovRRm {
                            dst: X86Reg::Esi,
                            src: mem(X86Reg::Esp, 8),
                        },
                        x86::Insn::Lea {
                            dst: X86Reg::Edi,
                            src: mem(X86Reg::Esp, -64),
                        },
                    ],
                    Terminator::FallThrough(0x104),
                ),
                (
                    0x104,
                    vec![
                        x86::Insn::MovRRm {
                            dst: X86Reg::Eax,
                            src: mem(X86Reg::Esi, 0),
                        },
                        x86::Insn::MovRmR {
                            dst: mem(X86Reg::Edi, 0),
                            src: stored,
                        },
                        x86::Insn::IncR(X86Reg::Esi),
                        x86::Insn::IncR(X86Reg::Edi),
                        x86::Insn::TestRmR {
                            dst: x86::Operand::Reg(X86Reg::Eax),
                            src: X86Reg::Eax,
                        },
                        x86::Insn::Jnz8(-12),
                    ],
                    Terminator::Branch {
                        taken: 0x104,
                        fall: 0x110,
                    },
                ),
                (0x110, vec![x86::Insn::Ret], Terminator::Return),
            ],
        )
    }

    #[test]
    fn only_packet_bytes_stored_make_an_unbounded_copy() {
        use cml_vm::X86Reg;
        let bytes = function_profile(Arch::X86, &copy_loop(X86Reg::Eax));
        assert!(bytes.unbounded_copy, "packet bytes copied to the stack");
        let pointer = function_profile(Arch::X86, &copy_loop(X86Reg::Esi));
        assert!(pointer.writes_mem);
        assert!(
            !pointer.unbounded_copy,
            "storing the packet pointer itself is not a copy of its bytes"
        );
    }
}
