//! `cml-analyze`: static binary analysis for connman-lab firmware
//! images.
//!
//! Where the rest of the workspace *exploits* CVE-2017-12865, this
//! crate *detects* it without executing a single instruction:
//!
//! 1. [`cfg::recover`] lifts every function symbol into a control-flow
//!    graph using the VM's own decoders through a shared
//!    [`predecode::Predecoder`] memo (the static twin of the
//!    interpreter's decode cache).
//! 2. [`callgraph::CallGraph`] organizes the resolved call edges into a
//!    whole-image graph with per-function [`callgraph::FnSummary`]s.
//! 3. [`vsa`] is the one abstract interpreter: a value-set analysis
//!    with a strided-interval domain whose regions also carry taint
//!    (the packet pointer and the bytes read through it). One run per
//!    function with hostile arguments yields the call summaries and
//!    each call site's outgoing argument; a second, with the propagated
//!    sources and the summaries' return constants, derives per store
//!    *which* stack bytes can be written.
//! 4. [`taint`] reads those runs: it propagates sources down the
//!    recovered `forward_dns_reply → uncompress → parse_response` chain
//!    and flags DNS-response bytes copied into a fixed-size stack buffer
//!    by a loop with no bound on the bytes written — the `get_name` bug
//!    shape. [`frames::recover_frames`] recovers each function's frame
//!    geometry from its prologue.
//! 5. [`audit::audit`] reports the mitigation posture: W⊕X violations,
//!    canary instrumentation, and per-section gadget surface.
//!
//! The pieces combine into a static **exploitability verdict**
//! ([`Exploitability`]): write start, maximum extent, byte distance
//! from buffer to saved return address, and whether a stack canary
//! would be clobbered — numbers the dynamic sanitizer and exploit
//! harness measure independently, which the oracle test suite pins
//! byte-for-byte against these predictions.
//!
//! [`analyze`] bundles everything into an [`AnalysisReport`] with a
//! stable machine-readable JSON rendering (`cml-analyze/v2`; v1
//! documents still parse) plus a SARIF 2.1.0 view ([`AnalysisReport::
//! to_sarif`]), and [`self_test`] is the CI entry point behind `cml
//! analyze --self-test`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod callgraph;
pub mod cfg;
pub mod frames;
pub mod predecode;
pub mod taint;
pub mod vsa;

use cml_core::json;
use cml_image::{Addr, Image};

pub use audit::{AuditReport, SectionAudit};
pub use callgraph::{CallGraph, FnSummary, Summaries};
pub use cfg::{Cfg, CfgStats};
pub use frames::FrameInfo;
pub use taint::{TaintConfig, TaintFinding};
pub use vsa::{FnVsa, Region, StackWrite, StridedInterval, ValueSet};

/// Current report schema tag.
pub const SCHEMA: &str = "cml-analyze/v2";

/// Digest of the whole-image call graph carried in the report.
#[derive(Debug, Clone)]
pub struct CallGraphReport {
    /// Total direct call edges.
    pub edges: usize,
    /// Functions nothing in the image calls.
    pub roots: Vec<String>,
    /// Per-function call summaries, sorted by name.
    pub summaries: Vec<(String, FnSummary)>,
}

/// Static exploitability verdict for one taint finding, in the same
/// entry-SP-relative coordinates as [`frames`] and [`vsa`].
#[derive(Debug, Clone)]
pub struct Exploitability {
    /// Function containing the write.
    pub function: String,
    /// Address of the store instruction.
    pub store_addr: Addr,
    /// Entry-SP-relative offset of the first byte written (the buffer).
    pub write_start: i64,
    /// Entry-SP-relative offset of the saved return address.
    pub ret_offset: Option<i64>,
    /// Byte distance from buffer start to the saved return address —
    /// the overwrite distance an exploit payload must cover.
    pub buf_to_ret: Option<i64>,
    /// Maximum bytes the write can touch; `None` = statically
    /// unbounded (attacker-controlled length).
    pub max_extent: Option<u32>,
    /// Whether the write can reach the saved return address.
    pub reaches_ret: bool,
    /// Whether a stack canary between buffer and return address would
    /// be clobbered (a contiguous overwrite cannot skip it).
    pub clobbers_canary: bool,
    /// Statically recovered call chain from the taint source to the
    /// vulnerable function.
    pub call_chain: Vec<String>,
}

/// Everything the analyzer has to say about one image.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// Architecture name (`"x86"` / `"armv7"` style, from the image).
    pub arch: String,
    /// CFG size metrics.
    pub cfg: CfgStats,
    /// Taint findings (empty on a patched image).
    pub findings: Vec<TaintFinding>,
    /// Per-function frame layouts recovered from prologues.
    pub frames: Vec<FrameInfo>,
    /// Call-graph digest with per-function summaries.
    pub call_graph: CallGraphReport,
    /// Static exploitability verdicts, one per finding.
    pub exploitability: Vec<Exploitability>,
    /// Mitigation posture.
    pub audit: AuditReport,
}

impl AnalysisReport {
    /// Whether the taint pass found nothing. The audit is intentionally
    /// excluded: an executable stack is a property of the deployment,
    /// not of the `parse_response` body.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report as a `cml-analyze/v2` JSON document. Strings
    /// are borrowed from the report — no clone churn on the hot
    /// emission path.
    pub fn to_json(&self) -> json::Value<'_> {
        use json::{n, s, Value};
        let hex = |a: u32| s(format!("{a:#010x}"));
        let opt_i = |v: Option<i64>| v.map_or(Value::Null, |x| n(x as f64));
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Value::Obj(vec![
                    ("function".into(), s(f.function.as_str())),
                    ("store_addr".into(), hex(f.store_addr)),
                    ("loop_head".into(), hex(f.loop_head)),
                    ("source".into(), s(f.source.as_str())),
                    ("sink".into(), s(f.sink.as_str())),
                    ("capacity".into(), n(f.capacity)),
                ])
            })
            .collect();
        let frames = self
            .frames
            .iter()
            .map(|fr| {
                Value::Obj(vec![
                    ("function".into(), s(fr.function.as_str())),
                    ("frame_size".into(), n(fr.frame_size)),
                    ("saved_regs".into(), n(fr.saved_regs)),
                    ("buf_offset".into(), opt_i(fr.buf_offset)),
                    ("ret_offset".into(), opt_i(fr.ret_offset)),
                    ("canary_offset".into(), opt_i(fr.canary_offset)),
                    ("buf_to_ret".into(), opt_i(fr.buf_to_ret())),
                ])
            })
            .collect();
        let summaries = self
            .call_graph
            .summaries
            .iter()
            .map(|(name, sum)| {
                Value::Obj(vec![
                    ("function".into(), s(name.as_str())),
                    (
                        "returns_const".into(),
                        sum.returns_const.map_or(Value::Null, n),
                    ),
                    ("writes_mem".into(), Value::Bool(sum.writes_mem)),
                    ("unbounded_copy".into(), Value::Bool(sum.unbounded_copy)),
                    ("may_overflow".into(), Value::Bool(sum.may_overflow)),
                ])
            })
            .collect();
        let exploitability = self
            .exploitability
            .iter()
            .map(|e| {
                Value::Obj(vec![
                    ("function".into(), s(e.function.as_str())),
                    ("store_addr".into(), hex(e.store_addr)),
                    ("write_start".into(), n(e.write_start as f64)),
                    ("ret_offset".into(), opt_i(e.ret_offset)),
                    ("buf_to_ret".into(), opt_i(e.buf_to_ret)),
                    ("max_extent".into(), e.max_extent.map_or(Value::Null, n)),
                    ("unbounded".into(), Value::Bool(e.max_extent.is_none())),
                    ("reaches_saved_ret".into(), Value::Bool(e.reaches_ret)),
                    ("clobbers_canary".into(), Value::Bool(e.clobbers_canary)),
                    (
                        "call_chain".into(),
                        Value::Arr(e.call_chain.iter().map(|c| s(c.as_str())).collect()),
                    ),
                ])
            })
            .collect();
        let sections = self
            .audit
            .sections
            .iter()
            .map(|sec| {
                Value::Obj(vec![
                    ("name".into(), s(sec.name.as_str())),
                    ("perms".into(), s(sec.perms.as_str())),
                    ("size".into(), n(sec.size)),
                    ("executable".into(), Value::Bool(sec.executable)),
                    ("wx_violation".into(), Value::Bool(sec.wx_violation)),
                    ("gadgets".into(), n(sec.gadgets as u32)),
                    (
                        "gadget_density_per_kib".into(),
                        n(sec.gadget_density_per_kib),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema".into(), s(SCHEMA)),
            ("arch".into(), s(self.arch.as_str())),
            (
                "cfg".into(),
                Value::Obj(vec![
                    ("functions".into(), n(self.cfg.functions as u32)),
                    ("blocks".into(), n(self.cfg.blocks as u32)),
                    ("instructions".into(), n(self.cfg.instructions as u32)),
                    ("call_edges".into(), n(self.cfg.call_edges as u32)),
                    ("decode_hits".into(), n(self.cfg.decode_hits as u32)),
                    ("decode_misses".into(), n(self.cfg.decode_misses as u32)),
                ]),
            ),
            ("clean".into(), Value::Bool(self.clean())),
            ("findings".into(), Value::Arr(findings)),
            ("frames".into(), Value::Arr(frames)),
            (
                "callgraph".into(),
                Value::Obj(vec![
                    ("edges".into(), n(self.call_graph.edges as u32)),
                    (
                        "roots".into(),
                        Value::Arr(
                            self.call_graph
                                .roots
                                .iter()
                                .map(|r| s(r.as_str()))
                                .collect(),
                        ),
                    ),
                    ("summaries".into(), Value::Arr(summaries)),
                ]),
            ),
            ("exploitability".into(), Value::Arr(exploitability)),
            (
                "audit".into(),
                Value::Obj(vec![
                    (
                        "wx_violations".into(),
                        Value::Arr(
                            self.audit
                                .wx_violations
                                .iter()
                                .map(|v| s(v.as_str()))
                                .collect(),
                        ),
                    ),
                    (
                        "canary_instrumented".into(),
                        Value::Bool(self.audit.canary_instrumented),
                    ),
                    ("gadget_total".into(), n(self.audit.gadget_total as u32)),
                    ("sections".into(), Value::Arr(sections)),
                ]),
            ),
        ])
    }

    /// Renders the findings as a SARIF 2.1.0 log, one result per taint
    /// finding with the store address as the physical location and the
    /// exploitability verdict folded into the message.
    pub fn to_sarif(&self) -> json::Value<'_> {
        use json::{n, s, Value};
        let results = self
            .findings
            .iter()
            .map(|f| {
                let verdict = self
                    .exploitability
                    .iter()
                    .find(|e| e.function == f.function && e.store_addr == f.store_addr);
                let text = match verdict {
                    Some(e) => format!(
                        "Unbounded copy of {} into a {}-byte stack buffer; the write can \
                         cover the {} bytes up to the saved return address (chain: {}).",
                        f.source,
                        f.capacity,
                        e.buf_to_ret.unwrap_or_default(),
                        e.call_chain.join(" -> "),
                    ),
                    None => format!(
                        "Unbounded copy of {} into a {}-byte stack buffer.",
                        f.source, f.capacity
                    ),
                };
                Value::Obj(vec![
                    ("ruleId".into(), s("CML001")),
                    ("level".into(), s("error")),
                    ("message".into(), Value::Obj(vec![("text".into(), s(text))])),
                    (
                        "locations".into(),
                        Value::Arr(vec![Value::Obj(vec![
                            (
                                "physicalLocation".into(),
                                Value::Obj(vec![
                                    (
                                        "artifactLocation".into(),
                                        Value::Obj(vec![(
                                            "uri".into(),
                                            s(format!("firmware://{}/.text", self.arch)),
                                        )]),
                                    ),
                                    (
                                        "address".into(),
                                        Value::Obj(vec![(
                                            "absoluteAddress".into(),
                                            n(f.store_addr),
                                        )]),
                                    ),
                                ]),
                            ),
                            (
                                "logicalLocations".into(),
                                Value::Arr(vec![Value::Obj(vec![
                                    ("name".into(), s(f.function.as_str())),
                                    ("kind".into(), s("function")),
                                ])]),
                            ),
                        ])]),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            (
                "$schema".into(),
                s("https://json.schemastore.org/sarif-2.1.0.json"),
            ),
            ("version".into(), s("2.1.0")),
            (
                "runs".into(),
                Value::Arr(vec![Value::Obj(vec![
                    (
                        "tool".into(),
                        Value::Obj(vec![(
                            "driver".into(),
                            Value::Obj(vec![
                                ("name".into(), s("cml-analyze")),
                                ("version".into(), s("2.0.0")),
                                (
                                    "informationUri".into(),
                                    s("https://nvd.nist.gov/vuln/detail/CVE-2017-12865"),
                                ),
                                (
                                    "rules".into(),
                                    Value::Arr(vec![Value::Obj(vec![
                                        ("id".into(), s("CML001")),
                                        ("name".into(), s("UnboundedTaintedStackCopy")),
                                        (
                                            "shortDescription".into(),
                                            Value::Obj(vec![(
                                                "text".into(),
                                                s("Attacker-length copy into a fixed stack buffer"),
                                            )]),
                                        ),
                                    ])]),
                                ),
                            ]),
                        )]),
                    ),
                    ("results".into(), Value::Arr(results)),
                ])]),
            ),
        ])
    }
}

/// Runs the full pipeline — CFG recovery, call graph + summaries,
/// interprocedural taint, VSA, frame recovery, exploitability verdicts,
/// mitigation audit — over one image with the default [`TaintConfig`].
pub fn analyze(image: &Image) -> AnalysisReport {
    analyze_with(image, &TaintConfig::default())
}

/// [`analyze`] with an explicit source/sink configuration.
fn analyze_with(image: &Image, config: &TaintConfig) -> AnalysisReport {
    let cfg = cfg::recover(image);
    // One interpreter run per function with its arguments tainted feeds
    // the call summaries and source propagation; one more, with the
    // propagated sources and the summaries' return constants, yields
    // the findings and the write geometry.
    let profiles = taint::profiles(&cfg);
    let summaries = Summaries::from_profiles(&cfg, &profiles);
    let sources = taint::sources_from(&cfg, config, &profiles);
    let facts = vsa::run(
        &cfg,
        Some(image),
        &sources,
        &summaries.ret_const_sites(&cfg),
    );
    let findings = taint::findings(config, &facts);
    let value_sets: Vec<FnVsa> = facts.into_iter().map(|fx| fx.vsa).collect();
    let graph = CallGraph::build(&cfg);
    let frames = frames::recover_frames(&cfg);
    let exploitability = assess(&findings, &value_sets, &graph, config);
    let audit = audit::audit(image, &cfg);
    AnalysisReport {
        arch: image.arch().to_string(),
        cfg: cfg.stats,
        findings,
        frames,
        call_graph: CallGraphReport {
            edges: graph.edge_count(),
            roots: graph.roots().iter().map(|r| (*r).to_string()).collect(),
            summaries: summaries
                .iter()
                .map(|(name, s)| (name.to_string(), s.clone()))
                .collect(),
        },
        exploitability,
        audit,
    }
}

/// Joins taint findings with VSA write geometry and the call graph into
/// per-finding exploitability verdicts.
fn assess(
    findings: &[TaintFinding],
    value_sets: &[FnVsa],
    graph: &CallGraph,
    config: &TaintConfig,
) -> Vec<Exploitability> {
    findings
        .iter()
        .map(|f| {
            let fv = value_sets.iter().find(|v| v.function == f.function);
            let write = fv.and_then(|v| v.writes.iter().find(|w| w.store_addr == f.store_addr));
            let ret_offset = fv.and_then(|v| v.ret_slot);
            let write_start = write.map_or(0, |w| w.start);
            let buf_to_ret = ret_offset.and_then(|r| r.checked_sub(write_start));
            // An unbounded write reaches anything above it; a bounded
            // one reaches the slot only if its last byte does.
            let reaches_ret = match (write, ret_offset) {
                (Some(w), Some(ret)) => match w.end() {
                    None => ret >= w.start,
                    Some(end) => end >= ret,
                },
                _ => false,
            };
            // A contiguous (stride-1) overwrite cannot skip an interior
            // canary slot on its way to the return address.
            let clobbers_canary = reaches_ret && write.is_some_and(|w| w.stride <= 1);
            let call_chain = config
                .sources
                .iter()
                .find_map(|src| graph.chain_to(src, &f.function))
                .unwrap_or_else(|| vec![f.function.clone()]);
            Exploitability {
                function: f.function.clone(),
                store_addr: f.store_addr,
                write_start,
                ret_offset,
                buf_to_ret,
                max_extent: write.and_then(|w| w.extent),
                reaches_ret,
                clobbers_canary,
                call_chain,
            }
        })
        .collect()
}

/// The analyzer's CI gate, run by `cml analyze --self-test`.
///
/// For each architecture it analyzes a vulnerable and a bounds-checked
/// image and checks the end-to-end contract: exactly one taint finding
/// on the vulnerable body (reached through the recovered
/// `forward_dns_reply → uncompress → parse_response` chain, 1024-byte
/// sink), an exploitability verdict whose geometry matches the
/// firmware's ground-truth frame layout, zero findings on the patched
/// body, an executable-stack W⊕X violation and no canaries under the
/// no-protection loader, and JSON + SARIF renderings that round-trip
/// through the crate's own parser.
///
/// # Errors
///
/// Returns a description of the first violated check.
pub fn self_test() -> Result<String, String> {
    use cml_image::Arch;
    let mut lines = Vec::new();
    for arch in Arch::ALL {
        let (vuln, _) = cml_firmware::build_image_for(arch, 0, false);
        let report = analyze(&vuln);
        if report.findings.len() != 1 {
            return Err(format!(
                "{arch}: expected exactly 1 taint finding on the vulnerable image, got {}",
                report.findings.len()
            ));
        }
        let f = &report.findings[0];
        if f.function != cml_connman::SYM_PARSE_RESPONSE {
            return Err(format!(
                "{arch}: finding in {}, not parse_response",
                f.function
            ));
        }
        if f.capacity != cml_connman::NAME_BUFFER_SIZE as u32 {
            return Err(format!("{arch}: sink capacity {} != 1024", f.capacity));
        }

        // Exploitability verdict vs the firmware's ground-truth frame.
        let truth = cml_connman::layout_for(arch);
        let e = report
            .exploitability
            .first()
            .ok_or_else(|| format!("{arch}: no exploitability verdict"))?;
        if e.buf_to_ret != Some(truth.ret_offset as i64) {
            return Err(format!(
                "{arch}: static buf_to_ret {:?} != ground truth {}",
                e.buf_to_ret, truth.ret_offset
            ));
        }
        if e.max_extent.is_some() || !e.reaches_ret || !e.clobbers_canary {
            return Err(format!(
                "{arch}: vulnerable verdict must be unbounded+reaches+clobbers, got {e:?}"
            ));
        }
        if e.call_chain
            != [
                cml_connman::SYM_FORWARD_DNS_REPLY,
                cml_connman::SYM_UNCOMPRESS,
                cml_connman::SYM_PARSE_RESPONSE,
            ]
        {
            return Err(format!("{arch}: wrong call chain {:?}", e.call_chain));
        }

        if report.audit.wx_violations.is_empty() {
            return Err(format!("{arch}: audit missed the executable stack"));
        }
        if report.audit.canary_instrumented {
            return Err(format!(
                "{arch}: lab images must not appear canary-instrumented"
            ));
        }
        let text = report.to_json().to_string();
        let parsed =
            json::parse(&text).map_err(|e| format!("{arch}: emitted JSON invalid: {e}"))?;
        if parsed.get("schema").and_then(json::Value::as_str) != Some(SCHEMA) {
            return Err(format!("{arch}: schema tag missing after round-trip"));
        }
        let sarif = json::parse(&report.to_sarif().to_string())
            .map_err(|e| format!("{arch}: SARIF invalid: {e}"))?;
        if sarif.get("version").and_then(json::Value::as_str) != Some("2.1.0") {
            return Err(format!("{arch}: SARIF version tag wrong"));
        }

        let (fixed, _) = cml_firmware::build_image_for(arch, 0, true);
        let patched = analyze(&fixed);
        if !patched.clean() {
            return Err(format!(
                "{arch}: false positive on the bounds-checked image: {:?}",
                patched.findings
            ));
        }
        if !patched.exploitability.is_empty() {
            return Err(format!("{arch}: patched image has exploitability entries"));
        }
        lines.push(format!(
            "{arch}: {} functions, {} blocks, {} call edges, {} gadgets; \
             vulnerable flagged (ret at +{}), patched clean",
            report.cfg.functions,
            report.cfg.blocks,
            report.call_graph.edges,
            report.audit.gadget_total,
            truth.ret_offset
        ));
    }
    Ok(lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cml_firmware::build_image_for;
    use cml_image::Arch;

    /// A pointer that walks down the stack in a loop and is stored
    /// through after it: `lea edi,[esp-16]; l: dec edi; test eax,eax;
    /// jnz l; mov [edi+25],eax; ret`. Widening leaves the store's
    /// interval unbounded below, `[-inf, +8]`.
    fn downward_walk() -> Cfg {
        use cfg::Terminator;
        use cml_vm::{x86, X86Reg};
        let mem = |base, disp| x86::Operand::Mem {
            base: Some(base),
            disp,
        };
        let f = cfg::tests::x86_function(
            "walk_down",
            vec![
                (
                    0x1000,
                    vec![x86::Insn::Lea {
                        dst: X86Reg::Edi,
                        src: mem(X86Reg::Esp, -16),
                    }],
                    Terminator::FallThrough(0x1002),
                ),
                (
                    0x1002,
                    vec![
                        x86::Insn::DecR(X86Reg::Edi),
                        x86::Insn::TestRmR {
                            dst: x86::Operand::Reg(X86Reg::Eax),
                            src: X86Reg::Eax,
                        },
                        x86::Insn::Jnz8(-6),
                    ],
                    Terminator::Branch {
                        taken: 0x1002,
                        fall: 0x1008,
                    },
                ),
                (
                    0x1008,
                    vec![
                        x86::Insn::MovRmR {
                            dst: mem(X86Reg::Edi, 25),
                            src: X86Reg::Eax,
                        },
                        x86::Insn::Ret,
                    ],
                    Terminator::Return,
                ),
            ],
        );
        Cfg {
            arch: Arch::X86,
            functions: vec![f],
            call_edges: Vec::new(),
            stats: CfgStats::default(),
        }
    }

    #[test]
    fn a_store_unbounded_below_has_no_extent_and_no_ret_distance() {
        let (img, _) = build_image_for(Arch::X86, 0, false);
        let cfg = downward_walk();
        let value_sets = vsa::vsa_pass(&cfg, &img, &Default::default());
        let w = &value_sets[0].writes[0];
        assert_eq!(w.store_addr, 0x1008);
        assert!(!w.in_loop);
        assert_eq!(w.start, i64::MIN, "widened below");
        assert_eq!(w.extent, None, "an infinite hull has no byte count");

        let finding = TaintFinding {
            function: "walk_down".to_string(),
            store_addr: 0x1008,
            loop_head: 0x1002,
            source: String::new(),
            sink: String::new(),
            capacity: 0,
        };
        let verdicts = assess(
            &[finding],
            &value_sets,
            &CallGraph::build(&cfg),
            &TaintConfig::default(),
        );
        assert_eq!(verdicts[0].write_start, i64::MIN);
        assert_eq!(verdicts[0].buf_to_ret, None, "no finite distance");
        assert!(verdicts[0].reaches_ret);
    }

    #[test]
    fn self_test_passes() {
        let summary = self_test().expect("self-test");
        assert!(summary.contains("patched clean"));
    }

    #[test]
    fn report_json_exposes_findings_and_verdicts() {
        let (img, _) = build_image_for(Arch::X86, 0, false);
        let report = analyze(&img);
        let doc = json::parse(&report.to_json().to_string()).unwrap();
        assert_eq!(doc.get("clean").and_then(json::Value::as_bool), Some(false));
        let findings = doc.get("findings").and_then(json::Value::as_arr).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("capacity").and_then(json::Value::as_num),
            Some(1024.0)
        );
        let verdicts = doc
            .get("exploitability")
            .and_then(json::Value::as_arr)
            .unwrap();
        assert_eq!(verdicts.len(), 1);
        assert_eq!(
            verdicts[0].get("buf_to_ret").and_then(json::Value::as_num),
            Some(1040.0)
        );
        assert_eq!(
            verdicts[0].get("unbounded").and_then(json::Value::as_bool),
            Some(true)
        );
        let frames = doc.get("frames").and_then(json::Value::as_arr).unwrap();
        assert!(frames.iter().any(|fr| {
            fr.get("function").and_then(json::Value::as_str) == Some("parse_response")
                && fr.get("buf_to_ret").and_then(json::Value::as_num) == Some(1040.0)
        }));
    }

    #[test]
    fn v1_documents_still_parse() {
        // A frozen v1 report fragment (pre-exploitability schema): old
        // consumers' documents must keep parsing with the same parser.
        let v1 = r#"{"schema":"cml-analyze/v1","arch":"x86","cfg":{"functions":9,"blocks":21,"instructions":120,"call_edges":0,"decode_hits":3,"decode_misses":117},"clean":false,"findings":[{"function":"parse_response","store_addr":"0x08048412","loop_head":"0x08048410","source":"DNS response bytes (parse_response argument)","sink":"1024-byte stack name buffer","capacity":1024}],"audit":{"wx_violations":["stack"],"canary_instrumented":false,"gadget_total":44,"sections":[]}}"#;
        let doc = json::parse(v1).expect("v1 parses");
        assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some("cml-analyze/v1")
        );
        let findings = doc.get("findings").and_then(json::Value::as_arr).unwrap();
        assert_eq!(
            findings[0].get("capacity").and_then(json::Value::as_num),
            Some(1024.0)
        );
    }

    #[test]
    fn sarif_carries_the_store_address() {
        let (img, _) = build_image_for(Arch::Armv7, 0, false);
        let report = analyze(&img);
        let sarif = json::parse(&report.to_sarif().to_string()).unwrap();
        let runs = sarif.get("runs").and_then(json::Value::as_arr).unwrap();
        let results = runs[0]
            .get("results")
            .and_then(json::Value::as_arr)
            .unwrap();
        assert_eq!(results.len(), 1);
        let addr = results[0]
            .get("locations")
            .and_then(json::Value::as_arr)
            .and_then(|l| l[0].get("physicalLocation"))
            .and_then(|p| p.get("address"))
            .and_then(|a| a.get("absoluteAddress"))
            .and_then(json::Value::as_num)
            .unwrap();
        assert_eq!(addr as u32, report.findings[0].store_addr);

        // A patched image yields an empty (but valid) run.
        let (fixed, _) = build_image_for(Arch::Armv7, 0, true);
        let quiet = analyze(&fixed);
        let sarif = json::parse(&quiet.to_sarif().to_string()).unwrap();
        let runs = sarif.get("runs").and_then(json::Value::as_arr).unwrap();
        assert_eq!(
            runs[0]
                .get("results")
                .and_then(json::Value::as_arr)
                .map(<[_]>::len),
            Some(0)
        );
    }
}
