//! Integration: the static analyzer and the VM shadow-memory sanitizer
//! across the paper's full exploit matrix (x86/ARM/RISC-V ×
//! none/W⊕X/W⊕X+ASLR).
//!
//! The analyzer must flag the vulnerable firmware and stay quiet on the
//! patched one in every cell; the sanitizer must pinpoint every matrix
//! payload with the exact overflow extent; and switching the sanitizer
//! off must leave the exploits fully functional.

use std::fmt::Write as _;

use connman_lab::analysis;
use connman_lab::analysis::taint::{effective_sources, TaintConfig};
use connman_lab::exploit::{matrix, BufferImage};
use connman_lab::firmware::build_image_for;
use connman_lab::json;
use connman_lab::vm::Fault;
use connman_lab::{Arch, AttackOutcome, Firmware, FirmwareKind, Lab, ProxyOutcome};

#[test]
fn analyzer_flags_vulnerable_and_passes_patched_in_every_cell() {
    for (arch, prot, _) in matrix() {
        let cell = format!("{arch}/{}", prot.label());

        let vulnerable = Firmware::build(FirmwareKind::OpenElec, arch);
        let report = analysis::analyze(vulnerable.image());
        assert!(!report.clean(), "{cell}: vulnerable image must be flagged");
        assert_eq!(report.findings.len(), 1, "{cell}");
        let f = &report.findings[0];
        assert_eq!(f.function, "parse_response", "{cell}");
        assert_eq!(f.capacity, 1024, "{cell}");
        assert!(f.source.contains("DNS response"), "{cell}");
        assert!(f.sink.contains("1024-byte"), "{cell}");

        let patched = Firmware::build(FirmwareKind::Patched, arch);
        let clean = analysis::analyze(patched.image());
        assert!(
            clean.clean(),
            "{cell}: patched image must pass: {:?}",
            clean.findings
        );
    }
}

#[test]
fn sanitizer_pinpoints_every_matrix_payload_with_exact_extent() {
    for (arch, prot, strategy) in matrix() {
        let cell = format!("{arch}/{}", prot.label());

        // Predict the overflow extent from the payload itself: the
        // daemon writes every decompressed label byte plus the root
        // terminator into the 1024-byte name buffer.
        let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(prot);
        let info = lab.recon().expect("recon");
        let payload = strategy
            .build(&info)
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        let labels = payload.to_labels().expect("labelizable payload");
        let written = BufferImage::decompress(&labels).len() as u32 + 1;
        assert!(
            written > 1024,
            "{cell}: matrix payloads overflow the buffer"
        );

        let report = lab
            .with_sanitizer(true)
            .run_exploit(strategy.as_ref())
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        let ProxyOutcome::Crashed(fault_report) = &report.proxy_outcome else {
            panic!(
                "{cell}: sanitizer must crash the daemon, got {}",
                report.proxy_outcome
            );
        };
        let Fault::RedzoneViolation {
            capacity, extent, ..
        } = fault_report.fault
        else {
            panic!(
                "{cell}: expected a redzone violation, got {}",
                fault_report.fault
            );
        };
        assert_eq!(capacity, 1024, "{cell}");
        assert_eq!(extent, written - 1024, "{cell}: imprecise overflow extent");
        assert_ne!(
            report.outcome,
            AttackOutcome::RootShell,
            "{cell}: the diverted overflow must not still pop a shell"
        );
    }
}

#[test]
fn exploits_still_succeed_with_sanitizer_off() {
    for (arch, prot, strategy) in matrix() {
        let cell = format!("{arch}/{}", prot.label());
        let outcome = Lab::new(FirmwareKind::OpenElec, arch)
            .with_protections(prot)
            .run_exploit(strategy.as_ref())
            .unwrap_or_else(|e| panic!("{cell}: {e}"))
            .outcome;
        assert_eq!(outcome, AttackOutcome::RootShell, "{cell}");
    }
}

#[test]
fn report_json_schema_round_trips() {
    for arch in Arch::ALL {
        let firmware = Firmware::build(FirmwareKind::OpenElec, arch);
        let report = analysis::analyze(firmware.image());
        let text = report.to_json().to_string();
        let doc = json::parse(&text).expect("emitted JSON parses");

        assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some(analysis::SCHEMA)
        );
        assert_eq!(doc.get("clean").and_then(json::Value::as_bool), Some(false));
        let findings = doc.get("findings").and_then(json::Value::as_arr).unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("capacity").and_then(json::Value::as_num),
            Some(1024.0)
        );
        let audit = doc.get("audit").expect("audit object");
        let wx = audit
            .get("wx_violations")
            .and_then(json::Value::as_arr)
            .unwrap();
        assert!(
            wx.iter().any(|v| v.as_str() == Some("[stack]")),
            "{arch}: executable stack must be audited"
        );
        let sections = audit.get("sections").and_then(json::Value::as_arr).unwrap();
        assert!(!sections.is_empty());
        assert!(
            audit
                .get("gadget_total")
                .and_then(json::Value::as_num)
                .unwrap()
                > 0.0,
            "{arch}"
        );

        // v2 sections: frame geometry, call summaries, exploitability.
        let frames = doc.get("frames").and_then(json::Value::as_arr).unwrap();
        let pr = frames
            .iter()
            .find(|f| f.get("function").and_then(json::Value::as_str) == Some("parse_response"))
            .unwrap_or_else(|| panic!("{arch}: parse_response frame"));
        let truth = connman_lab::connman::layout_for(arch);
        assert_eq!(
            pr.get("buf_to_ret").and_then(json::Value::as_num),
            Some(truth.ret_offset as f64),
            "{arch}: recovered frame distance must match ground truth"
        );

        let graph = doc.get("callgraph").expect("callgraph object");
        assert!(
            graph.get("edges").and_then(json::Value::as_num).unwrap() > 0.0,
            "{arch}"
        );

        let exp = doc
            .get("exploitability")
            .and_then(json::Value::as_arr)
            .unwrap();
        assert_eq!(exp.len(), 1, "{arch}");
        assert_eq!(
            exp[0]
                .get("reaches_saved_ret")
                .and_then(json::Value::as_bool),
            Some(true),
            "{arch}"
        );
    }
}

/// Everything the analyzer derives that a refactor of its passes must
/// preserve, one block per ISA × image variant 0–4 × {vulnerable,
/// bounds-checked}: the report's findings, exploitability verdicts and
/// call summaries as JSON, the propagated taint source set, and every
/// function's value-set results (return slot and stack writes).
fn render_analysis_golden() -> String {
    let mut out = String::new();
    for arch in Arch::ALL {
        for variant in 0..5 {
            for bounds_checked in [false, true] {
                let (img, _) = build_image_for(arch, variant, bounds_checked);
                let flavour = if bounds_checked {
                    "bounds-checked"
                } else {
                    "vulnerable"
                };
                writeln!(out, "== {arch} variant {variant} {flavour}").unwrap();
                let report = analysis::analyze(&img);
                let doc = report.to_json();
                let field = |v: Option<&json::Value<'_>>| v.expect("report field").to_string();
                writeln!(out, "findings: {}", field(doc.get("findings"))).unwrap();
                writeln!(out, "exploitability: {}", field(doc.get("exploitability"))).unwrap();
                writeln!(
                    out,
                    "summaries: {}",
                    field(doc.get("callgraph").and_then(|g| g.get("summaries")))
                )
                .unwrap();

                let cfg = analysis::cfg::recover(&img);
                let sources = effective_sources(&cfg, &TaintConfig::default());
                let names: Vec<&str> = sources.iter().map(String::as_str).collect();
                writeln!(out, "sources: {}", names.join(" ")).unwrap();
                for v in analysis::vsa::vsa_pass(&cfg, &img, &sources) {
                    writeln!(out, "vsa {}: ret_slot {:?}", v.function, v.ret_slot).unwrap();
                    for w in &v.writes {
                        writeln!(
                            out,
                            "  write {:#010x}: start {} stride {} tainted {} in_loop {} extent {:?}",
                            w.store_addr, w.start, w.stride, w.tainted, w.in_loop, w.extent
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    out
}

#[test]
fn analysis_results_match_the_golden_file() {
    let want = include_str!("golden/analyze.txt");
    let got = render_analysis_golden();
    if got != want {
        let path = std::env::temp_dir().join("analyze.txt");
        std::fs::write(&path, &got).expect("write the current rendering");
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "analyzer results differ from tests/golden/analyze.txt at line {}; \
             the current rendering is in {}",
            line + 1,
            path.display()
        );
    }
}
