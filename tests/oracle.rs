//! Differential static↔dynamic exploitability oracle.
//!
//! The tentpole claim of the static layer: its *predictions* — how far
//! a tainted write can run, how many bytes separate the buffer from the
//! saved return address, whether a canary would be clobbered — must
//! match what the instrumented VM *measures* when the real exploits
//! fire. Every cell of the paper's matrix ({x86, ARM, RISC-V} × {none,
//! W⊕X, W⊕X+ASLR}) is checked byte-for-byte against the sanitizer's
//! redzone report and the exploit outcome; the patched 1.35 firmware
//! must be statically quiet on all three ISAs.

use connman_lab::analysis;
use connman_lab::exploit::{matrix, BufferImage, CodeInjection};
use connman_lab::vm::Fault;
use connman_lab::{Arch, AttackOutcome, Firmware, FirmwareKind, Lab, Protections, ProxyOutcome};

#[test]
fn static_predictions_match_sanitizer_measurements_across_the_matrix() {
    for (arch, prot, strategy) in matrix() {
        let cell = format!("{arch}/{}", prot.label());

        // Static side: one exploitable tainted write, unbounded, with a
        // fully recovered frame geometry and attack chain.
        let firmware = Firmware::build(FirmwareKind::OpenElec, arch);
        let report = analysis::analyze(firmware.image());
        assert_eq!(report.exploitability.len(), 1, "{cell}");
        let exp = &report.exploitability[0];
        assert_eq!(exp.function, "parse_response", "{cell}");
        assert_eq!(
            exp.max_extent, None,
            "{cell}: the write length must be statically attacker-controlled"
        );
        assert!(exp.reaches_ret, "{cell}");
        assert_eq!(
            exp.call_chain,
            ["forward_dns_reply", "uncompress", "parse_response"],
            "{cell}"
        );
        let truth = connman_lab::connman::layout_for(arch);
        let predicted_ret = exp.buf_to_ret.expect("frame recovered") as usize;
        assert_eq!(
            predicted_ret, truth.ret_offset,
            "{cell}: static buf→ret distance vs ground-truth layout"
        );
        let capacity = report.findings[0].capacity;
        assert_eq!(capacity, 1024, "{cell}");

        // Dynamic side: the recon the exploits actually use, and the
        // sanitizer's byte-exact measurement of the real overflow.
        let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(prot);
        let info = lab.recon().unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_eq!(
            info.frame.ret_offset, predicted_ret,
            "{cell}: dynamic frame recon must agree with the static frame"
        );

        let payload = strategy
            .build(&info)
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        let labels = payload.to_labels().expect("labelizable payload");
        let written = BufferImage::decompress(&labels).len() as u32 + 1;
        assert!(
            written as usize > predicted_ret,
            "{cell}: a ret-hijacking payload must cover the predicted distance"
        );

        let run = lab
            .with_sanitizer(true)
            .run_exploit(strategy.as_ref())
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        let ProxyOutcome::Crashed(fault_report) = &run.proxy_outcome else {
            panic!("{cell}: sanitizer must crash, got {}", run.proxy_outcome);
        };
        let Fault::RedzoneViolation {
            capacity: measured_cap,
            extent,
            ..
        } = fault_report.fault
        else {
            panic!(
                "{cell}: expected redzone violation, got {}",
                fault_report.fault
            );
        };
        assert_eq!(
            measured_cap, capacity,
            "{cell}: static buffer capacity vs sanitizer"
        );
        assert_eq!(
            extent,
            written - capacity,
            "{cell}: static write model vs sanitizer extent, byte-exact"
        );
    }
}

#[test]
fn canary_clobber_prediction_matches_exploit_outcomes() {
    for arch in Arch::ALL {
        let firmware = Firmware::build(FirmwareKind::OpenElec, arch);
        let report = analysis::analyze(firmware.image());
        let exp = &report.exploitability[0];
        assert!(
            exp.clobbers_canary,
            "{arch}: a contiguous overwrite cannot skip a canary slot"
        );

        // Prediction: with a canary the hijack dies before returning;
        // without one the same payload pops a shell.
        let strategy = CodeInjection::new(arch);
        let guarded = Lab::new(FirmwareKind::OpenElec, arch)
            .with_protections(Protections::none().with_canary())
            .run_exploit(&strategy)
            .unwrap_or_else(|e| panic!("{arch}: {e}"));
        assert_ne!(guarded.outcome, AttackOutcome::RootShell, "{arch}");
        let ProxyOutcome::Crashed(fault_report) = &guarded.proxy_outcome else {
            panic!("{arch}: canary must abort, got {}", guarded.proxy_outcome);
        };
        assert!(
            matches!(fault_report.fault, Fault::CanarySmashed { .. }),
            "{arch}: got {}",
            fault_report.fault
        );

        let open = Lab::new(FirmwareKind::OpenElec, arch)
            .with_protections(Protections::none())
            .run_exploit(&strategy)
            .unwrap_or_else(|e| panic!("{arch}: {e}"));
        assert_eq!(open.outcome, AttackOutcome::RootShell, "{arch}");
    }
}

#[test]
fn patched_firmware_is_statically_quiet_on_all_isas() {
    for arch in Arch::ALL {
        let patched = Firmware::build(FirmwareKind::Patched, arch);
        let report = analysis::analyze(patched.image());
        assert!(report.clean(), "{arch}: {:?}", report.findings);
        assert!(
            report.exploitability.is_empty(),
            "{arch}: {:?}",
            report.exploitability
        );
        // The bounded copy is still *seen* — the value-set layer proves
        // it stops below the return slot rather than not modelling it.
        let cfg = analysis::cfg::recover(patched.image());
        let sources =
            analysis::taint::effective_sources(&cfg, &analysis::taint::TaintConfig::default());
        let value_sets = analysis::vsa::vsa_pass(&cfg, patched.image(), &sources);
        let vsa = value_sets
            .iter()
            .find(|v| v.function == "parse_response")
            .expect("parse_response analysed");
        let bounded = vsa
            .tainted_writes()
            .all(|w| w.extent.is_some() && w.end().unwrap() < vsa.ret_slot.unwrap());
        assert!(bounded, "{arch}: patched copy must be proven bounded");
    }
}
