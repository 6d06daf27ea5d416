//! Property tests for relocatable payload templates (the PR's core
//! contract): for every exploit-matrix cell, relocating the compiled
//! template to a random slide must be byte-identical to rebuilding the
//! payload from scratch against the slid target, and delivering the
//! template's labels must produce the same outcome as delivering the
//! from-scratch labels on an identically-seeded victim.

use connman_lab::derive_seed;
use connman_lab::exploit::template::apply_slides;
use connman_lab::exploit::{matrix, PayloadTemplate, Slides};
use connman_lab::{FirmwareKind, Lab};

/// Deterministic pseudo-random slides: word-aligned page displacements,
/// non-negative and small so shifted addresses stay inside the 32-bit
/// images.
fn slides_for(seed: u64) -> Slides {
    let page = |k: u64| ((derive_seed(seed, k) % 32) * 0x1000) as i64;
    Slides {
        pie: page(1),
        libc: page(2),
        stack: page(3),
    }
}

#[test]
fn relocation_matches_rebuild_for_every_cell_and_slide() {
    // Each technique under the level it is built for, so the expected
    // result is a root shell, the most corruption-sensitive verdict.
    for (arch, prot, strategy) in matrix() {
        let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(prot);
        let reference = lab.recon().expect("replica recon");
        let template =
            PayloadTemplate::compile(strategy.as_ref(), &reference).expect("cell templates");
        let mut buf = Vec::new();
        let mut labels = Vec::new();
        for k in 0..8u64 {
            let slides = slides_for(0xC0FFEE ^ k);
            template.relocate(&slides, &mut buf);
            let rebuilt = strategy
                .build(&apply_slides(&reference, &slides))
                .expect("rebuild against the slid target");
            let img = rebuilt.image();
            assert_eq!(
                buf.len(),
                img.len(),
                "{}/{} k={k}: image length",
                strategy.name(),
                strategy.arch()
            );
            for (i, &byte) in buf.iter().enumerate() {
                assert_eq!(
                    byte,
                    img.get(i).expect("offset < len").value(),
                    "{}/{} k={k}: byte at offset {i}",
                    strategy.name(),
                    strategy.arch()
                );
            }
            template
                .relocate_labels(&slides, &mut buf, &mut labels)
                .expect("relocated labels");
            template
                .verify_labels(&slides, &labels)
                .unwrap_or_else(|off| {
                    panic!(
                        "{}/{} k={k}: labels lose fixed byte {off}",
                        strategy.name(),
                        strategy.arch()
                    )
                });
        }
    }
}

#[test]
fn template_labels_deliver_the_same_outcome_as_rebuilt_labels() {
    for (arch, prot, strategy) in matrix() {
        let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(prot);
        let reference = lab.recon().expect("replica recon");
        let template =
            PayloadTemplate::compile(strategy.as_ref(), &reference).expect("cell templates");
        for sanitize in [false, true] {
            for k in 0..8u64 {
                let slides = slides_for(0xBEEF ^ k);
                let from_template = template.instantiate(&slides).expect("template labels");
                let from_scratch = strategy
                    .build(&apply_slides(&reference, &slides))
                    .expect("rebuild")
                    .to_labels()
                    .expect("rebuild labels");
                // Two identically-seeded victims, one per label source:
                // the verdicts must agree byte-for-byte of behavior even
                // though the label boundary plans may differ.
                let victim_lab = |payload_labels| {
                    Lab::new(FirmwareKind::OpenElec, strategy.arch())
                        .with_protections(prot)
                        .with_victim_seed(derive_seed(0x7E57, k))
                        .with_sanitizer(sanitize)
                        .attack_with_labels(payload_labels)
                        .expect("victim issues a query")
                };
                let (outcome_t, _) = victim_lab(from_template);
                let (outcome_s, _) = victim_lab(from_scratch);
                assert_eq!(
                    outcome_t,
                    outcome_s,
                    "{}/{} sanitize={sanitize} k={k}",
                    strategy.name(),
                    strategy.arch()
                );
            }
        }
    }
}
