//! E7 — adapting the exploit to other builds (paper §V, extension).
//!
//! §V claims the code works "out-of-the-box (with minimal modification)"
//! against other DNS-based overflows, because the only build-specific
//! inputs are addresses that reconnaissance re-discovers. We test the
//! claim's mechanism: attack several *different builds* of the firmware
//! (shuffled code layout → different gadget addresses and offsets) with
//! the unchanged strategy code, re-running only reconnaissance.

use cml_exploit::target::deliver_labels;
use cml_exploit::{ExploitStrategy, RopMemcpyChain, TargetInfo};
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};

use crate::report::Table;
use crate::runner::{derive_seed, Runner};

/// Runs the experiment on `jobs` workers; byte-identical output at any
/// width (derived per-cell victim seeds, ordered merge).
pub fn run(jobs: usize) -> Table {
    let mut t = Table::new(
        "E7",
        "adaptation across builds (paper §V): recon-only retargeting",
        &[
            "arch",
            "build variant",
            "pop-gadget addr",
            "ret offset",
            "outcome",
        ],
    );
    let runner = Runner::new(jobs);
    let mut part_one = Vec::new();
    for arch in Arch::ALL {
        for variant in [0u64, 1, 2, 3] {
            part_one.push((arch, variant));
        }
    }
    let builds = runner.run(part_one, |cell_id, (arch, variant)| {
        let fw = Firmware::build_variant(FirmwareKind::OpenElec, arch, variant);
        let fw2 = fw.clone();
        let info =
            match TargetInfo::gather(fw.image(), move || fw2.boot(Protections::full(), 0xA11C)) {
                Ok(i) => i,
                Err(e) => {
                    let row = vec![
                        arch.to_string(),
                        variant.to_string(),
                        "-".into(),
                        "-".into(),
                        format!("recon error: {e}"),
                    ];
                    return (row, None);
                }
            };
        // The pop-gadget column is the gadget the chain itself chose.
        let compiled = RopMemcpyChain::new(arch)
            .compile(&info)
            .map_err(|e| e.to_string());
        let gadget = compiled.as_ref().ok().and_then(|&(_, g)| g);
        let outcome = match compiled.and_then(|(p, _)| p.to_labels().map_err(|e| e.to_string())) {
            Ok(labels) => {
                let seed = derive_seed(crate::lab::VICTIM_SEED, cell_id as u64);
                let mut victim = fw.boot(Protections::full(), seed);
                match deliver_labels(&mut victim, labels) {
                    Some(o) if o.is_root_shell() => "root shell".to_string(),
                    Some(o) => o.to_string(),
                    None => "no query".to_string(),
                }
            }
            Err(e) => format!("build error: {e}"),
        };
        let row = vec![
            arch.to_string(),
            variant.to_string(),
            gadget.map_or("-".into(), |a| format!("{a:#010x}")),
            info.frame.ret_offset.to_string(),
            outcome,
        ];
        (row, gadget)
    });
    for (ai, arch) in Arch::ALL.into_iter().enumerate() {
        let mut gadget_addrs = Vec::new();
        for (row, gadget) in &builds[ai * 4..(ai + 1) * 4] {
            t.row(row.clone());
            gadget_addrs.push(*gadget);
        }
        let distinct: std::collections::HashSet<_> = gadget_addrs.iter().flatten().collect();
        t.note(format!(
            "{arch}: {} distinct pop-gadget addresses across 4 builds — the \
             strategy code never changed, only reconnaissance re-ran.",
            distinct.len()
        ));
    }
    // Part two: retarget other *services* (the paper's §V CVE list,
    // modelled as different stack-buffer sizes) — again with zero
    // strategy changes.
    let mut part_two = Vec::new();
    for arch in Arch::ALL {
        for service in [
            cml_firmware::ServiceProfile::DNSMASQ_LIKE,
            cml_firmware::ServiceProfile::RESOLVED_LIKE,
            cml_firmware::ServiceProfile::ASTERISK_LIKE,
        ] {
            part_two.push((arch, service));
        }
    }
    let service_rows = runner.run(part_two, |cell_id, (arch, service)| {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        let fw2 = fw.clone();
        let outcome = TargetInfo::gather(fw.image(), move || {
            fw2.boot_service(Protections::full(), 0xA11C, service)
        })
        .map_err(|e| e.to_string())
        .and_then(|info| {
            let labels = RopMemcpyChain::new(arch)
                .build(&info)
                .map_err(|e| e.to_string())?
                .to_labels()
                .map_err(|e| e.to_string())?;
            // Offset part-two cell ids past part one so no two cells of
            // the experiment share a victim seed.
            let seed = derive_seed(crate::lab::VICTIM_SEED, 1000 + cell_id as u64);
            let mut victim = fw.boot_service(Protections::full(), seed, service);
            match deliver_labels(&mut victim, labels) {
                Some(o) if o.is_root_shell() => {
                    Ok((info.frame.ret_offset, "root shell".to_string()))
                }
                Some(o) => Ok((info.frame.ret_offset, o.to_string())),
                None => Err("no query".to_string()),
            }
        });
        match outcome {
            Ok((ret_offset, verdict)) => vec![
                arch.to_string(),
                service.name.to_string(),
                format!("({})", service.cve),
                ret_offset.to_string(),
                verdict.to_string(),
            ],
            Err(e) => vec![
                arch.to_string(),
                service.name.to_string(),
                format!("({})", service.cve),
                "-".into(),
                format!("error: {e}"),
            ],
        }
    });
    for row in service_rows {
        t.row(row);
    }
    t.note(
        "Part two retargets the same unchanged ROP strategy at services \
         with 296-, 2048- and 128-byte buffers (stand-ins for the paper's \
         §V CVE list): reconnaissance re-learns each frame and every one \
         falls under W^X+ASLR.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unchanged_strategy_works_across_builds_and_services() {
        let t = run(1);
        assert_eq!(t.rows.len(), 12 + 9);
        for row in &t.rows {
            assert_eq!(row[4], "root shell", "{row:?}");
        }
        // Builds genuinely differ: at least one note reports >1 address.
        assert!(
            t.notes.iter().any(|n| !n.contains("1 distinct")),
            "{:?}",
            t.notes
        );
    }
}
