//! E6 — the §IV mitigations, implemented and measured (extension).
//!
//! The paper proposes hardware-supported CFI and stack protections as
//! future defenses. Our VM implements both (a shadow stack and per-boot
//! canaries); this experiment shows each strategy against each
//! mitigation added on top of W⊕X + ASLR.

use cml_exploit::target::deliver_labels;
use cml_exploit::{strategies_for, TargetInfo};
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};

use crate::lab::{AttackOutcome, Lab};
use crate::report::Table;
use crate::runner::{derive_seed, Runner};

/// Columns per row for seed derivation (4 protection cells + diversity).
const CELLS_PER_ROW: u64 = 8;

/// Runs the experiment on `jobs` workers; one work item per
/// (arch, technique) row, byte-identical output at any width.
pub fn run(jobs: usize) -> Table {
    let mut t = Table::new(
        "E6",
        "mitigations (paper §IV): canary, CFI, PIE and software diversity vs. each technique",
        &[
            "arch",
            "technique",
            "W^X+ASLR",
            "+canary",
            "+CFI",
            "+PIE",
            "+diversity",
        ],
    );
    let mut matrix = Vec::new();
    for arch in Arch::ALL {
        for strat_idx in 0..strategies_for(arch).len() {
            matrix.push((arch, strat_idx));
        }
    }
    let rows = Runner::new(jobs).run(matrix, |row_id, (arch, strat_idx)| {
        let strategy = &strategies_for(arch)[strat_idx];
        let mut cells = Vec::new();
        for (col, protections) in [
            Protections::full(),
            Protections::full().with_canary(),
            Protections::full().with_cfi(),
            Protections::full().with_pie(),
        ]
        .into_iter()
        .enumerate()
        {
            let seed = derive_seed(
                crate::lab::VICTIM_SEED,
                row_id as u64 * CELLS_PER_ROW + col as u64,
            );
            let lab = Lab::new(FirmwareKind::OpenElec, arch)
                .with_protections(protections)
                .with_victim_seed(seed);
            let cell = match lab.run_exploit(strategy.as_ref()) {
                Ok(r) if r.outcome == AttackOutcome::RootShell => "SHELL".to_string(),
                Ok(r) => match r.proxy_outcome {
                    cml_connman::ProxyOutcome::Crashed(ref report) => match report.fault {
                        cml_vm::Fault::CanarySmashed { .. } => "blocked (canary)".into(),
                        cml_vm::Fault::CfiViolation { .. } => "blocked (CFI)".into(),
                        _ => format!("crash ({})", short_fault(&report.fault)),
                    },
                    _ => r.outcome.to_string(),
                },
                Err(e) => format!("error: {e}"),
            };
            cells.push(cell);
        }
        // Diversity (paper §IV, artificial software diversity): the
        // payload is built against build variant 0 but the victim
        // runs a differently-compiled variant 1.
        let diversity = {
            let victim_seed =
                derive_seed(crate::lab::VICTIM_SEED, row_id as u64 * CELLS_PER_ROW + 4);
            let fw0 = Firmware::build_variant(FirmwareKind::OpenElec, arch, 0);
            let fw1 = Firmware::build_variant(FirmwareKind::OpenElec, arch, 1);
            let fw0b = fw0.clone();
            TargetInfo::gather(fw0.image(), move || fw0b.boot(Protections::full(), 0xA11C))
                .map_err(|e| e.to_string())
                .and_then(|info| {
                    strategy
                        .build(&info)
                        .map_err(|e| e.to_string())?
                        .to_labels()
                        .map_err(|e| e.to_string())
                })
                .map(|labels| {
                    let mut victim = fw1.boot(Protections::full(), victim_seed);
                    match deliver_labels(&mut victim, labels) {
                        Some(o) if o.is_root_shell() => "SHELL".to_string(),
                        Some(_) => "blocked (diversity)".to_string(),
                        None => "no query".to_string(),
                    }
                })
                .unwrap_or_else(|e| format!("error: {e}"))
        };
        cells.push(diversity);
        vec![
            arch.to_string(),
            strategy.name().to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
            cells[4].clone(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.note(
        "Only the ROP chain penetrates W^X+ASLR; every §IV-class defense stops \
         it: the canary aborts in __stack_chk_fail, the shadow stack rejects \
         the first hijacked return, PIE moves the \"fixed\" sections the chain \
         depends on, and compile-time software diversity (a different build of \
         the same source) moves the gadgets — \"a successful attack is not \
         guaranteed to work on multiple systems\".",
    );
    t
}

fn short_fault(f: &cml_vm::Fault) -> &'static str {
    match f {
        cml_vm::Fault::NxViolation { .. } => "NX",
        cml_vm::Fault::UnmappedFetch { .. } => "bad pc",
        cml_vm::Fault::UnmappedRead { .. } | cml_vm::Fault::UnmappedWrite { .. } => "bad access",
        cml_vm::Fault::IllegalInstruction { .. } => "illegal insn",
        _ => "fault",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigations_block_the_rop_chain() {
        let t = run(1);
        for row in &t.rows {
            if row[1] == "rop-memcpy-chain" {
                assert_eq!(row[2], "SHELL", "{row:?}");
                assert_eq!(row[3], "blocked (canary)", "{row:?}");
                assert_eq!(row[4], "blocked (CFI)", "{row:?}");
                assert_ne!(row[5], "SHELL", "PIE must block the chain: {row:?}");
                assert_eq!(row[6], "blocked (diversity)", "{row:?}");
            } else {
                assert_ne!(
                    row[2], "SHELL",
                    "weaker techniques die at W^X+ASLR: {row:?}"
                );
                assert_ne!(row[6], "SHELL", "{row:?}");
            }
        }
    }
}
