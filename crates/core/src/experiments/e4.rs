//! E4 — the firmware survey: which shipped OSes are exploitable.
//!
//! "We found three major embedded operating systems that still contain
//! vulnerable versions of Connman: the Yocto project … compiles
//! distributions with Connman 1.31; OpenELEC … comes with Connman 1.34
//! …; Tizen OS … utilizes a vulnerable version of Connman up until
//! version 4.0."

use cml_exploit::RopMemcpyChain;
use cml_firmware::{Arch, FirmwareKind, Protections};

use crate::lab::{AttackOutcome, Lab, LabError};
use crate::report::Table;
use crate::runner::{derive_seed, Runner};

/// Runs the experiment on `jobs` workers; output is byte-identical to
/// the serial run (derived per-cell seeds, ordered merge).
pub fn run(jobs: usize) -> Table {
    let mut header = vec!["firmware", "connman", "vulnerable?"];
    header.extend(Arch::ALL.map(Arch::name));
    let mut t = Table::new(
        "E4",
        "firmware survey: exploitability per shipped OS (ROP chain, W^X+ASLR)",
        &header,
    );
    let mut matrix = Vec::new();
    for kind in FirmwareKind::ALL {
        for arch in Arch::ALL {
            matrix.push((kind, arch));
        }
    }
    let cells = Runner::new(jobs).run(matrix, |cell_id, (kind, arch)| {
        let lab = Lab::new(kind, arch)
            .with_protections(Protections::full())
            .with_victim_seed(derive_seed(crate::lab::VICTIM_SEED, cell_id as u64));
        match lab.run_exploit(&RopMemcpyChain::new(arch)) {
            Ok(report) if report.outcome == AttackOutcome::RootShell => "root shell".to_string(),
            Ok(report) => report.outcome.to_string(),
            Err(LabError::Recon(_)) => "not exploitable (recon finds no crash)".into(),
            Err(e) => format!("error: {e}"),
        }
    });
    for (kind, per_arch) in FirmwareKind::ALL
        .into_iter()
        .zip(cells.chunks(Arch::ALL.len()))
    {
        let mut row = vec![
            kind.os_name().to_string(),
            kind.connman_version().to_string(),
            if kind.is_vulnerable() { "yes" } else { "no" }.to_string(),
        ];
        row.extend_from_slice(per_arch);
        t.row(row);
    }
    t.note(
        "All three surveyed OS families fall to the strongest exploit even \
         with W^X and ASLR on, months after the CVE was published; only the \
         1.35-based build resists — matching the paper's persistence claim.",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survey_matches_paper() {
        let t = run(1);
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            assert_eq!(row.len(), 3 + Arch::ALL.len(), "{row:?}");
            for cell in &row[3..] {
                if row[2] == "yes" {
                    assert_eq!(cell, "root shell", "{row:?}");
                } else {
                    assert!(cell.contains("not exploitable"), "{row:?}");
                }
            }
        }
    }
}
