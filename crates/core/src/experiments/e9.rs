//! E9 — a cohort-structured fleet campaign (extension; the paper's
//! closing Mirai remark at population scale).
//!
//! The million-device runner (DESIGN.md §16) sweeps cohorts that mix
//! firmware versions, mitigation configs, packet-loss profiles and
//! boot-entropy models, and streams per-cohort accumulators. This
//! experiment runs the same campaign shape at a CI-friendly 10,000
//! devices and reports the per-cohort compromise rates; the spec string
//! below is exactly what `cml fleet --cohorts` accepts.

use crate::fleet::{run_fleet, CohortSpec, FleetSpec};
use crate::report::Table;

/// The campaign: the BENCH_8 heterogeneous mix at 1% scale, with
/// explicit boot-entropy and loss profiles per cohort.
const COHORTS: &str = "tv=openelec/armv7/full/4000/entropy=6,\
                       thermostat=yocto/x86/wxorx/3000/entropy=6,\
                       settop=tizen/armv7/full/2000/loss=2%/entropy=6,\
                       camera=patched/armv7/full/1000/entropy=6";

/// Runs the campaign on `jobs` workers. The streamed per-cohort report
/// is byte-identical at any worker count, so the table is too.
pub fn run(jobs: usize) -> Table {
    let spec = FleetSpec {
        base_seed: 0xF1EE7,
        cohorts: CohortSpec::parse_list(COHORTS).expect("cohort spec parses"),
    };
    let classes: u64 = spec.cohorts.iter().map(|c| c.classes()).sum();
    let report = run_fleet(&spec, jobs);
    let mut t = report.to_table(
        "E9",
        "cohort campaign: per-cohort compromise rates (10k devices)",
    );
    t.note(format!(
        "Four cohorts, one rogue AP: every vulnerable device that hears the \
         forged answer falls, the patched build refuses it, and the lossy \
         set-top cohort loses a deterministic ~2% of responses to the air. \
         {} devices resolved through {classes} boot-layout classes (6 bits \
         of boot entropy per cohort); the full-scale run and its ablations \
         are recorded in BENCH_8.json.",
        report.devices,
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_byte_identical_serial_vs_parallel() {
        assert_eq!(run(1).to_markdown(), run(4).to_markdown());
    }

    #[test]
    fn cohort_rates_match_the_threat_model() {
        let t = run(1);
        // Rows: tv, thermostat, settop, camera. Columns: cohort,
        // firmware, arch, protections, devices, compromised, rate,
        // alive, lost.
        let shells: Vec<u64> = t.rows.iter().map(|r| r[5].parse().unwrap()).collect();
        assert_eq!(shells[0], 4000, "every vulnerable TV falls");
        assert_eq!(shells[1], 3000, "every thermostat falls");
        let lost: u64 = t.rows[2][8].parse().unwrap();
        assert_eq!(shells[2] + lost, 2000, "set-tops: compromised or lost");
        assert!(lost > 0, "the 2% loss profile actually fires");
        assert_eq!(shells[3], 0, "patched cameras survive");
    }
}
