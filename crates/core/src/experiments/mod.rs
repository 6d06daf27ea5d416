//! The experiment suite: every table/figure of the paper plus the
//! DESIGN.md extension experiments, regenerated from the simulation.
//!
//! [`ALL`] lists them in suite order; [`run_all`] and [`run_one`] run
//! from it.
//!
//! | id | reproduces | entry point |
//! |----|------------|-------------|
//! | E1 | §III DoS preamble | [`e1::run`] |
//! | E2 | the §III-A/B/C PoCs: 9 cells on 3 ISAs | [`e2::run`] |
//! | E3 | §III-D Wi-Fi Pineapple + Fig. 1 topology | [`e3::run`] |
//! | E4 | the firmware survey (Yocto/OpenELEC/Tizen) | [`e4::run`] |
//! | E5 | Listings 2–5 (generated chains) | [`e5::run`] |
//! | E6 | §IV mitigations (canary, CFI) | [`e6::run`] |
//! | E7 | §V adaptation to other builds | [`e7::run`] |
//! | E8 | ASLR brute-force curve (related work §VI) | [`e8::run`] |
//! | E9 | cohort fleet campaign (closing Mirai remark) | [`e9::run`] |
//! | E10 | upstream-resolver cache poisoning (XDRI) | [`e10::run`] |

pub mod e1;
pub mod e10;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;

use crate::report::{Suite, Table};

/// One experiment's entry point: runs it on `jobs` workers. Experiments
/// without a matrix fan-out ignore `jobs`.
pub type Run = fn(usize) -> Table;

/// Every experiment, in suite order: the only list of experiment ids.
pub const ALL: [(&str, Run); 10] = [
    ("e1", |_| e1::run()),
    ("e2", e2::run),
    ("e3", |_| e3::run()),
    ("e4", e4::run),
    ("e5", |_| e5::run()),
    ("e6", e6::run),
    ("e7", e7::run),
    ("e8", |_| e8::run()),
    ("e9", e9::run),
    ("e10", e10::run),
];

/// Runs every experiment in order on `jobs` workers. The matrix
/// experiments fan their cells across the pool; output is
/// byte-identical to a serial run at any `jobs` value.
pub fn run_all(jobs: usize) -> Suite {
    Suite {
        tables: ALL.iter().map(|(_, run)| run(jobs)).collect(),
    }
}

/// Runs one experiment by id (`"e1"`…`"e10"`, any case) on `jobs`
/// workers, or `None` for an unknown id.
pub fn run_one(id: &str, jobs: usize) -> Option<Table> {
    ALL.iter()
        .find(|(name, _)| name.eq_ignore_ascii_case(id))
        .map(|(_, run)| run(jobs))
}
