//! # cml-fuzz — coverage-guided rediscovery of CVE-2017-12865
//!
//! The rest of the workspace *exploits* the Connman `dnsproxy` overflow
//! on the assumption that the attacker already knows it is there. This
//! crate closes the loop from the other side: an AFL-style fuzzer that
//! finds the bug from scratch, with nothing but benign DNS responses as
//! seeds and the VM's sanitizer as the oracle.
//!
//! The moving parts, bottom-up:
//!
//! - **Coverage** rides the VM's block-dispatch path
//!   ([`cml_vm::CoverageMap`]) plus virtual edges the instrumented
//!   parser emits via `Machine::cov_note` — bucketed name-length growth
//!   is the gradient that leads mutation toward (and past) the
//!   1024-byte `parse_response` buffer.
//! - **[`mutate`]** holds structure-aware DNS operators: label splice
//!   and extend, compression-pointer bends (the CVE's amplification
//!   device), rdata growth, corpus splicing, and plain havoc.
//! - **[`corpus`]** admits an input only when its execution lights an
//!   AFL count-class no earlier input did.
//! - **[`harness`]** is the fork server: one boot per worker via
//!   [`cml_firmware::Firmware::forge`], a snapshot restore per input.
//! - **[`triage`]** deduplicates crashes by fault site and minimizes
//!   reproducers with a budget-bounded ddmin.
//! - **[`driver`]** shards independent per-worker campaigns over
//!   [`cml_core::Runner`] and merges them deterministically: the same
//!   `--seed` yields a byte-identical report, including admission
//!   order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod driver;
pub mod harness;
pub mod mutate;
pub mod triage;

pub use corpus::{Corpus, CoverageAccum};
pub use driver::{fuzz, CrashRecord, FuzzConfig, FuzzReport, WorkerStats};
pub use harness::{Crash, ExecOutcome, Harness};
pub use mutate::{Mutator, MAX_INPUT};
pub use triage::{crash_key, minimize, CrashSite};
