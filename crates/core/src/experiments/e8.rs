//! E8 — brute-forcing ASLR with ret2libc (extension; cf. related work
//! §VI, where a D-Link PoC "bypasses W⊕X and ASLR … by brute-force").
//!
//! Without an information leak an attacker can only guess the libc
//! slide. We sweep the ASLR entropy and measure the observed success
//! rate of a fixed-guess ret2libc payload over many boots; the expected
//! rate is 1/(2^bits − 1) (our loader never draws the zero slide).

use cml_exploit::target::deliver_labels;
use cml_exploit::{PayloadTemplate, Ret2Libc, Slides, TargetInfo};
use cml_firmware::{Arch, Firmware, FirmwareKind, Protections};
use cml_vm::AslrConfig;

use crate::report::Table;

/// Boots attacked per entropy setting.
const TRIALS: u64 = 48;

/// The slide the attacker bets on, in pages.
const GUESSED_PAGES: u32 = 1;

/// Runs the experiment (snapshot/fork boot path).
pub fn run() -> Table {
    run_with(true)
}

/// Runs the experiment, choosing the victim boot path: `snapshot` forks
/// each trial from one boot per entropy level (restore + reslide);
/// otherwise every trial pays for a full boot. Output is byte-identical
/// either way — that equivalence is what `tests/snapshot.rs` pins down.
fn run_with(snapshot: bool) -> Table {
    let mut t = Table::new(
        "E8",
        "ASLR brute force: ret2libc success rate vs. entropy (x86)",
        &[
            "entropy bits",
            "trials",
            "shells",
            "observed rate",
            "expected rate",
        ],
    );
    let fw = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
    // Recon once on a no-ASLR replica for geometry and link addresses.
    let fw2 = fw.clone();
    let base_info = TargetInfo::gather(fw.image(), move || fw2.boot(Protections::wxorx(), 0xA11C))
        .expect("vulnerable firmware");

    // The payload is compiled once into a relocatable template; the
    // attacker's guess — every libc address shifted by the same
    // candidate slide — is then a slide relocation, not a rebuild.
    let template =
        PayloadTemplate::compile(&Ret2Libc::new(), &base_info).expect("payload templates");
    let guess = Slides {
        libc: (GUESSED_PAGES as i64) * 0x1000,
        ..Slides::identity()
    };
    let labels = template.instantiate(&guess).expect("labelizes");

    for bits in [2u32, 3, 4, 6, 8] {
        let protections = Protections {
            aslr: AslrConfig::with_entropy(bits),
            ..Protections::wxorx()
        };
        let mut shells = 0u64;
        let mut forge = snapshot.then(|| fw.forge(protections, 0x5EED_0000));
        for seed in 0..TRIALS {
            let boot_seed = 0x5EED_0000 + seed;
            let outcome = match &mut forge {
                // Boot once per entropy level, fork per trial.
                Some(forge) => deliver_labels(forge.fork(boot_seed), labels.clone()),
                None => deliver_labels(&mut fw.boot(protections, boot_seed), labels.clone()),
            };
            if outcome.is_some_and(|out| out.is_root_shell()) {
                shells += 1;
            }
        }
        let expected = 1.0 / ((1u64 << bits) - 1) as f64;
        t.row([
            bits.to_string(),
            TRIALS.to_string(),
            shells.to_string(),
            format!("{:.3}", shells as f64 / TRIALS as f64),
            format!("{expected:.3}"),
        ]);
    }
    t.note(format!(
        "Each trial guesses a fixed {GUESSED_PAGES}-page libc slide; a shell \
         appears only when the victim's boot drew exactly that slide. The \
         observed rate tracks 1/(2^bits-1), shrinking geometrically — the \
         reason the paper's ROP-over-fixed-sections approach matters: it \
         needs no guessing at all.",
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_fresh_boot_tables_are_byte_identical() {
        assert_eq!(run_with(true).to_markdown(), run_with(false).to_markdown());
    }

    #[test]
    fn success_rate_decays_with_entropy() {
        let t = run();
        let shells: Vec<u64> = t.rows.iter().map(|r| r[2].parse().unwrap()).collect();
        // Low entropy hits sometimes; high entropy almost never.
        assert!(shells[0] >= 1, "2 bits: expect some hits, got {shells:?}");
        assert!(shells[4] <= 2, "8 bits: expect ~0 hits, got {shells:?}");
        assert!(
            shells.first() >= shells.last(),
            "monotone-ish decay: {shells:?}"
        );
    }
}
