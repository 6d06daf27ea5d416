//! Integration: the `repro` command-line binary, spawned for real. Every
//! case here must be refused before any experiment or ablation runs.

use std::path::Path;
use std::process::Command;

fn repro_in(dir: &Path, args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

fn repro(args: &[&str]) -> (String, String, Option<i32>) {
    repro_in(Path::new("."), args)
}

#[test]
fn unknown_option_fails() {
    // `--no-snapshot` stays rejected: BENCH's
    // `ablations.snapshot_vs_reboot` already measures the fresh-boot path.
    for flag in ["--bench-jsn", "--no-snapshot"] {
        let (out, err, code) = repro(&[flag]);
        assert_eq!(code, Some(1), "{flag}: {err}");
        assert!(err.contains(&format!("unknown option {flag:?}")), "{err}");
        assert!(out.is_empty(), "nothing ran: {out}");
    }
}

#[test]
fn unknown_experiment_id_fails() {
    let (out, err, code) = repro(&["--exp", "e1", "e99"]);
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("unknown experiment id \"e99\""), "{err}");
    assert!(out.is_empty(), "nothing ran: {out}");
}

#[test]
fn jobs_wants_a_number() {
    for args in [&["--jobs", "x"][..], &["--jobs"], &["--jobs", "--json"]] {
        let (_, err, code) = repro(args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(err.contains("--jobs wants a number"), "{args:?}: {err}");
    }
}

#[test]
fn out_wants_a_file_name() {
    for args in [&["--out"][..], &["--out", "--json"]] {
        let (_, err, code) = repro(args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(err.contains("--out wants a file name"), "{args:?}: {err}");
    }
}

#[test]
fn bench_smoke_fails_on_an_unparsable_newest_baseline() {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("BENCH_3.json"), "{}").unwrap();
    std::fs::write(dir.join("BENCH_4.json"), "{\"ablations\":").unwrap();
    let (_, err, code) = repro_in(&dir, &["--bench-smoke"]);
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(code, Some(1), "{err}");
    assert!(err.contains("BENCH_4.json: json parse error"), "{err}");
}

#[test]
fn fixed_setting_modes_refuse_any_other_argument() {
    let dir = std::env::temp_dir().join(format!("repro-cli-modes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for args in [
        &["--sanitize", "--json", "--out", "x.md", "e5"][..],
        &["--bench-smoke", "--json"],
        &["--bench-smoke", "--out", "x.md", "e2"],
        &["--bench-smoke", "--sanitize"],
    ] {
        let (out, err, code) = repro_in(&dir, args);
        assert_eq!(code, Some(1), "{args:?}: {err}");
        assert!(err.contains("take no other arguments"), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?}: nothing ran: {out}");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "{args:?}: wrote {written:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
