//! Integration: the `cml` command-line binary, spawned for real.

use std::process::Command;

fn cml(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_cml"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn help_lists_commands() {
    let (_, err, code) = cml(&["--help"]);
    assert_eq!(code, Some(0));
    for cmd in [
        "survey",
        "recon",
        "exploit",
        "dos",
        "pineapple",
        "experiments",
    ] {
        assert!(err.contains(cmd), "missing {cmd} in help:\n{err}");
    }
}

#[test]
fn unknown_command_fails() {
    let (_, err, code) = cml(&["frobnicate"]);
    assert_eq!(code, Some(1));
    assert!(err.contains("unknown command"));
}

#[test]
fn recon_prints_frame_and_gadgets() {
    let (out, err, code) = cml(&["recon", "--arch", "arm", "--prot", "wxorx"]);
    assert_eq!(code, Some(0), "stderr: {err}");
    assert!(out.contains("buffer → ret offset : 1072"), "{out}");
    assert!(out.contains("gadgets found"), "{out}");
    assert!(out.contains("memcpy@plt"), "{out}");
}

#[test]
fn exploit_rop_spawns_shell_and_prints_listing() {
    let (out, err, code) = cml(&[
        "exploit",
        "--arch",
        "x86",
        "--prot",
        "full",
        "--strategy",
        "rop",
    ]);
    assert_eq!(code, Some(0), "stderr: {err}\nstdout: {out}");
    assert!(out.contains("outcome   : root shell"), "{out}");
    assert!(out.contains("execlp@plt"), "{out}");
}

#[test]
fn exploit_blocked_returns_nonzero() {
    let (out, _, code) = cml(&[
        "exploit",
        "--arch",
        "arm",
        "--prot",
        "full+cfi",
        "--strategy",
        "rop",
    ]);
    assert_eq!(code, Some(2), "{out}");
    assert!(
        out.contains("DoS (crash)") || out.contains("survived"),
        "{out}"
    );
}

#[test]
fn dos_reports_crash() {
    let (out, err, code) = cml(&["dos", "--arch", "x86", "--prot", "none"]);
    assert_eq!(code, Some(0), "stderr: {err}");
    assert!(out.contains("crashed"), "{out}");
}

#[test]
fn patched_firmware_recon_fails_cleanly() {
    let (_, err, code) = cml(&["recon", "--arch", "x86", "--firmware", "patched"]);
    assert_eq!(code, Some(1));
    assert!(err.contains("recon failed"), "{err}");
}

#[test]
fn fleet_help_prints_usage_without_running_a_campaign() {
    for flag in ["--help", "-h"] {
        let (out, err, code) = cml(&["fleet", flag]);
        assert_eq!(code, Some(0), "stderr: {err}");
        assert!(out.contains("usage: cml fleet"), "{out}");
        assert!(!out.contains("compromised"), "help ran a campaign:\n{out}");
    }
}

#[test]
fn fleet_rejects_unknown_options() {
    let (out, err, code) = cml(&["fleet", "--devcies", "10"]);
    assert_eq!(code, Some(1), "stdout: {out}");
    assert!(err.contains("unknown fleet option \"--devcies\""), "{err}");
    assert!(out.is_empty(), "no campaign may run:\n{out}");
}

#[test]
fn fleet_rejects_hostile_cohort_specs_without_panicking() {
    for (spec, field) in [
        ("=openelec/x86/full/1", "bad name"),
        ("a b=openelec/x86/full/1", "bad name"),
        (
            "nnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnnn=openelec/x86/full/1",
            "bad name",
        ),
        ("a=openelec/x86/full/1/loss=200%", "bad loss"),
        ("a=openelec/x86/full/1/loss=nan%", "bad loss"),
        ("a=openelec/x86/full/1/loss=-5%", "bad loss"),
        ("a=openelec/x86/full/18446744073709551615", "device count"),
    ] {
        let (out, err, code) = cml(&["fleet", "--cohorts", spec]);
        assert_eq!(code, Some(1), "{spec}: stdout {out}, stderr {err}");
        assert!(
            err.contains("--cohorts: ") && err.contains(field),
            "{spec}: {err}"
        );
        assert!(!err.contains("panicked"), "{spec}: {err}");
        assert!(out.is_empty(), "{spec}: no campaign may run:\n{out}");
    }
    let (out, err, code) = cml(&["fleet", "--devices", "18446744073709551615"]);
    assert_eq!(code, Some(1), "stdout {out}, stderr {err}");
    assert!(err.contains("--devices: at most"), "{err}");
}

#[test]
fn unknown_axis_values_fail_instead_of_falling_back() {
    for (flag, value, err_part) in [
        ("--arch", "mips", "unknown arch \"mips\""),
        ("--prot", "bogus", "unknown protections \"bogus\""),
        ("--firmware", "android", "unknown firmware \"android\""),
        ("--strategy", "heapspray", "unknown strategy \"heapspray\""),
    ] {
        let (out, err, code) = cml(&["recon", flag, value]);
        assert_eq!(code, Some(1), "{flag} {value}: stdout {out}");
        assert!(err.contains(err_part), "{flag} {value}: {err}");
        assert!(out.is_empty(), "{flag} {value}: nothing may run:\n{out}");
    }
    // A bad count, a missing cohort spec, a second resolve name or a
    // smoke gate given any other argument exits 1 before anything runs.
    for (args, err_part) in [
        (
            &["fleet", "--jobs", "x"][..],
            "--jobs wants a number, got \"x\"",
        ),
        (
            &["fleet", "--devices", "x"][..],
            "--devices wants a number, got \"x\"",
        ),
        (&["fleet", "--devices"][..], "--devices wants a value"),
        (&["fleet", "--cohorts"][..], "--cohorts wants a value"),
        (
            &["resolve", "telemetry.vendor.example", "www.vendor.example"][..],
            "resolve takes one name, got \"telemetry.vendor.example\" and \"www.vendor.example\"",
        ),
        (
            &["fuzz", "--smoke", "--seed", "x"][..],
            "--smoke takes no other arguments, got \"--seed\"",
        ),
        (
            &["resolve", "--smoke", "--seed", "x"][..],
            "--smoke takes no other arguments, got \"--seed\"",
        ),
    ] {
        let (out, err, code) = cml(args);
        assert_eq!(code, Some(1), "{args:?}: stdout {out}");
        assert!(err.contains(err_part), "{args:?}: {err}");
        assert!(out.is_empty(), "{args:?}: nothing may run:\n{out}");
    }
}

#[test]
fn exploit_honours_the_canary_spelling() {
    let (out, err, code) = cml(&["exploit", "--arch", "riscv", "--prot", "canary"]);
    assert_eq!(code, Some(2), "stderr: {err}\nstdout: {out}");
    assert!(out.contains("RISC-V / W^X+ASLR+canary"), "{out}");
    assert!(!out.contains("outcome   : root shell"), "{out}");
}

#[test]
fn repro_pops_a_shell_in_every_registry_cell() {
    let cells = connman_lab::exploit::matrix();
    let (out, err, code) = cml(&["repro"]);
    assert_eq!(code, Some(0), "stderr: {err}\nstdout: {out}");
    assert_eq!(out.matches("→ root shell").count(), cells.len(), "{out}");
    assert!(
        out.contains(&format!(
            "repro: all {} cells popped a root shell",
            cells.len()
        )),
        "{out}"
    );

    let (out, err, code) = cml(&["repro", "--arch", "riscv"]);
    assert_eq!(code, Some(0), "stderr: {err}\nstdout: {out}");
    assert_eq!(out.matches("RISC-V  / ").count(), 3, "{out}");
    assert_eq!(out.matches("→ root shell").count(), 3, "{out}");
}
