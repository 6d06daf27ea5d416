//! Integration: hostile and degenerate inputs must never panic the
//! lab — the daemon either rejects, survives, or dies *in simulation*.

use connman_lab::connman::{ProxyOutcome, Resolution};
use connman_lab::dns::forge::{NameTermination, ResponseForge};
use connman_lab::dns::{Message, Name, Question, RecordType};
use connman_lab::firmware::Firmware;
use connman_lab::{Arch, FirmwareKind, Protections};

fn booted(kind: FirmwareKind, arch: Arch) -> (connman_lab::firmware::Daemon, Message) {
    let fw = Firmware::build(kind, arch);
    let mut daemon = fw.boot(Protections::none(), 42);
    let name = Name::parse("probe.example").unwrap();
    let Resolution::Query(q) = daemon.resolve(&name, RecordType::A) else {
        panic!("cold cache");
    };
    let query = Message::decode(&q).unwrap();
    (daemon, query)
}

#[test]
fn truncated_packets_rejected_cleanly() {
    let (mut daemon, query) = booted(FirmwareKind::OpenElec, Arch::X86);
    let full = ResponseForge::answering(&query)
        .with_chunked_payload(&[0x41; 600])
        .unwrap()
        .build()
        .unwrap();
    for cut in [0, 1, 5, 11, 12, 20, full.len() / 2] {
        let out = daemon.deliver_response(&full[..cut]);
        assert!(
            matches!(
                out,
                ProxyOutcome::Rejected(_) | ProxyOutcome::ParseFailed { .. }
            ),
            "cut at {cut}: {out}"
        );
        assert!(daemon.is_running(), "cut at {cut}");
    }
}

#[test]
fn truncation_inside_the_answer_name_is_a_parse_failure_not_a_panic() {
    // Header + question intact, answer name cut mid-label: get_name hits
    // end-of-packet after having written some bytes — an early return,
    // not a crash (the overflow stayed inside the buffer).
    let (mut daemon, query) = booted(FirmwareKind::OpenElec, Arch::X86);
    let full = ResponseForge::answering(&query)
        .with_chunked_payload(&[0x41; 600])
        .unwrap()
        .build()
        .unwrap();
    let cut = full.len() - 30;
    let out = daemon.deliver_response(&full[..cut]);
    assert!(matches!(out, ProxyOutcome::ParseFailed { .. }), "{out}");
    assert!(daemon.is_running());
}

#[test]
fn pointer_loop_terminates_without_hanging() {
    for kind in [FirmwareKind::OpenElec, FirmwareKind::Patched] {
        let (mut daemon, query) = booted(kind, Arch::Armv7);
        let forge = ResponseForge::answering(&query)
            .with_payload_labels(vec![b"loop".to_vec()])
            .unwrap();
        let off = forge.answer_name_offset();
        let bytes = forge
            .terminate(NameTermination::Pointer(off))
            .build()
            .unwrap();
        let out = daemon.deliver_response(&bytes);
        assert!(
            matches!(out, ProxyOutcome::ParseFailed { .. }),
            "{kind:?}: {out}"
        );
        assert!(daemon.is_running());
    }
}

#[test]
fn wrong_arch_payload_crashes_but_never_shells() {
    // Build an x86 chain, fire it at an ARM daemon: garbage control
    // flow, which must end in a crash — not a shell, not a panic.
    use connman_lab::exploit::target::deliver_labels;
    use connman_lab::exploit::{RopMemcpyChain, TargetInfo};
    use connman_lab::ExploitStrategy;

    let x86_fw = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
    let fw2 = x86_fw.clone();
    let info =
        TargetInfo::gather(x86_fw.image(), move || fw2.boot(Protections::none(), 5)).unwrap();
    let labels = RopMemcpyChain::new(Arch::X86)
        .build(&info)
        .unwrap()
        .to_labels()
        .unwrap();

    let arm_fw = Firmware::build(FirmwareKind::OpenElec, Arch::Armv7);
    let mut victim = arm_fw.boot(Protections::none(), 9);
    let out = deliver_labels(&mut victim, labels).unwrap();
    assert!(!out.is_root_shell(), "{out}");
    assert!(!victim.is_running());
}

#[test]
fn daemon_down_is_sticky_and_reported() {
    let (mut daemon, query) = booted(FirmwareKind::OpenElec, Arch::X86);
    let kill = ResponseForge::answering(&query)
        .with_chunked_payload(&[0x41; 1300])
        .unwrap()
        .build()
        .unwrap();
    assert!(!daemon.deliver_response(&kill).daemon_alive());
    for _ in 0..3 {
        assert_eq!(daemon.deliver_response(&kill), ProxyOutcome::DaemonDown);
    }
    let name = Name::parse("anything.example").unwrap();
    // A dead daemon can still be asked (state machine stays consistent).
    let _ = daemon.resolve(&name, RecordType::A);
}

#[test]
fn response_flood_with_wrong_ids_changes_nothing() {
    let (mut daemon, query) = booted(FirmwareKind::OpenElec, Arch::Armv7);
    for id in 0..200u16 {
        if id == query.id() {
            continue;
        }
        let bogus = Message::query(
            id,
            Question::new(Name::parse("probe.example").unwrap(), RecordType::A),
        );
        let attack = ResponseForge::answering(&bogus)
            .with_chunked_payload(&[0x41; 1300])
            .unwrap()
            .build()
            .unwrap();
        let out = daemon.deliver_response(&attack);
        assert!(matches!(out, ProxyOutcome::Rejected(_)), "id {id}: {out}");
    }
    assert!(
        daemon.is_running(),
        "spoofing without the txid goes nowhere"
    );
}

#[test]
fn aaaa_vector_works_like_a() {
    // The paper selects Type A "for its universality" but names AAAA as
    // equally viable; verify the other vector.
    let fw = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
    let mut daemon = fw.boot(Protections::none(), 42);
    let name = Name::parse("v6.example").unwrap();
    let Resolution::Query(q) = daemon.resolve(&name, RecordType::Aaaa) else {
        panic!("cold cache");
    };
    let query = Message::decode(&q).unwrap();
    let attack = ResponseForge::answering(&query)
        .with_chunked_payload(&[0x41; 1300])
        .unwrap()
        .record_type(RecordType::Aaaa)
        .build()
        .unwrap();
    let out = daemon.deliver_response(&attack);
    assert!(!out.daemon_alive(), "{out}");
}
