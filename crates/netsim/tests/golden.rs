//! Golden walks over the demo internet at seed 7: the resolver's trace
//! text and the client response bytes for a CNAME-plus-glue-chase walk
//! (`www.vendor.example`), a plain delegation walk
//! (`telemetry.vendor.example`), an NXDOMAIN dead end
//! (`ghost.vendor.example`), and `www.vendor.example` resolved after
//! `telemetry.vendor.example` on one resolver, so that it starts at the
//! cached `vendor.example` cut. A change to the miss path that changes
//! any of these bytes changes what the resolver does: regenerate the
//! file from the new binary only when that change is meant, and read
//! the new trace line by line.

use cml_dns::{Message, Name, Question, RecordType};
use cml_netsim::{example_internet, RecursiveResolver};

/// Resolves each of `names` in turn on one fresh resolver and demo
/// internet; returns the last response bytes (`None` on a dead end) and
/// the whole trace.
fn walk(names: &[&str]) -> (Option<Vec<u8>>, String) {
    let (mut net, _) = example_internet();
    let mut r = RecursiveResolver::new(7, 64);
    let mut resp = None;
    for name in names {
        let q = Message::query(
            0x1234,
            Question::new(Name::parse(name).unwrap(), RecordType::A),
        )
        .encode()
        .unwrap();
        resp = r.handle_query(&mut net, &q);
    }
    (resp, r.trace().to_string())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn demo_walks_match_their_golden_traces_and_responses() {
    let cases = [
        (
            &["www.vendor.example"][..],
            include_str!("golden/www.vendor.example.trace"),
            Some(
                "123481800001000100000000037777770676656e646f7207\
                 6578616d706c65000001000104656467650363646ec017\
                 00010001000000780004cb007150",
            ),
        ),
        (
            &["telemetry.vendor.example"],
            include_str!("golden/telemetry.vendor.example.trace"),
            Some(
                "1234818000010001000000000974656c656d657472790676\
                 656e646f72076578616d706c650000010001c00c000100\
                 010000012c0004cb007107",
            ),
        ),
        (
            &["ghost.vendor.example"],
            include_str!("golden/ghost.vendor.example.trace"),
            None,
        ),
        (
            &["telemetry.vendor.example", "www.vendor.example"],
            include_str!("golden/telemetry-then-www.vendor.example.trace"),
            Some(
                "123481800001000100000000037777770676656e646f7207\
                 6578616d706c65000001000104656467650363646ec017\
                 00010001000000780004cb007150",
            ),
        ),
    ];
    for (names, trace, response) in cases {
        let name = names.join(" then ");
        let (resp, got) = walk(names);
        assert_eq!(got, trace, "{name}: trace");
        assert_eq!(
            resp.as_deref().map(hex),
            response.map(str::to_string),
            "{name}: response"
        );
    }
}
