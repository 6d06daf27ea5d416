//! Cross-crate property tests: the invariants DESIGN.md commits to.

use proptest::prelude::*;

use connman_lab::connman::{ProxyOutcome, Resolution};
use connman_lab::dns::forge::ResponseForge;
use connman_lab::dns::{Message, Name, RecordType};
use connman_lab::exploit::BufferImage;
use connman_lab::firmware::Firmware;
use connman_lab::{Arch, FirmwareKind, Protections};

fn booted(kind: FirmwareKind) -> (connman_lab::firmware::Daemon, Message) {
    let fw = Firmware::build(kind, Arch::X86);
    let mut daemon = fw.boot(Protections::none(), 1);
    let name = Name::parse("p.example").unwrap();
    let Resolution::Query(q) = daemon.resolve(&name, RecordType::A) else {
        panic!("cold cache");
    };
    let query = Message::decode(&q).unwrap();
    (daemon, query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The patched daemon (1.35) survives ANY byte blob thrown at it.
    #[test]
    fn patched_daemon_survives_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let (mut daemon, _) = booted(FirmwareKind::Patched);
        let _ = daemon.deliver_response(&bytes);
        prop_assert!(daemon.is_running());
    }

    /// The patched daemon survives any *label chain* (well-formed wire
    /// packets that pass the header gate — the strongest adversary that
    /// cannot pick the transaction id).
    #[test]
    fn patched_daemon_survives_arbitrary_label_chains(
        labels in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..=63),
            1..40,
        )
    ) {
        let (mut daemon, query) = booted(FirmwareKind::Patched);
        let attack = ResponseForge::answering(&query)
            .with_payload_labels(labels)
            .unwrap()
            .build();
        if let Ok(bytes) = attack {
            let _ = daemon.deliver_response(&bytes);
            prop_assert!(daemon.is_running());
        }
    }

    /// The vulnerable daemon processes any label chain without
    /// *panicking the simulator*: outcomes are always one of the typed
    /// verdicts, and small names never kill it.
    #[test]
    fn vulnerable_daemon_total_over_label_chains(
        labels in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..=63),
            1..40,
        )
    ) {
        let decompressed: usize = labels.iter().map(|l| l.len() + 1).sum();
        let (mut daemon, query) = booted(FirmwareKind::OpenElec);
        let attack = ResponseForge::answering(&query)
            .with_payload_labels(labels)
            .unwrap()
            .build();
        if let Ok(bytes) = attack {
            let out = daemon.deliver_response(&bytes);
            if decompressed + 1 < 1024 {
                prop_assert!(
                    matches!(out, ProxyOutcome::Answered { .. } | ProxyOutcome::ParseFailed { .. }),
                    "small name must be harmless: {out}"
                );
                prop_assert!(daemon.is_running());
            }
        }
    }

    /// Layout solver soundness: whatever it emits decompresses to an
    /// image reproducing every fixed byte.
    #[test]
    fn labelizer_reproduces_fixed_bytes(
        words in proptest::collection::vec((0usize..320, any::<u32>()), 0..24),
    ) {
        let mut img = BufferImage::filler(1344);
        for (slot, value) in words {
            img.set_word(1024 + slot * 4 / 4 * 4, value);
        }
        if let Ok(labels) = img.labelize() {
            prop_assert!(img.verify(&labels).is_ok());
            for l in &labels {
                prop_assert!(!l.is_empty() && l.len() <= 63);
            }
        }
    }

    /// DNS messages round-trip through encode/decode.
    #[test]
    fn dns_message_roundtrip(
        id in any::<u16>(),
        host in "[a-z]{1,12}(\\.[a-z]{1,12}){0,3}",
        ttl in any::<u32>(),
        a in any::<[u8; 4]>(),
    ) {
        use connman_lab::dns::{Question, Record, RecordData};
        let name = Name::parse(&host).unwrap();
        let query = Message::query(id, Question::new(name.clone(), RecordType::A));
        let mut resp = Message::response_to(&query);
        resp.push_answer(Record::new(name, ttl, RecordData::A(a.into())));
        let bytes = resp.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        prop_assert_eq!(back, resp);
    }

    /// The strict decoder is total: arbitrary bytes produce a typed
    /// result, never a panic. (The fuzzer feeds the decoder far nastier
    /// inputs than the forge can construct; this is its safety net.)
    #[test]
    fn dns_decoder_total_over_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..1024),
    ) {
        let _ = Message::decode(&bytes);
    }

    /// `cml-analyze/v2` report JSON round-trips: whatever the emitter
    /// writes, the in-tree parser reads back identically — including
    /// arbitrary function names that need escaping. The emitted report
    /// borrows its strings (no clone churn), so this also pins the
    /// borrow-aware emitter against the owning parser.
    #[test]
    fn analysis_v2_json_roundtrips(
        name in "[ -~]{0,24}",
        bounded in any::<bool>(),
        raw_extent in any::<u32>(),
        offsets in proptest::collection::vec(any::<i32>(), 0..6),
    ) {
        use connman_lab::json::{self, n, s, Value};
        let extent = bounded.then_some(raw_extent);
        let doc = Value::Obj(vec![
            ("schema".into(), s(connman_lab::analysis::SCHEMA)),
            ("function".into(), s(name.as_str())),
            (
                "max_extent".into(),
                extent.map(n).unwrap_or(Value::Null),
            ),
            (
                "offsets".into(),
                Value::Arr(offsets.iter().map(|&o| n(o as f64)).collect()),
            ),
            ("clean".into(), Value::Bool(extent.is_none())),
        ]);
        let text = doc.to_string();
        let back = json::parse(&text).unwrap();
        prop_assert_eq!(back, doc);
    }

    /// The full analyzer report of every firmware variant survives the
    /// same round trip and keeps its schema tag.
    #[test]
    fn analysis_report_roundtrips(seed in any::<u8>()) {
        use connman_lab::{analysis, json};
        let kind = if seed.is_multiple_of(2) { FirmwareKind::OpenElec } else { FirmwareKind::Patched };
        let arch = if seed % 4 < 2 { Arch::X86 } else { Arch::Armv7 };
        let fw = Firmware::build(kind, arch);
        let report = analysis::analyze(fw.image());
        let text = report.to_json().to_string();
        let doc = json::parse(&text).unwrap();
        prop_assert_eq!(
            doc.get("schema").and_then(json::Value::as_str),
            Some(analysis::SCHEMA)
        );
        prop_assert_eq!(doc.to_string(), text);
    }

    /// Resolver determinism: a resolver simulation is a pure function
    /// of its seed, since its clock advances only by seeded latency
    /// draws. Fanning independent simulations across any worker count
    /// reproduces the serial traces and response bytes exactly — the
    /// property every fleet/experiment table's
    /// byte-identical-at-any-`--jobs` claim rests on.
    #[test]
    fn resolver_traces_invariant_under_runner_geometry(
        seed in any::<u64>(),
        jobs in 1usize..5,
        cells in 1usize..6,
    ) {
        use connman_lab::dns::{Message, Question, RecordType};
        use connman_lab::netsim::{example_internet, RecursiveResolver};
        use connman_lab::{derive_seed, Runner};

        let simulate = |cell: u64| {
            let (mut net, www) = example_internet();
            let mut r = RecursiveResolver::new(derive_seed(seed, cell), 64);
            let q = Message::query(1, Question::new(www, RecordType::A))
                .encode()
                .expect("query encodes");
            let resp = r.handle_query(&mut net, &q);
            (resp, r.trace().to_string())
        };
        let serial: Vec<_> = (0..cells as u64).map(simulate).collect();
        let fanned = Runner::new(jobs).run(
            (0..cells as u64).collect(),
            |_, cell| simulate(cell),
        );
        prop_assert_eq!(serial, fanned);
    }

    /// Cache TTL boundaries are exact for ANY insert time and TTL: a
    /// hit one tick before expiry, a miss at the expiry tick itself and
    /// ever after.
    #[test]
    fn resolver_cache_ttl_boundary_is_exact(
        t0 in 0u64..1u64 << 40,
        ttl in 2u64..1u64 << 30,
        host in "[a-z]{1,12}(\\.[a-z]{1,12}){0,3}",
    ) {
        use connman_lab::dns::{Message, Name, Question, Record, RecordData, RecordType};
        use connman_lab::netsim::ResolverCache;

        let name = Name::parse(&host).unwrap();
        let query = Message::query(9, Question::new(name.clone(), RecordType::A));
        let q = query.encode().unwrap();
        let mut resp = Message::response_to(&query);
        resp.push_answer(Record::new(name, 60, RecordData::A([10, 0, 0, 1].into())));
        let r = resp.encode().unwrap();

        let mut cache = ResolverCache::new(4);
        prop_assert!(cache.insert(t0, &q, &r, ttl));
        let mut out = Vec::new();
        prop_assert!(cache.lookup_into(t0, &q, &mut out), "live at insert");
        prop_assert!(cache.lookup_into(t0 + ttl - 1, &q, &mut out), "live one tick before expiry");
        prop_assert!(!cache.lookup_into(t0 + ttl, &q, &mut out), "dead at the expiry tick");
        prop_assert!(!cache.lookup_into(t0 + ttl + 1, &q, &mut out), "dead after expiry");
        // Batched expiry agrees with the lookup rule.
        cache.advance(t0 + ttl - 1);
        prop_assert_eq!(cache.len(), 1, "advance keeps a live entry");
        cache.advance(t0 + ttl);
        prop_assert!(cache.is_empty(), "advance drops a dead entry");
        prop_assert_eq!(cache.stats().expirations, 1);
    }

    /// Per-link latency draws are pure in (seed, link, event index) and
    /// always land inside the configured jitter window.
    #[test]
    fn link_latency_is_pure_and_bounded(
        seed in any::<u64>(),
        link in any::<u64>(),
        idx in any::<u64>(),
    ) {
        use connman_lab::netsim::{link_latency_us, JITTER_SPAN_US, MIN_LATENCY_US};
        let d = link_latency_us(seed, link, idx);
        prop_assert_eq!(d, link_latency_us(seed, link, idx), "pure function");
        prop_assert!((MIN_LATENCY_US..MIN_LATENCY_US + JITTER_SPAN_US).contains(&d));
    }

    /// The buffered server entry point the fleet and fuzz drivers use,
    /// [`MaliciousDnsServer::handle_into`], is total over arbitrary
    /// datagrams, for both the armed and the benign server, with a warm
    /// reused buffer.
    #[test]
    fn server_handle_into_total_over_arbitrary_bytes(
        datagrams in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256),
            1..8,
        ),
    ) {
        use connman_lab::dns::WireBuf;
        use connman_lab::exploit::MaliciousDnsServer;
        use std::net::Ipv4Addr;

        let mut armed = MaliciousDnsServer::with_labels(vec![b"payload".to_vec()], "probe");
        let mut benign = MaliciousDnsServer::benign(Ipv4Addr::new(10, 0, 0, 53));
        let mut out = WireBuf::new();
        for d in &datagrams {
            let _ = armed.handle_into(d, &mut out);
            let _ = benign.handle_into(d, &mut out);
        }
    }
}
