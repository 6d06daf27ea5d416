//! Counting-allocator proof of the pooled zero-copy claim: after
//! warm-up, a steady-state fleet iteration's template + packet path —
//! relocate the payload template, re-emit its labels, answer the
//! canonical proxy query into a pooled buffer — performs **zero** heap
//! allocations. So does a warm full-entropy `BootForge::fork`, at a
//! fresh seed (restore + reslide) and at the base seed (pure restore),
//! a warm `Message::encode_into` with name compression, a proxy cache
//! lookup, hit or miss, and a warm authoritative referral from
//! `ZoneServer::handle_into`. A warm `Daemon::resolve` miss makes at
//! most three allocations, and so does a warm recursive-resolver miss.
//! A warm delivery of the banked ROP response makes as few allocations
//! after a fresh-seed fork as after a base-seed one, since the chain's
//! decodes survive the reslide. A warm fuzz exec of a parse-failed or a
//! gate-rejected input makes at most five and three.
//!
//! This file installs a `#[global_allocator]` and therefore holds
//! exactly one test: a sibling test thread would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use connman_lab::dns::{BufPool, Message, Name, Question, RecordType};
use connman_lab::exploit::{
    matched_strategy, MaliciousDnsServer, PayloadTemplate, RopMemcpyChain, Slides,
};
use connman_lab::firmware::Firmware;
use connman_lab::{Arch, FirmwareKind, Lab, Protections};

/// Counts every allocation-acquiring call; frees are not counted (the
/// steady-state claim is about acquiring memory, and the pool's whole
/// point is that nothing is released either).
struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_template_and_packet_path_is_allocation_free() {
    // Cold setup: recon, template compile, server construction, query
    // bytes — all allowed to allocate freely.
    let lab = Lab::new(FirmwareKind::OpenElec, Arch::X86).with_protections(Protections::full());
    let reference = lab.recon().expect("replica recon");
    let strategy = RopMemcpyChain::new(Arch::X86);
    let template = PayloadTemplate::compile(&strategy, &reference).expect("template compiles");
    assert!(
        template.has_static_plan(),
        "zero-alloc label re-emission needs the slide-invariant plan"
    );
    let labels = template
        .instantiate(&Slides::identity())
        .expect("identity labels");
    let mut server = MaliciousDnsServer::with_labels(labels, template.name());
    let query = Message::query(
        0x5150,
        Question::new(
            Name::parse("telemetry.vendor.example").expect("valid"),
            RecordType::A,
        ),
    )
    .encode()
    .expect("encodes");

    // Alternating slides prove the relocation itself (not just a no-op
    // repeat) stays allocation-free on warm buffers.
    let slide_a = Slides {
        pie: 0x4000,
        ..Slides::identity()
    };
    let slide_b = Slides {
        pie: 0x1_2000,
        ..Slides::identity()
    };

    let mut pool = BufPool::new();
    let mut buf = Vec::new();
    let mut relabeled = Vec::new();

    let iteration = |i: usize,
                     pool: &mut BufPool,
                     buf: &mut Vec<u8>,
                     relabeled: &mut Vec<Vec<u8>>,
                     server: &mut MaliciousDnsServer| {
        let slides = if i.is_multiple_of(2) {
            &slide_a
        } else {
            &slide_b
        };
        template
            .relocate_labels(slides, buf, relabeled)
            .expect("static plan");
        let mut out = pool.checkout();
        assert!(server.handle_into(&query, &mut out), "query answered");
        pool.checkin(out);
    };

    // Warm-up: first pass sizes every buffer, label vec, and the pool.
    for i in 0..4 {
        iteration(i, &mut pool, &mut buf, &mut relabeled, &mut server);
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..64 {
        iteration(i, &mut pool, &mut buf, &mut relabeled, &mut server);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state iterations must not touch the heap"
    );

    // Name compression and the proxy cache's case-folded keys: a warm
    // encode of the proxy query and of a multi-record response, and a
    // hit and a miss in a filled cache, touch no heap.
    use connman_lab::connman::Cache;
    use connman_lab::dns::{Record, RecordData};

    let proxy_query = Message::decode(&query).expect("decodes");
    let mut response = Message::response_to(&proxy_query);
    for (i, host) in ["Telemetry", "cdn", "cdn", "ns1", "ns2"].iter().enumerate() {
        let owner = Name::parse(&format!("{host}.vendor.example")).expect("valid");
        let target = Name::parse(&format!("edge{i}.Vendor.example")).expect("valid");
        response.push_answer(Record::new(owner, 60, RecordData::Cname(target)));
    }
    let mut cache = Cache::new(64);
    for i in 0..32u8 {
        let host = Name::parse(&format!("host{i}.vendor.example")).expect("valid");
        cache.insert(&host, RecordType::A, vec![[10, 0, 0, i].into()], 600, 1);
    }
    let hit = Name::parse("HOST7.Vendor.Example").expect("valid");
    let miss = Name::parse("ghost.vendor.example").expect("valid");
    let mut wire = pool.checkout();
    proxy_query.encode_into(&mut wire).expect("encodes");
    response.encode_into(&mut wire).expect("encodes");

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..64 {
        proxy_query.encode_into(&mut wire).expect("encodes");
        assert_eq!(wire.as_bytes(), &query[..]);
        response.encode_into(&mut wire).expect("encodes");
        assert!(cache.lookup(&hit, RecordType::A, 2).is_some());
        assert!(cache.lookup(&miss, RecordType::A, 2).is_none());
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm compressed encodes and cache lookups must not touch the heap"
    );
    pool.checkin(wire);

    // Batched answer fan-out: the per-class answer is a byte-compare
    // and a borrow from the cohort's AnswerBank, and spreading one
    // verdict over a device range (with and without per-device loss
    // draws) folds into integer accumulators — none of it may allocate.
    use connman_lab::exploit::AnswerBank;
    use connman_lab::fleet::{fan_out, CohortAccum, Verdict};

    let mut bank =
        AnswerBank::capture(&mut server, &query).expect("canonical query captures a response");
    let mut acc = CohortAccum::default();

    let before = ALLOCS.load(Ordering::Relaxed);
    for class in 0..64u64 {
        let response = bank.answer(&query).expect("banked response matches");
        assert!(!response.is_empty());
        let first = class * 245;
        // Lossless cohorts fan out in O(1); lossy cohorts draw each
        // device's fate from the seed stream.
        fan_out(Verdict::Shell, first..first + 245, 0xF1EE7, 0, &mut acc);
        fan_out(
            Verdict::Shell,
            first..first + 245,
            0xF1EE7,
            20_000,
            &mut acc,
        );
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "batched fan-out steady state must not touch the heap"
    );
    assert_eq!(acc.devices, 64 * 245 * 2);
    assert!(acc.lost > 0, "the lossy draws actually fired");

    // Resolver cache: after one recursive miss fills the cache and a
    // warm-up hit sizes the output buffer, every steady-state cache hit
    // (hashed canonical-qname lookup + pooled answer copy + id patch)
    // is allocation-free — the path the million-QPS headline times.
    use connman_lab::netsim::{example_internet, RecursiveResolver};

    let (mut net, _) = example_internet();
    let mut resolver = RecursiveResolver::new(0x5EED, 64);
    let rq = Message::query(
        0x3111,
        Question::new(
            Name::parse("Telemetry.Vendor.Example").expect("valid"),
            RecordType::A,
        ),
    )
    .encode()
    .expect("encodes");
    let mut rbuf = Vec::new();
    assert!(
        resolver.handle_query_into(&mut net, &rq, &mut rbuf),
        "the demo name resolves"
    );
    for _ in 0..4 {
        assert!(resolver.handle_query_into(&mut net, &rq, &mut rbuf));
    }

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..64 {
        assert!(resolver.handle_query_into(&mut net, &rq, &mut rbuf));
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm resolver cache hits must not touch the heap"
    );
    assert_eq!(resolver.cache().stats().hits, 68);
    assert_eq!(
        resolver.stats().upstream_queries,
        3,
        "only the first miss recursed"
    );

    // Resolver miss: `www.vendor.example` walks referrals, a CNAME and
    // a glue chase (9 upstream round trips). Once its answer has
    // expired and every server, pooled buffer, frame stack and trace
    // string is warm, the whole miss allocates only the three frame
    // names it materializes: the client's question, the CNAME target
    // and the glueless nameserver.
    use connman_lab::netsim::TICKS_PER_SEC;

    let www = Message::query(
        0x3112,
        Question::new(
            Name::parse("www.vendor.example").expect("valid"),
            RecordType::A,
        ),
    )
    .encode()
    .expect("encodes");
    let mut warm_miss = || {
        resolver.advance_to(resolver.now() + 3600 * TICKS_PER_SEC);
        resolver.clear_trace();
        let upstream = resolver.stats().upstream_queries;
        let before = ALLOCS.load(Ordering::Relaxed);
        assert!(resolver.handle_query_into(&mut net, &www, &mut rbuf));
        let after = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(
            resolver.stats().upstream_queries - upstream,
            9,
            "a full miss"
        );
        after - before
    };
    for _ in 0..3 {
        warm_miss();
    }
    let miss_allocs = warm_miss();
    assert!(
        miss_allocs <= 3,
        "a warm resolver miss made {miss_allocs} allocations"
    );

    // Authoritative referral: a warm `ZoneServer::handle_into` reads
    // the query in place and encodes the NS set and glue straight from
    // the zone's records, touching no heap.
    use connman_lab::dns::{WireBuf, Zone, ZoneServer};

    let mut tld = Zone::rooted("example");
    tld.ns("vendor.example", 86400, "ns1.vendor.example").a(
        "ns1.vendor.example",
        86400,
        std::net::Ipv4Addr::new(203, 0, 113, 53),
    );
    let mut tld = ZoneServer::new(tld);
    let mut reply = WireBuf::new();
    assert!(tld.handle_into(&www, &mut reply));
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..64 {
        assert!(tld.handle_into(&www, &mut reply));
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "a warm authoritative referral must not touch the heap"
    );
    assert_eq!(tld.referrals(), 65);

    // Boot forge: after warm-up, forking the booted daemon at a fresh
    // seed (dirty-page restore + reslide to that seed's layout) and at
    // the base seed (the fuzz path's pure restore) touches no heap, on
    // every ISA under W⊕X+ASLR. An overflow is delivered between forks
    // (outside the counted window) so every restore rewinds dirty pages,
    // a crashed daemon state and a filled decode cache.
    use connman_lab::connman::Resolution;
    use connman_lab::dns::forge::ResponseForge;

    for arch in Arch::ALL {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        let mut forge = fw.forge(Protections::full(), 7);
        let name = Name::parse("update.example").expect("valid");
        let Resolution::Query(qbytes) = forge.fork(7).resolve(&name, RecordType::A) else {
            panic!("cold cache");
        };
        let attack = ResponseForge::answering(&Message::decode(&qbytes).expect("decodes"))
            .with_chunked_payload(&[0x41; 1300])
            .expect("payload fits")
            .build()
            .expect("builds");
        // Returns the allocations the session's resolve made.
        let session = |daemon: &mut connman_lab::connman::Daemon| {
            let before = ALLOCS.load(Ordering::Relaxed);
            let resolution = daemon.resolve(&name, RecordType::A);
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert!(matches!(resolution, Resolution::Query(_)));
            assert!(!daemon.deliver_response(&attack).daemon_alive());
            allocs
        };
        for seed in 0..8u64 {
            session(forge.fork(1_000 + seed));
            session(forge.fork(7));
        }

        for (label, fresh_seeds) in [("fresh", true), ("base", false)] {
            let mut allocs = 0;
            for seed in 0..64u64 {
                let seed = if fresh_seeds { 0xF0_0000 + seed } else { 7 };
                let before = ALLOCS.load(Ordering::Relaxed);
                let daemon = forge.fork(seed);
                allocs += ALLOCS.load(Ordering::Relaxed) - before;
                assert!(daemon.is_running());
                let resolve_allocs = session(daemon);
                // The query's name, question list and wire bytes; the
                // pending list reuses its capacity across forks.
                assert!(
                    resolve_allocs <= 3,
                    "{arch}: a warm resolve made {resolve_allocs} allocations"
                );
            }
            assert_eq!(
                allocs, 0,
                "{arch}: 64 warm forks at {label} seeds must not touch the heap"
            );
        }

        // Deliver of the banked ROP response: the W⊕X+ASLR chain runs
        // only non-PIE code, so its decodes and lowered blocks survive a
        // reslide and a fresh-seed fork's delivery allocates no more than
        // a base-seed fork's. Neither clones the pending query.
        let target = Lab::new(FirmwareKind::OpenElec, arch)
            .with_protections(Protections::full())
            .recon()
            .expect("replica recon");
        let payload = matched_strategy(arch, &Protections::full())
            .build(&target)
            .expect("payload builds");
        let mut rop_server = MaliciousDnsServer::with_labels(
            payload.to_labels().expect("labelizes"),
            payload.name(),
        );
        let bank = AnswerBank::capture(&mut rop_server, &qbytes).expect("the query is answered");
        // Returns the allocations one delivery made.
        let deliver = |daemon: &mut connman_lab::connman::Daemon| {
            assert!(matches!(
                daemon.resolve(&name, RecordType::A),
                Resolution::Query(q) if q == qbytes
            ));
            let before = ALLOCS.load(Ordering::Relaxed);
            let outcome = daemon.deliver_response(bank.response());
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            assert!(outcome.is_root_shell(), "{arch}: {outcome:?}");
            allocs
        };
        for seed in 0..4u64 {
            deliver(forge.fork(2_000 + seed));
            deliver(forge.fork(7));
        }
        let fresh: Vec<u64> = (0..16u64)
            .map(|seed| deliver(forge.fork(0xF1_0000 + seed)))
            .collect();
        let base: Vec<u64> = (0..16u64).map(|_| deliver(forge.fork(7))).collect();
        let (fresh_max, base_min) = (*fresh.iter().max().unwrap(), *base.iter().min().unwrap());
        assert!(
            fresh_max <= base_min,
            "{arch}: a fresh-seed delivery made {fresh_max} allocations, a base-seed one {base_min}"
        );
        // Today's counts, so any new allocation on the path fails here.
        let bound = match arch {
            Arch::X86 | Arch::Riscv => 6,
            Arch::Armv7 => 11,
        };
        assert!(
            base.iter().all(|&a| a <= bound),
            "{arch}: a warm delivery made {base:?} allocations, over {bound}"
        );
    }

    // Fuzz execs that never reach a crash: a response whose only record
    // lost its RDATA (parse failed) and one with a wrong transaction id
    // (the header gate rejects it), each run warm in fork mode with the
    // sanitizer and coverage armed. Today's counts: 3 allocations in the
    // canonical query's resolve; past the header gate, 1 in its decode of
    // the echoed question and 1 in arming the sanitizer's redzone. The
    // parse failure's reason is a `Copy` value, not a `String`, and the
    // coverage fold and reset allocate nothing.
    use connman_lab::fuzz::{CoverageAccum, Harness};
    for arch in Arch::ALL {
        let mut harness = Harness::new(FirmwareKind::OpenElec, arch, 0xF022, true, false);
        let benign = harness.seed_inputs().swap_remove(0);
        let parse_failed = benign[..benign.len() - 2].to_vec();
        let mut rejected = benign.clone();
        rejected[0] ^= 0xFF;
        let mut accum = CoverageAccum::new();
        for (input, tag, bound) in [
            (&parse_failed, "parse-failed", 5),
            (&rejected, "rejected", 3),
        ] {
            for _ in 0..4 {
                assert_eq!(harness.exec(input, &mut accum).tag, tag, "{arch}");
            }
            let per_exec: Vec<u64> = (0..64)
                .map(|_| {
                    let before = ALLOCS.load(Ordering::Relaxed);
                    harness.exec(input, &mut accum);
                    ALLOCS.load(Ordering::Relaxed) - before
                })
                .collect();
            assert!(
                per_exec.iter().all(|&a| a <= bound),
                "{arch}: a warm {tag} exec made {per_exec:?} allocations, over {bound}"
            );
        }
    }
}
