//! Counting-allocator proof of the pooled zero-copy claim: after
//! warm-up, a steady-state fleet iteration's template + packet path —
//! relocate the payload template, re-emit its labels, answer the
//! canonical proxy query into a pooled buffer — performs **zero** heap
//! allocations. So does a warm full-entropy `BootForge::fork`, at a
//! fresh seed (restore + reslide) and at the base seed (pure restore),
//! a warm `Message::encode_into` with name compression, a proxy cache
//! lookup, hit or miss, and a warm authoritative referral from
//! `ZoneServer::handle_into`. A warm recursive-resolver miss that
//! starts at cached zone cuts makes at most two.
//!
//! A whole warm attack session allocates nothing on every ISA: fork,
//! `Daemon::resolve` (the query is written into the pending list's
//! inline buffer and borrowed) and delivery of the banked ROP response
//! on each `full` cell, at fresh and at base seeds, and of the banked
//! NOP-sled-and-shellcode response on each `none` cell, whose lowered
//! blocks come back from the decode cache's victim table. The spawned
//! shell's program and argv are held inline, and ARM `push`/`pop` read
//! their register lists off the bits. So does a warm fuzz exec whose
//! input the header gate rejects, whose parse fails, or which crashes
//! the daemon under the sanitizer (the fault report is held inline and
//! the crash site compared without rendering its key), and a triage
//! reproduction of that crash.
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

    // Resolver miss: `www.vendor.example` after its answer has expired.
    // The telemetry miss above cached the `example` and `vendor.example`
    // cuts, so the first warm miss starts at `vendor.example`, follows
    // the CNAME from `example`, and still discovers `cdn.example` with a
    // glue chase (4 upstream round trips). Every later miss asks the
    // vendor server for the CNAME and the cached `cdn.example` server
    // for the answer (2). Once every server, pooled buffer, frame stack
    // and trace string is warm, such a miss allocates only the two frame
    // names it materializes: the client's question and the CNAME target.
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
    // Returns the miss's upstream queries and allocations.
    let mut warm_miss = || {
        resolver.advance_to(resolver.now() + 3600 * TICKS_PER_SEC);
        resolver.clear_trace();
        let upstream = resolver.stats().upstream_queries;
        let before = ALLOCS.load(Ordering::Relaxed);
        assert!(resolver.handle_query_into(&mut net, &www, &mut rbuf));
        let after = ALLOCS.load(Ordering::Relaxed);
        (resolver.stats().upstream_queries - upstream, after - before)
    };
    assert_eq!(warm_miss().0, 4, "the first miss discovers cdn.example");
    for _ in 0..2 {
        assert_eq!(warm_miss().0, 2, "a miss from warm cuts");
    }
    let (upstream, miss_allocs) = warm_miss();
    assert_eq!(upstream, 2, "a miss from warm cuts");
    assert!(
        miss_allocs <= 2,
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
    // every ISA under W⊕X+ASLR, and neither does the query's resolve.
    // An overflow is delivered between forks (outside the counted
    // window) so every restore rewinds dirty pages, a crashed daemon
    // state and a filled decode cache.
    use connman_lab::connman::Resolution;
    use connman_lab::dns::forge::ResponseForge;

    for arch in Arch::ALL {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        let mut forge = fw.forge(Protections::full(), 7);
        let name = Name::parse("update.example").expect("valid");
        let Resolution::Query(qbytes) = forge.fork(7).resolve(&name, RecordType::A) else {
            panic!("cold cache");
        };
        let qbytes = qbytes.to_vec();
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
            assert!(matches!(resolution, Resolution::Query(q) if *q == qbytes[..]));
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
                assert_eq!(
                    resolve_allocs, 0,
                    "{arch}: a warm resolve made {resolve_allocs} allocations"
                );
            }
            assert_eq!(
                allocs, 0,
                "{arch}: 64 warm forks at {label} seeds must not touch the heap"
            );
        }

        // A whole session on the banked ROP response: fork, resolve and
        // delivery. The W⊕X+ASLR chain runs only non-PIE code, so its
        // decodes and lowered blocks survive a reslide, and a fresh-seed
        // session allocates nothing, just as a base-seed one.
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
        // Returns the allocations of the fork, the resolve and the delivery.
        let mut rop_session = |seed: u64| {
            let t0 = ALLOCS.load(Ordering::Relaxed);
            let daemon = forge.fork(seed);
            let t1 = ALLOCS.load(Ordering::Relaxed);
            assert!(matches!(
                daemon.resolve(&name, RecordType::A),
                Resolution::Query(q) if *q == qbytes[..]
            ));
            let t2 = ALLOCS.load(Ordering::Relaxed);
            let outcome = daemon.deliver_response(bank.response());
            let t3 = ALLOCS.load(Ordering::Relaxed);
            assert!(outcome.is_root_shell(), "{arch}: {outcome:?}");
            [t1 - t0, t2 - t1, t3 - t2]
        };
        for seed in 0..4u64 {
            rop_session(2_000 + seed);
            rop_session(7);
        }
        for (label, seed) in [("fresh", 0xF1_0000), ("base", 7)] {
            for i in 0..16u64 {
                let ledger = rop_session(if seed == 7 { 7 } else { seed + i });
                assert_eq!(
                    ledger, [0; 3],
                    "{arch}: a warm {label}-seed ROP session made {ledger:?} allocations \
                     (fork, resolve, delivery)"
                );
            }
        }
    }

    // Warm session on each ISA's code-injection (`none`) cell: fork,
    // resolve and delivery of the banked NOP-sled-and-shellcode response.
    // The fork rewinds the stack page the shellcode ran from and the
    // payload writes the same bytes back to the same addresses, so the
    // shellcode's lowered blocks come back from the decode cache's victim
    // table instead of being decoded and lowered again.
    for arch in Arch::ALL {
        let prot = Protections::none();
        let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(prot);
        let payload = matched_strategy(arch, &prot)
            .build(&lab.recon().expect("replica recon"))
            .expect("payload builds");
        let mut server = MaliciousDnsServer::with_labels(
            payload.to_labels().expect("labelizes"),
            payload.name(),
        );
        let mut forge = lab.firmware().forge(prot, 7);
        let name = Name::parse("update.example").expect("valid");
        let Resolution::Query(qbytes) = forge.fork(7).resolve(&name, RecordType::A) else {
            panic!("cold cache");
        };
        let qbytes = qbytes.to_vec();
        let bank = AnswerBank::capture(&mut server, &qbytes).expect("the query is answered");
        // Returns the allocations of the fork, the resolve and the delivery.
        let mut session = |seed: u64| {
            let t0 = ALLOCS.load(Ordering::Relaxed);
            let daemon = forge.fork(seed);
            let t1 = ALLOCS.load(Ordering::Relaxed);
            assert!(matches!(
                daemon.resolve(&name, RecordType::A),
                Resolution::Query(q) if *q == qbytes[..]
            ));
            let t2 = ALLOCS.load(Ordering::Relaxed);
            let outcome = daemon.deliver_response(bank.response());
            let t3 = ALLOCS.load(Ordering::Relaxed);
            assert!(outcome.is_root_shell(), "{arch}: {outcome:?}");
            [t1 - t0, t2 - t1, t3 - t2]
        };
        for seed in 0..4u64 {
            session(3_000 + seed);
        }
        // x86's shellcode passes `execve` an argv, held inline with the
        // program like ARMv7's and RISC-V's bare path.
        for seed in 0..16u64 {
            let ledger = session(0xF2_0000 + seed);
            assert_eq!(
                ledger, [0; 3],
                "{arch}: a warm injection session made {ledger:?} allocations \
                 (fork, resolve, delivery)"
            );
        }
    }

    // Fuzz execs, each run warm in fork mode with the sanitizer and
    // coverage armed: a response whose only record lost its RDATA (parse
    // failed), one with a wrong transaction id (the header gate rejects
    // it) and the 1300-byte overflow (crashed). None allocates: the
    // query is written inline, the gate reads the echoed question in
    // place against its wire bytes, the sanitizer stores its redzone
    // inline, a parse failure's reason is a `Copy` value, the crash's
    // fault report is inline and its site is compared, not rendered.
    // Nor does a triage reproduction of the crash, the minimization
    // predicate `Harness::reproduces`.
    use connman_lab::fuzz::{CoverageAccum, Harness};
    for arch in Arch::ALL {
        let mut harness = Harness::new(FirmwareKind::OpenElec, arch, 0xF022, true, false);
        let benign = harness.seed_inputs().swap_remove(0);
        let parse_failed = benign[..benign.len() - 2].to_vec();
        let mut rejected = benign.clone();
        rejected[0] ^= 0xFF;
        // The seed answers the harness's canonical query, so it carries
        // that query's id.
        let query = Message::query(
            u16::from_be_bytes([benign[0], benign[1]]),
            Question::new(
                Name::parse("iot.example.com").expect("valid"),
                RecordType::A,
            ),
        );
        let crashed = ResponseForge::answering(&query)
            .with_chunked_payload(&[0x41; 1300])
            .expect("payload fits")
            .build()
            .expect("builds");
        let mut accum = CoverageAccum::new();
        for (input, tag) in [
            (&parse_failed, "parse-failed"),
            (&rejected, "rejected"),
            (&crashed, "crashed"),
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
                per_exec.iter().all(|&a| a == 0),
                "{arch}: a warm {tag} exec made {per_exec:?} allocations"
            );
        }

        let site = harness
            .exec(&crashed, &mut accum)
            .crash
            .expect("the overflow crashes")
            .site();
        assert!(site.to_string().starts_with("redzone-"), "{arch}: {site}");
        for _ in 0..4 {
            assert!(harness.reproduces(&crashed, site), "{arch}");
        }
        let per_repro: Vec<u64> = (0..64)
            .map(|_| {
                let before = ALLOCS.load(Ordering::Relaxed);
                assert!(harness.reproduces(&crashed, site));
                ALLOCS.load(Ordering::Relaxed) - before
            })
            .collect();
        assert!(
            per_repro.iter().all(|&a| a == 0),
            "{arch}: a warm triage reproduction made {per_repro:?} allocations"
        );
    }
}
