//! Counting-allocator proof of the pooled zero-copy claim: after
//! warm-up, a steady-state fleet iteration's template + packet path —
//! relocate the payload template, re-emit its labels, answer the
//! canonical proxy query into a pooled buffer — performs **zero** heap
//! allocations. So does a warm full-entropy `BootForge::fork`, at a
//! fresh seed (restore + reslide) and at the base seed (pure restore).
//!
//! This file installs a `#[global_allocator]` and therefore holds
//! exactly one test: a sibling test thread would pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use connman_lab::dns::{BufPool, Message, Name, Question, RecordType};
use connman_lab::exploit::{MaliciousDnsServer, PayloadTemplate, RopMemcpyChain, Slides};
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
        let session = |daemon: &mut connman_lab::connman::Daemon| {
            let _ = daemon.resolve(&name, RecordType::A);
            assert!(!daemon.deliver_response(&attack).daemon_alive());
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
                session(daemon);
            }
            assert_eq!(
                allocs, 0,
                "{arch}: 64 warm forks at {label} seeds must not touch the heap"
            );
        }
    }
}
