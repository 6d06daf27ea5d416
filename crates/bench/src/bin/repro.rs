//! Regenerates every table/figure of the reproduced paper.
//!
//! ```text
//! repro                 # run E1..E10, print markdown to stdout
//! repro --exp e2 e5     # run selected experiments
//! repro --out FILE      # also write the markdown to FILE
//! repro --json          # machine-readable output
//! repro --jobs 4        # fan matrix experiments across 4 workers
//! repro --bench-json    # also time each experiment + a 1,000-device
//!                       # fleet + the static analyzer + the snapshot /
//!                       # dispatch / template / pool / resolver-cache
//!                       # ablations + the decode misses of reslid forks
//!                       # + the gadget scan and queries, and write
//!                       # BENCH_<n>.json
//! repro --bench-smoke   # tiny-iteration run of the same record checked
//!                       # against the newest committed BENCH_*.json by
//!                       # the `GUARDS` table; exits 1 when a guard fails
//! repro --sanitize      # run the 9-cell exploit matrix under the VM
//!                       # shadow-memory sanitizer and print precise
//!                       # overflow diagnostics per cell
//! ```
//!
//! Unknown options, unknown experiment ids, a missing or malformed
//! option value, and `--bench-smoke` or `--sanitize` beside any other
//! argument exit 1 before anything runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cml_core::experiments;
use cml_core::fleet::{run_fleet, run_fleet_cfg, FleetConfig, FleetSpec, ENTROPY_FULL};
use cml_core::json::{self, n, obj, s, u, Value};
use cml_core::report::Suite;
use cml_core::{Arch, Firmware, FirmwareKind, Lab, Protections, ProxyOutcome};
use cml_dns::{BufPool, Message, Name, Question, RecordType};
use cml_exploit::target::deliver_labels;
use cml_exploit::template::apply_slides;
use cml_exploit::{
    matched_strategy, matrix, ExploitStrategy, GadgetSet, MaliciousDnsServer, PayloadTemplate,
    RopMemcpyChain, Slides, Transfer,
};
use cml_fuzz::FuzzConfig;
use cml_vm::{x86, Fault, Machine, X86Reg};

/// Counts allocation-acquiring calls so the ablations can report heap
/// traffic alongside wall time (frees are uninteresting here).
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

fn allocs_so_far() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

const FLEET_DEVICES: u64 = 1000;

/// Devices in the `fleet_scale` headline scenario (homogeneous cohort,
/// weak-boot-entropy class model — the million-device campaign).
const FLEET_SCALE_DEVICES: u64 = 1_000_000;

/// Devices in the `fleet_scale` full-entropy run: one session per
/// device, so per-session costs dominate.
const FLEET_FULL_ENTROPY_DEVICES: u64 = 100_000;

const USAGE: &str = "usage: repro [--exp e1 e2 …] [--out FILE] [--json] [--jobs N] \
                     [--bench-json|--timings] [--bench-smoke] [--sanitize]";

/// Reports a command-line mistake and exits 1.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\n{USAGE}");
    std::process::exit(1);
}

fn main() {
    let mut ids: Vec<(&'static str, experiments::Run)> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut json = false;
    let mut bench_json = false;
    let mut bench_smoke = false;
    let mut sanitize = false;
    let mut jobs = 1usize;
    let mut args = std::env::args().skip(1);
    // An option's value is the next argument, unless that is an option.
    let value =
        |args: &mut std::iter::Skip<std::env::Args>| args.next().filter(|v| !v.starts_with("--"));
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exp" => { /* ids follow */ }
            "--out" => match value(&mut args) {
                Some(path) => out_path = Some(path),
                None => usage_error("--out wants a file name"),
            },
            "--json" => json = true,
            "--bench-json" | "--timings" => bench_json = true,
            "--bench-smoke" => bench_smoke = true,
            "--sanitize" => sanitize = true,
            "--jobs" => match value(&mut args).and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => usage_error("--jobs wants a number"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => usage_error(&format!("unknown option {other:?}")),
            id => match experiments::ALL
                .iter()
                .find(|(name, _)| name.eq_ignore_ascii_case(id))
            {
                Some(&entry) => ids.push(entry),
                None => usage_error(&format!("unknown experiment id {id:?} (want e1..e10)")),
            },
        }
    }

    // The fixed-setting modes run alone: any other argument is refused
    // rather than ignored.
    if (bench_smoke || sanitize) && std::env::args().len() > 2 {
        usage_error("--bench-smoke and --sanitize each take no other arguments");
    }
    if bench_smoke {
        std::process::exit(smoke_vs_baseline());
    }
    if sanitize {
        std::process::exit(sanitize_matrix());
    }

    if ids.is_empty() {
        eprintln!("running all experiments (E1..E10) on {jobs} worker(s)…");
        ids = experiments::ALL.to_vec();
    }

    // Run experiment-by-experiment so --bench-json can attribute wall
    // time to each table; concatenating per-id runs reproduces
    // run_all() output exactly (both are ordered merges).
    let mut tables = Vec::new();
    let mut timings: Vec<(&'static str, f64)> = Vec::new();
    for (id, run) in ids {
        let t0 = Instant::now();
        let table = run(jobs);
        let secs = t0.elapsed().as_secs_f64();
        eprintln!("finished {id} in {secs:.2}s");
        timings.push((id, secs));
        tables.push(table);
    }
    let suite = Suite { tables };

    let body = if json {
        suite.to_json().to_string()
    } else {
        suite.to_markdown()
    };
    println!("{body}");
    if let Some(path) = out_path {
        match std::fs::write(&path, &body) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }

    if bench_json {
        let record = bench_record(jobs, &timings);
        let path = next_bench_path();
        match std::fs::write(&path, record.to_string() + "\n") {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Trials per ablation arm for the full `--bench-json` run.
const ABLATION_TRIALS: u64 = 48;

/// Trials per ablation arm for the `--bench-smoke` CI stage.
const SMOKE_TRIALS: u64 = 6;

/// Runs of the whole ablation section per record: each number in it is
/// the median of its runs (see [`median_of_runs`]), so one slow phase
/// of a shared machine does not move a guarded wall ratio.
const ABLATION_RUNS: usize = 5;

/// Measured sessions per ISA in the `fork_cache` and `stack_code`
/// ablations.
const WARM_SESSIONS: u64 = 16;

/// Inner repetitions per trial for the allocation-path ablations (one
/// template relocation or pooled query is far below timer resolution).
const PATH_REPS: u64 = 64;

/// Runs the ablations at `trials` iterations per arm. The snapshot and
/// dispatch workloads are one E8-style trial: boot (or fork) an
/// OpenELEC/x86 daemon under full protections and deliver one oversized
/// response. The template and pool workloads are one steady-state fleet
/// payload/packet step. Returns the record's `ablations` section, with
/// every ratio computed here, once.
fn run_ablations(trials: u64) -> Value<'static> {
    let fw = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
    let prot = Protections::full();
    let labels: Vec<Vec<u8>> = vec![0x41u8; 1300].chunks(63).map(<[u8]>::to_vec).collect();

    // Arm 1: a fresh boot per trial.
    let t0 = Instant::now();
    let mut fresh_insns = 0u64;
    for seed in 0..trials {
        let mut daemon = fw.boot(prot, 0x5EED_0000 + seed);
        deliver_labels(&mut daemon, labels.clone());
        fresh_insns += daemon.machine().insn_count();
    }
    let fresh_wall_secs = t0.elapsed().as_secs_f64();

    // Arm 2: boot once, fork (restore + reslide) per trial. insn_count
    // is monotonic across restore, so the delta is the true trial cost.
    let t0 = Instant::now();
    let mut forge = fw.forge(prot, 0x5EED_0000);
    let mut forked_insns = 0u64;
    for seed in 0..trials {
        let daemon = forge.fork(0x5EED_0000 + seed);
        let before = daemon.machine().insn_count();
        deliver_labels(daemon, labels.clone());
        forked_insns += daemon.machine().insn_count() - before;
    }
    let forked_wall_secs = t0.elapsed().as_secs_f64();

    // Dispatch ablation: a daemon_init-shaped hot loop (the dominant
    // straight-line/backward-branch mix the IR targets) under
    // threaded-code IR dispatch vs. the single-step reference. Trials
    // interleave the two arms and time only the `run()` call, so slow
    // machine phases hit both arms equally and setup cost stays out of
    // the ratio.
    let mut dispatch = [0.0f64; 2];
    let mut dispatch_insns = 0u64;
    for _ in 0..trials {
        let mut insns = 0u64;
        for (slot, ir_on) in [(0usize, true), (1, false)] {
            let mut m = dispatch_loop_machine();
            m.set_ir_dispatch_enabled(ir_on);
            let t0 = Instant::now();
            m.run(1_000_000);
            dispatch[slot] += t0.elapsed().as_secs_f64();
            insns = m.insn_count();
        }
        dispatch_insns = insns;
    }

    // Template ablation: per-device payload labels by rebuilding from
    // scratch against the slid target vs. relocating a compiled
    // template into warm buffers. Same slide sequence in both arms.
    let strategy = RopMemcpyChain::new(Arch::X86);
    let lab = Lab::new(FirmwareKind::OpenElec, Arch::X86).with_protections(prot);
    let reference = lab.recon().expect("replica recon");
    let template = PayloadTemplate::compile(&strategy, &reference).expect("template compiles");
    let slides_for = |i: u64| Slides {
        pie: ((i % 29) * 0x1000) as i64,
        libc: ((i % 23) * 0x1000) as i64,
        stack: ((i % 31) * 0x1000) as i64,
        canary: 0,
    };
    let reps = trials * PATH_REPS;

    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for i in 0..reps {
        let labels = strategy
            .build(&apply_slides(&reference, &slides_for(i)))
            .expect("rebuild against the slid target")
            .to_labels()
            .expect("rebuild labels");
        std::hint::black_box(&labels);
    }
    let rebuild_wall_secs = t0.elapsed().as_secs_f64();
    let rebuild_allocs = allocs_so_far() - a0;

    let mut image_buf = Vec::new();
    let mut label_buf = Vec::new();
    for i in 0..4 {
        // Warm-up sizes the buffers before the measured window.
        template
            .relocate_labels(&slides_for(i), &mut image_buf, &mut label_buf)
            .expect("static plan");
    }
    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for i in 0..reps {
        template
            .relocate_labels(&slides_for(i), &mut image_buf, &mut label_buf)
            .expect("static plan");
        std::hint::black_box(&label_buf);
    }
    let template_wall_secs = t0.elapsed().as_secs_f64();
    let template_allocs = allocs_so_far() - a0;

    // Pool ablation: answering the canonical proxy query into a fresh
    // Vec per query vs. into a warm pooled buffer.
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

    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for _ in 0..reps {
        let response = server.handle(&query).expect("query answered");
        std::hint::black_box(&response);
    }
    let alloc_wall_secs = t0.elapsed().as_secs_f64();
    let alloc_allocs = allocs_so_far() - a0;

    let mut pool = BufPool::new();
    for _ in 0..4 {
        let mut out = pool.checkout();
        assert!(server.handle_into(&query, &mut out), "query answered");
        pool.checkin(out);
    }
    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut out = pool.checkout();
        server.handle_into(&query, &mut out);
        std::hint::black_box(out.as_bytes());
        pool.checkin(out);
    }
    let pooled_wall_secs = t0.elapsed().as_secs_f64();
    let pooled_allocs = allocs_so_far() - a0;

    // Resolver-cache ablation. The fleet fast path is a warm cache hit
    // replayed into a pooled buffer: one full recursion fills the
    // cache, then every later query is a hashed lookup + copy. The
    // alloc arm serves the same hits into a fresh Vec per query; the
    // cache-off arm expires the answer before every query, so each one
    // pays a miss from the cached `vendor.example` zone cut.
    let resolver_queries = reps * 64;
    let (mut net, _) = cml_netsim::example_internet();
    let mut resolver = cml_netsim::RecursiveResolver::new(0x5EED, 64);
    let rq = Message::query(
        0x3111,
        Question::new(
            Name::parse("telemetry.vendor.example").expect("valid"),
            RecordType::A,
        ),
    )
    .encode()
    .expect("encodes");
    let mut rbuf = Vec::new();
    assert!(
        resolver.handle_query_into(&mut net, &rq, &mut rbuf),
        "the ablation name resolves"
    );
    resolver.clear_trace();
    for _ in 0..4 {
        // Warm-up sizes the output buffer before the measured window.
        resolver.handle_query_into(&mut net, &rq, &mut rbuf);
    }
    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for _ in 0..resolver_queries {
        resolver.handle_query_into(&mut net, &rq, &mut rbuf);
        std::hint::black_box(rbuf.as_slice());
    }
    let resolver_cached_wall_secs = t0.elapsed().as_secs_f64();
    let resolver_cached_allocs = allocs_so_far() - a0;

    let a0 = allocs_so_far();
    let t0 = Instant::now();
    for _ in 0..resolver_queries {
        let resp = resolver.handle_query(&mut net, &rq).expect("warm hit");
        std::hint::black_box(&resp);
    }
    let resolver_alloc_wall_secs = t0.elapsed().as_secs_f64();
    let resolver_alloc_allocs = allocs_so_far() - a0;

    // The record's TTL is 300s; stepping the event clock past it before
    // each query forces a miss. The zone cuts live a simulated day or
    // more, so a miss costs one authoritative exchange (and a referral
    // once a day) plus expiry churn: what every query would cost
    // without the answer cache, not the whole delegation walk.
    let resolver_uncached_queries = reps;
    let t0 = Instant::now();
    for _ in 0..resolver_uncached_queries {
        let due = resolver.now() + 301 * cml_netsim::TICKS_PER_SEC;
        resolver.advance_to(due);
        resolver.handle_query_into(&mut net, &rq, &mut rbuf);
        std::hint::black_box(rbuf.as_slice());
        resolver.clear_trace();
    }
    let resolver_uncached_wall_secs = t0.elapsed().as_secs_f64();

    // Decode-table ablation: walking each ISA's vulnerable `.text` end
    // to end with the declarative-table decoder vs. the retained
    // hand-rolled reference decoder. Interleaved per trial like the
    // dispatch ablation so machine-speed phases hit both arms equally.
    let decode_table = Arch::ALL.iter().map(|&arch| {
        use cml_image::SectionKind;
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        let text = fw
            .image()
            .section(SectionKind::Text)
            .expect("firmware has .text")
            .bytes()
            .to_vec();
        let mut walls = [0.0f64; 2];
        let mut insns = 0u64;
        for _ in 0..trials {
            for (slot, pass) in [
                (0usize, decode_pass(arch, &text, true)),
                (1, decode_pass(arch, &text, false)),
            ] {
                walls[slot] += pass.0;
                insns = pass.1;
            }
        }
        obj([
            ("isa", s(arch.to_string())),
            ("table_wall_secs", n(walls[0])),
            ("handrolled_wall_secs", n(walls[1])),
            ("insns_per_pass", u(insns)),
            ("decode_wall_ratio", n(ratio(walls[1], walls[0]))),
        ])
    });
    let decode_table = Value::Arr(decode_table.collect());

    // Fork-surviving decode cache: decode misses of warm W⊕X+ASLR
    // sessions, each forked at a fresh seed so the fork reslides. The
    // chain runs only non-PIE code, so after one warm-up session no
    // session may decode again.
    let fork_cache = Arch::ALL
        .iter()
        .map(|&arch| warm_session_misses(arch, Protections::full()));
    let fork_cache = Value::Arr(fork_cache.collect());
    // Second-chance IR blocks: the code-injection cells run shellcode
    // from the stack page each fork rewinds, and the payload writes the
    // same bytes back to the same addresses, so after one warm-up
    // session no session may decode again either.
    let stack_code = Arch::ALL
        .iter()
        .map(|&arch| warm_session_misses(arch, Protections::none()));
    let stack_code = Value::Arr(stack_code.collect());

    // Fuzzing ablations: the same fixed-seed campaign three ways —
    // coverage-on fork (the production configuration), coverage-off
    // (bitmap cost), reboot-per-exec (snapshot advantage inside the
    // fuzz loop, which also forfeits the warm dirty-page working set).
    // Each timed campaign includes its own firmware build and boot.
    let fuzz_execs = trials * 64;
    let base_cfg = FuzzConfig::new(FirmwareKind::OpenElec, Arch::X86, 0x5EED, fuzz_execs, 1);
    let t0 = Instant::now();
    let report = cml_fuzz::fuzz(&base_cfg);
    let fuzz_wall_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        report.total_execs(),
        fuzz_execs,
        "campaign spends its budget"
    );

    let mut reboot = base_cfg;
    reboot.reboot_per_exec = true;
    let t0 = Instant::now();
    cml_fuzz::fuzz(&reboot);
    let fuzz_reboot_wall_secs = t0.elapsed().as_secs_f64();

    // RISC-V fuzzing throughput: the same fixed-seed campaign on the
    // RV32IC target, boot included like the x86 arm.
    let riscv_fuzz_execs = trials * 64;
    let riscv_cfg = FuzzConfig::new(
        FirmwareKind::OpenElec,
        Arch::Riscv,
        0x5EED,
        riscv_fuzz_execs,
        1,
    );
    let t0 = Instant::now();
    let riscv_report = cml_fuzz::fuzz(&riscv_cfg);
    let riscv_fuzz_wall_secs = t0.elapsed().as_secs_f64();
    assert_eq!(
        riscv_report.total_execs(),
        riscv_fuzz_execs,
        "riscv campaign spends its budget"
    );

    // Coverage-hook arm: one fixed input set (the benign seeds plus
    // deterministic mutants of them), replayed with the map armed and
    // disarmed. Same parses, same forks — only the bitmap differs.
    let replay: Vec<Vec<u8>> = {
        let mut h = cml_fuzz::Harness::new(FirmwareKind::OpenElec, Arch::X86, 0x5EED, true, false);
        let seeds = h.seed_inputs();
        let mut m = cml_fuzz::Mutator::new(0x5EED);
        let mut out = Vec::new();
        let mut inputs = seeds.clone();
        for i in 0..61usize {
            m.mutate(&seeds[i % seeds.len()], None, &mut out);
            inputs.push(out.clone());
        }
        inputs
    };
    let cov_replay_execs = trials * replay.len() as u64;
    // Interleaved like the dispatch ablation: one on-trial then one
    // off-trial per round, so a machine-speed phase hits both arms
    // equally instead of skewing whichever arm ran through it.
    let mut cov_wall = [0.0f64; 2];
    let mut cov_harness = [
        cml_fuzz::Harness::new(FirmwareKind::OpenElec, Arch::X86, 0x5EED, true, false),
        cml_fuzz::Harness::new(FirmwareKind::OpenElec, Arch::X86, 0x5EED, false, false),
    ];
    let mut cov_acc = [
        cml_fuzz::CoverageAccum::new(),
        cml_fuzz::CoverageAccum::new(),
    ];
    for _ in 0..trials {
        for slot in 0..2 {
            let (h, acc) = (&mut cov_harness[slot], &mut cov_acc[slot]);
            let t0 = Instant::now();
            for input in &replay {
                std::hint::black_box(h.exec(input, acc));
            }
            cov_wall[slot] += t0.elapsed().as_secs_f64();
        }
    }

    // Per-query cost of turning the resolver cache off: full recursion
    // wall per query over warm hit wall per query.
    let uncached_per_query = resolver_uncached_wall_secs / resolver_uncached_queries.max(1) as f64;
    let cached_per_query = resolver_cached_wall_secs / resolver_queries.max(1) as f64;
    obj([
        (
            "snapshot_vs_reboot",
            obj([
                ("trials", u(trials)),
                ("fresh_insns_per_trial", u(fresh_insns / trials.max(1))),
                ("forked_insns_per_trial", u(forked_insns / trials.max(1))),
                (
                    "insn_ratio",
                    n(fresh_insns as f64 / forked_insns.max(1) as f64),
                ),
                ("fresh_wall_secs", n(fresh_wall_secs)),
                ("forked_wall_secs", n(forked_wall_secs)),
            ]),
        ),
        (
            "ir_vs_insn",
            obj([
                ("trials", u(trials)),
                ("insns_per_trial", u(dispatch_insns)),
                ("ir_wall_secs", n(dispatch[0])),
                ("insn_wall_secs", n(dispatch[1])),
                ("wall_ratio", n(ratio(dispatch[1], dispatch[0]))),
            ]),
        ),
        (
            "template_vs_rebuild",
            obj([
                ("builds", u(reps)),
                ("rebuild_wall_secs", n(rebuild_wall_secs)),
                ("template_wall_secs", n(template_wall_secs)),
                (
                    "wall_ratio",
                    n(ratio(rebuild_wall_secs, template_wall_secs)),
                ),
                ("rebuild_allocs_per_build", u(rebuild_allocs / reps.max(1))),
                (
                    "template_allocs_per_build",
                    u(template_allocs / reps.max(1)),
                ),
            ]),
        ),
        (
            "pooled_vs_alloc",
            obj([
                ("queries", u(reps)),
                ("alloc_wall_secs", n(alloc_wall_secs)),
                ("pooled_wall_secs", n(pooled_wall_secs)),
                ("wall_ratio", n(ratio(alloc_wall_secs, pooled_wall_secs))),
                ("alloc_allocs_per_query", u(alloc_allocs / reps.max(1))),
                ("pooled_allocs_per_query", u(pooled_allocs / reps.max(1))),
            ]),
        ),
        (
            "resolver",
            obj([
                ("queries", u(resolver_queries)),
                ("cached_wall_secs", n(resolver_cached_wall_secs)),
                (
                    "resolver_qps",
                    n(ratio(resolver_queries as f64, resolver_cached_wall_secs)),
                ),
                (
                    "cached_allocs_per_query",
                    u(resolver_cached_allocs / resolver_queries.max(1)),
                ),
                ("alloc_wall_secs", n(resolver_alloc_wall_secs)),
                (
                    "alloc_ratio",
                    n(ratio(resolver_alloc_wall_secs, resolver_cached_wall_secs)),
                ),
                (
                    "alloc_allocs_per_query",
                    u(resolver_alloc_allocs / resolver_queries.max(1)),
                ),
                ("uncached_queries", u(resolver_uncached_queries)),
                ("uncached_wall_secs", n(resolver_uncached_wall_secs)),
                (
                    "cache_off_ratio",
                    n(uncached_per_query / cached_per_query.max(1e-15)),
                ),
            ]),
        ),
        (
            "fuzz",
            obj([
                ("execs", u(fuzz_execs)),
                (
                    "fuzz_execs_per_sec",
                    n(ratio(fuzz_execs as f64, fuzz_wall_secs)),
                ),
                (
                    "coverage_hook_overhead",
                    obj([
                        ("replay_execs", u(cov_replay_execs)),
                        ("on_wall_secs", n(cov_wall[0])),
                        ("off_wall_secs", n(cov_wall[1])),
                        ("overhead_ratio", n(ratio(cov_wall[0], cov_wall[1]))),
                    ]),
                ),
                (
                    "fork_vs_reboot_fuzz",
                    obj([
                        ("fork_wall_secs", n(fuzz_wall_secs)),
                        ("reboot_wall_secs", n(fuzz_reboot_wall_secs)),
                        (
                            "wall_ratio",
                            n(ratio(fuzz_reboot_wall_secs, fuzz_wall_secs)),
                        ),
                    ]),
                ),
            ]),
        ),
        ("decode_table", decode_table),
        ("fork_cache", fork_cache),
        ("stack_code", stack_code),
        ("gadget", gadget_timings(trials)),
        (
            "riscv_fuzz",
            obj([
                ("execs", u(riscv_fuzz_execs)),
                ("wall_secs", n(riscv_fuzz_wall_secs)),
                (
                    "execs_per_sec",
                    n(ratio(riscv_fuzz_execs as f64, riscv_fuzz_wall_secs)),
                ),
            ]),
        ),
    ])
}

/// Decode misses per warm session of `arch`'s matched exploit under
/// `prot`: one warm-up delivery, then [`WARM_SESSIONS`] more, each
/// forked at a fresh seed. Rounded up, so one miss reads as 1.
fn warm_session_misses(arch: Arch, prot: Protections) -> Value<'static> {
    let lab = Lab::new(FirmwareKind::OpenElec, arch).with_protections(prot);
    let labels = matched_strategy(arch, &prot)
        .build(&lab.recon().expect("replica recon"))
        .expect("payload builds")
        .to_labels()
        .expect("labelizes");
    let mut forge = lab.firmware().forge(prot, 0xF04C);
    let mut misses = 0;
    for i in 0..=WARM_SESSIONS {
        let daemon = forge.fork(0xF04C + 1 + i);
        let before = daemon.machine().decode_cache_stats().1;
        let outcome = deliver_labels(daemon, labels.clone());
        assert!(outcome.is_some_and(|o| o.is_root_shell()), "{arch}");
        if i > 0 {
            misses += daemon.machine().decode_cache_stats().1 - before;
        }
    }
    obj([
        ("isa", s(arch.to_string())),
        ("sessions", u(WARM_SESSIONS)),
        ("misses_per_session", u(misses.div_ceil(WARM_SESSIONS))),
    ])
}

/// The paper's ropper/ROPgadget step: `GadgetSet::scan` wall time over
/// each ISA's vulnerable image (`trials` scans), then ns per call of the
/// one gadget query as the x86 and ARMv7 ROP chains make it (their
/// cleanup and register loader), and of an `Image::find_bytes(b"/")`
/// byte search.
fn gadget_timings(trials: u64) -> Value<'static> {
    use std::hint::black_box;
    let scan = Arch::ALL.iter().map(|&arch| {
        let fw = Firmware::build(FirmwareKind::OpenElec, arch);
        let mut gadgets = 0;
        let t0 = Instant::now();
        for _ in 0..trials {
            gadgets = black_box(GadgetSet::scan(fw.image())).len();
        }
        let scan_us = t0.elapsed().as_secs_f64() * 1e6 / trials.max(1) as f64;
        obj([
            ("isa", s(arch.to_string())),
            ("scan_us", n(scan_us)),
            ("gadgets", u(gadgets as u64)),
        ])
    });
    let x86 = Firmware::build(FirmwareKind::OpenElec, Arch::X86);
    let x86_set = GadgetSet::scan(x86.image());
    let arm_set = GadgetSet::scan(Firmware::build(FirmwareKind::OpenElec, Arch::Armv7).image());
    let queries = trials * PATH_REPS;
    let ns_per_query = |query: &dyn Fn() -> usize| {
        let t0 = Instant::now();
        for _ in 0..queries {
            black_box(query());
        }
        n(t0.elapsed().as_secs_f64() * 1e9 / queries.max(1) as f64)
    };
    let loader = |set: &GadgetSet, need: &[u8]| {
        set.find(black_box(need), |t| matches!(t, Transfer::Stack(_)))
            .map_or(0, |g| g.addr as usize)
    };
    let x86_cleanup = [X86Reg::Ebx, X86Reg::Esi, X86Reg::Edi, X86Reg::Ebp].map(|r| r as u8);
    let x86_pop = || loader(&x86_set, &x86_cleanup);
    let arm_pop = || loader(&arm_set, &[0, 1, 2, 3]);
    let slash = || x86.image().find_bytes(black_box(b"/")).len();
    obj([
        ("scan", Value::Arr(scan.collect())),
        ("queries", u(queries)),
        ("x86_pop_chain_ns", ns_per_query(&x86_pop)),
        ("arm_pop_including_ns", ns_per_query(&arm_pop)),
        ("find_slash_ns", ns_per_query(&slash)),
    ])
}

/// `a / b` for a wall time `b`, clamped to 1 ps so a zero reading
/// cannot divide by zero.
fn ratio(a: f64, b: f64) -> f64 {
    a / b.max(1e-12)
}

/// One timed decode pass over `bytes`: sequential decode from offset 0,
/// stepping past undecodable windows at the ISA's alignment granule.
/// Returns `(wall_secs, instructions_decoded)`.
fn decode_pass(arch: Arch, bytes: &[u8], table: bool) -> (f64, u64) {
    type Decoder<I, E> = fn(&[u8]) -> Result<(I, usize), E>;
    fn walk<I, E>(bytes: &[u8], min_step: usize, dec: Decoder<I, E>) -> (f64, u64) {
        let mut off = 0usize;
        let mut n = 0u64;
        let t0 = Instant::now();
        while off < bytes.len() {
            match dec(&bytes[off..]) {
                Ok((insn, len)) => {
                    std::hint::black_box(&insn);
                    off += len.max(min_step);
                    n += 1;
                }
                Err(_) => off += min_step,
            }
        }
        (t0.elapsed().as_secs_f64(), n)
    }
    match (arch, table) {
        (Arch::X86, true) => walk(bytes, 1, x86::decode),
        (Arch::X86, false) => walk(bytes, 1, x86::decode_reference),
        (Arch::Armv7, true) => walk(bytes, 4, cml_vm::arm::decode),
        (Arch::Armv7, false) => walk(bytes, 4, cml_vm::arm::decode_reference),
        (Arch::Riscv, true) => walk(bytes, 2, cml_vm::riscv::decode),
        (Arch::Riscv, false) => walk(bytes, 2, cml_vm::riscv::decode_reference),
    }
}

/// A machine running a daemon_init-shaped x86 hot loop (~300k executed
/// instructions): `mov ecx, 50000; loop: inc eax ×4; dec ecx; jnz loop`
/// then `exit(0)`.
fn dispatch_loop_machine() -> Machine {
    use cml_image::{Perms, SectionKind};
    let code = x86::Asm::new()
        .mov_r_imm(X86Reg::Ecx, 50_000)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .inc_r(X86Reg::Eax)
        .dec_r(X86Reg::Ecx)
        .jnz_rel8(-7)
        .xor_rr(X86Reg::Eax, X86Reg::Eax)
        .mov_r8_imm(X86Reg::Eax, 1)
        .int80()
        .finish();
    let mut m = Machine::new(cml_image::Arch::X86);
    m.mem_mut()
        .map(".text", Some(SectionKind::Text), 0x1000, 0x1000, Perms::RX);
    m.mem_mut()
        .map("stack", Some(SectionKind::Stack), 0x8000, 0x1000, Perms::RW);
    m.mem_mut().poke(0x1000, &code).expect("code fits");
    m.regs_mut().set_pc(0x1000);
    m.regs_mut().set_sp(0x8800);
    m
}

/// The full `BENCH_<n>.json` record: the wall time of each experiment
/// just run, a 1,000-device heterogeneous fleet, and the [`measure`]d
/// sections at full size.
fn bench_record(jobs: usize, timings: &[(&'static str, f64)]) -> Value<'static> {
    let spec = FleetSpec::heterogeneous(FLEET_DEVICES, 0xF1EE7);
    eprintln!("timing a {FLEET_DEVICES}-device fleet on {jobs} worker(s)…");
    let report = run_fleet(&spec, jobs);
    let fleet = obj([
        ("devices", u(report.devices)),
        ("jobs", u(report.jobs as u64)),
        ("wall_secs", n(report.elapsed.as_secs_f64())),
        ("devices_per_sec", n(report.devices_per_sec())),
        ("compromised", u(report.compromised() as u64)),
        ("survivors", u(report.survivors() as u64)),
    ]);
    eprintln!("fleet: {fleet}");
    let experiments = timings
        .iter()
        .map(|&(id, secs)| obj([("id", s(id)), ("wall_secs", n(secs))]));
    let mut record = vec![
        ("jobs", u(jobs as u64)),
        ("experiments", Value::Arr(experiments.collect())),
        ("fleet", fleet),
    ];
    record.extend(measure(ABLATION_TRIALS, Some(jobs)));
    obj(record)
}

/// Measures the sections `--bench-json` and `--bench-smoke` share, so
/// both records have one schema and every [`GUARDS`] path means the
/// same thing in each: `analysis` (per arch), `ablations` at `trials`
/// per arm, and `fleet_scale`. The latter always holds the 10k-device
/// serial rate the smoke gate replays; with `headline_jobs` it adds the
/// million-device headline and the full-entropy campaign on that many
/// workers.
fn measure(trials: u64, headline_jobs: Option<usize>) -> Vec<(&'static str, Value<'static>)> {
    let mut sections = Vec::new();
    eprintln!("timing the static analyzer on all three architectures…");
    sections.push(("analysis", analysis_timings()));
    eprintln!("running the ablations {ABLATION_RUNS} times at {trials} trial(s) per arm…");
    let runs: Vec<Value<'static>> = (0..ABLATION_RUNS).map(|_| run_ablations(trials)).collect();
    sections.push(("ablations", median_of_runs(&runs)));
    eprintln!("timing the fleet_scale campaigns…");
    sections.push(("fleet_scale", fleet_scale_timings(headline_jobs)));
    for (name, section) in &sections {
        eprintln!("{name}: {section}");
    }
    sections
}

/// Several runs of one section merged field by field. A number is the
/// median of its runs, under its own name; a `*_ratio` number also
/// records the spread as `*_ratio_min` and `*_ratio_max`. Integers
/// (work counts) and strings come from the first run.
fn median_of_runs(runs: &[Value<'static>]) -> Value<'static> {
    let sorted = |values: &[Value]| {
        let mut nums: Vec<f64> = values.iter().filter_map(Value::as_num).collect();
        nums.sort_by(f64::total_cmp);
        nums
    };
    match &runs[0] {
        Value::Obj(fields) => {
            let mut merged = Vec::new();
            for (key, first) in fields {
                let column: Vec<Value<'static>> =
                    runs.iter().filter_map(|r| r.get(key)).cloned().collect();
                if matches!(first, Value::Num(_)) && key.ends_with("_ratio") {
                    let nums = sorted(&column);
                    merged.push((key.clone(), n(nums[nums.len() / 2])));
                    merged.push((format!("{key}_min").into(), n(nums[0])));
                    merged.push((format!("{key}_max").into(), n(nums[nums.len() - 1])));
                } else {
                    merged.push((key.clone(), median_of_runs(&column)));
                }
            }
            Value::Obj(merged)
        }
        Value::Arr(items) => Value::Arr(
            (0..items.len())
                .map(|i| {
                    let column: Vec<Value<'static>> = runs
                        .iter()
                        .filter_map(|r| r.as_arr()?.get(i).cloned())
                        .collect();
                    median_of_runs(&column)
                })
                .collect(),
        ),
        Value::Num(_) => {
            let nums = sorted(runs);
            n(nums[nums.len() / 2])
        }
        first => first.clone(),
    }
}

/// The `fleet_scale` section. The 10k-device serial run is recorded on
/// its own because fixed setup (one session per address class)
/// dominates at 10k, so the headline rate does not transfer across
/// scales. The headline is the weak-boot-entropy class model (shared
/// CoW boots, batched answers, streamed report); the full-entropy run
/// pays one real session per device.
fn fleet_scale_timings(headline_jobs: Option<usize>) -> Value<'static> {
    let smoke = run_fleet_cfg(
        &FleetSpec::homogeneous(10_000, 0xF1EE7),
        &FleetConfig::new(1),
    );
    let mut fields = vec![("smoke_devices_per_sec", n(smoke.devices_per_sec()))];
    if let Some(jobs) = headline_jobs {
        let spec = FleetSpec::homogeneous(FLEET_SCALE_DEVICES, 0xF1EE7);
        let headline = run_fleet_cfg(&spec, &FleetConfig::new(jobs));
        let mut full_spec = FleetSpec::homogeneous(FLEET_FULL_ENTROPY_DEVICES, 0xF1EE7);
        full_spec.cohorts[0].entropy_bits = ENTROPY_FULL;
        let full_wall = run_fleet_cfg(&full_spec, &FleetConfig::new(jobs))
            .elapsed
            .as_secs_f64();
        fields.extend([
            ("devices", u(headline.devices)),
            ("jobs", u(headline.jobs as u64)),
            ("wall_secs", n(headline.elapsed.as_secs_f64())),
            ("devices_per_sec", n(headline.devices_per_sec())),
            ("sessions", u(headline.sessions)),
            ("compromised", u(headline.compromised() as u64)),
            ("full_entropy_devices", u(FLEET_FULL_ENTROPY_DEVICES)),
            ("full_entropy_wall_secs", n(full_wall)),
            (
                "full_entropy_sessions_per_sec",
                n(FLEET_FULL_ENTROPY_DEVICES as f64 / full_wall.max(1e-9)),
            ),
        ]);
    }
    obj(fields)
}

/// How a guard holds the current value against its baseline.
#[derive(Debug, Clone, Copy)]
enum Bound {
    /// An advantage: fail below `baseline / factor`.
    Floor(f64),
    /// A cost: fail above `max(baseline, min_baseline) * factor`.
    Ceiling { factor: f64, min_baseline: f64 },
    /// An invariant: fail unless the current value is exactly this. No
    /// baseline is needed.
    Equals(f64),
}

impl Bound {
    /// The limit the current value is held to, or `None` when the
    /// baseline is missing or not positive (the guard then skips).
    fn limit(self, baseline: Option<f64>) -> Option<f64> {
        match self {
            Bound::Floor(factor) => baseline.filter(|b| *b > 0.0).map(|b| b / factor),
            Bound::Ceiling {
                factor,
                min_baseline,
            } => baseline
                .map(|b| b.max(min_baseline))
                .filter(|b| *b > 0.0)
                .map(|b| b * factor),
            Bound::Equals(want) => Some(want),
        }
    }

    fn holds(self, now: f64, limit: f64) -> bool {
        match self {
            Bound::Floor(_) => now >= limit,
            Bound::Ceiling { .. } => now <= limit,
            Bound::Equals(_) => now == limit,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Bound::Floor(_) => "floor",
            Bound::Ceiling { .. } => "ceiling",
            Bound::Equals(_) => "want",
        }
    }
}

/// Wall time across machines is noisy, so throughput and VSA guards
/// fail only on an order-of-magnitude change.
const COLLAPSE: f64 = 20.0;

const VSA_CEILING: Bound = Bound::Ceiling {
    factor: COLLAPSE,
    min_baseline: 0.0,
};

/// The `--bench-smoke` gate: each row reads one number at the same path
/// in the current record and in the newest `BENCH_<n>.json` (see
/// [`lookup`] for the path syntax). Ablation ratios are medians of
/// [`ABLATION_RUNS`] runs in both records. Decode is a cold path and its
/// sub-millisecond smoke passes are noisy, so its 4x bound only catches
/// table blow-up (a rule scan gone quadratic), not jitter.
const GUARDS: &[(&str, Bound)] = &[
    ("ablations.snapshot_vs_reboot.insn_ratio", Bound::Floor(2.0)),
    (
        "ablations.template_vs_rebuild.wall_ratio",
        Bound::Floor(2.0),
    ),
    ("ablations.ir_vs_insn.wall_ratio", Bound::Floor(2.0)),
    (
        "ablations.fuzz.fork_vs_reboot_fuzz.wall_ratio",
        Bound::Floor(2.0),
    ),
    (
        "ablations.fuzz.coverage_hook_overhead.overhead_ratio",
        Bound::Ceiling {
            factor: 2.0,
            min_baseline: 1.0,
        },
    ),
    (
        "ablations.decode_table[isa=x86].decode_wall_ratio",
        Bound::Floor(4.0),
    ),
    (
        "ablations.decode_table[isa=ARMv7].decode_wall_ratio",
        Bound::Floor(4.0),
    ),
    (
        "ablations.decode_table[isa=RISC-V].decode_wall_ratio",
        Bound::Floor(4.0),
    ),
    (
        "ablations.fork_cache[isa=x86].misses_per_session",
        Bound::Equals(0.0),
    ),
    (
        "ablations.fork_cache[isa=ARMv7].misses_per_session",
        Bound::Equals(0.0),
    ),
    (
        "ablations.fork_cache[isa=RISC-V].misses_per_session",
        Bound::Equals(0.0),
    ),
    (
        "ablations.stack_code[isa=x86].misses_per_session",
        Bound::Equals(0.0),
    ),
    (
        "ablations.stack_code[isa=ARMv7].misses_per_session",
        Bound::Equals(0.0),
    ),
    (
        "ablations.stack_code[isa=RISC-V].misses_per_session",
        Bound::Equals(0.0),
    ),
    ("ablations.resolver.resolver_qps", Bound::Floor(COLLAPSE)),
    (
        "ablations.resolver.cached_allocs_per_query",
        Bound::Equals(0.0),
    ),
    ("ablations.riscv_fuzz.execs_per_sec", Bound::Floor(COLLAPSE)),
    ("fleet_scale.smoke_devices_per_sec", Bound::Floor(COLLAPSE)),
    ("analysis[arch=x86].vsa_wall_secs", VSA_CEILING),
    ("analysis[arch=ARMv7].vsa_wall_secs", VSA_CEILING),
    ("analysis[arch=RISC-V].vsa_wall_secs", VSA_CEILING),
];

/// Baselines recorded before a metric was renamed: the product of the
/// listed paths stands in for it. Before the two-tier VM, the IR-over-
/// block and block-over-insn ratios timed the same loop as `ir_vs_insn`.
const FALLBACKS: &[(&str, &[&str])] = &[(
    "ablations.ir_vs_insn.wall_ratio",
    &[
        "ablations.ir_vs_block.wall_ratio",
        "ablations.block_vs_insn.wall_ratio",
    ],
)];

/// Reads the number at `path`: dot-separated object keys, where a step
/// `name[key=value]` enters array `name` and picks the element whose
/// string field `key` is `value`.
fn lookup(doc: &Value, path: &str) -> Option<f64> {
    path.split('.')
        .try_fold(doc, |v, step| match step.split_once('[') {
            None => v.get(step),
            Some((name, select)) => {
                let (key, want) = select.strip_suffix(']')?.split_once('=')?;
                v.get(name)?
                    .as_arr()?
                    .iter()
                    .find(|e| e.get(key).and_then(Value::as_str) == Some(want))
            }
        })?
        .as_num()
}

/// [`lookup`] for a baseline, falling back through [`FALLBACKS`].
fn baseline_value(doc: &Value, path: &str) -> Option<f64> {
    lookup(doc, path).or_else(|| {
        let (_, parts) = FALLBACKS.iter().find(|(p, _)| *p == path)?;
        parts.iter().map(|p| lookup(doc, p)).product()
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    Skip,
}

/// Evaluates one [`GUARDS`] row against the baseline record (and the
/// file it came from), if there is one, and describes the comparison.
fn judge(
    (path, bound): (&str, Bound),
    current: &Value,
    baseline: Option<(&str, &Value)>,
) -> (Verdict, String) {
    let Some(now) = lookup(current, path) else {
        return (
            Verdict::Fail,
            format!("{path}: FAIL — missing from the current record"),
        );
    };
    let base = baseline.and_then(|(_, doc)| baseline_value(doc, path));
    let Some(limit) = bound.limit(base) else {
        let why = match (baseline, base) {
            (None, _) => "no committed baseline".to_string(),
            (Some((origin, _)), None) => format!("{origin} predates it"),
            (Some((origin, _)), Some(b)) => format!("{origin} records {b}"),
        };
        return (
            Verdict::Skip,
            format!("{path} {}: {why} — skipping", num(now)),
        );
    };
    let (verdict, mark) = if bound.holds(now, limit) {
        (Verdict::Pass, "ok")
    } else {
        (Verdict::Fail, "FAIL")
    };
    let vs = match (baseline, base) {
        (Some((origin, _)), Some(b)) => format!(" vs {} in {origin}", num(b)),
        _ => String::new(),
    };
    let line = format!(
        "{path} {}{vs}, {} {}: {mark}",
        num(now),
        bound.name(),
        num(limit)
    );
    (verdict, line)
}

/// Two decimals, or three significant digits for small magnitudes.
fn num(x: f64) -> String {
    if x != 0.0 && x.abs() < 0.01 {
        format!("{x:.2e}")
    } else {
        format!("{x:.2}")
    }
}

/// `--bench-smoke`: measures a tiny-iteration record and checks it
/// against the newest committed `BENCH_<n>.json` through [`GUARDS`].
/// Returns the exit code: 1 when a guard fails or the newest baseline
/// does not parse, else 0. Without any baseline file every guard but
/// the baseline-free ones skips with a note.
fn smoke_vs_baseline() -> i32 {
    let baseline = match newest_baseline() {
        Ok(found) => found,
        Err(e) => {
            eprintln!("bench-smoke: FAIL — {e}");
            return 1;
        }
    };
    let baseline = baseline
        .as_ref()
        .map(|(origin, doc)| (origin.as_str(), doc));
    // The current record goes through text like a committed one does.
    let current = json::parse(&obj(measure(SMOKE_TRIALS, None)).to_string())
        .expect("the record builder emits valid JSON");
    let mut failed = false;
    for &guard in GUARDS {
        let (verdict, line) = judge(guard, &current, baseline);
        println!("bench-smoke: {line}");
        failed |= verdict == Verdict::Fail;
    }
    if failed {
        return 1;
    }
    println!("bench-smoke: OK");
    0
}

/// The highest `n` among the `BENCH_<n>.json` files in the working dir.
fn newest_bench_index() -> Option<u64> {
    std::fs::read_dir(".")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            entry
                .file_name()
                .to_string_lossy()
                .strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse::<u64>()
                .ok()
        })
        .max()
}

/// The newest `BENCH_<n>.json`, parsed, or `None` when there is none.
/// A newest file that cannot be read or parsed is an error rather than
/// a silent skip of every guard.
fn newest_baseline() -> Result<Option<(String, Value<'static>)>, String> {
    let Some(index) = newest_bench_index() else {
        return Ok(None);
    };
    let path = format!("BENCH_{index}.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(Some((path, doc)))
}

/// `BENCH_<n>.json` one past the highest index in the working dir
/// (never fills holes — the smoke guard baselines on the highest index,
/// so a hole-filling name would be invisible to it).
fn next_bench_path() -> String {
    format!("BENCH_{}.json", newest_bench_index().map_or(0, |i| i + 1))
}

/// Runs every cell of the exploit matrix (x86/ARM/RISC-V ×
/// none/W⊕X/W⊕X+ASLR, from the registry) with the VM shadow-memory
/// sanitizer armed on the victim and prints the
/// precise overflow diagnostics each cell produces. Returns the process
/// exit code: 0 when every cell is pinpointed, 1 otherwise.
fn sanitize_matrix() -> i32 {
    let mut all_pinpointed = true;
    let cells = matrix();
    let n = cells.len();
    println!("### shadow-memory sanitizer: {n}-cell exploit matrix\n");
    for (arch, prot, strategy) in cells {
        let lab = Lab::new(FirmwareKind::OpenElec, arch)
            .with_protections(prot)
            .with_sanitizer(true);
        let cell = format!("{arch}/{} ({})", prot.spelling(), strategy.name());
        match lab.run_exploit(strategy.as_ref()) {
            Ok(report) => match report.proxy_outcome {
                ProxyOutcome::Crashed(ref fr)
                    if matches!(fr.fault, Fault::RedzoneViolation { .. }) =>
                {
                    println!("{cell}: {}", fr.fault);
                }
                ref other => {
                    all_pinpointed = false;
                    println!("{cell}: NOT PINPOINTED — {other}");
                }
            },
            Err(e) => {
                all_pinpointed = false;
                println!("{cell}: attack could not be built: {e}");
            }
        }
    }
    println!();
    if all_pinpointed {
        println!("all {n} cells pinpointed by the sanitizer");
        0
    } else {
        println!("some cells escaped the sanitizer");
        1
    }
}
/// The record's `analysis` section: one full static-analysis pipeline
/// (CFG recovery + taint pass + frames + VSA + mitigation audit) per
/// architecture over the OpenElec image, plus the value-set pass alone
/// so the interprocedural layer's cost is visible separately.
fn analysis_timings() -> Value<'static> {
    let per_arch = Arch::ALL.iter().map(|&arch| {
        let firmware = Firmware::build(FirmwareKind::OpenElec, arch);
        let t0 = Instant::now();
        let report = cml_analyze::analyze(firmware.image());
        let full = t0.elapsed().as_secs_f64();

        let cfg = cml_analyze::cfg::recover(firmware.image());
        let sources = cml_analyze::taint::effective_sources(
            &cfg,
            &cml_analyze::taint::TaintConfig::default(),
        );
        let t1 = Instant::now();
        let value_sets = cml_analyze::vsa::vsa_pass(&cfg, firmware.image(), &sources);
        let vsa = t1.elapsed().as_secs_f64();
        assert!(
            value_sets
                .iter()
                .any(|v| v.tainted_writes().next().is_some()),
            "{arch}: VSA must see the tainted copy it is being timed on"
        );
        obj([
            ("arch", s(arch.to_string())),
            ("wall_secs", n(full)),
            ("vsa_wall_secs", n(vsa)),
            ("instructions", u(report.cfg.instructions as u64)),
        ])
    });
    Value::Arr(per_arch.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every committed bench record, oldest first.
    const COMMITTED: [(&str, &str); 8] = [
        ("BENCH_3.json", include_str!("../../../../BENCH_3.json")),
        ("BENCH_4.json", include_str!("../../../../BENCH_4.json")),
        ("BENCH_5.json", include_str!("../../../../BENCH_5.json")),
        ("BENCH_6.json", include_str!("../../../../BENCH_6.json")),
        ("BENCH_7.json", include_str!("../../../../BENCH_7.json")),
        ("BENCH_8.json", include_str!("../../../../BENCH_8.json")),
        ("BENCH_9.json", include_str!("../../../../BENCH_9.json")),
        ("BENCH_10.json", include_str!("../../../../BENCH_10.json")),
    ];

    fn bench_10() -> Value<'static> {
        json::parse(COMMITTED[7].1).expect("BENCH_10.json parses")
    }

    /// The value at `path` (the [`lookup`] syntax), for editing.
    fn at_mut<'v>(doc: &'v mut Value<'static>, path: &str) -> &'v mut Value<'static> {
        path.split('.').fold(doc, |v, step| {
            let (name, select) = step.split_once('[').unwrap_or((step, ""));
            let Value::Obj(fields) = v else {
                panic!("{path}: {name} is not in an object")
            };
            let (_, v) = fields.iter_mut().find(|(k, _)| k == name).expect(path);
            match select.strip_suffix(']').and_then(|s| s.split_once('=')) {
                None => v,
                Some((key, want)) => {
                    let Value::Arr(items) = v else {
                        panic!("{path}: {name} is not an array")
                    };
                    let pick = |e: &&mut Value| e.get(key).and_then(Value::as_str) == Some(want);
                    items.iter_mut().find(pick).expect(path)
                }
            }
        })
    }

    /// BENCH_10 read as a current record: every guarded metric sits at
    /// its baseline, with `ir_vs_insn` at the fallback product and the
    /// baseline-free `fork_cache` and `stack_code` rows at their wanted
    /// 0.
    fn current_at_bench_10() -> Value<'static> {
        let mut doc = bench_10();
        let Value::Obj(ablations) = at_mut(&mut doc, "ablations") else {
            panic!("ablations is an object")
        };
        ablations.push(("ir_vs_insn".into(), obj([("wall_ratio", n(4.88 * 3.15))])));
        for section in ["fork_cache", "stack_code"] {
            let rows = Arch::ALL
                .map(|arch| obj([("isa", s(arch.to_string())), ("misses_per_session", u(0))]));
            ablations.push((section.into(), Value::Arr(rows.to_vec())));
        }
        doc
    }

    fn verdicts(current: &Value) -> Vec<Verdict> {
        let baseline = bench_10();
        GUARDS
            .iter()
            .map(|&g| judge(g, current, Some(("BENCH_10.json", &baseline))).0)
            .collect()
    }

    #[test]
    fn committed_bench_records_parse() {
        for (name, text) in COMMITTED {
            let doc = json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(doc.get("experiments").is_some(), "{name}");
        }
    }

    #[test]
    fn every_guard_finds_a_bench_10_baseline() {
        let baseline = bench_10();
        for &(path, bound) in GUARDS {
            if !matches!(bound, Bound::Equals(_)) {
                let b = baseline_value(&baseline, path);
                assert!(b.is_some_and(|b| b > 0.0), "{path}: {b:?}");
            }
        }
        let ir = baseline_value(&baseline, "ablations.ir_vs_insn.wall_ratio").unwrap();
        assert!(
            (ir - 15.372).abs() < 1e-9,
            "IR-vs-insn through the fallback: {ir}"
        );
        assert!(verdicts(&current_at_bench_10())
            .iter()
            .all(|v| *v == Verdict::Pass));
    }

    #[test]
    fn one_metric_past_its_bound_fails_that_guard_only() {
        for (i, &(path, bound)) in GUARDS.iter().enumerate() {
            let mut current = current_at_bench_10();
            let slot = at_mut(&mut current, path);
            let now = slot.as_num().expect(path);
            *slot = n(match bound {
                Bound::Floor(factor) => now / factor * 0.9,
                Bound::Ceiling {
                    factor,
                    min_baseline,
                } => now.max(min_baseline) * factor * 1.1,
                Bound::Equals(want) => want + 1.0,
            });
            for (j, verdict) in verdicts(&current).into_iter().enumerate() {
                let want = if i == j { Verdict::Fail } else { Verdict::Pass };
                assert_eq!(verdict, want, "{path} pushed past its bound; guard {j}");
            }
        }
    }

    #[test]
    fn missing_baseline_skips_and_missing_current_fails() {
        let current = current_at_bench_10();
        let (verdict, line) = judge(GUARDS[0], &current, None);
        assert_eq!(verdict, Verdict::Skip, "{line}");
        let old = json::parse(COMMITTED[0].1).unwrap();
        let decode = GUARDS
            .iter()
            .find(|(p, _)| p.contains("decode_table"))
            .unwrap();
        let (verdict, line) = judge(*decode, &current, Some(("BENCH_3.json", &old)));
        assert_eq!(verdict, Verdict::Skip, "{line}");
        assert!(
            line.ends_with("BENCH_3.json predates it — skipping"),
            "{line}"
        );
        let allocs = GUARDS.iter().find(|(_, b)| matches!(b, Bound::Equals(_)));
        let (verdict, _) = judge(*allocs.unwrap(), &current, None);
        assert_eq!(verdict, Verdict::Pass, "baseline-free guards still run");
        let (verdict, _) = judge(
            GUARDS[0],
            &Value::Null,
            Some(("BENCH_10.json", &bench_10())),
        );
        assert_eq!(verdict, Verdict::Fail);
    }

    #[test]
    fn runs_merge_to_the_median_with_the_ratio_spread() {
        let run = |wall: f64, ratio: f64, count: u64| {
            obj([
                ("arm", s("x")),
                ("builds", u(count)),
                ("wall_secs", n(wall)),
                ("per_isa", Value::Arr(vec![obj([("wall_ratio", n(ratio))])])),
            ])
        };
        let runs = [
            run(3.0, 9.0, 7),
            run(1.0, 2.0, 7),
            run(5.0, 4.0, 8),
            run(2.0, 1.0, 8),
            run(4.0, 3.0, 8),
        ];
        let merged = median_of_runs(&runs).to_string();
        let want = obj([
            ("arm", s("x")),
            ("builds", u(7)),
            ("wall_secs", n(3.0)),
            (
                "per_isa",
                Value::Arr(vec![obj([
                    ("wall_ratio", n(3.0)),
                    ("wall_ratio_min", n(1.0)),
                    ("wall_ratio_max", n(9.0)),
                ])]),
            ),
        ]);
        assert_eq!(merged, want.to_string());
    }

    #[test]
    fn measured_record_parses_back_with_every_guard_path() {
        let doc = json::parse(&obj(measure(1, None)).to_string()).expect("record parses");
        for &(path, _) in GUARDS {
            assert!(
                lookup(&doc, path).is_some(),
                "{path} missing from the record"
            );
        }
    }
}
