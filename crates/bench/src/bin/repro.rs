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
//!                       # ablations and write BENCH_<n>.json
//! repro --bench-smoke   # tiny-iteration ablation run compared against
//!                       # the newest committed BENCH_*.json; exits 1 on
//!                       # a >2x regression, 0 (with a note) when no
//!                       # baseline exists
//! repro --no-snapshot   # boot every E8 trial from scratch instead of
//!                       # forking a per-entropy-level snapshot
//! repro --sanitize      # run the 9-cell exploit matrix under the VM
//!                       # shadow-memory sanitizer and print precise
//!                       # overflow diagnostics per cell
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cml_core::experiments;
use cml_core::fleet::{run_fleet_cfg, run_fleet_with, FleetConfig, FleetSpec, ENTROPY_FULL};
use cml_core::report::Suite;
use cml_core::{Arch, Firmware, FirmwareKind, Lab, Protections, ProxyOutcome};
use cml_dns::{BufPool, Message, Name, Question, RecordType};
use cml_exploit::target::deliver_labels;
use cml_exploit::template::apply_slides;
use cml_exploit::{
    ArmGadgetExeclp, CodeInjection, ExploitStrategy, MaliciousDnsServer, PayloadTemplate, Ret2Libc,
    RiscvGadgetSystem, RopMemcpyChain, Slides,
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

const ALL_IDS: [&str; 10] = ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];
const FLEET_DEVICES: u64 = 1000;

/// Devices in the `fleet_scale` headline scenario (homogeneous cohort,
/// weak-boot-entropy class model — the million-device campaign).
const FLEET_SCALE_DEVICES: u64 = 1_000_000;

/// Devices in the `fleet_scale` full-entropy run: one session per
/// device, so per-session costs dominate.
const FLEET_FULL_ENTROPY_DEVICES: u64 = 100_000;

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut out_path: Option<String> = None;
    let mut json = false;
    let mut bench_json = false;
    let mut bench_smoke = false;
    let mut sanitize = false;
    let mut snapshot = true;
    let mut jobs = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exp" => { /* ids follow */ }
            "--out" => out_path = args.next(),
            "--json" => json = true,
            "--bench-json" | "--timings" => bench_json = true,
            "--bench-smoke" => bench_smoke = true,
            "--sanitize" => sanitize = true,
            "--no-snapshot" => snapshot = false,
            "--jobs" => {
                jobs = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--jobs wants a number, using 1");
                    1
                });
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--exp e1 e2 …] [--out FILE] [--json] \
                     [--jobs N] [--bench-json|--timings] [--bench-smoke] \
                     [--no-snapshot] [--sanitize]"
                );
                return;
            }
            other => ids.push(other.to_string()),
        }
    }

    if bench_smoke {
        std::process::exit(smoke_vs_baseline());
    }
    if sanitize {
        std::process::exit(sanitize_matrix());
    }

    let run_ids: Vec<String> = if ids.is_empty() {
        ALL_IDS.iter().map(|s| s.to_string()).collect()
    } else {
        ids.clone()
    };
    if ids.is_empty() {
        eprintln!("running all experiments (E1..E10) on {jobs} worker(s)…");
    }

    // Run experiment-by-experiment so --bench-json can attribute wall
    // time to each table; concatenating per-id runs reproduces
    // run_all_jobs() output exactly (both are ordered merges).
    let mut tables = Vec::new();
    let mut timings: Vec<(String, f64)> = Vec::new();
    for id in &run_ids {
        let t0 = Instant::now();
        match experiments::run_one_jobs_with(id, jobs, snapshot) {
            Some(t) => {
                let secs = t0.elapsed().as_secs_f64();
                eprintln!("finished {id} in {:.2}s", secs);
                timings.push((id.clone(), secs));
                tables.push(t);
            }
            None => eprintln!("unknown experiment id {id:?} (want e1..e10)"),
        }
    }
    let suite = Suite { tables };

    let body = if json {
        to_json(&suite)
    } else {
        suite.to_markdown()
    };
    println!("{body}");
    if let Some(path) = out_path {
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }

    if bench_json {
        let spec = FleetSpec::heterogeneous(FLEET_DEVICES, 0xF1EE7);
        eprintln!("timing a {FLEET_DEVICES}-device fleet on {jobs} worker(s)…");
        let report = run_fleet_with(&spec, jobs, snapshot);
        eprintln!(
            "fleet: {} devices in {:.2}s ({:.1} devices/sec, {} compromised)",
            report.devices,
            report.elapsed.as_secs_f64(),
            report.devices_per_sec(),
            report.compromised()
        );
        eprintln!("timing the fleet_scale campaign ({FLEET_SCALE_DEVICES} devices)…");
        let scale = fleet_scale_timings(jobs);
        eprintln!("{}", scale.describe());
        eprintln!("timing the static analyzer on all three architectures…");
        let analysis = analysis_timings();
        for (arch, secs, vsa_secs, insns) in &analysis {
            eprintln!(
                "analyzer: {arch} CFG+taint+VSA+audit over {insns} instructions \
                 in {secs:.4}s (VSA alone {vsa_secs:.4}s)"
            );
        }
        eprintln!("running the snapshot/dispatch ablations…");
        let ablations = run_ablations(ABLATION_TRIALS);
        eprintln!("{}", ablations.describe());
        let path = next_bench_path();
        let doc = bench_json_doc(jobs, &timings, &report, &scale, &analysis, &ablations);
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(doc.as_bytes())) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
}

/// Trials per ablation arm for the full `--bench-json` run.
const ABLATION_TRIALS: u64 = 48;

/// Trials per ablation arm for the `--bench-smoke` CI stage.
const SMOKE_TRIALS: u64 = 6;

/// The harness-throughput ablation numbers recorded in `BENCH_<n>.json`.
struct Ablations {
    trials: u64,
    /// Mean executed instructions per E8-style trial, fresh boot each.
    fresh_insns: u64,
    /// Same, forking one snapshot (restore + reslide) per trial.
    forked_insns: u64,
    fresh_wall_secs: f64,
    forked_wall_secs: f64,
    /// Wall seconds for the same hot-loop run under threaded-code IR
    /// dispatch vs. the single-step reference (same insn counts — the
    /// tiers are semantically identical; only dispatch cost moves).
    ir_wall_secs: f64,
    insn_wall_secs: f64,
    /// Executed instructions per run in both dispatch arms.
    dispatch_insns: u64,
    /// Template-vs-rebuild: producing per-device payload labels by
    /// relocating a compiled template vs. rebuilding from scratch.
    /// Both arms run the same number of label builds (`pooled_queries`).
    rebuild_wall_secs: f64,
    template_wall_secs: f64,
    rebuild_allocs_per_build: u64,
    template_allocs_per_build: u64,
    /// Pooled-vs-alloc: answering the canonical proxy query into a warm
    /// pooled buffer vs. allocating a fresh response vector each time.
    pooled_queries: u64,
    alloc_wall_secs: f64,
    pooled_wall_secs: f64,
    alloc_allocs_per_query: u64,
    pooled_allocs_per_query: u64,
    /// Resolver cache: warm cache-hit replay through the recursive
    /// resolver into a pooled output buffer (the fleet fast path) vs.
    /// the same hits into a fresh `Vec` per query vs. cache-off (every
    /// query walks the full root → TLD → authoritative chain).
    resolver_queries: u64,
    resolver_cached_wall_secs: f64,
    resolver_alloc_wall_secs: f64,
    resolver_uncached_queries: u64,
    resolver_uncached_wall_secs: f64,
    resolver_cached_allocs_per_query: u64,
    resolver_alloc_allocs_per_query: u64,
    /// Fuzzing throughput: a fixed-seed coverage-guided campaign on the
    /// vulnerable x86 daemon, snapshot-fork per exec, edge map armed.
    fuzz_execs: u64,
    fuzz_wall_secs: f64,
    /// Same campaign with a full boot per exec instead of a fork (the
    /// two campaigns execute identical input sequences — same derived
    /// RNG streams — so only the restore-vs-boot cost moves).
    fuzz_reboot_wall_secs: f64,
    /// Coverage-hook cost, measured by replaying one fixed input set
    /// through the harness with the edge map armed vs disarmed —
    /// identical work in both arms, only the bitmap writes differ.
    cov_replay_execs: u64,
    cov_on_wall_secs: f64,
    cov_off_wall_secs: f64,
    /// Per-ISA decode ablation: walking the vulnerable image's `.text`
    /// end to end with the declarative-table decoder vs. the retained
    /// hand-rolled reference decoder. One entry per architecture:
    /// `(arch, table_wall_secs, handrolled_wall_secs, insns_per_pass)`.
    decode_table: Vec<(Arch, f64, f64, u64)>,
    /// RISC-V fuzzing throughput: the same fixed-seed campaign as
    /// `fuzz_execs`, on the RV32IC target.
    riscv_fuzz_execs: u64,
    riscv_fuzz_wall_secs: f64,
}

impl Ablations {
    fn insn_ratio(&self) -> f64 {
        self.fresh_insns as f64 / self.forked_insns.max(1) as f64
    }

    fn template_wall_ratio(&self) -> f64 {
        self.rebuild_wall_secs / self.template_wall_secs.max(1e-12)
    }

    fn pooled_wall_ratio(&self) -> f64 {
        self.alloc_wall_secs / self.pooled_wall_secs.max(1e-12)
    }

    fn fuzz_execs_per_sec(&self) -> f64 {
        self.fuzz_execs as f64 / self.fuzz_wall_secs.max(1e-12)
    }

    fn riscv_fuzz_execs_per_sec(&self) -> f64 {
        self.riscv_fuzz_execs as f64 / self.riscv_fuzz_wall_secs.max(1e-12)
    }

    /// Warm cache-hit throughput — the headline queries/sec figure.
    fn resolver_qps(&self) -> f64 {
        self.resolver_queries as f64 / self.resolver_cached_wall_secs.max(1e-12)
    }

    /// Per-query cost of turning the cache off: full recursion wall per
    /// query over warm hit wall per query.
    fn resolver_cache_off_ratio(&self) -> f64 {
        let uncached =
            self.resolver_uncached_wall_secs / self.resolver_uncached_queries.max(1) as f64;
        let cached = self.resolver_cached_wall_secs / self.resolver_queries.max(1) as f64;
        uncached / cached.max(1e-15)
    }

    /// Fresh-`Vec`-per-hit cost over the pooled warm-buffer path (same
    /// query count in both arms).
    fn resolver_alloc_ratio(&self) -> f64 {
        self.resolver_alloc_wall_secs / self.resolver_cached_wall_secs.max(1e-12)
    }

    /// Threaded-code IR advantage over single-step dispatch.
    fn ir_vs_insn_ratio(&self) -> f64 {
        self.insn_wall_secs / self.ir_wall_secs.max(1e-12)
    }

    /// Wall cost of the coverage bitmap: armed / disarmed (≥ 1.0 means
    /// the hook costs something; close to 1.0 is the goal).
    fn coverage_overhead_ratio(&self) -> f64 {
        self.cov_on_wall_secs / self.cov_off_wall_secs.max(1e-12)
    }

    /// Snapshot-fork advantage inside the fuzz loop: reboot / fork.
    fn fork_vs_reboot_fuzz_ratio(&self) -> f64 {
        self.fuzz_reboot_wall_secs / self.fuzz_wall_secs.max(1e-12)
    }

    fn describe(&self) -> String {
        let decode = self
            .decode_table
            .iter()
            .map(|(arch, table, hand, insns)| {
                format!(
                    "{arch} {:.4}s table vs {:.4}s hand-rolled over {} insns/pass ({:.2}x)",
                    table,
                    hand,
                    insns,
                    hand / table.max(1e-12)
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        format!(
            "snapshot_vs_reboot: {} vs {} insns/trial ({:.1}x fewer), \
             {:.3}s vs {:.3}s over {} trials\n\
             ir_vs_insn: {:.3}s vs {:.3}s for {} insns/trial ({:.1}x)\n\
             template_vs_rebuild: {:.4}s rebuild vs {:.4}s relocate \
             ({:.1}x cheaper wall; {} vs {} allocs/build)\n\
             pooled_vs_alloc: {:.4}s alloc vs {:.4}s pooled over {} queries \
             ({:.1}x cheaper wall; {} vs {} allocs/query)\n\
             resolver: {:.0} q/s warm cache over {} hits ({} allocs/query); \
             fresh-Vec hits {:.1}x slower ({} allocs/query); cache-off \
             {:.0}x slower per query ({} full recursions)\n\
             fuzz: {} execs in {:.3}s ({:.0} execs/sec); coverage hook \
             {:.2}x wall overhead; reboot-per-exec {:.1}x slower than fork\n\
             decode_table: {}\n\
             riscv_fuzz: {} execs in {:.3}s ({:.0} execs/sec)",
            self.fresh_insns,
            self.forked_insns,
            self.insn_ratio(),
            self.fresh_wall_secs,
            self.forked_wall_secs,
            self.trials,
            self.ir_wall_secs,
            self.insn_wall_secs,
            self.dispatch_insns,
            self.ir_vs_insn_ratio(),
            self.rebuild_wall_secs,
            self.template_wall_secs,
            self.template_wall_ratio(),
            self.rebuild_allocs_per_build,
            self.template_allocs_per_build,
            self.alloc_wall_secs,
            self.pooled_wall_secs,
            self.pooled_queries,
            self.pooled_wall_ratio(),
            self.alloc_allocs_per_query,
            self.pooled_allocs_per_query,
            self.resolver_qps(),
            self.resolver_queries,
            self.resolver_cached_allocs_per_query,
            self.resolver_alloc_ratio(),
            self.resolver_alloc_allocs_per_query,
            self.resolver_cache_off_ratio(),
            self.resolver_uncached_queries,
            self.fuzz_execs,
            self.fuzz_wall_secs,
            self.fuzz_execs_per_sec(),
            self.coverage_overhead_ratio(),
            self.fork_vs_reboot_fuzz_ratio(),
            decode,
            self.riscv_fuzz_execs,
            self.riscv_fuzz_wall_secs,
            self.riscv_fuzz_execs_per_sec()
        )
    }
}

/// Inner repetitions per trial for the allocation-path ablations (one
/// template relocation or pooled query is far below timer resolution).
const PATH_REPS: u64 = 64;

/// Runs the ablations at `trials` iterations per arm. The snapshot and
/// dispatch workloads are one E8-style trial: boot (or fork) an
/// OpenELEC/x86 daemon under full protections and deliver one oversized
/// response. The template and pool workloads are one steady-state fleet
/// payload/packet step.
fn run_ablations(trials: u64) -> Ablations {
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
    // cache-off arm expires the entry before every query so each one
    // walks the whole root → TLD → authoritative chain.
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
    // each query forces a miss, so this arm pays recursion + expiry
    // churn — what every query would cost without the cache.
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
    let decode_table: Vec<(Arch, f64, f64, u64)> = Arch::ALL
        .iter()
        .map(|&arch| {
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
            (arch, walls[0], walls[1], insns)
        })
        .collect();

    // Fuzzing ablations: the same fixed-seed campaign three ways —
    // coverage-on fork (the production configuration), coverage-off
    // (bitmap cost), reboot-per-exec (snapshot advantage inside the
    // fuzz loop, which also forfeits the warm dirty-page working set).
    let fuzz_execs = trials * 64;
    let base_cfg = FuzzConfig::new(FirmwareKind::OpenElec, Arch::X86, 0x5EED, fuzz_execs, 1);
    // Warm-up, like the template/pool windows above: the first campaign
    // on a thread builds and boots the firmware; a throwaway run leaves
    // the fork server cached so the measured wall is campaign
    // throughput, not boot cost.
    cml_fuzz::fuzz(&base_cfg);
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
    // RV32IC target, warmed the same way as the x86 arm.
    let riscv_fuzz_execs = trials * 64;
    let riscv_cfg = FuzzConfig::new(
        FirmwareKind::OpenElec,
        Arch::Riscv,
        0x5EED,
        riscv_fuzz_execs,
        1,
    );
    cml_fuzz::fuzz(&riscv_cfg);
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

    Ablations {
        trials,
        fresh_insns: fresh_insns / trials.max(1),
        forked_insns: forked_insns / trials.max(1),
        fresh_wall_secs,
        forked_wall_secs,
        ir_wall_secs: dispatch[0],
        insn_wall_secs: dispatch[1],
        dispatch_insns,
        rebuild_wall_secs,
        template_wall_secs,
        rebuild_allocs_per_build: rebuild_allocs / reps.max(1),
        template_allocs_per_build: template_allocs / reps.max(1),
        pooled_queries: reps,
        alloc_wall_secs,
        pooled_wall_secs,
        alloc_allocs_per_query: alloc_allocs / reps.max(1),
        pooled_allocs_per_query: pooled_allocs / reps.max(1),
        resolver_queries,
        resolver_cached_wall_secs,
        resolver_alloc_wall_secs,
        resolver_uncached_queries,
        resolver_uncached_wall_secs,
        resolver_cached_allocs_per_query: resolver_cached_allocs / resolver_queries.max(1),
        resolver_alloc_allocs_per_query: resolver_alloc_allocs / resolver_queries.max(1),
        fuzz_execs,
        fuzz_wall_secs,
        fuzz_reboot_wall_secs,
        cov_replay_execs,
        cov_on_wall_secs: cov_wall[0],
        cov_off_wall_secs: cov_wall[1],
        decode_table,
        riscv_fuzz_execs,
        riscv_fuzz_wall_secs,
    }
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

/// `--bench-smoke`: a tiny-iteration ablation run compared against the
/// newest committed `BENCH_<n>.json`. Fails (exit 1) when the snapshot
/// advantage collapsed by more than 2x in instruction terms, or when
/// the template-relocation wall advantage collapsed by more than 2x;
/// skips with a note (exit 0) when no baseline file exists yet. A
/// baseline predating a given record (e.g. one without
/// `template_vs_rebuild`) skips that comparison only.
fn smoke_vs_baseline() -> i32 {
    let current = run_ablations(SMOKE_TRIALS);
    println!("{}", current.describe());
    let Some((path, doc)) = newest_baseline_doc() else {
        println!("bench-smoke: no committed BENCH_*.json with ablations — skipping comparison");
        return 0;
    };
    let mut failed = false;

    let ratio = current.insn_ratio();
    match json_number_after(&doc, "\"snapshot_vs_reboot\"", "\"insn_ratio\":") {
        Some(baseline) => {
            println!(
                "bench-smoke: snapshot insn ratio {ratio:.1}x vs {baseline:.1}x baseline ({path})"
            );
            if ratio < baseline / 2.0 {
                println!("bench-smoke: FAIL — snapshot advantage regressed by more than 2x");
                failed = true;
            }
        }
        None => println!("bench-smoke: baseline {path} has no snapshot_vs_reboot — skipping"),
    }

    let ratio = current.template_wall_ratio();
    match json_number_after(&doc, "\"template_vs_rebuild\"", "\"wall_ratio\":") {
        Some(baseline) => {
            println!(
                "bench-smoke: template wall ratio {ratio:.1}x vs {baseline:.1}x baseline ({path})"
            );
            if ratio < baseline / 2.0 {
                println!("bench-smoke: FAIL — template advantage regressed by more than 2x");
                failed = true;
            }
        }
        None => println!("bench-smoke: baseline {path} has no template_vs_rebuild — skipping"),
    }

    let qps = current.resolver_qps();
    match json_number_after(&doc, "\"resolver\"", "\"resolver_qps\":") {
        Some(baseline) => {
            println!(
                "bench-smoke: resolver {qps:.0} q/s warm cache vs {baseline:.0} baseline ({path})"
            );
            // Queries/sec across machines is noisy; fail only on an
            // order-of-magnitude collapse of the warm-hit path.
            if baseline > 0.0 && qps < baseline / 20.0 {
                println!("bench-smoke: FAIL — resolver cache throughput collapsed more than 20x");
                failed = true;
            }
        }
        None => println!("bench-smoke: baseline {path} has no resolver_qps — skipping"),
    }
    if current.resolver_cached_allocs_per_query != 0 {
        println!(
            "bench-smoke: FAIL — warm resolver hits allocate ({} allocs/query; want 0)",
            current.resolver_cached_allocs_per_query
        );
        failed = true;
    }

    // IR over single-step: a baseline recorded before the two-tier VM
    // has no `ir_vs_insn`, but its IR-over-block and block-over-insn
    // ratios time the same loop, so their product is the same ratio.
    let ratio = current.ir_vs_insn_ratio();
    let baseline = json_number_after(&doc, "\"ir_vs_insn\"", "\"wall_ratio\":").or_else(|| {
        let ir_vs_block = json_number_after(&doc, "\"ir_vs_block\"", "\"wall_ratio\":")?;
        let block_vs_insn = json_number_after(&doc, "\"block_vs_insn\"", "\"wall_ratio\":")?;
        Some(ir_vs_block * block_vs_insn)
    });
    match baseline {
        Some(baseline) => {
            println!(
                "bench-smoke: IR-vs-insn wall ratio {ratio:.1}x vs {baseline:.1}x baseline ({path})"
            );
            if ratio < baseline / 2.0 {
                println!("bench-smoke: FAIL — IR dispatch advantage regressed by more than 2x");
                failed = true;
            }
        }
        None => println!("bench-smoke: baseline {path} has no ir_vs_insn — skipping"),
    }

    let ratio = current.fork_vs_reboot_fuzz_ratio();
    match json_number_after(&doc, "\"fork_vs_reboot_fuzz\"", "\"wall_ratio\":") {
        Some(baseline) => {
            println!(
                "bench-smoke: fuzz fork-vs-reboot ratio {ratio:.1}x vs {baseline:.1}x baseline ({path})"
            );
            if ratio < baseline / 2.0 {
                println!("bench-smoke: FAIL — fuzz snapshot advantage regressed by more than 2x");
                failed = true;
            }
        }
        None => println!("bench-smoke: baseline {path} has no fork_vs_reboot_fuzz — skipping"),
    }

    let overhead = current.coverage_overhead_ratio();
    match json_number_after(&doc, "\"coverage_hook_overhead\"", "\"overhead_ratio\":") {
        Some(baseline) => {
            println!(
                "bench-smoke: coverage hook overhead {overhead:.2}x vs {baseline:.2}x baseline ({path})"
            );
            // Overhead is a cost (≥ ~1.0): fail when it doubles over
            // the recorded baseline, with slack for timer noise.
            if overhead > baseline.max(1.0) * 2.0 {
                println!("bench-smoke: FAIL — coverage hook overhead more than doubled");
                failed = true;
            }
        }
        None => println!("bench-smoke: baseline {path} has no coverage_hook_overhead — skipping"),
    }

    // Decode-table: per ISA, the declarative tables must stay within 4x
    // of the recorded advantage over the hand-rolled reference decoders.
    // Decode is a cold path (the predecode cache decodes each pc once
    // per generation) and the sub-millisecond smoke passes are noisy on
    // a shared 1-CPU host, so the guard is deliberately loose — it
    // exists to catch accidental table blow-up (quadratic growth, a rule
    // scan gone linear-in-rules per byte), not scheduling jitter.
    // Baselines predating the `decode_table` record skip that ISA's
    // comparison only.
    for (arch, table, hand, _) in &current.decode_table {
        let ratio = hand / table.max(1e-12);
        match json_number_after(
            &doc,
            &format!("\"isa\":\"{arch}\""),
            "\"decode_wall_ratio\":",
        ) {
            Some(baseline) => {
                println!(
                    "bench-smoke: {arch} decode table-vs-hand-rolled ratio {ratio:.2}x \
                     vs {baseline:.2}x baseline ({path})"
                );
                if ratio < baseline / 4.0 {
                    println!(
                        "bench-smoke: FAIL — {arch} decode-table advantage regressed \
                         by more than 4x"
                    );
                    failed = true;
                }
            }
            None => {
                println!("bench-smoke: baseline {path} has no {arch} decode_table — skipping")
            }
        }
    }

    // RISC-V fuzz throughput: execs/sec across machines is noisy, so
    // only an order-of-magnitude collapse fails the guard. Baselines
    // predating the `riscv_fuzz` record skip the comparison.
    let rv = current.riscv_fuzz_execs_per_sec();
    match json_number_after(&doc, "\"riscv_fuzz\"", "\"execs_per_sec\":") {
        Some(baseline) => {
            println!(
                "bench-smoke: riscv fuzz {rv:.0} execs/sec vs {baseline:.0} baseline ({path})"
            );
            if baseline > 0.0 && rv < baseline / 20.0 {
                println!("bench-smoke: FAIL — riscv fuzz throughput collapsed more than 20x");
                failed = true;
            }
        }
        None => println!("bench-smoke: baseline {path} has no riscv_fuzz — skipping"),
    }

    // Value-set analysis: a correctness smoke (the interprocedural
    // layer must still flag the unbounded copy on both ISAs), plus a
    // wall-time guard against the recorded per-arch cost. Baselines
    // predating the `vsa_wall_secs` record skip the timing comparison.
    let analysis = analysis_timings();
    let vsa_now: f64 = analysis.iter().map(|(_, _, vsa, _)| vsa).sum();
    match json_number_after(&doc, "\"analysis\"", "\"vsa_wall_secs\":") {
        Some(baseline) => {
            println!(
                "bench-smoke: VSA wall {:.4}s vs {:.4}s first-arch baseline ({path})",
                vsa_now, baseline
            );
            // Timing across machines is noisy; only a blow-up an order
            // of magnitude past the recorded cost fails the guard.
            if baseline > 0.0 && vsa_now > baseline * 20.0 {
                println!("bench-smoke: FAIL — VSA wall time blew up more than 20x");
                failed = true;
            }
        }
        None => println!("bench-smoke: baseline {path} has no vsa_wall_secs — skipping"),
    }

    // Fleet scale: a 10k-device homogeneous campaign on the fast path
    // must not collapse against the 10k rate recorded alongside the
    // headline (same scale, so fixed per-class setup costs cancel).
    // Wall-clock throughput across machines is noisy, so only an
    // order-of-magnitude collapse fails the guard.
    let smoke_spec = FleetSpec::homogeneous(10_000, 0xF1EE7);
    let smoke_fleet = run_fleet_cfg(&smoke_spec, &FleetConfig::new(1));
    let rate = smoke_fleet.devices_per_sec();
    match json_number_after(&doc, "\"fleet_scale\"", "\"smoke_devices_per_sec\":") {
        Some(baseline) => {
            println!(
                "bench-smoke: fleet {rate:.0} devices/sec (10k smoke) vs {baseline:.0} \
                 baseline ({path})"
            );
            if baseline > 0.0 && rate < baseline / 20.0 {
                println!("bench-smoke: FAIL — fleet throughput collapsed more than 20x");
                failed = true;
            }
        }
        None => println!("bench-smoke: baseline {path} has no fleet smoke rate — skipping"),
    }

    if failed {
        return 1;
    }
    println!("bench-smoke: OK");
    0
}

/// Finds the highest-numbered `BENCH_<n>.json` in the working directory
/// that contains an ablation record and returns its contents.
fn newest_baseline_doc() -> Option<(String, String)> {
    let mut best: Option<(u64, String)> = None;
    for entry in std::fs::read_dir(".").ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|s| s.strip_suffix(".json"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            if best.as_ref().is_none_or(|(b, _)| n > *b) {
                best = Some((n, name));
            }
        }
    }
    let (_, path) = best?;
    let doc = std::fs::read_to_string(&path).ok()?;
    doc.contains("\"ablations\"").then_some(())?;
    Some((path, doc))
}

/// Extracts the first number following `key` after `section` in a JSON
/// document we generated ourselves (the approved dependency set has no
/// JSON parser; our own output is regular enough for a scan).
fn json_number_after(doc: &str, section: &str, key: &str) -> Option<f64> {
    let tail = &doc[doc.find(section)? + section.len()..];
    let tail = &tail[tail.find(key)? + key.len()..];
    let end = tail
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// Runs the nine-cell exploit matrix (x86/ARM/RISC-V × none/W⊕X/W⊕X+ASLR) with
/// the VM shadow-memory sanitizer armed on the victim and prints the
/// precise overflow diagnostics each cell produces. Returns the process
/// exit code: 0 when every cell is pinpointed, 1 otherwise.
fn sanitize_matrix() -> i32 {
    let cells: [(Protections, &str); 3] = [
        (Protections::none(), "none"),
        (Protections::wxorx(), "wxorx"),
        (Protections::full(), "full"),
    ];
    let mut all_pinpointed = true;
    println!("### shadow-memory sanitizer: 9-cell exploit matrix\n");
    for arch in Arch::ALL {
        for (prot, prot_name) in cells {
            let strategy: Box<dyn ExploitStrategy> = if prot.aslr.enabled {
                Box::new(RopMemcpyChain::new(arch))
            } else if prot.wxorx {
                match arch {
                    Arch::X86 => Box::new(Ret2Libc::new()),
                    Arch::Armv7 => Box::new(ArmGadgetExeclp::new()),
                    Arch::Riscv => Box::new(RiscvGadgetSystem::new()),
                }
            } else {
                Box::new(CodeInjection::new(arch))
            };
            let lab = Lab::new(FirmwareKind::OpenElec, arch)
                .with_protections(prot)
                .with_sanitizer(true);
            let cell = format!("{arch}/{prot_name} ({})", strategy.name());
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
    }
    println!();
    if all_pinpointed {
        println!("all 9 cells pinpointed by the sanitizer");
        0
    } else {
        println!("some cells escaped the sanitizer");
        1
    }
}

/// Times one full static-analysis pipeline (CFG recovery + taint pass +
/// frames + VSA + mitigation audit) per architecture over the OpenElec
/// image, plus the value-set pass alone so the interprocedural layer's
/// cost is visible separately.
fn analysis_timings() -> Vec<(Arch, f64, f64, usize)> {
    Arch::ALL
        .iter()
        .map(|&arch| {
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
            (arch, full, vsa, report.cfg.instructions)
        })
        .collect()
}

/// `BENCH_<n>.json` one past the highest index in the working dir
/// (never fills holes — the smoke guard baselines on the highest index,
/// so a hole-filling name would be invisible to it).
fn next_bench_path() -> String {
    let next = std::fs::read_dir(".")
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
        .map_or(0, |n| n + 1);
    format!("BENCH_{next}.json")
}

/// The `fleet_scale` numbers recorded in `BENCH_<n>.json`: the
/// million-device headline (weak-boot-entropy class model, shared CoW
/// boots, batched answers, streamed report) plus the same campaign at
/// full boot entropy, where every device pays a real session.
struct FleetScale {
    devices: u64,
    jobs: usize,
    wall_secs: f64,
    devices_per_sec: f64,
    sessions: u64,
    compromised: u64,
    full_entropy_devices: u64,
    /// A 10k-device serial run — the scale the `--bench-smoke` guard
    /// replays, recorded separately because fixed setup (one session
    /// per address class) dominates at 10k and the headline rate does
    /// not transfer across scales.
    smoke_devices_per_sec: f64,
    /// Fast path at full entropy, one session per device.
    full_entropy_wall_secs: f64,
}

impl FleetScale {
    fn describe(&self) -> String {
        format!(
            "fleet_scale: {} devices in {:.3}s ({:.0} devices/sec, {} sessions, \
             {} compromised)\n\
             fleet_scale full boot entropy: {} devices in {:.3}s ({:.0} sessions/sec)",
            self.devices,
            self.wall_secs,
            self.devices_per_sec,
            self.sessions,
            self.compromised,
            self.full_entropy_devices,
            self.full_entropy_wall_secs,
            self.full_entropy_devices as f64 / self.full_entropy_wall_secs.max(1e-9)
        )
    }
}

/// Times the headline campaign and its full-entropy counterpart.
fn fleet_scale_timings(jobs: usize) -> FleetScale {
    let spec = FleetSpec::homogeneous(FLEET_SCALE_DEVICES, 0xF1EE7);
    let headline = run_fleet_cfg(&spec, &FleetConfig::new(jobs));

    let smoke_spec = FleetSpec::homogeneous(10_000, 0xF1EE7);
    let smoke = run_fleet_cfg(&smoke_spec, &FleetConfig::new(1));

    let mut full_spec = FleetSpec::homogeneous(FLEET_FULL_ENTROPY_DEVICES, 0xF1EE7);
    full_spec.cohorts[0].entropy_bits = ENTROPY_FULL;
    let full = run_fleet_cfg(&full_spec, &FleetConfig::new(jobs));
    FleetScale {
        devices: headline.devices,
        jobs: headline.jobs,
        wall_secs: headline.elapsed.as_secs_f64(),
        devices_per_sec: headline.devices_per_sec(),
        sessions: headline.sessions,
        compromised: headline.compromised() as u64,
        full_entropy_devices: FLEET_FULL_ENTROPY_DEVICES,
        smoke_devices_per_sec: smoke.devices_per_sec(),
        full_entropy_wall_secs: full.elapsed.as_secs_f64(),
    }
}

fn bench_json_doc(
    jobs: usize,
    timings: &[(String, f64)],
    fleet: &cml_core::fleet::FleetReport,
    scale: &FleetScale,
    analysis: &[(Arch, f64, f64, usize)],
    ablations: &Ablations,
) -> String {
    let exps: Vec<String> = timings
        .iter()
        .map(|(id, secs)| format!("{{\"id\":\"{id}\",\"wall_secs\":{secs:.6}}}"))
        .collect();
    let ana: Vec<String> = analysis
        .iter()
        .map(|(arch, secs, vsa_secs, insns)| {
            format!(
                "{{\"arch\":\"{arch}\",\"wall_secs\":{secs:.6},\
                 \"vsa_wall_secs\":{vsa_secs:.6},\"instructions\":{insns}}}"
            )
        })
        .collect();
    let decode: Vec<String> = ablations
        .decode_table
        .iter()
        .map(|(arch, table, hand, insns)| {
            format!(
                "{{\"isa\":\"{arch}\",\"table_wall_secs\":{table:.6},\
                 \"handrolled_wall_secs\":{hand:.6},\"insns_per_pass\":{insns},\
                 \"decode_wall_ratio\":{:.3}}}",
                hand / table.max(1e-12)
            )
        })
        .collect();
    let abl = format!(
        "{{\"snapshot_vs_reboot\":{{\"trials\":{},\"fresh_insns_per_trial\":{},\
         \"forked_insns_per_trial\":{},\"insn_ratio\":{:.2},\"fresh_wall_secs\":{:.6},\
         \"forked_wall_secs\":{:.6}}},\"ir_vs_insn\":{{\"trials\":{},\
         \"insns_per_trial\":{},\"ir_wall_secs\":{:.6},\"insn_wall_secs\":{:.6},\
         \"wall_ratio\":{:.2}}},\
         \"template_vs_rebuild\":{{\"builds\":{},\"rebuild_wall_secs\":{:.6},\
         \"template_wall_secs\":{:.6},\"wall_ratio\":{:.2},\
         \"rebuild_allocs_per_build\":{},\"template_allocs_per_build\":{}}},\
         \"pooled_vs_alloc\":{{\"queries\":{},\"alloc_wall_secs\":{:.6},\
         \"pooled_wall_secs\":{:.6},\"wall_ratio\":{:.2},\
         \"alloc_allocs_per_query\":{},\"pooled_allocs_per_query\":{}}},\
         \"resolver\":{{\"queries\":{},\"cached_wall_secs\":{:.6},\
         \"resolver_qps\":{:.0},\"cached_allocs_per_query\":{},\
         \"alloc_wall_secs\":{:.6},\"alloc_ratio\":{:.2},\
         \"alloc_allocs_per_query\":{},\"uncached_queries\":{},\
         \"uncached_wall_secs\":{:.6},\"cache_off_ratio\":{:.2}}},\
         \"fuzz\":{{\"execs\":{},\"fuzz_execs_per_sec\":{:.2},\
         \"coverage_hook_overhead\":{{\"replay_execs\":{},\"on_wall_secs\":{:.6},\
         \"off_wall_secs\":{:.6},\"overhead_ratio\":{:.3}}},\
         \"fork_vs_reboot_fuzz\":{{\"fork_wall_secs\":{:.6},\
         \"reboot_wall_secs\":{:.6},\"wall_ratio\":{:.2}}}}},\
         \"decode_table\":[{}],\
         \"riscv_fuzz\":{{\"execs\":{},\"wall_secs\":{:.6},\
         \"execs_per_sec\":{:.2}}}}}",
        ablations.trials,
        ablations.fresh_insns,
        ablations.forked_insns,
        ablations.insn_ratio(),
        ablations.fresh_wall_secs,
        ablations.forked_wall_secs,
        ablations.trials,
        ablations.dispatch_insns,
        ablations.ir_wall_secs,
        ablations.insn_wall_secs,
        ablations.ir_vs_insn_ratio(),
        ablations.pooled_queries,
        ablations.rebuild_wall_secs,
        ablations.template_wall_secs,
        ablations.template_wall_ratio(),
        ablations.rebuild_allocs_per_build,
        ablations.template_allocs_per_build,
        ablations.pooled_queries,
        ablations.alloc_wall_secs,
        ablations.pooled_wall_secs,
        ablations.pooled_wall_ratio(),
        ablations.alloc_allocs_per_query,
        ablations.pooled_allocs_per_query,
        ablations.resolver_queries,
        ablations.resolver_cached_wall_secs,
        ablations.resolver_qps(),
        ablations.resolver_cached_allocs_per_query,
        ablations.resolver_alloc_wall_secs,
        ablations.resolver_alloc_ratio(),
        ablations.resolver_alloc_allocs_per_query,
        ablations.resolver_uncached_queries,
        ablations.resolver_uncached_wall_secs,
        ablations.resolver_cache_off_ratio(),
        ablations.fuzz_execs,
        ablations.fuzz_execs_per_sec(),
        ablations.cov_replay_execs,
        ablations.cov_on_wall_secs,
        ablations.cov_off_wall_secs,
        ablations.coverage_overhead_ratio(),
        ablations.fuzz_wall_secs,
        ablations.fuzz_reboot_wall_secs,
        ablations.fork_vs_reboot_fuzz_ratio(),
        decode.join(","),
        ablations.riscv_fuzz_execs,
        ablations.riscv_fuzz_wall_secs,
        ablations.riscv_fuzz_execs_per_sec()
    );
    format!(
        "{{\"jobs\":{jobs},\"experiments\":[{}],\"analysis\":[{}],\"ablations\":{},\
         \"fleet\":{{\"devices\":{},\
         \"jobs\":{},\"wall_secs\":{:.6},\"devices_per_sec\":{:.2},\
         \"compromised\":{},\"survivors\":{}}},\
         \"fleet_scale\":{{\"devices\":{},\"jobs\":{},\"wall_secs\":{:.6},\
         \"devices_per_sec\":{:.2},\"sessions\":{},\"compromised\":{},\
         \"full_entropy_devices\":{},\"smoke_devices_per_sec\":{:.2},\
         \"full_entropy_wall_secs\":{:.6}}}}}\n",
        exps.join(","),
        ana.join(","),
        abl,
        fleet.devices,
        fleet.jobs,
        fleet.elapsed.as_secs_f64(),
        fleet.devices_per_sec(),
        fleet.compromised(),
        fleet.survivors(),
        scale.devices,
        scale.jobs,
        scale.wall_secs,
        scale.devices_per_sec,
        scale.sessions,
        scale.compromised,
        scale.full_entropy_devices,
        scale.smoke_devices_per_sec,
        scale.full_entropy_wall_secs
    )
}

/// Minimal JSON rendering (the approved dependency set has serde but not
/// serde_json; tables are simple enough to emit by hand).
fn to_json(suite: &Suite) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    }
    let tables: Vec<String> = suite
        .tables
        .iter()
        .map(|t| {
            let rows: Vec<String> = t
                .rows
                .iter()
                .map(|r| {
                    let cells: Vec<String> = r.iter().map(|c| format!("\"{}\"", esc(c))).collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            let header: Vec<String> = t.header.iter().map(|h| format!("\"{}\"", esc(h))).collect();
            let notes: Vec<String> = t.notes.iter().map(|n| format!("\"{}\"", esc(n))).collect();
            format!(
                "{{\"id\":\"{}\",\"title\":\"{}\",\"header\":[{}],\"rows\":[{}],\"notes\":[{}]}}",
                esc(&t.id),
                esc(&t.title),
                header.join(","),
                rows.join(","),
                notes.join(",")
            )
        })
        .collect();
    format!("{{\"tables\":[{}]}}", tables.join(","))
}
