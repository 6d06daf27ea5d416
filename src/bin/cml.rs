//! `cml` — the connman-lab command line.
//!
//! ```text
//! cml survey                              # firmware exploitability survey
//! cml recon  --arch arm                   # print reconnaissance results
//! cml repro --arch riscv                  # one ISA's exploit-matrix column
//! cml exploit --arch x86 --prot full --strategy rop
//! cml dos    --arch arm --prot wxorx      # crash-only probe
//! cml pineapple --arch arm                # the remote §III-D scenario
//! cml fleet --devices 1000 --jobs 4       # fleet-scale rogue-AP attack
//! cml fleet --devices 1000 --resolver     # …through a poisoned upstream cache
//! cml resolve www.vendor.example --trace  # recursive resolution walkthrough
//! cml resolve --smoke                     # resolver CI gate
//! cml fuzz --arch x86 --variant vulnerable --seed 7 --max-execs 2000
//! cml experiments [e1 .. e10] --jobs 4    # regenerate paper tables
//! ```

use std::process::ExitCode;
use std::str::FromStr;

use connman_lab::exploit::strategies::DosCrash;
use connman_lab::exploit::{
    matched_strategy, matrix, ArmGadgetExeclp, CodeInjection, Ret2Libc, RiscvGadgetSystem,
    RopMemcpyChain,
};
use connman_lab::{Arch, AttackOutcome, ExploitStrategy, FirmwareKind, Lab, Protections};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(&args[1..]) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "survey" => survey(),
        "analyze" => analyze_cmd(&opts),
        "recon" => recon(&opts),
        "repro" => repro(&opts),
        "exploit" => exploit(&opts),
        "dos" => dos(&opts),
        "pineapple" => pineapple(&opts),
        "fleet" => fleet(&opts),
        "resolve" => resolve_cmd(&opts),
        "fuzz" => fuzz_cmd(&opts),
        "experiments" => experiments(&opts),
        "--help" | "-h" | "help" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cml <command> [options]\n\
         \n\
         commands:\n\
         \x20 survey                         exploitability per firmware profile\n\
         \x20 analyze     --arch A --firmware F   static analysis report (JSON)\n\
         \x20 analyze     --sarif            emit the report as SARIF 2.1.0\n\
         \x20 analyze     --self-test        run the analyzer's CI self-test\n\
         \x20 recon       --arch A           run reconnaissance, print findings\n\
         \x20 repro       [--arch A]         replay the exploit matrix (all nine\n\
         \x20                                cells, or one ISA's column)\n\
         \x20 exploit     --arch A --prot P --strategy S\n\
         \x20 dos         --arch A --prot P  crash-only probe\n\
         \x20 pineapple   --arch A           remote rogue-AP scenario\n\
         \x20 fleet       --devices N [--cohorts SPEC] [--stream] [--resolver]\n\
         \x20                                rogue-AP attack on an N-device fleet\n\
         \x20 resolve     [NAME] [--seed N] [--trace]\n\
         \x20                                recursive resolution (root → TLD →\n\
         \x20                                authoritative) on the event scheduler\n\
         \x20 resolve     --smoke            resolver CI gate: delegation, CNAME,\n\
         \x20                                cache hit, determinism, poisoning\n\
         \x20 fuzz        --arch A --variant vulnerable|patched --seed N\n\
         \x20             --max-execs N [--out DIR]\n\
         \x20                                coverage-guided fuzzing campaign\n\
         \x20 fuzz        --smoke            fixed-seed CI check: the fuzzer must\n\
         \x20                                rediscover the overflow on vulnerable\n\
         \x20                                firmware and find nothing on patched\n\
         \x20 experiments [e1 .. e10]        regenerate the paper tables\n\
         \n\
         options:\n\
         \x20 --arch      x86 | arm | riscv      (default arm)\n\
         \x20 --prot      none | wxorx | full | canary | cfi | pie (default full;\n\
         \x20                                    also wx, full+canary, full+cfi, full+pie)\n\
         \x20 --strategy  injection | ret2libc | execlp | system | rop | auto\n\
         \x20                                    (default auto: the technique matched\n\
         \x20                                    to --prot)\n\
         \x20 --firmware  yocto | openelec | tizen | patched (default openelec)\n\
         \x20 --jobs      N                      worker threads for experiments/fleet\n\
         \x20                                    (default 1, 0 = one per CPU)\n\
         \x20 --devices   N                      fleet size (default 100)\n\
         \x20 --cohorts   name=kind/arch/prot/count[/loss=P%][/entropy=B|full],...\n\
         \x20                                    explicit fleet mix (overrides --devices)\n\
         \x20 --stream    fleet: live devices/sec progress line on stderr\n\
         \x20 --fresh-boot                       fleet: boot every session from scratch\n\
         \x20                                    instead of forking boot snapshots\n\
         \x20 --resolver  fleet: cohorts query through a shared upstream resolver\n\
         \x20                                    cache poisoned once per cohort"
    );
}

struct Opts {
    arch: Arch,
    arch_given: bool,
    prot: Protections,
    /// Builds the `--strategy` technique for the chosen arch and prot.
    strategy: fn(Arch, &Protections) -> Box<dyn ExploitStrategy>,
    firmware: FirmwareKind,
    jobs: usize,
    devices: usize,
    snapshot: bool,
    cohorts: Option<String>,
    stream: bool,
    resolver: bool,
    rest: Vec<String>,
    /// Every argument after the command, as given.
    args: Vec<String>,
}

/// Parses the value of `flag` with its type's own spelling table.
fn value<T: FromStr<Err = String>>(flag: &str, v: Option<&String>) -> Result<T, String> {
    v.ok_or_else(|| format!("{flag} wants a value"))?.parse()
}

/// Parses the count given to `flag`.
fn count(flag: &str, v: Option<&String>) -> Result<usize, String> {
    let v = v.ok_or_else(|| format!("{flag} wants a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} wants a number, got {v:?}"))
}

impl Opts {
    /// Parses the options after the command; unknown values are errors.
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            arch: Arch::Armv7,
            arch_given: false,
            prot: Protections::full(),
            strategy: matched_strategy,
            firmware: FirmwareKind::OpenElec,
            jobs: 1,
            devices: 100,
            snapshot: true,
            cohorts: None,
            stream: false,
            resolver: false,
            rest: Vec::new(),
            args: args.to_vec(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--arch" => {
                    o.arch = value("--arch", it.next())?;
                    o.arch_given = true;
                }
                "--prot" => o.prot = value("--prot", it.next())?,
                "--strategy" => {
                    o.strategy = match it.next().ok_or("--strategy wants a value")?.as_str() {
                        "auto" => matched_strategy,
                        "injection" => |arch, _| Box::new(CodeInjection::new(arch)),
                        "ret2libc" => |_, _| Box::new(Ret2Libc::new()),
                        "execlp" => |_, _| Box::new(ArmGadgetExeclp::new()),
                        "system" => |_, _| Box::new(RiscvGadgetSystem::new()),
                        "rop" => |arch, _| Box::new(RopMemcpyChain::new(arch)),
                        other => {
                            return Err(format!(
                                "unknown strategy {other:?} (want injection | ret2libc | \
                                 execlp | system | rop | auto)"
                            ))
                        }
                    }
                }
                "--firmware" => o.firmware = value("--firmware", it.next())?,
                "--jobs" => o.jobs = count("--jobs", it.next())?,
                "--devices" => o.devices = count("--devices", it.next())?,
                "--snapshot" => o.snapshot = true,
                "--fresh-boot" => o.snapshot = false,
                "--cohorts" => {
                    o.cohorts = Some(it.next().ok_or("--cohorts wants a value")?.clone());
                }
                "--stream" => o.stream = true,
                "--resolver" => o.resolver = true,
                other => o.rest.push(other.to_string()),
            }
        }
        Ok(o)
    }

    /// Whether `--smoke` was given. A smoke gate runs fixed settings, so
    /// any argument beside it other than the global `--jobs N` is an
    /// error instead of being silently ignored.
    fn smoke(&self) -> Result<bool, String> {
        if !self.rest.iter().any(|a| a == "--smoke") {
            return Ok(false);
        }
        let mut it = self.args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => {}
                "--jobs" => {
                    it.next();
                }
                other => return Err(format!("--smoke takes no other arguments, got {other:?}")),
            }
        }
        Ok(true)
    }
}

fn survey() -> ExitCode {
    println!("{}", connman_lab::experiments::e4::run().to_markdown());
    ExitCode::SUCCESS
}

fn analyze_cmd(opts: &Opts) -> ExitCode {
    if opts.rest.iter().any(|a| a == "--self-test") {
        return match connman_lab::analysis::self_test() {
            Ok(summary) => {
                println!("analyze self-test OK");
                println!("{summary}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("analyze self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let firmware = connman_lab::Firmware::build(opts.firmware, opts.arch);
    let report = connman_lab::analysis::analyze(firmware.image());
    if opts.rest.iter().any(|a| a == "--sarif") {
        println!("{}", report.to_sarif());
    } else {
        println!("{}", report.to_json());
    }
    // Exit 2 signals "findings present" so scripts can gate on it, the
    // same convention the exploit command uses for "no shell".
    if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn recon(opts: &Opts) -> ExitCode {
    let lab = Lab::new(opts.firmware, opts.arch).with_protections(opts.prot);
    match lab.recon() {
        Ok(info) => {
            println!(
                "target: {} on {} ({})",
                opts.firmware.os_name(),
                opts.arch,
                opts.prot.label()
            );
            println!("buffer → ret offset : {}", info.frame.ret_offset);
            println!("reference buffer    : {:#010x}", info.frame.buf_addr);
            println!("NULL-check slots    : {:?}", info.frame.null_offsets);
            println!(".bss base           : {:#010x}", info.bss_base);
            for plt in ["memcpy", "execlp"] {
                if let Some(a) = info.plt(plt) {
                    println!("{plt}@plt          : {a:#010x}");
                }
            }
            println!("gadgets found       : {}", info.gadgets.len());
            for g in info.gadgets.iter().take(12) {
                println!("  {g}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("recon failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Replays the paper's exploit matrix: for every protection level the
/// matched technique must pop a root shell. `--arch` narrows the run to
/// one column; without it all nine cells run.
fn repro(opts: &Opts) -> ExitCode {
    let cells: Vec<_> = matrix()
        .into_iter()
        .filter(|(arch, _, _)| !opts.arch_given || *arch == opts.arch)
        .collect();
    let mut failures = 0;
    for (arch, prot, strategy) in &cells {
        let lab = Lab::new(opts.firmware, *arch).with_protections(*prot);
        let cell = format!(
            "{:7} / {:8} / {} ({})",
            arch.to_string(),
            prot.label(),
            strategy.name(),
            strategy.paper_section()
        );
        match lab.run_exploit(strategy.as_ref()) {
            Ok(report) => {
                println!("{cell} → {}", report.outcome);
                if report.outcome != AttackOutcome::RootShell {
                    failures += 1;
                }
            }
            Err(e) => {
                println!("{cell} → blocked: {e}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("repro: all {} cells popped a root shell", cells.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("repro: {failures} cell(s) failed");
        ExitCode::from(2)
    }
}

fn exploit(opts: &Opts) -> ExitCode {
    let strategy = (opts.strategy)(opts.arch, &opts.prot);
    let lab = Lab::new(opts.firmware, opts.arch).with_protections(opts.prot);
    println!(
        "attacking {} / {} / {} with {}…",
        opts.firmware.os_name(),
        opts.arch,
        opts.prot.label(),
        strategy.name()
    );
    match lab.run_exploit(strategy.as_ref()) {
        Ok(report) => {
            println!("outcome   : {}", report.outcome);
            println!(
                "predicted : {}",
                if report.predicted_success {
                    "shell"
                } else {
                    "no shell"
                }
            );
            println!("detail    : {}", report.proxy_outcome);
            println!("\n{}", report.listing);
            if report.outcome == AttackOutcome::RootShell {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("attack could not be built: {e}");
            ExitCode::FAILURE
        }
    }
}

fn dos(opts: &Opts) -> ExitCode {
    let lab = Lab::new(opts.firmware, opts.arch).with_protections(opts.prot);
    match lab.run_exploit(&DosCrash::new()) {
        Ok(report) => {
            println!("{}", report.proxy_outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("daemon survived: {e}");
            ExitCode::from(2)
        }
    }
}

fn pineapple(opts: &Opts) -> ExitCode {
    // Reuse the E3 machinery for a single run at the chosen arch.
    let table = connman_lab::experiments::e3::run();
    let rows: Vec<_> = table
        .rows
        .iter()
        .filter(|r| r[1] == opts.arch.to_string())
        .collect();
    println!("### remote rogue-AP runs for {}\n", opts.arch);
    for r in rows {
        println!(
            "{} [{}]: lured={} rogue-dns={} → {}",
            r[0], r[2], r[3], r[4], r[5]
        );
    }
    ExitCode::SUCCESS
}

const FLEET_USAGE: &str = "usage: cml fleet [--devices N | --cohorts SPEC] [--jobs N] [--stream]\n\
     \x20                [--fresh-boot] [--resolver]\n\
     \n\
     \x20 --devices N     heterogeneous four-cohort fleet of N devices (default 100)\n\
     \x20 --cohorts SPEC  name=kind/arch/prot/count[/loss=P%][/entropy=BITS|full],...\n\
     \x20 --jobs N        worker threads (default 1, 0 = one per CPU)\n\
     \x20 --stream        live devices/sec progress line on stderr\n\
     \x20 --fresh-boot    boot every session from scratch instead of forking\n\
     \x20 --resolver      cohorts query through a shared upstream resolver cache\n\
     \x20                 poisoned once per cohort";

fn fleet(opts: &Opts) -> ExitCode {
    use connman_lab::fleet::{
        run_fleet_cfg, CohortSpec, FleetConfig, FleetSpec, MAX_FLEET_DEVICES,
    };

    if opts.rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{FLEET_USAGE}");
        return ExitCode::SUCCESS;
    }
    if let Some(other) = opts.rest.first() {
        eprintln!("unknown fleet option {other:?}\n{FLEET_USAGE}");
        return ExitCode::FAILURE;
    }
    let spec = match &opts.cohorts {
        Some(list) => match CohortSpec::parse_list(list) {
            Ok(cohorts) => FleetSpec {
                base_seed: 0xF1EE7,
                cohorts,
            },
            Err(err) => {
                eprintln!("--cohorts: {err}");
                return ExitCode::FAILURE;
            }
        },
        None if opts.devices as u64 > MAX_FLEET_DEVICES => {
            eprintln!("--devices: at most {MAX_FLEET_DEVICES} devices");
            return ExitCode::FAILURE;
        }
        None => FleetSpec::heterogeneous(opts.devices as u64, 0xF1EE7),
    };
    let mut cfg = FleetConfig::new(opts.jobs);
    cfg.no_snapshot = !opts.snapshot;
    cfg.resolver = opts.resolver;
    if opts.stream {
        cfg.progress = Some(std::sync::Arc::new(|done, secs| {
            eprint!(
                "\r{done} devices, {:.0} devices/sec ",
                done as f64 / secs.max(1e-9)
            );
        }));
    }
    let report = run_fleet_cfg(&spec, &cfg);
    if opts.stream {
        eprintln!();
    }
    print!("{}", report.render());
    println!(
        "({} workers, {} sessions, {:.1} devices/sec)",
        report.jobs,
        report.sessions,
        report.devices_per_sec()
    );
    let p = report.phases;
    println!(
        "(phases: forge {:.3}s, deliver {:.3}s, vm {:.3}s)",
        p.forge_secs, p.deliver_secs, p.vm_secs
    );
    ExitCode::SUCCESS
}

fn resolve_cmd(opts: &Opts) -> ExitCode {
    use connman_lab::dns::{Message, Name, Question, RecordType};
    use connman_lab::netsim::{example_internet, RecursiveResolver};

    match opts.smoke() {
        Ok(true) => return resolve_smoke(),
        Ok(false) => {}
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    let mut seed = 7u64;
    let mut trace = false;
    let mut name_arg: Option<String> = None;
    let mut it = opts.rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed wants a number");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => trace = true,
            other if !other.starts_with('-') => {
                if let Some(first) = &name_arg {
                    eprintln!("resolve takes one name, got {first:?} and {other:?}");
                    return ExitCode::FAILURE;
                }
                name_arg = Some(other.to_string());
            }
            other => {
                eprintln!("unknown resolve option {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (mut net, demo) = example_internet();
    let name = match name_arg {
        Some(s) => match Name::parse(&s) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("bad name {s:?}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => demo,
    };
    let mut resolver = RecursiveResolver::new(seed, 1024);
    let query = match Message::query(1, Question::new(name.clone(), RecordType::A)).encode() {
        Ok(q) => q,
        Err(e) => {
            eprintln!("query does not encode: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(resp) = resolver.handle_query(&mut net, &query) else {
        if trace {
            print!("{}", resolver.trace());
        }
        eprintln!("resolution failed for {name}");
        return ExitCode::from(2);
    };
    if trace {
        print!("{}", resolver.trace());
    }
    match Message::decode(&resp) {
        Ok(m) => {
            for r in m.answers() {
                println!("{r}");
            }
        }
        Err(e) => {
            eprintln!("response does not decode: {e}");
            return ExitCode::FAILURE;
        }
    }
    let s = resolver.stats();
    let c = resolver.cache().stats();
    println!(
        "({} upstream queries, {} referrals, {} cname follows, {} glue chases, \
         cache {} hit / {} miss, clock {}us)",
        s.upstream_queries,
        s.referrals,
        s.cname_follows,
        s.glue_chases,
        c.hits,
        c.misses,
        resolver.now()
    );
    ExitCode::SUCCESS
}

/// Fixed-seed resolver CI gate: delegation chasing, CNAME following,
/// cache hits, trace determinism, and the poisoning redirection must
/// all behave exactly this way on every run.
fn resolve_smoke() -> ExitCode {
    use connman_lab::dns::{Message, Name, Question, Record, RecordData, RecordType};
    use connman_lab::netsim::{example_internet, RecursiveResolver};
    use std::net::Ipv4Addr;

    let run = |seed: u64| {
        let (mut net, www) = example_internet();
        let mut r = RecursiveResolver::new(seed, 64);
        let q = Message::query(5, Question::new(www, RecordType::A))
            .encode()
            .expect("query encodes");
        let resp = r.handle_query(&mut net, &q);
        (resp, r.trace().to_string(), r.stats())
    };
    let (resp_a, trace_a, stats) = run(7);
    let (resp_b, trace_b, _) = run(7);
    let (_, trace_c, _) = run(8);
    let Some(resp) = resp_a else {
        eprintln!("resolve smoke FAILED: the demo name does not resolve");
        return ExitCode::FAILURE;
    };
    if resp_b.as_deref() != Some(&resp[..]) || trace_a != trace_b {
        eprintln!("resolve smoke FAILED: same seed must replay byte-identically");
        return ExitCode::FAILURE;
    }
    if trace_a == trace_c {
        eprintln!("resolve smoke FAILED: latency draws must depend on the seed");
        return ExitCode::FAILURE;
    }
    if stats.cname_follows == 0 || stats.glue_chases == 0 || stats.referrals == 0 {
        eprintln!(
            "resolve smoke FAILED: the demo walk must exercise referrals, \
             CNAME and glue chasing (got {stats:?})"
        );
        return ExitCode::FAILURE;
    }
    // Cache + poisoning: one injected record redirects every later query.
    let (mut net, _) = example_internet();
    let mut r = RecursiveResolver::new(7, 64);
    let host = Name::parse("telemetry.vendor.example").expect("static name");
    let q = Message::query(1, Question::new(host.clone(), RecordType::A))
        .encode()
        .expect("query encodes");
    let mut forged = Message::response_to(&Message::decode(&q).expect("query decodes"));
    forged.push_answer(Record::new(
        host,
        600,
        RecordData::A(Ipv4Addr::new(10, 13, 37, 99)),
    ));
    let forged = forged.encode().expect("forged response encodes");
    if !r.poison(&q, &forged, 600) {
        eprintln!("resolve smoke FAILED: poisoning did not stick");
        return ExitCode::FAILURE;
    }
    for id in [2u16, 3, 4] {
        let q = Message::query(
            id,
            Question::new(
                Name::parse("Telemetry.VENDOR.example").expect("static name"),
                RecordType::A,
            ),
        )
        .encode()
        .expect("query encodes");
        let Some(resp) = r.handle_query(&mut net, &q) else {
            eprintln!("resolve smoke FAILED: poisoned query {id} unanswered");
            return ExitCode::FAILURE;
        };
        let m = Message::decode(&resp).expect("response decodes");
        let redirected = m.id() == id
            && m.answers().iter().any(
                |r| matches!(r.data(), RecordData::A(a) if *a == Ipv4Addr::new(10, 13, 37, 99)),
            );
        if !redirected {
            eprintln!("resolve smoke FAILED: query {id} not served from the poison");
            return ExitCode::FAILURE;
        }
    }
    if r.stats().upstream_queries != 0 {
        eprintln!("resolve smoke FAILED: poisoned hits must not touch upstream");
        return ExitCode::FAILURE;
    }
    println!(
        "resolve smoke OK (referrals={}, cname={}, glue={}, poisoned hits={})",
        stats.referrals,
        stats.cname_follows,
        stats.glue_chases,
        r.cache().stats().hits
    );
    ExitCode::SUCCESS
}

fn fuzz_cmd(opts: &Opts) -> ExitCode {
    use connman_lab::fuzz::{fuzz, FuzzConfig};

    let smoke = match opts.smoke() {
        Ok(smoke) => smoke,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if smoke {
        // Fixed-seed CI gate: the three campaigns below must behave
        // exactly this way on every run or the build fails.
        let budget = 1500;
        let checks = [
            (FirmwareKind::OpenElec, Arch::X86, true),
            (FirmwareKind::OpenElec, Arch::Armv7, true),
            (FirmwareKind::OpenElec, Arch::Riscv, true),
            (FirmwareKind::Patched, Arch::X86, false),
            (FirmwareKind::Patched, Arch::Riscv, false),
        ];
        for (kind, arch, expect_crash) in checks {
            let cfg = FuzzConfig::new(kind, arch, 0x5EED, budget, opts.jobs.max(1));
            let report = fuzz(&cfg);
            let found = report.found_overflow();
            println!(
                "fuzz smoke {kind:?}/{arch}: {} execs, {} unique crashes {:?}",
                report.total_execs(),
                report.crashes.len(),
                report.crash_keys()
            );
            if expect_crash && !found {
                eprintln!("fuzz smoke FAILED: expected overflow rediscovery on {kind:?}/{arch}");
                return ExitCode::FAILURE;
            }
            if !expect_crash && !report.crashes.is_empty() {
                eprintln!(
                    "fuzz smoke FAILED: patched firmware crashed: {:?}",
                    report.crash_keys()
                );
                return ExitCode::FAILURE;
            }
        }
        println!("fuzz smoke OK");
        return ExitCode::SUCCESS;
    }

    let mut kind = opts.firmware;
    let mut seed = 0x5EEDu64;
    let mut max_execs = 2000u64;
    let mut out_dir = std::path::PathBuf::from("fuzz_out");
    let mut it = opts.rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--variant" => match it.next().map(String::as_str) {
                Some("vulnerable") => kind = FirmwareKind::OpenElec,
                Some("patched") => kind = FirmwareKind::Patched,
                other => {
                    eprintln!("unknown variant {other:?} (want vulnerable|patched)");
                    return ExitCode::FAILURE;
                }
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed wants a number");
                    return ExitCode::FAILURE;
                }
            },
            "--max-execs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_execs = v,
                None => {
                    eprintln!("--max-execs wants a number");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match it.next() {
                Some(v) => out_dir = std::path::PathBuf::from(v),
                None => {
                    eprintln!("--out wants a directory");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown fuzz option {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let cfg = FuzzConfig::new(kind, opts.arch, seed, max_execs, opts.jobs.max(1));
    let report = fuzz(&cfg);
    if let Err(e) = report.write_artifacts(&out_dir) {
        eprintln!("could not write artifacts under {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    print!("{}", report.stats_json());
    println!("artifacts: {}", out_dir.display());
    // Exit 2 signals "crashes found" so scripts can gate on it, the
    // same convention analyze/exploit use.
    if report.crashes.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn experiments(opts: &Opts) -> ExitCode {
    if opts.rest.is_empty() {
        println!(
            "{}",
            connman_lab::experiments::run_all_jobs(opts.jobs).to_markdown()
        );
        return ExitCode::SUCCESS;
    }
    let mut ok = true;
    for id in &opts.rest {
        match connman_lab::experiments::run_one_jobs(id, opts.jobs) {
            Some(t) => println!("{}", t.to_markdown()),
            None => {
                eprintln!("unknown experiment {id:?}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
