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
//!
//! Each command reads only its own options; any other argument exits 1
//! before anything runs.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use connman_lab::exploit::strategies::DosCrash;
use connman_lab::exploit::{
    matched_strategy, matrix, ArmGadgetExeclp, CodeInjection, Ret2Libc, RiscvGadgetSystem,
    RopMemcpyChain,
};
use connman_lab::{Arch, AttackOutcome, ExploitStrategy, FirmwareKind, Lab, Protections};

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else {
        usage();
        return ExitCode::FAILURE;
    };
    let run: fn(Args) -> Result<ExitCode, String> = match cmd.as_str() {
        "survey" => survey,
        "analyze" => analyze_cmd,
        "recon" => recon,
        "repro" => repro,
        "exploit" => exploit,
        "dos" => dos,
        "pineapple" => pineapple,
        "fleet" => fleet,
        "resolve" => resolve_cmd,
        "fuzz" => fuzz_cmd,
        "experiments" => experiments,
        "--help" | "-h" | "help" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("unknown command {other:?}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let args = Args::new(cmd, argv.collect());
    run(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn usage() {
    eprintln!(
        "usage: cml <command> [options]\n\
         \n\
         commands, each with every option it reads:\n\
         \x20 survey                         exploitability per firmware profile\n\
         \x20 analyze     [--arch A] [--firmware F] [--sarif]\n\
         \x20                                static analysis report (JSON, or\n\
         \x20                                SARIF 2.1.0 with --sarif)\n\
         \x20 analyze     --self-test        run the analyzer's CI self-test\n\
         \x20 recon       [--arch A] [--prot P] [--firmware F]\n\
         \x20                                run reconnaissance, print findings\n\
         \x20 repro       [--arch A] [--firmware F]\n\
         \x20                                replay the exploit matrix (all nine\n\
         \x20                                cells, or one ISA's column)\n\
         \x20 exploit     [--arch A] [--prot P] [--strategy S] [--firmware F]\n\
         \x20 dos         [--arch A] [--prot P] [--firmware F]\n\
         \x20                                crash-only probe\n\
         \x20 pineapple   [--arch A]         remote rogue-AP runs of E3 for one\n\
         \x20                                ISA (x86 or arm; riscv has none)\n\
         \x20 fleet       [--devices N | --cohorts SPEC] [--jobs N] [--stream]\n\
         \x20             [--fresh-boot] [--resolver]\n\
         \x20                                rogue-AP attack on a fleet\n\
         \x20                                (`cml fleet --help` explains each)\n\
         \x20 resolve     [NAME] [--seed N] [--trace]\n\
         \x20                                recursive resolution (root → TLD →\n\
         \x20                                authoritative) on a simulated clock\n\
         \x20 resolve     --smoke            resolver CI gate: delegation, CNAME,\n\
         \x20                                cut starts, cache hit, determinism,\n\
         \x20                                poisoning\n\
         \x20 fuzz        [--arch A] [--variant vulnerable|patched | --firmware F]\n\
         \x20             [--seed N] [--max-execs N] [--out DIR] [--jobs N]\n\
         \x20                                coverage-guided fuzzing campaign\n\
         \x20                                (defaults: seed 24301, 2000 execs,\n\
         \x20                                out fuzz_out)\n\
         \x20 fuzz        --smoke [--jobs N] fixed-seed CI check: the fuzzer must\n\
         \x20                                rediscover the overflow on vulnerable\n\
         \x20                                firmware and find nothing on patched\n\
         \x20 experiments [e1 .. e10] [--jobs N]\n\
         \x20                                regenerate the paper tables\n\
         \n\
         values:\n\
         \x20 --arch      x86 | arm | riscv      (default arm)\n\
         \x20 --prot      none | wxorx | full | canary | cfi | pie (default full;\n\
         \x20                                    also wx, full+canary, full+cfi, full+pie)\n\
         \x20 --strategy  injection | ret2libc | execlp | system | rop | auto\n\
         \x20                                    (default auto: the technique matched\n\
         \x20                                    to --prot)\n\
         \x20 --firmware  yocto | openelec | tizen | patched (default openelec)\n\
         \x20 --jobs      N                      worker threads (default 1; 0 = one per\n\
         \x20                                    CPU, except fuzz, where 0 runs one)"
    );
}

/// The arguments after the command. Each command takes the flags,
/// values and positionals it reads, in any order, and then calls
/// [`Args::finish`], which fails on the first argument nothing took.
struct Args {
    cmd: String,
    args: Vec<String>,
    taken: Vec<bool>,
}

impl Args {
    fn new(cmd: String, args: Vec<String>) -> Args {
        let taken = vec![false; args.len()];
        Args { cmd, args, taken }
    }

    /// Takes every argument left that `wanted` accepts.
    fn take_all(&mut self, wanted: impl Fn(&str) -> bool) -> Vec<String> {
        let mut took = Vec::new();
        for (a, taken) in self.args.iter().zip(&mut self.taken) {
            if !*taken && wanted(a) {
                *taken = true;
                took.push(a.clone());
            }
        }
        took
    }

    /// Takes every `flag`; whether one was given.
    fn flag(&mut self, flag: &str) -> bool {
        !self.take_all(|a| a == flag).is_empty()
    }

    /// Takes every `flag` with the argument after it, parsing each with
    /// `parse`. The last one wins; `default` when `flag` is absent.
    fn parsed<T>(
        &mut self,
        flag: &str,
        default: T,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<T, String> {
        let mut value = default;
        let mut i = 0;
        while i < self.args.len() {
            if self.taken[i] || self.args[i] != flag {
                i += 1;
                continue;
            }
            self.taken[i] = true;
            if self.taken.get(i + 1) != Some(&false) {
                return Err(format!("{flag} wants a value"));
            }
            self.taken[i + 1] = true;
            value = parse(&self.args[i + 1])?;
            i += 2;
        }
        Ok(value)
    }

    /// `flag`'s value, in its type's own spelling table.
    fn value<T: FromStr<Err = String>>(&mut self, flag: &str, default: T) -> Result<T, String> {
        self.parsed(flag, default, str::parse)
    }

    /// `flag`'s number.
    fn number<T: FromStr>(&mut self, flag: &str, default: T) -> Result<T, String> {
        self.parsed(flag, default, |v| {
            v.parse()
                .map_err(|_| format!("{flag} wants a number, got {v:?}"))
        })
    }

    /// Takes every argument left that is not an option.
    fn positionals(&mut self) -> Vec<String> {
        self.take_all(|a| !a.starts_with('-'))
    }

    /// The first argument nothing took.
    fn left(&self) -> Option<&String> {
        self.args
            .iter()
            .zip(&self.taken)
            .find(|(_, t)| !**t)
            .map(|(a, _)| a)
    }

    /// Fails on the first argument nothing took.
    fn finish(self) -> Result<(), String> {
        match self.left() {
            Some(a) => Err(format!("unknown {} option {a:?}", self.cmd)),
            None => Ok(()),
        }
    }

    /// Like [`Args::finish`], for a `gate` that runs fixed settings.
    fn finish_gate(self, gate: &str) -> Result<(), String> {
        match self.left() {
            Some(a) => Err(format!("{gate} takes no other arguments, got {a:?}")),
            None => Ok(()),
        }
    }

    fn arch(&mut self) -> Result<Arch, String> {
        self.value("--arch", Arch::Armv7)
    }

    fn prot(&mut self) -> Result<Protections, String> {
        self.value("--prot", Protections::full())
    }

    fn firmware(&mut self) -> Result<FirmwareKind, String> {
        self.value("--firmware", FirmwareKind::OpenElec)
    }

    fn jobs(&mut self) -> Result<usize, String> {
        self.number("--jobs", 1)
    }
}

/// Builds the `--strategy` technique for the chosen arch and prot.
type StrategyFn = fn(Arch, &Protections) -> Box<dyn ExploitStrategy>;

fn parse_strategy(name: &str) -> Result<StrategyFn, String> {
    Ok(match name {
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
    })
}

fn survey(args: Args) -> Result<ExitCode, String> {
    args.finish()?;
    println!("{}", connman_lab::experiments::e4::run(1).to_markdown());
    Ok(ExitCode::SUCCESS)
}

fn analyze_cmd(mut args: Args) -> Result<ExitCode, String> {
    if args.flag("--self-test") {
        args.finish_gate("--self-test")?;
        return match connman_lab::analysis::self_test() {
            Ok(summary) => {
                println!("analyze self-test OK");
                println!("{summary}");
                Ok(ExitCode::SUCCESS)
            }
            Err(e) => Err(format!("analyze self-test FAILED: {e}")),
        };
    }
    let arch = args.arch()?;
    let kind = args.firmware()?;
    let sarif = args.flag("--sarif");
    args.finish()?;
    let firmware = connman_lab::Firmware::build(kind, arch);
    let report = connman_lab::analysis::analyze(firmware.image());
    if sarif {
        println!("{}", report.to_sarif());
    } else {
        println!("{}", report.to_json());
    }
    // Exit 2 signals "findings present" so scripts can gate on it, the
    // same convention the exploit command uses for "no shell".
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn recon(mut args: Args) -> Result<ExitCode, String> {
    let arch = args.arch()?;
    let prot = args.prot()?;
    let firmware = args.firmware()?;
    args.finish()?;
    let lab = Lab::new(firmware, arch).with_protections(prot);
    let info = lab.recon().map_err(|e| format!("recon failed: {e}"))?;
    println!(
        "target: {} on {} ({})",
        firmware.os_name(),
        arch,
        prot.label()
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
    Ok(ExitCode::SUCCESS)
}

/// Replays the paper's exploit matrix: for every protection level the
/// matched technique must pop a root shell. `--arch` narrows the run to
/// one column; without it all nine cells run.
fn repro(mut args: Args) -> Result<ExitCode, String> {
    let arch = args.parsed("--arch", None, |v| v.parse().map(Some))?;
    let firmware = args.firmware()?;
    args.finish()?;
    let cells: Vec<_> = matrix()
        .into_iter()
        .filter(|(a, _, _)| arch.is_none_or(|want| *a == want))
        .collect();
    let mut failures = 0;
    for (arch, prot, strategy) in &cells {
        let lab = Lab::new(firmware, *arch).with_protections(*prot);
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
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("repro: {failures} cell(s) failed");
        Ok(ExitCode::from(2))
    }
}

fn exploit(mut args: Args) -> Result<ExitCode, String> {
    let arch = args.arch()?;
    let prot = args.prot()?;
    let strategy = args.parsed("--strategy", matched_strategy as StrategyFn, parse_strategy)?;
    let firmware = args.firmware()?;
    args.finish()?;
    let strategy = strategy(arch, &prot);
    let lab = Lab::new(firmware, arch).with_protections(prot);
    println!(
        "attacking {} / {} / {} with {}…",
        firmware.os_name(),
        arch,
        prot.label(),
        strategy.name()
    );
    let report = lab
        .run_exploit(strategy.as_ref())
        .map_err(|e| format!("attack could not be built: {e}"))?;
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
    Ok(if report.outcome == AttackOutcome::RootShell {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn dos(mut args: Args) -> Result<ExitCode, String> {
    let arch = args.arch()?;
    let prot = args.prot()?;
    let firmware = args.firmware()?;
    args.finish()?;
    let lab = Lab::new(firmware, arch).with_protections(prot);
    Ok(match lab.run_exploit(&DosCrash::new()) {
        Ok(report) => {
            println!("{}", report.proxy_outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            println!("daemon survived: {e}");
            ExitCode::from(2)
        }
    })
}

fn pineapple(mut args: Args) -> Result<ExitCode, String> {
    use connman_lab::experiments::e3;

    let arch = args.arch()?;
    args.finish()?;
    let (cells, others): (Vec<_>, Vec<_>) = e3::cells().into_iter().partition(|c| c.0 == arch);
    if cells.is_empty() {
        let mut arches: Vec<String> = others.iter().map(|c| c.0.to_string()).collect();
        arches.dedup();
        return Err(format!(
            "pineapple: E3 has no remote rogue-AP run for {arch}; it runs {}",
            arches.join(" and ")
        ));
    }
    let table = e3::table(cells);
    println!("### remote rogue-AP runs for {arch}\n");
    for r in &table.rows {
        println!(
            "{} [{}]: lured={} rogue-dns={} → {}",
            r[0], r[2], r[3], r[4], r[5]
        );
    }
    Ok(ExitCode::SUCCESS)
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

fn fleet(mut args: Args) -> Result<ExitCode, String> {
    use connman_lab::fleet::{
        run_fleet_cfg, CohortSpec, FleetConfig, FleetSpec, MAX_FLEET_DEVICES,
    };

    if args.flag("--help") | args.flag("-h") {
        println!("{FLEET_USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let devices: u64 = args.number("--devices", 100)?;
    let cohorts = args.parsed("--cohorts", None, |v| Ok(Some(v.to_string())))?;
    let mut cfg = FleetConfig::new(args.jobs()?);
    let stream = args.flag("--stream");
    cfg.no_snapshot = args.flag("--fresh-boot");
    cfg.resolver = args.flag("--resolver");
    args.finish().map_err(|e| format!("{e}\n{FLEET_USAGE}"))?;
    let spec = match cohorts {
        Some(list) => FleetSpec {
            base_seed: 0xF1EE7,
            cohorts: CohortSpec::parse_list(&list).map_err(|err| format!("--cohorts: {err}"))?,
        },
        None if devices > MAX_FLEET_DEVICES => {
            return Err(format!("--devices: at most {MAX_FLEET_DEVICES} devices"));
        }
        None => FleetSpec::heterogeneous(devices, 0xF1EE7),
    };
    if stream {
        cfg.progress = Some(std::sync::Arc::new(|done, secs| {
            eprint!(
                "\r{done} devices, {:.0} devices/sec ",
                done as f64 / secs.max(1e-9)
            );
        }));
    }
    let report = run_fleet_cfg(&spec, &cfg);
    if stream {
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
    Ok(ExitCode::SUCCESS)
}

fn resolve_cmd(mut args: Args) -> Result<ExitCode, String> {
    use connman_lab::dns::{Message, Name, Question, RecordType};
    use connman_lab::netsim::{example_internet, RecursiveResolver};

    if args.flag("--smoke") {
        args.finish_gate("--smoke")?;
        return Ok(resolve_smoke());
    }
    let seed = args.number("--seed", 7u64)?;
    let trace = args.flag("--trace");
    let names = args.positionals();
    args.finish()?;
    let (mut net, demo) = example_internet();
    let name = match &names[..] {
        [] => demo,
        [s] => Name::parse(s).map_err(|e| format!("bad name {s:?}: {e}"))?,
        [first, other, ..] => {
            return Err(format!(
                "resolve takes one name, got {first:?} and {other:?}"
            ))
        }
    };
    let mut resolver = RecursiveResolver::new(seed, 1024);
    let query = Message::query(1, Question::new(name.clone(), RecordType::A))
        .encode()
        .map_err(|e| format!("query does not encode: {e}"))?;
    let resp = resolver.handle_query(&mut net, &query);
    if trace {
        print!("{}", resolver.trace());
    }
    let Some(resp) = resp else {
        eprintln!("resolution failed for {name}");
        return Ok(ExitCode::from(2));
    };
    let m = Message::decode(&resp).map_err(|e| format!("response does not decode: {e}"))?;
    for r in m.answers() {
        println!("{r}");
    }
    let s = resolver.stats();
    let c = resolver.cache().stats();
    println!(
        "({} upstream queries, {} referrals, {} cname follows, {} glue chases, \
         {} cut starts, cache {} hit / {} miss, clock {}us)",
        s.upstream_queries,
        s.referrals,
        s.cname_follows,
        s.glue_chases,
        s.cut_starts,
        c.hits,
        c.misses,
        resolver.now()
    );
    Ok(ExitCode::SUCCESS)
}

/// Fixed-seed resolver CI gate: delegation chasing, CNAME following,
/// starts at cached zone cuts, cache hits, trace determinism, and the
/// poisoning redirection must all behave exactly this way on every run.
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
    // Delegation cache: once `telemetry.vendor.example` has resolved, a
    // miss under `vendor.example` starts at that cut and costs exactly
    // one exchange.
    let (mut net, _) = example_internet();
    let mut r = RecursiveResolver::new(7, 64);
    let query = |id, name: &str| {
        Message::query(
            id,
            Question::new(Name::parse(name).expect("static name"), RecordType::A),
        )
        .encode()
        .expect("query encodes")
    };
    let warm = r
        .handle_query(&mut net, &query(1, "telemetry.vendor.example"))
        .is_some();
    let before = r.stats();
    let resolved = warm
        && r.handle_query(&mut net, &query(2, "ns1.vendor.example"))
            .is_some();
    let cost = (
        r.stats().upstream_queries - before.upstream_queries,
        r.stats().cut_starts - before.cut_starts,
    );
    if !resolved || cost != (1, 1) {
        eprintln!(
            "resolve smoke FAILED: a miss under a cached cut must resolve with 1 \
             upstream query and 1 cut start (resolved={resolved}, got {} and {})",
            cost.0, cost.1
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
        "resolve smoke OK (referrals={}, cname={}, glue={}, cut starts={}, poisoned hits={})",
        stats.referrals,
        stats.cname_follows,
        stats.glue_chases,
        stats.cut_starts,
        r.cache().stats().hits
    );
    ExitCode::SUCCESS
}

fn fuzz_cmd(mut args: Args) -> Result<ExitCode, String> {
    use connman_lab::fuzz::{fuzz, FuzzConfig};

    if args.flag("--smoke") {
        let jobs = args.jobs()?.max(1);
        args.finish_gate("--smoke")?;
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
            let cfg = FuzzConfig::new(kind, arch, 0x5EED, budget, jobs);
            let report = fuzz(&cfg);
            let found = report.found_overflow();
            println!(
                "fuzz smoke {kind:?}/{arch}: {} execs, {} unique crashes {:?}",
                report.total_execs(),
                report.crashes.len(),
                report.crash_keys()
            );
            if expect_crash && !found {
                return Err(format!(
                    "fuzz smoke FAILED: expected overflow rediscovery on {kind:?}/{arch}"
                ));
            }
            if !expect_crash && !report.crashes.is_empty() {
                return Err(format!(
                    "fuzz smoke FAILED: patched firmware crashed: {:?}",
                    report.crash_keys()
                ));
            }
        }
        println!("fuzz smoke OK");
        return Ok(ExitCode::SUCCESS);
    }

    let arch = args.arch()?;
    let firmware = args.firmware()?;
    let kind = args.parsed("--variant", firmware, |v| match v {
        "vulnerable" => Ok(FirmwareKind::OpenElec),
        "patched" => Ok(FirmwareKind::Patched),
        other => Err(format!(
            "unknown variant {other:?} (want vulnerable|patched)"
        )),
    })?;
    let seed = args.number("--seed", 0x5EEDu64)?;
    let max_execs = args.number("--max-execs", 2000u64)?;
    let out_dir = args.parsed("--out", PathBuf::from("fuzz_out"), |v| Ok(v.into()))?;
    let jobs = args.jobs()?.max(1);
    args.finish()?;
    let report = fuzz(&FuzzConfig::new(kind, arch, seed, max_execs, jobs));
    report
        .write_artifacts(&out_dir)
        .map_err(|e| format!("could not write artifacts under {}: {e}", out_dir.display()))?;
    print!("{}", report.stats_json());
    println!("artifacts: {}", out_dir.display());
    // Exit 2 signals "crashes found" so scripts can gate on it, the
    // same convention analyze/exploit use.
    Ok(if report.crashes.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn experiments(mut args: Args) -> Result<ExitCode, String> {
    use connman_lab::experiments::{run_all, run_one, ALL};
    let jobs = args.jobs()?;
    let ids = args.positionals();
    args.finish()?;
    if ids.is_empty() {
        println!("{}", run_all(jobs).to_markdown());
        return Ok(ExitCode::SUCCESS);
    }
    // Every id is checked before any experiment runs.
    if let Some(id) = ids
        .iter()
        .find(|id| !ALL.iter().any(|(name, _)| name.eq_ignore_ascii_case(id)))
    {
        return Err(format!("unknown experiment {id:?}"));
    }
    for id in &ids {
        let table = run_one(id, jobs).expect("id checked above");
        println!("{}", table.to_markdown());
    }
    Ok(ExitCode::SUCCESS)
}
