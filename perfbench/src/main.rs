//! Benchmark entry point.
//!
//! `perfbench --workload <fleet-aslr|fleet-matrix|fuzz|resolve>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric as `name value unit`, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones, and the spans of the first traced replay are written
//! to `.bench_out/<workload>.spans.tsv`. Exits 1 when a correctness
//! check fails.

use std::fs;
use std::io::{BufWriter, Write};
use std::process::ExitCode;

use perfbench::trace::Tracer;
use perfbench::{fleet, fuzz, peak_rss_mb, resolve, Outcome};

const WORKLOADS: [&str; 4] = ["fleet-aslr", "fleet-matrix", "fuzz", "resolve"];

/// Devices per cohort of the fleet workloads.
const ASLR_DEVICES: u64 = 30_000;
const MATRIX_DEVICES: u64 = 6_000;

/// Executions per fuzz campaign.
const FUZZ_EXECS: u64 = 60_000;

const RESOLVE_SIZE: resolve::Size = resolve::Size {
    zones: 400,
    hosts: 24,
    cnames: 8,
    queries: 20_000,
};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> (Outcome, Option<Tracer>) {
    let (mut out, tracer) = match workload {
        "fleet-aslr" | "fleet-matrix" => {
            let (shape, devices) = if workload == "fleet-aslr" {
                (fleet::Shape::Aslr, ASLR_DEVICES)
            } else {
                (fleet::Shape::Matrix, MATRIX_DEVICES)
            };
            let spec = fleet::spec(shape, seed, devices);
            if traced {
                let (out, tr) = fleet::run_traced(&spec, seconds);
                (out, Some(tr))
            } else {
                (fleet::run_untraced(&spec, seconds), None)
            }
        }
        "fuzz" => {
            let cfgs = fuzz::configs(seed, FUZZ_EXECS);
            if traced {
                let (out, tr) = fuzz::run_traced(&cfgs, seconds);
                (out, Some(tr))
            } else {
                (fuzz::run_untraced(&cfgs, seconds), None)
            }
        }
        "resolve" => {
            if traced {
                let (out, tr) = resolve::run_traced(seed, RESOLVE_SIZE, seconds);
                (out, Some(tr))
            } else {
                (resolve::run_untraced(seed, RESOLVE_SIZE, seconds), None)
            }
        }
        _ => unreachable!("workload validated by parse_args"),
    };
    if !traced {
        out.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    (out, tracer)
}

fn write_spans(workload: &str, tracer: &Tracer) -> std::io::Result<()> {
    fs::create_dir_all(".bench_out")?;
    let file = fs::File::create(format!(".bench_out/{workload}.spans.tsv"))?;
    let mut w = BufWriter::new(file);
    tracer.write_tsv(&mut w)?;
    w.flush()
}

fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn report(workload: &str, out: &Outcome) {
    for (name, (value, unit)) in &out.metrics {
        println!("{workload} {name} {value} {unit}");
    }
    for p in &out.problems {
        eprintln!("{workload}: check failed: {p}");
    }
    if out.failed > 0 {
        eprintln!(
            "{workload}: {} of {} operations failed",
            out.failed, out.attempted
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (out, tracer) = run(&args.workload, args.seed, args.seconds, args.trace);
    if let Some(tr) = tracer {
        if let Err(e) = write_spans(&args.workload, &tr) {
            eprintln!("perfbench: writing spans: {e}");
            return ExitCode::from(2);
        }
    }
    report(&args.workload, &out);
    println!("{}", json_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
