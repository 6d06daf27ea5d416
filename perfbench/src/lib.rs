//! The repository benchmark.
//!
//! Four workloads drive the lab's library crates through their public
//! entry points: `fleet-aslr` and `fleet-matrix` (`run_fleet_cfg`),
//! `fuzz` (`cml_fuzz::fuzz`) and `resolve` (`RecursiveResolver`). Each
//! workload derives every input from one seed. An untraced run repeats
//! a fixed unit of work for the given number of seconds and reports the
//! end-to-end metrics; a traced run follows every unit with a replay of
//! it through the layers' public functions, with a span around every
//! call, and reports per-layer metrics from those spans. No code inside
//! the lab is instrumented.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use calib::Calibration;
use trace::{median, Tracer};

pub mod calib;
pub mod fleet;
pub mod fuzz;
pub mod resolve;
pub mod trace;

/// Fewest units a run measures, whatever its time.
pub const MIN_UNITS: usize = 4;

/// One metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The result of one workload run: what the benchmark prints.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sessions, execs or queries).
    pub attempted: u64,
    /// Operations whose outcome was not the expected one.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// Metrics by name: value and unit.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Puts a run's throughput and set-up time: as measured on the wall
    /// clock (`wall.*`), and scaled to the calibration kernel's nominal
    /// speed (`ops_per_s`, `setup_s`), which is what runs are compared by.
    pub fn put_rates(&mut self, ops_per_s: f64, setup_s: f64, speed: f64) {
        self.put("wall.ops_per_s", ops_per_s, "1/s");
        self.put("wall.setup_s", setup_s, "s");
        self.put("calib.speed", speed, "ratio");
        self.put("ops_per_s", ops_per_s / speed, "1/s");
        self.put("setup_s", setup_s * speed, "s");
    }
}

/// The units of one run and the machine speed measured between them.
pub struct Run<T> {
    pub units: Vec<T>,
    /// See [`Calibration::speed`].
    pub speed: f64,
}

/// Runs `unit` until `seconds` are spent and at least [`MIN_UNITS`]
/// times, following each unit with a calibration slice.
pub fn repeat<T>(seconds: f64, mut unit: impl FnMut() -> T) -> Run<T> {
    let start = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    let mut calibration = Calibration::default();
    let mut units = Vec::new();
    while units.len() < MIN_UNITS || start.elapsed() < limit {
        units.push(unit());
        calibration.slice();
    }
    Run {
        units,
        speed: calibration.speed(),
    }
}

/// Summarizes a traced run's replays as each one finishes, so memory
/// does not grow with the run: the first replay's deterministic counts
/// (every later replay must match them), each timing per replay (their
/// medians are reported), and the first replay's spans.
#[derive(Default)]
pub struct Replays {
    counts: Option<Vec<Metric>>,
    timings: Vec<Vec<Metric>>,
    first: Option<Tracer>,
    ops: u64,
    loop_s: f64,
}

impl Replays {
    /// Adds one replay, whose loop ran `ops` operations in `loop_s`.
    pub fn add(
        &mut self,
        counts: Vec<Metric>,
        timings: Vec<Metric>,
        tracer: Tracer,
        (ops, loop_s): (u64, f64),
        out: &mut Outcome,
    ) {
        let first = self.counts.get_or_insert_with(|| counts.clone());
        out.check(*first == counts, || {
            "deterministic counts differ between replays".to_string()
        });
        self.timings.push(timings);
        self.first.get_or_insert(tracer);
        self.ops += ops;
        self.loop_s += loop_s;
    }

    /// Puts the counts, the median of each timing, and
    /// `trace.overhead_ratio` (untraced ÷ traced throughput); returns
    /// the first replay's spans.
    pub fn finish(self, untraced_ops_per_s: f64, out: &mut Outcome) -> Tracer {
        for (name, v, unit) in self.counts.expect("at least one replay") {
            out.put(name, v, unit);
        }
        for (k, (name, _, unit)) in self.timings[0].iter().enumerate() {
            let values: Vec<f64> = self.timings.iter().map(|m| m[k].1).collect();
            out.put(name.clone(), median(&values), unit);
        }
        let traced = self.ops as f64 / self.loop_s;
        out.put("trace.overhead_ratio", untraced_ops_per_s / traced, "ratio");
        self.first.expect("at least one replay")
    }
}

/// Builds a metric list from `(name, value, unit)` triples.
pub fn metrics<'a>(m: impl IntoIterator<Item = (&'a str, f64, &'static str)>) -> Vec<Metric> {
    m.into_iter()
        .map(|(name, v, unit)| (name.to_string(), v, unit))
        .collect()
}

/// `num ÷ den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
