//! The repository benchmark: three workloads driven through the public
//! surface of the DMS reproduction (`dms_experiments::runner`,
//! `dms_service::{ScheduleService, wire, net}` and the `dms-experiments
//! serve` binary), with every output checked.
//!
//! ```text
//! perfbench --workload <sweep_sched|sweep_verify_contention|service_mixed>
//!           --seed <n> --seconds <s> --trace <0|1> --server-bin <path>
//!           [--reference <file>] [--out <dir>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics untraced; with
//! `--trace 1` it makes the traced run instead and reports the per-layer
//! metrics, writing the spans and the layer table under `--out`. The last
//! line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! `perfbench/README.md` documents the workloads and metrics.

mod check;
mod layers;
mod probe;
mod service_mixed;
mod spans;
mod stats;
mod sweep;

use check::{Checks, Reference};
use dms_service::CacheCounters;
use layers::Trace;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end metrics every `--trace 0` run reports.
pub const END_TO_END: [&str; 10] = [
    "setup_s",
    "cells_per_s",
    "warm_cells_per_s",
    "req_per_s",
    "req_p50_us",
    "req_tail_us",
    "sched_cycles",
    "ii_no_overhead_pct",
    "achieved_ii_slowdown",
    "peak_rss_mb",
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sweep_sched", "sweep_verify_contention", "service_mixed"];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    workload: String,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    trace: bool,
    /// The `dms-experiments` binary `service_mixed` serves from.
    pub server_bin: PathBuf,
    reference: PathBuf,
    /// Sweep workers and service connections: one per available core.
    pub threads: usize,
    out: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload <sweep_sched|sweep_verify_contention|service_mixed> \
--seed <n> --seconds <s> --trace <0|1> --server-bin <path> [--reference <file>] [--out <dir>]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        server_bin: PathBuf::new(),
        reference: PathBuf::from("perfbench/reference.txt"),
        threads: dms_service::resolve_threads(0),
        out: PathBuf::from(".bench_out"),
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--server-bin" => opts.server_bin = PathBuf::from(value),
            "--reference" => opts.reference = PathBuf::from(value),
            "--out" => opts.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    opts.seed = seed.ok_or("--seed is required")?;
    opts.seconds =
        seconds.filter(|s| s.is_finite() && *s > 0.0).ok_or("--seconds must be positive")?;
    opts.trace = trace.ok_or("--trace is required")?;
    if opts.server_bin.as_os_str().is_empty() {
        return Err("--server-bin is required".to_string());
    }
    Ok(opts)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.to_string(), value, unit }
    }
}

/// What a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Failure accounting.
    pub checks: Checks,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

/// The exact counts and cache figures both traced runs report.
pub fn extra_metrics(trace: &Trace, cache: CacheCounters, entries: u64) -> Vec<Metric> {
    let count = |name: &str| trace.counts.get(name).copied().unwrap_or(0) as f64;
    let lookups = (cache.hits + cache.misses).max(1) as f64;
    let p50 = |samples: &[f64]| if samples.is_empty() { 0.0 } else { stats::median(samples) };
    vec![
        Metric::new(
            "core.dms_schedule.ii_attempts",
            count("core.dms_schedule.ii_attempts"),
            "count",
        ),
        Metric::new(
            "core.dms_schedule.pressure_retries",
            count("core.dms_schedule.pressure_retries"),
            "count",
        ),
        Metric::new("regalloc.emit.ops", count("regalloc.emit.ops"), "count"),
        Metric::new(
            "sim.execute_program.instances",
            count("sim.execute_program.instances"),
            "count",
        ),
        Metric::new(
            "sim.contended_replay.stall_cycles",
            count("sim.contended_replay.stall_cycles"),
            "cycles",
        ),
        Metric::new(
            "sim.contended_replay.serialized_transfers",
            count("sim.contended_replay.serialized_transfers"),
            "count",
        ),
        Metric::new("service.cache.hits", cache.hits as f64, "count"),
        Metric::new("service.cache.misses", cache.misses as f64, "count"),
        Metric::new("service.cache.inserts", cache.inserts as f64, "count"),
        Metric::new("service.cache.hit_ratio", cache.hits as f64 / lookups, "ratio"),
        Metric::new("service.cache.entries", entries as f64, "count"),
        Metric::new("service.overhead_us", p50(&trace.miss_overhead_us), "us"),
        Metric::new("service.hit_overhead_us", p50(&trace.hit_overhead_us), "us"),
    ]
}

/// The exact counts a traced run checks against the reference: a later
/// change may claim to reduce them, so they must repeat exactly.
pub const EXACT_COUNTS: [&str; 6] = [
    "core.dms_schedule.ii_attempts",
    "regalloc.emit.calls",
    "sim.reference_trace.calls",
    "service.cache.hits",
    "service.cache.misses",
    "service.cache.inserts",
];

/// Checks the [`EXACT_COUNTS`] among `metrics` against the reference.
pub fn expect_counts(
    checks: &mut Checks,
    reference: &Reference,
    workload: &str,
    seed: u64,
    metrics: &[Metric],
) {
    for name in EXACT_COUNTS {
        let value = metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value);
        reference.expect(checks, workload, seed, name, &format!("{value}"));
    }
}

/// Renders the result line.
fn result_json(checks: &Checks, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The human-readable table printed to standard error.
fn render_table(workload: &str, checks: &Checks, metrics: &[Metric]) -> String {
    let mut out = format!("{workload}: attempted {} failed {}", checks.attempted, checks.failed);
    let _ = writeln!(out, " failed_frac {}", checks.failed_frac());
    for note in checks.notes() {
        let _ = writeln!(out, "  FAILED: {note}");
    }
    for m in metrics {
        let _ = writeln!(out, "  {:<46} {:>18.4} {}", m.name, m.value, m.unit);
    }
    out
}

/// Writes the traced run's spans and layer table under `opts.out`.
fn write_trace(opts: &Options, trace: &Trace, metrics: &[Metric]) -> Result<(), String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("creating {}: {e}", opts.out.display()))?;
    let stem = format!("{}-seed{}", opts.workload, opts.seed);
    let spans_path = opts.out.join(format!("{stem}.spans.tsv"));
    std::fs::write(&spans_path, spans::render_tsv(trace.tracer.spans()))
        .map_err(|e| format!("writing {}: {e}", spans_path.display()))?;
    let table_path = opts.out.join(format!("{stem}.layers.txt"));
    let mut table = String::new();
    for m in metrics {
        let _ = writeln!(table, "{}\t{}\t{}", m.name, m.value, m.unit);
    }
    std::fs::write(&table_path, table)
        .map_err(|e| format!("writing {}: {e}", table_path.display()))?;
    eprintln!("wrote {} and {}", spans_path.display(), table_path.display());
    Ok(())
}

fn run(opts: &Options) -> Result<Outcome, String> {
    let reference = Reference::load(&opts.reference)?;
    let spec = match opts.workload.as_str() {
        "sweep_sched" => Some(&sweep::SWEEP_SCHED),
        "sweep_verify_contention" => Some(&sweep::SWEEP_VERIFY_CONTENTION),
        _ => None,
    };
    if !opts.trace {
        return match spec {
            Some(spec) => sweep::run(spec, opts, &reference),
            None => service_mixed::run(opts, &reference),
        };
    }
    let (outcome, trace) = match spec {
        Some(spec) => sweep::run_traced(spec, opts, &reference)?,
        None => service_mixed::run_traced(opts, &reference)?,
    };
    write_trace(opts, &trace, &outcome.metrics)?;
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&opts) {
        Ok(outcome) => outcome,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            let name = m.name.clone();
            outcome.checks.check(false, || format!("{name} is not a finite number"));
            m.value = 0.0;
        }
    }
    eprint!("{}", render_table(&opts.workload, &outcome.checks, &outcome.metrics));
    println!("{}", result_json(&outcome.checks, &outcome.metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s of one list in `BENCHMARK.json` (the wire parser reads
    /// integers only, so the file is scanned rather than parsed).
    fn names(key: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let list = &text[text.find(&format!("\"{key}\"")).expect("the list exists")..];
        let list = &list[..list.find(']').expect("the list ends")];
        list.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').unwrap()].to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics_and_workloads() {
        assert_eq!(names("end_to_end"), END_TO_END);
        assert_eq!(names("workloads"), WORKLOADS);
        let trace = Trace::default();
        let mut per_layer: Vec<String> =
            trace.layer_metrics(0).into_iter().map(|m| m.name).collect();
        per_layer
            .extend(extra_metrics(&trace, CacheCounters::default(), 0).into_iter().map(|m| m.name));
        per_layer.extend(
            [
                "service.overhead_share_pct",
                "wire.request_bytes",
                "net.transport_us",
                "net.transport_share_pct",
                "runner.parallel_efficiency",
                "trace.overhead_pct",
            ]
            .map(String::from),
        );
        assert_eq!(names("per_layer"), per_layer);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload sweep_sched --seed 1 --seconds 2 --trace 0 --server-bin x",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (1, 2.0, false));
        for bad in [
            "--workload nope --seed 1 --seconds 2 --trace 0 --server-bin x",
            "--workload sweep_sched --seconds 2 --trace 0 --server-bin x",
            "--workload sweep_sched --seed 1 --seconds 0 --trace 0 --server-bin x",
            "--workload sweep_sched --seed 1 --seconds 2 --trace 2 --server-bin x",
            "--workload sweep_sched --seed 1 --seconds 2 --trace 0",
            "--workload sweep_sched --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn the_result_line_is_one_json_object_with_the_contract_keys() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let line = result_json(&checks, &[Metric::new("setup_s", 0.25, "s")]);
        let json = dms_service::wire::Json::parse(&line.replace("0.25", "25")).unwrap();
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(json.get("attempted").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(json.get("failed").and_then(|v| v.as_u64()), Some(0));
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(|u| u.as_str()), Some("s"));
    }
}
