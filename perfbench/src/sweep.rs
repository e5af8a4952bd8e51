//! The two sweep workloads: `sweep_sched` (scheduling only, ring, the
//! paper's 1..10 clusters) and `sweep_verify_contention` (verify and
//! contention replay on the bus at 2/4/8 clusters). Both sweep the paper's
//! 1258-loop suite through `runner::measure_loops_with_stats_on`, cold on a
//! fresh service and then warm on the same service. The seed decides the
//! order the loops are submitted in; the grid, and so every schedule, is
//! the paper's.

use crate::check::{csv_digest, Checks, Reference};
use crate::layers::{share_pct, Trace};
use crate::probe;
use crate::stats::{median_and_tail, peak_rss_mb, tail_percentile, SplitMix};
use crate::{Metric, Options, Outcome};
use dms_core::DmsConfig;
use dms_experiments::runner::{measure_loops_with_stats_on, VERIFY_TRIP_CAP};
use dms_experiments::{ExperimentConfig, LoopMeasurement, SweepStats};
use dms_machine::{MachineConfig, TopologyKind};
use dms_service::{ScheduleRequest, ScheduleService, SchedulerKind};
use dms_workloads::{generate, unroll_for_machine, SuiteLoop};
use std::time::Instant;

/// One sweep workload.
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec {
    /// Workload name.
    pub name: &'static str,
    /// Cluster counts of the grid.
    pub clusters: &'static [u32],
    /// Interconnect of the clustered machine.
    pub topology: TopologyKind,
    /// Verify every schedule end to end.
    pub verify: bool,
    /// Replay every verified DMS schedule under link contention.
    pub contention: bool,
}

/// Cold paper-grid sweep, scheduling only, then a warm re-sweep.
pub const SWEEP_SCHED: SweepSpec = SweepSpec {
    name: "sweep_sched",
    clusters: &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
    topology: TopologyKind::Ring,
    verify: false,
    contention: false,
};

/// Cold verified sweep with contention replay on figure C's bus.
pub const SWEEP_VERIFY_CONTENTION: SweepSpec = SweepSpec {
    name: "sweep_verify_contention",
    clusters: &[2, 4, 8],
    topology: TopologyKind::Bus,
    verify: true,
    contention: true,
};

/// Times the set-up is repeated; the median is reported as `setup_s`.
const SETUP_REPEATS: usize = 15;

/// Loops swept between two host-speed probes.
const PROBE_EVERY: usize = 8;

/// Warm passes over each chunk; a loop's fastest counts. A warm loop takes
/// about a millisecond, short enough for one interrupt to show.
const WARM_REPEATS: usize = 3;

/// The sweep configuration of `spec`: the paper's suite and unrolling.
pub fn config(spec: &SweepSpec, threads: usize) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper();
    config.cluster_counts = spec.clusters.to_vec();
    config.threads = threads;
    config.topology = spec.topology;
    config.verify = spec.verify;
    config.contention = spec.contention;
    config
}

/// Generates the suite, puts it in the seed's submission order and starts a
/// service, [`SETUP_REPEATS`] times; returns the suite and the median
/// set-up time, each scaled to the reference host by the probes around it.
fn set_up(config: &ExperimentConfig, seed: u64) -> (Vec<SuiteLoop>, f64) {
    let mut times = Vec::new();
    let mut suite = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let before = probe::probe_ns();
        let started = Instant::now();
        suite = generate(&config.suite);
        SplitMix::new(seed).shuffle(&mut suite);
        std::hint::black_box(ScheduleService::default());
        let seconds = started.elapsed().as_secs_f64();
        times.push(seconds * probe::scale(before, probe::probe_ns()));
    }
    (suite, crate::stats::median(&times))
}

/// One pass over (part of) the grid.
struct Pass {
    rows: Vec<LoopMeasurement>,
    stats: SweepStats,
}

fn sweep(suite: &[SuiteLoop], config: &ExperimentConfig, service: &ScheduleService) -> Pass {
    let (rows, stats) = measure_loops_with_stats_on(suite, config, service);
    Pass { rows, stats }
}

/// Checks that every cell of a pass completed.
fn check_pass(checks: &mut Checks, pass: &Pass, what: &str) {
    checks.bulk(pass.stats.tasks as u64, pass.stats.failed as u64, || {
        format!(
            "{what}: {} of {} cells failed to schedule or verify",
            pass.stats.failed, pass.stats.tasks
        )
    });
}

/// Checks that no replay achieved an II below the scheduled one.
fn check_achieved(checks: &mut Checks, rows: &[LoopMeasurement]) {
    let below = rows.iter().filter(|m| m.achieved_ii < m.clustered_ii).count() as u64;
    checks.bulk(rows.len() as u64, below, || {
        format!("{below} cells replayed below their scheduled II")
    });
}

/// Checks that `rows` equal `expected` apart from `cache_hit`.
fn check_same_rows(
    checks: &mut Checks,
    expected: &[LoopMeasurement],
    rows: &[LoopMeasurement],
    what: &str,
) {
    let differing = expected
        .iter()
        .zip(rows)
        .filter(|(e, r)| LoopMeasurement { cache_hit: e.cache_hit, ..(*r).clone() } != **e)
        .count()
        + expected.len().abs_diff(rows.len());
    checks.bulk(expected.len() as u64, differing as u64, || {
        format!("{differing} {what} rows differ")
    });
}

/// Checks a warm pass: the cold rows, every request answered from the
/// cache.
fn check_warm(checks: &mut Checks, cold: &Pass, warm: &Pass) {
    check_pass(checks, warm, "warm pass");
    check_same_rows(checks, &cold.rows, &warm.rows, "warm");
    checks.check(warm.stats.cache_misses == 0, || {
        format!("the warm pass missed the cache {} times", warm.stats.cache_misses)
    });
}

/// The exact schedule metrics over the grid's rows: summed DMS cycles, the
/// share of cells without clustering overhead, and the mean achieved-II
/// slowdown.
fn exact_metrics(spec: &SweepSpec, rows: &[LoopMeasurement]) -> (f64, f64, f64) {
    let sched_cycles: u64 = rows.iter().map(|m| m.clustered_cycles).sum();
    let no_overhead = rows.iter().filter(|m| !m.ii_increased()).count();
    let no_overhead_pct = 100.0 * no_overhead as f64 / rows.len().max(1) as f64;
    let slowdown = if spec.contention {
        let sum: f64 =
            rows.iter().map(|m| f64::from(m.achieved_ii) / f64::from(m.clustered_ii)).sum();
        sum / rows.len().max(1) as f64
    } else {
        // Without a contention replay the interconnect is ideal: the
        // achieved II is the scheduled II.
        1.0
    };
    (sched_cycles as f64, no_overhead_pct, slowdown)
}

/// A loop's measurements over a run: its rows from the first round and,
/// for every round that reached it, the host-speed scale of the probes
/// around it with its scaled cold and warm times (seconds).
#[derive(Default)]
struct LoopTimes {
    rows: Option<Vec<LoopMeasurement>>,
    rounds: Vec<(f64, f64, f64)>,
}

impl LoopTimes {
    /// The fastest scaled cold and warm times over the rounds: scaling
    /// takes out the host's speed, the minimum a round cut by a
    /// preemption.
    fn fastest(&self) -> (f64, f64) {
        self.rounds
            .iter()
            .fold((f64::INFINITY, f64::INFINITY), |(cold, warm), r| (cold.min(r.1), warm.min(r.2)))
    }
}

/// Sweeps `chunk` (indices into `suite`) cold, a loop at a time, on
/// `service`, then [`WARM_REPEATS`] times warm on the same service,
/// between two host-speed probes, and records each loop's scaled times and
/// checks.
fn sweep_chunk(
    spec: &SweepSpec,
    suite: &[SuiteLoop],
    chunk: std::ops::Range<usize>,
    config: &ExperimentConfig,
    service: &ScheduleService,
    times: &mut [LoopTimes],
    checks: &mut Checks,
) {
    let before = probe::probe_ns();
    let cold: Vec<Pass> = chunk.clone().map(|i| sweep(&suite[i..=i], config, service)).collect();
    let warm: Vec<Vec<Pass>> = (0..WARM_REPEATS)
        .map(|_| chunk.clone().map(|i| sweep(&suite[i..=i], config, service)).collect())
        .collect();
    let scale = probe::scale(before, probe::probe_ns());
    for (k, (i, cold)) in chunk.zip(cold).enumerate() {
        check_pass(checks, &cold, "cold pass");
        let mut warm_s = f64::INFINITY;
        for repeat in &warm {
            check_warm(checks, &cold, &repeat[k]);
            warm_s = warm_s.min(repeat[k].stats.wall_seconds);
        }
        if spec.contention {
            check_achieved(checks, &cold.rows);
        }
        let loop_times = &mut times[i];
        loop_times.rounds.push((scale, cold.stats.wall_seconds * scale, warm_s * scale));
        match &loop_times.rows {
            None => loop_times.rows = Some(cold.rows),
            Some(first) => check_same_rows(checks, first, &cold.rows, "repeated cold"),
        }
    }
}

/// The end-to-end run: rounds over the grid in the seed's order, each on a
/// fresh service, until the time is up (and at least one whole round), on
/// one worker. Each loop is swept on its own, so it has a time of its own
/// in every round it reached, scaled to the reference host by the probes
/// around it (see [`probe`]); its fastest scaled time counts.
pub fn run(spec: &SweepSpec, opts: &Options, reference: &Reference) -> Result<Outcome, String> {
    let config = config(spec, 1);
    let (suite, setup_s) = set_up(&config, opts.seed);
    let mut checks = Checks::default();
    let mut times: Vec<LoopTimes> = suite.iter().map(|_| LoopTimes::default()).collect();
    let mut rounds = 0;
    let started = Instant::now();
    'rounds: loop {
        let service = ScheduleService::default();
        for start in (0..suite.len()).step_by(PROBE_EVERY) {
            if rounds > 0 && started.elapsed().as_secs_f64() >= opts.seconds {
                break 'rounds;
            }
            let chunk = start..(start + PROBE_EVERY).min(suite.len());
            sweep_chunk(spec, &suite, chunk, &config, &service, &mut times, &mut checks);
        }
        rounds += 1;
        if started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let mut rows: Vec<LoopMeasurement> =
        times.iter_mut().flat_map(|t| t.rows.take().unwrap_or_default()).collect();
    rows.sort_by_key(|m| (m.loop_id, m.clusters));
    let digest = csv_digest(&rows);
    reference.expect(&mut checks, spec.name, opts.seed, "csv_digest", &format!("{digest:#018x}"));
    let cells = rows.len() as f64;
    let (cold, warm): (Vec<f64>, Vec<f64>) = times.iter().map(LoopTimes::fastest).unzip();
    let cold_s: f64 = cold.iter().sum();
    let warm_s: f64 = warm.iter().sum();
    // A loop's requests (one IMS and one DMS per cell) run back to back:
    // the latency sample is each loop's mean request time.
    let requests_per_loop = 2.0 * spec.clusters.len() as f64;
    let latencies: Vec<f64> = cold.iter().map(|s| 1e6 * s / requests_per_loop).collect();
    let (p50, tail) = median_and_tail(&latencies);
    eprintln!(
        "{}: {rounds} whole rounds, {} loops timed more than once, median host scale {:.3}; \
         CSV digest {digest:#018x} over {} rows; {} loop latencies, tail is p{:.2}",
        spec.name,
        times.iter().filter(|t| t.rounds.len() > 1).count(),
        crate::stats::median(
            &times.iter().flat_map(|t| t.rounds.iter().map(|r| r.0)).collect::<Vec<_>>()
        ),
        rows.len(),
        latencies.len(),
        tail_percentile(latencies.len()).unwrap_or(100.0)
    );
    let (sched_cycles, no_overhead_pct, slowdown) = exact_metrics(spec, &rows);
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("cells_per_s", cells / cold_s, "1/s"),
        Metric::new("warm_cells_per_s", cells / warm_s, "1/s"),
        Metric::new("req_per_s", 2.0 * cells / cold_s, "1/s"),
        Metric::new("req_p50_us", p50, "us"),
        Metric::new("req_tail_us", tail, "us"),
        Metric::new("sched_cycles", sched_cycles, "cycles"),
        Metric::new("ii_no_overhead_pct", no_overhead_pct, "%"),
        Metric::new("achieved_ii_slowdown", slowdown, "ratio"),
        Metric::new("peak_rss_mb", peak_rss_mb("self")?, "MiB"),
    ];
    Ok(Outcome { checks, metrics })
}

/// The cells of a traced pass: (loop, clusters, IMS II, DMS II).
type CellIis = Vec<(usize, u32, u32, u32)>;

/// One serial pass over the grid that sends each request the way
/// `runner::measure_loop` does (unroll once per distinct factor, IMS then
/// DMS per cluster count, each DMS search seeded with the previous count's
/// II) and replays every request's layer calls.
fn traced_pass(
    suite: &[SuiteLoop],
    config: &ExperimentConfig,
    service: &ScheduleService,
    trace: &mut Trace,
    checks: &mut Checks,
) -> CellIis {
    let mut cells = Vec::new();
    for suite_loop in suite {
        let envelope = trace.tracer.begin("runner.loop", 0);
        let mut bodies: Vec<(u32, dms_ir::Loop)> = Vec::new();
        let mut seed = None;
        for &clusters in &config.cluster_counts {
            let clustered = MachineConfig::paper_clustered(clusters).with_topology(config.topology);
            let unclustered = MachineConfig::unclustered(clusters);
            let useful_fus = clustered.total_useful_fus();
            let factor = config.unroll.factor(suite_loop.body.useful_ops(), useful_fus);
            let index = match bodies.iter().position(|(f, _)| *f == factor) {
                Some(index) => index,
                None => {
                    let (body, _) = trace.tracer.time("workloads.unroll_for_machine", 0, || {
                        unroll_for_machine(&suite_loop.body, useful_fus, &config.unroll)
                    });
                    bodies.push((factor, body));
                    bodies.len() - 1
                }
            };
            let body = &bodies[index].1;
            let verify_trips =
                (config.verify || config.contention).then(|| body.trip_count.min(VERIFY_TRIP_CAP));
            let ims_req = ScheduleRequest {
                body,
                machine: &unclustered,
                dms: DmsConfig::default(),
                scheduler: SchedulerKind::Ims,
                verify_trips,
                contention: false,
            };
            let request = trace.new_request();
            let ims = trace.schedule(service, &ims_req, request);
            let dms_req = ScheduleRequest {
                machine: &clustered,
                dms: DmsConfig { ii_seed: seed, ..config.dms },
                scheduler: SchedulerKind::Dms,
                contention: config.contention,
                ..ims_req
            };
            let request = trace.new_request();
            let dms = trace.schedule(service, &dms_req, request);
            let ok = matches!((&ims, &dms), (Ok(_), Ok(_)));
            checks.check(ok, || format!("traced cell ({}, {clusters}) failed", suite_loop.id));
            if let (Ok(ims), Ok(dms)) = (ims, dms) {
                let dms_ii = dms.output.result().ii();
                seed = Some(dms_ii);
                cells.push((suite_loop.id, clusters, ims.output.result().ii(), dms_ii));
            }
        }
        trace.tracer.end(envelope);
    }
    cells
}

/// Untraced cold and warm pass walls (seconds) over the whole grid on a
/// fresh service, and the cold rows.
fn reference_passes(
    suite: &[SuiteLoop],
    config: &ExperimentConfig,
) -> (f64, f64, Vec<LoopMeasurement>) {
    let service = ScheduleService::default();
    let cold = sweep(suite, config, &service);
    let warm = sweep(suite, config, &service);
    (cold.stats.wall_seconds, warm.stats.wall_seconds, cold.rows)
}

/// The traced run: untraced reference passes on `threads` workers and on
/// one, then a serial traced pass (cold, then warm on the same service).
pub fn run_traced(
    spec: &SweepSpec,
    opts: &Options,
    reference: &Reference,
) -> Result<(Outcome, Trace), String> {
    let config = config(spec, opts.threads);
    let (suite, _) = set_up(&config, opts.seed);
    let mut checks = Checks::default();

    let (cold_n, _, _) = reference_passes(&suite, &config);
    let serial = ExperimentConfig { threads: 1, ..config.clone() };
    let (cold_1, warm_1, rows) = reference_passes(&suite, &serial);

    let mut trace = Trace::default();
    let service = ScheduleService::default();
    let cold = traced_pass(&suite, &config, &service, &mut trace, &mut checks);
    let warm = traced_pass(&suite, &config, &service, &mut trace, &mut checks);
    let untraced: CellIis =
        rows.iter().map(|m| (m.loop_id, m.clusters, m.unclustered_ii, m.clustered_ii)).collect();
    checks.check(cold == untraced && warm == untraced, || {
        "the traced pass answered different IIs than the untraced sweep".to_string()
    });
    for note in &trace.disagreements {
        checks.check(false, || note.clone());
    }

    let direct_ns = trace.layer_ns(&["workloads.unroll_for_machine", "service.schedule"]);
    let untraced_s = cold_1 + warm_1;
    let mut metrics = trace.layer_metrics(direct_ns);
    metrics.extend(crate::extra_metrics(&trace, service.cache_stats(), service.cache_len() as u64));
    metrics.extend([
        Metric::new("service.overhead_share_pct", share_pct(trace.overhead_ns(), direct_ns), "%"),
        Metric::new("wire.request_bytes", 0.0, "bytes"),
        Metric::new("net.transport_us", 0.0, "us"),
        Metric::new("net.transport_share_pct", 0.0, "%"),
        Metric::new("runner.parallel_efficiency", cold_1 / (cold_n * opts.threads as f64), "ratio"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (direct_ns as f64 / 1e9 - untraced_s) / untraced_s,
            "%",
        ),
    ]);
    crate::expect_counts(&mut checks, reference, spec.name, opts.seed, &metrics);
    Ok((Outcome { checks, metrics }, trace))
}
