//! Command-line entry point regenerating the paper's figures, plus the
//! resident scheduling service.
//!
//! ```text
//! dms-experiments [fig4|fig5|fig6|figT|figP|figC|ablation|all] [--loops N] [--clusters A,B,C] [--seed S] [--csv DIR] [--threads T] [--verify] [--contention] [--cqrf-capacity N] [--topology ring|chordal[:K]|bus|crossbar] [--strategy dms|beam:W|portfolio:N[:E]] [--metrics-json PATH]
//! dms-experiments serve [--addr HOST:PORT] [--shards N]
//! dms-experiments client [--addr HOST:PORT] [--loops N] [--clusters A,B,C] [--seed S] [--shutdown]
//! ```
//!
//! `serve` keeps a [`dms_service::ScheduleService`] resident behind a
//! newline-delimited JSON TCP endpoint (see `dms_service::wire` for the
//! protocol); repeated requests are answered from its content-addressed
//! schedule cache. `client` drives a served instance end to end: it runs a
//! reduced sweep locally, replays every (loop, cluster-count) cell as a wire
//! request, checks each response against the direct measurement, and then
//! repeats the last request to prove it hits the cache.
//!
//! With no arguments it runs `all` at paper scale (1258 loops, 1–10
//! clusters), prints every figure as a text table and checks the paper's
//! headline claims. With `--verify` every schedule is additionally lowered
//! through register allocation and code generation, executed on the
//! clustered-VLIW interpreter and cross-checked against a scalar reference
//! interpretation of the loop; any failed task (capacity overflow or store
//! mismatch) then makes the run exit non-zero, which is what the scheduled
//! nightly full-grid CI job gates on. `--cqrf-capacity` shrinks the queue
//! files below the paper's 32 registers to stress the scheduler's
//! pressure-relaxation (II-retry) path. `--topology` swaps the clustered
//! machine's interconnect (the paper's ring by default) for a chordal ring,
//! a shared bus or a crossbar; `figT` sweeps all four at 2/4/8 clusters
//! with verification forced on and compares the achievable II. `--strategy`
//! swaps the deterministic DMS heuristic for a beam search (`beam:W`) or an
//! explore/exploit portfolio of randomized-priority candidates
//! (`portfolio:N[:E]`, seeded deterministically per (loop, candidate), so
//! sweeps stay byte-reproducible for any `--threads`); `figP` runs the
//! portfolio against the plain heuristic at 2/4/8 clusters with
//! verification forced on and reports how many loops recover II.
//! `--contention` additionally times every verified schedule under the
//! interconnect's link bandwidth (`dms_sim::contended_replay`)
//! and records the *achieved* II — the rate the machine sustains once
//! cross-cluster transfers serialise on real links — in the measurement
//! CSV's `achieved_ii` column; `figC` sweeps that replay across all four
//! interconnects at 2/4/8 clusters (a `--topology` comma list narrows the
//! set, e.g. `--topology bus,crossbar`) and asks whether figure T's
//! "bus ≈ crossbar" verdict survives contention-accurate timing.
//! `--metrics-json PATH` dumps the run's `dms-telemetry` registry —
//! cache counters, per-request latency histogram, phase timers and the
//! scheduler core's event-trace counts — as JSON; collection is
//! observation-only, so the flag never changes a measurement (a workspace
//! test pins the CSVs byte-identical with it on and off).

use dms_experiments::ablation::{chain_policy_ablation, copy_unit_ablation};
use dms_experiments::report;
use dms_experiments::{
    figure4, figure5, figure6, figure_c, figure_p, figure_t, measure_suite_with_stats_on,
    ExperimentConfig, FIGP_CLUSTERS, FIGT_CLUSTERS, FIGT_TOPOLOGIES,
};
use dms_machine::TopologyKind;
use dms_sched::SchedulerStrategy;
use dms_telemetry::Registry;
use std::process::ExitCode;
use std::sync::Arc;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    Fig4,
    Fig5,
    Fig6,
    FigT,
    FigP,
    FigC,
    Ablation,
    All,
}

#[derive(Debug)]
struct Cli {
    command: Command,
    config: ExperimentConfig,
    csv_dir: Option<String>,
    /// Dump the run's metrics registry (counters, timers, histograms,
    /// scheduler event trace counts) as JSON to this path, and install the
    /// registry as the process-wide telemetry sink so the scheduler core's
    /// events are captured too.
    metrics_json: Option<String>,
    /// Interconnects the figC sweep replays (ignored by every other
    /// command, which uses `config.topology`).
    figc_topologies: Vec<dms_machine::TopologyKind>,
}

const USAGE: &str = "usage: dms-experiments [fig4|fig5|fig6|figT|figP|figC|ablation|all] [--loops N] [--clusters A,B,C] [--seed S] [--csv DIR] [--threads T] [--verify] [--contention] [--cqrf-capacity N] [--topology ring|chordal[:K]|bus|crossbar] [--strategy dms|beam:W|portfolio:N[:E]] [--metrics-json PATH]\n       dms-experiments serve [--addr HOST:PORT] [--shards N]\n       dms-experiments client [--addr HOST:PORT] [--loops N] [--clusters A,B,C] [--seed S] [--shutdown]";

fn parse_args() -> Result<Cli, String> {
    let mut command = Command::All;
    let mut config = ExperimentConfig::paper();
    let mut csv_dir = None;
    let mut metrics_json = None;
    let mut clusters_given = false;
    let mut topology_arg: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "fig4" => command = Command::Fig4,
            "fig5" => command = Command::Fig5,
            "fig6" => command = Command::Fig6,
            "figT" | "figt" => command = Command::FigT,
            "figP" | "figp" => command = Command::FigP,
            "figC" | "figc" => command = Command::FigC,
            "ablation" => command = Command::Ablation,
            "all" => command = Command::All,
            "--loops" => {
                let v = args.next().ok_or("--loops needs a value")?;
                config.suite.num_loops = v.parse().map_err(|_| format!("bad --loops value {v}"))?;
            }
            "--seed" => {
                let v = args.next().ok_or("--seed needs a value")?;
                config.suite.seed = v.parse().map_err(|_| format!("bad --seed value {v}"))?;
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                config.threads = v.parse().map_err(|_| format!("bad --threads value {v}"))?;
            }
            "--clusters" => {
                let v = args.next().ok_or("--clusters needs a value")?;
                config.cluster_counts = v
                    .split(',')
                    .map(|x| x.trim().parse().map_err(|_| format!("bad cluster count {x}")))
                    .collect::<Result<Vec<u32>, String>>()?;
                clusters_given = true;
            }
            "--topology" => {
                // Resolved after the loop: figC accepts a comma list, every
                // other command a single interconnect, and figT none at all
                // — and the command keyword may come later in the argv.
                topology_arg = Some(args.next().ok_or("--topology needs a value")?);
            }
            "--strategy" => {
                let v = args.next().ok_or("--strategy needs a value")?;
                config.dms.strategy = SchedulerStrategy::parse(&v)?;
            }
            "--verify" => config.verify = true,
            "--contention" => config.contention = true,
            "--cqrf-capacity" => {
                let v = args.next().ok_or("--cqrf-capacity needs a value")?;
                config.cqrf_capacity =
                    Some(v.parse().map_err(|_| format!("bad --cqrf-capacity value {v}"))?);
            }
            "--csv" => csv_dir = Some(args.next().ok_or("--csv needs a directory")?),
            "--metrics-json" => {
                metrics_json = Some(args.next().ok_or("--metrics-json needs a path")?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    // Figure T always sweeps all four interconnects, so a --topology
    // override would be silently ignored.
    if command == Command::FigT && topology_arg.is_some() {
        return Err("figT sweeps every topology; --topology does not apply".to_string());
    }
    // Figures T and C compare topologies at the paper's 2/4/8-cluster
    // points unless the user picked an explicit grid.
    if matches!(command, Command::FigT | Command::FigC) && !clusters_given {
        config.cluster_counts = FIGT_CLUSTERS.to_vec();
    }
    // Figure C replays the same four interconnects; a --topology comma
    // list narrows the sweep (CI smoke runs `--topology bus,crossbar`).
    // Other commands take exactly one.
    let mut figc_topologies = FIGT_TOPOLOGIES.to_vec();
    if let Some(v) = &topology_arg {
        if command == Command::FigC {
            figc_topologies = v
                .split(',')
                .map(|t| TopologyKind::parse(t.trim()))
                .collect::<Result<Vec<TopologyKind>, String>>()?;
            if figc_topologies.is_empty() {
                return Err("--topology needs at least one interconnect".to_string());
            }
        } else if v.contains(',') {
            return Err("a comma-separated --topology list only applies to figC".to_string());
        } else {
            config.topology = TopologyKind::parse(v)?;
        }
    }
    // Figure P compares the portfolio against its embedded baseline at the
    // same 2/4/8-cluster points unless the user picked an explicit grid.
    // An explicit --strategy still applies; the default-portfolio swap is
    // resolved here so the run banner reports the strategy actually swept
    // (`figure_p` repeats the override as a safety net for library callers).
    if command == Command::FigP {
        if !clusters_given {
            config.cluster_counts = FIGP_CLUSTERS.to_vec();
        }
        if config.dms.strategy == SchedulerStrategy::Dms {
            config.dms.strategy = SchedulerStrategy::Portfolio {
                n_candidates: dms_sched::DEFAULT_PORTFOLIO_CANDIDATES,
                exploit_percent: dms_sched::DEFAULT_EXPLOIT_PERCENT,
            };
        }
    }
    Ok(Cli { command, config, csv_dir, metrics_json, figc_topologies })
}

fn write_csv(dir: &str, name: &str, contents: &str) {
    let path = std::path::Path::new(dir).join(name);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, contents)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("wrote {}", path.display());
    }
}

fn run_serve(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:47117".to_string();
    let mut shards = dms_service::service::DEFAULT_SHARDS;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => addr = v.clone(),
                None => {
                    eprintln!("--addr needs a value");
                    return ExitCode::FAILURE;
                }
            },
            "--shards" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => shards = v,
                None => {
                    eprintln!("--shards needs a number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown serve argument: {other}\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    // The served registry is also installed process-wide, so the
    // scheduler core's trace events (II attempts, pressure retries, chain
    // dismantles, link stalls) show up in `{"op":"metrics"}` scrapes
    // alongside the cache counters and request latencies.
    let registry = Arc::new(Registry::new());
    dms_telemetry::install(Arc::clone(&registry));
    let service =
        std::sync::Arc::new(dms_service::ScheduleService::with_registry(shards, registry));
    match dms_service::net::serve(addr.as_str(), service) {
        Ok(()) => {
            println!("dms-service shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: could not serve on {addr}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_client(args: &[String]) -> ExitCode {
    let mut addr = "127.0.0.1:47117".to_string();
    let mut loops = 4usize;
    let mut clusters: Vec<u32> = vec![2, 4];
    let mut seed: Option<u64> = None;
    let mut shutdown = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        let parsed = match arg.as_str() {
            "--addr" => take("--addr").map(|v| addr = v),
            "--loops" => take("--loops").and_then(|v| {
                v.parse().map(|n| loops = n).map_err(|_| format!("bad --loops value {v}"))
            }),
            "--seed" => take("--seed").and_then(|v| {
                v.parse().map(|s| seed = Some(s)).map_err(|_| format!("bad --seed value {v}"))
            }),
            "--clusters" => take("--clusters").and_then(|v| {
                v.split(',')
                    .map(|x| x.trim().parse().map_err(|_| format!("bad cluster count {x}")))
                    .collect::<Result<Vec<u32>, String>>()
                    .map(|c| clusters = c)
            }),
            "--shutdown" => {
                shutdown = true;
                Ok(())
            }
            other => Err(format!("unknown client argument: {other}\n{USAGE}")),
        };
        if let Err(msg) = parsed {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    }
    match drive_service(&addr, loops, &clusters, seed, shutdown) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The client smoke loop: replays a reduced sweep against a served
/// instance, one DMS request per (loop, cluster-count) cell, and checks
/// every response against the locally-computed direct measurement.
fn drive_service(
    addr: &str,
    loops: usize,
    clusters: &[u32],
    seed: Option<u64>,
    shutdown: bool,
) -> Result<(), String> {
    use dms_service::wire::{self, Json, WireMachine, WireSchedule};

    let mut config = ExperimentConfig::quick(loops);
    config.cluster_counts = clusters.to_vec();
    config.threads = 1;
    if let Some(s) = seed {
        config.suite.seed = s;
    }
    let suite = dms_workloads::generate(&config.suite);
    let reference = dms_experiments::runner::measure_loops(&suite, &config);

    let mut client = dms_service::net::Client::connect_with_retry(addr)
        .map_err(|e| format!("could not connect to {addr}: {e}"))?;
    let io = |e: std::io::Error| format!("connection to {addr} failed: {e}");

    let mut matched = 0usize;
    let mut total = 0usize;
    let mut last_request = None;
    for suite_loop in &suite {
        for &c in clusters {
            // Unroll exactly as the sweep executor does, so the request body
            // is the body the reference measurement scheduled.
            let useful_fus = dms_machine::MachineConfig::paper_clustered(c).total_useful_fus();
            let body =
                dms_workloads::unroll_for_machine(&suite_loop.body, useful_fus, &config.unroll);
            let request = wire::encode_schedule_request(&WireSchedule {
                body,
                machine: WireMachine {
                    unclustered: false,
                    clusters: c,
                    copy_units: 1,
                    cqrf_capacity: None,
                    topology: TopologyKind::Ring,
                },
                scheduler: dms_service::SchedulerKind::Dms,
                dms: dms_core::DmsConfig::default(),
                verify_trips: None,
                contention: false,
            });
            let line = client.roundtrip(&request).map_err(io)?;
            let resp = Json::parse(&line)?;
            if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("server rejected the request: {line}"));
            }
            total += 1;
            let row = reference
                .iter()
                .find(|m| m.loop_id == suite_loop.id && m.clusters == c)
                .ok_or("reference sweep is missing a row")?;
            let summary = resp.get("summary").ok_or("response has no summary")?;
            let dms = resp.get("dms").ok_or("response has no dms block")?;
            let field = |obj: &Json, key: &str| obj.get(key).and_then(Json::as_u64);
            let ok = field(summary, "ii") == Some(u64::from(row.clustered_ii))
                && field(summary, "mii") == Some(u64::from(row.clustered_mii))
                && field(summary, "copies") == Some(row.copies)
                && field(summary, "moves") == Some(row.moves)
                && field(dms, "first_ii") == Some(u64::from(row.first_ii))
                && field(dms, "baseline_ii") == Some(u64::from(row.baseline_ii));
            if ok {
                matched += 1;
            } else {
                eprintln!(
                    "mismatch on loop {} at {} clusters: served {} vs direct ii {}",
                    suite_loop.id, c, line, row.clustered_ii
                );
            }
            last_request = Some(request);
        }
    }
    println!("{matched}/{total} responses match the direct sweep");
    if matched != total {
        return Err(format!("{} response(s) diverged from the direct sweep", total - matched));
    }

    if let Some(request) = last_request {
        let resp = Json::parse(&client.roundtrip(&request).map_err(io)?)?;
        if resp.get("cache_hit").and_then(Json::as_bool) != Some(true) {
            return Err("repeat request missed the schedule cache".to_string());
        }
        println!("repeat request answered from cache");
    }

    // Scrape the server's metrics registry and print the exposition: the
    // CI smoke job greps this for a nonzero cache-hit counter and a
    // populated request-latency histogram.
    let scrape = Json::parse(&client.roundtrip(&wire::encode_metrics_request()).map_err(io)?)?;
    let exposition = scrape
        .get("metrics")
        .and_then(Json::as_str)
        .ok_or("metrics response carries no exposition text")?;
    println!("server metrics after the sweep:");
    print!("{exposition}");

    if shutdown {
        client.roundtrip(&wire::encode_shutdown_request()).map_err(io)?;
        println!("server asked to shut down");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return run_serve(&argv[1..]),
        Some("client") => return run_client(&argv[1..]),
        _ => {}
    }

    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // One registry for the whole run: the sweep's service publishes its
    // cache counters and request latencies into it, the phase timers land
    // in it, and — when `--metrics-json` asks for the dump — it is also
    // installed process-wide so the scheduler core's event trace is
    // captured. Collection is observation-only, so installing it cannot
    // change a single scheduled cycle (a workspace test pins the CSVs
    // byte-identical either way).
    let registry = Arc::new(Registry::new());
    if cli.metrics_json.is_some() {
        dms_telemetry::install(Arc::clone(&registry));
    }
    let code = run(&cli, &registry);
    if let Some(path) = &cli.metrics_json {
        match std::fs::write(path, registry.render_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("error: could not write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    code
}

fn run(cli: &Cli, registry: &Arc<Registry>) -> ExitCode {
    let run_timer = registry.timer("dms_run_wall_nanoseconds_total");
    println!(
        "DMS reproduction — {} loops, clusters {:?}, seed {}, topology {}, strategy {}",
        cli.config.suite.num_loops,
        cli.config.cluster_counts,
        cli.config.suite.seed,
        cli.config.topology,
        cli.config.dms.strategy
    );

    if cli.command == Command::FigP {
        let (rows, stats) = figure_p(&cli.config);
        println!(
            "swept {} tasks on {} thread(s) in {:.2} s — {} store values verified, \
             {} pressure retries, {} failed",
            stats.tasks,
            stats.threads,
            stats.wall_seconds,
            stats.stores_verified,
            stats.pressure_retries,
            stats.failed
        );
        let recovered: usize = rows.iter().map(|r| r.recovered).sum();
        let loops: usize = rows.iter().map(|r| r.loops).sum();
        println!("portfolio recovered II on {recovered} of {loops} (loop, cluster-count) tasks");
        println!();
        println!("{}", report::render_figp(&rows));
        if let Some(dir) = &cli.csv_dir {
            write_csv(dir, "figureP.csv", &report::figp_csv(&rows));
        }
        // Figure P always verifies: any failed task is a compiler bug.
        if stats.failed > 0 {
            eprintln!("error: {} task(s) failed end-to-end verification", stats.failed);
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if cli.command == Command::FigT {
        let (rows, stats) = figure_t(&cli.config);
        for (kind, s) in &stats {
            println!(
                "{kind}: swept {} tasks on {} thread(s) in {:.2} s — {} store values verified, \
                 {} pressure retries, {} failed",
                s.tasks, s.threads, s.wall_seconds, s.stores_verified, s.pressure_retries, s.failed
            );
        }
        println!();
        println!("{}", report::render_figt(&rows));
        if let Some(dir) = &cli.csv_dir {
            write_csv(dir, "figureT.csv", &report::figt_csv(&rows));
        }
        // Figure T always verifies: any failed task is a compiler bug.
        let failed: usize = stats.iter().map(|(_, s)| s.failed).sum();
        if failed > 0 {
            eprintln!("error: {failed} task(s) failed end-to-end verification");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if cli.command == Command::FigC {
        let (rows, raw, stats) = figure_c(&cli.config, &cli.figc_topologies);
        for (kind, s) in &stats {
            println!(
                "{kind}: swept {} tasks on {} thread(s) in {:.2} s — {} store values verified, \
                 {} pressure retries, {} failed",
                s.tasks, s.threads, s.wall_seconds, s.stores_verified, s.pressure_retries, s.failed
            );
        }
        println!();
        println!("{}", report::render_figc(&rows));
        if let Some(dir) = &cli.csv_dir {
            write_csv(dir, "figureC.csv", &report::figc_csv(&rows));
            write_csv(dir, "measurementsC.csv", &report::measurements_csv(&raw));
        }
        // Figure C always verifies: any failed task is a compiler bug.
        let failed: usize = stats.iter().map(|(_, s)| s.failed).sum();
        if failed > 0 {
            eprintln!("error: {failed} task(s) failed end-to-end verification");
            return ExitCode::FAILURE;
        }
        // The replay only adds stalls, so an achieved II below the
        // scheduled II is a timing-model bug: gate on it here so the
        // nightly paper-scale run fails loudly.
        let impossible = raw.iter().filter(|m| m.achieved_ii < m.clustered_ii).count();
        if impossible > 0 {
            eprintln!("error: {impossible} replay(s) undercut the scheduled II");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if cli.command == Command::Ablation {
        let mut cfg = cli.config.clone();
        // the ablations only matter on the wide configurations
        cfg.cluster_counts = cfg.cluster_counts.iter().copied().filter(|&c| c >= 6).collect();
        if cfg.cluster_counts.is_empty() {
            cfg.cluster_counts = vec![6, 8, 10];
        }
        let copy = copy_unit_ablation(&cfg, 2);
        println!("\n{}", report::render_ablation(&copy));
        let chain = chain_policy_ablation(&cfg);
        println!("\n{}", report::render_ablation(&chain));
        return ExitCode::SUCCESS;
    }

    let scheduling_timer = registry.timer("dms_phase_scheduling_nanoseconds_total");
    let service = dms_service::ScheduleService::with_registry(
        dms_service::service::DEFAULT_SHARDS,
        Arc::clone(registry),
    );
    let (measurements, stats) = measure_suite_with_stats_on(&cli.config, &service);
    let scheduling = scheduling_timer.stop();
    let reporting_timer = registry.timer("dms_phase_reporting_nanoseconds_total");
    println!(
        "swept {} (loop, machine) tasks twice (IMS + DMS) on {} thread{} in {:.2} s \
         — {:.0} schedules/s, {:.1}M useful op instances covered",
        stats.tasks,
        stats.threads,
        if stats.threads == 1 { "" } else { "s" },
        stats.wall_seconds,
        stats.schedules_per_second(),
        stats.useful_instances as f64 / 1e6,
    );
    println!(
        "cache: {} of {} scheduler requests answered from the schedule cache",
        stats.cache_hits,
        stats.cache_hits + stats.cache_misses,
    );
    if stats.pressure_retries > 0 {
        println!(
            "pressure: {} schedule(s) exceeded a queue-file capacity and were retried at a \
             higher II",
            stats.pressure_retries,
        );
    }
    if cli.config.verify {
        println!(
            "verify: executed every schedule through regalloc + codegen on the simulator, \
             {} store values cross-checked against the scalar reference \
             (peak CQRF occupancy {})",
            stats.stores_verified, stats.peak_queue_depth,
        );
    }
    if stats.failed > 0 {
        eprintln!(
            "warning: {} tasks skipped because a scheduler{} failed",
            stats.failed,
            if cli.config.verify { " or its end-to-end verification" } else { "" },
        );
    }
    println!();
    if let Some(dir) = &cli.csv_dir {
        write_csv(dir, "measurements.csv", &report::measurements_csv(&measurements));
    }

    if matches!(cli.command, Command::Fig4 | Command::All) {
        let rows = figure4(&measurements);
        println!("{}", report::render_fig4(&rows));
        if let Some(dir) = &cli.csv_dir {
            write_csv(dir, "figure4.csv", &report::fig4_csv(&rows));
        }
    }
    if matches!(cli.command, Command::Fig5 | Command::All) {
        let rows = figure5(&measurements);
        println!("{}", report::render_fig5(&rows));
        if let Some(dir) = &cli.csv_dir {
            write_csv(dir, "figure5.csv", &report::fig5_csv(&rows));
        }
    }
    if matches!(cli.command, Command::Fig6 | Command::All) {
        let rows = figure6(&measurements);
        println!("{}", report::render_fig6(&rows));
        if let Some(dir) = &cli.csv_dir {
            write_csv(dir, "figure6.csv", &report::fig6_csv(&rows));
        }
    }
    // The three phases are scoped telemetry timers off one clock: the run
    // timer spans both, so scheduling + reporting + overhead == total by
    // construction (overhead is argument parsing, suite setup and teardown
    // outside the two phase scopes).
    let reporting = reporting_timer.stop();
    let total = run_timer.stop();
    let overhead = total.saturating_sub(scheduling).saturating_sub(reporting);
    println!(
        "wall time: {:.2} s scheduling, {:.2} s reporting, {:.2} s overhead (total {:.2} s)",
        scheduling.as_secs_f64(),
        reporting.as_secs_f64(),
        overhead.as_secs_f64(),
        total.as_secs_f64(),
    );
    // In verify mode a failed task is a compiler bug (a schedule that could
    // not be allocated, executed, or whose stores diverged from the scalar
    // reference): fail the run so scheduled CI sweeps gate on it.
    if cli.config.verify && stats.failed > 0 {
        eprintln!("error: {} task(s) failed end-to-end verification", stats.failed);
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
