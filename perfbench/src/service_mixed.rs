//! The `service_mixed` workload: a closed loop of wire requests from this
//! process to a `dms-experiments serve` subprocess over loopback.
//!
//! The requests follow a seeded walk over the cells (loop × cluster count)
//! of the paper suite's first loops: each visit sends the cell's IMS
//! request and then its DMS request, as the sweep does. About one visit in four goes to a
//! cell not visited before (a miss that schedules and inserts); the rest
//! repeat a visited cell (hits). Each connection sends its next line only
//! after the reply to the previous one.

use crate::check::{fnv64, Checks, Reference};
use crate::layers::{share_pct, Trace};
use crate::stats::{median, median_and_tail, peak_rss_mb, SplitMix};
use crate::{Metric, Options, Outcome};
use dms_core::DmsConfig;
use dms_machine::{MachineConfig, TopologyKind};
use dms_service::net::Client;
use dms_service::wire::{self, Json, WireMachine, WireRequest, WireSchedule};
use dms_service::{run_indexed, CacheCounters, ScheduleRequest, ScheduleService, SchedulerKind};
use dms_workloads::{generate, unroll_for_machine, SuiteConfig, UnrollPolicy};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// Loops of the paper's suite (its first ones) the walk draws cells from.
const UNIVERSE_LOOPS: usize = 512;
/// Cluster counts of the walk's cells.
const CLUSTERS: [u32; 3] = [2, 4, 8];
/// One visit in this many goes to a new cell.
const NEW_CELL_ONE_IN: u64 = 4;
/// Visits every run completes, even past `--seconds`; the reply digest is
/// taken over them.
const CHECKED_VISITS: usize = 64;
/// Visits of each pass of the traced run.
const TRACED_VISITS: usize = 48;
/// Times the set-up is repeated; the median is reported as `setup_s`.
const SETUP_REPEATS: usize = 5;

/// The seeded walk: visit `i` always goes to the same cell, whichever
/// connection sends it.
#[derive(Debug)]
struct Walk {
    rng: SplitMix,
    order: Vec<usize>,
    visited: Vec<usize>,
    issued: usize,
}

impl Walk {
    /// A walk over `cells` cells.
    fn new(seed: u64, cells: usize) -> Walk {
        let mut rng = SplitMix::new(seed);
        let mut order: Vec<usize> = (0..cells).collect();
        rng.shuffle(&mut order);
        Walk { rng, order, visited: Vec::new(), issued: 0 }
    }

    /// The next visit's index and cell. Once every cell has been visited,
    /// all further visits repeat one.
    fn next_visit(&mut self) -> (usize, usize) {
        let fresh = self.visited.is_empty() || self.rng.next_u64().is_multiple_of(NEW_CELL_ONE_IN);
        let cell = if fresh && self.visited.len() < self.order.len() {
            let cell = self.order[self.visited.len()];
            self.visited.push(cell);
            cell
        } else {
            self.visited[self.rng.below(self.visited.len())]
        };
        self.issued += 1;
        (self.issued - 1, cell)
    }
}

/// A cell's unrolled body and its two pre-encoded request lines.
struct Cell {
    body: dms_ir::Loop,
    clusters: u32,
    lines: [String; 2],
}

fn wire_schedule(body: &dms_ir::Loop, clusters: u32, scheduler: SchedulerKind) -> WireSchedule {
    WireSchedule {
        body: body.clone(),
        machine: WireMachine {
            unclustered: scheduler == SchedulerKind::Ims,
            clusters,
            copy_units: 1,
            cqrf_capacity: None,
            topology: TopologyKind::Ring,
        },
        scheduler,
        dms: DmsConfig::default(),
        verify_trips: None,
        contention: false,
    }
}

/// The walk's cells: loop-major, cluster counts in order, each body
/// unrolled for its machine as `dms-experiments client` does.
fn build_cells() -> Vec<Cell> {
    let suite = generate(&SuiteConfig::small(UNIVERSE_LOOPS));
    let policy = UnrollPolicy::default();
    let mut cells = Vec::new();
    for suite_loop in &suite {
        for clusters in CLUSTERS {
            let fus = MachineConfig::paper_clustered(clusters).total_useful_fus();
            let body = unroll_for_machine(&suite_loop.body, fus, &policy);
            let lines = [SchedulerKind::Ims, SchedulerKind::Dms]
                .map(|k| wire::encode_schedule_request(&wire_schedule(&body, clusters, k)));
            cells.push(Cell { body, clusters, lines });
        }
    }
    cells
}

/// A running `dms-experiments serve` subprocess.
struct Server {
    child: Child,
    addr: String,
    // Kept open until the child exits: it prints a last line at shutdown.
    _stdout: BufReader<ChildStdout>,
    stopped: bool,
}

impl Server {
    fn start(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .strip_prefix("dms-service listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let mut server = Server { child, addr: String::new(), _stdout: stdout, stopped: false };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!("the server did not announce its address: {line:?}")),
        }
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect_with_retry(&self.addr)
            .map_err(|e| format!("connecting to {}: {e}", self.addr))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let mut client = self.connect()?;
        client
            .roundtrip(&wire::encode_shutdown_request())
            .map_err(|e| format!("shutdown request: {e}"))?;
        let status = self.child.wait().map_err(|e| format!("waiting for the server: {e}"))?;
        self.stopped = true;
        if status.success() {
            Ok(())
        } else {
            Err(format!("the server exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.stopped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The server's cache counters and request-latency totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct ServerCounters {
    cache: CacheCounters,
    entries: u64,
    latency_sum_us: u64,
    latency_count: u64,
}

fn scrape(client: &mut Client) -> Result<ServerCounters, String> {
    let io = |e: std::io::Error| format!("scraping the server: {e}");
    let stats = Json::parse(&client.roundtrip(&wire::encode_stats_request()).map_err(io)?)?;
    let field = |key: &str| {
        stats.get(key).and_then(Json::as_u64).ok_or(format!("stats reply has no {key}"))
    };
    let metrics = Json::parse(&client.roundtrip(&wire::encode_metrics_request()).map_err(io)?)?;
    let text = metrics.get("metrics").and_then(Json::as_str).ok_or("metrics reply has no text")?;
    let sample = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|v| v.strip_prefix(' ')))
            .and_then(|v| v.trim().parse().ok())
            .ok_or(format!("metrics text has no {name}"))
    };
    Ok(ServerCounters {
        cache: CacheCounters {
            hits: field("hits")?,
            misses: field("misses")?,
            inserts: field("inserts")?,
        },
        entries: field("entries")?,
        latency_sum_us: sample("dms_request_latency_micros_sum")?,
        latency_count: sample("dms_request_latency_micros_count")?,
    })
}

/// One answered visit.
struct Visit {
    index: usize,
    cell: usize,
    replies: [String; 2],
    latency_us: [f64; 2],
}

/// Runs the closed loop on `clients`, sharing one walk, until at least
/// `min_visits` visits were sent and `stop` returns true. Returns the visits in index
/// order and the wall time; wire and I/O errors go to `checks`.
fn closed_loop(
    clients: &mut [Client],
    cells: &[Cell],
    walk: &Mutex<Walk>,
    min_visits: usize,
    stop: impl Fn() -> bool + Sync,
    checks: &Mutex<Checks>,
) -> (Vec<Visit>, f64) {
    let started = Instant::now();
    let visits = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (visits, walk, stop) = (&visits, walk, &stop);
            scope.spawn(move || loop {
                let (index, cell) = {
                    let mut walk = walk.lock().expect("walk lock poisoned");
                    if walk.issued >= min_visits && stop() {
                        break;
                    }
                    walk.next_visit()
                };
                let mut replies = [String::new(), String::new()];
                let mut latency_us = [0.0; 2];
                for (k, line) in cells[cell].lines.iter().enumerate() {
                    let sent = Instant::now();
                    match client.roundtrip(line) {
                        Ok(reply) => replies[k] = reply,
                        Err(e) => {
                            checks
                                .lock()
                                .expect("checks lock poisoned")
                                .check(false, || format!("roundtrip failed: {e}"));
                            return;
                        }
                    }
                    latency_us[k] = sent.elapsed().as_secs_f64() * 1e6;
                }
                visits.lock().expect("visits lock poisoned").push(Visit {
                    index,
                    cell,
                    replies,
                    latency_us,
                });
            });
        }
    });
    let wall = started.elapsed().as_secs_f64();
    let mut visits = visits.into_inner().expect("visits lock poisoned");
    visits.sort_by_key(|v| v.index);
    (visits, wall)
}

/// A reply with its `cache_hit` field removed, for comparing a hit with the
/// cold answer.
fn without_cache_hit(reply: &Json) -> Json {
    match reply {
        Json::Obj(fields) => {
            Json::Obj(fields.iter().filter(|(k, _)| k != "cache_hit").cloned().collect())
        }
        other => other.clone(),
    }
}

/// In-process answers of `service` for both requests of a cell, as wire
/// lines.
fn direct_answers(service: &ScheduleService, cell: &Cell) -> [Json; 2] {
    [SchedulerKind::Ims, SchedulerKind::Dms].map(|k| {
        let ws = wire_schedule(&cell.body, cell.clusters, k);
        let machine = ws.machine.build();
        let req = ScheduleRequest {
            body: &ws.body,
            machine: &machine,
            dms: ws.dms,
            scheduler: k,
            verify_trips: None,
            contention: false,
        };
        Json::parse(&wire::encode_response(&service.schedule(&req)))
            .expect("the wire renders valid JSON")
    })
}

/// Checks every reply: a successful answer equal, `cache_hit` aside, to the
/// direct in-process answer for the same cell.
fn check_replies(checks: &mut Checks, direct: &[[Json; 2]], visits: &[Visit]) {
    for visit in visits {
        for (reply, expected) in visit.replies.iter().zip(direct[visit.cell].iter()) {
            let parsed = Json::parse(reply);
            let ok = parsed.as_ref().is_ok_and(|j| {
                j.get("ok").and_then(Json::as_bool) == Some(true)
                    && without_cache_hit(j) == without_cache_hit(expected)
            });
            checks.check(ok, || format!("visit {} got {reply}", visit.index));
        }
    }
}

fn is_hit(reply: &str) -> bool {
    reply.contains("\"cache_hit\":true")
}

/// The exact metrics over every cell the walk can visit, from the direct
/// answers the wire replies are checked against: summed DMS cycles and the
/// share of cells whose DMS II equals the IMS II.
fn exact_metrics(cells: &[Cell], direct: &[[Json; 2]]) -> (f64, f64) {
    let field = |j: &Json, key: &str| {
        j.get("summary").and_then(|s| s.get(key)).and_then(Json::as_u64).unwrap_or(0)
    };
    let mut cycles = 0u64;
    let mut no_overhead = 0usize;
    for (cell, [ims, dms]) in cells.iter().zip(direct) {
        // `Schedule::cycles`: (trips + stages - 1) * II.
        cycles += (cell.body.trip_count + field(dms, "stages") - 1) * field(dms, "ii");
        no_overhead += usize::from(field(ims, "ii") == field(dms, "ii"));
    }
    (cycles as f64, 100.0 * no_overhead as f64 / cells.len().max(1) as f64)
}

/// Digest of the first [`CHECKED_VISITS`] visits' replies, `cache_hit`
/// removed.
fn reply_digest(visits: &[Visit]) -> u64 {
    let mut text = String::new();
    for visit in &visits[..CHECKED_VISITS.min(visits.len())] {
        for reply in &visit.replies {
            text.push_str(
                &Json::parse(reply).map(|j| without_cache_hit(&j).render()).unwrap_or_default(),
            );
            text.push('\n');
        }
    }
    fnv64(text.as_bytes())
}

/// Builds the cells, starts a server and connects `conns` clients; returns
/// them with the set-up time.
fn set_up(opts: &Options, conns: usize) -> Result<(Vec<Cell>, Server, Vec<Client>, f64), String> {
    let started = Instant::now();
    let cells = build_cells();
    let server = Server::start(&opts.server_bin)?;
    let clients = (0..conns).map(|_| server.connect()).collect::<Result<Vec<_>, _>>()?;
    Ok((cells, server, clients, started.elapsed().as_secs_f64()))
}

/// The end-to-end run.
pub fn run(opts: &Options, reference: &Reference) -> Result<Outcome, String> {
    let conns = opts.threads;
    let mut setup_times = Vec::new();
    let (cells, server, mut clients) = loop {
        let (cells, server, clients, seconds) = set_up(opts, conns)?;
        setup_times.push(seconds);
        if setup_times.len() == SETUP_REPEATS {
            break (cells, server, clients);
        }
        drop(clients);
        server.stop()?;
    };
    let mut scraper = server.connect()?;
    let before = scrape(&mut scraper)?;

    let checks = Mutex::new(Checks::default());
    let walk = Mutex::new(Walk::new(opts.seed, cells.len()));
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    let (visits, wall) = closed_loop(
        &mut clients,
        &cells,
        &walk,
        CHECKED_VISITS,
        || Instant::now() >= deadline,
        &checks,
    );

    let after = scrape(&mut scraper)?;
    let peak_rss = peak_rss_mb(&server.pid())?;
    drop((clients, scraper));
    server.stop()?;

    let mut checks = checks.into_inner().expect("checks lock poisoned");
    let service = ScheduleService::default();
    let direct = run_indexed(cells.len(), opts.threads, |i| direct_answers(&service, &cells[i]));
    check_replies(&mut checks, &direct, &visits);
    let (sched_cycles, no_overhead_pct) = exact_metrics(&cells, &direct);
    let digest = reply_digest(&visits);
    reference.expect(
        &mut checks,
        "service_mixed",
        opts.seed,
        "reply_digest",
        &format!("{digest:#018x}"),
    );

    let latencies: Vec<f64> = visits.iter().flat_map(|v| v.latency_us).collect();
    let (p50, tail) = median_and_tail(&latencies);
    let hit_visits: Vec<f64> = visits
        .iter()
        .filter(|v| v.replies.iter().all(|r| is_hit(r)))
        .map(|v| v.latency_us.iter().sum())
        .collect();
    let mean_hit_us = hit_visits.iter().sum::<f64>() / hit_visits.len() as f64;
    let server_requests = after.latency_count - before.latency_count;
    let server_mean_us =
        (after.latency_sum_us - before.latency_sum_us) as f64 / server_requests.max(1) as f64;
    eprintln!(
        "service_mixed: {} visits ({} requests, {} samples) on {conns} connections in {wall:.2} s; \
         tail is p{:.2}; {} hit visits; server time {server_mean_us:.1} us/request over \
         {server_requests} requests; reply digest {digest:#018x}",
        visits.len(),
        2 * visits.len(),
        latencies.len(),
        crate::stats::tail_percentile(latencies.len()).unwrap_or(100.0),
        hit_visits.len()
    );
    let metrics = vec![
        Metric::new("setup_s", median(&setup_times), "s"),
        Metric::new("cells_per_s", visits.len() as f64 / wall, "1/s"),
        // The rate the loop would sustain if every visit were a hit.
        Metric::new("warm_cells_per_s", conns as f64 * 1e6 / mean_hit_us, "1/s"),
        Metric::new("req_per_s", latencies.len() as f64 / wall, "1/s"),
        Metric::new("req_p50_us", p50, "us"),
        Metric::new("req_tail_us", tail, "us"),
        Metric::new("sched_cycles", sched_cycles, "cycles"),
        Metric::new("ii_no_overhead_pct", no_overhead_pct, "%"),
        // No request asks for a contention replay: the achieved II is the
        // scheduled II.
        Metric::new("achieved_ii_slowdown", 1.0, "ratio"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    Ok(Outcome { checks, metrics })
}

/// One untraced pass of the traced run: a fresh server, `conns`
/// connections, the first [`TRACED_VISITS`] visits of the walk. Returns
/// the wall time.
fn untraced_prefix(
    opts: &Options,
    cells: &[Cell],
    conns: usize,
    checks: &Mutex<Checks>,
) -> Result<f64, String> {
    let server = Server::start(&opts.server_bin)?;
    let mut clients = (0..conns).map(|_| server.connect()).collect::<Result<Vec<_>, _>>()?;
    let walk = Mutex::new(Walk::new(opts.seed, cells.len()));
    let (_, wall) = closed_loop(&mut clients, cells, &walk, TRACED_VISITS, || true, checks);
    drop(clients);
    server.stop()?;
    Ok(wall)
}

/// The traced run: the walk's first [`TRACED_VISITS`] visits untraced on
/// one connection and on `threads` connections, then traced on one
/// connection, each against a fresh server. The traced pass replays the
/// server's side of each request in process: `wire::decode_request`,
/// `ScheduleService::schedule` on a mirror service (with its layer
/// replays) and `wire::encode_response`.
pub fn run_traced(opts: &Options, reference: &Reference) -> Result<(Outcome, Trace), String> {
    let cells = build_cells();
    let shared_checks = Mutex::new(Checks::default());
    let wall_1 = untraced_prefix(opts, &cells, 1, &shared_checks)?;
    let wall_n = untraced_prefix(opts, &cells, opts.threads, &shared_checks)?;
    let mut checks = shared_checks.into_inner().expect("checks lock poisoned");

    let server = Server::start(&opts.server_bin)?;
    let mut client = server.connect()?;
    let mut scraper = server.connect()?;
    let before = scrape(&mut scraper)?;
    let mirror = ScheduleService::default();
    let mut trace = Trace::default();
    let mut walk = Walk::new(opts.seed, cells.len());
    let mut request_bytes = 0usize;
    let mut wire_ns = 0u64;
    for _ in 0..TRACED_VISITS {
        let (_, cell) = walk.next_visit();
        let envelope = trace.tracer.begin("client.visit", 0);
        for line in &cells[cell].lines {
            let request = trace.new_request();
            request_bytes += line.len() + 1;
            let (reply, _) = trace.tracer.time("net.roundtrip", request, || client.roundtrip(line));
            let reply = reply.map_err(|e| format!("roundtrip failed: {e}"))?;
            let (decoded, decode_ns) =
                trace.tracer.time("wire.decode", request, || wire::decode_request(line));
            let Ok(WireRequest::Schedule(ws)) = decoded else {
                return Err("a request line did not decode as a schedule request".to_string());
            };
            let machine = ws.machine.build();
            let req = ScheduleRequest {
                body: &ws.body,
                machine: &machine,
                dms: ws.dms,
                scheduler: ws.scheduler,
                verify_trips: ws.verify_trips,
                contention: ws.contention,
            };
            let answer = trace.schedule(&mirror, &req, request);
            let (rendered, encode_ns) =
                trace.tracer.time("wire.encode", request, || wire::encode_response(&answer));
            wire_ns += decode_ns + encode_ns;
            checks.check(rendered == reply, || {
                format!("the mirror answered {rendered}, the server {reply}")
            });
        }
        trace.tracer.end(envelope);
    }
    let after = scrape(&mut scraper)?;
    drop((client, scraper));
    server.stop()?;
    for note in &trace.disagreements {
        checks.check(false, || note.clone());
    }

    // The scrapes are not schedule requests, so the server's latency
    // histogram counts exactly the traced requests.
    let requests = 2 * TRACED_VISITS as u64;
    let server = CacheCounters {
        hits: after.cache.hits - before.cache.hits,
        misses: after.cache.misses - before.cache.misses,
        inserts: after.cache.inserts - before.cache.inserts,
    };
    checks.check(
        server == mirror.cache_stats() && after.entries == mirror.cache_len() as u64,
        || format!("server cache {server:?} differs from the mirror's {:?}", mirror.cache_stats()),
    );
    checks.check(after.latency_count - before.latency_count == requests, || {
        "the server's latency histogram did not count every request".to_string()
    });
    let roundtrip_ns = trace.layer_ns(&["net.roundtrip"]);
    let server_ns = (after.latency_sum_us - before.latency_sum_us) * 1000;
    let transport_ns = roundtrip_ns as f64 - server_ns as f64 - wire_ns as f64;

    let mut metrics = trace.layer_metrics(roundtrip_ns);
    metrics.extend(crate::extra_metrics(&trace, server, after.entries));
    metrics.extend([
        Metric::new(
            "service.overhead_share_pct",
            share_pct(trace.overhead_ns(), roundtrip_ns),
            "%",
        ),
        Metric::new("wire.request_bytes", request_bytes as f64 / requests as f64, "bytes"),
        Metric::new("net.transport_us", transport_ns / requests as f64 / 1e3, "us"),
        Metric::new("net.transport_share_pct", 100.0 * transport_ns / roundtrip_ns as f64, "%"),
        Metric::new("runner.parallel_efficiency", wall_1 / (wall_n * opts.threads as f64), "ratio"),
        Metric::new(
            "trace.overhead_pct",
            100.0 * (roundtrip_ns as f64 / 1e9 - wall_1) / wall_1,
            "%",
        ),
    ]);
    crate::expect_counts(&mut checks, reference, "service_mixed", opts.seed, &metrics);
    Ok((Outcome { checks, metrics }, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_seeded_and_mostly_repeats() {
        let visits = |seed| {
            let mut walk = Walk::new(seed, 20_000);
            (0..4000).map(|_| walk.next_visit().1).collect::<Vec<_>>()
        };
        let a = visits(1);
        assert_eq!(a, visits(1), "the same seed walks the same cells");
        assert_ne!(a, visits(2));
        let distinct = a.iter().collect::<std::collections::BTreeSet<_>>().len();
        let new_share = distinct as f64 / a.len() as f64;
        assert!((0.2..0.3).contains(&new_share), "{distinct} new cells in {} visits", a.len());
    }

    #[test]
    fn an_exhausted_walk_keeps_repeating_cells() {
        let mut walk = Walk::new(3, 5);
        let cells: Vec<usize> = (0..200).map(|_| walk.next_visit().1).collect();
        assert!(cells.iter().all(|&c| c < 5));
        assert_eq!(cells.iter().collect::<std::collections::BTreeSet<_>>().len(), 5);
    }
}
