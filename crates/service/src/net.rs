//! TCP transport for the schedule service.
//!
//! [`serve_on`] answers newline-delimited JSON requests (see [`crate::wire`])
//! on an already-bound `std::net::TcpListener`, with one thread per
//! connection — no async runtime, only the standard library; [`serve`]
//! binds an address first. A `{"op":"shutdown"}` request stops the accept
//! loop; the acceptor is unblocked by a self-connect so a plain blocking
//! `accept()` suffices. A connection made before the accept loop starts is
//! queued by the kernel on the bound listener, so there is no startup race
//! for a caller that binds first.
//!
//! Untrusted input cannot take the process down: a request line longer than
//! [`MAX_LINE_BYTES`], JSON nested deeper than [`wire::MAX_NESTING`], a
//! cluster count outside `1..=`[`wire::MAX_CLUSTERS`] and a `verify_trips`
//! above [`wire::MAX_VERIFY_TRIPS`] are answered with an error reply, and
//! the connection stays open.
//!
//! Handler threads poll their stream with a read timeout
//! (`READ_POLL_INTERVAL`, 50 ms) instead of blocking indefinitely: `serve`'s
//! `thread::scope` joins every handler before returning, so a handler
//! parked forever in a blocking read on an *idle* connection would turn one
//! quiet client into a shutdown that never completes. On every timeout the
//! handler re-checks the shutdown flag and hangs up once it is set.
//!
//! [`Client`] is the matching blocking connector used by the
//! `dms-experiments client` smoke driver and the CI service-smoke job.

use crate::service::{ScheduleRequest, ScheduleService};
use crate::wire;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Runs the service on `addr` until a shutdown request arrives.
///
/// Prints one `dms-service listening on <addr>` line once bound (the CI
/// smoke job and interactive users key off it), then accepts connections
/// forever, one handler thread each. Returns once a client sends
/// `{"op":"shutdown"}` and all handler threads have finished.
///
/// # Errors
///
/// Returns the bind error if `addr` cannot be bound.
pub fn serve(addr: impl ToSocketAddrs, service: Arc<ScheduleService>) -> std::io::Result<()> {
    serve_on(TcpListener::bind(addr)?, service)
}

/// Runs the service on an already-bound `listener` until a shutdown request
/// arrives: [`serve`] without the bind, for callers that need the address
/// (say, of port 0) before the accept loop starts.
///
/// # Errors
///
/// Returns the error if the listener's local address cannot be read.
pub fn serve_on(listener: TcpListener, service: Arc<ScheduleService>) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    println!("dms-service listening on {local} ({} cache shards)", service.num_shards());
    let shutdown = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            scope.spawn(move || handle_connection(stream, &service, &shutdown, local));
        }
    });
    Ok(())
}

/// How often an idle handler thread wakes up to re-check the shutdown
/// flag. Shutdown latency is bounded by this; it only ever costs a flag
/// load per idle connection per interval.
const READ_POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Longest request line a handler buffers, newline excluded. Far above any
/// schedule request (a few KB); a longer line is answered with an error
/// reply and the rest of it is discarded.
pub const MAX_LINE_BYTES: usize = 1 << 20;

fn handle_connection(
    stream: TcpStream,
    service: &ScheduleService,
    shutdown: &AtomicBool,
    local: std::net::SocketAddr,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if stream.set_read_timeout(Some(READ_POLL_INTERVAL)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    // Not `reader.lines()`: with a read timeout a line may arrive in
    // pieces, and `read_until` appends whatever bytes preceded the timeout
    // to `line`. Keep the accumulator across timeouts and only clear it
    // after a *complete* line is processed. Reads stop one byte past
    // `MAX_LINE_BYTES`, so `line` never grows beyond that.
    let mut line = Vec::new();
    // Whether the rest of an oversized line is being discarded.
    let mut discarding = false;
    loop {
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break, // EOF: client hung up
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                // Idle (or a partly received line): hang up if a shutdown
                // arrived on another connection, otherwise keep waiting.
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        }
        // A line without its newline is either cut at the length bound or
        // the last one before the peer hung up.
        let oversized = line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n');
        let reply = if discarding {
            discarding = oversized;
            line.clear();
            continue;
        } else if oversized {
            discarding = true;
            wire::encode_error(&format!("request line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => {
                    line.clear();
                    continue;
                }
                Ok(text) => answer(text.trim(), service, shutdown, local),
                Err(_) => wire::encode_error("request line is not valid UTF-8"),
            }
        };
        line.clear();
        if writer.write_all(reply.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
        {
            break;
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// The reply to one request line.
fn answer(
    line: &str,
    service: &ScheduleService,
    shutdown: &AtomicBool,
    local: std::net::SocketAddr,
) -> String {
    match wire::decode_request(line) {
        Err(e) => wire::encode_error(&e),
        Ok(wire::WireRequest::Stats) => {
            wire::encode_stats_response(service.cache_stats(), service.cache_len())
        }
        Ok(wire::WireRequest::Metrics) => wire::encode_metrics_response(&service.metrics_text()),
        Ok(wire::WireRequest::Shutdown) => {
            shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop: it re-checks the flag per
            // connection, so poke it with a throwaway connect.
            let _ = TcpStream::connect(local);
            wire::encode_shutdown_response()
        }
        Ok(wire::WireRequest::Schedule(ws)) => {
            let machine = ws.machine.build();
            let request = ScheduleRequest {
                body: &ws.body,
                machine: &machine,
                dms: ws.dms,
                scheduler: ws.scheduler,
                verify_trips: ws.verify_trips,
                contention: ws.contention,
            };
            wire::encode_response(&service.schedule(&request))
        }
    }
}

/// A blocking line-oriented client for the service.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to `addr`, retrying for roughly ten seconds so a client
    /// launched alongside the server (as the CI smoke job does) wins the
    /// startup race.
    ///
    /// # Errors
    ///
    /// Returns the final connect error if the server never comes up.
    pub fn connect_with_retry(addr: &str) -> std::io::Result<Client> {
        let mut last_err = None;
        for _ in 0..100 {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Client { reader, writer: stream });
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        Err(last_err.expect("retry loop ran at least once"))
    }

    /// Sends one request line and reads one response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; a closed connection surfaces as
    /// `UnexpectedEof`.
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        self.writer.write_all(request.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SchedulerKind;
    use crate::wire::{Json, WireMachine, WireSchedule};
    use dms_core::DmsConfig;
    use dms_ir::kernels;
    use dms_machine::TopologyKind;

    /// Binds port 0 and serves on that listener from a new thread. A test
    /// may connect at once: the kernel queues the connection on the bound
    /// listener until the accept loop takes it.
    fn spawn_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            serve_on(listener, Arc::new(ScheduleService::default())).unwrap();
        });
        (addr, handle)
    }

    /// Sends `line` plus a newline on `stream` and parses the reply line.
    fn send(stream: &mut TcpStream, line: &[u8]) -> Json {
        stream.write_all(line).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reply = String::new();
        BufReader::new(stream.try_clone().unwrap()).read_line(&mut reply).unwrap();
        Json::parse(reply.trim()).unwrap()
    }

    /// Regression test for a crash: one line of 200 000 `[` used to
    /// overflow the handler's stack in the recursive JSON parser and abort
    /// the whole process. It now gets an error reply, and both that
    /// connection and a new one keep being answered.
    #[test]
    fn deeply_nested_request_gets_an_error_reply_and_serve_survives() {
        let (addr, handle) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        let reply = send(&mut stream, "[".repeat(200_000).as_bytes());
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("nesting"), "{error}");
        let stats = send(&mut stream, wire::encode_stats_request().as_bytes());
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));

        let mut fresh = TcpStream::connect(addr).unwrap();
        let stats = send(&mut fresh, wire::encode_stats_request().as_bytes());
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        send(&mut fresh, wire::encode_shutdown_request().as_bytes());
        handle.join().unwrap();
    }

    /// A request line longer than the bound is answered with one error
    /// reply and discarded; the next line on the connection is answered.
    #[test]
    fn oversized_request_line_gets_an_error_reply_and_the_connection_survives() {
        let (addr, handle) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        let reply = send(&mut stream, &vec![b' '; 2 * MAX_LINE_BYTES + 7]);
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("longer than"), "{error}");
        let stats = send(&mut stream, wire::encode_stats_request().as_bytes());
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        send(&mut stream, wire::encode_shutdown_request().as_bytes());
        handle.join().unwrap();
    }

    /// A verified DMS request for a small FIR on 2 ring clusters.
    fn fir_request() -> String {
        wire::encode_schedule_request(&WireSchedule {
            body: kernels::fir(4, 32),
            machine: WireMachine {
                unclustered: false,
                clusters: 2,
                copy_units: 1,
                cqrf_capacity: None,
                topology: TopologyKind::Ring,
            },
            scheduler: SchedulerKind::Dms,
            dms: DmsConfig::default(),
            verify_trips: Some(32),
            contention: false,
        })
    }

    /// Regression test for a handler panic: `clusters: 0` reached
    /// `MachineConfig`'s assertion, which killed the handler thread and
    /// re-raised the panic out of `serve_on`; a count near `u32::MAX`
    /// asked for tens of GB; and the verifying walk ran for any trip count
    /// it was given. Each now gets an error reply, the connection keeps
    /// serving, and `serve_on` returns cleanly.
    #[test]
    fn out_of_range_clusters_and_verify_trips_get_error_replies() {
        let (addr, handle) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        let good = fir_request();
        let cases = [
            ("\"clusters\":2", "\"clusters\":0".to_string(), "machine clusters"),
            ("\"clusters\":2", format!("\"clusters\":{}", u32::MAX), "machine clusters"),
            (
                "\"verify_trips\":32",
                format!("\"verify_trips\":{}", wire::MAX_VERIFY_TRIPS + 1),
                "verify_trips",
            ),
        ];
        for (needle, replacement, field) in cases {
            let bad = good.replace(needle, &replacement);
            assert_ne!(bad, good, "pattern {needle} not found in the encoded request");
            let reply = send(&mut stream, bad.as_bytes());
            assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false), "{replacement}");
            let error = reply.get("error").and_then(Json::as_str).unwrap();
            assert!(error.contains(field), "{replacement}: {error}");
        }
        let reply = send(&mut stream, good.as_bytes());
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        send(&mut stream, wire::encode_shutdown_request().as_bytes());
        handle.join().unwrap();
    }

    #[test]
    fn serve_answers_schedules_caches_repeats_and_shuts_down() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect_with_retry(&addr.to_string()).unwrap();

        let request = fir_request();

        let cold = Json::parse(&client.roundtrip(&request).unwrap()).unwrap();
        assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(cold.get("cache_hit").and_then(Json::as_bool), Some(false));
        assert!(cold.get("summary").unwrap().get("ii").and_then(Json::as_u64).unwrap() >= 1);
        assert!(!cold.get("verify").unwrap().is_null());

        let warm = Json::parse(&client.roundtrip(&request).unwrap()).unwrap();
        assert_eq!(warm.get("cache_hit").and_then(Json::as_bool), Some(true));
        assert_eq!(warm.get("summary"), cold.get("summary"), "warm must equal cold");

        let stats = Json::parse(&client.roundtrip(&wire::encode_stats_request()).unwrap()).unwrap();
        assert_eq!(stats.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("entries").and_then(Json::as_u64), Some(1));

        let scrape =
            Json::parse(&client.roundtrip(&wire::encode_metrics_request()).unwrap()).unwrap();
        assert_eq!(scrape.get("ok").and_then(Json::as_bool), Some(true));
        let exposition = scrape.get("metrics").and_then(Json::as_str).unwrap();
        assert!(exposition.contains("dms_cache_hits_total 1"), "scrape:\n{exposition}");
        assert!(exposition.contains("dms_request_latency_micros_count 2"), "scrape:\n{exposition}");

        let bye =
            Json::parse(&client.roundtrip(&wire::encode_shutdown_request()).unwrap()).unwrap();
        assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
        handle.join().unwrap();
    }

    #[test]
    fn malformed_requests_get_error_replies_not_disconnects() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect_with_retry(&addr.to_string()).unwrap();

        let bad = Json::parse(&client.roundtrip("{\"op\":\"nope\"}").unwrap()).unwrap();
        assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
        let garbled = Json::parse(&client.roundtrip("{not json").unwrap()).unwrap();
        assert_eq!(garbled.get("ok").and_then(Json::as_bool), Some(false));

        // The connection survived both errors.
        let stats = Json::parse(&client.roundtrip(&wire::encode_stats_request()).unwrap()).unwrap();
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));

        client.roundtrip(&wire::encode_shutdown_request()).unwrap();
        handle.join().unwrap();
    }

    /// Regression test for the shutdown hang: a second connection that
    /// never sends anything must not keep `serve` from returning after a
    /// shutdown request on the first. Before handler threads polled with a
    /// read timeout, the idle handler blocked forever in its read and the
    /// serve scope joined it forever.
    #[test]
    fn shutdown_returns_even_with_an_idle_second_connection() {
        let (addr, handle) = spawn_server();
        let mut active = Client::connect_with_retry(&addr.to_string()).unwrap();
        // An idle connection: opened, never written to, kept alive until
        // after serve has returned.
        let idle = TcpStream::connect(addr).unwrap();

        let started = std::time::Instant::now();
        let bye =
            Json::parse(&active.roundtrip(&wire::encode_shutdown_request()).unwrap()).unwrap();
        assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
        handle.join().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "serve took {:?} to return after shutdown with an idle connection",
            started.elapsed()
        );
        drop(idle);
    }

    /// A request line delivered byte-by-byte across many poll timeouts
    /// must still be parsed as one line (the handler keeps its partial
    /// read across `WouldBlock`/`TimedOut`).
    #[test]
    fn slowly_trickled_requests_survive_read_timeouts() {
        let (addr, handle) = spawn_server();
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = wire::encode_stats_request();
        let (head, tail) = request.split_at(request.len() / 2);
        stream.write_all(head.as_bytes()).unwrap();
        stream.flush().unwrap();
        // Longer than the poll interval: the handler times out mid-line.
        std::thread::sleep(READ_POLL_INTERVAL * 3);
        stream.write_all(tail.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();

        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let parsed = Json::parse(reply.trim()).unwrap();
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(true));

        stream.write_all(wire::encode_shutdown_request().as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        handle.join().unwrap();
    }
}
