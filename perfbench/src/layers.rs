//! The traced run's view of a schedule request: the real
//! `ScheduleService::schedule` call, followed by a replay of the layer calls
//! that request makes inside the service, each in its own span.
//!
//! The replay calls the layers' public entry points with the request's
//! inputs, in the order `ScheduleService::schedule`, `verify_schedule` and
//! `replay_schedule` call them. Every layer is deterministic, so the replay
//! does exactly the work the service did; its spans give each layer's time,
//! and the service call's duration minus the replayed layers is the
//! service's own overhead.

use crate::spans::{layer_table, Tracer};
use crate::Metric;
use dms_core::dms_schedule;
use dms_ir::canonical_hash;
use dms_regalloc::{allocate, emit};
use dms_sched::{ims_schedule, validate_schedule, ImsConfig, ScheduleResult};
use dms_service::hash::guard_fingerprint;
use dms_service::{
    ScheduleRequest, ScheduleResponse, ScheduleService, SchedulerKind, ServiceError,
};
use dms_sim::{contended_replay, execute_program, reference_trace};
use std::collections::BTreeMap;

/// The layers of the per-layer table, named `module.function` after the
/// public entry point each span times.
pub const LAYERS: [&str; 15] = [
    "workloads.unroll_for_machine",
    "ir.canonical_hash",
    "service.guard_fingerprint",
    "sched.ims_schedule",
    "core.dms_schedule",
    "sched.validate_schedule",
    "regalloc.allocate",
    "regalloc.emit",
    "sim.execute_program",
    "sim.reference_trace",
    "sim.contended_replay",
    "service.schedule",
    "wire.encode",
    "wire.decode",
    "net.roundtrip",
];

/// A traced run in progress: the spans, exact counts and per-request
/// service overheads.
#[derive(Debug, Default)]
pub struct Trace {
    /// Span recorder.
    pub tracer: Tracer,
    /// Exact counts (`core.dms_schedule.ii_attempts`, ...).
    pub counts: BTreeMap<&'static str, u64>,
    /// `service.schedule` minus its replayed layers, per miss, in µs.
    pub miss_overhead_us: Vec<f64>,
    /// The same for hits (lookup and response clone), in µs.
    pub hit_overhead_us: Vec<f64>,
    /// Replayed layers that disagreed with the service's answer.
    pub disagreements: Vec<String>,
    next_request: u64,
}

impl Trace {
    /// A fresh request identifier.
    pub fn new_request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    /// Adds `n` to an exact count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Sends one request to `service` inside a `service.schedule` span,
    /// then replays its layer calls. Returns the service's answer.
    pub fn schedule(
        &mut self,
        service: &ScheduleService,
        req: &ScheduleRequest<'_>,
        request: u64,
    ) -> Result<ScheduleResponse, ServiceError> {
        let (answer, service_ns) =
            self.tracer.time("service.schedule", request, || service.schedule(req));
        let hit = answer.as_ref().is_ok_and(|r| r.cache_hit);
        let layers_ns = self.replay_layers(req, !hit, answer.as_ref().ok(), request);
        let overhead_us = (service_ns as f64 - layers_ns as f64) / 1e3;
        if hit {
            self.hit_overhead_us.push(overhead_us);
        } else {
            self.miss_overhead_us.push(overhead_us);
        }
        answer
    }

    /// Replays the layer calls of one request and returns their summed
    /// span time in nanoseconds. `miss` selects the cold path (scheduler,
    /// verify, replay) after the key and guard every request computes.
    fn replay_layers(
        &mut self,
        req: &ScheduleRequest<'_>,
        miss: bool,
        answer: Option<&ScheduleResponse>,
        request: u64,
    ) -> u64 {
        let t = &mut self.tracer;
        let mut total = 0;
        total += t.time("ir.canonical_hash", request, || canonical_hash(&req.body.ddg)).1;
        total += t.time("service.guard_fingerprint", request, || guard_fingerprint(req.body)).1;
        if !miss {
            return total;
        }
        let result: ScheduleResult = match req.scheduler {
            SchedulerKind::Ims => {
                let (r, ns) = t.time("sched.ims_schedule", request, || {
                    ims_schedule(req.body, req.machine, &ImsConfig::default())
                });
                total += ns;
                match r {
                    Ok(r) => r,
                    Err(_) => return total,
                }
            }
            SchedulerKind::Dms => {
                let (r, ns) = t.time("core.dms_schedule", request, || {
                    dms_schedule(req.body, req.machine, &req.dms)
                });
                total += ns;
                match r {
                    Ok(outcome) => {
                        self.count(
                            "core.dms_schedule.ii_attempts",
                            u64::from(outcome.result.stats.ii_attempts),
                        );
                        self.count(
                            "core.dms_schedule.pressure_retries",
                            u64::from(outcome.pressure_retries),
                        );
                        outcome.result
                    }
                    Err(_) => return total,
                }
            }
        };
        if let Some(served) = answer {
            let served = served.output.result();
            if served.ii() != result.ii() || served.summary() != result.summary() {
                self.disagreements.push(format!(
                    "replayed {} of {} scheduled II {} but the service answered II {}",
                    if req.scheduler == SchedulerKind::Ims { "IMS" } else { "DMS" },
                    req.body.name,
                    result.ii(),
                    served.ii()
                ));
            }
        }
        let Some(trips) = req.verify_trips else { return total };
        total += self.replay_verify(req, &result, trips, request);
        if req.contention {
            total += self.replay_contention(req, &result, trips, request);
        }
        total
    }

    /// The layer calls of `verify_schedule`, in its order.
    fn replay_verify(
        &mut self,
        req: &ScheduleRequest<'_>,
        result: &ScheduleResult,
        trips: u64,
        request: u64,
    ) -> u64 {
        let machine = req.machine;
        let t = &mut self.tracer;
        let mut total = 0;
        total += t
            .time("sched.validate_schedule", request, || {
                validate_schedule(&result.ddg, machine, &result.schedule)
            })
            .1;
        total += t.time("regalloc.allocate", request, || allocate(result, machine)).1;
        let (program, ns) = t.time("regalloc.emit", request, || emit(result, machine));
        total += ns;
        let (exec, ns) = t.time("sim.execute_program", request, || {
            execute_program(&program, &result.ddg, machine, trips)
        });
        total += ns;
        total += t.time("sim.reference_trace", request, || reference_trace(&req.body.ddg, trips)).1;
        self.count("regalloc.emit.ops", program.total_ops() as u64);
        if let Ok(exec) = exec {
            self.count("sim.execute_program.instances", exec.instances_executed);
        }
        total
    }

    /// The layer calls of `replay_schedule`: a second emit, then the
    /// contention replay.
    fn replay_contention(
        &mut self,
        req: &ScheduleRequest<'_>,
        result: &ScheduleResult,
        trips: u64,
        request: u64,
    ) -> u64 {
        let machine = req.machine;
        let t = &mut self.tracer;
        let (program, emit_ns) = t.time("regalloc.emit", request, || emit(result, machine));
        let (report, replay_ns) = t.time("sim.contended_replay", request, || {
            contended_replay(&program, &result.ddg, machine, trips)
        });
        self.count("regalloc.emit.ops", program.total_ops() as u64);
        if let Ok(report) = report {
            self.count("sim.contended_replay.stall_cycles", report.stall_cycles);
            self.count("sim.contended_replay.serialized_transfers", report.serialized_transfers);
        }
        emit_ns + replay_ns
    }

    /// Summed span time of the named layers, in nanoseconds. Called with
    /// the layers whose work the untraced run also does (the others are
    /// replays that decompose them), it is the traced run's own measure of
    /// the untraced work.
    pub fn layer_ns(&self, layers: &[&str]) -> u64 {
        self.tracer.spans().iter().filter(|s| layers.contains(&s.name)).map(|s| s.duration()).sum()
    }

    /// Summed service overhead over every request (`service.schedule`
    /// minus its replayed layers), in nanoseconds.
    pub fn overhead_ns(&self) -> u64 {
        let us: f64 = self.miss_overhead_us.iter().chain(&self.hit_overhead_us).sum();
        (us * 1e3).max(0.0) as u64
    }

    /// Per-layer metrics: `<layer>.calls`, `<layer>.self_us_p50` and
    /// `<layer>.share_pct` for every layer in [`LAYERS`], where a share is
    /// the layer's summed self time over `base_ns`.
    pub fn layer_metrics(&self, base_ns: u64) -> Vec<Metric> {
        let table = layer_table(self.tracer.spans());
        let mut out = Vec::new();
        for layer in LAYERS {
            let stats = table.get(layer).cloned().unwrap_or_default();
            out.push(Metric::new(&format!("{layer}.calls"), stats.calls as f64, "count"));
            out.push(Metric::new(&format!("{layer}.self_us_p50"), stats.self_us_p50(), "us"));
            let share = share_pct(stats.total_ns(), base_ns);
            out.push(Metric::new(&format!("{layer}.share_pct"), share, "%"));
        }
        out
    }
}

/// `part` as a percentage of `whole` (0 when `whole` is 0).
pub fn share_pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}
