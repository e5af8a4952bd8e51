//! The resident schedule service: requests in, cached-or-cold responses
//! out.
//!
//! [`ScheduleService::schedule`] is the single entry point every driver
//! (the sweep engine, the wire frontend, the benches) goes through. A
//! request names a loop body, a machine, a scheduler and optionally a
//! verification trip count; the response carries the full scheduler output
//! (not a summary — drivers need cycles, stats and the transformed DDG),
//! the verified-stores digest when verification ran, and whether the answer
//! came from the cache.
//!
//! **Cached responses are bit-identical to cold ones.** The cache stores
//! the complete [`ScheduleOutcome`]/[`ScheduleResult`] plus the verify
//! digest, keyed by (exact body digest, context digest); see
//! [`crate::hash`] for why the body digest is exact rather than
//! isomorphism-invariant.
//! Failures — scheduler errors and verification failures — are never
//! cached: they are rare (a healthy sweep has none) and a negative cache
//! would complicate the bit-exactness story for no measurable win.

use crate::cache::{CacheCounters, ShardedCache};
use crate::hash::{guard_fingerprint, CacheKey, Fnv};
use dms_core::{dms_schedule, DmsConfig, ScheduleOutcome};
use dms_ir::Loop;
use dms_machine::{MachineConfig, TransferModel};
use dms_sched::{ims_schedule, ImsConfig, ScheduleError, ScheduleResult};
use dms_sim::verify_timed;
use dms_telemetry::{Gauge, Histogram, Registry, SchedEvent};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Which scheduler a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// IMS on the (unclustered) machine — the paper's baseline.
    Ims,
    /// DMS (or the beam/portfolio searches layered on it, per
    /// [`DmsConfig::strategy`]) on the clustered machine.
    Dms,
}

/// One scheduling request.
///
/// Borrows the body and machine — the sweep engine submits thousands of
/// requests against pre-built bodies and a handful of machines, and the
/// service only clones what it actually caches.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleRequest<'a> {
    /// The (already unrolled) loop body to schedule.
    pub body: &'a Loop,
    /// The machine to schedule for.
    pub machine: &'a MachineConfig,
    /// DMS configuration ([`SchedulerKind::Ims`] requests ignore it, and it
    /// is excluded from their cache key so it cannot fragment IMS entries).
    pub dms: DmsConfig,
    /// Which scheduler to run.
    pub scheduler: SchedulerKind,
    /// `Some(trips)` additionally runs the end-to-end verify oracle
    /// (regalloc → codegen → execution → bit-compare against the scalar
    /// reference) for `trips` iterations; its digest is cached with the
    /// schedule, so warm requests skip re-verification. A verification
    /// failure fails the request.
    pub verify_trips: Option<u64>,
    /// Additionally time the emitted program under the topology's
    /// transfer-bandwidth model ([`dms_sim::contended_replay`]) and report
    /// the achieved II in the verify digest. The timing rides in the
    /// verifying walk, so it requires `verify_trips`; ignored without it.
    pub contention: bool,
}

/// Digest of a successful end-to-end verification, small enough to cache
/// alongside the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyDigest {
    /// Store values bit-compared against the scalar reference.
    pub stores_checked: u64,
    /// Largest CQRF stream occupancy reached while executing the schedule.
    pub max_queue_depth: u64,
    /// Steady-state II measured by the contention-accurate replay
    /// (`>=` the scheduled II), or 0 when the request did not ask for
    /// contention timing.
    pub achieved_ii: u32,
}

/// The scheduler output carried by a response: IMS produces a plain
/// [`ScheduleResult`], DMS a [`ScheduleOutcome`] (result + search
/// telemetry).
#[derive(Debug, Clone)]
pub enum SchedulerOutput {
    /// Output of [`ims_schedule`].
    Ims(Box<ScheduleResult>),
    /// Output of [`dms_schedule`].
    Dms(Box<ScheduleOutcome>),
}

impl SchedulerOutput {
    /// The schedule result, whichever scheduler produced it.
    pub fn result(&self) -> &ScheduleResult {
        match self {
            SchedulerOutput::Ims(r) => r,
            SchedulerOutput::Dms(o) => &o.result,
        }
    }

    /// The DMS outcome, if this was a DMS request.
    pub fn dms(&self) -> Option<&ScheduleOutcome> {
        match self {
            SchedulerOutput::Ims(_) => None,
            SchedulerOutput::Dms(o) => Some(o),
        }
    }
}

/// A successful response.
#[derive(Debug, Clone)]
pub struct ScheduleResponse {
    /// The full scheduler output (bit-identical whether cached or cold).
    pub output: SchedulerOutput,
    /// The verification digest, present iff the request asked to verify.
    pub verify: Option<VerifyDigest>,
    /// Whether this response was answered from the cache.
    pub cache_hit: bool,
}

/// Why a request failed. Failures are not cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The scheduler found no schedule.
    Schedule(ScheduleError),
    /// The schedule failed end-to-end verification (a compiler bug; the
    /// offending stage is described in the message).
    Verify(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Schedule(e) => write!(f, "scheduling failed: {e:?}"),
            ServiceError::Verify(msg) => write!(f, "verification failed: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What one cache entry stores: everything needed to replay the cold
/// response bit for bit.
#[derive(Debug, Clone)]
struct CachedSchedule {
    output: SchedulerOutput,
    verify: Option<VerifyDigest>,
}

/// Default shard count: comfortably above the worker counts the sweep
/// engine runs with, so shard contention stays negligible.
pub const DEFAULT_SHARDS: usize = 16;

/// The resident scheduling service: a sharded content-addressed schedule
/// cache in front of the deterministic scheduling (+ verification)
/// pipeline.
///
/// Every service owns a [`Registry`]: the cache's hit/miss/insert counters
/// live in it (as `dms_cache_hits_total` / `dms_cache_misses_total` /
/// `dms_cache_inserts_total`), every [`ScheduleService::schedule`] call
/// lands in the `dms_request_latency_micros` histogram, and
/// `dms_requests_inflight` tracks concurrent requests. [`ScheduleService::new`]
/// builds a private registry (unit tests stay isolated from each other);
/// [`ScheduleService::with_registry`] shares a caller-owned one so a driver
/// can merge service metrics with its own timers and the scheduler-core
/// event trace.
#[derive(Debug)]
pub struct ScheduleService {
    cache: ShardedCache<CachedSchedule>,
    registry: Arc<Registry>,
    latency: Histogram,
    inflight: Gauge,
}

impl Default for ScheduleService {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl ScheduleService {
    /// Creates a service whose cache has `shards` shards (clamped to at
    /// least 1) and a private metrics registry. The shard count is a
    /// performance knob only: responses never depend on it.
    pub fn new(shards: usize) -> Self {
        Self::with_registry(shards, Arc::new(Registry::new()))
    }

    /// Creates a service that publishes its metrics into the given
    /// registry instead of a private one.
    pub fn with_registry(shards: usize, registry: Arc<Registry>) -> Self {
        let cache = ShardedCache::with_counters(
            shards,
            registry.counter("dms_cache_hits_total"),
            registry.counter("dms_cache_misses_total"),
            registry.counter("dms_cache_inserts_total"),
        );
        let latency = registry.histogram("dms_request_latency_micros");
        let inflight = registry.gauge("dms_requests_inflight");
        ScheduleService { cache, registry, latency, inflight }
    }

    /// The metrics registry this service publishes into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Renders the registry in Prometheus text exposition format — the
    /// payload of the wire `{"op":"metrics"}` response.
    pub fn metrics_text(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Number of cache shards.
    pub fn num_shards(&self) -> usize {
        self.cache.num_shards()
    }

    /// Snapshot of the cache hit/miss/insert counters.
    pub fn cache_stats(&self) -> CacheCounters {
        self.cache.stats()
    }

    /// Entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Answers one request, from the cache when possible.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Schedule`] when the scheduler fails and
    /// [`ServiceError::Verify`] when the requested end-to-end verification
    /// fails. Neither is cached.
    pub fn schedule(&self, req: &ScheduleRequest<'_>) -> Result<ScheduleResponse, ServiceError> {
        let _inflight = self.inflight.track();
        let started = Instant::now();
        let result = self.answer(req);
        self.latency.observe(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        result
    }

    fn answer(&self, req: &ScheduleRequest<'_>) -> Result<ScheduleResponse, ServiceError> {
        let key = cache_key(req);
        if let Some(entry) = self.cache.lookup(&key) {
            self.registry.record_event(SchedEvent::CacheHit);
            return Ok(ScheduleResponse {
                output: entry.output,
                verify: entry.verify,
                cache_hit: true,
            });
        }
        self.registry.record_event(SchedEvent::CacheMiss);

        let output = match req.scheduler {
            SchedulerKind::Ims => SchedulerOutput::Ims(Box::new(
                ims_schedule(req.body, req.machine, &ImsConfig::default())
                    .map_err(ServiceError::Schedule)?,
            )),
            SchedulerKind::Dms => SchedulerOutput::Dms(Box::new(
                dms_schedule(req.body, req.machine, &req.dms).map_err(ServiceError::Schedule)?,
            )),
        };

        let verify = match req.verify_trips {
            None => None,
            Some(trips) => {
                // A contention request times the program under the
                // machine's transfer model in the walk that verifies it.
                let model = if req.contention {
                    req.machine.topology().transfer_model()
                } else {
                    TransferModel::Unconstrained
                };
                let (report, timing) =
                    verify_timed(req.body, output.result(), req.machine, model, trips)
                        .map_err(|e| ServiceError::Verify(format!("{e:?}")))?;
                let achieved_ii = if req.contention { timing.achieved_ii } else { 0 };
                Some(VerifyDigest {
                    stores_checked: report.stores_checked,
                    max_queue_depth: report.max_queue_depth,
                    achieved_ii,
                })
            }
        };

        self.cache.insert(key, CachedSchedule { output: output.clone(), verify });
        Ok(ScheduleResponse { output, verify, cache_hit: false })
    }
}

/// Derives the content address of a request: the exact body digest and a
/// context digest over everything else the answer depends on. `DmsConfig`
/// only enters DMS keys — IMS ignores it, so including it would make
/// identical IMS requests miss whenever an unrelated DMS knob (e.g. the
/// sweep's `ii_seed` threading) changes. The contention flag separates a
/// contention request, whose digest carries the achieved II, from a plain
/// verified one.
fn cache_key(req: &ScheduleRequest<'_>) -> CacheKey {
    let mut ctx = Fnv::new();
    req.scheduler.hash(&mut ctx);
    if req.scheduler == SchedulerKind::Dms {
        req.dms.hash(&mut ctx);
    }
    req.machine.hash(&mut ctx);
    req.verify_trips.hash(&mut ctx);
    req.contention.hash(&mut ctx);
    CacheKey { body: guard_fingerprint(req.body), context: ctx.finish() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_core::{ChainPolicy, PressureMode, SchedulerStrategy, SingleUsePolicy};
    use dms_ir::kernels;
    use dms_machine::TopologyKind;

    fn dms_request<'a>(body: &'a Loop, machine: &'a MachineConfig) -> ScheduleRequest<'a> {
        ScheduleRequest {
            body,
            machine,
            dms: DmsConfig::default(),
            scheduler: SchedulerKind::Dms,
            verify_trips: None,
            contention: false,
        }
    }

    #[test]
    fn contention_requests_measure_achieved_ii_and_do_not_hit_plain_entries() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let plain = ScheduleRequest { verify_trips: Some(64), ..dms_request(&fir, &machine) };
        let contended = ScheduleRequest { contention: true, ..plain };

        let cold = service.schedule(&plain).unwrap();
        assert_eq!(cold.verify.unwrap().achieved_ii, 0, "no replay without contention");

        let timed = service.schedule(&contended).unwrap();
        assert!(!timed.cache_hit, "a contention request must not hit a plain verified entry");
        let digest = timed.verify.unwrap();
        assert!(digest.achieved_ii >= cold.output.result().ii());

        let warm = service.schedule(&contended).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.verify, Some(digest), "the achieved II is cached with the digest");
    }

    #[test]
    fn warm_response_is_identical_to_cold_and_flagged_as_hit() {
        let service = ScheduleService::new(4);
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let req = dms_request(&fir, &machine);

        let cold = service.schedule(&req).unwrap();
        assert!(!cold.cache_hit);
        let warm = service.schedule(&req).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(cold.output.result().ii(), warm.output.result().ii());
        assert_eq!(
            format!("{:?}", cold.output.result().schedule),
            format!("{:?}", warm.output.result().schedule),
            "a cached schedule must be bit-identical to the cold one"
        );
        assert_eq!(service.cache_stats(), CacheCounters { hits: 1, misses: 1, inserts: 1 });
    }

    #[test]
    fn verified_requests_cache_the_digest_and_skip_reverification() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let req = ScheduleRequest { verify_trips: Some(64), ..dms_request(&fir, &machine) };

        let cold = service.schedule(&req).unwrap();
        let digest = cold.verify.expect("verification ran");
        assert!(digest.stores_checked > 0);
        let warm = service.schedule(&req).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.verify, Some(digest));
    }

    #[test]
    fn different_machine_scheduler_and_verify_contexts_do_not_collide() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let clustered = MachineConfig::paper_clustered(4);
        let unclustered = MachineConfig::unclustered(4);

        let dms = service.schedule(&dms_request(&fir, &clustered)).unwrap();
        let ims = service
            .schedule(&ScheduleRequest {
                scheduler: SchedulerKind::Ims,
                ..dms_request(&fir, &unclustered)
            })
            .unwrap();
        assert!(!ims.cache_hit, "IMS on another machine must not hit the DMS entry");
        assert!(ims.output.dms().is_none());
        assert!(dms.output.dms().is_some());

        let verified = service
            .schedule(&ScheduleRequest { verify_trips: Some(16), ..dms_request(&fir, &clustered) })
            .unwrap();
        assert!(!verified.cache_hit, "a verified request must not hit an unverified entry");
        assert!(verified.verify.is_some());
    }

    #[test]
    fn a_renamed_twin_misses_and_gets_its_own_entry() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let mut twin = fir.clone();
        twin.name = "fir_renamed".to_string();
        let machine = MachineConfig::paper_clustered(4);

        service.schedule(&dms_request(&fir, &machine)).unwrap();
        let twin_resp = service.schedule(&dms_request(&twin, &machine)).unwrap();
        assert!(
            !twin_resp.cache_hit,
            "the body digest must keep name-seeded tie-breaks from leaking across \
             isomorphic twins"
        );
        assert_eq!(service.cache_len(), 2, "each twin has its own entry");
    }

    #[test]
    fn changing_any_single_field_changes_the_cache_key() {
        let fir = kernels::fir(8, 64);
        let clustered = MachineConfig::paper_clustered(4);
        let base = dms_request(&fir, &clustered);
        let key = cache_key(&base);
        assert_eq!(key, cache_key(&dms_request(&fir.clone(), &clustered.clone())));

        let machines = [
            ("topology", clustered.clone().with_topology(TopologyKind::Bus)),
            ("cqrf capacity", clustered.clone().with_cqrf_capacity(16)),
            ("copy units", MachineConfig::paper_clustered_with_copy_units(4, 2)),
            ("clustered vs unclustered", MachineConfig::unclustered(4)),
        ];
        for (field, machine) in &machines {
            assert_ne!(key, cache_key(&ScheduleRequest { machine, ..base }), "machine {field}");
        }

        // Destructured so that a new `DmsConfig` field fails to compile
        // here until it is added to the list below.
        let d = DmsConfig::default();
        let DmsConfig {
            budget_ratio,
            max_ii: _,
            chain_policy: _,
            single_use: _,
            pressure: _,
            ii_seed: _,
            strategy: _,
        } = d;
        let configs = [
            ("budget_ratio", DmsConfig { budget_ratio: budget_ratio + 1, ..d }),
            ("max_ii", DmsConfig { max_ii: Some(9), ..d }),
            ("chain_policy", DmsConfig { chain_policy: ChainPolicy::ShortestPath, ..d }),
            ("single_use", DmsConfig { single_use: SingleUsePolicy::Always, ..d }),
            ("pressure", DmsConfig { pressure: PressureMode::Ignore, ..d }),
            ("ii_seed", DmsConfig { ii_seed: Some(3), ..d }),
            ("strategy", DmsConfig { strategy: SchedulerStrategy::Beam { width: 2 }, ..d }),
        ];
        for (field, dms) in configs {
            assert_ne!(key, cache_key(&ScheduleRequest { dms, ..base }), "DmsConfig {field}");
        }

        let mut renamed = fir.clone();
        renamed.name.push('_');
        let requests = [
            ("body", dms_request(&renamed, &clustered)),
            ("scheduler", ScheduleRequest { scheduler: SchedulerKind::Ims, ..base }),
            ("verify trips", ScheduleRequest { verify_trips: Some(16), ..base }),
            ("contention", ScheduleRequest { contention: true, ..base }),
        ];
        for (field, req) in requests {
            assert_ne!(key, cache_key(&req), "{field}");
        }
        let verified = ScheduleRequest { verify_trips: Some(16), ..base };
        assert_ne!(
            cache_key(&verified),
            cache_key(&ScheduleRequest { verify_trips: Some(32), ..base }),
            "verify trip count"
        );
    }

    #[test]
    fn ims_cache_key_ignores_the_dms_config() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::unclustered(4);
        let mut req =
            ScheduleRequest { scheduler: SchedulerKind::Ims, ..dms_request(&fir, &machine) };
        service.schedule(&req).unwrap();
        req.dms.ii_seed = Some(7);
        let warm = service.schedule(&req).unwrap();
        assert!(warm.cache_hit, "an IMS request must hit regardless of DMS knobs");
    }

    #[test]
    fn the_registry_mirrors_cache_stats_and_counts_request_latencies() {
        let service = ScheduleService::new(4);
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let req = dms_request(&fir, &machine);

        service.schedule(&req).unwrap();
        service.schedule(&req).unwrap();

        let registry = service.registry();
        assert_eq!(registry.counter("dms_cache_hits_total").get(), 1);
        assert_eq!(registry.counter("dms_cache_misses_total").get(), 1);
        assert_eq!(registry.counter("dms_cache_inserts_total").get(), 1);
        assert_eq!(service.cache_stats(), CacheCounters { hits: 1, misses: 1, inserts: 1 });
        assert_eq!(registry.histogram("dms_request_latency_micros").count(), 2);
        assert_eq!(registry.gauge("dms_requests_inflight").get(), 0, "track() guard restored");
        assert_eq!(registry.event_count(dms_telemetry::EventKind::CacheHit), 1);
        assert_eq!(registry.event_count(dms_telemetry::EventKind::CacheMiss), 1);

        let text = service.metrics_text();
        assert!(text.contains("dms_cache_hits_total 1"), "exposition holds the hit count:\n{text}");
        assert!(text.contains("dms_request_latency_micros_count 2"), "latency count:\n{text}");
    }

    #[test]
    fn a_shared_registry_merges_metrics_from_the_owning_driver() {
        let registry = Arc::new(Registry::new());
        registry.counter("driver_sweeps_total").inc();
        let service = ScheduleService::with_registry(2, Arc::clone(&registry));
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        service.schedule(&dms_request(&fir, &machine)).unwrap();
        let text = service.metrics_text();
        assert!(text.contains("driver_sweeps_total 1"));
        assert!(text.contains("dms_cache_misses_total 1"));
    }

    #[test]
    fn scheduler_failures_are_reported_and_not_cached() {
        let service = ScheduleService::default();
        let fir = kernels::fir(8, 64);
        let machine = MachineConfig::paper_clustered(4);
        let req = ScheduleRequest {
            dms: DmsConfig { max_ii: Some(1), budget_ratio: 1, ..DmsConfig::default() },
            ..dms_request(&fir, &machine)
        };
        let err = service.schedule(&req).unwrap_err();
        assert!(matches!(err, ServiceError::Schedule(_)));
        assert_eq!(service.cache_len(), 0, "failures are never cached");
    }
}
