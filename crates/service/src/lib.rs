//! # dms-service — Scheduling as a resident service
//!
//! The whole scheduling pipeline of this reproduction is deterministic: the
//! same loop body, machine description and scheduler configuration always
//! produce the same [`dms_core::ScheduleOutcome`], bit for bit. That makes
//! schedules *cacheable by content* — and this crate is the resident core
//! that exploits it, sitting between the raw schedulers
//! ([`dms_sched::ims_schedule`], [`dms_core::dms_schedule`]) and every
//! driver (the `dms-experiments` sweep engine, its `serve`/`client` wire
//! frontend, the benches).
//!
//! Three pieces:
//!
//! * [`ScheduleService`] ([`service`]) — answers
//!   [`ScheduleRequest`]s, either from the sharded content-addressed
//!   [`cache`] or by running the scheduler (and, when asked, the end-to-end
//!   verify oracle) cold and inserting the result. Cached responses are
//!   bit-identical to cold ones: the cache stores the full outcome plus the
//!   verified-stores digest, and the key digests the exact body, so
//!   isomorphic-but-distinct loops (whose schedules can differ in
//!   name-seeded tie-breaks) never share an entry.
//! * [`cache`] — N `Mutex`-guarded shards mapping a [`CacheKey`] to one
//!   value, with hit/miss/insert counters published as `dms-telemetry`
//!   handles into the owning service's metrics registry. The key
//!   ([`hash`]) is two FNV-1a digests of derived `Hash` impls: the exact
//!   loop body, and the context — scheduler kind and configuration,
//!   machine description, verification trip count and contention flag.
//! * [`pool`] — the deterministic work-stealing worker pool (shared atomic
//!   cursor, small claimed batches, one pre-allocated result slot per item)
//!   lifted out of the experiments sweep engine so every driver can fan
//!   work out the same way.
//!
//! [`wire`] and [`net`] add a newline-delimited-JSON wire protocol over
//! `std::net::TcpListener` (thread-per-connection, no async runtime —
//! the build is offline and has no serialization crate, so the JSON codec
//! is hand-rolled here) used by the
//! `dms-experiments serve` / `client` subcommands.
//!
//! Every service owns a [`dms_telemetry::Registry`]: cache counters, a
//! per-request latency histogram and an in-flight gauge land there, and
//! the wire protocol's `{"op":"metrics"}` operation serves the registry in
//! Prometheus text exposition format ([`ScheduleService::metrics_text`]).
//! Collection is observation-only, so responses stay bit-identical with or
//! without anyone scraping.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod hash;
pub mod net;
pub mod pool;
pub mod service;
pub mod wire;

pub use cache::{CacheCounters, ShardedCache};
pub use hash::CacheKey;
pub use pool::{resolve_threads, run_indexed};
pub use service::{
    ScheduleRequest, ScheduleResponse, ScheduleService, SchedulerKind, SchedulerOutput,
    ServiceError, VerifyDigest,
};
