//! The structured scheduler event taxonomy ([`SchedEvent`]) and the
//! always-on per-kind counts a registry keeps of it.
//!
//! Recording an event is one relaxed atomic increment of its kind's count,
//! with no lock. The counts are unbounded, so aggregate assertions ("how
//! many pressure retries did this sweep take?") stay exact however many
//! events a sweep emits. Event payloads are not retained.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// One structured scheduler event. The taxonomy covers every decision
/// point the DMS stack exposes: the II search, the pressure-relaxation
/// loop, chain lifecycle, portfolio selection, the schedule cache and the
/// contention-accurate replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent {
    /// The II search started an attempt at `ii`.
    IiAttemptStarted {
        /// The candidate initiation interval.
        ii: u32,
    },
    /// The attempt at `ii` failed (budget exhausted, no schedule found).
    IiAttemptFailed {
        /// The candidate initiation interval that failed.
        ii: u32,
    },
    /// A structurally valid schedule at `ii` was rejected for queue-file
    /// capacity overflow and the search retried one II higher.
    PressureRetry {
        /// The II whose schedule overflowed a queue file.
        ii: u32,
    },
    /// A committed move chain was dismantled (its `moves` move operations
    /// deleted and the original dependence edge restored).
    ChainDismantled {
        /// Number of move operations the chain carried.
        moves: u32,
    },
    /// A portfolio/beam challenger Pareto-beat the incumbent.
    CandidateWon {
        /// Index of the winning candidate (0 = deterministic baseline).
        candidate: u32,
    },
    /// A schedule-cache lookup hit.
    CacheHit,
    /// A schedule-cache lookup missed.
    CacheMiss,
    /// A contention-accurate replay finished with link stalls.
    LinkStall {
        /// Total cycles the replay stalled on busy links.
        cycles: u64,
    },
}

impl SchedEvent {
    /// The kind of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            SchedEvent::IiAttemptStarted { .. } => EventKind::IiAttemptStarted,
            SchedEvent::IiAttemptFailed { .. } => EventKind::IiAttemptFailed,
            SchedEvent::PressureRetry { .. } => EventKind::PressureRetry,
            SchedEvent::ChainDismantled { .. } => EventKind::ChainDismantled,
            SchedEvent::CandidateWon { .. } => EventKind::CandidateWon,
            SchedEvent::CacheHit => EventKind::CacheHit,
            SchedEvent::CacheMiss => EventKind::CacheMiss,
            SchedEvent::LinkStall { .. } => EventKind::LinkStall,
        }
    }
}

/// The payload-free kind of a [`SchedEvent`], for counting and labelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// See [`SchedEvent::IiAttemptStarted`].
    IiAttemptStarted,
    /// See [`SchedEvent::IiAttemptFailed`].
    IiAttemptFailed,
    /// See [`SchedEvent::PressureRetry`].
    PressureRetry,
    /// See [`SchedEvent::ChainDismantled`].
    ChainDismantled,
    /// See [`SchedEvent::CandidateWon`].
    CandidateWon,
    /// See [`SchedEvent::CacheHit`].
    CacheHit,
    /// See [`SchedEvent::CacheMiss`].
    CacheMiss,
    /// See [`SchedEvent::LinkStall`].
    LinkStall,
}

impl EventKind {
    /// Every kind, in the fixed order used by renderers.
    pub const ALL: [EventKind; 8] = [
        EventKind::IiAttemptStarted,
        EventKind::IiAttemptFailed,
        EventKind::PressureRetry,
        EventKind::ChainDismantled,
        EventKind::CandidateWon,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::LinkStall,
    ];

    fn index(self) -> usize {
        EventKind::ALL.iter().position(|k| *k == self).expect("every kind is in ALL")
    }

    /// The snake_case label used in exposition output.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::IiAttemptStarted => "ii_attempt_started",
            EventKind::IiAttemptFailed => "ii_attempt_failed",
            EventKind::PressureRetry => "pressure_retry",
            EventKind::ChainDismantled => "chain_dismantled",
            EventKind::CandidateWon => "candidate_won",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::LinkStall => "link_stall",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-kind event counts. Owned by a [`crate::Registry`]; not public
/// API outside the crate.
#[derive(Debug, Default)]
pub(crate) struct Trace {
    counts: [AtomicU64; EventKind::ALL.len()],
}

impl Trace {
    pub(crate) fn record(&self, ev: SchedEvent) {
        self.counts[ev.kind().index()].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count(&self, kind: EventKind) -> u64 {
        self.counts[kind.index()].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_buffer_agree_until_the_buffer_fills() {
        let t = Trace::default();
        for ii in 0..10u32 {
            t.record(SchedEvent::IiAttemptStarted { ii });
        }
        t.record(SchedEvent::CacheHit);
        assert_eq!(t.count(EventKind::IiAttemptStarted), 10);
        assert_eq!(t.count(EventKind::CacheHit), 1);
        assert_eq!(t.count(EventKind::LinkStall), 0);
    }

    #[test]
    fn every_event_maps_to_its_kind() {
        let events = [
            SchedEvent::IiAttemptStarted { ii: 1 },
            SchedEvent::IiAttemptFailed { ii: 1 },
            SchedEvent::PressureRetry { ii: 1 },
            SchedEvent::ChainDismantled { moves: 1 },
            SchedEvent::CandidateWon { candidate: 1 },
            SchedEvent::CacheHit,
            SchedEvent::CacheMiss,
            SchedEvent::LinkStall { cycles: 1 },
        ];
        for (ev, kind) in events.iter().zip(EventKind::ALL) {
            assert_eq!(ev.kind(), kind);
            assert!(!kind.name().is_empty());
        }
    }
}
