//! Contention-accurate timing of the emitted VLIW program.
//!
//! The program executor ([`crate::vliw::run_program`]) times every word
//! under the transfer-bandwidth model the machine's topology declares
//! ([`dms_machine::TransferModel`] / `Topology::link_capacity`):
//!
//! * **crossbar** — unconstrained: a dedicated path per cluster pair, so
//!   transfers never wait and the walk reproduces idealised timing;
//! * **bus** — a single shared medium: one transaction per cycle across all
//!   writers (a written value is a broadcast, so one transaction serves all
//!   its readers);
//! * **ring / chordal ring** — one transfer per directed link per cycle.
//!
//! A cross-cluster value requests its link at the cycle its producer word
//! issues and is *granted* the first cycle the link has a free slot; the
//! consumer word stalls until the cycle after the grant. Multi-hop routes
//! are chains of scheduled `move` operations, so a `distance`-hop value
//! occupies its route for `distance` cycles hop by hop — each hop is its
//! own single-cycle transfer on its own link, and oversubscribed links
//! serialise the values crossing them.
//!
//! This module holds the two pieces of that timing the walk does not: the
//! per-link booking window and the achieved-II measurement. The
//! headline output is the **achieved initiation interval**: the
//! steady-state distance between successive kernel store timestamps,
//! measured over the second half of the kernel repetitions —
//! `achieved_ii == scheduled II` means the schedule's communication fits
//! the interconnect's bandwidth; a larger value quantifies the optimism of
//! the storage-only model.

use crate::vliw::{run_program, SimError};
use dms_ir::Ddg;
use dms_machine::MachineConfig;
use dms_regalloc::codegen::VliwProgram;
use std::collections::VecDeque;

/// Timing summary of one contention-accurate replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionReport {
    /// The II the scheduler promised (kernel length of the program).
    pub scheduled_ii: u32,
    /// Steady-state II measured from kernel store timestamps; equals
    /// `scheduled_ii` exactly when no store ever waited on a transfer.
    /// Always `>= scheduled_ii`.
    pub achieved_ii: u32,
    /// Cycle after the last word issued (the replayed makespan).
    pub cycles: u64,
    /// Words in the program — the idealised makespan (one word per cycle).
    pub ideal_cycles: u64,
    /// `cycles - ideal_cycles`: cycles lost to transfer serialisation.
    pub stall_cycles: u64,
    /// Link transactions replayed (one per value per link, readers of a
    /// bus broadcast share one).
    pub transfers: u64,
    /// Transactions granted later than requested (link busy).
    pub serialized_transfers: u64,
}

/// Replays `trip_count` iterations of the emitted program under the
/// topology's transfer-bandwidth model and measures the achieved II: the
/// timing half of [`run_program`] under the machine's own model.
///
/// `ddg` must be the scheduled DDG the program was emitted from, exactly as
/// for [`crate::vliw::execute_program`].
///
/// # Examples
///
/// On a crossbar no transfer ever waits, so the replay reproduces the
/// scheduled II exactly:
///
/// ```
/// use dms_core::{dms_schedule, DmsConfig};
/// use dms_ir::kernels;
/// use dms_machine::{MachineConfig, TopologyKind};
/// use dms_regalloc::emit;
/// use dms_sim::contended_replay;
///
/// let fir = kernels::fir(8, 64);
/// let machine = MachineConfig::paper_clustered(4).with_topology(TopologyKind::Crossbar);
/// let out = dms_schedule(&fir, &machine, &DmsConfig::default()).unwrap();
/// let program = emit(&out, &machine);
/// let rep = contended_replay(&program, &out.ddg, &machine, fir.trip_count).unwrap();
/// assert_eq!(rep.achieved_ii, rep.scheduled_ii);
/// assert_eq!(rep.stall_cycles, 0);
/// ```
///
/// # Errors
///
/// Returns a [`SimError`] for a program/DDG inconsistency or a stream that
/// is popped before anything was pushed; a correctly emitted program of a
/// valid schedule never fails.
pub fn contended_replay(
    program: &VliwProgram,
    ddg: &Ddg,
    machine: &MachineConfig,
    trip_count: u64,
) -> Result<ContentionReport, SimError> {
    let model = machine.topology().transfer_model();
    run_program(program, ddg, machine, model, trip_count).map(|e| e.timing)
}

/// Slot bookings of one bandwidth resource, per cycle from `base` on.
/// Requests arrive in nondecreasing cycle order (a word never issues before
/// its predecessor), so cycles before the latest request are never asked
/// for again and slide out of the window.
#[derive(Debug, Clone, Default)]
pub(crate) struct Booking {
    base: u64,
    used: VecDeque<u32>,
    /// Every cycle of `used[..full]` is booked to capacity.
    full: usize,
}

impl Booking {
    /// Books the first cycle `>= request` with fewer than `capacity`
    /// transfers and returns it.
    pub(crate) fn acquire(&mut self, request: u64, capacity: u32) -> u64 {
        debug_assert!(request >= self.base, "link requests must arrive in cycle order");
        let stale = (request - self.base).min(self.used.len() as u64) as usize;
        self.used.drain(..stale);
        self.full = self.full.saturating_sub(stale);
        self.base = request;
        let full = |used: &VecDeque<u32>, k: usize| used.get(k).is_some_and(|&n| n >= capacity);
        let mut k = self.full;
        while full(&self.used, k) {
            k += 1;
        }
        if k == self.used.len() {
            self.used.push_back(0);
        }
        self.used[k] += 1;
        while full(&self.used, self.full) {
            self.full += 1;
        }
        self.base + k as u64
    }
}

/// Steady-state II from kernel store timestamps (one list per store op):
/// per store, the mean distance between successive repetitions over the
/// second half of its samples (warm pipeline), rounded up; the achieved II
/// of the loop is the worst store's. Falls back to the scheduled II when
/// fewer than two repetitions were observed (nothing to measure — no kernel
/// steady state).
pub(crate) fn measure_achieved_ii(store_times: &[Vec<u64>], scheduled_ii: u32) -> u32 {
    let mut achieved = None;
    for times in store_times {
        let n = times.len();
        if n < 2 {
            continue;
        }
        // second half of the samples; for n == 2 that is the whole range
        let lo = if n / 2 < n - 1 { n / 2 } else { 0 };
        let span = times[n - 1] - times[lo];
        let intervals = (n - 1 - lo) as u64;
        let ii = span.div_ceil(intervals);
        achieved = Some(achieved.unwrap_or(0).max(ii));
    }
    achieved.map_or(scheduled_ii, |ii| (ii as u32).max(scheduled_ii))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_core::{dms_schedule, DmsConfig};
    use dms_ir::kernels;
    use dms_machine::TopologyKind;
    use dms_regalloc::emit;

    fn replay_on(kind: TopologyKind, clusters: u32) -> Vec<(String, ContentionReport)> {
        kernels::all(40)
            .into_iter()
            .map(|l| {
                let m = MachineConfig::paper_clustered(clusters).with_topology(kind);
                let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
                let p = emit(&r, &m);
                let rep = contended_replay(&p, &r.ddg, &m, l.trip_count)
                    .unwrap_or_else(|e| panic!("{} on {kind:?}: {e}", l.name));
                assert_eq!(rep.scheduled_ii, r.ii(), "{}", l.name);
                (l.name.clone(), rep)
            })
            .collect()
    }

    #[test]
    fn single_cluster_replay_has_no_transfers() {
        let l = kernels::fir(8, 64);
        let m = MachineConfig::paper_clustered(1);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let p = emit(&r, &m);
        let rep = contended_replay(&p, &r.ddg, &m, l.trip_count).unwrap();
        assert_eq!(rep.transfers, 0);
        assert_eq!(rep.achieved_ii, rep.scheduled_ii);
        assert_eq!(rep.stall_cycles, 0);
    }

    #[test]
    fn bus_replay_serialises_when_writers_oversubscribe_the_medium() {
        // Across the whole suite at 8 clusters a shared single-transaction
        // medium must delay at least one transfer (the suite has loops with
        // several concurrent cross-cluster values per cycle).
        let reps = replay_on(TopologyKind::Bus, 8);
        let serialized: u64 = reps.iter().map(|(_, r)| r.serialized_transfers).sum();
        assert!(serialized > 0, "no bus transfer was ever delayed across the suite");
    }
}
