//! Figure C — *achieved* II under contention-accurate interconnect timing
//! (a beyond-the-paper experiment enabled by the link-contention timing of
//! the `dms-sim` program executor).
//!
//! Figure T compares topologies by the II the *scheduler* reaches, which
//! implicitly assumes every cross-cluster transfer lands in the cycle the
//! schedule planned it — true for a crossbar, optimistic for a shared bus.
//! Figure C replays every emitted VLIW program through
//! [`dms_sim::contended_replay`] under each topology's
//! [`dms_machine::TransferModel`] (bus: one transaction per cycle across the
//! whole fabric; ring/chordal: one slot per directed link; crossbar:
//! unconstrained) and reports the II the machine actually sustains next to
//! the II the scheduler promised. The interesting verdict is at 8 clusters:
//! figure T scores the bus and the crossbar identically (the scheduler sees
//! the same full connectivity), and figure C answers whether the shared
//! medium keeps that promise once transfers serialise.

use crate::figt::{mean, percent, topology_grid, GridOutput};
use crate::runner::{ExperimentConfig, LoopMeasurement};
use dms_machine::TopologyKind;

/// One (topology, cluster count) aggregate of figure C.
#[derive(Debug, Clone, PartialEq)]
pub struct FigCRow {
    /// CSV label of the interconnect.
    pub topology: String,
    /// Number of clusters.
    pub clusters: u32,
    /// Loops measured.
    pub loops: usize,
    /// Percentage of loops whose *scheduled* II matches the unclustered
    /// ideal (figure T's metric, repeated here for side-by-side reading).
    pub percent_no_overhead_scheduled: f64,
    /// Percentage of loops whose *achieved* II still matches the
    /// unclustered ideal after contention replay. Can only be equal to or
    /// lower than the scheduled column.
    pub percent_no_overhead_achieved: f64,
    /// Percentage of loops whose replay stalled at all (achieved II above
    /// the scheduled II).
    pub percent_contended: f64,
    /// Mean relative achieved-over-scheduled II slowdown.
    pub mean_slowdown: f64,
    /// Worst relative achieved-over-scheduled II slowdown.
    pub max_slowdown: f64,
    /// Store values bit-verified against the scalar reference.
    pub verified_stores: u64,
}

/// Aggregates one (topology, cluster count) cell of figure C.
fn aggregate(topology: &TopologyKind, clusters: u32, cell: &[&LoopMeasurement]) -> FigCRow {
    let slowdown = |m: &LoopMeasurement| m.achieved_ii as f64 / m.clustered_ii as f64 - 1.0;
    FigCRow {
        topology: topology.label(),
        clusters,
        loops: cell.len(),
        percent_no_overhead_scheduled: percent(cell, |m| !m.ii_increased()),
        percent_no_overhead_achieved: percent(cell, |m| m.achieved_ii <= m.unclustered_ii),
        percent_contended: percent(cell, |m| m.achieved_ii > m.clustered_ii),
        mean_slowdown: mean(cell, slowdown),
        max_slowdown: cell.iter().map(|m| slowdown(m)).fold(0.0, f64::max),
        verified_stores: cell.iter().map(|m| m.verified_stores).sum(),
    }
}

/// Runs the figure-C sweep: the configured suite on every requested
/// interconnect at the configured cluster counts, with end-to-end
/// verification *and* contention replay forced on. Returns the aggregate
/// rows, the raw per-(loop, cluster-count) measurements in sweep order
/// (their `achieved_ii` column is what the nightly CI gate scans), and one
/// [`SweepStats`](crate::SweepStats) per topology (whose `failed` counts
/// gate the CLI exit code).
pub fn figure_c(config: &ExperimentConfig, topologies: &[TopologyKind]) -> GridOutput<FigCRow> {
    topology_grid(config, topologies, true, aggregate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figt::{FIGT_CLUSTERS, FIGT_TOPOLOGIES};

    #[test]
    fn figure_c_covers_every_topology_and_cluster_count() {
        let mut cfg = ExperimentConfig::quick(6);
        cfg.cluster_counts = FIGT_CLUSTERS.to_vec();
        let (rows, raw, stats) = figure_c(&cfg, &FIGT_TOPOLOGIES);
        assert_eq!(rows.len(), FIGT_TOPOLOGIES.len() * FIGT_CLUSTERS.len());
        assert_eq!(raw.len(), FIGT_TOPOLOGIES.len() * FIGT_CLUSTERS.len() * 6);
        for (kind, s) in &stats {
            assert_eq!(s.failed, 0, "{kind}: figure C must verify every schedule");
            assert!(s.stores_verified > 0, "{kind}: verification is forced on");
        }
        for row in &rows {
            assert_eq!(row.loops, 6);
            assert!(row.verified_stores > 0, "{}: nothing verified", row.topology);
            assert!(
                row.percent_no_overhead_achieved <= row.percent_no_overhead_scheduled,
                "{} @ {}: replay can only lose ground on the scheduled II",
                row.topology,
                row.clusters
            );
        }
    }

    #[test]
    fn replay_never_beats_the_schedule_and_crossbars_never_stall() {
        let mut cfg = ExperimentConfig::quick(8);
        cfg.cluster_counts = vec![8];
        let (rows, raw, _) = figure_c(&cfg, &FIGT_TOPOLOGIES);
        for m in &raw {
            assert!(
                m.achieved_ii >= m.clustered_ii,
                "loop {} on {}: achieved {} below scheduled {}",
                m.loop_id,
                m.topology,
                m.achieved_ii,
                m.clustered_ii
            );
        }
        for m in raw.iter().filter(|m| m.topology == "crossbar") {
            assert_eq!(
                m.achieved_ii, m.clustered_ii,
                "loop {}: an unconstrained fabric cannot stall",
                m.loop_id
            );
        }
        let crossbar = rows.iter().find(|r| r.topology == "crossbar").unwrap();
        assert_eq!(crossbar.percent_contended, 0.0);
        assert_eq!(crossbar.mean_slowdown, 0.0);
    }

    #[test]
    fn a_topology_filter_restricts_the_sweep() {
        let mut cfg = ExperimentConfig::quick(3);
        cfg.cluster_counts = vec![2];
        let (rows, raw, stats) = figure_c(&cfg, &[TopologyKind::Bus]);
        assert_eq!(rows.len(), 1);
        assert_eq!(stats.len(), 1);
        assert!(raw.iter().all(|m| m.topology == "bus"));
    }
}
