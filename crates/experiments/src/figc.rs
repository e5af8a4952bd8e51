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

use crate::runner::{measure_suite_with_stats, ExperimentConfig, LoopMeasurement, SweepStats};
use dms_machine::TopologyKind;
use serde::{Deserialize, Serialize};

/// The interconnects figure C replays (the figure-T set).
pub const FIGC_TOPOLOGIES: [TopologyKind; 4] = [
    TopologyKind::Ring,
    TopologyKind::ChordalRing { chord: 2 },
    TopologyKind::Bus,
    TopologyKind::Crossbar,
];

/// The cluster counts figure C evaluates.
pub const FIGC_CLUSTERS: [u32; 3] = [2, 4, 8];

/// One (topology, cluster count) aggregate of figure C.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Aggregates one topology's sweep into per-cluster-count rows.
fn aggregate(topology: &TopologyKind, rows: &[LoopMeasurement], clusters: &[u32]) -> Vec<FigCRow> {
    clusters
        .iter()
        .map(|&c| {
            let of_c: Vec<&LoopMeasurement> = rows.iter().filter(|m| m.clusters == c).collect();
            let n = of_c.len();
            let pct = |count: usize| if n == 0 { 0.0 } else { 100.0 * count as f64 / n as f64 };
            let slowdown = |m: &LoopMeasurement| m.achieved_ii as f64 / m.clustered_ii as f64 - 1.0;
            FigCRow {
                topology: topology.label(),
                clusters: c,
                loops: n,
                percent_no_overhead_scheduled: pct(of_c
                    .iter()
                    .filter(|m| !m.ii_increased())
                    .count()),
                percent_no_overhead_achieved: pct(of_c
                    .iter()
                    .filter(|m| m.achieved_ii <= m.unclustered_ii)
                    .count()),
                percent_contended: pct(of_c
                    .iter()
                    .filter(|m| m.achieved_ii > m.clustered_ii)
                    .count()),
                mean_slowdown: if n == 0 {
                    0.0
                } else {
                    of_c.iter().map(|m| slowdown(m)).sum::<f64>() / n as f64
                },
                max_slowdown: of_c.iter().map(|m| slowdown(m)).fold(0.0, f64::max),
                verified_stores: of_c.iter().map(|m| m.verified_stores).sum(),
            }
        })
        .collect()
}

/// Runs the figure-C sweep: the configured suite on every requested
/// interconnect at the configured cluster counts, with end-to-end
/// verification *and* contention replay forced on. Returns the aggregate
/// rows, the raw per-(loop, cluster-count) measurements in sweep order
/// (their `achieved_ii` column is what the nightly CI gate scans), and one
/// [`SweepStats`] per topology (whose `failed` counts gate the CLI exit
/// code).
pub fn figure_c(
    config: &ExperimentConfig,
    topologies: &[TopologyKind],
) -> (Vec<FigCRow>, Vec<LoopMeasurement>, Vec<(TopologyKind, SweepStats)>) {
    let mut rows = Vec::new();
    let mut raw = Vec::new();
    let mut stats = Vec::new();
    for &kind in topologies {
        let cfg =
            ExperimentConfig { topology: kind, verify: true, contention: true, ..config.clone() };
        let (measurements, s) = measure_suite_with_stats(&cfg);
        rows.extend(aggregate(&kind, &measurements, &cfg.cluster_counts));
        raw.extend(measurements);
        stats.push((kind, s));
    }
    (rows, raw, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_c_covers_every_topology_and_cluster_count() {
        let mut cfg = ExperimentConfig::quick(6);
        cfg.cluster_counts = FIGC_CLUSTERS.to_vec();
        let (rows, raw, stats) = figure_c(&cfg, &FIGC_TOPOLOGIES);
        assert_eq!(rows.len(), FIGC_TOPOLOGIES.len() * FIGC_CLUSTERS.len());
        assert_eq!(raw.len(), FIGC_TOPOLOGIES.len() * FIGC_CLUSTERS.len() * 6);
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
        let (rows, raw, _) = figure_c(&cfg, &FIGC_TOPOLOGIES);
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
