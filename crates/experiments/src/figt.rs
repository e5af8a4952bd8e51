//! Figure T — achievable II across interconnect topologies (a beyond-the-
//! paper experiment enabled by the `Topology` machine-description API).
//!
//! The paper fixes the interconnect to a bi-directional ring and shows that
//! partitioning costs almost nothing up to 8 clusters. This experiment asks
//! the follow-up question its §5 discussion invites: **how much of that
//! result is the ring's doing?** The same suite is scheduled at 2, 4 and 8
//! clusters on four interconnects — the ring, a chordal ring (stride-2
//! chords), a shared bus (full connectivity, one shared output queue per
//! cluster) and a crossbar (full connectivity, a queue per directed pair) —
//! and every schedule is verified end-to-end: register-allocated, lowered
//! to VLIW code, executed on the machine interpreter and bit-compared
//! against a scalar reference of its source loop.

use crate::runner::{measure_suite_with_stats, ExperimentConfig, LoopMeasurement, SweepStats};
use dms_machine::TopologyKind;

/// The interconnects figures T and C compare.
pub const FIGT_TOPOLOGIES: [TopologyKind; 4] = [
    TopologyKind::Ring,
    TopologyKind::ChordalRing { chord: 2 },
    TopologyKind::Bus,
    TopologyKind::Crossbar,
];

/// The cluster counts figures T and C evaluate.
pub const FIGT_CLUSTERS: [u32; 3] = [2, 4, 8];

/// One (topology, cluster count) aggregate of figure T.
#[derive(Debug, Clone, PartialEq)]
pub struct FigTRow {
    /// CSV label of the interconnect.
    pub topology: String,
    /// Number of clusters.
    pub clusters: u32,
    /// Loops measured.
    pub loops: usize,
    /// Percentage of loops whose II matches the unclustered ideal.
    pub percent_no_overhead: f64,
    /// Mean relative II overhead over the unclustered ideal.
    pub mean_overhead: f64,
    /// Mean `move` operations per loop (chains; zero on bus/crossbar where
    /// every pair is directly connected).
    pub mean_moves: f64,
    /// DMS schedules rejected for overflowing a queue file, retried at a
    /// higher II (the bus pays here: all traffic leaving a cluster shares
    /// one queue file's registers).
    pub pressure_retries: u64,
    /// Store values bit-verified against the scalar reference.
    pub verified_stores: u64,
}

/// What [`topology_grid`] returns: one aggregate row per (topology,
/// cluster count), the raw measurements in sweep order, and one
/// [`SweepStats`] per topology (whose `failed` counts gate the CLI exit
/// code).
pub(crate) type GridOutput<R> = (Vec<R>, Vec<LoopMeasurement>, Vec<(TopologyKind, SweepStats)>);

/// The grid figures T and C share: the configured suite on each of
/// `topologies` at the configured cluster counts, with verification forced
/// on and contention replay on iff `contention`. `row` aggregates the
/// measurements of one (topology, cluster count) cell.
pub(crate) fn topology_grid<R>(
    config: &ExperimentConfig,
    topologies: &[TopologyKind],
    contention: bool,
    row: impl Fn(&TopologyKind, u32, &[&LoopMeasurement]) -> R,
) -> GridOutput<R> {
    let mut rows = Vec::new();
    let mut raw = Vec::new();
    let mut stats = Vec::new();
    for &kind in topologies {
        let cfg = ExperimentConfig { topology: kind, verify: true, contention, ..config.clone() };
        let (measurements, s) = measure_suite_with_stats(&cfg);
        for &c in &cfg.cluster_counts {
            let cell: Vec<&LoopMeasurement> =
                measurements.iter().filter(|m| m.clusters == c).collect();
            rows.push(row(&kind, c, &cell));
        }
        raw.extend(measurements);
        stats.push((kind, s));
    }
    (rows, raw, stats)
}

/// Percentage of a cell's loops for which `keep` holds (0 when empty).
pub(crate) fn percent(cell: &[&LoopMeasurement], keep: impl Fn(&LoopMeasurement) -> bool) -> f64 {
    mean(cell, |m| if keep(m) { 100.0 } else { 0.0 })
}

/// Mean of `f` over a cell's loops (0 when empty).
pub(crate) fn mean(cell: &[&LoopMeasurement], f: impl Fn(&LoopMeasurement) -> f64) -> f64 {
    if cell.is_empty() {
        0.0
    } else {
        cell.iter().map(|m| f(m)).sum::<f64>() / cell.len() as f64
    }
}

/// Aggregates one (topology, cluster count) cell of figure T.
fn aggregate(topology: &TopologyKind, clusters: u32, cell: &[&LoopMeasurement]) -> FigTRow {
    FigTRow {
        topology: topology.label(),
        clusters,
        loops: cell.len(),
        percent_no_overhead: percent(cell, |m| !m.ii_increased()),
        mean_overhead: mean(cell, |m| m.clustered_ii as f64 / m.unclustered_ii as f64 - 1.0),
        mean_moves: mean(cell, |m| m.moves as f64),
        pressure_retries: cell.iter().map(|m| m.pressure_retries as u64).sum(),
        verified_stores: cell.iter().map(|m| m.verified_stores).sum(),
    }
}

/// Runs the figure-T sweep: the configured suite on every
/// [`FIGT_TOPOLOGIES`] interconnect at the configured cluster counts, with
/// end-to-end verification forced on. Returns the aggregate rows plus one
/// [`SweepStats`] per topology (whose `failed` counts gate the CLI exit
/// code).
pub fn figure_t(config: &ExperimentConfig) -> (Vec<FigTRow>, Vec<(TopologyKind, SweepStats)>) {
    let (rows, _, stats) = topology_grid(config, &FIGT_TOPOLOGIES, config.contention, aggregate);
    (rows, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_t_covers_every_topology_and_cluster_count() {
        let mut cfg = ExperimentConfig::quick(6);
        cfg.cluster_counts = FIGT_CLUSTERS.to_vec();
        let (rows, stats) = figure_t(&cfg);
        assert_eq!(rows.len(), FIGT_TOPOLOGIES.len() * FIGT_CLUSTERS.len());
        for (kind, s) in &stats {
            assert_eq!(s.failed, 0, "{kind}: figure T must verify every schedule");
            assert!(s.stores_verified > 0, "{kind}: verification is forced on");
        }
        for row in &rows {
            assert_eq!(row.loops, 6);
            assert!(row.verified_stores > 0, "{}: nothing verified", row.topology);
        }
        // bus and crossbar are fully connected: chains can never arise
        for row in rows.iter().filter(|r| r.topology == "bus" || r.topology == "crossbar") {
            assert_eq!(row.mean_moves, 0.0, "{}: moves on a fully connected fabric", row.topology);
        }
        // the ring rows match a plain ring sweep of the same configuration
        let ring_cfg = ExperimentConfig {
            verify: true,
            ..ExperimentConfig {
                cluster_counts: FIGT_CLUSTERS.to_vec(),
                ..ExperimentConfig::quick(6)
            }
        };
        let (ring_rows, _) = measure_suite_with_stats(&ring_cfg);
        let direct: Vec<FigTRow> = FIGT_CLUSTERS
            .iter()
            .map(|&c| {
                let cell: Vec<&LoopMeasurement> =
                    ring_rows.iter().filter(|m| m.clusters == c).collect();
                aggregate(&TopologyKind::Ring, c, &cell)
            })
            .collect();
        assert_eq!(&rows[..FIGT_CLUSTERS.len()], &direct[..]);
    }

    #[test]
    fn richer_interconnects_never_do_worse_than_the_ring() {
        // The crossbar relaxes every communication constraint of the ring,
        // so its per-cluster-count no-overhead fraction can only be equal or
        // higher on this deterministic suite.
        let mut cfg = ExperimentConfig::quick(10);
        cfg.cluster_counts = vec![8];
        let (rows, _) = figure_t(&cfg);
        let pct = |label: &str| {
            rows.iter().find(|r| r.topology == label).map(|r| r.percent_no_overhead).unwrap()
        };
        assert!(pct("crossbar") >= pct("ring"), "a crossbar can never lose to the ring");
        assert!(pct("chordal:2") >= pct("ring"), "chords only add connectivity");
    }
}
