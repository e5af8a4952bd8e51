//! Figure 6 — "IPC, Dynamic Measurement".
//!
//! Instructions issued per cycle for the same four series as figure 5. As in
//! the paper, IPC counts only useful operations (copy and move operations
//! "do not perform any useful computation") over the whole execution,
//! including prologue and epilogue cycles through the
//! `(trip + stages - 1) * II` cycle model.

use crate::runner::LoopMeasurement;

/// One x-position (functional-unit count) of figure 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    /// Number of clusters of the clustered machine.
    pub clusters: u32,
    /// Number of useful functional units (`3 * clusters`).
    pub functional_units: u32,
    /// IPC, Set 1, unclustered machine (IMS).
    pub set1_unclustered: f64,
    /// IPC, Set 1, clustered machine (DMS).
    pub set1_clustered: f64,
    /// IPC, Set 2, unclustered machine (IMS).
    pub set2_unclustered: f64,
    /// IPC, Set 2, clustered machine (DMS).
    pub set2_clustered: f64,
}

/// Aggregates per-loop measurements into the figure-6 series.
pub fn figure6(measurements: &[LoopMeasurement]) -> Vec<Fig6Row> {
    let mut clusters: Vec<u32> = measurements.iter().map(|m| m.clusters).collect();
    clusters.sort_unstable();
    clusters.dedup();

    let ipc = |c: u32, set2_only: bool, clustered: bool| -> f64 {
        let rows = measurements.iter().filter(|m| m.clusters == c && (!set2_only || m.set2));
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        for m in rows {
            instructions += m.useful_instances();
            cycles += if clustered { m.clustered_cycles } else { m.unclustered_cycles };
        }
        if cycles == 0 {
            0.0
        } else {
            instructions as f64 / cycles as f64
        }
    };

    clusters
        .into_iter()
        .map(|c| Fig6Row {
            clusters: c,
            functional_units: 3 * c,
            set1_unclustered: ipc(c, false, false),
            set1_clustered: ipc(c, false, true),
            set2_unclustered: ipc(c, true, false),
            set2_clustered: ipc(c, true, true),
        })
        .collect()
}

/// The paper's qualitative observations about figure 6, checked numerically:
/// returns `(set1_clustered_saturates, set2_clustered_keeps_improving)` where
/// the first is true when Set 1 clustered IPC stops improving meaningfully
/// after ~7 clusters and the second is true when Set 2 clustered IPC at the
/// widest machine exceeds its value at 7 clusters.
pub fn claim_ipc_trends(rows: &[Fig6Row]) -> (bool, bool) {
    let at = |c: u32| rows.iter().find(|r| r.clusters == c);
    let (Some(mid), Some(widest)) = (at(7), rows.last()) else {
        return (false, false);
    };
    if widest.clusters <= 7 {
        return (false, false);
    }
    // "it levels beyond that point": less than 15 % further improvement.
    let set1_saturates = widest.set1_clustered <= mid.set1_clustered * 1.15;
    let set2_improves = widest.set2_clustered > mid.set2_clustered;
    (set1_saturates, set2_improves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{measure_suite, ExperimentConfig};

    #[test]
    fn ipc_grows_with_machine_width_and_clustered_never_exceeds_unclustered() {
        let mut cfg = ExperimentConfig::quick(24);
        cfg.cluster_counts = vec![1, 2, 4, 8];
        let rows = figure6(&measure_suite(&cfg));
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.set1_unclustered > 0.0);
            assert!(r.set1_clustered <= r.set1_unclustered * 1.02);
            assert!(r.set2_clustered <= r.set2_unclustered * 1.02);
            assert!(r.set2_unclustered >= r.set1_unclustered * 0.5, "set 2 should not collapse");
        }
        // the unclustered IPC is essentially non-decreasing with width
        // (small tolerance for unroll-factor truncation effects)
        for w in rows.windows(2) {
            assert!(w[1].set1_unclustered >= w[0].set1_unclustered * 0.98);
        }
        // IPC can never exceed the number of useful FUs
        for r in &rows {
            assert!(r.set1_unclustered <= r.functional_units as f64);
        }
    }

    #[test]
    fn claim_helper_requires_wide_configurations() {
        assert_eq!(claim_ipc_trends(&[]), (false, false));
    }
}
