//! Figure P — portfolio-search II versus the single deterministic heuristic
//! (a beyond-the-paper experiment enabled by the `SchedulerStrategy` API).
//!
//! Figure T showed that a fraction of the paper-grid loops lose II on
//! *every* interconnect — overhead that looked inherent to partitioning.
//! This experiment asks how much of that residue is really *heuristic
//! slack*: the same suite is scheduled at 2, 4 and 8 clusters with a
//! portfolio of randomized-priority DMS candidates
//! (`SchedulerStrategy::Portfolio`), and each cell reports both the
//! portfolio winner's II (`clustered_ii`) and the plain heuristic's II
//! (`baseline_ii`) — one sweep measures both schedulers. Every winning
//! schedule is verified end-to-end: register-allocated, lowered to VLIW
//! code, executed on the machine interpreter and bit-compared against a
//! scalar reference of its source loop.

use crate::runner::{measure_suite_with_stats, ExperimentConfig, LoopMeasurement, SweepStats};
use dms_core::SchedulerStrategy;
use dms_sched::DEFAULT_PORTFOLIO_CANDIDATES;

/// The cluster counts figure P evaluates (figure T's, for comparability).
pub const FIGP_CLUSTERS: [u32; 3] = [2, 4, 8];

/// One per-cluster-count aggregate of figure P.
#[derive(Debug, Clone, PartialEq)]
pub struct FigPRow {
    /// CSV label of the strategy that produced the winning schedules.
    pub strategy: String,
    /// Number of clusters.
    pub clusters: u32,
    /// Loops measured.
    pub loops: usize,
    /// Loops where the portfolio found a strictly lower II than the plain
    /// deterministic heuristic.
    pub recovered: usize,
    /// `recovered` as a percentage of `loops`.
    pub percent_recovered: f64,
    /// Mean relative II reduction over the plain heuristic, across all
    /// loops (zero for loops the portfolio did not improve).
    pub mean_ii_reduction: f64,
    /// Percentage of loops whose *plain-DMS* II matches the unclustered
    /// ideal (the figure-4 metric, under the baseline scheduler).
    pub percent_no_overhead_dms: f64,
    /// Percentage of loops whose *portfolio* II matches the unclustered
    /// ideal.
    pub percent_no_overhead: f64,
    /// Store values bit-verified against the scalar reference.
    pub verified_stores: u64,
}

/// Aggregates a portfolio sweep into per-cluster-count rows. Every row of
/// the sweep carries both the winner's II and the plain heuristic's II, so
/// no second baseline sweep is needed.
fn aggregate(strategy: &str, rows: &[LoopMeasurement], clusters: &[u32]) -> Vec<FigPRow> {
    clusters
        .iter()
        .map(|&c| {
            let of_c: Vec<&LoopMeasurement> = rows.iter().filter(|m| m.clusters == c).collect();
            let n = of_c.len();
            let pct = |count: usize| if n == 0 { 0.0 } else { 100.0 * count as f64 / n as f64 };
            let recovered = of_c.iter().filter(|m| m.clustered_ii < m.baseline_ii).count();
            let mean_ii_reduction = if n == 0 {
                0.0
            } else {
                of_c.iter().map(|m| 1.0 - m.clustered_ii as f64 / m.baseline_ii as f64).sum::<f64>()
                    / n as f64
            };
            FigPRow {
                strategy: strategy.to_string(),
                clusters: c,
                loops: n,
                recovered,
                percent_recovered: pct(recovered),
                mean_ii_reduction,
                percent_no_overhead_dms: pct(of_c
                    .iter()
                    .filter(|m| m.baseline_ii <= m.unclustered_ii)
                    .count()),
                percent_no_overhead: pct(of_c.iter().filter(|m| !m.ii_increased()).count()),
                verified_stores: of_c.iter().map(|m| m.verified_stores).sum(),
            }
        })
        .collect()
}

/// Runs the figure-P sweep: the configured suite under the configured
/// search strategy (a default portfolio when the configuration still says
/// plain `dms`), with end-to-end verification forced on — the oracle gates
/// every portfolio winner. Returns the aggregate rows plus the sweep's
/// [`SweepStats`] (whose `failed` count gates the CLI exit code).
pub fn figure_p(config: &ExperimentConfig) -> (Vec<FigPRow>, SweepStats) {
    let mut cfg = ExperimentConfig { verify: true, ..config.clone() };
    if cfg.dms.strategy == SchedulerStrategy::Dms {
        cfg.dms.strategy = SchedulerStrategy::Portfolio {
            n_candidates: DEFAULT_PORTFOLIO_CANDIDATES,
            exploit_percent: dms_sched::DEFAULT_EXPLOIT_PERCENT,
        };
    }
    let strategy = cfg.dms.strategy.label();
    let (measurements, stats) = measure_suite_with_stats(&cfg);
    (aggregate(&strategy, &measurements, &cfg.cluster_counts), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_p_defaults_to_a_portfolio_and_verifies_every_winner() {
        let mut cfg = ExperimentConfig::quick(8);
        cfg.cluster_counts = FIGP_CLUSTERS.to_vec();
        let (rows, stats) = figure_p(&cfg);
        assert_eq!(rows.len(), FIGP_CLUSTERS.len());
        assert_eq!(stats.failed, 0, "figure P must verify every winning schedule");
        assert!(stats.stores_verified > 0);
        for row in &rows {
            assert_eq!(row.strategy, "portfolio:8:50");
            assert_eq!(row.loops, 8);
            assert!(row.verified_stores > 0, "{} clusters: nothing verified", row.clusters);
            // The portfolio embeds the plain heuristic, so its no-overhead
            // fraction can only match or beat the baseline's.
            assert!(
                row.percent_no_overhead >= row.percent_no_overhead_dms,
                "{} clusters: portfolio lost to its own baseline",
                row.clusters
            );
            assert!(row.mean_ii_reduction >= 0.0);
        }
    }

    #[test]
    fn portfolio_winners_never_exceed_the_dms_baseline_ii() {
        let mut cfg = ExperimentConfig::quick(10);
        cfg.cluster_counts = vec![4, 8];
        cfg.dms.strategy = SchedulerStrategy::Portfolio { n_candidates: 6, exploit_percent: 50 };
        cfg.verify = true;
        let (rows, stats) = measure_suite_with_stats(&cfg);
        assert_eq!(stats.failed, 0);
        for m in &rows {
            assert!(
                m.clustered_ii <= m.baseline_ii,
                "loop {} at {} clusters: portfolio II {} above DMS II {}",
                m.loop_id,
                m.clusters,
                m.clustered_ii,
                m.baseline_ii
            );
            assert_eq!(m.candidates, 5);
            assert_eq!(m.strategy, "portfolio:6:50");
        }
    }

    #[test]
    fn an_explicit_beam_strategy_is_respected() {
        let mut cfg = ExperimentConfig::quick(4);
        cfg.cluster_counts = vec![4];
        cfg.dms.strategy = SchedulerStrategy::Beam { width: 2 };
        let (rows, _) = figure_p(&cfg);
        assert!(rows.iter().all(|r| r.strategy == "beam:2"));
    }
}
