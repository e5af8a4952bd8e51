//! Ablations motivated by the paper's §5 discussion.
//!
//! * **Copy units** — "When the II increases it is mainly because the Copy
//!   FUs became the most heavily used resources ... That could be improved
//!   with additional hardware support." The copy-unit ablation re-runs the
//!   wide configurations with 2 Copy units per cluster and reports how much
//!   of the partitioning overhead disappears.
//! * **Chain policy** — the paper selects between the two ring directions of
//!   a chain by maximising the free slots left for move operations; the
//!   ablation compares this against a naive shortest-path-only policy.

use crate::fig4::{figure4, Fig4Row};
use crate::runner::{measure_loops, ExperimentConfig};
use dms_core::{ChainPolicy, DmsConfig};
use dms_workloads::generate;

/// Figure-4-style rows for two variants of the same configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Human-readable name of the varied parameter.
    pub name: String,
    /// Rows of the baseline configuration.
    pub baseline: Vec<Fig4Row>,
    /// Rows of the variant configuration.
    pub variant: Vec<Fig4Row>,
}

impl AblationResult {
    /// Mean reduction (in percentage points) of the fraction of loops with
    /// II overhead, variant vs baseline, across the shared cluster counts.
    pub fn mean_overhead_reduction(&self) -> f64 {
        let mut total = 0.0;
        let mut n = 0;
        for b in &self.baseline {
            if let Some(v) = self.variant.iter().find(|v| v.clusters == b.clusters) {
                total += b.percent_increased - v.percent_increased;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    }
}

/// Copy-unit ablation: 1 vs `copy_units` Copy units per cluster on the wide
/// configurations of `config`.
pub fn copy_unit_ablation(config: &ExperimentConfig, copy_units: u32) -> AblationResult {
    let suite = generate(&config.suite);
    let baseline = figure4(&measure_loops(&suite, config));
    let variant_cfg = ExperimentConfig { copy_units, ..config.clone() };
    let variant = figure4(&measure_loops(&suite, &variant_cfg));
    AblationResult { name: format!("copy units per cluster: 1 vs {copy_units}"), baseline, variant }
}

/// Chain-policy ablation: the paper's max-free-slots selection vs the naive
/// shortest-path selection.
pub fn chain_policy_ablation(config: &ExperimentConfig) -> AblationResult {
    let suite = generate(&config.suite);
    let baseline = figure4(&measure_loops(&suite, config));
    let variant_cfg = ExperimentConfig {
        dms: DmsConfig { chain_policy: ChainPolicy::ShortestPath, ..config.dms },
        ..config.clone()
    };
    let variant = figure4(&measure_loops(&suite, &variant_cfg));
    AblationResult {
        name: "chain direction policy: max-free-slots vs shortest-path".to_string(),
        baseline,
        variant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(10);
        cfg.cluster_counts = vec![6, 8];
        cfg
    }

    #[test]
    fn copy_unit_ablation_never_increases_overhead_much() {
        let result = copy_unit_ablation(&tiny_config(), 2);
        assert_eq!(result.baseline.len(), 2);
        assert_eq!(result.variant.len(), 2);
        // Extra copy units relax a constraint; the overhead fraction should
        // not grow by more than noise.
        for (b, v) in result.baseline.iter().zip(&result.variant) {
            assert!(v.percent_increased <= b.percent_increased + 10.0 + 1e-9);
        }
        // the summary metric is finite
        assert!(result.mean_overhead_reduction().is_finite());
    }

    #[test]
    fn chain_policy_ablation_produces_comparable_rows() {
        let result = chain_policy_ablation(&tiny_config());
        assert_eq!(result.baseline.len(), result.variant.len());
        assert!(result.name.contains("chain"));
    }
}
