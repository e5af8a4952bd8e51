//! The synthetic Perfect-Club-substitute loop suite.

use dms_ir::analysis::has_recurrence;
use dms_ir::{kernels, Loop, LoopBuilder, OpId, OpKind, Operand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Classification of a suite loop, matching the paper's two evaluation sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopClass {
    /// The loop contains at least one recurrence circuit (still part of
    /// Set 1, but excluded from Set 2).
    WithRecurrence,
    /// The loop has no recurrence — the paper's Set 2, "highly vectorizable,
    /// having characteristics similar to the ones usually found in DSP
    /// applications".
    Vectorizable,
}

/// One loop of the suite, with its classification.
#[derive(Debug, Clone)]
pub struct SuiteLoop {
    /// Dense index of the loop within the suite.
    pub id: usize,
    /// The loop body and trip count.
    pub body: Loop,
    /// Whether the loop contains a recurrence.
    pub class: LoopClass,
}

impl SuiteLoop {
    /// Whether the loop belongs to Set 2 (no recurrences).
    pub fn in_set2(&self) -> bool {
        self.class == LoopClass::Vectorizable
    }
}

/// Parameters of the suite generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteConfig {
    /// Number of loops to generate (the paper uses 1258).
    pub num_loops: usize,
    /// RNG seed; the same seed always produces the same suite.
    pub seed: u64,
    /// Probability that a synthetic loop contains a recurrence circuit.
    pub recurrence_probability: f64,
    /// Smallest loop body size (useful operations).
    pub min_ops: usize,
    /// Largest loop body size (useful operations).
    pub max_ops: usize,
}

impl SuiteConfig {
    /// The configuration used by the paper-scale experiments: 1258 loops.
    pub fn paper() -> Self {
        SuiteConfig {
            num_loops: 1258,
            seed: 0x00DA_15C0,
            recurrence_probability: 0.45,
            min_ops: 4,
            max_ops: 32,
        }
    }

    /// A reduced configuration for quick runs, unit tests and benches.
    pub fn small(num_loops: usize) -> Self {
        SuiteConfig { num_loops, ..Self::paper() }
    }
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Aggregate statistics of a generated suite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuiteStats {
    /// Number of loops.
    pub loops: usize,
    /// Number of loops without recurrences (Set 2).
    pub vectorizable: usize,
    /// Mean number of useful operations per loop body.
    pub mean_ops: f64,
    /// Mean fraction of memory operations per loop body.
    pub mean_memory_fraction: f64,
}

/// Generates the suite. Deterministic for a given configuration.
pub fn generate(config: &SuiteConfig) -> Vec<SuiteLoop> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.num_loops);
    // Roughly a quarter of the suite comes from parameterised classic
    // kernels; the rest are random dataflow bodies.
    for id in 0..config.num_loops {
        let body =
            if id % 4 == 0 { kernel_instance(&mut rng) } else { random_loop(&mut rng, config, id) };
        let class = if has_recurrence(&body.ddg) {
            LoopClass::WithRecurrence
        } else {
            LoopClass::Vectorizable
        };
        out.push(SuiteLoop { id, body, class });
    }
    out
}

/// Aggregate statistics of a suite.
pub fn suite_stats(suite: &[SuiteLoop]) -> SuiteStats {
    let loops = suite.len();
    let vectorizable = suite.iter().filter(|l| l.in_set2()).count();
    let mut total_ops = 0usize;
    let mut total_mem_fraction = 0.0f64;
    for l in suite {
        let useful = l.body.useful_ops();
        let mem = l.body.ddg.live_ops().filter(|(_, o)| o.kind.is_memory()).count();
        total_ops += useful;
        if useful > 0 {
            total_mem_fraction += mem as f64 / useful as f64;
        }
    }
    SuiteStats {
        loops,
        vectorizable,
        mean_ops: if loops == 0 { 0.0 } else { total_ops as f64 / loops as f64 },
        mean_memory_fraction: if loops == 0 { 0.0 } else { total_mem_fraction / loops as f64 },
    }
}

/// Picks a classic kernel with randomised parameters.
fn kernel_instance(rng: &mut StdRng) -> Loop {
    let trip = rng.gen_range(50..=1000);
    match rng.gen_range(0..10u32) {
        0 => kernels::daxpy(trip),
        1 => kernels::dot_product(trip),
        2 => kernels::fir(rng.gen_range(2..=12), trip),
        3 => kernels::iir(trip),
        4 => kernels::stencil3(trip),
        5 => kernels::livermore5(trip),
        6 => kernels::complex_multiply(trip),
        7 => kernels::prefix_sum(trip),
        8 => kernels::horner(rng.gen_range(2..=6), trip),
        _ => kernels::vector_scale(trip),
    }
}

/// Generates one random but well-formed loop body.
///
/// The construction mirrors the structure of numeric innermost loops: a set
/// of loads feeding a dataflow of arithmetic operations (biased towards
/// recently produced values), optionally one or two accumulator-style
/// recurrences, and stores of otherwise-unused results.
fn random_loop(rng: &mut StdRng, config: &SuiteConfig, id: usize) -> Loop {
    let trip = rng.gen_range(50..=1000);
    let target_ops = rng.gen_range(config.min_ops..=config.max_ops);
    let mut b = LoopBuilder::new(format!("synthetic_{id}"));

    // Loads: roughly a third of the body.
    let num_loads = ((target_ops as f64 * rng.gen_range(0.25..0.40)) as usize).max(1);
    let mut values: Vec<OpId> = Vec::new();
    for _ in 0..num_loads {
        let addr = if rng.gen_bool(0.8) {
            Operand::Induction
        } else {
            Operand::Invariant(rng.gen_range(0..4))
        };
        values.push(b.load(addr));
    }

    // Arithmetic dataflow.
    let with_recurrence = rng.gen_bool(config.recurrence_probability);
    let num_arith = target_ops.saturating_sub(num_loads + 1).max(1);
    let mut recurrences_added = 0usize;
    for k in 0..num_arith {
        let kind = match rng.gen_range(0..100u32) {
            0..=39 => OpKind::Add,
            40..=54 => OpKind::Sub,
            55..=89 => OpKind::Mul,
            90..=94 => OpKind::Div,
            _ => OpKind::Add,
        };
        // Bias operand selection towards recent values (short lifetimes).
        let pick = |rng: &mut StdRng, values: &Vec<OpId>| -> Operand {
            if values.is_empty() || rng.gen_bool(0.1) {
                Operand::Invariant(rng.gen_range(0..4))
            } else {
                let n = values.len();
                let idx = n - 1 - rng.gen_range(0..n.min(4));
                values[idx].into()
            }
        };
        let a = pick(rng, &values);
        let make_recurrence =
            with_recurrence && recurrences_added < 2 && k + 1 >= num_arith / 2 && rng.gen_bool(0.5);
        let v = if make_recurrence {
            recurrences_added += 1;
            b.feedback(kind, a, rng.gen_range(1..=3))
        } else {
            let c = pick(rng, &values);
            b.op(kind, vec![a, c])
        };
        values.push(v);
    }

    // Stores: the last value plus a couple of random ones.
    let num_stores = rng.gen_range(1..=3usize).min(values.len());
    b.store((*values.last().expect("at least one value")).into());
    for _ in 1..num_stores {
        let v = values[rng.gen_range(0..values.len())];
        b.store(v.into());
    }

    b.finish(trip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::analysis;

    #[test]
    fn suite_is_deterministic() {
        let a = generate(&SuiteConfig::small(50));
        let b = generate(&SuiteConfig::small(50));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.body.name, y.body.name);
            assert_eq!(x.body.ddg.num_live_ops(), y.body.ddg.num_live_ops());
            assert_eq!(x.class, y.class);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SuiteConfig::small(50));
        let b = generate(&SuiteConfig { seed: 7, ..SuiteConfig::small(50) });
        let sizes_a: Vec<_> = a.iter().map(|l| l.body.ddg.num_live_ops()).collect();
        let sizes_b: Vec<_> = b.iter().map(|l| l.body.ddg.num_live_ops()).collect();
        assert_ne!(sizes_a, sizes_b);
    }

    #[test]
    fn every_generated_loop_is_well_formed() {
        for l in generate(&SuiteConfig::small(200)) {
            assert!(l.body.ddg.validate().is_ok(), "{} invalid", l.body.name);
            assert!(
                analysis::cycles_have_positive_distance(&l.body.ddg),
                "{} has a zero-distance cycle",
                l.body.name
            );
            assert!(l.body.useful_ops() >= 3);
            assert!(l.body.trip_count >= 50);
            assert_eq!(l.in_set2(), !analysis::has_recurrence(&l.body.ddg));
        }
    }

    #[test]
    fn suite_has_both_classes_in_reasonable_proportion() {
        let suite = generate(&SuiteConfig::small(400));
        let stats = suite_stats(&suite);
        assert_eq!(stats.loops, 400);
        let frac = stats.vectorizable as f64 / stats.loops as f64;
        assert!(frac > 0.30 && frac < 0.80, "Set 2 fraction {frac} out of expected range");
        assert!(stats.mean_ops >= 5.0 && stats.mean_ops <= 40.0);
        assert!(stats.mean_memory_fraction > 0.2 && stats.mean_memory_fraction < 0.7);
    }

    #[test]
    fn paper_configuration_has_1258_loops() {
        assert_eq!(SuiteConfig::paper().num_loops, 1258);
    }

    #[test]
    fn suite_sizes_span_small_and_large_bodies() {
        let suite = generate(&SuiteConfig::small(300));
        let sizes: Vec<usize> = suite.iter().map(|l| l.body.useful_ops()).collect();
        assert!(sizes.iter().any(|&s| s <= 6));
        assert!(sizes.iter().any(|&s| s >= 20));
    }
}
