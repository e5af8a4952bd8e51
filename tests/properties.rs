//! Property-based tests over randomly generated loop bodies.
//!
//! A small generator builds arbitrary (but well-formed) loop DDGs from a
//! deterministic RNG stream (the vendored offline `rand` shim — proptest is
//! not available in this build environment, so each property runs a fixed
//! number of seeded cases instead of shrinking ones); the properties assert
//! the core invariants of the reproduction:
//!
//! * the single-use conversion bounds every fan-out by two and preserves the
//!   sequential semantics,
//! * unrolling preserves well-formedness and scales the body size,
//! * IMS and DMS always produce schedules that pass the independent
//!   validator,
//! * DMS schedules execute correctly on the clustered machine model
//!   (queue discipline included) for every generated loop.

use dms_core::{dms_schedule, DmsConfig};
use dms_ir::analysis;
use dms_ir::{transform, LatencySpec, Loop, LoopBuilder, OpKind, Operand};
use dms_machine::MachineConfig;
use dms_sched::ims::{ims_schedule, ImsConfig};
use dms_sched::validate_schedule;
use dms_sim::{reference_trace, simulate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

/// Builds one random but well-formed loop, mirroring the shapes the old
/// proptest strategy produced: 1–3 loads, 1–9 arithmetic ops with occasional
/// feedback (recurrence) edges, 1–2 stores, trip count 4–47.
fn arb_loop(rng: &mut StdRng) -> Loop {
    let mut b = LoopBuilder::new("proptest_loop");
    let mut values = Vec::new();
    for _ in 0..rng.gen_range(1u32..4) {
        values.push(b.load(Operand::Induction));
    }
    for _ in 0..rng.gen_range(1usize..10) {
        let kind = match rng.gen_range(0u8..4) {
            0 => OpKind::Add,
            1 => OpKind::Sub,
            2 => OpKind::Mul,
            _ => OpKind::Div,
        };
        let pick = |rng: &mut StdRng, values: &Vec<dms_ir::OpId>| -> Operand {
            values[rng.gen_range(0..values.len())].into()
        };
        let a = pick(rng, &values);
        let v = if rng.gen_bool(0.15) {
            b.feedback(kind, a, rng.gen_range(1u32..3))
        } else {
            let c = pick(rng, &values);
            b.op(kind, vec![a, c])
        };
        values.push(v);
    }
    b.store((*values.last().unwrap()).into());
    for k in 1..rng.gen_range(1u8..3) {
        let v = values[(k as usize * 3) % values.len()];
        b.store(v.into());
    }
    b.finish(rng.gen_range(4u64..48))
}

const SEED_BASE: u64 = 0xD5_1999 << 8;

/// Runs `property` on [`CASES`] independently seeded generated loops.
fn run_cases(property_id: u64, property: impl Fn(Loop)) {
    for case in 0..CASES {
        // Spread the property id into high bits so the per-property case
        // streams never overlap.
        let case_seed = (SEED_BASE ^ (property_id << 32)).wrapping_add(case);
        let mut rng = StdRng::seed_from_u64(case_seed);
        let l = arb_loop(&mut rng);
        property(l);
    }
}

#[test]
fn generated_loops_are_well_formed() {
    run_cases(1, |l| {
        assert!(l.ddg.validate().is_ok());
        assert!(analysis::cycles_have_positive_distance(&l.ddg));
        assert!(l.useful_ops() >= 3);
    });
}

#[test]
fn single_use_conversion_bounds_fanout_and_preserves_semantics() {
    run_cases(2, |l| {
        let (t, _copies) = transform::single_use_loop(&l, &LatencySpec::default());
        assert!(t.ddg.validate().is_ok());
        assert!(analysis::max_flow_fanout(&t.ddg) <= 2);
        assert_eq!(t.useful_ops(), l.useful_ops());
        assert_eq!(reference_trace(&t.ddg, 16), reference_trace(&l.ddg, 16));
    });
}

#[test]
fn unrolling_preserves_well_formedness() {
    run_cases(3, |l| {
        for factor in 1u32..5 {
            let u = transform::unroll(&l, factor);
            assert!(u.ddg.validate().is_ok());
            assert!(analysis::cycles_have_positive_distance(&u.ddg));
            assert_eq!(u.ddg.num_live_ops(), l.ddg.num_live_ops() * factor as usize);
            assert_eq!(analysis::has_recurrence(&u.ddg), analysis::has_recurrence(&l.ddg));
        }
    });
}

#[test]
fn ims_schedules_are_valid_and_at_least_mii() {
    run_cases(4, |l| {
        for width in 1u32..6 {
            let machine = MachineConfig::unclustered(width);
            let r = ims_schedule(&l, &machine, &ImsConfig::default()).unwrap();
            assert!(validate_schedule(&r.ddg, &machine, &r.schedule).is_empty());
            assert!(r.ii() >= r.stats.mii.unwrap().mii());
        }
    });
}

#[test]
fn dms_schedules_are_valid_and_execute_correctly() {
    run_cases(5, |l| {
        for clusters in 1u32..9 {
            let machine = MachineConfig::paper_clustered(clusters);
            let r = dms_schedule(&l, &machine, &DmsConfig::default()).unwrap();
            assert!(validate_schedule(&r.ddg, &machine, &r.schedule).is_empty());
            assert!(r.ddg.validate().is_ok());
            assert!(r.ii() >= r.stats.mii.unwrap().mii());
            let report = simulate(&r, &machine, l.trip_count).unwrap();
            assert_eq!(report.useful_ops_executed, l.useful_ops() as u64 * l.trip_count);
        }
    });
}

/// The incremental queue-pressure estimate maintained by `SchedulerState`
/// while placing, displacing and chaining operations must equal the register
/// requirements `dms_regalloc::lifetime` derives from the final schedule —
/// in particular the estimator may never under-report, or the scheduler's
/// capacity-driven II retries would accept schedules the allocator rejects.
/// Checked for every suite loop on every cluster count of the paper's range,
/// through the same unrolling pipeline the sweep uses.
#[test]
fn incremental_pressure_estimate_equals_the_allocators_ground_truth() {
    use dms_sched::QueuePressure;
    use dms_workloads::{generate, unroll_for_machine, SuiteConfig, UnrollPolicy};
    let suite = generate(&SuiteConfig::small(24));
    let unroll = UnrollPolicy::default();
    for sl in &suite {
        for clusters in 1u32..=10 {
            let machine = MachineConfig::paper_clustered(clusters);
            let body = unroll_for_machine(&sl.body, machine.total_useful_fus(), &unroll);
            let r = dms_schedule(&body, &machine, &DmsConfig::default()).unwrap();
            let topology = machine.topology();
            let lifetimes = dms_regalloc::lifetime::lifetimes(&r.ddg, &r.schedule, &topology);
            let truth = QueuePressure::from_lifetimes(&lifetimes, clusters);
            assert_eq!(
                r.pressure, truth,
                "{} on {clusters} clusters: the incremental estimate diverged from the \
                 lifetimes of the final schedule",
                body.name
            );
            assert_eq!(r.pressure.conflict_depth(), 0, "{}: conflict left behind", body.name);
            // Equality with the allocator's accepted requirements is the
            // no-under-reporting guarantee in its strongest form.
            let alloc = dms_regalloc::allocate(&r, &machine)
                .unwrap_or_else(|e| panic!("{} on {clusters} clusters: {e}", body.name));
            assert_eq!(r.pressure.lrf_registers(), alloc.lrf_registers.as_slice());
            assert_eq!(r.pressure.cqrf_registers(), &alloc.cqrf_registers);
        }
    }
}

/// Metric and queue-file properties of every interconnect variant, over the
/// whole 1..10 cluster range of the paper's sweep: the hop distance is a
/// genuine metric (symmetric, triangle inequality), direct connectivity is
/// exactly distance ≤ 1, `queue_between` is total on connected distinct
/// pairs and empty otherwise, every enumerated queue file is reachable
/// through `queue_between`, and every path returned by `paths` walks
/// directly connected hops from source to destination.
#[test]
fn topology_invariants_hold_for_every_variant_and_cluster_count() {
    use dms_machine::{ClusterId, Topology, TopologyKind};
    let kinds = [
        TopologyKind::Ring,
        TopologyKind::ChordalRing { chord: 2 },
        TopologyKind::ChordalRing { chord: 3 },
        TopologyKind::Bus,
        TopologyKind::Crossbar,
    ];
    for kind in kinds {
        for clusters in 1u32..=10 {
            let t = Topology::new(kind, clusters);
            assert_eq!(t.len(), clusters);
            let mut seen_queues = std::collections::BTreeSet::new();
            for a in t.iter() {
                assert_eq!(t.distance(a, a), 0, "{t}: distance to self");
                for b in t.iter() {
                    let d = t.distance(a, b);
                    assert_eq!(d, t.distance(b, a), "{t}: asymmetric distance {a} {b}");
                    assert_eq!(
                        t.directly_connected(a, b),
                        d <= 1,
                        "{t}: connectivity must be distance <= 1 for {a} {b}"
                    );
                    for c in t.iter() {
                        assert!(
                            t.distance(a, c) <= d + t.distance(b, c),
                            "{t}: triangle inequality violated for {a} {b} {c}"
                        );
                    }
                    match t.queue_between(a, b) {
                        Some(q) => {
                            assert!(a != b && t.directly_connected(a, b));
                            assert_eq!(q.writer, a, "{t}: queue writer must be the producer");
                            seen_queues.insert(q);
                        }
                        None => assert!(
                            a == b || !t.directly_connected(a, b),
                            "{t}: queue_between must be total on connected pairs {a} {b}"
                        ),
                    }
                    // paths: start/end correct, hops directly connected
                    let paths = t.paths(a, b);
                    assert!(!paths.is_empty(), "{t}: connected machines always have a path");
                    for p in &paths {
                        assert_eq!(p.clusters.first(), Some(&a));
                        assert_eq!(p.clusters.last(), Some(&b));
                        assert!(p.hops() >= d as usize);
                        for w in p.clusters.windows(2) {
                            assert_ne!(w[0], w[1], "{t}: paths never revisit in place");
                            assert!(t.directly_connected(w[0], w[1]));
                        }
                    }
                    // the shortest returned path realises the distance
                    assert_eq!(paths[0].hops(), d as usize, "{t}: shortest path {a} {b}");
                }
            }
            // every advertised queue file is reachable via queue_between
            let files = t.queue_files();
            assert_eq!(files.len(), seen_queues.len(), "{t}: queue files vs queue_between");
            assert!(files.iter().all(|q| seen_queues.contains(q)), "{t}");
            if clusters == 1 {
                assert!(files.is_empty(), "{t}: a single cluster has no CQRF");
            }
            let _ = ClusterId(0);
        }
    }
}

/// Every portfolio winner Pareto-dominates-or-equals the plain DMS point on
/// (II, total queue pressure, code size): the portfolio keeps the
/// deterministic heuristic as candidate 0 and only replaces it with a
/// strict improvement, so no objective may ever regress — on randomly
/// generated loops as much as on the curated suite. The winner must also
/// still pass the independent validator and execute correctly.
#[test]
fn portfolio_winners_pareto_dominate_or_equal_the_plain_dms_point() {
    use dms_core::SchedulerStrategy;
    let code_size = |r: &dms_core::ScheduleOutcome| {
        (2 * (u64::from(r.schedule.stage_count()) - 1) + 1) * u64::from(r.ii())
    };
    run_cases(7, |l| {
        for clusters in [2u32, 4, 8] {
            let machine = MachineConfig::paper_clustered(clusters);
            let plain = dms_schedule(&l, &machine, &DmsConfig::default()).unwrap();
            let cfg = DmsConfig {
                strategy: SchedulerStrategy::Portfolio { n_candidates: 6, exploit_percent: 50 },
                ..DmsConfig::default()
            };
            let winner = dms_schedule(&l, &machine, &cfg).unwrap();
            let tag = format!("{} on {clusters} clusters", l.name);
            assert_eq!(winner.baseline_ii, plain.ii(), "{tag}: wrong baseline");
            assert_eq!(winner.candidates_run, 5, "{tag}: wrong challenger count");
            assert!(winner.ii() <= plain.ii(), "{tag}: II regressed");
            assert!(
                winner.pressure.total() <= plain.pressure.total(),
                "{tag}: queue pressure regressed"
            );
            assert!(code_size(&winner) <= code_size(&plain), "{tag}: code size regressed");
            assert!(validate_schedule(&winner.ddg, &machine, &winner.schedule).is_empty(), "{tag}");
            let report = simulate(&winner, &machine, l.trip_count).unwrap();
            assert_eq!(report.useful_ops_executed, l.useful_ops() as u64 * l.trip_count, "{tag}");
        }
    });
}

/// The canonical DDG hash is an isomorphism invariant: re-inserting the ops of any generated loop in a different
/// order (with operands and edges remapped accordingly) never changes the
/// hash, while semantically meaningful mutations — an edge latency, a
/// dependence distance, a dropped edge — always do.
#[test]
fn canonical_hash_is_permutation_invariant_and_mutation_sensitive() {
    use dms_ir::canon::{self, canonical_hash};
    run_cases(8, |l| {
        let n = l.ddg.num_slots();
        let h = canonical_hash(&l.ddg);

        // Reversal and a rotation: two maximally-different insertion orders.
        let reversed: Vec<usize> = (0..n).rev().collect();
        assert_eq!(canonical_hash(&canon::permute(&l.ddg, &reversed)), h, "{}: reversal", l.name);
        let rotated: Vec<usize> = (0..n).map(|i| (i + n / 2) % n).collect();
        assert_eq!(canonical_hash(&canon::permute(&l.ddg, &rotated)), h, "{}: rotation", l.name);

        // A renamed loop is the same graph: the hash covers only the DDG.
        let renamed = Loop { name: "renamed".to_string(), ..l.clone() };
        assert_eq!(canonical_hash(&renamed.ddg), h);

        // Mutations that change the dependence structure must change the
        // hash (the service's exact-fingerprint guard is not reached unless
        // the canonical key matches, so collisions here would conflate
        // genuinely different scheduling problems).
        let edges: Vec<_> = l.ddg.live_edges().map(|(id, e)| (id, *e)).collect();
        let (first_edge, e) = edges[0];
        let mut latency_bumped = l.ddg.clone();
        latency_bumped.remove_edge(first_edge);
        latency_bumped.add_edge(dms_ir::DepEdge { latency: e.latency + 7, ..e });
        assert_ne!(canonical_hash(&latency_bumped), h, "{}: latency bump", l.name);

        let mut distance_bumped = l.ddg.clone();
        distance_bumped.remove_edge(first_edge);
        distance_bumped.add_edge(dms_ir::DepEdge { distance: e.distance + 3, ..e });
        assert_ne!(canonical_hash(&distance_bumped), h, "{}: distance bump", l.name);

        let mut edge_dropped = l.ddg.clone();
        edge_dropped.remove_edge(first_edge);
        assert_ne!(canonical_hash(&edge_dropped), h, "{}: dropped edge", l.name);
    });
}

#[test]
fn register_allocation_succeeds_for_every_valid_schedule() {
    run_cases(6, |l| {
        for clusters in 1u32..7 {
            let machine = MachineConfig::paper_clustered(clusters);
            let r = dms_schedule(&l, &machine, &DmsConfig::default()).unwrap();
            let alloc = dms_regalloc::allocate(&r, &machine).unwrap();
            assert!(alloc.total_registers() >= 1);
            assert_eq!(alloc.lrf_registers.len(), clusters as usize);
            // every cross-cluster lifetime lives in a CQRF between adjacent clusters
            for id in alloc.cqrf_registers.keys() {
                assert_eq!(machine.topology().distance(id.writer, id.reader), 1);
            }
        }
    });
}
