//! Properties of the program executor: one walk computes values and timing,
//! and the transfer model only ever moves the timing.

use dms_core::{dms_schedule, DmsConfig};
use dms_ir::kernels;
use dms_machine::{CqrfId, MachineConfig, TopologyKind, TransferModel};
use dms_regalloc::codegen::OperandSource;
use dms_regalloc::emit;
use dms_sim::{contended_replay, execute_program, run_program, SimError};

const TOPOLOGIES: [TopologyKind; 4] = [
    TopologyKind::Ring,
    TopologyKind::ChordalRing { chord: 2 },
    TopologyKind::Bus,
    TopologyKind::Crossbar,
];

/// Every (kernel, topology, cluster count, trip count) cell: trips 0, 1, 2,
/// the stage count and the kernel's own trip count.
#[test]
fn timing_never_changes_values_and_never_beats_the_schedule() {
    let suite = kernels::all(40);
    let mut cells = 0;
    for l in &suite {
        for kind in TOPOLOGIES {
            for clusters in [1, 2, 4, 8] {
                let m = MachineConfig::paper_clustered(clusters).with_topology(kind);
                let r = dms_schedule(l, &m, &DmsConfig::default()).unwrap();
                let p = emit(&r, &m);
                let model = m.topology().transfer_model();
                for trips in [0, 1, 2, u64::from(p.stages), l.trip_count] {
                    let cell = format!("{} on {kind} x{clusters}, {trips} trips", l.name);
                    let ideal = run_program(&p, &r.ddg, &m, TransferModel::Unconstrained, trips)
                        .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    let timed = run_program(&p, &r.ddg, &m, model, trips)
                        .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    assert_eq!(timed.report, ideal.report, "{cell}: timing changed values");
                    assert_eq!(
                        execute_program(&p, &r.ddg, &m, trips).unwrap(),
                        ideal.report,
                        "{cell}"
                    );
                    assert_eq!(contended_replay(&p, &r.ddg, &m, trips).unwrap(), timed.timing);

                    let t = timed.timing;
                    assert_eq!(t.scheduled_ii, r.ii(), "{cell}");
                    assert!(t.achieved_ii >= t.scheduled_ii, "{cell}: {t:?}");
                    assert!(t.cycles >= t.ideal_cycles, "{cell}: {t:?}");
                    assert_eq!(t.stall_cycles, t.cycles - t.ideal_cycles, "{cell}");
                    assert_eq!(ideal.timing.cycles, ideal.timing.ideal_cycles, "{cell}");
                    assert_eq!(ideal.timing.achieved_ii, ideal.timing.scheduled_ii, "{cell}");
                    assert_eq!(ideal.timing.transfers, 0, "{cell}");
                    if kind == TopologyKind::Crossbar {
                        assert_eq!(t, ideal.timing, "{cell}: a crossbar never stalls");
                    }
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, suite.len() * TOPOLOGIES.len() * 4 * 5);
}

#[test]
fn slot_arity_mismatch_is_malformed_under_every_model() {
    let l = kernels::daxpy(16);
    for kind in TOPOLOGIES {
        let m = MachineConfig::paper_clustered(2).with_topology(kind);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let mut p = emit(&r, &m);
        let slot = p
            .kernel
            .iter_mut()
            .flat_map(|w| &mut w.slots)
            .find(|s| s.sources.len() > 1)
            .expect("daxpy has multi-operand slots");
        slot.sources.pop();
        assert!(matches!(
            execute_program(&p, &r.ddg, &m, 8),
            Err(SimError::MalformedProgram { .. })
        ));
        assert!(matches!(
            contended_replay(&p, &r.ddg, &m, 8),
            Err(SimError::MalformedProgram { .. })
        ));
    }
}

#[test]
fn cqrf_annotation_naming_the_wrong_queue_is_malformed() {
    let l = kernels::fir(16, 128);
    let m = MachineConfig::paper_clustered(8);
    let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
    let mut p = emit(&r, &m);
    let queue = p
        .kernel
        .iter_mut()
        .flat_map(|w| &mut w.slots)
        .flat_map(|s| &mut s.sources)
        .find_map(|source| match source {
            OperandSource::Cqrf { queue, .. } => Some(queue),
            _ => None,
        })
        .expect("fir(16) on 8 clusters moves values between clusters");
    // The reverse direction is a real queue file, but not this value's.
    *queue = CqrfId { writer: queue.reader, reader: queue.writer };
    assert!(matches!(execute_program(&p, &r.ddg, &m, 8), Err(SimError::MalformedProgram { .. })));
    assert!(matches!(contended_replay(&p, &r.ddg, &m, 8), Err(SimError::MalformedProgram { .. })));
}

#[test]
fn one_register_cqrfs_overflow_under_every_model() {
    let l = kernels::fir(16, 128);
    let mut exercised = 0;
    for kind in TOPOLOGIES {
        let m = MachineConfig::paper_clustered(8).with_topology(kind);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let p = emit(&r, &m);
        let depth = execute_program(&p, &r.ddg, &m, 64).unwrap().max_queue_depth;
        if depth < 2 {
            continue;
        }
        exercised += 1;
        let tight = m.clone().with_cqrf_capacity(1);
        for model in [TransferModel::Unconstrained, tight.topology().transfer_model()] {
            assert!(
                matches!(
                    run_program(&p, &r.ddg, &tight, model, 64),
                    Err(SimError::QueueOverflow { .. })
                ),
                "{kind}: a depth-{depth} stream must overflow a 1-register CQRF under {model}"
            );
        }
    }
    assert!(exercised > 0, "no topology had a queue depth of 2 or more");
}
