//! Execution of a modulo schedule on the clustered machine model.
//!
//! Every operation instance `(op, iteration)` issues at
//! `time(op) + iteration * II`. [`simulate`] checks that code generation
//! can lower the schedule (every live operation placed, every cross-cluster
//! value between directly connected clusters), emits it, and runs the
//! emitted program on the program executor ([`crate::vliw`]): every value
//! that crosses a cluster boundary is routed through a FIFO queue (one per
//! consuming operand, the way the queue register files are allocated),
//! pre-loaded with the live-in values of loop-carried dependences. The
//! values reaching the store operations are compared against the sequential
//! reference interpreter: any mis-scheduled dependence, wrong cluster
//! assignment or broken queue discipline changes those values and is
//! reported.

use crate::interp::reference_trace;
use crate::values::initial_value;
use crate::vliw::execute_program;
use dms_ir::OpId;
use dms_machine::MachineConfig;
use dms_regalloc::emit;
use dms_sched::schedule::ScheduleResult;
use std::fmt;

/// Summary of one simulated execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Total cycles, from the analytic model `(trip + stages - 1) * II`.
    pub cycles: u64,
    /// Useful (non copy/move) operation instances executed.
    pub useful_ops_executed: u64,
    /// All operation instances executed.
    pub total_ops_executed: u64,
    /// Useful instructions per cycle.
    pub ipc: f64,
    /// Number of stored values checked against the reference.
    pub stores_checked: u64,
    /// Number of values that crossed a cluster boundary.
    pub cross_cluster_values: u64,
    /// Largest occupancy reached by any inter-cluster queue.
    pub max_queue_depth: u64,
}

/// Errors detected while executing a schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A live operation of the DDG has no placement.
    Unscheduled(OpId),
    /// A flow dependence crosses indirectly connected clusters.
    CommunicationConflict {
        /// Producer operation.
        producer: OpId,
        /// Consumer operation.
        consumer: OpId,
    },
    /// A consumer tried to read from an empty inter-cluster queue (the value
    /// had not been produced yet).
    EmptyQueueRead {
        /// Consumer operation.
        consumer: OpId,
        /// Iteration of the consumer.
        iteration: u64,
    },
    /// A producer pushed into a full inter-cluster queue: the schedule keeps
    /// more values in flight than the CQRF capacity allows. Reported eagerly
    /// instead of dropping the value, which would corrupt every later read
    /// of the stream and misdiagnose a capacity problem as a value bug.
    QueueOverflow {
        /// Producer operation whose value did not fit.
        producer: OpId,
        /// Consumer operation owning the overflowing stream.
        consumer: OpId,
    },
    /// The emitted VLIW program is inconsistent with the DDG it claims to
    /// implement (wrong operand annotation, wrong arity, wrong endpoint).
    MalformedProgram {
        /// The operation whose slot is inconsistent.
        op: OpId,
        /// What is wrong with it.
        detail: String,
    },
    /// A stored value differs from the reference execution.
    StoreMismatch {
        /// Store operation.
        op: OpId,
        /// Iteration at which the mismatch occurred.
        iteration: u64,
        /// Value the reference produced.
        expected: i64,
        /// Value the pipelined execution produced.
        actual: i64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unscheduled(op) => write!(f, "{op} is not scheduled"),
            SimError::CommunicationConflict { producer, consumer } => {
                write!(f, "value of {producer} cannot reach {consumer}: clusters not adjacent")
            }
            SimError::EmptyQueueRead { consumer, iteration } => {
                write!(f, "{consumer} read an empty queue in iteration {iteration}")
            }
            SimError::MalformedProgram { op, detail } => {
                write!(f, "emitted program is inconsistent at {op}: {detail}")
            }
            SimError::QueueOverflow { producer, consumer } => {
                write!(f, "value of {producer} for {consumer} overflowed a CQRF: capacity exceeded")
            }
            SimError::StoreMismatch { op, iteration, expected, actual } => write!(
                f,
                "{op} stored {actual} in iteration {iteration}, reference stored {expected}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Executes `trip_count` iterations of a scheduled loop and cross-checks the
/// stored values against the sequential reference interpreter.
///
/// # Errors
///
/// Returns a [`SimError`] describing the first inconsistency found; a correct
/// schedule of a valid DDG never fails.
pub fn simulate(
    result: &ScheduleResult,
    machine: &MachineConfig,
    trip_count: u64,
) -> Result<SimReport, SimError> {
    let ddg = &result.ddg;
    let schedule = &result.schedule;
    let topology = machine.topology();
    for (consumer, op) in ddg.live_ops() {
        let c_place = schedule.get(consumer).ok_or(SimError::Unscheduled(consumer))?;
        for (producer, _) in op.defs_read() {
            let p_place = schedule.get(producer).ok_or(SimError::Unscheduled(producer))?;
            if p_place.cluster != c_place.cluster
                && !topology.directly_connected(p_place.cluster, c_place.cluster)
            {
                return Err(SimError::CommunicationConflict { producer, consumer });
            }
        }
    }

    let exec = execute_program(&emit(result, machine), ddg, machine, trip_count)?;
    let mut stores = exec.stores;
    stores.sort_unstable_by_key(|r| (r.iteration, r.op));
    let reference = reference_trace(ddg, trip_count);
    for rec in &reference {
        let actual = stores
            .binary_search_by_key(&(rec.iteration, rec.op), |r| (r.iteration, r.op))
            .map_or_else(|_| initial_value(rec.op, -1), |i| stores[i].value);
        if actual != rec.value {
            return Err(SimError::StoreMismatch {
                op: rec.op,
                iteration: rec.iteration,
                expected: rec.value,
                actual,
            });
        }
    }

    let cycles = schedule.cycles(trip_count);
    let useful = exec.useful_instances;
    Ok(SimReport {
        cycles,
        useful_ops_executed: useful,
        total_ops_executed: exec.instances_executed,
        ipc: if cycles == 0 { 0.0 } else { useful as f64 / cycles as f64 },
        stores_checked: reference.len() as u64,
        cross_cluster_values: exec.cross_cluster_values,
        max_queue_depth: exec.max_queue_depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_core::{dms_schedule, DmsConfig};
    use dms_ir::{kernels, transform};
    use dms_sched::ims::{ims_schedule, ImsConfig};

    #[test]
    fn every_kernel_executes_correctly_on_clustered_machines() {
        for l in kernels::all(40) {
            for clusters in [1, 2, 4, 6, 8] {
                let m = MachineConfig::paper_clustered(clusters);
                let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
                let report = simulate(&r, &m, l.trip_count).unwrap_or_else(|e| {
                    panic!("{} on {clusters} clusters: simulation failed: {e}", l.name)
                });
                assert!(report.stores_checked > 0);
                assert_eq!(
                    report.useful_ops_executed,
                    l.useful_ops() as u64 * l.trip_count,
                    "{}",
                    l.name
                );
            }
        }
    }

    #[test]
    fn ims_schedules_execute_correctly_on_unclustered_machines() {
        for l in kernels::all(40) {
            let m = MachineConfig::unclustered(4);
            let r = ims_schedule(&l, &m, &ImsConfig::default()).unwrap();
            let report = simulate(&r, &m, l.trip_count).unwrap();
            assert_eq!(report.cross_cluster_values, 0);
            assert!(report.ipc > 0.0);
        }
    }

    #[test]
    fn cross_cluster_values_flow_through_queues() {
        // 16 loads + 16 muls + a reduction tree: the Load/Store pressure
        // forces the loads to spread over many clusters, so the reduction has
        // to pull values across cluster boundaries.
        let l = kernels::fir(16, 512);
        let m = MachineConfig::paper_clustered(8);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let used: std::collections::HashSet<_> =
            r.schedule.iter().map(|(_, s)| s.cluster).collect();
        assert!(used.len() > 1, "17 memory operations cannot fit in one cluster at this II");
        let report = simulate(&r, &m, 64).unwrap();
        assert!(report.cross_cluster_values > 0);
        assert!(report.max_queue_depth >= 1);
        let _ = transform::unroll(&l, 1); // keep the transform import exercised
    }

    #[test]
    fn dependence_violation_changes_stored_values() {
        // Issue a producer too late (after its consumer) and check the store
        // mismatch (or empty queue read) is caught.
        let l = kernels::daxpy(32);
        let m = MachineConfig::paper_clustered(2);
        let mut r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let store = r
            .ddg
            .live_ops()
            .find(|(_, o)| o.kind == dms_ir::OpKind::Store)
            .map(|(id, _)| id)
            .unwrap();
        let producer = r.ddg.op(store).defs_read().next().unwrap().0;
        let place = r.schedule.get(producer).unwrap();
        // push the producer 10 * II later, violating the dependence
        let late = place.time + 10 * r.ii();
        r.schedule.place(producer, late, place.cluster);
        let outcome = simulate(&r, &m, 8);
        assert!(
            matches!(
                outcome,
                Err(SimError::StoreMismatch { .. }) | Err(SimError::EmptyQueueRead { .. })
            ),
            "a violated dependence must be detected, got {outcome:?}"
        );
    }

    #[test]
    fn report_ipc_matches_schedule_model() {
        let l = kernels::fir(8, 200);
        let m = MachineConfig::paper_clustered(4);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let report = simulate(&r, &m, l.trip_count).unwrap();
        assert_eq!(report.cycles, r.cycles(l.trip_count));
        assert!((report.ipc - r.ipc(l.trip_count)).abs() < 1e-9);
    }

    #[test]
    fn error_display() {
        let e = SimError::EmptyQueueRead { consumer: OpId(2), iteration: 5 };
        assert!(e.to_string().contains("op2"));
    }
}
