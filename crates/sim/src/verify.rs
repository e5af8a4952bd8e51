//! End-to-end verification of a schedule: the functional-correctness oracle.
//!
//! [`verify_schedule`] drives the *whole* back half of the compilation
//! pipeline for one scheduled loop and cross-checks the result against the
//! semantics of the source loop:
//!
//! 1. **structural validation** — every dependence, resource and
//!    communication constraint re-checked by `dms_sched::validate`,
//! 2. **register allocation** — every lifetime must fit the LRF/CQRF
//!    capacities (`dms_regalloc::allocate`),
//! 3. **code generation** — the schedule is lowered to the software-pipelined
//!    VLIW program (`dms_regalloc::emit`),
//! 4. **execution** — the emitted prologue, kernel and epilogue run on the
//!    program executor ([`crate::vliw::run_program`]), which times the words
//!    under a transfer model in the same walk ([`verify_timed`]),
//! 5. **cross-check** — the executed store trace must be bit-equal to a
//!    scalar reference interpretation of the *original* (untransformed) loop
//!    DDG ([`crate::interp::reference_trace`]).
//!
//! Any scheduling, allocation, codegen or simulator bug that changes a value
//! reaching memory surfaces as a [`VerifyError`]. The function is re-exported
//! at the workspace root as `dms::verify_schedule`.

use crate::contention::ContentionReport;
use crate::exec::SimError;
use crate::interp::{reference_trace, StoreRecord};
use crate::vliw::run_program;
use dms_ir::Loop;
use dms_machine::{MachineConfig, TransferModel};
use dms_regalloc::queues::AllocError;
use dms_regalloc::{allocate, emit};
use dms_sched::schedule::ScheduleResult;
use dms_sched::validate::{validate_schedule, Violation};
use std::fmt;

/// Why a schedule failed end-to-end verification.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The structural validator found constraint violations.
    InvalidSchedule(Vec<Violation>),
    /// Register allocation failed (capacity or communication conflict).
    /// Since DMS became pressure-aware, a `CapacityExceeded` here means the
    /// scheduler's incremental pressure estimate diverged from the
    /// allocator — the estimator-equality property test should be failing
    /// too.
    Allocation(AllocError),
    /// The emitted program could not be executed.
    Execution(SimError),
    /// The executed store trace differs from the scalar reference. `expected`
    /// or `actual` is `None` when one trace ends before the other.
    TraceMismatch {
        /// First diverging record of the reference trace.
        expected: Option<StoreRecord>,
        /// Corresponding record of the executed trace.
        actual: Option<StoreRecord>,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::InvalidSchedule(v) => {
                write!(f, "schedule fails structural validation with {} violation(s)", v.len())?;
                if let Some(first) = v.first() {
                    write!(f, ", first: {first}")?;
                }
                Ok(())
            }
            VerifyError::Allocation(e) => write!(f, "register allocation failed: {e}"),
            VerifyError::Execution(e) => write!(f, "program execution failed: {e}"),
            VerifyError::TraceMismatch { expected, actual } => write!(
                f,
                "executed stores diverge from the reference: expected {expected:?}, got {actual:?}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The measurements gathered by one successful verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyReport {
    /// Initiation interval of the verified schedule.
    pub ii: u32,
    /// Kernel stages of the emitted program.
    pub stages: u32,
    /// Cycles the execution took: `(trip_count + stages - 1) * II`.
    pub cycles: u64,
    /// Stored values cross-checked against the scalar reference.
    pub stores_checked: u64,
    /// Operation instances executed (prologue + kernel + epilogue).
    pub instances_executed: u64,
    /// Values that crossed a cluster boundary through a CQRF.
    pub cross_cluster_values: u64,
    /// Largest occupancy reached by any CQRF stream.
    pub max_queue_depth: u64,
    /// Total queue registers the allocator assigned (LRFs + CQRFs).
    pub total_registers: u32,
    /// The allocator's MaxLive register-pressure metric.
    pub max_live: u32,
}

fn sort_trace(mut trace: Vec<StoreRecord>) -> Vec<StoreRecord> {
    trace.sort_unstable_by_key(|r| (r.iteration, r.op));
    trace
}

/// Verifies a schedule end-to-end: validate → allocate → emit → execute →
/// cross-check against the scalar reference interpretation of `original`.
///
/// `original` is the source loop the schedule was produced from — *not* the
/// transformed DDG inside `result`. The single-use copies and DMS move
/// chains of the scheduled DDG are identities, so the stores of both graphs
/// (which share [`dms_ir::OpId`]s) must write bit-equal values; comparing against
/// the original body means the whole transformation stack is under test.
///
/// # Examples
///
/// Schedule one loop and run it through the whole oracle:
///
/// ```
/// use dms_core::{dms_schedule, DmsConfig};
/// use dms_ir::kernels;
/// use dms_machine::MachineConfig;
/// use dms_sim::verify_schedule;
///
/// let fir = kernels::fir(8, 64);
/// let machine = MachineConfig::paper_clustered(4);
/// let out = dms_schedule(&fir, &machine, &DmsConfig::default()).unwrap();
/// let report = verify_schedule(&fir, &out, &machine, fir.trip_count).unwrap();
/// assert_eq!(report.ii, out.ii());
/// assert!(report.stores_checked > 0);
/// ```
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered, in pipeline order.
pub fn verify_schedule(
    original: &Loop,
    result: &ScheduleResult,
    machine: &MachineConfig,
    trip_count: u64,
) -> Result<VerifyReport, VerifyError> {
    verify_timed(original, result, machine, TransferModel::Unconstrained, trip_count)
        .map(|(report, _)| report)
}

/// [`verify_schedule`] that also times the emitted program under `model`,
/// in the same walk that computes its values: one emit, one execution.
/// Under the machine's own model the timing is [`crate::contended_replay`]'s.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered, in pipeline order.
pub fn verify_timed(
    original: &Loop,
    result: &ScheduleResult,
    machine: &MachineConfig,
    model: TransferModel,
    trip_count: u64,
) -> Result<(VerifyReport, ContentionReport), VerifyError> {
    let violations = validate_schedule(&result.ddg, machine, &result.schedule);
    if !violations.is_empty() {
        return Err(VerifyError::InvalidSchedule(violations));
    }

    let alloc = allocate(result, machine).map_err(VerifyError::Allocation)?;
    let program = emit(result, machine);
    let exec = run_program(&program, &result.ddg, machine, model, trip_count)
        .map_err(VerifyError::Execution)?;

    let actual = sort_trace(exec.report.stores);
    let expected = sort_trace(reference_trace(&original.ddg, trip_count));
    if actual != expected {
        let diverge = expected
            .iter()
            .zip(&actual)
            .position(|(e, a)| e != a)
            .unwrap_or_else(|| expected.len().min(actual.len()));
        return Err(VerifyError::TraceMismatch {
            expected: expected.get(diverge).copied(),
            actual: actual.get(diverge).copied(),
        });
    }

    let report = VerifyReport {
        ii: result.ii(),
        stages: program.stages,
        cycles: exec.report.cycles,
        stores_checked: expected.len() as u64,
        instances_executed: exec.report.instances_executed,
        cross_cluster_values: exec.report.cross_cluster_values,
        max_queue_depth: exec.report.max_queue_depth,
        total_registers: alloc.total_registers(),
        max_live: alloc.max_live,
    };
    Ok((report, exec.timing))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_core::{dms_schedule, DmsConfig};
    use dms_ir::{kernels, OpId};
    use dms_machine::ClusterId;
    use dms_sched::ims::{ims_schedule, ImsConfig};

    #[test]
    fn every_kernel_verifies_on_clustered_and_unclustered_machines() {
        for l in kernels::all(40) {
            for clusters in [1, 2, 4, 6] {
                let cm = MachineConfig::paper_clustered(clusters);
                let d = dms_schedule(&l, &cm, &DmsConfig::default()).unwrap();
                let rep = verify_schedule(&l, &d, &cm, l.trip_count).unwrap_or_else(|e| {
                    panic!("{} (DMS, {clusters} clusters) failed verification: {e}", l.name)
                });
                assert!(rep.stores_checked > 0);
                assert!(rep.total_registers > 0);

                let um = MachineConfig::unclustered(clusters);
                let i = ims_schedule(&l, &um, &ImsConfig::default()).unwrap();
                let rep = verify_schedule(&l, &i, &um, l.trip_count).unwrap_or_else(|e| {
                    panic!("{} (IMS, width {clusters}) failed verification: {e}", l.name)
                });
                assert_eq!(rep.cross_cluster_values, 0);
            }
        }
    }

    #[test]
    fn single_use_transform_is_transparent_to_the_oracle() {
        // DMS on a clustered machine inserts copies; the reference is still
        // the untransformed loop, so the oracle checks the transform too.
        let l = kernels::horner(5, 48);
        let m = MachineConfig::paper_clustered(4);
        let r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        assert!(r.stats.copies_inserted > 0);
        let rep = verify_schedule(&l, &r, &m, l.trip_count).unwrap();
        assert_eq!(rep.stores_checked, l.trip_count);
    }

    #[test]
    fn structurally_invalid_schedules_are_rejected_before_execution() {
        let l = kernels::daxpy(32);
        let m = MachineConfig::paper_clustered(4);
        let mut r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        // break a dependence: issue the store at time 0
        let store = r
            .ddg
            .live_ops()
            .find(|(_, o)| o.kind == dms_ir::OpKind::Store)
            .map(|(id, _)| id)
            .unwrap();
        let cluster = r.schedule.get(store).unwrap().cluster;
        r.schedule.place(store, 0, cluster);
        match verify_schedule(&l, &r, &m, 8) {
            Err(VerifyError::InvalidSchedule(v)) => assert!(!v.is_empty()),
            other => panic!("expected InvalidSchedule, got {other:?}"),
        }
    }

    #[test]
    fn wrong_cluster_is_caught() {
        let l = kernels::daxpy(32);
        let m = MachineConfig::paper_clustered(6);
        let mut r = dms_schedule(&l, &m, &DmsConfig::default()).unwrap();
        let store = r
            .ddg
            .live_ops()
            .find(|(_, o)| o.kind == dms_ir::OpKind::Store)
            .map(|(id, _)| id)
            .unwrap();
        let producer = r.ddg.op(store).defs_read().next().unwrap().0;
        let p_cluster = r.schedule.get(producer).unwrap().cluster;
        let t = r.schedule.get(store).unwrap().time;
        r.schedule.place(store, t, ClusterId((p_cluster.0 + 3) % 6));
        assert!(verify_schedule(&l, &r, &m, 8).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = VerifyError::TraceMismatch {
            expected: Some(StoreRecord { op: OpId(4), iteration: 2, value: 7 }),
            actual: None,
        };
        assert!(e.to_string().contains("diverge"));
        let e = VerifyError::InvalidSchedule(vec![Violation::Unscheduled(OpId(1))]);
        assert!(e.to_string().contains("1 violation(s)"));
        assert!(e.to_string().contains("op1"));
    }
}
