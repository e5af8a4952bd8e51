//! Lower bounds on the initiation interval (II).
//!
//! * `ResMII` — the resource-constrained bound: for each functional-unit
//!   class, the number of operations needing that class divided by the number
//!   of units of that class in the whole machine, rounded up.
//! * `RecMII` — the recurrence-constrained bound: the smallest II such that
//!   no dependence circuit has `sum(latency) > II * sum(distance)`.
//!
//! `MII = max(ResMII, RecMII)` is the starting point of the iterative search
//! performed by both IMS and DMS.

use crate::schedule::ScheduleError;
use dms_ir::analysis::sccs;
use dms_ir::{Ddg, OpId};
use dms_machine::{FuKind, MachineConfig};

/// The two components of the MII, kept separate so experiments can report
/// which bound dominates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiiBreakdown {
    /// Resource-constrained lower bound.
    pub res_mii: u32,
    /// Recurrence-constrained lower bound.
    pub rec_mii: u32,
}

impl MiiBreakdown {
    /// The combined lower bound `max(ResMII, RecMII, 1)`.
    pub fn mii(&self) -> u32 {
        self.res_mii.max(self.rec_mii).max(1)
    }

    /// Whether the recurrence bound dominates the resource bound.
    pub fn recurrence_bound(&self) -> bool {
        self.rec_mii > self.res_mii
    }
}

/// Computes the resource-constrained lower bound on the II.
///
/// The bound uses the *total* number of units of each class in the machine,
/// i.e. it ignores the partitioning constraints of a clustered machine; this
/// matches the paper, which reports the clustered overhead relative to this
/// ideal.
///
/// # Errors
///
/// Returns [`ScheduleError::UnexecutableLoop`] if the loop demands a
/// functional-unit class of which the machine has zero units: no II, however
/// large, can execute such a loop. (Earlier versions returned a `u32::MAX`
/// sentinel here, which overflowed the derived II-search limit.)
pub fn res_mii(ddg: &Ddg, machine: &MachineConfig) -> Result<u32, ScheduleError> {
    let mut demand = [0u32; 4];
    for (_, op) in ddg.live_ops() {
        demand[FuKind::for_op(op.kind).index()] += 1;
    }
    let mut bound = 1;
    for kind in FuKind::ALL {
        let d = demand[kind.index()];
        if d == 0 {
            continue;
        }
        let units = machine.total_fu(kind);
        if units == 0 {
            return Err(ScheduleError::UnexecutableLoop { fu: kind, demand: d });
        }
        bound = bound.max(d.div_ceil(units));
    }
    Ok(bound)
}

/// Computes the recurrence-constrained lower bound on the II.
///
/// For every strongly connected component of the DDG, the smallest II such
/// that no circuit in the component has positive slack
/// (`sum(latency) - II * sum(distance) > 0`) is found by binary search with a
/// longest-path (max-plus Floyd–Warshall) positive-cycle check restricted to
/// the component. Acyclic graphs have `RecMII = 1`.
pub fn rec_mii(ddg: &Ddg) -> u32 {
    let mut best = 1u32;
    for comp in sccs(ddg) {
        let cyclic = comp.len() > 1 || ddg.succs(comp[0]).any(|(_, e)| e.dst == comp[0]);
        if !cyclic {
            continue;
        }
        best = best.max(scc_rec_mii(ddg, &comp));
    }
    best
}

/// Recurrence bound of a single strongly connected component.
fn scc_rec_mii(ddg: &Ddg, comp: &[OpId]) -> u32 {
    // Upper bound: the sum of all edge latencies inside the component is
    // enough to make every circuit non-positive (total distance >= 1).
    let hi: u32 = comp
        .iter()
        .flat_map(|&v| ddg.succs(v))
        .filter(|(_, e)| comp.contains(&e.src) && comp.contains(&e.dst))
        .map(|(_, e)| e.latency)
        .sum::<u32>()
        .max(1);
    let mut lo = 1u32;
    let mut hi = hi;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_positive_cycle(ddg, comp, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Whether the component contains a circuit with positive slack at the given
/// II (max-plus Floyd–Warshall on the component subgraph).
fn has_positive_cycle(ddg: &Ddg, comp: &[OpId], ii: u32) -> bool {
    const NEG_INF: i64 = i64::MIN / 4;
    let n = comp.len();
    let pos = |id: OpId| comp.iter().position(|&x| x == id);
    let mut dist = vec![NEG_INF; n * n];
    for (i, &v) in comp.iter().enumerate() {
        for (_, e) in ddg.succs(v) {
            if let Some(j) = pos(e.dst) {
                let w = e.latency as i64 - ii as i64 * e.distance as i64;
                let cell = &mut dist[i * n + j];
                *cell = (*cell).max(w);
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if dik == NEG_INF {
                continue;
            }
            for j in 0..n {
                let dkj = dist[k * n + j];
                if dkj == NEG_INF {
                    continue;
                }
                let cand = dik + dkj;
                if cand > dist[i * n + j] {
                    dist[i * n + j] = cand;
                }
            }
        }
    }
    (0..n).any(|i| dist[i * n + i] > 0)
}

/// Computes both lower bounds.
///
/// # Errors
///
/// Returns [`ScheduleError::UnexecutableLoop`] if the loop demands a
/// functional-unit class the machine does not have (see [`res_mii`]).
pub fn mii(ddg: &Ddg, machine: &MachineConfig) -> Result<MiiBreakdown, ScheduleError> {
    Ok(MiiBreakdown { res_mii: res_mii(ddg, machine)?, rec_mii: rec_mii(ddg) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::kernels;
    use dms_ir::{LoopBuilder, Operand};
    use dms_machine::MachineConfig;

    #[test]
    fn res_mii_counts_fu_pressure() {
        // 4 loads on a machine with 1 L/S unit -> ResMII = 4; with 2 units -> 2.
        let mut b = LoopBuilder::new("loads");
        for _ in 0..4 {
            let x = b.load(Operand::Induction);
            b.store(x.into());
        }
        let l = b.finish(8);
        // 4 loads + 4 stores share the L/S unit(s): demand 8
        assert_eq!(res_mii(&l.ddg, &MachineConfig::unclustered(1)), Ok(8));
        assert_eq!(res_mii(&l.ddg, &MachineConfig::unclustered(2)), Ok(4));
        assert_eq!(res_mii(&l.ddg, &MachineConfig::unclustered(8)), Ok(1));
    }

    #[test]
    fn rec_mii_of_acyclic_graph_is_one() {
        assert_eq!(rec_mii(&kernels::daxpy(8).ddg), 1);
        assert_eq!(rec_mii(&kernels::stencil3(8).ddg), 1);
    }

    #[test]
    fn rec_mii_of_accumulator_equals_add_latency() {
        // s = s@(i-1) + x : circuit latency = add latency (1), distance 1.
        let l = kernels::prefix_sum(8);
        assert_eq!(rec_mii(&l.ddg), 1);
    }

    #[test]
    fn rec_mii_of_iir_is_mul_plus_add() {
        // circuit: add -> mul (dist 1) -> add, latency = add(1) + mul(2) = 3.
        let l = kernels::iir(8);
        assert_eq!(rec_mii(&l.ddg), 3);
    }

    #[test]
    fn rec_mii_scales_with_distance() {
        // s = s@(i-2) + x : same latency spread over distance 2.
        let mut b = LoopBuilder::new("d2");
        let x = b.load(Operand::Induction);
        let s = b.feedback(dms_ir::OpKind::Mul, x.into(), 2); // mul latency 2 over distance 2
        b.store(s.into());
        let l = b.finish(8);
        assert_eq!(rec_mii(&l.ddg), 1);
        // distance 1 would give 2
        let mut b = LoopBuilder::new("d1");
        let x = b.load(Operand::Induction);
        let s = b.mul_feedback(x.into(), 1);
        b.store(s.into());
        assert_eq!(rec_mii(&b.finish(8).ddg), 2);
    }

    #[test]
    fn mii_takes_the_max_of_both_bounds() {
        let l = kernels::iir(8); // RecMII 3, small body
        let m = MachineConfig::unclustered(4);
        let b = mii(&l.ddg, &m).unwrap();
        assert_eq!(b.rec_mii, 3);
        assert!(b.res_mii <= 3);
        assert_eq!(b.mii(), 3);
        assert!(b.recurrence_bound() || b.res_mii == b.rec_mii);
    }

    #[test]
    fn res_mii_dominates_on_narrow_machines() {
        let l = kernels::fir(8, 64); // 8 loads, 8 muls, 7 adds, 1 store
        let m = MachineConfig::unclustered(1);
        let b = mii(&l.ddg, &m).unwrap();
        assert_eq!(b.res_mii, 9); // 8 loads + 1 store on one L/S unit
        assert_eq!(b.rec_mii, 1);
        assert_eq!(b.mii(), 9);
    }

    #[test]
    fn missing_fu_class_reports_unexecutable_loop() {
        let l = kernels::daxpy(8); // 2 loads + 1 store demand the L/S class
        let m = MachineConfig::homogeneous(
            1,
            dms_machine::ClusterFus { load_store: 0, add: 1, mul: 1, copy: 1 },
            dms_ir::LatencySpec::default(),
        );
        let err = res_mii(&l.ddg, &m).unwrap_err();
        assert_eq!(err, ScheduleError::UnexecutableLoop { fu: FuKind::LoadStore, demand: 3 });
        assert!(matches!(mii(&l.ddg, &m), Err(ScheduleError::UnexecutableLoop { .. })));
    }
}
