//! # dms-ir — Loop IR and data-dependence graphs
//!
//! This crate provides the intermediate representation used by the whole
//! DMS (Distributed Modulo Scheduling, HPCA 1999) reproduction:
//!
//! * [`Operation`]s and [`Operand`]s of an innermost-loop body,
//! * the [`Ddg`] (data-dependence graph) with flow/anti/output/memory
//!   dependence edges annotated with latency and iteration distance,
//! * a convenient [`LoopBuilder`] for writing loop bodies by hand,
//! * graph analyses (strongly connected components, recurrence detection,
//!   critical-path metrics) in [`analysis`],
//! * an isomorphism-invariant content hash of a DDG ([`canon`]), which
//!   identifies a body up to renaming and reordering,
//! * the DDG transformations required by the paper: loop [`transform::unroll`]
//!   and the single-use lifetime conversion
//!   [`transform::convert_to_single_use`],
//! * a library of classic numeric / DSP loop [`kernels`].
//!
//! # Example
//!
//! ```
//! use dms_ir::{LoopBuilder, Operand};
//!
//! // for i { s += a[i] * b[i]; }  -- a dot product with a recurrence on `s`
//! let mut b = LoopBuilder::new("dot");
//! let a = b.load(Operand::Induction);
//! let x = b.load(Operand::Induction);
//! let m = b.mul(a.into(), x.into());
//! let s = b.add_feedback(m.into(), 1); // s = s@(i-1) + m
//! b.store(s.into());
//! let l = b.finish(128);
//! assert_eq!(l.ddg.num_live_ops(), 5);
//! assert!(dms_ir::analysis::has_recurrence(&l.ddg));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod builder;
pub mod canon;
pub mod ddg;
pub mod kernels;
pub mod latency;
pub mod op;
pub mod transform;

pub use builder::LoopBuilder;
pub use canon::canonical_hash;
pub use ddg::{Ddg, DepEdge, DepKind, EdgeId};
pub use latency::LatencySpec;
pub use op::{OpId, OpKind, Operand, Operation};

/// An innermost loop ready to be modulo scheduled: a named [`Ddg`] plus the
/// trip count used by the dynamic (cycle/IPC) experiments.
#[derive(Debug, Clone, Hash)]
pub struct Loop {
    /// Human-readable name (kernel name or synthetic suite identifier).
    pub name: String,
    /// The data-dependence graph of one iteration of the loop body.
    pub ddg: Ddg,
    /// Number of iterations executed by the dynamic experiments.
    pub trip_count: u64,
}

impl Loop {
    /// Creates a loop from its parts.
    pub fn new(name: impl Into<String>, ddg: Ddg, trip_count: u64) -> Self {
        Self { name: name.into(), ddg, trip_count }
    }

    /// Number of *useful* operations (everything except `Copy` and `Move`,
    /// which exist only to satisfy queue/communication constraints).
    pub fn useful_ops(&self) -> usize {
        self.ddg.live_ops().filter(|(_, o)| o.kind.is_useful()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_useful_ops_excludes_copies() {
        let mut b = LoopBuilder::new("t");
        let x = b.load(Operand::Induction);
        let c = b.copy(x.into());
        b.store(c.into());
        let l = b.finish(10);
        assert_eq!(l.ddg.num_live_ops(), 3);
        assert_eq!(l.useful_ops(), 2);
    }
}
