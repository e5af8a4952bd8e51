//! Operation latencies.
//!
//! The paper does not state FU latencies; absolute latencies shift absolute
//! initiation intervals but not the clustered-vs-unclustered comparison. The
//! defaults below follow the values commonly used in the modulo-scheduling
//! literature the paper builds on (Rau; Llosa et al.).

use crate::op::OpKind;

/// Latency (in cycles) of each operation class.
///
/// The latency of an operation is the number of cycles between its issue and
/// the first cycle in which a dependent operation may issue. A latency of 1
/// means a dependent operation can issue in the next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencySpec {
    /// Memory load latency.
    pub load: u32,
    /// Memory store latency (to a dependent memory operation).
    pub store: u32,
    /// Add/Sub latency.
    pub add: u32,
    /// Mul latency.
    pub mul: u32,
    /// Div latency.
    pub div: u32,
    /// Copy-operation latency (single-use lifetime conversion).
    pub copy: u32,
    /// Move-operation latency (inter-cluster chain step).
    pub mv: u32,
}

impl LatencySpec {
    /// The default latency model used throughout the reproduction.
    pub const DEFAULT: LatencySpec =
        LatencySpec { load: 2, store: 1, add: 1, mul: 2, div: 4, copy: 1, mv: 1 };

    /// A uniform latency model, useful for tests.
    pub const fn uniform(latency: u32) -> Self {
        LatencySpec {
            load: latency,
            store: latency,
            add: latency,
            mul: latency,
            div: latency,
            copy: latency,
            mv: latency,
        }
    }

    /// Latency of an operation of the given kind.
    #[inline]
    pub fn of(&self, kind: OpKind) -> u32 {
        match kind {
            OpKind::Load => self.load,
            OpKind::Store => self.store,
            OpKind::Add | OpKind::Sub => self.add,
            OpKind::Mul => self.mul,
            OpKind::Div => self.div,
            OpKind::Copy => self.copy,
            OpKind::Move => self.mv,
        }
    }

    /// The longest latency of any operation class.
    pub fn max_latency(&self) -> u32 {
        [self.load, self.store, self.add, self.mul, self.div, self.copy, self.mv]
            .into_iter()
            .max()
            .unwrap_or(1)
    }
}

impl Default for LatencySpec {
    fn default() -> Self {
        Self::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latencies() {
        let l = LatencySpec::default();
        assert_eq!(l.of(OpKind::Load), 2);
        assert_eq!(l.of(OpKind::Add), 1);
        assert_eq!(l.of(OpKind::Sub), 1);
        assert_eq!(l.of(OpKind::Mul), 2);
        assert_eq!(l.of(OpKind::Div), 4);
        assert_eq!(l.of(OpKind::Copy), 1);
        assert_eq!(l.of(OpKind::Move), 1);
        assert_eq!(l.max_latency(), 4);
    }

    #[test]
    fn uniform_latencies() {
        let l = LatencySpec::uniform(3);
        for k in OpKind::USEFUL {
            assert_eq!(l.of(k), 3);
        }
        assert_eq!(l.max_latency(), 3);
    }
}
