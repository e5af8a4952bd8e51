//! Functional-unit classes and the mapping from operations to units.

use dms_ir::OpKind;
use std::fmt;

/// The functional-unit classes of the paper's machine model.
///
/// Each cluster of the evaluated configurations has one unit of each useful
/// class (`LoadStore`, `Add`, `Mul`) plus one `Copy` unit that executes the
/// `copy` and `move` operations introduced by the single-use transformation
/// and by DMS chains. Copy units "do not perform any useful computation" and
/// are excluded from the FU counts reported in the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FuKind {
    /// Memory unit: executes loads and stores.
    LoadStore,
    /// Adder: executes add and subtract.
    Add,
    /// Multiplier: executes multiply and divide.
    Mul,
    /// Copy unit: executes copy and move operations.
    Copy,
}

impl FuKind {
    /// All functional-unit classes in a stable order.
    pub const ALL: [FuKind; 4] = [FuKind::LoadStore, FuKind::Add, FuKind::Mul, FuKind::Copy];

    /// The classes that perform useful computation (everything but `Copy`).
    pub const USEFUL: [FuKind; 3] = [FuKind::LoadStore, FuKind::Add, FuKind::Mul];

    /// The functional unit class that executes the given operation kind.
    #[inline]
    pub fn for_op(kind: OpKind) -> FuKind {
        match kind {
            OpKind::Load | OpKind::Store => FuKind::LoadStore,
            OpKind::Add | OpKind::Sub => FuKind::Add,
            OpKind::Mul | OpKind::Div => FuKind::Mul,
            OpKind::Copy | OpKind::Move => FuKind::Copy,
        }
    }

    /// Whether this class performs useful computation.
    #[inline]
    pub fn is_useful(self) -> bool {
        self != FuKind::Copy
    }

    /// Dense index of the class, usable for array-indexed side tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            FuKind::LoadStore => 0,
            FuKind::Add => 1,
            FuKind::Mul => 2,
            FuKind::Copy => 3,
        }
    }
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuKind::LoadStore => "L/S",
            FuKind::Add => "ADD",
            FuKind::Mul => "MUL",
            FuKind::Copy => "COPY",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_to_fu_mapping() {
        assert_eq!(FuKind::for_op(OpKind::Load), FuKind::LoadStore);
        assert_eq!(FuKind::for_op(OpKind::Store), FuKind::LoadStore);
        assert_eq!(FuKind::for_op(OpKind::Add), FuKind::Add);
        assert_eq!(FuKind::for_op(OpKind::Sub), FuKind::Add);
        assert_eq!(FuKind::for_op(OpKind::Mul), FuKind::Mul);
        assert_eq!(FuKind::for_op(OpKind::Div), FuKind::Mul);
        assert_eq!(FuKind::for_op(OpKind::Copy), FuKind::Copy);
        assert_eq!(FuKind::for_op(OpKind::Move), FuKind::Copy);
    }

    #[test]
    fn useful_classification_and_indices() {
        assert!(FuKind::LoadStore.is_useful());
        assert!(!FuKind::Copy.is_useful());
        for (i, k) in FuKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(FuKind::USEFUL.len(), 3);
    }

    #[test]
    fn display() {
        assert_eq!(FuKind::LoadStore.to_string(), "L/S");
        assert_eq!(FuKind::Copy.to_string(), "COPY");
    }
}
