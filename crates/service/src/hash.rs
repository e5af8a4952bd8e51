//! Cache-key derivation: an FNV-1a [`Hasher`] and the structural content
//! address.
//!
//! A schedule is a pure function of (loop body, machine, scheduler
//! configuration, verification request). The cache key holds two digests,
//! both computed by feeding derived [`Hash`] impls into [`Fnv`]:
//!
//! * `body` — [`guard_fingerprint`]: the loop's name, trip count and its
//!   exact DDG (every op, operand and edge, tombstones and slot numbering
//!   included). The name and the numbering take part on purpose: the
//!   portfolio jitter is seeded from the loop name and DMS priority ties
//!   break on raw `OpId`s, so two isomorphic bodies may legitimately get
//!   different schedules and must not share an entry;
//! * `context` — everything else the answer depends on: scheduler kind, the
//!   `DmsConfig` (DMS requests only — IMS ignores it, so it must not
//!   fragment IMS entries), the machine description, the verify trip count
//!   and the contention flag.
//!
//! Keys never leave the process, so their values are not pinned; only
//! which inputs separate them is.

use dms_ir::Loop;
use std::hash::{Hash, Hasher};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher: every byte written enters the low bits of the
/// state, so any input bit can reach any digest bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// Starts a new digest at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The content address of a schedule request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Digest of the exact loop body ([`guard_fingerprint`]).
    pub body: u64,
    /// Digest of the request context: scheduler kind and configuration,
    /// machine description, verification trip count and contention flag.
    pub context: u64,
}

impl CacheKey {
    /// Mixes both halves into the value used to pick a shard.
    pub fn mixed(&self) -> u64 {
        let mut h = Fnv::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// The exact-identity digest of a loop body: its name, trip count and DDG,
/// hashed field by field.
pub fn guard_fingerprint(body: &Loop) -> u64 {
    let mut h = Fnv::new();
    body.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{Ddg, DepEdge, DepKind, OpKind, Operand, Operation};

    /// The inputs a body digest must separate, one field each.
    #[derive(Clone, Copy)]
    struct Body {
        name: &'static str,
        trips: u64,
        kind: OpKind,
        operand: Operand,
        latency: u32,
        distance: u32,
        tombstone: bool,
    }

    const BASE: Body = Body {
        name: "a",
        trips: 8,
        kind: OpKind::Add,
        operand: Operand::Immediate(1),
        latency: 2,
        distance: 0,
        tombstone: false,
    };

    /// `load; add(load, operand); store(add)` with one flow edge per read,
    /// then optionally one more op that is removed again.
    fn build(b: Body) -> Loop {
        let mut ddg = Ddg::new();
        let x = ddg.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
        let y = ddg.add_op(Operation::new(b.kind, vec![x.into(), b.operand]));
        let z = ddg.add_op(Operation::new(OpKind::Store, vec![y.into()]));
        ddg.add_edge(DepEdge { src: x, dst: y, kind: DepKind::Flow, latency: 2, distance: 0 });
        ddg.add_edge(DepEdge {
            src: y,
            dst: z,
            kind: DepKind::Flow,
            latency: b.latency,
            distance: b.distance,
        });
        if b.tombstone {
            let extra = ddg.add_op(Operation::new(OpKind::Add, Vec::new()));
            ddg.remove_op(extra);
        }
        Loop::new(b.name, ddg, b.trips)
    }

    #[test]
    fn fnv_is_deterministic_and_sensitive() {
        let mut a = Fnv::new();
        a.write(b"hello");
        let mut b = Fnv::new();
        b.write(b"hello");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv::new();
        c.write(b"hellp");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn guard_separates_name_trip_count_and_body() {
        let base = guard_fingerprint(&build(BASE));
        assert_eq!(base, guard_fingerprint(&build(BASE)));
        let variants = [
            ("name", Body { name: "b", ..BASE }),
            ("trip count", Body { trips: 9, ..BASE }),
            ("op kind", Body { kind: OpKind::Sub, ..BASE }),
            ("operand", Body { operand: Operand::Immediate(2), ..BASE }),
            ("edge latency", Body { latency: 3, ..BASE }),
            ("edge distance", Body { distance: 1, ..BASE }),
            ("tombstone", Body { tombstone: true, ..BASE }),
        ];
        for (field, body) in variants {
            assert_ne!(base, guard_fingerprint(&build(body)), "{field} must change the digest");
        }
    }
}
