//! Loop-variant lifetimes and the queue-register-pressure model.
//!
//! This module is the **single definition** of the lifetime math of the
//! paper's queue register files: how long a value produced by a modulo
//! schedule stays live, how many of its instances are simultaneously in
//! flight (its queue *depth*), and which queue file — the producing
//! cluster's LRF or the CQRF between two adjacent clusters — holds it.
//!
//! Two very different consumers share it and must never drift apart:
//!
//! * the **register allocator** (`dms-regalloc`) computes the exact per-queue
//!   register requirements of a *finished* schedule from
//!   [`lifetimes`]/[`QueuePressure::of_schedule`], and
//! * the **DMS scheduler** (`dms-core`) maintains a [`QueuePressure`]
//!   *incrementally* while operations are placed, displaced and chained, so
//!   cluster selection can steer away from saturated queues and the II search
//!   can reject schedules that would fail allocation outright.
//!
//! Because both paths funnel through [`edge_lifetime`] and
//! [`QueuePressure::add`]/[`QueuePressure::remove`], the scheduler's estimate
//! provably equals the allocator's ground truth (a property pinned by the
//! tier-1 test suite).

use crate::schedule::{Schedule, ScheduleResult, ScheduledOp};
use dms_ir::{Ddg, DepEdge, OpId};
use dms_machine::{ClusterId, CqrfId, MachineConfig, Topology};
use std::collections::BTreeMap;

/// Where a lifetime lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifetimeClass {
    /// Producer and consumer are in the same cluster: the value goes through
    /// that cluster's LRF.
    Local(ClusterId),
    /// Producer and consumer are in directly connected clusters: the value
    /// goes through the communication queue file the topology assigns to the
    /// pair (a dedicated per-pair CQRF on ring/chordal/crossbar machines,
    /// the writer's shared output queue on a bus).
    CrossCluster {
        /// The queue file carrying the value.
        queue: CqrfId,
    },
    /// Producer and consumer are in indirectly connected clusters — this is a
    /// communication conflict and indicates an invalid schedule.
    Conflict {
        /// Cluster of the producer.
        writer: ClusterId,
        /// Cluster of the consumer.
        reader: ClusterId,
    },
}

impl LifetimeClass {
    /// The queue file a value written in `writer` and read in `reader`
    /// travels through on the given topology. This is the **single**
    /// cluster-pair → queue-file mapping: [`edge_lifetime`] classifies
    /// lifetimes with it and the DMS scheduler prices candidate clusters
    /// with it (via [`QueuePressure::queue_occupancy`]), so a topology
    /// change cannot make the placement heuristic and the capacity ground
    /// truth disagree. It delegates the pair → queue decision to
    /// [`Topology::queue_between`].
    pub fn of(topology: &Topology, writer: ClusterId, reader: ClusterId) -> Self {
        if writer == reader {
            LifetimeClass::Local(writer)
        } else if let Some(queue) = topology.queue_between(writer, reader) {
            LifetimeClass::CrossCluster { queue }
        } else {
            LifetimeClass::Conflict { writer, reader }
        }
    }
}

/// One value-carrying dependence of the scheduled loop, annotated with its
/// placement-derived properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifetime {
    /// Producing operation.
    pub producer: OpId,
    /// Consuming operation.
    pub consumer: OpId,
    /// Issue time of the producer.
    pub def_time: u32,
    /// Effective read time of the consumer (`use_time + II * distance`
    /// relative to the producer's iteration).
    pub use_time: u32,
    /// Length of the lifetime in cycles.
    pub length: u32,
    /// Number of instances of this value simultaneously in flight, i.e. the
    /// queue depth the value stream needs: `ceil(length / II)` but at least 1.
    pub depth: u32,
    /// Where the lifetime is allocated.
    pub class: LifetimeClass,
}

/// The lifetime of one value-carrying edge whose endpoints are placed at
/// `producer` and `consumer`.
///
/// This is the shared per-edge math behind both the allocator's
/// [`lifetimes`] pass and the scheduler's incremental [`QueuePressure`]
/// updates. The length of a lifetime with producer issued at `t_p`, consumer
/// issued at `t_c` and iteration distance `d` is `t_c + II * d - t_p`
/// (always non-negative for a valid schedule; negative values are clamped to
/// zero and will surface as a schedule violation elsewhere).
pub fn edge_lifetime(
    edge: &DepEdge,
    producer: ScheduledOp,
    consumer: ScheduledOp,
    ii: u32,
    topology: &Topology,
) -> Lifetime {
    let use_time = consumer.time + ii * edge.distance;
    let length = use_time.saturating_sub(producer.time);
    let depth = (length.div_ceil(ii)).max(1);
    let class = LifetimeClass::of(topology, producer.cluster, consumer.cluster);
    Lifetime {
        producer: edge.src,
        consumer: edge.dst,
        def_time: producer.time,
        use_time,
        length,
        depth,
        class,
    }
}

/// Computes every loop-variant lifetime of a scheduled loop.
///
/// Each flow edge of the scheduled DDG with both endpoints placed yields one
/// lifetime (see [`edge_lifetime`] for the per-edge math).
pub fn lifetimes(ddg: &Ddg, schedule: &Schedule, topology: &Topology) -> Vec<Lifetime> {
    let ii = schedule.ii();
    let mut out = Vec::new();
    for (_, e) in ddg.live_edges() {
        if !e.kind.carries_value() {
            continue;
        }
        let (Some(p), Some(c)) = (schedule.get(e.src), schedule.get(e.dst)) else {
            continue;
        };
        out.push(edge_lifetime(e, p, c, ii, topology));
    }
    out
}

/// Convenience wrapper over [`lifetimes`] for a [`ScheduleResult`].
pub fn lifetimes_of(result: &ScheduleResult, topology: &Topology) -> Vec<Lifetime> {
    lifetimes(&result.ddg, &result.schedule, topology)
}

/// The maximum number of values simultaneously live at any cycle of the
/// kernel (MaxLive), the classic register-pressure metric the paper cites
/// from Llosa et al.
pub fn max_live(lifetimes: &[Lifetime], ii: u32) -> u32 {
    if lifetimes.is_empty() {
        return 0;
    }
    // A lifetime occupies cycles [def_time, use_time); in the steady-state
    // kernel it contributes to every row it covers, once per in-flight copy.
    let mut per_row = vec![0u32; ii as usize];
    for lt in lifetimes {
        if lt.length == 0 {
            continue;
        }
        for t in lt.def_time..lt.use_time {
            per_row[(t % ii) as usize] += 1;
        }
    }
    per_row.into_iter().max().unwrap_or(0)
}

/// A queue file whose register requirement exceeds its capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityExcess {
    /// Human-readable name of the queue file.
    pub queue: String,
    /// Registers required.
    pub required: u32,
    /// Registers available.
    pub capacity: u32,
}

/// Per-queue-file register pressure: the sum of the queue depths of every
/// lifetime allocated to each LRF and CQRF.
///
/// The struct supports both batch construction from a finished schedule
/// ([`QueuePressure::of_schedule`], the allocator's ground truth) and
/// incremental maintenance ([`QueuePressure::add`]/[`QueuePressure::remove`],
/// the scheduler's running estimate). Lifetimes crossing indirectly
/// connected clusters — transient communication conflicts that DMS resolves
/// by displacement — are tallied in a separate [`conflict
/// depth`](QueuePressure::conflict_depth) bucket so add/remove stay balanced
/// while a conflict is in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuePressure {
    /// Depth sum per LRF, indexed by cluster id.
    lrf: Vec<u32>,
    /// Depth sum per CQRF. Entries are removed when they drop back to zero,
    /// so two pressures over the same machine compare equal iff every queue
    /// requirement matches.
    cqrf: BTreeMap<CqrfId, u32>,
    /// Depth sum of conflict-class lifetimes (zero in any complete schedule).
    conflict: u32,
}

impl QueuePressure {
    /// An empty pressure model for a machine with `num_clusters` clusters.
    pub fn new(num_clusters: u32) -> Self {
        QueuePressure { lrf: vec![0; num_clusters as usize], cqrf: BTreeMap::new(), conflict: 0 }
    }

    /// The exact pressure of a finished schedule — the allocator's ground
    /// truth, computed from [`lifetimes`].
    pub fn of_schedule(ddg: &Ddg, schedule: &Schedule, topology: &Topology) -> Self {
        Self::from_lifetimes(&lifetimes(ddg, schedule, topology), topology.len())
    }

    /// Accumulates a batch of lifetimes into a fresh pressure model.
    pub fn from_lifetimes(lifetimes: &[Lifetime], num_clusters: u32) -> Self {
        let mut p = Self::new(num_clusters);
        for lt in lifetimes {
            p.add(lt);
        }
        p
    }

    /// Adds one lifetime's depth to the queue file its class names.
    pub fn add(&mut self, lt: &Lifetime) {
        match lt.class {
            LifetimeClass::Local(c) => self.lrf[c.index()] += lt.depth,
            LifetimeClass::CrossCluster { queue } => {
                *self.cqrf.entry(queue).or_insert(0) += lt.depth;
            }
            LifetimeClass::Conflict { .. } => self.conflict += lt.depth,
        }
    }

    /// Removes one lifetime's depth again. The lifetime must have been
    /// [`add`](QueuePressure::add)ed with identical fields.
    ///
    /// # Panics
    ///
    /// Panics if the lifetime was never added — callers are responsible for
    /// symmetric bookkeeping. (A wrapping subtraction here would instead
    /// poison the pressure totals and surface as a spurious capacity excess
    /// far from the buggy call site.)
    pub fn remove(&mut self, lt: &Lifetime) {
        const UNBALANCED: &str = "removed a lifetime that was never added";
        match lt.class {
            LifetimeClass::Local(c) => {
                let slot = &mut self.lrf[c.index()];
                *slot = slot.checked_sub(lt.depth).expect(UNBALANCED);
            }
            LifetimeClass::CrossCluster { queue } => {
                let slot = self.cqrf.get_mut(&queue).expect(UNBALANCED);
                *slot = slot.checked_sub(lt.depth).expect(UNBALANCED);
                if *slot == 0 {
                    self.cqrf.remove(&queue);
                }
            }
            LifetimeClass::Conflict { .. } => {
                self.conflict = self.conflict.checked_sub(lt.depth).expect(UNBALANCED);
            }
        }
    }

    /// Registers required in the LRF of `cluster`.
    #[inline]
    pub fn lrf(&self, cluster: ClusterId) -> u32 {
        self.lrf[cluster.index()]
    }

    /// Registers required in the CQRF `id` (zero if nothing crosses it).
    #[inline]
    pub fn cqrf(&self, id: CqrfId) -> u32 {
        self.cqrf.get(&id).copied().unwrap_or(0)
    }

    /// The queue registers currently occupied in the queue file a value
    /// would use travelling from `writer` to `reader` (the LRF when they
    /// are the same cluster), classified by the same [`LifetimeClass::of`]
    /// mapping the capacity ground truth uses. Indirectly connected
    /// clusters price as `u32::MAX`: placing the value there would be a
    /// communication conflict. The DMS scheduler uses this both to
    /// tie-break cluster selection and to score strategy-2 chain
    /// candidates by the congestion of the queues their moves traverse.
    pub fn queue_occupancy(
        &self,
        topology: &Topology,
        writer: ClusterId,
        reader: ClusterId,
    ) -> u32 {
        match LifetimeClass::of(topology, writer, reader) {
            LifetimeClass::Local(c) => self.lrf(c),
            LifetimeClass::CrossCluster { queue } => self.cqrf(queue),
            LifetimeClass::Conflict { .. } => u32::MAX,
        }
    }

    /// Per-LRF requirements, indexed by cluster id.
    #[inline]
    pub fn lrf_registers(&self) -> &[u32] {
        &self.lrf
    }

    /// Per-CQRF requirements (only queues with at least one lifetime).
    #[inline]
    pub fn cqrf_registers(&self) -> &BTreeMap<CqrfId, u32> {
        &self.cqrf
    }

    /// Depth sum of conflict-class lifetimes currently tracked. Non-zero only
    /// transiently inside the DMS scheduler, between placing an operation and
    /// displacing its communication conflicts.
    #[inline]
    pub fn conflict_depth(&self) -> u32 {
        self.conflict
    }

    /// The largest requirement of any single LRF.
    pub fn max_lrf(&self) -> u32 {
        self.lrf.iter().copied().max().unwrap_or(0)
    }

    /// The largest requirement of any single CQRF.
    pub fn max_cqrf(&self) -> u32 {
        self.cqrf.values().copied().max().unwrap_or(0)
    }

    /// Total register requirement across every queue file.
    pub fn total(&self) -> u32 {
        self.lrf.iter().sum::<u32>() + self.cqrf.values().sum::<u32>()
    }

    /// The first queue file whose requirement exceeds the machine's
    /// configured capacity (LRFs in cluster order, then CQRFs in id order —
    /// the order the register allocator reports), or `None` if the pressure
    /// fits the machine.
    pub fn capacity_excess(&self, machine: &MachineConfig) -> Option<CapacityExcess> {
        for (c, &req) in self.lrf.iter().enumerate() {
            if req > machine.lrf_capacity {
                return Some(CapacityExcess {
                    queue: format!("LRF of cluster {c}"),
                    required: req,
                    capacity: machine.lrf_capacity,
                });
            }
        }
        for (id, &req) in &self.cqrf {
            if req > machine.cqrf_capacity {
                return Some(CapacityExcess {
                    queue: id.to_string(),
                    required: req,
                    capacity: machine.cqrf_capacity,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{DepEdge, OpKind, Operand, Operation};

    fn two_op_schedule(
        latency: u32,
        distance: u32,
        ii: u32,
        clusters: (u32, u32),
    ) -> (Ddg, Schedule, DepEdge) {
        let mut g = Ddg::new();
        let a = g.add_op(Operation::new(OpKind::Load, vec![Operand::Induction]));
        let b = g.add_op(Operation::new(OpKind::Store, vec![Operand::def_at(a, distance)]));
        let e = DepEdge::flow(a, b, latency, distance);
        g.add_edge(e);
        let mut s = Schedule::new(ii, g.num_slots());
        s.place(a, 0, ClusterId(clusters.0));
        s.place(b, latency, ClusterId(clusters.1));
        (g, s, e)
    }

    #[test]
    fn edge_lifetime_matches_the_depth_formula() {
        let ring = Topology::ring(4);
        let (_, s, e) = two_op_schedule(2, 1, 3, (0, 1));
        let lt = edge_lifetime(&e, s.get(e.src).unwrap(), s.get(e.dst).unwrap(), 3, &ring);
        // use_time = 2 + 3 * 1 = 5, length 5, depth ceil(5/3) = 2
        assert_eq!(lt.use_time, 5);
        assert_eq!(lt.length, 5);
        assert_eq!(lt.depth, 2);
        assert_eq!(
            lt.class,
            LifetimeClass::CrossCluster {
                queue: CqrfId { writer: ClusterId(0), reader: ClusterId(1) }
            }
        );
    }

    #[test]
    fn zero_length_lifetimes_still_need_one_register() {
        let ring = Topology::ring(1);
        let (_, s, e) = two_op_schedule(0, 0, 4, (0, 0));
        let lt = edge_lifetime(&e, s.get(e.src).unwrap(), s.get(e.dst).unwrap(), 4, &ring);
        assert_eq!(lt.length, 0);
        assert_eq!(lt.depth, 1);
        assert_eq!(lt.class, LifetimeClass::Local(ClusterId(0)));
    }

    #[test]
    fn add_then_remove_returns_to_empty() {
        let ring = Topology::ring(6);
        let (g, s, _) = two_op_schedule(2, 0, 2, (0, 5));
        let lts = lifetimes(&g, &s, &ring);
        assert_eq!(lts.len(), 1);
        let mut p = QueuePressure::new(6);
        p.add(&lts[0]);
        assert_eq!(p.cqrf(CqrfId { writer: ClusterId(0), reader: ClusterId(5) }), lts[0].depth);
        assert!(p.total() > 0);
        p.remove(&lts[0]);
        assert_eq!(p, QueuePressure::new(6), "zeroed CQRF entries must be dropped");
    }

    #[test]
    fn conflict_lifetimes_go_to_the_conflict_bucket() {
        let ring = Topology::ring(6);
        let (g, s, _) = two_op_schedule(1, 0, 2, (0, 3));
        let lts = lifetimes(&g, &s, &ring);
        assert!(matches!(lts[0].class, LifetimeClass::Conflict { .. }));
        let p = QueuePressure::from_lifetimes(&lts, 6);
        assert!(p.conflict_depth() > 0);
        assert_eq!(p.total(), 0, "conflicts are not attributed to any real queue");
    }

    #[test]
    fn capacity_excess_reports_lrfs_before_cqrfs() {
        let mut p = QueuePressure::new(2);
        p.add(&Lifetime {
            producer: OpId(0),
            consumer: OpId(1),
            def_time: 0,
            use_time: 9,
            length: 9,
            depth: 9,
            class: LifetimeClass::Local(ClusterId(1)),
        });
        p.add(&Lifetime {
            producer: OpId(0),
            consumer: OpId(2),
            def_time: 0,
            use_time: 9,
            length: 9,
            depth: 9,
            class: LifetimeClass::CrossCluster {
                queue: CqrfId { writer: ClusterId(0), reader: ClusterId(1) },
            },
        });
        let mut m = MachineConfig::paper_clustered(2);
        m.lrf_capacity = 4;
        m.cqrf_capacity = 4;
        let x = p.capacity_excess(&m).unwrap();
        assert_eq!(x.queue, "LRF of cluster 1");
        assert_eq!((x.required, x.capacity), (9, 4));
        m.lrf_capacity = 64;
        let x = p.capacity_excess(&m).unwrap();
        assert!(x.queue.contains("CQRF"));
        m.cqrf_capacity = 64;
        assert_eq!(p.capacity_excess(&m), None);
    }

    #[test]
    fn of_schedule_equals_manual_accumulation() {
        let ring = Topology::ring(4);
        let (g, s, _) = two_op_schedule(3, 2, 2, (1, 2));
        let p = QueuePressure::of_schedule(&g, &s, &ring);
        assert_eq!(p, QueuePressure::from_lifetimes(&lifetimes(&g, &s, &ring), 4));
        assert_eq!(p.max_cqrf(), p.total());
        assert_eq!(p.max_lrf(), 0);
    }
}
