//! Chain planning — DMS strategy 2.
//!
//! When an operation cannot be placed in any cluster without a communication
//! conflict, DMS tries to realise the offending flow dependences with
//! *chains*: strings of `move` operations, one per intermediate cluster of a
//! topology path between the predecessor's cluster and the candidate
//! cluster. The candidate paths come from [`Topology::paths`] — the two
//! directional walks on the paper's bi-directional ring, every shortest
//! simple path on a chordal ring, nothing on bus/crossbar machines (where
//! every pair is directly connected and chains never arise). This module
//! enumerates the feasible combinations and scores them with the paper's
//! criterion — maximise the Copy-unit slack left in the most loaded
//! cluster, tie-broken by the smaller number of moves.
//!
//! [`Topology::paths`]: dms_machine::Topology::paths

use crate::state::SchedulerState;
use dms_ir::{DepEdge, OpId};
use dms_machine::{ClusterId, FuKind, TopoPath};
use dms_sched::schedule::dependence_bound;
use std::collections::HashMap;

/// How strategy 2 chooses between the alternative topology paths of a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ChainPolicy {
    /// The paper's policy: among the feasible options, pick the one that
    /// maximises the number of Copy-unit slots left free in the most loaded
    /// cluster; if equivalent, pick the option with the fewest moves.
    #[default]
    MaxFreeSlots,
    /// Ablation: always take the shortest path (fewer moves), regardless
    /// of how loaded the Copy units along it are.
    ShortestPath,
}

/// A planned (not yet committed) chain realising one flow dependence.
#[derive(Debug, Clone)]
pub struct ChainPlan {
    /// The dependence edge the chain will replace.
    pub edge: DepEdge,
    /// The `(cluster, time)` of every move, ordered from the producer
    /// towards the consumer.
    pub moves: Vec<(ClusterId, u32)>,
    /// Lower bound this chain imposes on the consumer's issue time.
    pub consumer_ready: u32,
    /// Summed occupancy of the queue files the chain's hops traverse
    /// (producer → first move → … → consumer), priced by the shared
    /// [`QueuePressure::queue_occupancy`] mapping. Zero when the scheduler
    /// runs pressure-blind ([`PressureMode::Ignore`]), keeping that mode's
    /// historical behaviour bit-for-bit.
    ///
    /// [`QueuePressure::queue_occupancy`]: dms_sched::QueuePressure::queue_occupancy
    /// [`PressureMode::Ignore`]: crate::dms::PressureMode::Ignore
    pub queue_cost: u64,
}

/// A complete strategy-2 option: a candidate cluster for the operation plus
/// one chain per too-distant scheduled predecessor.
#[derive(Debug, Clone)]
pub struct ClusterChainOption {
    /// The cluster in which the operation will be scheduled.
    pub cluster: ClusterId,
    /// The chains that must be committed before placing the operation.
    pub chains: Vec<ChainPlan>,
    /// Copy-unit slack of the most loaded cluster after the chains are
    /// placed (the paper's primary selection criterion).
    pub min_copy_slack: u32,
    /// Total number of moves across all chains.
    pub total_moves: usize,
    /// Summed [`ChainPlan::queue_cost`] of the chains: how congested the
    /// queue files this option routes values through already are.
    pub queue_cost: u64,
    /// Earliest time at which the operation may issue, considering both its
    /// other predecessors and the new chains.
    pub op_ready: u32,
}

/// Per-option tracker of hypothetically claimed Copy slots, keyed by
/// `(row, cluster)`.
#[derive(Debug, Default, Clone)]
struct Claims {
    used: HashMap<(u32, u32), u32>,
}

impl Claims {
    fn claimed(&self, row: u32, cluster: ClusterId) -> u32 {
        *self.used.get(&(row, cluster.0)).unwrap_or(&0)
    }

    fn claim(&mut self, row: u32, cluster: ClusterId) {
        *self.used.entry((row, cluster.0)).or_insert(0) += 1;
    }

    fn per_cluster(&self) -> HashMap<u32, u32> {
        let mut out = HashMap::new();
        for (&(_, c), &n) in &self.used {
            *out.entry(c).or_insert(0) += n;
        }
        out
    }
}

/// Plans the chains needed to schedule `op` in `cluster`, or returns `None`
/// if the cluster is not viable (a scheduled flow *successor* is too far, or
/// some chain cannot find free Copy slots).
pub fn plan_for_cluster(
    state: &SchedulerState,
    op: OpId,
    cluster: ClusterId,
    policy: ChainPolicy,
) -> Option<ClusterChainOption> {
    let topology = *state.topology();

    // Scheduled flow successors must already be directly connected: the paper
    // only builds chains towards predecessors.
    for (_, e) in state.ddg.flow_succs(op) {
        if e.dst == op {
            continue;
        }
        if let Some(s) = state.schedule.get(e.dst) {
            if !topology.directly_connected(cluster, s.cluster) {
                return None;
            }
        }
    }

    let mut claims = Claims::default();
    let mut chains = Vec::new();
    let mut op_ready = state.earliest_start(op);

    // One chain per scheduled flow predecessor that is too far away.
    let pred_edges: Vec<DepEdge> =
        state.ddg.flow_preds(op).filter(|(_, e)| e.src != op).map(|(_, e)| *e).collect();
    for edge in pred_edges {
        let Some(p) = state.schedule.get(edge.src) else { continue };
        if topology.directly_connected(p.cluster, cluster) {
            continue;
        }
        // Try every topology path and keep the feasible ones.
        let mut candidates: Vec<(ChainPlan, Claims)> = Vec::new();
        for path in topology.paths(p.cluster, cluster) {
            if let Some((plan, new_claims)) =
                plan_single_chain(state, &edge, p.time, &path, &claims)
            {
                candidates.push((plan, new_claims));
            }
        }
        if candidates.is_empty() {
            return None;
        }
        let (plan, new_claims) = select_chain(state, candidates, policy);
        op_ready = op_ready.max(plan.consumer_ready);
        claims = new_claims;
        chains.push(plan);
    }

    // Score: Copy slack of the most loaded cluster after placing the chains.
    let per_cluster = claims.per_cluster();
    let min_copy_slack = topology
        .iter()
        .map(|c| {
            state
                .mrt
                .free_slots(c, FuKind::Copy)
                .saturating_sub(*per_cluster.get(&c.0).unwrap_or(&0))
        })
        .min()
        .unwrap_or(0);
    let total_moves = chains.iter().map(|c| c.moves.len()).sum();
    let queue_cost = chains.iter().map(|c| c.queue_cost).sum();

    Some(ClusterChainOption { cluster, chains, min_copy_slack, total_moves, queue_cost, op_ready })
}

/// Picks the path for one chain according to the policy.
fn select_chain(
    state: &SchedulerState,
    mut candidates: Vec<(ChainPlan, Claims)>,
    policy: ChainPolicy,
) -> (ChainPlan, Claims) {
    let topology = *state.topology();
    match policy {
        ChainPolicy::ShortestPath => {
            candidates.sort_by_key(|(p, _)| (p.moves.len(), p.consumer_ready));
            candidates.into_iter().next().expect("at least one candidate")
        }
        ChainPolicy::MaxFreeSlots => {
            // Score each candidate by the Copy slack of the most loaded
            // cluster it would leave behind; larger is better.
            let score = |claims: &Claims| -> u32 {
                let per_cluster = claims.per_cluster();
                topology
                    .iter()
                    .map(|c| {
                        state
                            .mrt
                            .free_slots(c, FuKind::Copy)
                            .saturating_sub(*per_cluster.get(&c.0).unwrap_or(&0))
                    })
                    .min()
                    .unwrap_or(0)
            };
            candidates.sort_by_key(|(p, claims)| {
                (std::cmp::Reverse(score(claims)), p.moves.len(), p.queue_cost, p.consumer_ready)
            });
            candidates.into_iter().next().expect("at least one candidate")
        }
    }
}

/// Plans a single chain along `path` (whose first cluster hosts the
/// producer, issued at `src_time`). Returns the plan and the updated
/// claims, or `None` if some intermediate cluster has no free Copy slot in
/// the scheduling window.
fn plan_single_chain(
    state: &SchedulerState,
    edge: &DepEdge,
    src_time: u32,
    path: &TopoPath,
    claims: &Claims,
) -> Option<(ChainPlan, Claims)> {
    let ii = state.ii();
    let mv = state.move_latency();
    let intermediates = path.intermediates();
    if intermediates.is_empty() {
        // Directly connected along this path: no chain needed. Treated
        // as infeasible here because the caller only asks for actual chains.
        return None;
    }
    let mut new_claims = claims.clone();
    // Price the option by how congested the queue files along the path
    // already are: a chain routed through a near-capacity CQRF is likely to
    // push the final schedule past the capacity limit (and into an II
    // retry). Scored only when the II search has already seen a capacity
    // rejection for this loop (see `SchedulerState::chain_steering`) — on
    // every other attempt chains are chosen exactly as the paper does.
    let queue_cost: u64 = if state.chain_steering {
        path.clusters
            .windows(2)
            .map(|w| state.congestion_penalty(w[0], w[1]))
            .fold(0u64, u64::saturating_add)
    } else {
        0
    };
    // The first move may issue once the producer's value is available:
    // `src_time + latency - II * distance`, computed through the shared
    // i64 bound so a loop-carried edge (distance > 0) whose window starts
    // before time 0 clamps to 0 instead of wrapping below zero.
    let window_cap = (u32::MAX - ii) as i64; // keeps `lower + ii` below the wrap point
    let mut lower =
        dependence_bound(src_time, edge.latency, ii, edge.distance).clamp(0, window_cap) as u32;
    let mut moves = Vec::with_capacity(intermediates.len());
    for &cluster in intermediates {
        let slot = (lower..lower + ii).find(|&t| {
            let row = t % ii;
            state.mrt.free_at(t, cluster, FuKind::Copy) > new_claims.claimed(row, cluster)
        })?;
        new_claims.claim(slot % ii, cluster);
        moves.push((cluster, slot));
        lower = slot.saturating_add(mv).min(window_cap as u32);
    }
    let consumer_ready = lower;
    Some((ChainPlan { edge: *edge, moves, consumer_ready, queue_cost }, new_claims))
}

/// Enumerates every viable strategy-2 option for `op` (one per cluster) and
/// returns the best one according to the policy, or `None` if no cluster is
/// viable.
pub fn best_option(
    state: &SchedulerState,
    op: OpId,
    policy: ChainPolicy,
) -> Option<ClusterChainOption> {
    let mut options: Vec<ClusterChainOption> = state
        .topology()
        .iter()
        .filter_map(|c| plan_for_cluster(state, op, c, policy))
        .filter(|o| !o.chains.is_empty())
        .collect();
    if options.is_empty() {
        return None;
    }
    match policy {
        ChainPolicy::MaxFreeSlots => options.sort_by_key(|o| {
            (
                std::cmp::Reverse(o.min_copy_slack),
                o.total_moves,
                o.op_ready,
                o.queue_cost,
                o.cluster,
            )
        }),
        ChainPolicy::ShortestPath => {
            options.sort_by_key(|o| (o.total_moves, o.op_ready, o.cluster))
        }
    }
    options.into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dms_ir::{LoopBuilder, Operand};
    use dms_machine::MachineConfig;

    /// load -> mul -> store plus a second producer far away.
    fn two_producer_loop() -> dms_ir::Loop {
        let mut b = LoopBuilder::new("two_producers");
        let a = b.load(Operand::Induction);
        let c = b.load(Operand::Induction);
        let m = b.add(a.into(), c.into());
        b.store(m.into());
        b.finish(16)
    }

    #[test]
    fn plans_a_chain_through_intermediate_clusters() {
        let l = two_producer_loop();
        let machine = MachineConfig::paper_clustered(6);
        let mut st = SchedulerState::new(l.ddg.clone(), &machine, 4);
        // producers far apart: cluster 0 and cluster 3
        st.place(OpId(0), 0, ClusterId(0));
        st.place(OpId(1), 0, ClusterId(3));
        // the add cannot be adjacent to both -> strategy 2 territory
        assert!(st.communication_compatible_clusters(OpId(2)).is_empty());
        let opt = best_option(&st, OpId(2), ChainPolicy::MaxFreeSlots).expect("viable option");
        assert!(!opt.chains.is_empty());
        assert!(opt.total_moves >= 1);
        // every planned move sits in a cluster strictly between producer and target
        for chain in &opt.chains {
            for (c, _) in &chain.moves {
                assert_ne!(*c, opt.cluster);
            }
        }
    }

    #[test]
    fn chain_times_respect_producer_latency() {
        let l = two_producer_loop();
        let machine = MachineConfig::paper_clustered(8);
        let mut st = SchedulerState::new(l.ddg.clone(), &machine, 3);
        st.place(OpId(0), 5, ClusterId(0));
        let edge = *st.ddg.flow_succs(OpId(0)).next().unwrap().1;
        // shortest path on the 8-ring from C0 to C3: 0 -> 1 -> 2 -> 3
        let path = st.topology().paths(ClusterId(0), ClusterId(3)).remove(0);
        let (plan, _) =
            plan_single_chain(&st, &edge, 5, &path, &Claims::default()).expect("feasible");
        assert_eq!(plan.moves.len(), 2); // clusters 1 and 2
                                         // first move at or after producer time + load latency (2)
        assert!(plan.moves[0].1 >= 7);
        // consecutive moves at least move-latency apart
        assert!(plan.moves[1].1 > plan.moves[0].1);
        assert!(plan.consumer_ready > plan.moves[1].1);
    }

    #[test]
    fn adjacent_clusters_need_no_chain() {
        let l = two_producer_loop();
        let machine = MachineConfig::paper_clustered(6);
        let mut st = SchedulerState::new(l.ddg.clone(), &machine, 4);
        st.place(OpId(0), 0, ClusterId(0));
        let edge = *st.ddg.flow_succs(OpId(0)).next().unwrap().1;
        let adjacent = TopoPath { clusters: vec![ClusterId(0), ClusterId(1)] };
        assert!(plan_single_chain(&st, &edge, 0, &adjacent, &Claims::default()).is_none());
    }

    #[test]
    fn infeasible_when_copy_units_saturated() {
        let l = two_producer_loop();
        let machine = MachineConfig::paper_clustered(4);
        // II = 1: each Copy unit has exactly one slot.
        let mut st = SchedulerState::new(l.ddg.clone(), &machine, 1);
        st.place(OpId(0), 0, ClusterId(0));
        st.place(OpId(1), 0, ClusterId(2));
        // saturate the copy units of the intermediate clusters (1 and 3)
        let c1 = st.ddg.add_op(dms_ir::Operation::new(dms_ir::OpKind::Copy, vec![]));
        let c2 = st.ddg.add_op(dms_ir::Operation::new(dms_ir::OpKind::Copy, vec![]));
        st.height.resize(st.ddg.num_slots(), 0);
        st.never_scheduled.resize(st.ddg.num_slots(), true);
        st.prev_time.resize(st.ddg.num_slots(), 0);
        st.unscheduled.retain(|&o| o != c1 && o != c2);
        st.place(c1, 0, ClusterId(1));
        st.place(c2, 0, ClusterId(3));
        assert!(best_option(&st, OpId(2), ChainPolicy::MaxFreeSlots).is_none());
    }

    #[test]
    fn carried_edge_chain_window_clamps_to_time_zero() {
        // A loop-carried dependence (distance 1) from a producer at time 0:
        // the dependence bound 0 + 2 - II * 1 is negative, so the chain's
        // window must start at 0 — not wrap to a huge unsigned time and make
        // every planning attempt spuriously infeasible.
        let mut b = LoopBuilder::new("carried");
        let x = b.load(Operand::Induction);
        let s = b.add_feedback(x.into(), 1);
        b.store(s.into());
        let l = b.finish(16);
        let machine = MachineConfig::paper_clustered(6);
        let mut st = SchedulerState::new(l.ddg.clone(), &machine, 4);
        st.place(OpId(0), 0, ClusterId(0));
        let edge = *st.ddg.flow_succs(OpId(0)).next().unwrap().1;
        let carried = DepEdge { distance: 1, ..edge };
        let path = st.topology().paths(ClusterId(0), ClusterId(3)).remove(0);
        let (plan, _) = plan_single_chain(&st, &carried, 0, &path, &Claims::default())
            .expect("a negative-slack window must clamp to 0 and stay feasible");
        assert_eq!(plan.moves.len(), 2);
        assert!(plan.moves[0].1 < 4, "the first move must sit inside the clamped [0, II) window");
        assert!(plan.moves[1].1 > plan.moves[0].1);
    }

    #[test]
    fn steering_picks_the_uncongested_equal_length_path() {
        use dms_machine::CqrfId;
        use dms_sched::pressure::{Lifetime, LifetimeClass};
        // load -> mul -> store; producer in C0, candidate cluster C3 on a
        // 6-ring: the two chain paths (via C1,C2 and via C5,C4) tie on
        // every paper criterion, so the historical choice is the first
        // enumerated (clockwise) path.
        let mut b = LoopBuilder::new("steer");
        let a = b.load(Operand::Induction);
        let m = b.mul(a.into(), Operand::Invariant(0));
        b.store(m.into());
        let l = b.finish(16);
        let machine = MachineConfig::paper_clustered(6);
        let mut st = SchedulerState::new(l.ddg.clone(), &machine, 4);
        st.place(a, 0, ClusterId(0));
        // Congest the clockwise path's first hop (CQRF[C0->C1]) past half
        // its capacity.
        st.pressure.add(&Lifetime {
            producer: a,
            consumer: m,
            def_time: 0,
            use_time: 80,
            length: 80,
            depth: 20,
            class: LifetimeClass::CrossCluster {
                queue: CqrfId { writer: ClusterId(0), reader: ClusterId(1) },
            },
        });
        // Without steering the full tie keeps the clockwise enumeration
        // order — straight through the congested queue.
        st.chain_steering = false;
        let plain = plan_for_cluster(&st, m, ClusterId(3), ChainPolicy::MaxFreeSlots).unwrap();
        assert_eq!(plain.chains[0].moves[0].0, ClusterId(1));
        // With steering the congestion penalty prices that path out; the
        // equally short counter-clockwise detour wins.
        st.chain_steering = true;
        let steered = plan_for_cluster(&st, m, ClusterId(3), ChainPolicy::MaxFreeSlots).unwrap();
        assert_eq!(steered.chains[0].moves[0].0, ClusterId(5));
        assert_eq!(steered.total_moves, plain.total_moves, "the detour is no longer");
        assert_eq!(steered.queue_cost, 0, "the chosen detour crosses no congested queue");
    }

    #[test]
    fn shortest_path_policy_minimises_moves() {
        let l = two_producer_loop();
        let machine = MachineConfig::paper_clustered(8);
        let mut st = SchedulerState::new(l.ddg.clone(), &machine, 4);
        st.place(OpId(0), 0, ClusterId(0));
        st.place(OpId(1), 0, ClusterId(4));
        let best_short = best_option(&st, OpId(2), ChainPolicy::ShortestPath).unwrap();
        let best_paper = best_option(&st, OpId(2), ChainPolicy::MaxFreeSlots).unwrap();
        assert!(best_short.total_moves <= best_paper.total_moves);
    }
}
