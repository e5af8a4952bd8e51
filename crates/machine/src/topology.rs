//! The interconnect topology connecting the clusters.
//!
//! The paper's machine arranges its clusters in a **bi-directional ring**;
//! its §5 discussion (and the follow-up literature on clustered-VLIW
//! interconnects) invites asking how much of the no-overhead result depends
//! on that choice. [`Topology`] is the machine-description answer: one value
//! describing *which* clusters can exchange a value directly, *which queue
//! file* carries it, and *which paths* a chain of `move` operations may take
//! when the producer and consumer are not directly connected. Everything
//! downstream — scheduling, chain planning, register pressure, allocation,
//! code generation and simulation — consumes only this surface, so adding a
//! topology variant here makes the whole pipeline support it.
//!
//! Four variants are provided:
//!
//! * [`TopologyKind::Ring`] — the paper's bi-directional ring: cluster `i`
//!   is adjacent to `(i ± 1) mod C`; distant pairs communicate through
//!   chains of `move` operations along one of the two ring directions.
//! * [`TopologyKind::ChordalRing`] — the ring plus chords: cluster `i` is
//!   additionally adjacent to `(i ± chord) mod C`, shrinking the diameter
//!   and the number of moves a chain needs.
//! * [`TopologyKind::Bus`] — a shared bus: every pair of clusters is
//!   directly connected, but each cluster drives a **single** output queue
//!   file onto the bus, shared by all its readers (so all traffic leaving
//!   one cluster competes for the same queue registers).
//! * [`TopologyKind::Crossbar`] — full point-to-point connectivity with a
//!   dedicated queue file per directed cluster pair (the idealised upper
//!   bound on interconnect richness).
//!
//! Two operations with a flow dependence may be scheduled in the same
//! cluster (value passes through the LRF) or in directly connected clusters
//! (value passes through the queue file [`Topology::queue_between`] names);
//! any other placement requires a *chain* of `move` operations along one of
//! [`Topology::paths`] and, if none can be built, constitutes a
//! **communication conflict**.

use crate::queues::CqrfId;
use std::fmt;

/// Identifier of a cluster (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// Returns the identifier as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// The interconnect family of a machine, independent of its cluster count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopologyKind {
    /// The paper's bi-directional ring.
    #[default]
    Ring,
    /// A ring with additional chords of the given stride: cluster `i` is
    /// adjacent to `(i ± 1) mod C` and `(i ± chord) mod C`. Strides that
    /// reduce to ring edges (`chord % C` of 0, 1 or `C - 1`) add nothing and
    /// leave the plain ring.
    ChordalRing {
        /// Stride of the chord edges.
        chord: u32,
    },
    /// A shared bus: all clusters mutually connected, one output queue file
    /// per cluster shared by every reader.
    Bus,
    /// Full point-to-point connectivity with one queue file per directed
    /// cluster pair.
    Crossbar,
}

impl TopologyKind {
    /// Stable label used by CSV columns and the CLI (`ring`, `chordal:K`,
    /// `bus`, `crossbar`).
    pub fn label(&self) -> String {
        match self {
            TopologyKind::Ring => "ring".to_string(),
            TopologyKind::ChordalRing { chord } => format!("chordal:{chord}"),
            TopologyKind::Bus => "bus".to_string(),
            TopologyKind::Crossbar => "crossbar".to_string(),
        }
    }

    /// Parses a CLI label: `ring`, `chordal` (stride 2), `chordal:K`, `bus`
    /// or `crossbar`.
    pub fn parse(s: &str) -> Result<TopologyKind, String> {
        match s {
            "ring" => Ok(TopologyKind::Ring),
            "bus" => Ok(TopologyKind::Bus),
            "crossbar" => Ok(TopologyKind::Crossbar),
            "chordal" => Ok(TopologyKind::ChordalRing { chord: 2 }),
            other => match other.strip_prefix("chordal:") {
                Some(k) => k
                    .parse()
                    .map(|chord| TopologyKind::ChordalRing { chord })
                    .map_err(|_| format!("bad chordal stride in topology {other:?}")),
                None => Err(format!(
                    "unknown topology {other:?} (expected ring, chordal[:K], bus or crossbar)"
                )),
            },
        }
    }
}

/// How an interconnect serialises concurrent cross-cluster transfers.
///
/// Derived from [`TopologyKind`] by [`Topology::transfer_model`]; the
/// per-link slot count comes from [`Topology::link_capacity`]. The variants
/// deliberately mirror the three bandwidth regimes of the figT topology
/// sweep: a dedicated path per pair (crossbar), a single shared medium
/// (bus) and point-to-point links (ring / chordal ring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferModel {
    /// Every (writer, reader) pair has a dedicated path: transfers never
    /// wait for bandwidth.
    Unconstrained,
    /// One transaction per cycle across *all* writers; a written value is
    /// broadcast, so one transaction serves all its readers.
    SharedMedium,
    /// One transfer per directed link per cycle; distinct links are
    /// independent.
    PerLink,
}

impl fmt::Display for TransferModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransferModel::Unconstrained => "unconstrained",
            TransferModel::SharedMedium => "shared-medium",
            TransferModel::PerLink => "per-link",
        })
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A simple path from one cluster to another, including both endpoints. The
/// clusters strictly between the endpoints are the ones that must host
/// `move` operations of a DMS chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoPath {
    /// The clusters visited, starting at the source and ending at the
    /// destination.
    pub clusters: Vec<ClusterId>,
}

impl TopoPath {
    /// Number of hops (edges) along the path.
    pub fn hops(&self) -> usize {
        self.clusters.len().saturating_sub(1)
    }

    /// The intermediate clusters (those that need a `move` operation when
    /// the path is realised as a chain).
    pub fn intermediates(&self) -> &[ClusterId] {
        if self.clusters.len() <= 2 {
            &[]
        } else {
            &self.clusters[1..self.clusters.len() - 1]
        }
    }
}

/// The interconnect of a machine with a given number of clusters.
///
/// All scheduling-facing queries go through the small method surface below
/// ([`len`](Topology::len), [`distance`](Topology::distance),
/// [`directly_connected`](Topology::directly_connected),
/// [`paths`](Topology::paths), [`queue_between`](Topology::queue_between),
/// [`queue_files`](Topology::queue_files)); no consumer may assume ring
/// geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    kind: TopologyKind,
    clusters: u32,
}

impl Topology {
    /// Creates a topology of the given family over `clusters` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `clusters == 0`.
    pub fn new(kind: TopologyKind, clusters: u32) -> Self {
        assert!(clusters > 0, "a machine needs at least one cluster");
        Topology { kind, clusters }
    }

    /// The paper's bi-directional ring over `clusters` clusters.
    pub fn ring(clusters: u32) -> Self {
        Topology::new(TopologyKind::Ring, clusters)
    }

    /// The interconnect family.
    #[inline]
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of clusters (never zero, so there is no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> u32 {
        self.clusters
    }

    /// Whether the machine has a single cluster (an unclustered machine).
    #[inline]
    pub fn is_single(&self) -> bool {
        self.clusters == 1
    }

    /// Iterates over all cluster identifiers.
    pub fn iter(&self) -> impl Iterator<Item = ClusterId> {
        (0..self.clusters).map(ClusterId)
    }

    /// The effective chordal stride, or `None` when the kind's chords reduce
    /// to plain ring edges.
    fn chord(&self) -> Option<u32> {
        let TopologyKind::ChordalRing { chord } = self.kind else { return None };
        let c = chord % self.clusters;
        (c > 1 && c < self.clusters - 1).then_some(c)
    }

    /// The direct neighbours of a cluster, in ascending id order.
    fn neighbours(&self, of: ClusterId) -> Vec<ClusterId> {
        let n = self.clusters;
        if n == 1 {
            return Vec::new();
        }
        let mut out: Vec<ClusterId> = match self.kind {
            TopologyKind::Ring | TopologyKind::ChordalRing { .. } => {
                let mut strides = vec![1];
                if let Some(c) = self.chord() {
                    strides.push(c);
                }
                strides
                    .iter()
                    .flat_map(|&s| [(of.0 + s) % n, (of.0 + n - s) % n])
                    .map(ClusterId)
                    .collect()
            }
            TopologyKind::Bus | TopologyKind::Crossbar => {
                (0..n).filter(|&c| c != of.0).map(ClusterId).collect()
            }
        };
        out.retain(|&c| c != of);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Minimum hop distance between two clusters (0 for the same cluster).
    pub fn distance(&self, a: ClusterId, b: ClusterId) -> u32 {
        match self.kind {
            TopologyKind::Ring => self.ring_gap(a, b),
            TopologyKind::ChordalRing { .. } => {
                // BFS over <= `clusters` nodes; only the chordal ring needs
                // it, and only off the hot paths (which use the O(1)
                // `directly_connected` predicate instead).
                self.bfs_distances(a)[b.index()].expect("connected topology")
            }
            TopologyKind::Bus | TopologyKind::Crossbar => u32::from(a != b),
        }
    }

    /// Minimum gap around the plain ring (0 for the same cluster).
    fn ring_gap(&self, a: ClusterId, b: ClusterId) -> u32 {
        let c = self.clusters;
        let d = (a.0 as i64 - b.0 as i64).unsigned_abs() as u32 % c;
        d.min(c - d)
    }

    /// Whether two clusters can exchange a value without a chain: the same
    /// cluster (via the LRF) or directly connected clusters (via a queue
    /// file). Equivalent to `distance(a, b) <= 1` but O(1) for every
    /// variant — this predicate sits on the scheduler's innermost loops
    /// (cluster preference, lifetime classification, validation), where
    /// the chordal ring's BFS distance would be needlessly recomputed.
    pub fn directly_connected(&self, a: ClusterId, b: ClusterId) -> bool {
        match self.kind {
            TopologyKind::Ring => self.ring_gap(a, b) <= 1,
            TopologyKind::ChordalRing { .. } => {
                let gap = self.ring_gap(a, b);
                gap <= 1 || self.chord().is_some_and(|c| gap == c || gap == self.clusters - c)
            }
            TopologyKind::Bus | TopologyKind::Crossbar => true,
        }
    }

    /// BFS hop distances from `from` to every cluster.
    fn bfs_distances(&self, from: ClusterId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.clusters as usize];
        dist[from.index()] = Some(0);
        let mut frontier = vec![from];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for cur in frontier {
                let d = dist[cur.index()].expect("frontier is reached");
                for nb in self.neighbours(cur) {
                    if dist[nb.index()].is_none() {
                        dist[nb.index()] = Some(d + 1);
                        next.push(nb);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    /// The simple paths a chain of `move` operations may take from `from`
    /// to `to`, including both endpoints, shortest first and deterministic.
    ///
    /// * On a ring these are the (at most two distinct) directional walks —
    ///   including the longer way round, which DMS strategy 2 legitimately
    ///   prefers when the short way's Copy units are saturated.
    /// * On a chordal ring these are **all shortest** simple paths, in
    ///   lexicographic order (richer connectivity already provides
    ///   alternatives of equal length).
    /// * On a bus or crossbar every pair is directly connected and the only
    ///   path is the two-cluster hop (or the single cluster itself).
    pub fn paths(&self, from: ClusterId, to: ClusterId) -> Vec<TopoPath> {
        if from == to {
            return vec![TopoPath { clusters: vec![from] }];
        }
        match self.kind {
            TopologyKind::Ring => {
                let cw = self.ring_walk(from, to, true);
                let ccw = self.ring_walk(from, to, false);
                if cw.clusters == ccw.clusters {
                    return vec![cw];
                }
                let mut v = vec![cw, ccw];
                v.sort_by_key(TopoPath::hops);
                v
            }
            TopologyKind::ChordalRing { .. } => self.shortest_paths(from, to),
            TopologyKind::Bus | TopologyKind::Crossbar => {
                vec![TopoPath { clusters: vec![from, to] }]
            }
        }
    }

    /// One directional walk around the ring (`up`: towards increasing ids).
    fn ring_walk(&self, from: ClusterId, to: ClusterId, up: bool) -> TopoPath {
        let n = self.clusters;
        let mut clusters = vec![from];
        let mut cur = from;
        while cur != to {
            cur = ClusterId(if up { (cur.0 + 1) % n } else { (cur.0 + n - 1) % n });
            clusters.push(cur);
        }
        TopoPath { clusters }
    }

    /// Every shortest simple path from `from` to `to`, in lexicographic
    /// order of the visited cluster ids.
    fn shortest_paths(&self, from: ClusterId, to: ClusterId) -> Vec<TopoPath> {
        // BFS from the destination gives, for every cluster, its hop count
        // to `to`; every shortest path steps strictly down that gradient.
        let dist_to = self.bfs_distances(to);
        let mut out = Vec::new();
        let mut stack = vec![from];
        self.descend(&mut stack, to, &dist_to, &mut out);
        out
    }

    fn descend(
        &self,
        stack: &mut Vec<ClusterId>,
        to: ClusterId,
        dist_to: &[Option<u32>],
        out: &mut Vec<TopoPath>,
    ) {
        let cur = *stack.last().expect("non-empty path stack");
        if cur == to {
            out.push(TopoPath { clusters: stack.clone() });
            return;
        }
        let d = dist_to[cur.index()].expect("connected topology");
        for nb in self.neighbours(cur) {
            if dist_to[nb.index()] == Some(d - 1) {
                stack.push(nb);
                self.descend(stack, to, dist_to, out);
                stack.pop();
            }
        }
    }

    /// The queue file a value written in `writer` and read in `reader`
    /// travels through, or `None` when the pair shares a cluster (the value
    /// stays in the LRF) or is not directly connected (a communication
    /// conflict).
    pub fn queue_between(&self, writer: ClusterId, reader: ClusterId) -> Option<CqrfId> {
        if writer == reader || !self.directly_connected(writer, reader) {
            return None;
        }
        match self.kind {
            // Dedicated queue per directed pair.
            TopologyKind::Ring | TopologyKind::ChordalRing { .. } | TopologyKind::Crossbar => {
                Some(CqrfId { writer, reader })
            }
            // One shared output queue per writer (identified by
            // writer == reader), serving every cluster on the bus.
            TopologyKind::Bus => Some(CqrfId { writer, reader: writer }),
        }
    }

    /// Whether `cluster` is a legal reader of `queue` on this topology —
    /// i.e. the queue file exists on this interconnect *and* `cluster` is
    /// on its read side. A validity predicate for queue annotations (the
    /// VLIW executor checks its annotations with the stricter
    /// producer-cluster [`Topology::queue_between`] equality, which this
    /// predicate is the cluster-agnostic relaxation of).
    pub fn reads_queue(&self, queue: CqrfId, cluster: ClusterId) -> bool {
        if queue.writer == queue.reader {
            // A shared bus output queue: every other cluster may read it.
            self.kind == TopologyKind::Bus && cluster != queue.writer
        } else {
            // On a bus, queue_between names the shared {w, w} queue, so a
            // per-pair id correctly fails the equality.
            cluster == queue.reader && self.queue_between(queue.writer, queue.reader) == Some(queue)
        }
    }

    /// How this interconnect serialises concurrent transfers — the
    /// declarative bandwidth surface consumed by the contention-accurate
    /// replay (`dms-sim`'s `contention` module).
    ///
    /// The scheduler and the idealised executor only model queue *storage*
    /// sharing; this model adds transfer *bandwidth*: how many values can
    /// be in flight per cycle, and on what granularity they contend.
    pub fn transfer_model(&self) -> TransferModel {
        match self.kind {
            // A full crossbar has a dedicated path per (writer, reader)
            // pair; transfers never contend.
            TopologyKind::Crossbar => TransferModel::Unconstrained,
            // A single shared medium: one transaction per cycle across
            // all writers. A write is a broadcast, so one transaction
            // serves every reader of the value.
            TopologyKind::Bus => TransferModel::SharedMedium,
            // Point-to-point links: one transfer per directed link per
            // cycle; distinct links move values concurrently.
            TopologyKind::Ring | TopologyKind::ChordalRing { .. } => TransferModel::PerLink,
        }
    }

    /// Transfer slots per cycle on the directed link `writer -> reader`,
    /// or `None` when the pair does not contend for bandwidth (same
    /// cluster — the value stays in the LRF — or an unconstrained
    /// crossbar path). Pairs that are not directly connected also return
    /// `None`: multi-hop routes are realised as chains of scheduled move
    /// operations, each hop a single-hop transfer on its own link, so a
    /// `distance`-hop value occupies its route for `distance` cycles
    /// link by link rather than through a composite resource here.
    ///
    /// On a bus the "link" is the shared medium itself: every connected
    /// pair reports the same single slot, and the replay maps all of them
    /// onto one resource via [`Topology::transfer_model`].
    pub fn link_capacity(&self, writer: ClusterId, reader: ClusterId) -> Option<u32> {
        if writer == reader || !self.directly_connected(writer, reader) {
            return None;
        }
        match self.transfer_model() {
            TransferModel::Unconstrained => None,
            TransferModel::SharedMedium | TransferModel::PerLink => Some(1),
        }
    }

    /// Enumerates every communication queue file of the topology, sorted.
    /// A single-cluster machine has none.
    pub fn queue_files(&self) -> Vec<CqrfId> {
        let mut out = Vec::new();
        if self.clusters < 2 {
            return out;
        }
        match self.kind {
            TopologyKind::Bus => {
                out.extend(self.iter().map(|c| CqrfId { writer: c, reader: c }));
            }
            _ => {
                for w in self.iter() {
                    for r in self.neighbours(w) {
                        out.push(CqrfId { writer: w, reader: r });
                    }
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.kind, self.clusters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chordal(clusters: u32, chord: u32) -> Topology {
        Topology::new(TopologyKind::ChordalRing { chord }, clusters)
    }

    #[test]
    fn transfer_models_match_their_topology_family() {
        assert_eq!(Topology::ring(4).transfer_model(), TransferModel::PerLink);
        assert_eq!(chordal(8, 2).transfer_model(), TransferModel::PerLink);
        assert_eq!(
            Topology::new(TopologyKind::Bus, 4).transfer_model(),
            TransferModel::SharedMedium
        );
        assert_eq!(
            Topology::new(TopologyKind::Crossbar, 4).transfer_model(),
            TransferModel::Unconstrained
        );
        assert_eq!(TransferModel::SharedMedium.to_string(), "shared-medium");
    }

    #[test]
    fn link_capacity_is_one_slot_on_constrained_links_and_none_elsewhere() {
        let ring = Topology::ring(6);
        assert_eq!(ring.link_capacity(ClusterId(0), ClusterId(1)), Some(1));
        assert_eq!(ring.link_capacity(ClusterId(0), ClusterId(5)), Some(1));
        // same cluster: LRF traffic, no link
        assert_eq!(ring.link_capacity(ClusterId(0), ClusterId(0)), None);
        // not directly connected: realised as move chains, hop by hop
        assert_eq!(ring.link_capacity(ClusterId(0), ClusterId(3)), None);

        let bus = Topology::new(TopologyKind::Bus, 6);
        assert_eq!(bus.link_capacity(ClusterId(0), ClusterId(3)), Some(1));
        assert_eq!(bus.link_capacity(ClusterId(4), ClusterId(1)), Some(1));

        let xbar = Topology::new(TopologyKind::Crossbar, 6);
        assert_eq!(xbar.link_capacity(ClusterId(0), ClusterId(3)), None);
        assert_eq!(xbar.link_capacity(ClusterId(2), ClusterId(5)), None);
    }

    #[test]
    fn distances_on_a_ring_of_six() {
        let r = Topology::ring(6);
        assert_eq!(r.distance(ClusterId(0), ClusterId(0)), 0);
        assert_eq!(r.distance(ClusterId(0), ClusterId(1)), 1);
        assert_eq!(r.distance(ClusterId(0), ClusterId(5)), 1);
        assert_eq!(r.distance(ClusterId(0), ClusterId(3)), 3);
        assert_eq!(r.distance(ClusterId(1), ClusterId(4)), 3);
        assert_eq!(r.distance(ClusterId(2), ClusterId(5)), 3);
    }

    #[test]
    fn direct_connectivity() {
        let r = Topology::ring(8);
        assert!(r.directly_connected(ClusterId(0), ClusterId(0)));
        assert!(r.directly_connected(ClusterId(0), ClusterId(1)));
        assert!(r.directly_connected(ClusterId(0), ClusterId(7)));
        assert!(!r.directly_connected(ClusterId(0), ClusterId(2)));
        // with 2 clusters everything is directly connected
        let r2 = Topology::ring(2);
        assert!(r2.directly_connected(ClusterId(0), ClusterId(1)));
        // with 3 clusters everything is adjacent on a ring
        let r3 = Topology::ring(3);
        assert!(r3.directly_connected(ClusterId(0), ClusterId(2)));
    }

    #[test]
    fn paths_enumerate_both_ring_directions() {
        let r = Topology::ring(6);
        let ps = r.paths(ClusterId(0), ClusterId(2));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].hops(), 2);
        assert_eq!(ps[1].hops(), 4);
        assert_eq!(ps[0].intermediates(), &[ClusterId(1)]);
        assert_eq!(ps[1].intermediates(), &[ClusterId(5), ClusterId(4), ClusterId(3)]);
    }

    #[test]
    fn path_to_self_is_trivial() {
        let r = Topology::ring(4);
        let ps = r.paths(ClusterId(2), ClusterId(2));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].hops(), 0);
        assert!(ps[0].intermediates().is_empty());
    }

    #[test]
    fn opposite_point_on_even_ring_gives_two_equal_length_paths() {
        let r = Topology::ring(4);
        let ps = r.paths(ClusterId(0), ClusterId(2));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[0].hops(), 2);
        assert_eq!(ps[1].hops(), 2);
    }

    #[test]
    fn two_cluster_ring_paths_are_deduplicated() {
        let r = Topology::ring(2);
        let ps = r.paths(ClusterId(0), ClusterId(1));
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].hops(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn zero_clusters_panics() {
        let _ = Topology::ring(0);
    }

    #[test]
    fn chordal_ring_shrinks_distances() {
        // C(8; 1, 3): cluster 0 reaches 3 directly, and 6 in two hops
        // (0 -> 3 -> 6 or 0 -> 7 -> 6) instead of the ring's two.
        let t = chordal(8, 3);
        assert_eq!(t.distance(ClusterId(0), ClusterId(3)), 1);
        assert!(t.directly_connected(ClusterId(0), ClusterId(5))); // 0 -> 5 is -3
        assert_eq!(t.distance(ClusterId(0), ClusterId(6)), 2);
        assert_eq!(t.distance(ClusterId(0), ClusterId(4)), 2);
        // the ring needs 4 hops for the antipode
        assert_eq!(Topology::ring(8).distance(ClusterId(0), ClusterId(4)), 4);
    }

    #[test]
    fn chordal_paths_are_all_shortest_and_lexicographic() {
        let t = chordal(8, 2);
        let ps = t.paths(ClusterId(0), ClusterId(4));
        assert!(!ps.is_empty());
        let best = ps[0].hops();
        assert_eq!(best, 2); // 0 -> 2 -> 4
        assert!(ps.iter().all(|p| p.hops() == best), "chordal paths() returns shortest only");
        // deterministic lexicographic order
        let mut sorted = ps.clone();
        sorted.sort_by(|a, b| a.clusters.cmp(&b.clusters));
        assert_eq!(ps, sorted);
        // every consecutive pair is directly connected
        for p in &ps {
            for w in p.clusters.windows(2) {
                assert!(t.directly_connected(w[0], w[1]));
            }
        }
    }

    #[test]
    fn degenerate_chords_reduce_to_the_ring() {
        for chord in [0, 1, 5, 6] {
            let t = chordal(6, chord);
            let r = Topology::ring(6);
            for a in t.iter() {
                for b in t.iter() {
                    assert_eq!(t.distance(a, b), r.distance(a, b), "chord {chord} {a}->{b}");
                }
            }
        }
    }

    #[test]
    fn bus_and_crossbar_are_fully_connected() {
        for kind in [TopologyKind::Bus, TopologyKind::Crossbar] {
            let t = Topology::new(kind, 8);
            for a in t.iter() {
                for b in t.iter() {
                    assert!(t.directly_connected(a, b));
                    assert_eq!(t.distance(a, b), u32::from(a != b));
                    let ps = t.paths(a, b);
                    assert_eq!(ps.len(), 1);
                    assert!(ps[0].intermediates().is_empty());
                }
            }
        }
    }

    #[test]
    fn bus_shares_one_output_queue_per_writer() {
        let t = Topology::new(TopologyKind::Bus, 4);
        let q1 = t.queue_between(ClusterId(1), ClusterId(0)).unwrap();
        let q2 = t.queue_between(ClusterId(1), ClusterId(3)).unwrap();
        assert_eq!(q1, q2, "all traffic leaving a cluster shares its bus queue");
        assert_eq!(q1.writer, ClusterId(1));
        assert_eq!(t.queue_files().len(), 4);
        assert!(t.reads_queue(q1, ClusterId(0)));
        assert!(!t.reads_queue(q1, ClusterId(1)), "the writer reads its own values via the LRF");
    }

    #[test]
    fn crossbar_has_a_queue_per_directed_pair() {
        let t = Topology::new(TopologyKind::Crossbar, 5);
        assert_eq!(t.queue_files().len(), 5 * 4);
        let q = t.queue_between(ClusterId(4), ClusterId(1)).unwrap();
        assert_eq!((q.writer, q.reader), (ClusterId(4), ClusterId(1)));
        assert!(t.reads_queue(q, ClusterId(1)));
        assert!(!t.reads_queue(q, ClusterId(2)));
    }

    #[test]
    fn queue_between_is_none_for_local_or_conflicting_pairs() {
        let r = Topology::ring(8);
        assert_eq!(r.queue_between(ClusterId(2), ClusterId(2)), None);
        assert_eq!(r.queue_between(ClusterId(0), ClusterId(4)), None);
        let q = r.queue_between(ClusterId(0), ClusterId(7)).unwrap();
        assert_eq!((q.writer, q.reader), (ClusterId(0), ClusterId(7)));
    }

    #[test]
    fn kind_labels_roundtrip_through_parse() {
        for kind in [
            TopologyKind::Ring,
            TopologyKind::ChordalRing { chord: 3 },
            TopologyKind::Bus,
            TopologyKind::Crossbar,
        ] {
            assert_eq!(TopologyKind::parse(&kind.label()), Ok(kind));
        }
        assert_eq!(TopologyKind::parse("chordal"), Ok(TopologyKind::ChordalRing { chord: 2 }));
        assert!(TopologyKind::parse("torus").is_err());
        assert!(TopologyKind::parse("chordal:x").is_err());
    }
}
