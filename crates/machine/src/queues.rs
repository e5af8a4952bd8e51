//! Queue register files: the Local Register File (LRF) of each cluster and
//! the Communication Queue Register Files (CQRFs) between directly
//! connected clusters.
//!
//! A CQRF sits between two directly connected clusters of the interconnect
//! and is directional: one cluster has write-only access, the other
//! read-only access. Sending a value to a directly connected cluster
//! therefore needs no explicit instruction — the producer simply writes its
//! result into the queue file [`Topology::queue_between`] names and the
//! consumer reads it from there. A value can be read **only once** from a
//! queue, which is why multiple-use lifetimes are converted to single-use
//! lifetimes before scheduling.
//!
//! Which queue files exist — one per adjacent directed pair on a ring, one
//! shared output queue per cluster on a bus, one per directed pair on a
//! crossbar — is decided by [`Topology::queue_files`]; this module only
//! provides the identifier.
//!
//! [`Topology::queue_between`]: crate::topology::Topology::queue_between
//! [`Topology::queue_files`]: crate::topology::Topology::queue_files

use crate::topology::ClusterId;
use std::fmt;

/// Identifier of a directional communication queue file: written by
/// `writer`, read by `reader`. On a bus topology the single shared output
/// queue of cluster `w` is identified by `writer == reader == w` (every
/// other cluster reads it; `w` itself keeps its values in the LRF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CqrfId {
    /// The cluster with write-only access.
    pub writer: ClusterId,
    /// The cluster with read-only access (equal to `writer` for a shared
    /// bus output queue).
    pub reader: ClusterId,
}

impl fmt::Display for CqrfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.writer == self.reader {
            write!(f, "BUSQ[{}]", self.writer)
        } else {
            write!(f, "CQRF[{}->{}]", self.writer, self.reader)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn cqrf_between_adjacent_clusters() {
        let ring = Topology::ring(4);
        let q = ring.queue_between(ClusterId(3), ClusterId(0)).unwrap();
        assert_eq!(q.writer, ClusterId(3));
        assert_eq!(q.reader, ClusterId(0));
        assert_eq!(q.to_string(), "CQRF[C3->C0]");
    }

    #[test]
    fn no_cqrf_between_distant_clusters() {
        let ring = Topology::ring(6);
        assert_eq!(ring.queue_between(ClusterId(0), ClusterId(3)), None);
    }

    #[test]
    fn cqrf_enumeration() {
        assert_eq!(Topology::ring(1).queue_files().len(), 0);
        assert_eq!(Topology::ring(2).queue_files().len(), 2);
        // a ring of C >= 3 clusters has C adjacent pairs, two CQRFs each
        assert_eq!(Topology::ring(3).queue_files().len(), 6);
        assert_eq!(Topology::ring(8).queue_files().len(), 16);
    }

    #[test]
    fn bus_queue_display_names_the_shared_file() {
        let q = CqrfId { writer: ClusterId(2), reader: ClusterId(2) };
        assert_eq!(q.to_string(), "BUSQ[C2]");
    }
}
