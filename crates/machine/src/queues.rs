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
//! provides the identifier and the FIFO used by the simulators.
//!
//! [`Topology::queue_between`]: crate::topology::Topology::queue_between
//! [`Topology::queue_files`]: crate::topology::Topology::queue_files

use crate::topology::ClusterId;
use std::collections::VecDeque;
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

/// A FIFO queue register file with bounded capacity and single-read
/// semantics, used by the simulator for both LRF queues and CQRFs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueFile<T> {
    capacity: usize,
    values: VecDeque<T>,
    /// Highest occupancy ever observed; reported by the register-requirement
    /// statistics.
    high_water: usize,
    /// Number of pushes rejected because the queue was full.
    overflows: u64,
}

impl<T> QueueFile<T> {
    /// Creates an empty queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a queue register file needs a positive capacity");
        QueueFile { capacity, values: VecDeque::new(), high_water: 0, overflows: 0 }
    }

    /// Capacity of the queue.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of values held.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the queue holds no value.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether the queue is full.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.values.len() >= self.capacity
    }

    /// Appends a value at the tail. Returns `false` (and records an
    /// overflow) if the queue is full.
    pub fn push(&mut self, value: T) -> bool {
        if self.is_full() {
            self.overflows += 1;
            return false;
        }
        self.values.push_back(value);
        self.high_water = self.high_water.max(self.values.len());
        true
    }

    /// Removes and returns the value at the head (single-read semantics).
    pub fn pop(&mut self) -> Option<T> {
        self.values.pop_front()
    }

    /// Peeks at the head value without consuming it.
    pub fn peek(&self) -> Option<&T> {
        self.values.front()
    }

    /// Highest occupancy ever observed.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of rejected pushes.
    #[inline]
    pub fn overflows(&self) -> u64 {
        self.overflows
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

    #[test]
    fn queue_fifo_and_single_read() {
        let mut q: QueueFile<i64> = QueueFile::new(2);
        assert!(q.is_empty());
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(q.is_full());
        assert!(!q.push(3));
        assert_eq!(q.overflows(), 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.capacity(), 2);
    }

    #[test]
    fn queue_peek_does_not_consume() {
        let mut q: QueueFile<&str> = QueueFile::new(4);
        q.push("a");
        assert_eq!(q.peek(), Some(&"a"));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive capacity")]
    fn zero_capacity_queue_panics() {
        let _: QueueFile<u8> = QueueFile::new(0);
    }
}
