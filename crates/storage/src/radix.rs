//! Software-managed per-partition write buffers — a radix-partitioning
//! front end for a record router.
//!
//! Routing one record at a time into a partition sink touches that
//! partition's metadata and output buffer per record; with dozens of
//! partitions the accesses stride across the cache. [`RadixRouter`]
//! batches instead: each partition owns a small fixed-size buffer (a few
//! cache lines of keys + payload bytes), records are copied into their
//! partition's buffer, and a full buffer is flushed into the sink in one
//! burst. No executor routes through it: an on/off A/B in front of the
//! hash joins' R-pass stager measured no gain, so only the benchmark's
//! `kernel.radix_route_mrec_s` row drives it.
//!
//! **Determinism contract.** Buffering only *delays* sink calls within one
//! stream: records of the same partition are delivered in exactly their
//! arrival order, and [`finish`](RadixRouter::finish) drains leftovers in
//! ascending partition order, so a sink whose state depends only on each
//! partition's record sequence ends in the state unbuffered routing leaves
//! it in.
//!
//! The buffers copy key and payload bytes (they cannot borrow: a
//! [`RecordRef`] from a scan only lives until the next page is read), so a
//! flush hands the sink views into the router's own arena.

use crate::record::{RecordLayout, RecordRef};
use crate::Result;

/// Bytes of buffered record data each partition targets (a handful of
/// cache lines; the per-partition slot count derives from the layout).
const PARTITION_BUFFER_BYTES: usize = 1024;

/// Per-partition batching write buffers in front of a partition sink.
///
/// The sink is any `FnMut(partition, record) -> Result<()>`, for example a
/// counting closure or a vector of `RelationWriter`s.
pub struct RadixRouter {
    cap: usize,
    /// Payload stride, cached off the layout: `push` is the per-record hot
    /// path of every partition sweep.
    pb: usize,
    keys: Vec<u64>,
    payloads: Vec<u8>,
    counts: Vec<u32>,
}

impl RadixRouter {
    /// Creates a router over `num_partitions` partitions for records of
    /// `layout`.
    pub fn new(layout: RecordLayout, num_partitions: usize) -> Self {
        let cap = (PARTITION_BUFFER_BYTES / layout.record_bytes().max(1)).clamp(4, 64);
        RadixRouter {
            cap,
            pb: layout.payload_bytes(),
            keys: vec![0; num_partitions * cap],
            payloads: vec![0; num_partitions * cap * layout.payload_bytes()],
            counts: vec![0; num_partitions],
        }
    }

    /// Number of partitions routed over.
    pub fn num_partitions(&self) -> usize {
        self.counts.len()
    }

    /// Records each partition buffers before flushing.
    pub fn buffer_capacity(&self) -> usize {
        self.cap
    }

    /// Records currently buffered across all partitions (not yet delivered
    /// to the sink).
    pub fn pending(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }

    /// Buffers `rec` for partition `p`, flushing that partition's buffer
    /// into `sink` when it fills.
    ///
    /// If the sink fails mid-flush the error propagates immediately; the
    /// router's state is unspecified afterwards (every caller is
    /// fail-clean and abandons the pass).
    #[inline]
    pub fn push(
        &mut self,
        p: usize,
        rec: RecordRef<'_>,
        sink: &mut impl FnMut(usize, RecordRef<'_>) -> Result<()>,
    ) -> Result<()> {
        debug_assert_eq!(rec.payload().len(), self.pb);
        let n = self.counts[p] as usize;
        let slot = p * self.cap + n;
        self.keys[slot] = rec.key();
        let base = slot * self.pb;
        self.payloads[base..base + self.pb].copy_from_slice(rec.payload());
        self.counts[p] = (n + 1) as u32;
        if n + 1 == self.cap {
            self.flush_partition(p, sink)?;
        }
        Ok(())
    }

    /// Drains every partially filled buffer into `sink`, in ascending
    /// partition order. Must be called before the sink is finished;
    /// afterwards the router is empty and reusable.
    pub fn finish(
        &mut self,
        sink: &mut impl FnMut(usize, RecordRef<'_>) -> Result<()>,
    ) -> Result<()> {
        for p in 0..self.counts.len() {
            if self.counts[p] > 0 {
                self.flush_partition(p, sink)?;
            }
        }
        Ok(())
    }

    /// Delivers partition `p`'s buffered records to the sink in arrival
    /// order and resets the buffer.
    fn flush_partition(
        &mut self,
        p: usize,
        sink: &mut impl FnMut(usize, RecordRef<'_>) -> Result<()>,
    ) -> Result<()> {
        let n = self.counts[p] as usize;
        let base = p * self.cap;
        let pb = self.pb;
        for j in 0..n {
            let slot = base + j;
            let payload = &self.payloads[slot * pb..(slot + 1) * pb];
            sink(p, RecordRef::new(self.keys[slot], payload))?;
        }
        self.counts[p] = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordBatch;

    fn route(
        layout: RecordLayout,
        partitions: usize,
        records: &[(usize, u64)],
    ) -> Vec<RecordBatch> {
        let mut batches = vec![RecordBatch::new(layout); partitions];
        let mut router = RadixRouter::new(layout, partitions);
        let mut sink = |p: usize, rec: RecordRef<'_>| {
            batches[p].push(rec);
            Ok(())
        };
        for &(p, key) in records {
            let payload = vec![(key % 251) as u8; layout.payload_bytes()];
            router
                .push(p, RecordRef::new(key, &payload), &mut sink)
                .unwrap();
        }
        router.finish(&mut sink).unwrap();
        batches
    }

    fn route_direct(
        layout: RecordLayout,
        partitions: usize,
        records: &[(usize, u64)],
    ) -> Vec<RecordBatch> {
        let mut batches = vec![RecordBatch::new(layout); partitions];
        for &(p, key) in records {
            let payload = vec![(key % 251) as u8; layout.payload_bytes()];
            batches[p].push(RecordRef::new(key, &payload));
        }
        batches
    }

    #[test]
    fn buffered_routing_preserves_per_partition_order_and_bytes() {
        let layout = RecordLayout::new(24);
        for partitions in [1usize, 3, 8, 17] {
            let records: Vec<(usize, u64)> = (0..2_000u64)
                .map(|i| ((crate::hash::mix64(i) as usize) % partitions, i))
                .collect();
            assert_eq!(
                route(layout, partitions, &records),
                route_direct(layout, partitions, &records),
                "partitions={partitions}"
            );
        }
    }

    #[test]
    fn partial_tails_flush_on_finish() {
        let layout = RecordLayout::new(120);
        let mut router = RadixRouter::new(layout, 4);
        // One record fewer than a full buffer in partition 2: nothing may
        // reach the sink until finish().
        let payload = vec![7u8; 120];
        let delivered = std::cell::Cell::new(0usize);
        let mut sink = |_p: usize, _rec: RecordRef<'_>| {
            delivered.set(delivered.get() + 1);
            Ok(())
        };
        for i in 0..router.buffer_capacity() - 1 {
            router
                .push(2, RecordRef::new(i as u64, &payload), &mut sink)
                .unwrap();
        }
        assert_eq!(delivered.get(), 0);
        assert_eq!(router.pending(), router.buffer_capacity() - 1);
        router.finish(&mut sink).unwrap();
        assert_eq!(delivered.get(), router.buffer_capacity() - 1);
        assert_eq!(router.pending(), 0);
    }

    #[test]
    fn full_buffers_flush_inline() {
        let layout = RecordLayout::new(0);
        let mut router = RadixRouter::new(layout, 2);
        let cap = router.buffer_capacity();
        let mut delivered: Vec<u64> = Vec::new();
        let mut sink = |_p: usize, rec: RecordRef<'_>| {
            delivered.push(rec.key());
            Ok(())
        };
        for i in 0..cap as u64 {
            router.push(0, RecordRef::new(i, &[]), &mut sink).unwrap();
        }
        assert_eq!(delivered.len(), cap, "a full buffer flushes immediately");
        assert_eq!(delivered, (0..cap as u64).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_scales_with_record_size_within_bounds() {
        assert_eq!(
            RadixRouter::new(RecordLayout::new(0), 1).buffer_capacity(),
            64
        );
        assert_eq!(
            RadixRouter::new(RecordLayout::new(120), 1).buffer_capacity(),
            8
        );
        assert_eq!(
            RadixRouter::new(RecordLayout::new(4096), 1).buffer_capacity(),
            4
        );
    }

    #[test]
    fn sink_errors_propagate() {
        let layout = RecordLayout::new(0);
        let mut router = RadixRouter::new(layout, 1);
        let mut sink = |_p: usize, _rec: RecordRef<'_>| {
            Err(crate::StorageError::Io("sink failed".to_string()))
        };
        for i in 0..router.buffer_capacity() as u64 - 1 {
            router.push(0, RecordRef::new(i, &[]), &mut sink).unwrap();
        }
        assert!(router.push(0, RecordRef::new(99, &[]), &mut sink).is_err());
    }
}
