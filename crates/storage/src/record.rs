//! Fixed-width records: an 8-byte join key followed by an opaque payload.
//!
//! The paper's experiments use fixed-size records (1 KB in the synthetic
//! workload). A [`RecordLayout`] captures the payload size once per relation
//! and is used by the page, relation and hash-table code to compute the exact
//! per-page record counts (`b_R`, `b_S`) and the fudge-factor-inflated
//! in-memory footprint.
//!
//! Two record representations exist:
//!
//! * [`RecordRef`] — a **borrowed** view: the decoded `u64` key plus a byte
//!   slice pointing straight into the buffer it was read from (a page, a
//!   hash-table arena, a generator's payload). Every reader and writer
//!   moves these, so partitioning a page is hash-then-memcpy with zero
//!   per-record allocations.
//! * [`RecordBatch`] — the ownership boundary: a columnar arena, a key
//!   array and contiguous payload bytes, that stores records durably
//!   without a per-record allocation. Staged spill partitions use it to
//!   hold records that outlive their source page.

use crate::{Result, StorageError};

/// Describes the fixed serialized layout of records in one relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordLayout {
    payload_bytes: usize,
}

impl RecordLayout {
    /// Number of bytes used by the join key.
    pub const KEY_BYTES: usize = 8;

    /// Creates a layout with the given payload size in bytes.
    pub fn new(payload_bytes: usize) -> Self {
        RecordLayout { payload_bytes }
    }

    /// Size of the payload in bytes.
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Total serialized size of a record (key + payload).
    pub fn record_bytes(&self) -> usize {
        Self::KEY_BYTES + self.payload_bytes
    }
}

/// A borrowed record: the decoded join key plus a payload slice pointing
/// into the buffer (usually a page) the record was read from.
///
/// This is the currency of every hot loop — scans, partition routing, hash
/// -table build and probe all move `RecordRef`s, so no allocation happens
/// per record. A [`RecordBatch`] holds records that must outlive their
/// source buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordRef<'a> {
    key: u64,
    payload: &'a [u8],
}

impl<'a> RecordRef<'a> {
    /// Creates a view from an already-decoded key and payload slice.
    pub fn new(key: u64, payload: &'a [u8]) -> Self {
        RecordRef { key, payload }
    }

    /// Decodes a record in place from its fixed-width slot. The payload is
    /// *borrowed* from `src` — no bytes are copied.
    #[inline]
    pub fn parse(src: &'a [u8]) -> Result<Self> {
        if src.len() < RecordLayout::KEY_BYTES {
            return Err(StorageError::CorruptPage(format!(
                "record slot of {} bytes is smaller than the 8-byte key",
                src.len()
            )));
        }
        let mut key_bytes = [0u8; 8];
        key_bytes.copy_from_slice(&src[..8]);
        Ok(RecordRef {
            key: u64::from_le_bytes(key_bytes),
            payload: &src[RecordLayout::KEY_BYTES..],
        })
    }

    /// The join key.
    #[inline]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The payload bytes.
    #[inline]
    pub fn payload(&self) -> &'a [u8] {
        self.payload
    }

    /// Serialized size of this record in bytes.
    pub fn serialized_len(&self) -> usize {
        RecordLayout::KEY_BYTES + self.payload.len()
    }

    /// Writes the record into `dst`, which must be exactly
    /// [`serialized_len`](Self::serialized_len) bytes long.
    pub fn write_to(&self, dst: &mut [u8]) {
        debug_assert_eq!(dst.len(), self.serialized_len());
        dst[..8].copy_from_slice(&self.key.to_le_bytes());
        dst[8..].copy_from_slice(self.payload);
    }
}

/// An owned, columnar batch of fixed-layout records: an unzipped key array
/// plus one contiguous payload arena.
///
/// This is the allocation-free ownership boundary of the zero-copy pipeline:
/// staging a record costs one key push and one `memcpy` into the arena
/// (amortized O(1), no per-record heap object). Staged spill partitions and
/// the per-worker staging buffers of the parallel stager are `RecordBatch`es.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordBatch {
    payload_bytes: usize,
    keys: Vec<u64>,
    payloads: Vec<u8>,
}

impl RecordBatch {
    /// Creates an empty batch for records of the given layout.
    pub fn new(layout: RecordLayout) -> Self {
        RecordBatch {
            payload_bytes: layout.payload_bytes(),
            keys: Vec::new(),
            payloads: Vec::new(),
        }
    }

    /// The layout of the records stored in this batch.
    pub fn layout(&self) -> RecordLayout {
        RecordLayout::new(self.payload_bytes)
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Appends a borrowed record (key push + payload memcpy).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the record's payload size does not match the
    /// batch's layout; mixing layouts in one batch is a logic error.
    pub fn push(&mut self, rec: RecordRef<'_>) {
        debug_assert_eq!(rec.payload().len(), self.payload_bytes);
        self.keys.push(rec.key());
        self.payloads.extend_from_slice(rec.payload());
    }

    /// The record at index `i` as a borrowed view into the arena.
    pub fn get(&self, i: usize) -> RecordRef<'_> {
        let start = i * self.payload_bytes;
        RecordRef {
            key: self.keys[i],
            payload: &self.payloads[start..start + self.payload_bytes],
        }
    }

    /// Iterates over the stored records as borrowed views.
    pub fn iter(&self) -> impl Iterator<Item = RecordRef<'_>> {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Moves every record of `other` into this batch, leaving `other` empty.
    pub fn append(&mut self, other: &mut RecordBatch) {
        debug_assert_eq!(self.payload_bytes, other.payload_bytes);
        self.keys.append(&mut other.keys);
        self.payloads.append(&mut other.payloads);
    }

    /// Removes all records, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.payloads.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_sizes() {
        let l = RecordLayout::new(56);
        assert_eq!(l.payload_bytes(), 56);
        assert_eq!(l.record_bytes(), 64);
    }

    #[test]
    fn record_roundtrip() {
        let r = RecordRef::new(0xDEADBEEF, &[1, 2, 3, 4]);
        let mut buf = vec![0u8; r.serialized_len()];
        r.write_to(&mut buf);
        // The slot is the little-endian key followed by the payload.
        assert_eq!(buf, [0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0, 0, 1, 2, 3, 4]);
        let back = RecordRef::parse(&buf).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.key(), 0xDEADBEEF);
        assert_eq!(back.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn empty_payload_is_allowed() {
        let r = RecordRef::new(5, &[]);
        assert_eq!(r.serialized_len(), 8);
        let mut buf = vec![0u8; 8];
        r.write_to(&mut buf);
        assert_eq!(RecordRef::parse(&buf).unwrap(), r);
    }

    #[test]
    fn record_ref_parses_without_copying() {
        let buf = [77, 0, 0, 0, 0, 0, 0, 0, 9, 8, 7];
        let view = RecordRef::parse(&buf).unwrap();
        assert_eq!(view.key(), 77);
        assert_eq!(view.payload(), &[9, 8, 7]);
        assert_eq!(view.serialized_len(), 11);
        // The payload slice aliases the source buffer — zero copies.
        assert!(std::ptr::eq(view.payload().as_ptr(), buf[8..].as_ptr()));
    }

    #[test]
    fn record_ref_roundtrips_through_write_to() {
        let payload = [1u8, 2, 3, 4];
        let view = RecordRef::new(0xFEED, &payload);
        let mut buf = vec![0u8; view.serialized_len()];
        view.write_to(&mut buf);
        assert_eq!(RecordRef::parse(&buf).unwrap(), view);
    }

    #[test]
    fn record_ref_too_short_is_error() {
        assert!(RecordRef::parse(&[0u8; 7]).is_err());
    }

    #[test]
    fn record_batch_stores_and_returns_records() {
        let layout = RecordLayout::new(4);
        let mut batch = RecordBatch::new(layout);
        assert!(batch.is_empty());
        for k in 0..10u64 {
            let payload = [k as u8; 4];
            batch.push(RecordRef::new(k, &payload));
        }
        assert_eq!(batch.len(), 10);
        assert_eq!(batch.layout(), layout);
        for (i, rec) in batch.iter().enumerate() {
            assert_eq!(rec.key(), i as u64);
            assert_eq!(rec.payload(), &[i as u8; 4]);
        }
        assert_eq!(batch.get(3).key(), 3);
    }

    #[test]
    fn record_batch_append_moves_everything() {
        let layout = RecordLayout::new(2);
        let mut a = RecordBatch::new(layout);
        let mut b = RecordBatch::new(layout);
        a.push(RecordRef::new(1, &[0, 0]));
        b.push(RecordRef::new(2, &[1, 1]));
        b.push(RecordRef::new(3, &[2, 2]));
        a.append(&mut b);
        assert_eq!(a.len(), 3);
        assert!(b.is_empty());
        let keys: Vec<u64> = a.iter().map(|r| r.key()).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        a.clear();
        assert!(a.is_empty());
    }
}
