//! Fixed-size pages with a simple slotted layout for fixed-width records.
//!
//! The paper fixes the page size to 4 KB in all experiments; here the page
//! size is a run-time parameter carried by each [`Page`] so that tests can
//! exercise small pages without allocating megabytes of data.
//!
//! Layout of a page (all integers little-endian):
//!
//! ```text
//! +----------------+----------------+------------------------------------+
//! | record_count u16 | record_size u16 | record bodies, densely packed ... |
//! +----------------+----------------+------------------------------------+
//! ```
//!
//! Records within one page must all have the same serialized size
//! (`record_size`); this mirrors the paper's fixed 1 KB records and keeps the
//! per-page record count (`b_R`, `b_S`) exact.

use std::ops::Range;

use crate::record::{Record, RecordLayout, RecordRef};
use crate::{Result, StorageError};

/// Default page size used throughout the reproduction (matches the paper).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Number of header bytes at the start of every page.
pub const PAGE_HEADER_BYTES: usize = 4;

/// A fixed-size page holding zero or more fixed-width records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    data: Vec<u8>,
}

impl Page {
    /// Creates an empty page of `page_size` bytes for records laid out
    /// according to `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is too small to hold the header plus one record;
    /// such a configuration is a programming error, not a runtime condition.
    pub fn empty(page_size: usize, layout: RecordLayout) -> Self {
        assert!(
            page_size >= PAGE_HEADER_BYTES + layout.record_bytes(),
            "page size {page_size} too small for records of {} bytes",
            layout.record_bytes()
        );
        let mut data = vec![0u8; page_size];
        data[0..2].copy_from_slice(&0u16.to_le_bytes());
        data[2..4].copy_from_slice(&(layout.record_bytes() as u16).to_le_bytes());
        Page { data }
    }

    /// Reconstructs a page from raw bytes (e.g. read back from a
    /// [`FileDevice`](crate::FileDevice)).
    pub fn from_bytes(data: Vec<u8>) -> Result<Self> {
        if data.len() < PAGE_HEADER_BYTES {
            return Err(StorageError::CorruptPage(format!(
                "page of {} bytes is smaller than the {PAGE_HEADER_BYTES}-byte header",
                data.len()
            )));
        }
        let page = Page { data };
        let count = page.record_count();
        let rec = page.record_size();
        if rec < RecordLayout::KEY_BYTES && count > 0 {
            return Err(StorageError::CorruptPage(format!(
                "non-empty page with {rec}-byte records, smaller than the 8-byte key"
            )));
        }
        if rec > 0 && PAGE_HEADER_BYTES + count * rec > page.data.len() {
            return Err(StorageError::CorruptPage(format!(
                "{count} records of {rec} bytes exceed page size {}",
                page.data.len()
            )));
        }
        Ok(page)
    }

    /// Total size of the page in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    /// Serialized size of each record stored in this page.
    pub fn record_size(&self) -> usize {
        u16::from_le_bytes([self.data[2], self.data[3]]) as usize
    }

    /// Number of records currently stored in the page.
    pub fn record_count(&self) -> usize {
        u16::from_le_bytes([self.data[0], self.data[1]]) as usize
    }

    /// Maximum number of records this page can hold.
    pub fn capacity(&self) -> usize {
        if self.record_size() == 0 {
            0
        } else {
            (self.size() - PAGE_HEADER_BYTES) / self.record_size()
        }
    }

    /// Returns `true` if no more records fit.
    pub fn is_full(&self) -> bool {
        self.record_count() >= self.capacity()
    }

    /// Returns `true` if the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.record_count() == 0
    }

    /// Appends a record to the page.
    ///
    /// Returns `Ok(false)` (without modifying the page) if the page is full,
    /// `Ok(true)` on success, and an error if the record's serialized size
    /// does not match the page's record size.
    pub fn push(&mut self, record: &Record) -> Result<bool> {
        self.push_ref(record.as_record_ref())
    }

    /// Appends a borrowed record to the page — the zero-copy twin of
    /// [`push`](Self::push): one length check, one key store, one payload
    /// `memcpy`, no allocation.
    pub fn push_ref(&mut self, record: RecordRef<'_>) -> Result<bool> {
        let rec_size = self.record_size();
        if record.serialized_len() != rec_size {
            return Err(StorageError::RecordTooLarge {
                record_bytes: record.serialized_len(),
                page_capacity: rec_size,
            });
        }
        let count = self.record_count();
        let offset = PAGE_HEADER_BYTES + count * rec_size;
        // Fullness check without the division `capacity()` performs: the
        // next slot must fit inside the page (`rec_size > 0` is implied by
        // the size match above, records are at least the 8-byte key).
        if offset + rec_size > self.data.len() {
            return Ok(false);
        }
        record.write_to(&mut self.data[offset..offset + rec_size]);
        self.set_record_count(count + 1);
        Ok(true)
    }

    /// Reads the record at slot `idx` into an owned [`Record`] (allocates;
    /// API-edge use only — hot paths use [`get_ref`](Self::get_ref)).
    pub fn get(&self, idx: usize) -> Result<Record> {
        Ok(self.get_ref(idx)?.to_record())
    }

    /// Borrows the record at slot `idx` straight out of the page buffer.
    pub fn get_ref(&self, idx: usize) -> Result<RecordRef<'_>> {
        let count = self.record_count();
        if idx >= count {
            return Err(StorageError::PageOutOfBounds {
                index: idx,
                len: count,
            });
        }
        let rec_size = self.record_size();
        let offset = PAGE_HEADER_BYTES + idx * rec_size;
        RecordRef::parse(&self.data[offset..offset + rec_size])
    }

    /// Iterates over all records stored in the page as owned [`Record`]s
    /// (allocates per record; API-edge use only).
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        self.record_refs().map(|r| r.to_record())
    }

    /// Iterates over all records as borrowed views into the page buffer —
    /// the zero-copy scan primitive every hot loop is built on. The header
    /// is decoded once for the whole page, not once per record.
    pub fn record_refs(&self) -> impl Iterator<Item = RecordRef<'_>> {
        let rec_size = self.record_size();
        let count = self.record_count();
        let body = &self.data[PAGE_HEADER_BYTES..];
        (0..count).map(move |i| {
            RecordRef::parse(&body[i * rec_size..(i + 1) * rec_size])
                .expect("record slots hold at least the key")
        })
    }

    /// The keys of the records in slots `slots`, decoded in one sweep that
    /// skips the payloads. Panics if `slots` reaches past the records.
    pub(crate) fn keys(&self, slots: Range<usize>) -> impl Iterator<Item = u64> + '_ {
        assert!(slots.end <= self.record_count(), "slots past the records");
        let size = self.record_size().max(1);
        self.data[PAGE_HEADER_BYTES + slots.start * size..]
            .chunks_exact(size)
            .take(slots.len())
            .map(|slot| u64::from_le_bytes(slot[..8].try_into().expect("slots hold the key")))
    }

    /// Removes all records (the record size is preserved).
    pub fn clear(&mut self) {
        self.set_record_count(0);
    }

    /// Raw byte view of the page (used by the file-backed device).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    fn set_record_count(&mut self, count: usize) {
        self.data[0..2].copy_from_slice(&(count as u16).to_le_bytes());
    }
}

/// Computes how many records of `record_bytes` serialized bytes fit into one
/// page of `page_size` bytes. This is the paper's `b_R` / `b_S`.
pub fn records_per_page(page_size: usize, record_bytes: usize) -> usize {
    assert!(record_bytes > 0, "record size must be positive");
    (page_size.saturating_sub(PAGE_HEADER_BYTES)) / record_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordLayout;

    fn layout() -> RecordLayout {
        RecordLayout::new(24)
    }

    #[test]
    fn empty_page_has_no_records() {
        let p = Page::empty(256, layout());
        assert_eq!(p.record_count(), 0);
        assert!(p.is_empty());
        assert!(!p.is_full());
        assert_eq!(p.record_size(), 32);
        assert_eq!(p.capacity(), (256 - PAGE_HEADER_BYTES) / 32);
    }

    #[test]
    fn push_and_get_roundtrip() {
        let mut p = Page::empty(256, layout());
        let r1 = Record::with_fill(42, 24, 0xAB);
        let r2 = Record::with_fill(7, 24, 0xCD);
        assert!(p.push(&r1).unwrap());
        assert!(p.push(&r2).unwrap());
        assert_eq!(p.record_count(), 2);
        assert_eq!(p.get(0).unwrap(), r1);
        assert_eq!(p.get(1).unwrap(), r2);
    }

    #[test]
    fn push_returns_false_when_full() {
        let mut p = Page::empty(PAGE_HEADER_BYTES + 2 * 32, layout());
        assert_eq!(p.capacity(), 2);
        assert!(p.push(&Record::with_fill(1, 24, 0)).unwrap());
        assert!(p.push(&Record::with_fill(2, 24, 0)).unwrap());
        assert!(!p.push(&Record::with_fill(3, 24, 0)).unwrap());
        assert_eq!(p.record_count(), 2);
    }

    #[test]
    fn push_rejects_wrong_record_size() {
        let mut p = Page::empty(256, layout());
        let wrong = Record::with_fill(1, 8, 0);
        assert!(matches!(
            p.push(&wrong),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn get_out_of_bounds_is_error() {
        let p = Page::empty(256, layout());
        assert!(matches!(
            p.get(0),
            Err(StorageError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut p = Page::empty(128, layout());
        p.push(&Record::with_fill(9, 24, 1)).unwrap();
        let restored = Page::from_bytes(p.as_bytes().to_vec()).unwrap();
        assert_eq!(restored, p);
        assert_eq!(restored.get(0).unwrap().key(), 9);
    }

    #[test]
    fn from_bytes_rejects_corrupt_header() {
        assert!(Page::from_bytes(vec![1u8]).is_err());
        // record_count = 100, record_size = 64 cannot fit in 16 bytes.
        let mut bytes = vec![0u8; 16];
        bytes[0..2].copy_from_slice(&100u16.to_le_bytes());
        bytes[2..4].copy_from_slice(&64u16.to_le_bytes());
        assert!(Page::from_bytes(bytes).is_err());
        // One 4-byte record: a slot too short for its key.
        let mut bytes = vec![0u8; 16];
        bytes[0..2].copy_from_slice(&1u16.to_le_bytes());
        bytes[2..4].copy_from_slice(&4u16.to_le_bytes());
        assert!(Page::from_bytes(bytes).is_err());
    }

    #[test]
    fn keys_decode_a_slot_range_like_the_record_views() {
        let mut p = Page::empty(256, layout());
        for key in [5, u64::MAX, 0, 9, 3] {
            p.push(&Record::with_fill(key, 24, 0xEE)).unwrap();
        }
        let all: Vec<u64> = p.record_refs().map(|r| r.key()).collect();
        assert_eq!(p.keys(0..5).collect::<Vec<_>>(), all);
        assert_eq!(p.keys(1..3).collect::<Vec<_>>(), all[1..3]);
        assert_eq!(p.keys(5..5).count(), 0);
        assert_eq!(Page::empty(256, layout()).keys(0..0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "slots past the records")]
    fn keys_past_the_records_panic() {
        let mut p = Page::empty(256, layout());
        p.push(&Record::with_fill(1, 24, 0)).unwrap();
        let _ = p.keys(0..2);
    }

    #[test]
    fn records_per_page_matches_capacity() {
        let p = Page::empty(4096, layout());
        assert_eq!(records_per_page(4096, 32), p.capacity());
    }

    #[test]
    fn ref_push_and_get_match_the_owned_path() {
        let mut owned = Page::empty(256, layout());
        let mut borrowed = Page::empty(256, layout());
        let r1 = Record::with_fill(42, 24, 0xAB);
        let r2 = Record::with_fill(7, 24, 0xCD);
        assert!(owned.push(&r1).unwrap() && owned.push(&r2).unwrap());
        assert!(borrowed.push_ref(r1.as_record_ref()).unwrap());
        assert!(borrowed.push_ref(r2.as_record_ref()).unwrap());
        assert_eq!(owned, borrowed);
        let views: Vec<_> = borrowed.record_refs().collect();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].key(), 42);
        assert_eq!(views[1].key(), 7);
        // The views alias the page buffer.
        let base = borrowed.as_bytes().as_ptr() as usize;
        let p0 = views[0].payload().as_ptr() as usize;
        assert!(p0 > base && p0 < base + borrowed.size());
        assert_eq!(borrowed.get_ref(1).unwrap().to_record(), r2);
    }

    #[test]
    fn push_ref_rejects_wrong_record_size() {
        let mut p = Page::empty(256, layout());
        let wrong = Record::with_fill(1, 8, 0);
        assert!(matches!(
            p.push_ref(wrong.as_record_ref()),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn clear_resets_count_but_keeps_record_size() {
        let mut p = Page::empty(256, layout());
        p.push(&Record::with_fill(1, 24, 0)).unwrap();
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.record_size(), 32);
    }
}
