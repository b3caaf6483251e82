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

use crate::record::{RecordLayout, RecordRef};
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

    /// Appends a record to the page: one length check, one key store, one
    /// payload `memcpy`, no allocation.
    ///
    /// Returns `Ok(false)` (without modifying the page) if the page is full,
    /// `Ok(true)` on success, and an error if the record's serialized size
    /// does not match the page's record size.
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

    /// Iterates over all records as borrowed views into the page buffer —
    /// the scan primitive every reader is built on. The header
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

    /// A record of `layout()` whose payload is 24 copies of `fill`.
    fn rec(key: u64, fill: &[u8; 24]) -> RecordRef<'_> {
        RecordRef::new(key, fill)
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
        let r1 = rec(42, &[0xAB; 24]);
        let r2 = rec(7, &[0xCD; 24]);
        assert!(p.push_ref(r1).unwrap());
        assert!(p.push_ref(r2).unwrap());
        assert_eq!(p.record_count(), 2);
        assert_eq!(p.get_ref(0).unwrap(), r1);
        assert_eq!(p.get_ref(1).unwrap(), r2);
    }

    #[test]
    fn push_returns_false_when_full() {
        let mut p = Page::empty(PAGE_HEADER_BYTES + 2 * 32, layout());
        assert_eq!(p.capacity(), 2);
        assert!(p.push_ref(rec(1, &[0; 24])).unwrap());
        assert!(p.push_ref(rec(2, &[0; 24])).unwrap());
        assert!(!p.push_ref(rec(3, &[0; 24])).unwrap());
        assert_eq!(p.record_count(), 2);
    }

    #[test]
    fn push_rejects_wrong_record_size() {
        let mut p = Page::empty(256, layout());
        let wrong = RecordRef::new(1, &[0; 8]);
        assert!(matches!(
            p.push_ref(wrong),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn get_out_of_bounds_is_error() {
        let p = Page::empty(256, layout());
        assert!(matches!(
            p.get_ref(0),
            Err(StorageError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn from_bytes_roundtrip() {
        let mut p = Page::empty(128, layout());
        p.push_ref(rec(9, &[1; 24])).unwrap();
        let restored = Page::from_bytes(p.as_bytes().to_vec()).unwrap();
        assert_eq!(restored, p);
        assert_eq!(restored.get_ref(0).unwrap().key(), 9);
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
            p.push_ref(rec(key, &[0xEE; 24])).unwrap();
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
        p.push_ref(rec(1, &[0; 24])).unwrap();
        let _ = p.keys(0..2);
    }

    #[test]
    fn records_per_page_matches_capacity() {
        let p = Page::empty(4096, layout());
        assert_eq!(records_per_page(4096, 32), p.capacity());
    }

    #[test]
    fn push_ref_rejects_wrong_record_size() {
        // Wider than the slot, where `push_rejects_wrong_record_size` is
        // narrower: neither is written.
        let mut p = Page::empty(256, layout());
        assert!(matches!(
            p.push_ref(RecordRef::new(1, &[0; 32])),
            Err(StorageError::RecordTooLarge {
                record_bytes: 40,
                page_capacity: 32
            })
        ));
        assert!(p.is_empty());
    }

    #[test]
    fn record_views_alias_the_page_buffer() {
        let mut p = Page::empty(256, layout());
        assert!(p.push_ref(rec(42, &[0xAB; 24])).unwrap());
        assert!(p.push_ref(rec(7, &[0xCD; 24])).unwrap());
        let views: Vec<_> = p.record_refs().collect();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].key(), 42);
        assert_eq!(views[1].key(), 7);
        let base = p.as_bytes().as_ptr() as usize;
        let p0 = views[0].payload().as_ptr() as usize;
        assert!(p0 > base && p0 < base + p.size());
        assert_eq!(p.get_ref(1).unwrap(), views[1]);
    }

    #[test]
    fn clear_resets_count_but_keeps_record_size() {
        let mut p = Page::empty(256, layout());
        p.push_ref(rec(1, &[0; 24])).unwrap();
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.record_size(), 32);
    }
}
