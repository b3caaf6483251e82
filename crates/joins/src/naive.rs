//! In-memory reference join used as the correctness oracle in tests.
//!
//! Counts R's keys into a hash map page by page, then streams S's pages
//! past it. It ignores the memory budget entirely and is therefore *not* a
//! storage-based join — it exists so every other executor can be checked
//! against an implementation whose correctness is obvious.

use std::collections::HashMap;

use nocap_storage::Relation;

/// Number of output tuples of `r ⋈ s` on the join key.
pub fn naive_join_count(r: &Relation, s: &Relation) -> nocap_storage::Result<u64> {
    let mut r_counts: HashMap<u64, u64> = HashMap::new();
    let mut scan = r.scan();
    while let Some(page) = scan.next_page()? {
        for rec in page.record_refs() {
            *r_counts.entry(rec.key()).or_insert(0) += 1;
        }
    }
    let mut output = 0u64;
    let mut scan = s.scan();
    while let Some(page) = scan.next_page()? {
        for rec in page.record_refs() {
            output += r_counts.get(&rec.key()).copied().unwrap_or(0);
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocap_storage::{RecordLayout, RecordRef, Relation, SimDevice};

    fn relation(keys: &[u64]) -> Relation {
        let dev = SimDevice::new_ref();
        Relation::bulk_load(
            dev,
            RecordLayout::new(8),
            4096,
            keys.iter().map(|&k| RecordRef::new(k, &[0; 8])),
        )
        .unwrap()
    }

    #[test]
    fn counts_pkfk_matches() {
        let r = relation(&[1, 2, 3]);
        let s = relation(&[1, 1, 2, 9]);
        assert_eq!(naive_join_count(&r, &s).unwrap(), 3);
    }

    #[test]
    fn counts_many_to_many_matches() {
        let r = relation(&[7, 7]);
        let s = relation(&[7, 7, 7]);
        assert_eq!(naive_join_count(&r, &s).unwrap(), 6);
    }

    #[test]
    fn empty_inputs_join_to_nothing() {
        let r = relation(&[]);
        let s = relation(&[1, 2]);
        assert_eq!(naive_join_count(&r, &s).unwrap(), 0);
        assert_eq!(naive_join_count(&s, &r).unwrap(), 0);
    }
}
