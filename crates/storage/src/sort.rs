//! External sort: zero-copy run generation plus a loser-tree multiway merge.
//!
//! The sort-merge join baseline (SMJ, §2.1 of the paper) externally sorts
//! both relations by the join key and merges them. Its cost is
//! `(1 + #s-passes · (1 + τ)) · (‖R‖ + ‖S‖)`: one initial read, and for every
//! additional sort pass a sequential write (weighted by τ) plus a read of
//! every page. Following the paper, the final merge pass is fused with the
//! join: the merge cascade — levels of group merges ([`merge_runs`]) — runs
//! only until both relations' runs fit one merge's fan-in together (SMJ
//! plans how many levels each relation takes from the run counts), and
//! hands the runs to a merge ([`LoserTree`]) that the join drives directly.
//!
//! Both phases run on the arena record pipeline — no per-record heap
//! allocation anywhere on the hot path:
//!
//! * **Run generation** consumes page-mode scans
//!   ([`RelationScan::next_page`](crate::RelationScan::next_page)) into a
//!   columnar [`RecordBatch`] arena and sorts `(u64 key, u32 payload-index)` pairs with an unstable sort.
//!   Because the pair includes the unique insertion index, the unstable sort
//!   reproduces the stable-by-key order exactly (the tuple order is total),
//!   so run contents are identical to the pre-arena stable sorter. Payloads
//!   are moved once, by [`RelationWriter::push_ref`], when the run spills.
//! * **Merging** drives a [`LoserTree`] of page-mode cursors (`RunCursor`)
//!   that yield [`RecordRef`]s straight out of the run pages — zero copies,
//!   zero allocations. A cursor walks a [`RunSlice`] (a whole run is the
//!   one-slice case); entering a page decodes the keys of its records in
//!   the slice into the cursor's one reused `Vec<u64>` in a single sweep,
//!   so advancing is an index bump, not a load from a cold page. The tree
//!   keeps every contender as a `(key, tag)` entry — the tag is the slice
//!   index with an exhausted bit on top — so the merge order is (key, slice
//!   index), and a replay is `⌈log₂ k⌉` matches, each two unpredictable
//!   selects rather than a branch.
//!
//! **A merge consumes its runs.** Every run page is read exactly once, so
//! a cursor [takes](crate::BlockDevice::take_page) each page — reads it
//! and discards the device's copy in one step — and the page is freed when
//! the cursor moves past it (PostgreSQL's `logtape.c` recycles the blocks
//! of its input tapes during a merge for the same reason). On
//! [`SimDevice`](crate::SimDevice), where the device's copy is the only
//! copy, a group merge therefore shrinks its inputs as fast as it grows
//! its output, and the device holds the sort's data once: the input plus
//! one copy of the runs, not a group's inputs and its output together
//! until the group ends. There a run cannot be merged twice — reading a
//! page a merge has taken is [`StorageError::DiscardedPage`](crate::StorageError)
//! — so the once-only read is enforced, not just documented.
//!
//! The chunk grid of run generation ([`run_chunks`]) is **fixed by the data
//! and the budget, never by the worker count**: chunk `i` covers pages
//! `[i·(B−1), (i+1)·(B−1))`. This is what lets
//! `SortMergeJoin::run_parallel` hand chunks to workers and still produce
//! bit-identical runs (and therefore identical output and modeled I/O) at
//! every thread count — the same fixed-grid discipline as the sharded
//! statistics collector.
//!
//! The merge phase fans out the same way, at two grains:
//!
//! * **Cascade groups.** Each cascade level cuts its runs into groups of up
//!   to `B − 1` and merges every group on its own: a group reads only its
//!   runs and writes one run, so groups are independent and the caller's
//!   fan-out (SMJ's `sorted_runs`) may merge them on any number of
//!   workers. The merged runs land at their group index, so the
//!   next level sees the same runs in the same order and every I/O count
//!   is the one-worker count. Concurrent groups each hold up to `B` pages
//!   of working memory (their input cursors plus the output page), `T × B`
//!   at `T` workers — the same trade as parallel run generation; the device
//!   still holds each run page once, since every group consumes its inputs
//!   as it writes. Each cursor's key vector adds up to
//!   `records_per_page × 8` bytes beside its page: ≈ 3 % of a page at
//!   256-byte records, up to ½ page at 16-byte records.
//! * **Key ranges.** Every run records its **fences** — the first key of
//!   each page — while it is written ([`SortedRun::fences`]), at no I/O.
//!   [`fence_splitters`] picks splitter keys at page-weighted quantiles of
//!   the fences and [`split_runs`] cuts every run at them into
//!   [`RunSlice`]s. Only a page that straddles a splitter has to be read to
//!   find the cut; `split_runs` takes it once and hands it to the slices on
//!   both sides, and every other page is taken by the one slice that owns
//!   it. Merging each key range on its own therefore reads every run page
//!   exactly once, whatever the number of ranges.
//!
//! A run's file is a [`Relation`] like the input's, written by the one
//! [`RelationWriter`] sequentially ([`IoKind::SeqWrite`]); it carries its
//! own layout and page size, so the cascade reads nothing but the pages it
//! merges. Like every relation, a run deletes its file when its last handle
//! drops: [`merge_runs`] takes its runs by value, so a group's input files
//! go when its merge returns, and a failed sort drops its runs and their
//! files with them. Merge reads interleave across runs and are counted as
//! random reads ([`IoKind::RandRead`]), matching the paper's observation
//! that SMJ's reads are ≈1.2× slower than GHJ's sequential reads.

use std::hint::select_unpredictable;
use std::ops::Range;
use std::sync::Arc;

use crate::device::DeviceRef;
use crate::iostats::IoKind;
use crate::page::{records_per_page, Page};
use crate::record::{RecordBatch, RecordLayout, RecordRef};
use crate::relation::{Relation, RelationWriter};
use crate::Result;

/// Splits `0..num_pages` into the fixed run-generation chunk grid: each
/// chunk covers `budget_pages − 1` pages (one page of the budget streams the
/// input, the rest buffer the chunk being sorted). The grid depends only on
/// the relation size and the budget, so sequential and parallel run
/// generation produce the same runs in the same canonical order.
pub fn run_chunks(num_pages: usize, budget_pages: usize) -> Vec<Range<usize>> {
    assert!(budget_pages >= 3, "external sort needs at least 3 pages");
    let chunk = budget_pages - 1;
    (0..num_pages)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(num_pages))
        .collect()
}

/// Reusable run-generation buffers: the columnar record arena plus the
/// `(key, payload-index)` pair array that actually gets sorted.
///
/// One scratch serves any number of [`sort_chunk`] calls (allocations are
/// retained across chunks); parallel run generation gives each worker its
/// own scratch.
#[derive(Default)]
pub struct SortScratch {
    pairs: Vec<(u64, u32)>,
    batch: Option<RecordBatch>,
}

impl SortScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        SortScratch::default()
    }

    /// The arena for records of `layout`, cleared (re-created if the layout
    /// changed since the last chunk).
    fn batch_for(&mut self, layout: RecordLayout) -> &mut RecordBatch {
        match &mut self.batch {
            Some(batch) if batch.layout() == layout => {
                batch.clear();
            }
            slot => *slot = Some(RecordBatch::new(layout)),
        }
        self.batch.as_mut().expect("batch populated above")
    }
}

/// A sorted run file and its fences: the first key of each of its pages,
/// recorded while the run was written.
#[derive(Clone, Debug)]
pub struct SortedRun {
    relation: Relation,
    fences: Vec<u64>,
}

impl SortedRun {
    /// The run file.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The first key of each page, in page order (non-decreasing).
    pub fn fences(&self) -> &[u64] {
        &self.fences
    }

    /// Number of records in the run.
    pub fn records(&self) -> usize {
        self.relation.num_records()
    }

    /// Deletes the run file from the device now (see [`Relation::delete`]).
    pub fn delete(self) -> Result<()> {
        self.relation.delete()
    }
}

/// A run being written in key order: a sequential [`RelationWriter`] that
/// notes the key of every record that opens a page. Records are fixed-size
/// and pages are flushed only when full, so a page opens every
/// `records_per_page` records.
struct RunWriter {
    writer: RelationWriter,
    fences: Vec<u64>,
    per_page: usize,
    /// Records that still fit on the page being filled.
    room: usize,
}

impl RunWriter {
    /// A writer for a run of `records` records; its fences are allocated
    /// once, at their final size.
    fn new(device: DeviceRef, layout: RecordLayout, page_size: usize, records: usize) -> Self {
        let per_page = records_per_page(page_size, layout.record_bytes());
        RunWriter {
            writer: RelationWriter::new(device, layout, page_size, IoKind::SeqWrite),
            fences: Vec::with_capacity(records.div_ceil(per_page)),
            per_page,
            room: 0,
        }
    }

    fn push(&mut self, record: RecordRef<'_>) -> Result<()> {
        if self.room == 0 {
            self.fences.push(record.key());
            self.room = self.per_page;
        }
        self.room -= 1;
        self.writer.push_ref(record)
    }

    fn finish(self) -> Result<SortedRun> {
        let run = self.writer.finish()?;
        debug_assert_eq!(run.num_pages(), self.fences.len(), "one fence per page");
        Ok(SortedRun {
            relation: run,
            fences: self.fences,
        })
    }
}

/// Sorts one chunk of `relation` (a page range from [`run_chunks`]) into a
/// sorted run file, using `scratch` for the arena and the pair array.
///
/// The chunk's pages stream in via the zero-copy page scan; each record
/// costs one arena `memcpy` plus one `(key, index)` pair push. The pairs are
/// sorted unstably — the unique index makes the order total, so the result
/// matches a stable by-key sort — and the payloads move exactly once more,
/// into the run's output page.
pub fn sort_chunk(
    relation: &Relation,
    pages: Range<usize>,
    scratch: &mut SortScratch,
) -> Result<SortedRun> {
    let layout = relation.layout();
    scratch.batch_for(layout);
    scratch.pairs.clear();
    let batch = scratch.batch.as_mut().expect("batch populated");
    let mut scan = relation.scan_range(pages);
    while let Some(page) = scan.next_page()? {
        for rec in page.record_refs() {
            scratch.pairs.push((rec.key(), batch.len() as u32));
            batch.push(rec);
        }
    }
    assert!(
        batch.len() <= u32::MAX as usize,
        "sort chunk exceeds the u32 payload-index range"
    );
    scratch.pairs.sort_unstable();
    let mut writer = RunWriter::new(
        relation.device().clone(),
        layout,
        relation.page_size(),
        batch.len(),
    );
    for &(_, idx) in &scratch.pairs {
        writer.push(batch.get(idx as usize))?;
    }
    writer.finish()
}

/// Merges one group of a cascade level into one run, consuming the group:
/// each input page is taken from the device as the merge reads it, and the
/// input files are deleted when the merge returns, whether it succeeds or
/// fails. A group reads only its own runs, so the groups of a level may be
/// merged concurrently.
///
/// # Panics
///
/// Panics if `runs` is empty.
pub fn merge_runs(runs: Vec<SortedRun>) -> Result<SortedRun> {
    let first = &runs.first().expect("a group merge needs a run").relation;
    let mut writer = RunWriter::new(
        first.device().clone(),
        first.layout(),
        first.page_size(),
        runs.iter().map(SortedRun::records).sum(),
    );
    let mut tree = LoserTree::new(runs.iter().map(|run| RunSlice::whole(&run.relation)))?;
    while let Some(rec) = tree.next_ref()? {
        writer.push(rec)?;
    }
    writer.finish()
}

/// The `parts − 1` splitter keys that cut `runs` into `parts` key ranges of
/// about equal page counts: page-weighted quantiles of the runs' fences.
/// Empty when `parts ≤ 1` or the runs have no pages. Equal splitters are
/// allowed; the range between them is empty.
pub fn fence_splitters<'a>(
    runs: impl IntoIterator<Item = &'a SortedRun>,
    parts: usize,
) -> Vec<u64> {
    if parts <= 1 {
        return Vec::new();
    }
    let mut fences: Vec<u64> = runs
        .into_iter()
        .flat_map(|run| run.fences.iter().copied())
        .collect();
    if fences.is_empty() {
        return Vec::new();
    }
    let n = fences.len();
    // Ascending quantiles: everything left of the previous one is already
    // smaller, so each selection only partitions what is right of it.
    let mut done = 0;
    (1..parts)
        .map(|i| {
            let at = i * n / parts;
            let (_, &mut key, _) = fences[done..].select_nth_unstable(at - done);
            done = at;
            key
        })
        .collect()
}

/// The records of one sorted run inside one key range: the in-range part of
/// a boundary page read by [`split_runs`] (`head`), the pages wholly inside
/// the range (read by the slice's cursor), then the in-range part of the
/// boundary page at the range's upper end (`tail`). A whole run is the slice
/// with all of its pages and no boundary pages.
#[derive(Clone)]
pub struct RunSlice {
    run: Relation,
    head: Option<(Arc<Page>, Range<usize>)>,
    pages: Range<usize>,
    tail: Option<(Arc<Page>, Range<usize>)>,
}

impl RunSlice {
    /// All of `run`, every page left for the cursor to read.
    pub fn whole(run: &Relation) -> Self {
        RunSlice {
            run: run.clone(),
            head: None,
            pages: 0..run.num_pages(),
            tail: None,
        }
    }

    /// The records of `run` from cut `from` up to cut `to`.
    fn between(run: &Relation, from: &Cut, to: &Cut) -> Self {
        // Both cuts split the same page: the slice is a record range of it.
        let same_page = from.straddle.is_some() && to.straddle.is_some() && from.page == to.page;
        let head = from.straddle.as_ref().map(|(page, at)| {
            let end = match &to.straddle {
                Some((_, to_at)) if same_page => *to_at,
                _ => page.record_count(),
            };
            (page.clone(), *at..end)
        });
        let tail = match &to.straddle {
            Some((page, at)) if !same_page => Some((page.clone(), 0..*at)),
            _ => None,
        };
        let first = from.page + usize::from(from.straddle.is_some());
        RunSlice {
            run: run.clone(),
            head,
            pages: first..to.page.max(first),
            tail,
        }
    }
}

/// Where one splitter `k` cuts one run. Pages before `page` hold only keys
/// below `k` and pages after it only keys at or above it. With `straddle`
/// set, page `page` — already read — holds both, and its first record at
/// or above `k` is record `at`; without, the cut falls right before page
/// `page` (`0` when `k` is at or below the run's first key; the run's page
/// count for the end of the run).
struct Cut {
    page: usize,
    straddle: Option<(Arc<Page>, usize)>,
}

impl SortedRun {
    /// The cut of splitter `k`, reusing `previous`'s page when the previous
    /// (smaller or equal) splitter cut the same one.
    fn cut(&self, k: u64, previous: &Cut) -> Result<Cut> {
        // Pages whose first key is below `k`; the last of them may hold
        // keys on both sides of the cut.
        let below = self.fences.partition_point(|&fence| fence < k);
        if below == 0 {
            return Ok(Cut {
                page: 0,
                straddle: None,
            });
        }
        let index = below - 1;
        let page = match &previous.straddle {
            Some((page, _)) if previous.page == index => page.clone(),
            _ => self.relation.take_page(index, IoKind::RandRead)?,
        };
        let at = page.record_refs().take_while(|rec| rec.key() < k).count();
        Ok(Cut {
            page: index,
            straddle: Some((page, at)),
        })
    }
}

/// Cuts every run at `splitters` (ascending) into `splitters.len() + 1` key
/// ranges — range `i` holds the keys in `[splitters[i − 1], splitters[i])`,
/// the outer ranges open-ended — and returns each range's slices, one per
/// run in run order.
///
/// A page that straddles a splitter is taken here (read and discarded, see
/// the [module docs](self)), once per run, as a [`IoKind::RandRead`], and
/// shared by the slices on both sides; every other page is left to the one
/// slice that owns it. Draining every slice of every range therefore reads
/// each run page exactly once — the same reads as one merge over the whole
/// runs, however many ranges there are. With no splitters this reads
/// nothing and returns one range of whole runs.
pub fn split_runs(runs: &[SortedRun], splitters: &[u64]) -> Result<Vec<Vec<RunSlice>>> {
    debug_assert!(splitters.is_sorted(), "splitters must ascend");
    let mut ranges: Vec<Vec<RunSlice>> = (0..=splitters.len())
        .map(|_| Vec::with_capacity(runs.len()))
        .collect();
    for run in runs {
        let mut from = Cut {
            page: 0,
            straddle: None,
        };
        for (range, &k) in ranges.iter_mut().zip(splitters) {
            let to = run.cut(k, &from)?;
            range.push(RunSlice::between(&run.relation, &from, &to));
            from = to;
        }
        let end = Cut {
            page: run.relation.num_pages(),
            straddle: None,
        };
        ranges
            .last_mut()
            .expect("one range more than splitters")
            .push(RunSlice::between(&run.relation, &from, &end));
    }
    Ok(ranges)
}

/// Page-mode cursor over one [`RunSlice`]. Entering a page decodes the keys
/// of the slice's records on it into `keys` in one sweep; advancing is then
/// an index bump, and the payloads stay on the held page until
/// [`current`](Self::current) borrows one. Pages are taken from the device,
/// so the held page is freed when the cursor leaves it.
struct RunCursor {
    run: Relation,
    /// Pages still to read from the device.
    pages: Range<usize>,
    /// The slice's boundary page at its upper end, entered after `pages`.
    tail: Option<(Arc<Page>, Range<usize>)>,
    /// The page being merged; `None` once the slice is exhausted.
    page: Option<Arc<Page>>,
    /// Keys of the slice's records on `page` (empty once exhausted). One
    /// allocation per cursor, reused for every page.
    keys: Vec<u64>,
    /// Slot of `keys[0]` on `page`.
    first: usize,
    /// The current record: `keys[at]`, slot `first + at`.
    at: usize,
}

impl RunCursor {
    /// Opens a cursor and primes it on the slice's first record (reading
    /// its first page unless that is a boundary page read already).
    fn new(slice: RunSlice) -> Result<Self> {
        let mut cursor = RunCursor {
            run: slice.run,
            pages: slice.pages,
            tail: slice.tail,
            page: None,
            keys: Vec::new(),
            first: 0,
            at: 0,
        };
        match slice.head {
            Some((page, records)) if !records.is_empty() => cursor.enter(page, records),
            _ => cursor.load_page()?,
        }
        Ok(cursor)
    }

    fn enter(&mut self, page: Arc<Page>, records: Range<usize>) {
        self.keys.clear();
        self.keys.extend(page.keys(records.clone()));
        self.first = records.start;
        self.at = 0;
        self.page = Some(page);
    }

    fn load_page(&mut self) -> Result<()> {
        while let Some(index) = self.pages.next() {
            let page = self.run.take_page(index, IoKind::RandRead)?;
            // Writers never flush empty pages, but skip them anyway.
            let count = page.record_count();
            if count > 0 {
                self.enter(page, 0..count);
                return Ok(());
            }
        }
        match self.tail.take() {
            Some((page, records)) if !records.is_empty() => self.enter(page, records),
            _ => {
                self.page = None;
                self.keys.clear();
            }
        }
        Ok(())
    }

    /// The cursor's tournament [`Entry`] as slice `index` of its tree.
    fn entry(&self, index: usize) -> Entry {
        let tag = index as u32;
        match self.keys.get(self.at) {
            Some(&key) => Entry { key, tag },
            None => Entry {
                key: u64::MAX,
                tag: EXHAUSTED | tag,
            },
        }
    }

    /// Moves to the next record, loading the next page when the current one
    /// is drained.
    fn advance(&mut self) -> Result<()> {
        self.at += 1;
        if self.at < self.keys.len() {
            return Ok(());
        }
        self.load_page()
    }

    /// Borrowed view of the current record, straight out of the run page.
    fn current(&self) -> Result<RecordRef<'_>> {
        self.page
            .as_ref()
            .expect("current() on an exhausted cursor")
            .get_ref(self.first + self.at)
    }
}

/// The exhausted bit of an [`Entry`]'s tag, above every slice index.
const EXHAUSTED: u32 = 1 << 31;

/// One contender of a [`LoserTree`]: a cursor's current key and its tag,
/// the slice index. A drained cursor's entry has key `u64::MAX` and
/// [`EXHAUSTED`] set in its tag, so the (key, tag) order is the merge order
/// — key, then slice index, then live before exhausted at `u64::MAX`.
#[derive(Clone, Copy)]
struct Entry {
    key: u64,
    tag: u32,
}

impl Entry {
    /// Whether `self` comes first in merge order, computed without a branch.
    #[inline(always)]
    fn before(self, other: Entry) -> bool {
        (self.key < other.key) | ((self.key == other.key) & (self.tag < other.tag))
    }
}

/// K-way merge over sorted run slices via a loser tree (tournament tree),
/// yielding records in ascending key order with ties broken by slice index,
/// at `⌈log₂ k⌉` comparisons per record and with no per-record allocation.
///
/// Every contender is an entry: the current key and a 32-bit tag, the
/// slice index with an exhausted bit on top. A match compares (key, tag)
/// with integer operations and keeps both outcomes with
/// [`select_unpredictable`], so a replay has no data-dependent branch to
/// mispredict on interleaved runs, and the winner's key and index read
/// straight off `tree[0]` without touching its cursor.
///
/// Reads interleave across runs and are counted as random reads. The merge
/// consumes its slices: each page is read once and discarded from the
/// device as it is read, so the runs cannot be merged again.
///
/// The tree hands out borrowed [`RecordRef`]s (`next_ref`) for consumers
/// that move payloads (the merge cascade) and bare keys
/// (`next_key`/`peek_key`) for the counting merge join, which never needs
/// the payload bytes at all.
pub struct LoserTree {
    cursors: Vec<RunCursor>,
    /// `tree[0]` is the overall winner's entry; `tree[1..k]` hold the
    /// entry of each internal tournament node's loser.
    tree: Vec<Entry>,
    /// The winner's advance is owed before the next winner is read.
    /// Deferring it lets `next_ref` hand out a borrow of the winner's page
    /// without replaying the tree first.
    pending: bool,
}

impl LoserTree {
    /// Builds a merge over `slices` (each must be internally sorted; a
    /// whole run is [`RunSlice::whole`]). Opening the tree reads the first
    /// page of every non-empty slice that does not start on a boundary
    /// page [`split_runs`] read already.
    pub fn new(slices: impl IntoIterator<Item = RunSlice>) -> Result<Self> {
        let cursors = slices
            .into_iter()
            .map(RunCursor::new)
            .collect::<Result<Vec<_>>>()?;
        let k = cursors.len();
        assert!(
            k < EXHAUSTED as usize,
            "a merge indexes its slices in 31 bits, the tag's top bit marks an exhausted slice"
        );
        // Leaves `k..2k` are the cursors; each internal node keeps its
        // loser, and `winners[1]` is the overall winner (for `k == 1` the
        // single leaf itself; for `k == 0` an exhausted placeholder).
        let drained = Entry {
            key: u64::MAX,
            tag: EXHAUSTED,
        };
        let mut winners = vec![drained; 2 * k.max(1)];
        for (j, cursor) in cursors.iter().enumerate() {
            winners[k + j] = cursor.entry(j);
        }
        let mut tree = vec![drained; k.max(1)];
        for node in (1..k).rev() {
            let (a, b) = (winners[2 * node], winners[2 * node + 1]);
            let a_wins = a.before(b);
            winners[node] = select_unpredictable(a_wins, a, b);
            tree[node] = select_unpredictable(a_wins, b, a);
        }
        tree[0] = winners[1];
        Ok(LoserTree {
            cursors,
            tree,
            pending: false,
        })
    }

    /// Replays the path from slice `j`'s leaf to the root after `j`
    /// advanced to `entry`, restoring the loser-tree invariant in
    /// `⌈log₂ k⌉` matches with no data-dependent branch, even where `j`
    /// keeps winning: a cached runner-up that let a winning streak skip the
    /// replay cost more in its upkeep than it saved.
    fn replay(&mut self, j: usize, entry: Entry) {
        let mut winner = entry;
        let mut node = (self.cursors.len() + j) / 2;
        while node >= 1 {
            let loser = self.tree[node];
            let swap = loser.before(winner);
            self.tree[node] = select_unpredictable(swap, winner, loser);
            winner = select_unpredictable(swap, loser, winner);
            node /= 2;
        }
        self.tree[0] = winner;
    }

    /// Performs the advance owed from the previous `next_*` call, if any.
    fn settle(&mut self) -> Result<()> {
        if std::mem::take(&mut self.pending) {
            let j = self.tree[0].tag as usize;
            let cursor = &mut self.cursors[j];
            cursor.advance()?;
            let entry = cursor.entry(j);
            self.replay(j, entry);
        }
        Ok(())
    }

    /// Settles the tree and returns the winner's key and slice index, or
    /// `None` once every slice is exhausted.
    fn winner(&mut self) -> Result<Option<(u64, usize)>> {
        self.settle()?;
        let Entry { key, tag } = self.tree[0];
        Ok((tag < EXHAUSTED).then_some((key, tag as usize)))
    }

    /// Key of the next record without consuming it.
    pub fn peek_key(&mut self) -> Result<Option<u64>> {
        Ok(self.winner()?.map(|(key, _)| key))
    }

    /// Consumes the next record, returning only its key (the counting merge
    /// join's path — payload bytes are never touched).
    pub fn next_key(&mut self) -> Result<Option<u64>> {
        let winner = self.winner()?;
        self.pending = winner.is_some();
        Ok(winner.map(|(key, _)| key))
    }

    /// Consumes the next record, returning a borrowed view straight out of
    /// the winning run's page (valid until the next call on the tree).
    pub fn next_ref(&mut self) -> Result<Option<RecordRef<'_>>> {
        let Some((_, j)) = self.winner()? else {
            return Ok(None);
        };
        self.pending = true;
        self.cursors[j].current().map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BlockDevice, FileId, SimDevice};
    use crate::iostats::IoStats;
    use crate::record::{RecordLayout, RecordRef};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn build_relation(dev: DeviceRef, keys: &[u64]) -> Relation {
        Relation::bulk_load(
            dev,
            RecordLayout::new(8),
            crate::page::DEFAULT_PAGE_SIZE,
            keys.iter().map(|&k| RecordRef::new(k, &[0; 8])),
        )
        .unwrap()
    }

    fn shuffled(n: u64) -> Vec<u64> {
        // Deterministic pseudo-shuffle (multiplicative hash ordering).
        let mut keys: Vec<u64> = (0..n).collect();
        keys.sort_by_key(|&k| k.wrapping_mul(0x9E3779B97F4A7C15));
        keys
    }

    fn keys_of(run: &Relation) -> Vec<u64> {
        crate::relation::tests::keys(run.scan())
    }

    /// One cascade level's groups of up to `fan_in` runs, in run order.
    fn groups(runs: Vec<SortedRun>, fan_in: usize) -> Vec<Vec<SortedRun>> {
        let mut runs = runs.into_iter();
        (0..runs.len().div_ceil(fan_in))
            .map(|_| runs.by_ref().take(fan_in).collect())
            .collect()
    }

    /// Merges one cascade group; a trailing single run passes through.
    fn merge_group(group: Vec<SortedRun>) -> SortedRun {
        match <[SortedRun; 1]>::try_from(group) {
            Ok([run]) => run,
            Err(group) => merge_runs(group).unwrap(),
        }
    }

    /// The one-worker level: merges its groups in order.
    fn in_order(groups: Vec<Vec<SortedRun>>) -> Vec<SortedRun> {
        groups.into_iter().map(merge_group).collect()
    }

    /// Merges `runs` level by level, each level's groups of `budget − 1`
    /// runs merged by `level`, until at most `max_runs` remain.
    fn cascade(
        mut runs: Vec<SortedRun>,
        budget: usize,
        max_runs: usize,
        level: impl Fn(Vec<Vec<SortedRun>>) -> Vec<SortedRun>,
    ) -> Vec<SortedRun> {
        while runs.len() > max_runs {
            runs = level(groups(runs, budget - 1));
        }
        runs
    }

    /// One run per chunk of the fixed grid, in chunk order.
    fn initial_runs(rel: &Relation, budget: usize) -> Vec<SortedRun> {
        let mut scratch = SortScratch::new();
        run_chunks(rel.num_pages(), budget)
            .into_iter()
            .map(|chunk| sort_chunk(rel, chunk, &mut scratch).unwrap())
            .collect()
    }

    /// Sorts `rel` into at most `max_runs` runs the way SMJ does on one
    /// worker: the initial runs, then the cascade, each level's groups
    /// merged [`in_order`].
    fn sort_runs(rel: &Relation, budget: usize, max_runs: usize) -> Vec<SortedRun> {
        cascade(initial_runs(rel, budget), budget, max_runs, in_order)
    }

    /// Whole-run slices over `runs`, the input of one merge.
    fn whole(runs: &[SortedRun]) -> impl Iterator<Item = RunSlice> + '_ {
        runs.iter().map(|run| RunSlice::whole(run.relation()))
    }

    /// Four 16-byte records per page, so a few keys span several pages.
    const SMALL_PAGE: usize = crate::page::PAGE_HEADER_BYTES + 4 * 16;

    fn write_run(dev: &DeviceRef, keys: &[u64]) -> SortedRun {
        let mut writer = RunWriter::new(dev.clone(), RecordLayout::new(8), SMALL_PAGE, keys.len());
        for &k in keys {
            writer.push(RecordRef::new(k, &[0; 8])).unwrap();
        }
        writer.finish().unwrap()
    }

    /// Drains one merge over `slices`, returning the keys in merge order.
    fn merged_keys(slices: impl IntoIterator<Item = RunSlice>) -> Vec<u64> {
        let mut tree = LoserTree::new(slices).unwrap();
        let mut keys = Vec::new();
        while let Some(k) = tree.next_key().unwrap() {
            keys.push(k);
        }
        keys
    }

    #[test]
    fn cascade_to_one_run_orders_all_records() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev, &shuffled(5_000));
        let runs = sort_runs(&rel, 4, 1);
        assert_eq!(runs.len(), 1);
        let keys = keys_of(runs[0].relation());
        assert_eq!(keys.len(), 5_000);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn cascade_respects_fan_in() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev, &shuffled(20_000));
        let runs = sort_runs(&rel, 5, 4);
        assert!(runs.len() <= 4);
        let total: usize = runs.iter().map(|r| r.records()).sum();
        assert_eq!(total, 20_000);
        for run in &runs {
            let keys = keys_of(run.relation());
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "run must be sorted");
        }
    }

    #[test]
    fn single_chunk_needs_one_run_and_no_merge() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(100));
        dev.reset_stats();
        let runs = sort_runs(&rel, 64, 63);
        assert_eq!(runs.len(), 1);
        assert_eq!(dev.stats().rand_reads, 0, "no cascade read a run");
    }

    #[test]
    fn merge_iterator_merges_across_runs() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev, &shuffled(3_000));
        let runs = sort_runs(&rel, 3, 8);
        assert!(runs.len() > 1, "small budget must produce several runs");
        let merged = merged_keys(whole(&runs));
        assert_eq!(merged.len(), 3_000);
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Adversarial pin of the refill: long duplicate streaks keep one run
    /// winning, tight interleavings force the winner to change every
    /// record, and an early-exhausting run exercises done-cursor
    /// comparisons — the merge order must stay exactly the canonical
    /// (key, run index) order in every regime.
    #[test]
    fn loser_tree_fast_refill_preserves_the_canonical_merge_order() {
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        let runs_keys: Vec<Vec<u64>> = vec![
            std::iter::repeat_n(5u64, 300).chain(600..900).collect(),
            (0..600u64).map(|i| i / 2).collect(),
            (0..200u64).map(|i| i * 3).collect(),
            vec![7; 50],
        ];
        let mut runs = Vec::new();
        for (ri, keys) in runs_keys.iter().enumerate() {
            let mut w = RelationWriter::new(
                dev.clone(),
                layout,
                crate::page::DEFAULT_PAGE_SIZE,
                IoKind::RandWrite,
            );
            for &k in keys {
                w.push_ref(RecordRef::new(k, &[ri as u8; 8])).unwrap();
            }
            runs.push(w.finish().unwrap());
        }
        // The documented canonical order: ascending key, ties broken by run
        // index, run-internal order preserved (stable sort).
        let mut expected: Vec<(u64, u8)> = runs_keys
            .iter()
            .enumerate()
            .flat_map(|(ri, keys)| keys.iter().map(move |&k| (k, ri as u8)))
            .collect();
        expected.sort_by_key(|&(k, ri)| (k, ri));
        let mut tree = LoserTree::new(runs.iter().map(RunSlice::whole)).unwrap();
        let mut got = Vec::new();
        while let Some(rec) = tree.next_ref().unwrap() {
            got.push((rec.key(), rec.payload()[0]));
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn run_writes_are_sequential_and_merge_reads_random() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(2_000));
        dev.reset_stats();
        let runs = sort_runs(&rel, 3, 16);
        let after_runs = dev.stats();
        assert!(
            after_runs.seq_writes > 0,
            "run generation writes sequentially"
        );
        assert_eq!(after_runs.rand_writes, 0);
        merged_keys(whole(&runs));
        let after_merge = dev.stats().since(&after_runs);
        assert!(after_merge.rand_reads > 0, "merging reads runs randomly");
        assert_eq!(after_merge.seq_reads, 0);
    }

    #[test]
    fn merge_cascade_declares_every_read_random() {
        // Every cascade read is a cursor read interleaved across runs, so
        // it is declared random. Pinned so the modeled counters keep
        // matching what the device-level declaration audit observes: the
        // only sequential reads in a whole sort are the input scan.
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(2_000));
        dev.reset_stats();
        let runs = sort_runs(&rel, 3, 2);
        let io = dev.stats();
        assert!(
            io.rand_reads > 0,
            "merging down to {} runs requires a cascade",
            runs.len()
        );
        assert_eq!(
            io.seq_reads,
            rel.num_pages() as u64,
            "every read outside the input scan must be declared random"
        );
    }

    #[test]
    fn empty_relation_sorts_to_empty_runs() {
        let dev = SimDevice::new_ref();
        let rel = Relation::bulk_load(
            dev.clone(),
            RecordLayout::new(8),
            crate::page::DEFAULT_PAGE_SIZE,
            std::iter::empty(),
        )
        .unwrap();
        let total: usize = sort_runs(&rel, 4, 4).iter().map(|r| r.records()).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn run_chunks_form_a_fixed_page_grid() {
        assert_eq!(run_chunks(10, 4), vec![0..3, 3..6, 6..9, 9..10]);
        assert_eq!(run_chunks(6, 4), vec![0..3, 3..6]);
        assert_eq!(run_chunks(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(run_chunks(2, 16), vec![0..2]);
        for (pages, budget) in [(100, 5), (31, 32), (64, 3), (1, 7)] {
            let chunks = run_chunks(pages, budget);
            let covered: usize = chunks.iter().map(|c| c.len()).sum();
            assert_eq!(covered, pages);
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            assert!(chunks.iter().all(|c| c.len() < budget));
        }
    }

    #[test]
    fn sort_chunk_matches_a_stable_by_key_sort() {
        // Duplicate keys: the (key, index) pair sort must preserve the
        // relative input order of equal keys, exactly like the stable sort
        // the pre-arena sorter used.
        let dev = SimDevice::new_ref();
        let keys: Vec<u64> = (0..500u64).map(|i| i % 7).collect();
        let tags: Vec<[u8; 8]> = (0..keys.len() as u64).map(u64::to_le_bytes).collect();
        let rel = Relation::bulk_load(
            dev.clone(),
            RecordLayout::new(8),
            128,
            keys.iter()
                .zip(&tags)
                .map(|(&k, tag)| RecordRef::new(k, tag)),
        )
        .unwrap();
        let mut scratch = SortScratch::new();
        let run = sort_chunk(&rel, 0..rel.num_pages(), &mut scratch).unwrap();
        let mut got: Vec<(u64, u64)> = Vec::new();
        let mut scan = run.relation().scan();
        while let Some(page) = scan.next_page().unwrap() {
            got.extend(page.record_refs().map(|r| {
                let tag = r.payload().try_into().unwrap();
                (r.key(), u64::from_le_bytes(tag))
            }));
        }
        let mut expected: Vec<(u64, u64)> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, i as u64))
            .collect();
        expected.sort_by_key(|&(k, _)| k); // stable
        assert_eq!(got, expected);
        run.delete().unwrap();
    }

    #[test]
    fn scratch_is_reusable_across_chunks_and_layouts() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev.clone(), &shuffled(300));
        let wide = Relation::bulk_load(
            dev.clone(),
            RecordLayout::new(24),
            256,
            shuffled(100).iter().map(|&k| RecordRef::new(k, &[3; 24])),
        )
        .unwrap();
        let mut scratch = SortScratch::new();
        for chunk in run_chunks(rel.num_pages(), 4) {
            let run = sort_chunk(&rel, chunk, &mut scratch).unwrap();
            assert!(run.records() > 0);
            run.delete().unwrap();
        }
        // Switching layouts mid-scratch re-creates the arena.
        let run = sort_chunk(&wide, 0..wide.num_pages(), &mut scratch).unwrap();
        assert_eq!(run.records(), 100);
        let keys = keys_of(run.relation());
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        run.delete().unwrap();
    }

    #[test]
    fn loser_tree_breaks_ties_by_run_index() {
        // Two runs with overlapping equal keys: the merge must interleave
        // them in run-index order for equal keys (the canonical order the
        // heap-based merge used).
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        let mut runs = Vec::new();
        for fill in [1u8, 2] {
            let mut w = RelationWriter::new(dev.clone(), layout, 128, IoKind::SeqWrite);
            for k in [5u64, 5, 7, 9] {
                w.push_ref(RecordRef::new(k, &[fill; 8])).unwrap();
            }
            runs.push(w.finish().unwrap());
        }
        let mut tree = LoserTree::new(runs.iter().map(RunSlice::whole)).unwrap();
        let mut order = Vec::new();
        while let Some(rec) = tree.next_ref().unwrap() {
            order.push((rec.key(), rec.payload()[0]));
        }
        assert_eq!(
            order,
            vec![
                (5, 1),
                (5, 1),
                (5, 2),
                (5, 2),
                (7, 1),
                (7, 2),
                (9, 1),
                (9, 2)
            ]
        );
        for run in runs {
            run.delete().unwrap();
        }
    }

    #[test]
    fn loser_tree_key_and_ref_paths_agree_with_peek() {
        let dev = SimDevice::new_ref();
        let rel = build_relation(dev, &shuffled(1_000));
        // A merge reads each run page once, so each tree gets its own copy
        // of the runs.
        let runs = sort_runs(&rel, 3, 16);
        let twins = sort_runs(&rel, 3, 16);
        let mut by_key = LoserTree::new(whole(&runs)).unwrap();
        let mut by_ref = LoserTree::new(whole(&twins)).unwrap();
        loop {
            let peeked = by_key.peek_key().unwrap();
            let k = by_key.next_key().unwrap();
            let r = by_ref.next_ref().unwrap().map(|r| r.key());
            assert_eq!(k, r);
            assert_eq!(peeked, k);
            if k.is_none() {
                break;
            }
        }
    }

    #[test]
    fn loser_tree_over_no_runs_is_empty() {
        let mut tree = LoserTree::new(Vec::new()).unwrap();
        assert_eq!(tree.peek_key().unwrap(), None);
        assert_eq!(tree.next_key().unwrap(), None);
        assert!(tree.next_ref().unwrap().is_none());
    }

    #[test]
    fn loser_tree_handles_single_and_empty_runs() {
        let dev = SimDevice::new_ref();
        let layout = RecordLayout::new(8);
        let empty = RelationWriter::new(dev.clone(), layout, 128, IoKind::SeqWrite)
            .finish()
            .unwrap();
        let mut w = RelationWriter::new(dev.clone(), layout, 128, IoKind::SeqWrite);
        for k in 0..10u64 {
            w.push_ref(RecordRef::new(k, &[0; 8])).unwrap();
        }
        let full = w.finish().unwrap();
        let runs = vec![empty, full];
        let keys = merged_keys(runs.iter().map(RunSlice::whole));
        assert_eq!(keys, (0..10).collect::<Vec<u64>>());
        for run in runs {
            run.delete().unwrap();
        }
    }

    #[test]
    fn fences_are_the_first_key_of_every_page() {
        // Run generation and every cascade level record them while writing.
        let dev = SimDevice::new_ref();
        let rel = Relation::bulk_load(
            dev.clone(),
            RecordLayout::new(8),
            SMALL_PAGE,
            shuffled(997)
                .iter()
                .map(|&k| RecordRef::new(k / 3, &[0; 8])),
        )
        .unwrap();
        let mut scratch = SortScratch::new();
        let chunk = sort_chunk(&rel, 0..5, &mut scratch).unwrap();
        assert!(
            run_chunks(rel.num_pages(), 4).len() > 3 * 3,
            "at least two cascade levels down to two runs"
        );
        let merged = sort_runs(&rel, 4, 2);
        for run in std::iter::once(&chunk).chain(&merged) {
            let mut reader = run.relation().scan();
            let mut first_keys = Vec::new();
            while let Some(page) = reader.next_page().unwrap() {
                first_keys.push(page.get_ref(0).unwrap().key());
            }
            assert_eq!(run.fences(), first_keys);
        }
    }

    #[test]
    fn the_cascade_is_the_same_whatever_order_or_thread_merges_its_groups() {
        // Groups read only their own runs: merging them last-to-first, or
        // each on its own thread, writes the same runs at the same I/O.
        type Level = fn(Vec<Vec<SortedRun>>) -> Vec<SortedRun>;
        let reversed: Level = |groups| {
            let mut runs: Vec<SortedRun> = groups.into_iter().rev().map(merge_group).collect();
            runs.reverse();
            runs
        };
        let threaded: Level = |groups| {
            std::thread::scope(|scope| {
                let workers: Vec<_> = groups
                    .into_iter()
                    .map(|group| scope.spawn(move || merge_group(group)))
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            })
        };
        let sort = |level: Level| {
            let dev = SimDevice::new_ref();
            let rel = build_relation(dev.clone(), &shuffled(8_000));
            dev.reset_stats();
            let runs = initial_runs(&rel, 4);
            assert!(runs.len() > 3 * 3, "at least two cascade levels");
            let out = cascade(runs, 4, 2, level);
            let io = dev.stats();
            let runs: Vec<(Vec<u64>, Vec<u64>)> = out
                .iter()
                .map(|run| (keys_of(run.relation()), run.fences().to_vec()))
                .collect();
            (runs, io)
        };
        let serial = sort(in_order);
        assert_eq!(sort(reversed), serial);
        assert_eq!(sort(threaded), serial);
    }

    /// A `SimDevice` that keeps the high-water mark of its live pages,
    /// taken at every append (the only call that adds a page).
    #[derive(Default)]
    struct PeakDevice {
        sim: SimDevice,
        peak: AtomicUsize,
    }

    impl BlockDevice for PeakDevice {
        fn create_file(&self) -> FileId {
            self.sim.create_file()
        }
        fn file_pages(&self, file: FileId) -> Result<usize> {
            self.sim.file_pages(file)
        }
        fn append_page(&self, file: FileId, page: &Page, kind: IoKind) -> Result<usize> {
            let index = self.sim.append_page(file, page, kind)?;
            self.peak
                .fetch_max(self.sim.resident_pages(), Ordering::Relaxed);
            Ok(index)
        }
        fn read_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
            self.sim.read_page(file, index, kind)
        }
        fn discard_page(&self, file: FileId, index: usize) -> Result<()> {
            self.sim.discard_page(file, index)
        }
        fn delete_file(&self, file: FileId) -> Result<()> {
            self.sim.delete_file(file)
        }
        fn stats(&self) -> IoStats {
            self.sim.stats()
        }
        fn reset_stats(&self) {
            self.sim.reset_stats()
        }
    }

    #[test]
    fn a_group_merge_never_holds_more_than_the_unmerged_runs_and_the_outputs() {
        // A group releases each input page as it reads it, and its output
        // never runs ahead of what it has read, so while it writes, the
        // device holds no more than when the group began: the input, the
        // runs not yet merged and the outputs written so far. Holding a
        // group's inputs until it ends would add the group's output on top.
        let device = Arc::new(PeakDevice::default());
        let rel = build_relation(device.clone(), &shuffled(8_000));
        let runs = initial_runs(&rel, 4);
        assert!(runs.len() > 3 * 3, "at least two cascade levels");
        let watched = |groups: Vec<Vec<SortedRun>>| {
            groups
                .into_iter()
                .enumerate()
                .map(|(g, group)| {
                    let before = device.sim.resident_pages();
                    device.peak.store(before, Ordering::Relaxed);
                    let run = merge_group(group);
                    let peak = device.peak.load(Ordering::Relaxed);
                    assert!(
                        peak <= before,
                        "group {g}: {peak} pages live, {before} before"
                    );
                    assert!(device.sim.resident_pages() <= before, "group {g}");
                    run
                })
                .collect()
        };
        let out = cascade(runs, 4, 1, watched);
        assert_eq!(
            device.sim.resident_pages(),
            rel.num_pages() + out[0].relation().num_pages(),
            "the input and the one final run"
        );
    }

    #[test]
    fn fence_splitters_are_page_weighted_quantiles() {
        let dev = SimDevice::new_ref();
        let a = write_run(&dev, &(0..40).collect::<Vec<_>>()); // fences 0, 4, …, 36
        let b = write_run(&dev, &[100; 8]); // fences 100, 100
        assert!(fence_splitters([&a, &b], 1).is_empty());
        assert!(fence_splitters(std::iter::empty(), 4).is_empty());
        // 12 fences: 0 4 8 … 36 100 100; quartiles at indices 3, 6, 9.
        assert_eq!(fence_splitters([&a, &b], 4), vec![12, 24, 36]);
        assert_eq!(fence_splitters([&b, &a], 2), vec![24]);
        // More parts than pages: repeated splitters, each range well formed.
        let splitters = fence_splitters([&b], 5);
        assert_eq!(splitters, vec![100, 100, 100, 100]);
    }

    /// Splits `runs` at `splitters` and checks the split's contract: each
    /// range holds exactly the keys between its splitters, the ranges
    /// together hold every record once, and draining them reads every run
    /// page exactly once, as a random read. Returns the ranges' keys.
    ///
    /// Draining consumes the runs' pages, so callers split fresh runs.
    fn check_split(dev: &DeviceRef, runs: &[SortedRun], splitters: &[u64]) -> Vec<Vec<u64>> {
        // The whole merge's keys, read by a scan before the merge discards
        // the pages.
        let mut all_keys: Vec<u64> = runs
            .iter()
            .flat_map(|run| keys_of(run.relation()))
            .collect();
        all_keys.sort_unstable();
        dev.reset_stats();
        let ranges = split_runs(runs, splitters).unwrap();
        assert_eq!(ranges.len(), splitters.len() + 1);
        let keys: Vec<Vec<u64>> = ranges
            .iter()
            .map(|slices| {
                assert_eq!(slices.len(), runs.len(), "one slice per run");
                merged_keys(slices.iter().cloned())
            })
            .collect();
        let io = dev.stats();
        let pages: usize = runs.iter().map(|run| run.relation().num_pages()).sum();
        assert_eq!(io.rand_reads as usize, pages, "every page read once");
        assert_eq!(io.total(), io.rand_reads, "and nothing else");
        for (i, range) in keys.iter().enumerate() {
            let lo = if i == 0 { 0 } else { splitters[i - 1] };
            let hi = splitters.get(i).copied().unwrap_or(u64::MAX);
            assert!(
                range.iter().all(|&k| lo <= k && (k < hi || hi == u64::MAX)),
                "range {i} = [{lo}, {hi}) holds {range:?}"
            );
        }
        assert_eq!(keys.concat(), all_keys, "the ranges tile the whole merge");
        keys
    }

    /// Key 5 spans four pages of the first run and three of the second;
    /// the third run has no 5 at all.
    fn edge_runs(dev: &DeviceRef) -> Vec<SortedRun> {
        vec![
            write_run(
                dev,
                &[1, 2, 3, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 6, 7, 8, 9, 10],
            ),
            write_run(dev, &[0, 5, 5, 5, 5, 5, 5, 5, 5, 9, 9, 9, 20]),
            write_run(dev, &[2, 3, 4, 6]),
        ]
    }

    #[test]
    fn a_slice_can_lie_inside_one_page() {
        let dev = SimDevice::new_ref();
        // Page 3 of the first run is [5, 6, 7, 8]: both splitters cut it.
        let keys = check_split(&dev, &edge_runs(&dev)[..1], &[6, 7]);
        assert_eq!(keys[1], vec![6]);
        let ranges = split_runs(&edge_runs(&dev)[..1], &[6, 7]).unwrap();
        let inner = &ranges[1][0];
        assert!(inner.pages.is_empty() && inner.tail.is_none());
        assert_eq!(inner.head.as_ref().map(|(_, r)| r.clone()), Some(1..2));
    }

    #[test]
    fn a_splitter_outside_every_key_leaves_one_side_empty() {
        let dev = SimDevice::new_ref();
        // Below every key: the cut falls before page 0 and reads nothing.
        let keys = check_split(&dev, &edge_runs(&dev)[..1], &[1]);
        assert!(keys[0].is_empty());
        let keys = check_split(&dev, &edge_runs(&dev), &[0]);
        assert!(keys[0].is_empty());
        // Above every key: the last page is the boundary; the right is empty.
        let keys = check_split(&dev, &edge_runs(&dev), &[21]);
        assert!(keys[1].is_empty());
        let keys = check_split(&dev, &edge_runs(&dev), &[0, 21]);
        assert!(keys[0].is_empty() && keys[2].is_empty());
    }

    #[test]
    fn a_splitter_on_a_key_spanning_pages_in_two_runs_sends_it_right() {
        let dev = SimDevice::new_ref();
        let keys = check_split(&dev, &edge_runs(&dev), &[5]);
        assert!(keys[0].iter().all(|&k| k < 5));
        assert_eq!(keys[1].iter().filter(|&&k| k == 5).count(), 18);
        // Equal splitters make an empty range between them; more splitters
        // than distinct keys still tile the merge.
        let keys = check_split(&dev, &edge_runs(&dev), &[5, 5, 9]);
        assert!(keys[1].is_empty());
        check_split(&dev, &edge_runs(&dev), &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let runs = edge_runs(&dev);
        let splitters = fence_splitters(&runs, 8);
        check_split(&dev, &runs, &splitters);
    }

    /// Seeded property test of the merge over split slices: runs with
    /// duplicates inside and across them, keys 0 and `u64::MAX`, empty
    /// runs, and splitters that cut pages mid-way. One run of every case
    /// holds nothing but `u64::MAX`, at a random run index, and every other
    /// case splits at `u64::MAX` too, so live `u64::MAX` keys meet
    /// exhausted slices of lower and higher index — the boundary of the
    /// tag's exhausted bit. Whatever mix of `next_key`, `peek_key` and
    /// `next_ref` drains the ranges, the records come out in a stable sort
    /// by (key, run index) — so `u64::MAX` never reads as an exhausted
    /// cursor, and a boundary slice's key vector holds exactly its record
    /// range.
    #[test]
    fn loser_tree_over_split_slices_is_a_stable_sort_by_key_and_run() {
        const ALPHABET: [u64; 8] = [0, 1, 2, 5, 9, 1_000, u64::MAX - 1, u64::MAX];
        let mut state = 0x5EED_u64;
        let mut next = move |bound: usize| {
            // SplitMix64.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        for case in 0..40 {
            let dev = SimDevice::new_ref();
            let k = 2 + next(7);
            let max_run = next(k);
            let mut runs = Vec::new();
            let mut expected: Vec<(u64, u32, u32)> = Vec::new();
            for run in 0..k {
                let len = if run == case % k { 0 } else { next(30) };
                let mut keys: Vec<u64> = if run == max_run {
                    vec![u64::MAX; 1 + next(9)]
                } else {
                    (0..len).map(|_| ALPHABET[next(ALPHABET.len())]).collect()
                };
                keys.sort_unstable();
                let mut writer = RunWriter::new(dev.clone(), RecordLayout::new(8), SMALL_PAGE, len);
                for (pos, &key) in keys.iter().enumerate() {
                    let tag = (run as u64) << 32 | pos as u64;
                    writer
                        .push(RecordRef::new(key, &tag.to_le_bytes()))
                        .unwrap();
                    expected.push((key, run as u32, pos as u32));
                }
                runs.push(writer.finish().unwrap());
            }
            expected.sort_by_key(|&(key, run, _)| (key, run));
            let mut splitters: Vec<u64> = (0..next(4))
                .map(|_| ALPHABET[next(ALPHABET.len())])
                .collect();
            splitters.extend(fence_splitters(&runs, 1 + next(4)));
            if case % 2 == 1 {
                splitters.push(u64::MAX);
            }
            splitters.sort_unstable();
            let mut got = Vec::new();
            for slices in split_runs(&runs, &splitters).unwrap() {
                let mut tree = LoserTree::new(slices).unwrap();
                loop {
                    let at = got.len();
                    let record = match next(3) {
                        0 => tree
                            .next_key()
                            .unwrap()
                            .map(|key| (key, expected[at].1, expected[at].2)),
                        mode => {
                            let peeked = if mode == 1 {
                                tree.peek_key().unwrap()
                            } else {
                                None
                            };
                            let record = tree.next_ref().unwrap().map(|rec| {
                                let tag = u64::from_le_bytes(rec.payload().try_into().unwrap());
                                (rec.key(), (tag >> 32) as u32, tag as u32)
                            });
                            if mode == 1 {
                                assert_eq!(peeked, record.map(|(key, _, _)| key), "case {case}");
                            }
                            record
                        }
                    };
                    let Some(record) = record else { break };
                    got.push(record);
                }
            }
            assert_eq!(got, expected, "case {case}: splitters {splitters:?}");
        }
    }

    #[test]
    fn no_splitters_is_one_range_of_whole_runs_and_reads_nothing_up_front() {
        let dev = SimDevice::new_ref();
        let runs = edge_runs(&dev);
        dev.reset_stats();
        let ranges = split_runs(&runs, &[]).unwrap();
        assert_eq!(dev.stats().total(), 0);
        assert_eq!(ranges.len(), 1);
        for (slice, run) in ranges[0].iter().zip(&runs) {
            assert!(slice.head.is_none() && slice.tail.is_none());
            assert_eq!(slice.pages, 0..run.relation().num_pages());
        }
        check_split(&dev, &runs, &[]);
    }
}
