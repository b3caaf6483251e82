//! The real-device block layer: a production-grade [`FileDevice`]. Unix
//! only: it uses positioned I/O and keeps unlinked files open.
//!
//! * **Sharded open-file-handle cache** — one `File` per [`FileId`], kept
//!   for the file's life in a sharded `RwLock<HashMap>`; the I/O path
//!   resolves it under a brief shard read-lock, then issues positioned
//!   `pread`/`pwrite` with no lock held: no per-page `open`, no `seek`.
//! * **Block/page mapping with read-ahead** — [`DEFAULT_PAGES_PER_BLOCK`]
//!   pages make a block. A `SeqRead` miss fetches the whole block with one
//!   `pread` into a read-ahead frame that serves the following pages, so
//!   a scan of `N` pages issues `N / 8` syscalls. Frames belong to the
//!   scans inside them, not to the file (see *Read-ahead frames* below).
//! * **Write-behind coalescing** — appends buffer per file and go out as
//!   one block-sized `pwrite` at the block boundary, on
//!   [`FileDevice::flush`], and on drop; `delete_file` discards the tail.
//!   Buffered pages are readable at once. A live file whose last block
//!   has not filled holds up to a block's pages here until it is flushed
//!   or deleted: device memory by design, the price of block-sized writes.
//! * **Durability knobs** — [`SyncPolicy`] selects no syncing or a full
//!   `fsync` per flushed append batch, configured through
//!   [`FileDeviceBuilder`].
//! * **Storage reuse** — a deleted file's inode backs the next file
//!   created (see *Storage reuse* below).
//!
//! **The modeled [`IoStats`] are bit-identical to [`SimDevice`]
//! semantics**: counts are per *page* and recorded exactly when an
//! operation is logically accepted (append buffered or written, read
//! served), never before a fallible syscall. The block layer only changes
//! the *syscall shape*, which is what [`BlockStats`] reports. The
//! modeled-vs-observed exactness is pinned by the `IoAudit` model audit in
//! `nocap-obs` and `tests/block_layer.rs`.
//!
//! [`SimDevice`]: crate::SimDevice
//!
//! # Read-ahead frames
//!
//! A frame lives as long as a scan is inside its block. Every sequential
//! consumer (`RelationScan` over inputs and spill partitions, the sorter's
//! chunk loader, the morsel scans) reads each page of a block exactly once
//! per pass, so a frame records which of its slots have been served and is
//! released the moment the last unserved one goes out — a short tail frame
//! at its own length, so a file scanned to its end keeps nothing. A join
//! that reads hundreds of spill partitions once each therefore holds one
//! frame per scan in flight, not four per file it ever opened.
//!
//! *Served-slot marks, not "evict on the last slot".* Two workers share a
//! block wherever a morsel boundary falls inside it: the one that owns the
//! block's tail may finish before the one that owns its head has started,
//! and evicting on the last slot would make the latter fetch the block
//! again. Counting distinct served slots releases the frame when both are
//! done, whatever the order.
//!
//! *What the FIFO bounds.* Each file keeps at most four frames, oldest
//! out first. With completed frames gone, that bound applies to frames
//! somebody left half-read: a scan abandoned mid-block (a failed join, an
//! early exit), a second pass racing the first over the same pages, or
//! more concurrent scans of one file than there are slots. A frame pushed
//! out this way leaves its served marks behind (a few bytes per block),
//! and a later fetch of the block picks them up — so a scan that outlives
//! its frame still ends with nothing cached, at the price of the second
//! `pread`. Frames and parked marks go with the file in `delete_file`.
//!
//! [`FileDevice::resident_pages`] reports what the device holds — frame
//! pages and write-behind pages, current and high-water — so tests and
//! `exp_io_audit` can pin device-owned memory without reading RSS.
//!
//! # Storage reuse
//!
//! A join creates hundreds of files (a GHJ spill partition per side, an
//! SMJ run each), and creating one is the dearest thing the device does:
//! ≈ 0.1 ms per `open(O_CREAT)` on ext4, ≈ 0.5 ms with hundreds open, and
//! a fresh page costs twice an overwritten cached one. The model prices
//! none of it. So `delete_file` unlinks the name but keeps the open
//! inode, and when the handle's last reference drops (nothing can be in
//! flight on it) puts it on a device-wide free list; `create_file` takes
//! the most recently freed one and overwrites it from page 0. Old bytes
//! never show: reads stop at the logical length, frames at the durable
//! pages.
//!
//! *The bound.* A reused inode is cut to its file's durable length when
//! the file goes, and the free list holds no more bytes than the live
//! files did at their high-water mark (past that, the inode is closed),
//! so live plus free descriptors stay within the live high-water mark.
//! [`FileDevice::recycled_storage`] reports it. *Names.* A live file on
//! reused storage has no directory entry: [`FileDevice::backing_path`]
//! is `None` and only [`FileDevice::live_files`] sees it. An `at_dir`
//! device writes each out under its own name when it drops.
//!
//! # Failure accounting and torn-page recovery
//!
//! Failed operations never reach the disk, so they must not show up in
//! the modeled trace: every `stats.record` happens *after* the syscalls
//! (or the buffer insertion) succeed. A failed physical write additionally
//! truncates the backing file back to the durable page boundary
//! (`ftruncate` to `durable_pages * page_size`), so a torn page can never
//! shift later appends to misaligned offsets — this is what makes
//! [`TracedDevice`](crate::TracedDevice)'s bounded retry safe on real
//! files. A failed block flush *retains* the write-behind buffer (the
//! pages stay readable and stay counted); re-driving the append retries
//! the flush.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::device::{BlockDevice, DeviceRef, FileId};
use crate::iostats::{AtomicIoStats, IoKind, IoStats};
use crate::page::Page;
use crate::sync::{lock_unpoisoned, read_unpoisoned, write_unpoisoned};
use crate::{Result, StorageError};

/// Number of handle-cache shards. File ids are assigned round-robin, so
/// `id % HANDLE_SHARDS` spreads concurrent create/lookup traffic evenly.
const HANDLE_SHARDS: usize = 16;

/// Part-read frames a file may hold at once (FIFO eviction). Completed
/// frames are released at once and never count against this.
const FRAME_CACHE_BLOCKS: usize = 4;

/// Default number of pages packed into one device block (32 KiB blocks at
/// the default 4 KiB page size).
pub const DEFAULT_PAGES_PER_BLOCK: usize = 8;

/// Per-process instance counter feeding the unique filename namespace.
static DEVICE_INSTANCES: AtomicU64 = AtomicU64::new(0);

fn io_err(e: std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Durability policy: a sync syscall after each flushed append batch, the
/// `O_SYNC` barrier issued once per batch `pwrite` instead of per write.
/// Open flags (`O_SYNC`, `O_DIRECT` through std's
/// `OpenOptionsExt::custom_flags`) are ROADMAP item 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// No explicit syncing; the OS page cache decides when bytes hit media.
    #[default]
    None,
    /// Full `fsync` (data + metadata) after every flushed append batch —
    /// the moral equivalent of `O_SYNC` appends.
    Sync,
}

/// Builder for [`FileDevice`]: its directory, its durability policy and
/// the torn-write test hook. Blocks are [`DEFAULT_PAGES_PER_BLOCK`] pages,
/// with read-ahead and write-behind always on.
///
/// ```no_run
/// use nocap_storage::{FileDeviceBuilder, SyncPolicy};
/// let dev = FileDeviceBuilder::new()
///     .sync_policy(SyncPolicy::Sync)
///     .build()
///     .unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct FileDeviceBuilder {
    dir: Option<PathBuf>,
    sync: SyncPolicy,
    torn_append_after: Option<u64>,
}

impl FileDeviceBuilder {
    /// Starts from the defaults: a fresh temp directory and
    /// [`SyncPolicy::None`].
    pub fn new() -> Self {
        FileDeviceBuilder::default()
    }

    /// Roots the device at `dir` (created if missing) instead of a fresh
    /// temporary directory. The directory is left alone on drop; buffered
    /// appends are flushed on drop instead.
    pub fn at_dir(mut self, dir: PathBuf) -> Self {
        self.dir = Some(dir);
        self
    }

    /// Sets the per-batch durability policy.
    pub fn sync_policy(mut self, sync: SyncPolicy) -> Self {
        self.sync = sync;
        self
    }

    /// Test knob: the first `n` physical writes succeed, the `n+1`-th is
    /// torn — a non-page-aligned prefix of the buffer is written and the
    /// write reports an injected I/O error. Exercises the real torn-page
    /// recovery path (`ftruncate` back to the durable boundary).
    pub fn torn_append_after(mut self, n: u64) -> Self {
        self.torn_append_after = Some(n);
        self
    }

    /// Builds the device.
    pub fn build(self) -> Result<FileDevice> {
        let (dir, remove_dir_on_drop) = match self.dir {
            Some(dir) => {
                fs::create_dir_all(&dir).map_err(io_err)?;
                (dir, false)
            }
            None => {
                let mut dir = std::env::temp_dir();
                dir.push(format!("nocap-device-{}-{}", std::process::id(), nonce()));
                fs::create_dir_all(&dir).map_err(io_err)?;
                (dir, true)
            }
        };
        // Unique per-instance filename namespace: two devices over the same
        // directory (or a reopen after a crash) can never collide with each
        // other's — or a previous incarnation's — backing files.
        let prefix = format!(
            "d{:x}-{:x}-{:x}",
            std::process::id(),
            DEVICE_INSTANCES.fetch_add(1, Ordering::Relaxed),
            nonce() & 0xffff_ffff
        );
        Ok(FileDevice {
            dir,
            prefix,
            sync: self.sync,
            shards: (0..HANDLE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            next_id: AtomicU64::new(0),
            stats: AtomicIoStats::default(),
            block_stats: AtomicBlockStats::default(),
            shared: Arc::default(),
            torn_remaining: AtomicI64::new(self.torn_append_after.map_or(-1, |n| n as i64 + 1)),
            remove_dir_on_drop,
        })
    }

    /// Builds the device behind a plain `Arc` (useful when tests need the
    /// concrete type for [`FileDevice::flush`]/[`FileDevice::block_stats`]
    /// while also sharing it as a [`DeviceRef`]).
    pub fn build_arc(self) -> Result<Arc<FileDevice>> {
        self.build().map(Arc::new)
    }

    /// Builds the device already erased to a [`DeviceRef`].
    pub fn build_ref(self) -> Result<DeviceRef> {
        Ok(self.build_arc()?)
    }
}

fn nonce() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Physical-layer statistics
// ---------------------------------------------------------------------------

/// Syscall-shape counters for the block layer: how many `pread`/`pwrite`
/// syscalls were issued and how many pages each moved, as opposed to the
/// modeled per-page [`IoStats`], which the block layer leaves
/// bit-identical to [`SimDevice`](crate::SimDevice).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// `pread` syscalls issued.
    pub physical_reads: u64,
    /// Pages moved by those reads.
    pub physical_read_pages: u64,
    /// `pwrite` syscalls issued (successful only).
    pub physical_writes: u64,
    /// Pages moved by those writes.
    pub physical_write_pages: u64,
    /// Page reads served from the read-ahead frame cache.
    pub readahead_hits: u64,
    /// Appends absorbed by the write-behind buffer (no immediate syscall).
    pub buffered_appends: u64,
    /// Write-behind batches flushed to disk.
    pub flushes: u64,
    /// Explicit sync syscalls issued ([`SyncPolicy::Sync`]).
    pub syncs: u64,
    /// Failed physical writes repaired by truncating back to the durable
    /// page boundary.
    pub torn_writes_repaired: u64,
}

#[derive(Default)]
struct AtomicBlockStats {
    physical_reads: AtomicU64,
    physical_read_pages: AtomicU64,
    physical_writes: AtomicU64,
    physical_write_pages: AtomicU64,
    readahead_hits: AtomicU64,
    buffered_appends: AtomicU64,
    flushes: AtomicU64,
    syncs: AtomicU64,
    torn_writes_repaired: AtomicU64,
}

impl AtomicBlockStats {
    fn snapshot(&self) -> BlockStats {
        BlockStats {
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_read_pages: self.physical_read_pages.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            physical_write_pages: self.physical_write_pages.load(Ordering::Relaxed),
            readahead_hits: self.readahead_hits.load(Ordering::Relaxed),
            buffered_appends: self.buffered_appends.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            torn_writes_repaired: self.torn_writes_repaired.load(Ordering::Relaxed),
        }
    }
}

/// Page memory the device itself holds, in pages
/// ([`FileDevice::resident_pages`]) — the counterpart of
/// [`SimDevice::resident_pages`](crate::SimDevice::resident_pages) for a
/// device whose files are not process memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentPages {
    /// Pages held by read-ahead frames now.
    pub frames: usize,
    /// High-water mark of `frames`.
    pub frames_peak: usize,
    /// Pages held by write-behind tails now.
    pub write_behind: usize,
    /// High-water mark of `write_behind`.
    pub write_behind_peak: usize,
}

/// A page count and its high-water mark. Statistics only: `Relaxed`.
#[derive(Default)]
struct Gauge {
    now: AtomicUsize,
    peak: AtomicUsize,
}

impl Gauge {
    fn add(&self, pages: usize) {
        let now = self.now.fetch_add(pages, Ordering::Relaxed) + pages;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, pages: usize) {
        self.now.fetch_sub(pages, Ordering::Relaxed);
    }

    fn reset_peak(&self) {
        self.peak
            .store(self.now.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Deleted files' storage held for reuse ([`FileDevice::recycled_storage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecycledStorage {
    /// Unnamed inodes on the free list.
    pub files: usize,
    /// Bytes those inodes hold.
    pub bytes: usize,
    /// The most `bytes` may reach: the live files' high-water mark.
    pub bound: usize,
    /// Files created on reused storage so far.
    pub reuses: usize,
}

/// Shared by the device and its file handles, so a handle can give its
/// pages and its storage back when the last reference to it drops.
#[derive(Default)]
struct Shared {
    frames: Gauge,
    write_behind: Gauge,
    /// Durable bytes of the live files; the peak bounds the free list.
    live_bytes: Gauge,
    free: Mutex<FreeList>,
}

/// Deleted files' inodes, most recently freed last, with their lengths.
#[derive(Default)]
struct FreeList {
    files: Vec<(File, usize)>,
    bytes: usize,
    reuses: usize,
}

impl Shared {
    /// Keeps `file`, `bytes` long, for reuse unless that would take the
    /// free list past the live files' high-water mark; otherwise it closes.
    fn recycle(&self, file: File, bytes: usize) {
        let mut free = lock_unpoisoned(&self.free);
        if free.bytes + bytes <= self.live_bytes.peak.load(Ordering::Relaxed) {
            free.bytes += bytes;
            free.files.push((file, bytes));
        }
    }

    /// The most recently freed inode, if any.
    fn reuse(&self) -> Option<File> {
        let mut free = lock_unpoisoned(&self.free);
        let (file, bytes) = free.files.pop()?;
        free.bytes -= bytes;
        free.reuses += 1;
        Some(file)
    }
}

// ---------------------------------------------------------------------------
// Per-file state
// ---------------------------------------------------------------------------

/// Append-side state of one file: the logical length and the write-behind
/// tail. Guarded by a *per-file* mutex — appends to one file serialize
/// (they must, to agree on the offset), appends to different files do not,
/// and reads of durable pages never touch this lock beyond a brief
/// metadata peek.
#[derive(Default)]
struct AppendState {
    /// Page size fixed by the first append (0 = no page appended yet).
    page_size: usize,
    /// Pages physically written to the backing file.
    durable_pages: usize,
    /// Write-behind tail: accepted, counted, readable, not yet on disk.
    buffered: Vec<Arc<Page>>,
}

/// One read-ahead frame: the decoded pages of one device block and which
/// of them a reader has been handed since the block was first fetched.
struct Frame {
    block: usize,
    pages: Vec<Arc<Page>>,
    served: Vec<bool>,
}

impl Frame {
    fn new(block: usize, pages: Vec<Arc<Page>>) -> Self {
        Frame {
            block,
            served: vec![false; pages.len()],
            pages,
        }
    }

    /// Marks `slot` served; `true` once every page of the frame has been.
    fn serve(&mut self, slot: usize) -> bool {
        self.served[slot] = true;
        self.served.iter().all(|&served| served)
    }

    /// Takes over the marks made on an earlier copy of this block (which
    /// may be shorter: the file has grown since).
    fn inherit(&mut self, marks: &[bool]) {
        for (mine, &theirs) in self.served.iter_mut().zip(marks) {
            *mine |= theirs;
        }
    }
}

#[derive(Default)]
struct FrameCache {
    /// FIFO of at most [`FRAME_CACHE_BLOCKS`] frames, every one part-served.
    entries: Vec<Frame>,
    /// Served marks of the frames the FIFO pushed out, by block, waiting
    /// for whoever fetches the block again.
    parked: HashMap<usize, Vec<bool>>,
}

struct FileHandle {
    path: PathBuf,
    /// The storage came off the free list: `path` names no file (until an
    /// `at_dir` device writes it out on drop).
    reused: bool,
    /// The long-lived backing `File`. Opened at `create_file` (or taken
    /// off the free list); `None` only if that open failed, in which case
    /// the first I/O retries it.
    file: RwLock<Option<Arc<File>>>,
    append: Mutex<AppendState>,
    frames: Mutex<FrameCache>,
    /// Set by `delete_file`: the storage goes to the free list on drop.
    /// `Relaxed`: the `Arc`'s last decrement orders it before `drop`.
    deleted: AtomicBool,
    shared: Arc<Shared>,
}

impl Drop for FileHandle {
    /// The handle's frames and write-behind tail are freed with it, and a
    /// deleted file's storage goes to the free list — after `delete_file`,
    /// once the last in-flight operation lets go.
    fn drop(&mut self) {
        let frames = self.frames.get_mut().unwrap_or_else(|e| e.into_inner());
        let frame_pages = frames.entries.iter().map(|f| f.pages.len()).sum();
        self.shared.frames.sub(frame_pages);
        let append = self.append.get_mut().unwrap_or_else(|e| e.into_inner());
        self.shared.write_behind.sub(append.buffered.len());
        let durable = append.durable_pages * append.page_size;
        self.shared.live_bytes.sub(durable);
        if !*self.deleted.get_mut() {
            return;
        }
        // Every operation holds the handle while it holds the `File`, so
        // this is the last reference.
        let slot = self.file.get_mut().unwrap_or_else(|e| e.into_inner());
        if let Some(file) = slot.take().and_then(Arc::into_inner) {
            // A reused inode may run past this file's end: cut it there.
            if !self.reused || file.set_len(durable as u64).is_ok() {
                self.shared.recycle(file, durable);
            }
        }
    }
}

impl FileHandle {
    fn open_backing(path: &Path) -> std::io::Result<File> {
        OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
    }

    /// Returns the cached backing file, opening it if the eager open at
    /// `create_file` failed (e.g. transient fd pressure).
    fn file(&self) -> Result<Arc<File>> {
        if let Some(f) = read_unpoisoned(&self.file).as_ref() {
            return Ok(f.clone());
        }
        let mut slot = write_unpoisoned(&self.file);
        if let Some(f) = slot.as_ref() {
            return Ok(f.clone());
        }
        let f = Arc::new(Self::open_backing(&self.path).map_err(io_err)?);
        *slot = Some(f.clone());
        Ok(f)
    }

    /// Copies a reused file's durable bytes out under its own name.
    fn write_out(&self) -> std::io::Result<()> {
        let Some(file) = read_unpoisoned(&self.file).clone() else {
            return Ok(());
        };
        // Positioned I/O never moved the cursor off byte 0.
        let st = lock_unpoisoned(&self.append);
        let durable = (st.durable_pages * st.page_size) as u64;
        std::io::copy(&mut (&*file).take(durable), &mut File::create(&self.path)?)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FileDevice
// ---------------------------------------------------------------------------

/// A block device backed by real files; see the
/// [module documentation](crate::block). Construct with
/// [`FileDevice::new_temp`], [`FileDevice::at_dir`] or [`FileDeviceBuilder`].
pub struct FileDevice {
    dir: PathBuf,
    prefix: String,
    sync: SyncPolicy,
    shards: Vec<RwLock<HashMap<FileId, Arc<FileHandle>>>>,
    next_id: AtomicU64,
    stats: AtomicIoStats,
    block_stats: AtomicBlockStats,
    shared: Arc<Shared>,
    /// Torn-write test knob: fires when a decrement observes 1; disabled
    /// at or below 0.
    torn_remaining: AtomicI64,
    remove_dir_on_drop: bool,
}

impl FileDevice {
    /// Creates a device rooted at a fresh directory under the system
    /// temporary directory, with the default block-layer configuration.
    pub fn new_temp() -> Result<Self> {
        FileDeviceBuilder::new().build()
    }

    /// Creates a device rooted at `dir`, which must exist. The directory
    /// is left alone on drop, and what is live is flushed and named there.
    /// Each instance writes under its own filename namespace, so several
    /// devices (or a reopen after a crash) can share a directory.
    pub fn at_dir(dir: PathBuf) -> Result<Self> {
        if !dir.is_dir() {
            return Err(StorageError::Io(format!(
                "{} is not a directory",
                dir.display()
            )));
        }
        FileDeviceBuilder::new().at_dir(dir).build()
    }

    /// Builder for a device with a durability policy or a directory of its
    /// own.
    pub fn builder() -> FileDeviceBuilder {
        FileDeviceBuilder::new()
    }

    /// Directory the device stores its files in.
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    /// The device's durability policy.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.sync
    }

    /// Snapshot of the physical syscall-shape counters.
    pub fn block_stats(&self) -> BlockStats {
        self.block_stats.snapshot()
    }

    /// Page memory the device holds right now and at its high-water mark:
    /// read-ahead frames and write-behind tails, in pages.
    pub fn resident_pages(&self) -> ResidentPages {
        let load = |gauge: &AtomicUsize| gauge.load(Ordering::Relaxed);
        ResidentPages {
            frames: load(&self.shared.frames.now),
            frames_peak: load(&self.shared.frames.peak),
            write_behind: load(&self.shared.write_behind.now),
            write_behind_peak: load(&self.shared.write_behind.peak),
        }
    }

    /// Restarts both high-water marks of [`resident_pages`](Self::resident_pages)
    /// from the current counts, so a caller can read one join's peak.
    pub fn reset_resident_peaks(&self) {
        self.shared.frames.reset_peak();
        self.shared.write_behind.reset_peak();
    }

    /// The free list of deleted files' storage (see *Storage reuse* in the
    /// [module documentation](crate::block)).
    pub fn recycled_storage(&self) -> RecycledStorage {
        let free = lock_unpoisoned(&self.shared.free);
        RecycledStorage {
            files: free.files.len(),
            bytes: free.bytes,
            bound: self.shared.live_bytes.peak.load(Ordering::Relaxed),
            reuses: free.reuses,
        }
    }

    /// Number of live (not yet deleted) files.
    pub fn live_files(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| read_unpoisoned(shard).len())
            .sum()
    }

    /// Path of the backing file for `file`. Tests use this instead of
    /// guessing filenames: each device instance writes under a unique
    /// namespace. `None` if the file does not exist, or if it lives on
    /// reused storage, which has no directory entry (an `at_dir` device
    /// gives it one when it drops).
    pub fn backing_path(&self, file: FileId) -> Option<PathBuf> {
        read_unpoisoned(self.shard(file))
            .get(&file)
            .filter(|h| !h.reused)
            .map(|h| h.path.clone())
    }

    /// Flushes the write-behind buffer of every live file.
    pub fn flush(&self) -> Result<()> {
        for shard in &self.shards {
            let handles: Vec<Arc<FileHandle>> = read_unpoisoned(shard).values().cloned().collect();
            for handle in handles {
                let mut st = lock_unpoisoned(&handle.append);
                self.flush_locked(&handle, &mut st)?;
            }
        }
        Ok(())
    }

    /// Flushes the write-behind buffer of one file.
    pub fn flush_file(&self, file: FileId) -> Result<()> {
        let handle = self.handle(file)?;
        let mut st = lock_unpoisoned(&handle.append);
        self.flush_locked(&handle, &mut st)
    }

    fn shard(&self, file: FileId) -> &RwLock<HashMap<FileId, Arc<FileHandle>>> {
        &self.shards[(file.0 as usize) % HANDLE_SHARDS]
    }

    fn handle(&self, file: FileId) -> Result<Arc<FileHandle>> {
        read_unpoisoned(self.shard(file))
            .get(&file)
            .cloned()
            .ok_or(StorageError::UnknownFile(file))
    }

    fn torn_fires(&self) -> bool {
        if self.torn_remaining.load(Ordering::Relaxed) <= 0 {
            return false;
        }
        self.torn_remaining.fetch_sub(1, Ordering::Relaxed) == 1
    }

    /// One physical write of `pages` pages at the durable boundary
    /// `offset`. On failure the file is truncated back to `offset` (torn-
    /// page recovery) before the error is returned, so a partial write can
    /// never leave the file at a non-page-aligned length.
    fn physical_write(&self, file: &File, buf: &[u8], offset: u64, pages: usize) -> Result<()> {
        let res = if self.torn_fires() {
            // Injected torn write: a non-aligned prefix lands, then the
            // write "fails" — exactly what a crashed write_all leaves.
            let cut = (buf.len() / 2 + 1).min(buf.len());
            let _ = file.write_all_at(&buf[..cut], offset);
            Err(std::io::Error::other("injected torn write"))
        } else {
            file.write_all_at(buf, offset)
        };
        if let Err(e) = res {
            let torn = match file.metadata() {
                Ok(m) => m.len() > offset,
                Err(_) => true,
            };
            if torn && file.set_len(offset).is_ok() {
                self.block_stats
                    .torn_writes_repaired
                    .fetch_add(1, Ordering::Relaxed);
            }
            return Err(io_err(e));
        }
        self.block_stats
            .physical_writes
            .fetch_add(1, Ordering::Relaxed);
        self.block_stats
            .physical_write_pages
            .fetch_add(pages as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync_batch(&self, file: &File) -> Result<()> {
        match self.sync {
            SyncPolicy::None => return Ok(()),
            SyncPolicy::Sync => file.sync_all().map_err(io_err)?,
        }
        self.block_stats.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Flushes the write-behind tail as one coalesced physical write. On
    /// failure the buffer is retained (the pages stay readable and stay
    /// counted) and the file is truncated back to the durable boundary;
    /// re-driving any append retries the flush.
    fn flush_locked(&self, handle: &FileHandle, st: &mut AppendState) -> Result<()> {
        if st.buffered.is_empty() {
            return Ok(());
        }
        let file = handle.file()?;
        let offset = (st.durable_pages * st.page_size) as u64;
        let mut buf = Vec::with_capacity(st.buffered.len() * st.page_size);
        for page in &st.buffered {
            buf.extend_from_slice(page.as_bytes());
        }
        self.physical_write(&file, &buf, offset, st.buffered.len())?;
        self.sync_batch(&file)?;
        st.durable_pages += st.buffered.len();
        self.shared.live_bytes.add(st.buffered.len() * st.page_size);
        self.shared.write_behind.sub(st.buffered.len());
        st.buffered.clear();
        self.block_stats.flushes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Single-page positioned read: a random-read miss.
    fn read_single(
        &self,
        handle: &FileHandle,
        index: usize,
        page_size: usize,
    ) -> Result<Arc<Page>> {
        let file = handle.file()?;
        let mut buf = vec![0u8; page_size];
        file.read_exact_at(&mut buf, (index * page_size) as u64)
            .map_err(io_err)?;
        self.block_stats
            .physical_reads
            .fetch_add(1, Ordering::Relaxed);
        self.block_stats
            .physical_read_pages
            .fetch_add(1, Ordering::Relaxed);
        Page::from_bytes(buf).map(Arc::new)
    }

    /// Read through the file's read-ahead frames. A hit serves the page
    /// from its frame and releases the frame if that was its last unserved
    /// page; a `SeqRead` miss fetches the whole containing block (clipped
    /// to the durable length) with one `pread` and keeps it for the pages
    /// still to come. Random-read misses fall back to a single-page read so
    /// a stray probe does not push out a frame a scan is inside.
    fn read_via_frames(
        &self,
        handle: &FileHandle,
        index: usize,
        page_size: usize,
        durable: usize,
        kind: IoKind,
    ) -> Result<Arc<Page>> {
        let ppb = DEFAULT_PAGES_PER_BLOCK;
        let block = index / ppb;
        let slot = index % ppb;
        {
            // One lock for the search, the `Arc` clone and the served mark:
            // a file holds at most FRAME_CACHE_BLOCKS frames, so the search
            // is a handful of compares, and a per-device map in its place
            // would put every file's readers on one lock.
            let mut frames = lock_unpoisoned(&handle.frames);
            if let Some(at) = frames.entries.iter().position(|f| f.block == block) {
                let frame = &mut frames.entries[at];
                if slot < frame.pages.len() {
                    let page = frame.pages[slot].clone();
                    let finished = frame.serve(slot).then(|| frames.entries.remove(at));
                    drop(frames);
                    if let Some(frame) = finished {
                        self.shared.frames.sub(frame.pages.len());
                    }
                    self.block_stats
                        .readahead_hits
                        .fetch_add(1, Ordering::Relaxed);
                    return Ok(page);
                }
                // The frame predates the pages flushed since it was filled;
                // fall through and refresh it.
            }
        }
        if kind != IoKind::SeqRead {
            return self.read_single(handle, index, page_size);
        }
        // Fill outside the frame lock: two concurrent readers may duplicate
        // a block fetch, which is harmless; the append-only file guarantees
        // a frame can never be stale, only short.
        let start = block * ppb;
        let pages_in_block = ppb.min(durable - start);
        let file = handle.file()?;
        let mut buf = vec![0u8; pages_in_block * page_size];
        file.read_exact_at(&mut buf, (start * page_size) as u64)
            .map_err(io_err)?;
        self.block_stats
            .physical_reads
            .fetch_add(1, Ordering::Relaxed);
        self.block_stats
            .physical_read_pages
            .fetch_add(pages_in_block as u64, Ordering::Relaxed);
        let mut pages = Vec::with_capacity(pages_in_block);
        for chunk in buf.chunks_exact(page_size) {
            pages.push(Arc::new(Page::from_bytes(chunk.to_vec())?));
        }
        let page = pages[slot].clone();
        let mut frame = Frame::new(block, pages);
        self.shared.frames.add(pages_in_block);
        let mut released = 0;
        let mut frames = lock_unpoisoned(&handle.frames);
        // Marks made on an earlier copy of this block carry over: a short
        // or concurrently fetched frame still here, or one the FIFO pushed
        // out under a scan that is now back for the rest.
        if let Some(at) = frames.entries.iter().position(|f| f.block == block) {
            let old = frames.entries.remove(at);
            frame.inherit(&old.served);
            released += old.pages.len();
        } else if let Some(marks) = frames.parked.remove(&block) {
            frame.inherit(&marks);
        }
        if frame.serve(slot) {
            released += frame.pages.len();
        } else {
            if frames.entries.len() >= FRAME_CACHE_BLOCKS {
                let oldest = frames.entries.remove(0);
                released += oldest.pages.len();
                frames.parked.insert(oldest.block, oldest.served);
            }
            frames.entries.push(frame);
        }
        drop(frames);
        self.shared.frames.sub(released);
        Ok(page)
    }
}

impl Drop for FileDevice {
    fn drop(&mut self) {
        if self.remove_dir_on_drop {
            let _ = fs::remove_dir_all(&self.dir);
        } else {
            // Persistent directory: make the write-behind tail durable, and
            // give every file on reused storage its name.
            let _ = self.flush();
            for shard in &self.shards {
                for handle in read_unpoisoned(shard).values().filter(|h| h.reused) {
                    let _ = handle.write_out();
                }
            }
        }
    }
}

impl BlockDevice for FileDevice {
    fn create_file(&self) -> FileId {
        let id = FileId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let path = self.dir.join(format!("{}-f{}.pages", self.prefix, id.0));
        // A freed inode if there is one; else the eager open, the one
        // open() of the file's lifetime. If that fails (fd pressure), the
        // handle retries on first I/O.
        let file = self.shared.reuse();
        let reused = file.is_some();
        let file = file.or_else(|| FileHandle::open_backing(&path).ok());
        let handle = Arc::new(FileHandle {
            path,
            reused,
            file: RwLock::new(file.map(Arc::new)),
            append: Mutex::new(AppendState::default()),
            frames: Mutex::new(FrameCache::default()),
            deleted: AtomicBool::new(false),
            shared: self.shared.clone(),
        });
        write_unpoisoned(self.shard(id)).insert(id, handle);
        id
    }

    fn file_pages(&self, file: FileId) -> Result<usize> {
        let handle = self.handle(file)?;
        let st = lock_unpoisoned(&handle.append);
        Ok(st.durable_pages + st.buffered.len())
    }

    fn append_page(&self, file: FileId, page: &Page, kind: IoKind) -> Result<usize> {
        let handle = self.handle(file)?; // brief shard read-lock only
        let mut st = lock_unpoisoned(&handle.append);
        if st.durable_pages == 0 && st.buffered.is_empty() {
            st.page_size = page.size();
        } else if st.page_size != page.size() {
            return Err(StorageError::Io(format!(
                "file {file:?} stores {}-byte pages, got a {}-byte page",
                st.page_size,
                page.size()
            )));
        }
        if st.buffered.len() >= DEFAULT_PAGES_PER_BLOCK {
            // Flush *before* inserting: if the flush fails, this append has
            // touched nothing and counted nothing, so a retry is an exact
            // re-execution.
            self.flush_locked(&handle, &mut st)?;
        }
        st.buffered.push(Arc::new(page.clone()));
        self.shared.write_behind.add(1);
        self.block_stats
            .buffered_appends
            .fetch_add(1, Ordering::Relaxed);
        // Counted at logical acceptance (the page is readable from this
        // device from now on) — identical to SimDevice semantics.
        self.stats.record(kind);
        Ok(st.durable_pages + st.buffered.len() - 1)
    }

    fn read_page(&self, file: FileId, index: usize, kind: IoKind) -> Result<Arc<Page>> {
        let handle = self.handle(file)?;
        // Brief metadata peek under the append lock; buffered tail pages
        // are served straight from the write-behind buffer.
        let (page_size, durable) = {
            let st = lock_unpoisoned(&handle.append);
            let total = st.durable_pages + st.buffered.len();
            if index >= total {
                return Err(StorageError::PageOutOfBounds { index, len: total });
            }
            if index >= st.durable_pages {
                let page = st.buffered[index - st.durable_pages].clone();
                drop(st);
                self.stats.record(kind);
                return Ok(page);
            }
            (st.page_size, st.durable_pages)
        };
        // Durable page: positioned read outside every lock.
        let page = self.read_via_frames(&handle, index, page_size, durable, kind)?;
        self.stats.record(kind);
        Ok(page)
    }

    /// A no-op: the device holds no copy of a durable page once its
    /// read-ahead frame is released, and the disk space stays the file's
    /// until [`delete_file`](BlockDevice::delete_file).
    fn discard_page(&self, _file: FileId, _index: usize) -> Result<()> {
        Ok(())
    }

    fn delete_file(&self, file: FileId) -> Result<()> {
        let handle = write_unpoisoned(self.shard(file))
            .remove(&file)
            .ok_or(StorageError::UnknownFile(file))?;
        // The write-behind buffer and the read-ahead frames are discarded
        // with the handle — deleting a file is the one exit path where
        // "flush" means "drop the bytes" — and the storage goes to the free
        // list. Reused storage has no name; a fresh backing file may never
        // have been created (the eager open failed and no I/O retried it).
        handle.deleted.store(true, Ordering::Relaxed);
        if handle.reused {
            return Ok(());
        }
        match fs::remove_file(&handle.path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err(e)),
            _ => Ok(()),
        }
    }

    fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordLayout, RecordRef};

    fn page_with(keys: &[u64]) -> Page {
        let mut p = Page::empty(256, RecordLayout::new(8));
        for &k in keys {
            assert!(p.push_ref(RecordRef::new(k, &[0; 8])).unwrap());
        }
        p
    }

    fn keys_of(p: &Page) -> Vec<u64> {
        p.record_refs().map(|r| r.key()).collect()
    }

    /// A device holding one flushed file of `pages` single-record pages
    /// (page `k` holds key `k`), counters reset.
    fn scanned_file(pages: u64) -> (FileDevice, FileId) {
        let dev = FileDevice::new_temp().unwrap();
        let f = dev.create_file();
        append_keys(&dev, f, 0, pages);
        dev.flush().unwrap();
        dev.reset_stats();
        dev.reset_resident_peaks();
        (dev, f)
    }

    fn seq_read(dev: &FileDevice, f: FileId, index: usize) {
        let p = dev.read_page(f, index, IoKind::SeqRead).unwrap();
        assert_eq!(keys_of(&p), vec![index as u64]);
    }

    #[test]
    fn file_device_roundtrip_and_cleanup() {
        let dev = FileDevice::new_temp().unwrap();
        let dir = dev.dir().clone();
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[10, 20]), IoKind::SeqWrite)
            .unwrap();
        dev.append_page(f, &page_with(&[30]), IoKind::SeqWrite)
            .unwrap();
        assert_eq!(dev.file_pages(f).unwrap(), 2);
        let p = dev.read_page(f, 1, IoKind::SeqRead).unwrap();
        assert_eq!(keys_of(&p), vec![30]);
        assert_eq!(dev.stats().seq_writes, 2);
        assert_eq!(dev.stats().seq_reads, 1);
        dev.delete_file(f).unwrap();
        drop(dev);
        assert!(
            !dir.exists(),
            "temporary directory should be removed on drop"
        );
    }

    #[test]
    fn file_device_rejects_mixed_page_sizes_without_counting() {
        let dev = FileDevice::new_temp().unwrap();
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[1]), IoKind::SeqWrite)
            .unwrap();
        let other = Page::empty(512, RecordLayout::new(8));
        assert!(dev.append_page(f, &other, IoKind::SeqWrite).is_err());
        assert_eq!(dev.stats().seq_writes, 1, "rejected append must not count");
    }

    #[test]
    fn write_behind_coalesces_appends_into_block_writes() {
        let dev = FileDevice::new_temp().unwrap();
        let f = dev.create_file();
        for k in 0..20u64 {
            let idx = dev
                .append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
            assert_eq!(idx, k as usize);
        }
        // Flush-before-insert: appends 9 and 17 each flushed a full 8-page
        // block first, leaving 4 pages buffered.
        let bs = dev.block_stats();
        assert_eq!(bs.flushes, 2);
        assert_eq!(bs.physical_writes, 2);
        assert_eq!(bs.physical_write_pages, 16);
        assert_eq!(bs.buffered_appends, 20);
        // Buffered pages are readable before any flush.
        for k in 0..20u64 {
            let p = dev.read_page(f, k as usize, IoKind::RandRead).unwrap();
            assert_eq!(keys_of(&p), vec![k]);
        }
        dev.flush().unwrap();
        let bs = dev.block_stats();
        assert_eq!(bs.flushes, 3);
        assert_eq!(bs.physical_write_pages, 20);
        // Backing file is now exactly 20 pages long.
        let meta = fs::metadata(dev.backing_path(f).unwrap()).unwrap();
        assert_eq!(meta.len(), 20 * 256);
        // Modeled stats saw 20 page appends regardless of syscall shape.
        assert_eq!(dev.stats().seq_writes, 20);
    }

    #[test]
    fn sequential_scan_batches_physical_reads() {
        let (dev, f) = scanned_file(64);
        for k in 0..64 {
            seq_read(&dev, f, k);
            assert!(dev.resident_pages().frames <= 8, "one scan, one frame");
        }
        let bs = dev.block_stats();
        assert_eq!(bs.physical_reads, 8, "64 pages / 8-page blocks = 8 preads");
        assert_eq!(bs.physical_read_pages, 64);
        assert_eq!(bs.readahead_hits, 56);
        // Modeled stats are per page, untouched by batching.
        assert_eq!(dev.stats().seq_reads, 64);
        // Every frame went when its last page did.
        let resident = dev.resident_pages();
        assert_eq!(resident.frames, 0, "a finished scan keeps nothing");
        assert_eq!(resident.frames_peak, 8);
        assert_eq!((resident.write_behind, resident.write_behind_peak), (0, 0));
    }

    #[test]
    fn morsel_scans_sharing_a_block_fetch_it_once_and_end_at_zero() {
        // Two workers, 12-page morsels over 8-page blocks: block 1 holds
        // the tail of the first morsel and the head of the second.
        // Interleaved page by page, the second worker is handed block 1's
        // last slot (step 3) long before the first arrives there (step 8).
        let (dev, f) = scanned_file(24);
        for step in 0..12 {
            seq_read(&dev, f, step);
            seq_read(&dev, f, 12 + step);
            let live_blocks = match step {
                0..=3 => 2,  // 0 and 1
                4..=6 => 3,  // the second worker has moved on to block 2
                7..=10 => 2, // block 0 finished; 1 waits for the first worker
                _ => 0,      // both finish their blocks on the last step
            };
            assert_eq!(dev.resident_pages().frames, 8 * live_blocks, "{step}");
        }
        assert_eq!(dev.block_stats().physical_reads, 3, "no block twice");
        assert_eq!(dev.resident_pages().frames_peak, 24);
        assert_eq!(dev.stats().seq_reads, 24);
    }

    #[test]
    fn two_full_scans_in_lockstep_both_see_every_page() {
        // Not a pattern the joins produce (each page is read once per
        // pass), but it must stay correct and bounded: the second reader
        // of a block's last page finds the frame gone and leaves a
        // part-served one behind, which the FIFO caps.
        let (dev, f) = scanned_file(64);
        for k in 0..64 {
            seq_read(&dev, f, k);
            seq_read(&dev, f, k);
            assert!(dev.resident_pages().frames <= 8 * FRAME_CACHE_BLOCKS);
        }
        assert_eq!(dev.stats().seq_reads, 128);
        assert_eq!(dev.block_stats().physical_reads, 16, "8 blocks, twice");
        dev.delete_file(f).unwrap();
        assert_eq!(dev.resident_pages().frames, 0);
    }

    #[test]
    fn abandoned_scans_are_bounded_by_the_fifo_and_go_with_the_file() {
        let (dev, f) = scanned_file(64);
        // One scan stops three pages into block 1: block 0 is gone, block 1
        // is the one frame left.
        for k in 0..11 {
            seq_read(&dev, f, k);
        }
        assert_eq!(dev.resident_pages().frames, 8);
        // Six more scans each abandon a block of their own.
        for block in 2..8 {
            seq_read(&dev, f, block * 8);
            let frames = dev.resident_pages().frames;
            assert_eq!(frames, 8 * (block).min(FRAME_CACHE_BLOCKS));
        }
        assert_eq!(
            dev.resident_pages().frames_peak,
            8 * (FRAME_CACHE_BLOCKS + 1)
        );
        // The first scan comes back for the rest of block 1 after the FIFO
        // pushed its frame out: one more pread, and its marks were kept, so
        // the refetched frame is released when the block is finished.
        let preads = dev.block_stats().physical_reads;
        for k in 11..16 {
            seq_read(&dev, f, k);
        }
        assert_eq!(dev.block_stats().physical_reads, preads + 1);
        assert_eq!(dev.resident_pages().frames, 8 * (FRAME_CACHE_BLOCKS - 1));
        dev.delete_file(f).unwrap();
        assert_eq!(dev.resident_pages().frames, 0, "delete_file drops them");
    }

    #[test]
    fn more_scans_than_fifo_slots_still_end_at_zero() {
        // Six workers, one block each, advancing in lockstep: the FIFO of
        // four pushes frames out from under scans that are still inside
        // them. That costs preads (as it always has), but the parked marks
        // mean every block is still released once its eight pages are out.
        let (dev, f) = scanned_file(48);
        for slot in 0..8 {
            for worker in 0..6 {
                seq_read(&dev, f, worker * 8 + slot);
                assert!(dev.resident_pages().frames <= 8 * FRAME_CACHE_BLOCKS);
            }
        }
        assert_eq!(dev.stats().seq_reads, 48);
        assert_eq!(dev.resident_pages().frames, 0);
        let handle = dev.handle(f).unwrap();
        assert!(lock_unpoisoned(&handle.frames).parked.is_empty());
    }

    #[test]
    fn short_tail_frame_is_complete_at_its_own_length() {
        let (dev, f) = scanned_file(10);
        for k in 0..10 {
            seq_read(&dev, f, k);
        }
        assert_eq!(dev.block_stats().physical_reads, 2);
        assert_eq!(dev.block_stats().physical_read_pages, 10);
        assert_eq!(
            dev.resident_pages().frames,
            0,
            "a finished file keeps nothing"
        );
        // The file grows afterwards: the new pages are fetched, not
        // reported out of bounds.
        for k in 10..12u64 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        dev.flush().unwrap();
        seq_read(&dev, f, 10);
        seq_read(&dev, f, 11);
    }

    #[test]
    fn discarding_a_page_is_a_no_op_on_files() {
        // Durable pages and a write-behind tail page alike stay readable:
        // the disk space comes back at `delete_file`.
        let (dev, f) = scanned_file(3);
        dev.append_page(f, &page_with(&[3]), IoKind::SeqWrite)
            .unwrap();
        dev.reset_stats();
        for k in 0..4 {
            dev.discard_page(f, k).unwrap();
        }
        assert_eq!(dev.stats().total(), 0);
        for k in 0..4 {
            let p = dev.read_page(f, k, IoKind::RandRead).unwrap();
            assert_eq!(keys_of(&p), vec![k as u64]);
        }
    }

    #[test]
    fn write_behind_gauge_follows_the_tails() {
        let dev = FileDevice::new_temp().unwrap();
        let (f, g) = (dev.create_file(), dev.create_file());
        for k in 0..12u64 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
            dev.append_page(g, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        // Each file flushed one 8-page block and buffers four pages.
        let resident = dev.resident_pages();
        assert_eq!((resident.write_behind, resident.write_behind_peak), (8, 16));
        dev.flush_file(f).unwrap();
        assert_eq!(dev.resident_pages().write_behind, 4);
        dev.delete_file(g).unwrap();
        assert_eq!(dev.resident_pages().write_behind, 0, "tail discarded");
        assert_eq!(dev.live_files(), 1);
    }

    #[test]
    fn frame_cache_refreshes_short_frames_after_growth() {
        let dev = FileDevice::new_temp().unwrap();
        let f = dev.create_file();
        for k in 0..10u64 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        dev.flush().unwrap();
        // Fill the frame for block 1 while it holds 2 of 8 pages.
        assert_eq!(keys_of(&dev.read_page(f, 8, IoKind::SeqRead).unwrap()), [8]);
        for k in 10..16u64 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        dev.flush().unwrap();
        // Slot 7 of block 1 predates the frame: it must be refreshed, not
        // reported out of bounds.
        assert_eq!(
            keys_of(&dev.read_page(f, 15, IoKind::SeqRead).unwrap()),
            [15]
        );
    }

    #[test]
    fn random_reads_do_not_fill_the_frame_cache() {
        let dev = FileDevice::new_temp().unwrap();
        let f = dev.create_file();
        for k in 0..16u64 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        dev.flush().unwrap();
        for k in 0..16u64 {
            let p = dev.read_page(f, k as usize, IoKind::RandRead).unwrap();
            assert_eq!(keys_of(&p), vec![k]);
        }
        let bs = dev.block_stats();
        assert_eq!(bs.physical_reads, 16, "random misses stay single-page");
        assert_eq!(bs.readahead_hits, 0);
        assert_eq!(dev.stats().rand_reads, 16);
        assert_eq!(dev.resident_pages().frames_peak, 0, "and hold no frame");
    }

    #[test]
    fn torn_flush_retains_buffer_and_retry_recovers() {
        let dev = FileDevice::builder().torn_append_after(0).build().unwrap();
        let f = dev.create_file();
        for k in 0..8u64 {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        // The ninth append must flush the full 8-page block first; the
        // flush is torn, so the append fails without counting or buffering
        // page 8.
        let err = dev
            .append_page(f, &page_with(&[8]), IoKind::SeqWrite)
            .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert_eq!(dev.stats().seq_writes, 8);
        assert_eq!(dev.file_pages(f).unwrap(), 8);
        let len = fs::metadata(dev.backing_path(f).unwrap()).unwrap().len();
        assert_eq!(len, 0, "torn flush truncated back to the durable boundary");
        assert_eq!(dev.block_stats().torn_writes_repaired, 1);
        // Buffered pages survived the failed flush and are still readable.
        for k in [0u64, 7] {
            let p = dev.read_page(f, k as usize, IoKind::RandRead).unwrap();
            assert_eq!(keys_of(&p), [k]);
        }
        // Retrying the append re-drives the flush, which now succeeds.
        let idx = dev
            .append_page(f, &page_with(&[8]), IoKind::SeqWrite)
            .unwrap();
        assert_eq!(idx, 8);
        dev.flush().unwrap();
        for k in 0..9u64 {
            let p = dev.read_page(f, k as usize, IoKind::SeqRead).unwrap();
            assert_eq!(keys_of(&p), vec![k]);
        }
        assert_eq!(dev.stats().seq_writes, 9);
    }

    #[test]
    fn two_devices_share_a_directory_without_colliding() {
        let host = FileDevice::new_temp().unwrap();
        let dir = host.dir().clone();
        let a = FileDevice::at_dir(dir.clone()).unwrap();
        let b = FileDevice::at_dir(dir.clone()).unwrap();
        let fa = a.create_file();
        let fb = b.create_file();
        assert_eq!(fa, fb, "both instances assign FileId(0)");
        a.append_page(fa, &page_with(&[1]), IoKind::SeqWrite)
            .unwrap();
        b.append_page(fb, &page_with(&[2]), IoKind::SeqWrite)
            .unwrap();
        assert_ne!(
            a.backing_path(fa).unwrap(),
            b.backing_path(fb).unwrap(),
            "same FileId, disjoint namespaces"
        );
        assert_eq!(keys_of(&a.read_page(fa, 0, IoKind::SeqRead).unwrap()), [1]);
        assert_eq!(keys_of(&b.read_page(fb, 0, IoKind::SeqRead).unwrap()), [2]);
    }

    #[test]
    fn external_truncation_fails_reads_without_counting() {
        let dev = FileDevice::new_temp().unwrap();
        let f = dev.create_file();
        dev.append_page(f, &page_with(&[7]), IoKind::SeqWrite)
            .unwrap();
        dev.flush().unwrap();
        // Simulate on-disk damage behind the device's back.
        let path = dev.backing_path(f).unwrap();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(100).unwrap();
        drop(file);
        dev.reset_stats();
        let err = dev.read_page(f, 0, IoKind::SeqRead).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert_eq!(
            dev.stats().total(),
            0,
            "a failed read syscall must not be counted"
        );
    }

    #[test]
    fn sync_policies_issue_sync_syscalls_per_batch() {
        for (policy, expect_syncs) in [(SyncPolicy::None, 0), (SyncPolicy::Sync, 2)] {
            let dev = FileDevice::builder().sync_policy(policy).build().unwrap();
            let f = dev.create_file();
            // The ninth append flushes the first block, `flush` the tail.
            for k in 0..9u64 {
                dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                    .unwrap();
            }
            dev.flush().unwrap();
            assert_eq!(dev.block_stats().syncs, expect_syncs, "{policy:?}");
            assert_eq!(dev.sync_policy(), policy);
        }
    }

    #[test]
    fn delete_file_discards_buffered_pages_and_backing_file() {
        let dev = FileDevice::new_temp().unwrap();
        // `g` is created before `f` goes, so it has a backing file of its
        // own rather than `f`'s unnamed storage.
        let (f, g) = (dev.create_file(), dev.create_file());
        dev.append_page(f, &page_with(&[1]), IoKind::RandWrite)
            .unwrap();
        let path = dev.backing_path(f).unwrap();
        dev.delete_file(f).unwrap();
        assert!(!path.exists());
        assert!(matches!(
            dev.file_pages(f),
            Err(StorageError::UnknownFile(_))
        ));
        assert!(dev.delete_file(f).is_err());
        // A backing file that is already gone is not an error: one unlink,
        // `NotFound` means there was nothing left to remove.
        fs::remove_file(dev.backing_path(g).unwrap()).unwrap();
        dev.delete_file(g).unwrap();
    }

    /// `pages` single-record pages with keys `first..first + pages`.
    fn append_keys(dev: &FileDevice, f: FileId, first: u64, pages: u64) {
        for k in first..first + pages {
            dev.append_page(f, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
    }

    /// The length of the inode under a live file.
    fn inode_len(dev: &FileDevice, f: FileId) -> u64 {
        let handle = dev.handle(f).unwrap();
        let file = read_unpoisoned(&handle.file).clone().unwrap();
        file.metadata().unwrap().len()
    }

    #[test]
    fn reused_storage_never_shows_the_old_bytes() {
        let (dev, f) = scanned_file(20);
        dev.delete_file(f).unwrap();
        assert_eq!(dev.recycled_storage().files, 1);
        let g = dev.create_file();
        assert_eq!(dev.recycled_storage().reuses, 1);
        assert_eq!(dev.backing_path(g), None, "reused storage has no name");
        assert_eq!(inode_len(&dev, g), 20 * 256, "the old pages are there");
        append_keys(&dev, g, 100, 3);
        assert_eq!(dev.file_pages(g).unwrap(), 3);
        let read = |index, kind| dev.read_page(g, index, kind);
        let out_of_bounds = |kind| {
            let err = read(3, kind).unwrap_err();
            assert!(matches!(
                err,
                StorageError::PageOutOfBounds { index: 3, len: 3 }
            ));
        };
        // The write-behind tail, then the same pages once durable.
        for k in 0..3 {
            assert_eq!(
                keys_of(&read(k, IoKind::RandRead).unwrap()),
                [100 + k as u64]
            );
        }
        out_of_bounds(IoKind::SeqRead);
        dev.flush().unwrap();
        let before = dev.block_stats().physical_read_pages;
        for kind in [IoKind::SeqRead, IoKind::RandRead] {
            for k in 0..3 {
                assert_eq!(keys_of(&read(k, kind).unwrap()), [100 + k as u64]);
            }
        }
        assert_eq!(
            dev.block_stats().physical_read_pages - before,
            3 + 3,
            "one frame clipped to the three durable pages, three single reads"
        );
        out_of_bounds(IoKind::SeqRead);
        out_of_bounds(IoKind::RandRead);
    }

    #[test]
    fn free_list_stays_within_the_live_high_water_mark() {
        let dev = FileDevice::new_temp().unwrap();
        let page = 256;
        let write = |f, pages| {
            append_keys(&dev, f, 0, pages);
            dev.flush_file(f).unwrap();
        };
        let free = |files, pages, reuses| RecycledStorage {
            files,
            bytes: pages * page,
            bound: 10 * page,
            reuses,
        };
        // Two live five-page files: the high-water mark is ten pages.
        let (a, c) = (dev.create_file(), dev.create_file());
        write(a, 5);
        write(c, 5);
        dev.delete_file(a).unwrap();
        dev.delete_file(c).unwrap();
        assert_eq!(dev.recycled_storage(), free(2, 10, 0));
        // `b` takes `c`'s inode and grows to the whole mark; `a`'s five
        // pages plus `b`'s ten would exceed it, so `b`'s storage is closed.
        let b = dev.create_file();
        write(b, 10);
        dev.delete_file(b).unwrap();
        assert_eq!(dev.recycled_storage(), free(1, 5, 1));
        // `d` takes `a`'s five-page inode, writes two pages, and the inode
        // is cut to those two when `d` goes.
        let d = dev.create_file();
        assert_eq!(inode_len(&dev, d), 5 * page as u64);
        write(d, 2);
        dev.delete_file(d).unwrap();
        assert_eq!(dev.recycled_storage(), free(1, 2, 2));
        let (inode, bytes) = &lock_unpoisoned(&dev.shared.free).files[0];
        assert_eq!((inode.metadata().unwrap().len(), *bytes), (512, 512));
    }

    #[test]
    fn a_torn_flush_on_reused_storage_recovers() {
        // Three writes for the 20-page file (blocks at appends 9 and 17,
        // then the flush); the fourth, on the reused inode, is torn.
        let dev = FileDevice::builder().torn_append_after(3).build().unwrap();
        let f = dev.create_file();
        append_keys(&dev, f, 0, 20);
        dev.flush().unwrap();
        dev.delete_file(f).unwrap();
        let g = dev.create_file();
        assert_eq!(dev.recycled_storage().reuses, 1);
        append_keys(&dev, g, 100, 8);
        let err = dev
            .append_page(g, &page_with(&[108]), IoKind::SeqWrite)
            .unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert_eq!(dev.block_stats().torn_writes_repaired, 1);
        assert_eq!(dev.file_pages(g).unwrap(), 8);
        assert_eq!(inode_len(&dev, g), 0, "cut back to the durable boundary");
        assert_eq!(
            dev.append_page(g, &page_with(&[108]), IoKind::SeqWrite)
                .unwrap(),
            8
        );
        dev.flush().unwrap();
        for k in 0..9 {
            let p = dev.read_page(g, k, IoKind::SeqRead).unwrap();
            assert_eq!(keys_of(&p), [100 + k as u64]);
        }
        assert!(dev.read_page(g, 9, IoKind::RandRead).is_err());
    }

    #[test]
    fn an_at_dir_device_names_its_reused_files_when_it_drops() {
        let host = FileDevice::new_temp().unwrap();
        let dir = host.dir().join("kept");
        let dev = FileDevice::builder().at_dir(dir.clone()).build().unwrap();
        let f = dev.create_file();
        append_keys(&dev, f, 0, 20);
        dev.flush().unwrap();
        dev.delete_file(f).unwrap();
        // Ten pages on `f`'s storage: one block durable, two buffered.
        let g = dev.create_file();
        append_keys(&dev, g, 100, 10);
        assert_eq!(dev.backing_path(g), None);
        let path = dev.handle(g).unwrap().path.clone();
        drop(dev);
        let left: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(
            left,
            std::slice::from_ref(&path),
            "g under its own name, f gone"
        );
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 10 * 256, "exactly g's pages");
        for (k, chunk) in bytes.chunks_exact(256).enumerate() {
            let p = Page::from_bytes(chunk.to_vec()).unwrap();
            assert_eq!(keys_of(&p), [100 + k as u64]);
        }
    }

    #[test]
    fn concurrent_readers_and_appenders_stay_consistent() {
        let dev: DeviceRef = FileDevice::builder().build_ref().unwrap();
        let shared = dev.create_file();
        for k in 0..32u64 {
            dev.append_page(shared, &page_with(&[k]), IoKind::SeqWrite)
                .unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..4 {
                let dev = dev.clone();
                scope.spawn(move || {
                    let own = dev.create_file();
                    for i in 0..32 {
                        let p = dev.read_page(shared, i, IoKind::SeqRead).unwrap();
                        assert_eq!(keys_of(&p), vec![i as u64]);
                        dev.append_page(own, &page_with(&[t as u64]), IoKind::RandWrite)
                            .unwrap();
                    }
                    for i in 0..32 {
                        let p = dev.read_page(own, i, IoKind::RandRead).unwrap();
                        assert_eq!(keys_of(&p), vec![t as u64]);
                    }
                    dev.delete_file(own).unwrap();
                });
            }
        });
        let s = dev.stats();
        assert_eq!(s.seq_reads, 4 * 32);
        assert_eq!(s.rand_reads, 4 * 32);
        assert_eq!(s.rand_writes, 4 * 32);
        assert_eq!(s.seq_writes, 32);
    }
}
