//! The on-disk write-ahead log: segmented, checksummed, checkpointed,
//! group-committed.
//!
//! ## Layout
//!
//! A WAL directory holds, at any moment, files of one *generation* `G`
//! (plus possibly stale leftovers from a crash mid-checkpoint):
//!
//! ```text
//! checkpoint-0000000003-0000000000000217.snap   # gen 3, taken at LSN 217
//! segment-0000000003-00000.wal                  # ops 217.. of gen 3
//! segment-0000000003-00001.wal                  # rotated continuation
//! ```
//!
//! Segment files are streams of [`frame`]-encoded `LogOp` JSON lines; a
//! checkpoint file is a single frame wrapping a [`Snapshot`] JSON body.
//! The LSN (log sequence number) counts ops since the directory was
//! born; a checkpoint's filename records the LSN it covers, so recovery
//! knows the base without reading deleted generations.
//!
//! ## One way in: buffer, then flush
//!
//! [`DiskWal::append`] only frames the record, stamps it with the next
//! LSN, and pushes it onto an in-memory pending queue. It does no I/O
//! under any policy, so callers holding an engine lock pay only a
//! queue push; the caller's lock still orders LSN assignment, so the
//! log stays deterministic and replication LSNs are unchanged.
//!
//! Records reach disk in exactly three places, all through one flush
//! cycle (steal the pending batch, write it with one coalesced append
//! per segment, fsync once, advance the published **durable
//! watermark**): the dedicated flusher thread
//! ([`DiskWal::start_flusher`]), a [`DiskWal::wait_durable`] caller
//! serving its own flush, and [`DiskWal::sync`] / checkpoints. The
//! flusher closes a batch when `max_batch` unit-ending records
//! (commits, aborts, clock advances) are pending or the oldest record
//! has waited `max_delay`. [`FsyncPolicy::Never`] runs the same
//! pipeline with the per-batch fsync skipped.
//!
//! ## The durable watermark and the ack rule
//!
//! [`DiskWal::durable_lsn`] publishes one past the highest LSN a flush
//! has covered: it advances only when a batch is written and (unless
//! the policy is `Never`) fsynced, so a record below the watermark can
//! never be lost to a crash (under `Never`, only to an OS crash).
//! Commit paths buffer under their own lock, release it, then block on
//! [`DiskWal::wait_durable`] — acking only after durability, with the
//! fsync cost shared by every transaction in the batch. Replication
//! ships only records below the watermark.
//!
//! A failed flush poisons the WAL: nothing is written after it. It
//! also records how far its bytes may have reached the file, so
//! `wait_durable` can tell a record that never reached it
//! ([`WalError::Poisoned`]) from one recovery may restore
//! ([`WalError::InDoubt`]).
//!
//! ## Lock order
//!
//! Internally the WAL splits into three locks, always taken in this
//! order: `buf` (pending queue + LSN assignment) → `disk` (segment
//! files, rotation, checkpoint installation) → `durable` (the
//! watermark). Appends take `buf` alone. A flush takes `buf` + `disk`
//! to steal the pending batch, releases `buf`, and does the I/O under
//! `disk` alone — so appends proceed while the fsync runs.
//! [`DiskWal::frozen`] takes `buf` + `disk` together, giving callers
//! (the replication handshake) a moment when no append, flush, or
//! checkpoint is in flight.
//!
//! ## Checkpointing without a window of no-return
//!
//! `checkpoint()` first flushes (and ships) any pending records — the
//! replication stream must never skip an LSN — then writes the snapshot
//! to `checkpoint.tmp`, fsyncs, renames it to its final
//! generation-stamped name, fsyncs the directory, and only then deletes
//! the previous generation's files. A crash anywhere in that sequence
//! leaves either (a) the old generation fully intact (tmp is ignored by
//! recovery) or (b) the new checkpoint durable plus stale older files
//! that recovery skips and sweeps.
//!
//! ## Recovery
//!
//! [`DiskWal::open`] *is* recovery: one [`SegmentReader::scan`] finds
//! the newest readable checkpoint and that generation's records (the
//! torn-tail rule lives there alone: a damaged final frame is reported,
//! interior damage is a hard error), the records are parsed into ops in
//! order, the reported torn tail is truncated, and a
//! [`Recovery`] is returned for the caller to feed into a
//! schema-bearing [`Database`]. Opening an empty directory is simply a
//! recovery of nothing. Records that were buffered but never flushed do
//! not survive a crash — which is exactly why the ack rule above waits
//! for the watermark.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::Database;
use crate::error::OdeError;
use crate::persist::Snapshot;
use crate::wal::{replay, LogOp};

use super::archive::{self, ArchiveDrainReport};
use super::frame;
use super::io::SharedIo;
use super::reader::{
    checkpoint_name, parse_checkpoint, parse_segment, segment_name, SegmentReader, TMP_NAME,
};

/// When flushed batches are forced to stable storage. Every policy
/// runs the same buffer → flush pipeline; they differ only in when a
/// batch closes and whether it is fsynced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Flush every pending record as soon as possible but never fsync
    /// the batch. Sealing a full segment still fsyncs it, and
    /// [`DiskWal::sync`] and checkpoints still sync, so only the current
    /// segment is ever left unsynced. An OS crash can lose that
    /// suffix; a process crash cannot lose anything flushed.
    Never,
    /// Group commit: buffer appends in memory and make them durable in
    /// batches — one write, one fsync — releasing every waiting
    /// committer at once. A flush happens when `max_batch` transaction
    /// boundaries are pending or the oldest pending record has waited
    /// `max_delay`, whichever comes first. Committers must ack only
    /// after [`DiskWal::wait_durable`]; `max_delay` bounds their
    /// latency. [`FsyncPolicy::commit`] is the batch-of-one form.
    Group {
        /// Flush once this many unit-ending records
        /// ([`LogOp::ends_txn`]) are pending. Clamped to at least 1.
        max_batch: usize,
        /// Flush once the oldest pending record has waited this long.
        max_delay: Duration,
    },
}

impl FsyncPolicy {
    /// One fsync per transaction boundary, with no batching delay: the
    /// `commit` form of `--fsync` and the [`WalConfig`] default.
    pub fn commit() -> Self {
        FsyncPolicy::Group {
            max_batch: 1,
            max_delay: Duration::ZERO,
        }
    }

    /// A `Group` policy with defaults that suit interactive servers:
    /// batches of up to 64 commits, flushed at most 2ms after the
    /// oldest buffered record — small enough that a lone committer
    /// barely notices, large enough that concurrent committers share
    /// fsyncs.
    pub fn default_group() -> Self {
        FsyncPolicy::Group {
            max_batch: 64,
            max_delay: Duration::from_millis(2),
        }
    }

    /// When a batch closes: `(max_batch, max_delay)`. `Never` flushes
    /// whatever is pending at once.
    fn batch_params(&self) -> (usize, Duration) {
        match *self {
            FsyncPolicy::Never => (usize::MAX, Duration::ZERO),
            FsyncPolicy::Group {
                max_batch,
                max_delay,
            } => (max_batch.max(1), max_delay),
        }
    }

    /// Upper bound a parsed `group:BATCH:DELAYMS` delay may take.
    /// `max_delay` is the worst-case ack latency of every committer in a
    /// batch; past a few seconds it stops being group commit and starts
    /// being a hang, so [`FsyncPolicy::parse`] refuses it.
    pub const MAX_GROUP_DELAY_MS: u64 = 10_000;

    /// Parse a `--fsync` operand: `commit`, `never`, `group`, or
    /// `group:BATCH:DELAYMS`. Invalid specs return an error naming the
    /// offending piece instead of silently degrading durability: a
    /// batch of 0 would never flush on count (every committer would
    /// ride the delay timer), and a delay beyond
    /// [`FsyncPolicy::MAX_GROUP_DELAY_MS`] stalls every ack behind a
    /// sleeping flusher. The retired `always` and every-N forms are
    /// refused with a pointer to their replacements.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "commit" => return Ok(FsyncPolicy::commit()),
            "never" => return Ok(FsyncPolicy::Never),
            "group" => return Ok(FsyncPolicy::default_group()),
            "always" => {
                return Err(format!(
                    "fsync policy {s:?} is gone: acked commits are durable under `commit` \
                     (or `group` for shared fsyncs)"
                ))
            }
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("group:") {
            let mut parts = rest.split(':');
            let batch = parts.next().unwrap_or("");
            let delay = parts
                .next()
                .ok_or_else(|| format!("fsync policy {s:?}: expected group:BATCH:DELAYMS"))?;
            if parts.next().is_some() {
                return Err(format!(
                    "fsync policy {s:?}: expected exactly group:BATCH:DELAYMS"
                ));
            }
            let max_batch: usize = batch
                .parse()
                .map_err(|_| format!("fsync policy {s:?}: BATCH {batch:?} is not a number"))?;
            if max_batch == 0 {
                return Err(format!(
                    "fsync policy {s:?}: a batch of 0 would never flush on count; use BATCH >= 1"
                ));
            }
            let delay_ms: u64 = delay
                .parse()
                .map_err(|_| format!("fsync policy {s:?}: DELAYMS {delay:?} is not a number"))?;
            if delay_ms > Self::MAX_GROUP_DELAY_MS {
                return Err(format!(
                    "fsync policy {s:?}: a {delay_ms}ms flush delay stalls every commit ack; \
                     the maximum is {}ms",
                    Self::MAX_GROUP_DELAY_MS
                ));
            }
            return Ok(FsyncPolicy::Group {
                max_batch,
                max_delay: Duration::from_millis(delay_ms),
            });
        }
        if s.parse::<u64>().is_ok() {
            return Err(format!(
                "fsync policy {s:?}: every-N-ops is gone; use `commit`, or \
                 `group:BATCH:DELAYMS` to share fsyncs"
            ));
        }
        Err(format!(
            "fsync policy {s:?}: expected commit|group|group:BATCH:DELAYMS|never"
        ))
    }
}

/// Tuning knobs for a [`DiskWal`].
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
    /// Archive swept segments (compressed, under `archive/`) instead of
    /// deleting them. A checkpoint then only *retires* superseded files
    /// to a queue; an archiver ([`DiskWal::start_archiver`], or a test
    /// calling [`DiskWal::archive_now`]) compresses and unlinks them
    /// off the checkpoint path.
    pub archive: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 * 1024 * 1024,
            fsync: FsyncPolicy::commit(),
            archive: false,
        }
    }
}

/// Durability-layer errors.
#[derive(Debug)]
pub enum WalError {
    /// An I/O operation failed.
    Io(String),
    /// The log is damaged in a way a crash cannot explain.
    Corrupt(String),
    /// A previous failure latched the WAL read-only; the message names
    /// the original error. A record this reports on never reached the
    /// file, so recovery cannot restore it.
    Poisoned(String),
    /// The flush covering the record failed after some of its bytes
    /// may have reached the file (a write that landed, then a failed
    /// fsync): recovery may or may not restore it. The WAL is poisoned;
    /// the message names the original error.
    InDoubt(String),
    /// Snapshot/log (de)serialization or replay failed.
    Logical(OdeError),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(m) => write!(f, "wal io error: {m}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
            WalError::Poisoned(m) => write!(f, "wal poisoned: {m}"),
            WalError::InDoubt(m) => write!(f, "wal outcome in doubt: {m}"),
            WalError::Logical(e) => write!(f, "wal logical error: {e}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

impl From<OdeError> for WalError {
    fn from(e: OdeError) -> Self {
        WalError::Logical(e)
    }
}

/// How recovery spent its time (see `WireStats` on the server for the
/// aggregated view).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Wall-clock microseconds for the whole scan + parse + assemble.
    pub total_us: u64,
}

/// What [`DiskWal::open`] reconstructed from disk.
pub struct Recovery {
    /// The checkpoint image, if any generation had one.
    pub snapshot: Option<Snapshot>,
    /// Ops logged after the checkpoint, in order.
    pub ops: Vec<LogOp>,
    /// LSN the snapshot covers (0 without a checkpoint). The recovered
    /// database's total op count is `base_lsn + ops.len()`.
    pub base_lsn: u64,
    /// Whether a torn final frame was truncated away.
    pub truncated_tail: bool,
    /// How many live segment files were replayed.
    pub segments: usize,
    /// Where recovery spent its time.
    pub report: RecoveryReport,
}

impl Recovery {
    /// True when the directory held no durable state at all.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.ops.is_empty()
    }

    /// Apply this recovery to a database that already has the schema
    /// defined and an empty store: restore the snapshot (if any), then
    /// replay the tail. The database's emit output afterwards holds the
    /// firings regenerated by the tail replay (snapshots do not carry
    /// output); callers who only want post-recovery firings should drain
    /// it with `take_output`.
    pub fn restore_into(&self, db: &mut Database) -> Result<(), WalError> {
        if let Some(snap) = &self.snapshot {
            db.restore(snap)?;
        }
        replay(db, &self.ops)?;
        Ok(())
    }
}

/// One record made durable by a flush, as handed to the durable sink.
pub struct DurableRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The CRC-framed record bytes exactly as written to the segment.
    pub frame: Vec<u8>,
    /// Whether the record ends a unit of work ([`LogOp::ends_txn`]).
    pub ends_txn: bool,
}

/// Observer invoked (on the flushing thread, with the WAL's disk lock
/// held) after records become safe to ship — i.e. once the durable
/// watermark covers them. A replication shipper hangs off this: because
/// it only ever sees records at or below the watermark, a primary crash
/// can never have shipped a record that recovery then loses. The sink
/// must only enqueue; it must never call back into the WAL.
pub type DurableSink = Arc<dyn Fn(&[DurableRecord]) + Send + Sync>;

/// Counters describing the WAL's flush behavior (see `Stats` on the
/// server's wire protocol).
#[derive(Clone, Copy, Debug, Default)]
pub struct WalStats {
    /// Total fsyncs issued (batch flushes, segment seals, and
    /// checkpoint installation).
    pub fsyncs_total: u64,
    /// Flush cycles that wrote at least one record.
    pub group_commit_batches: u64,
    /// The most unit-ending records ([`LogOp::ends_txn`]) made durable
    /// by a single flush cycle — >1 proves batching engaged.
    pub group_commit_max_batch: u64,
    /// One past the highest LSN covered by the durable watermark.
    pub durable_lsn: u64,
}

/// What a checkpoint did, for operator-facing reporting.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointReport {
    /// The LSN the checkpoint covers.
    pub lsn: u64,
    /// Superseded segment files retired by the checkpoint (deleted by
    /// the deferred sweep, or archived then unlinked in archive mode).
    pub swept_segments: u64,
}

/// Lifetime archive progress of one WAL (see `WireStats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ArchiveStats {
    /// Segments made archive-durable (and unlinked) so far.
    pub segments_archived: u64,
    /// Total compressed archive bytes written.
    pub bytes_archived: u64,
    /// Segments swept but not yet durable in the archive (retire-queue
    /// depth plus any segment mid-archive right now).
    pub lag_segments: u64,
}

/// A framed record buffered between the assign-LSN step and its flush.
struct PendingRec {
    lsn: u64,
    frame: Vec<u8>,
    ends_txn: bool,
}

/// Pending queue + LSN assignment. Guarded by the first lock in the
/// order; held only for queue pushes and batch steals, never across
/// I/O.
struct BufState {
    next_lsn: u64,
    pending: Vec<PendingRec>,
    pending_txn_ends: usize,
    first_pending_at: Option<Instant>,
    stop: bool,
}

/// Segment-file state. Guarded by the second lock; held across the
/// write + fsync of a flush, so flushes, checkpoints, and the
/// replication handshake serialize without blocking appends.
struct DiskState {
    generation: u64,
    seg_idx: u64,
    seg_bytes: u64,
}

/// The published watermark. Guarded by the last lock, paired with the
/// condvar that releases durability waiters.
struct DurableState {
    durable_lsn: u64,
    poison: Option<String>,
    /// One past the last LSN the failed flush may have put in the
    /// file: records from `durable_lsn` up to here are in doubt, the
    /// rest never reached it.
    in_doubt_upto: u64,
}

/// Files a checkpoint superseded, awaiting the deferred sweep (delete
/// in plain mode, archive-then-unlink in archive mode). Outside the
/// buf/disk lock order: pushed under it at checkpoint time, drained
/// with no WAL lock held.
struct RetireQueue {
    names: Vec<String>,
    stop: bool,
}

struct WalInner {
    io: SharedIo,
    dir: PathBuf,
    cfg: WalConfig,
    buf: Mutex<BufState>,
    /// Wakes the flusher thread; paired with `buf`.
    flush_cv: Condvar,
    disk: Mutex<DiskState>,
    durable: Mutex<DurableState>,
    /// Releases `wait_durable` callers; paired with `durable`.
    durable_cv: Condvar,
    on_durable: Mutex<Option<DurableSink>>,
    poisoned: AtomicBool,
    flusher_running: AtomicBool,
    fsyncs_total: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    retired: Mutex<RetireQueue>,
    /// Wakes the archiver thread; paired with `retired`.
    retire_cv: Condvar,
    archiver_running: AtomicBool,
    archived_segments: AtomicU64,
    archived_bytes: AtomicU64,
    /// Segments taken off the queue and being archived right now.
    archive_inflight: AtomicU64,
}

/// Non-poisoning lock helper (a panicked holder just releases).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// An open, append-ready on-disk WAL. Cheap to clone — clones share the
/// same directory, queue, and watermark. See the module docs for the
/// two-phase pipeline and crash-safety arguments.
#[derive(Clone)]
pub struct DiskWal {
    inner: Arc<WalInner>,
}

impl DiskWal {
    /// Open (and recover) a WAL directory: one [`SegmentReader::scan`]
    /// reads and frame-decodes the live generation, and its records are
    /// parsed into ops in LSN order. Always succeeds on an empty or
    /// cleanly-shut-down directory; tolerates a torn tail; fails with
    /// [`WalError::Corrupt`] on interior damage.
    pub fn open(dir: &Path, cfg: WalConfig, io: SharedIo) -> Result<(DiskWal, Recovery), WalError> {
        let t0 = Instant::now();
        io.with(|f| f.create_dir_all(dir))?;
        let scan = SegmentReader::scan(dir, &io)?;

        let snapshot = match &scan.checkpoint {
            Some(payload) => {
                let body = std::str::from_utf8(payload)
                    .map_err(|_| WalError::Corrupt("checkpoint: not utf-8".to_string()))?;
                Some(Snapshot::from_json(body)?)
            }
            None => None,
        };

        // Each payload is dropped once parsed, so the raw bytes shrink
        // as the ops grow.
        let ops = scan
            .records
            .into_iter()
            .map(|p| {
                let line = std::str::from_utf8(&p)
                    .map_err(|_| WalError::Corrupt("segment record: not utf-8".to_string()))?;
                Ok(LogOp::from_json_line(line)?)
            })
            .collect::<Result<Vec<_>, WalError>>()?;

        // Recovery repairs what the scan only classified: truncate the
        // torn tail so the damaged bytes never resurface.
        if let Some(torn) = &scan.torn {
            io.with(|f| f.truncate(&dir.join(&torn.name), torn.offset))?;
        }

        // Sweep debris: the tmp file and anything from older
        // generations. Best-effort — recovery already ignores these by
        // name. In archive mode, superseded segments and checkpoints
        // are *retired* instead (a crash between a checkpoint and its
        // archiver pass must not lose them); only the tmp file and
        // unexplainable future-generation files are deleted.
        let mut retired: Vec<String> = Vec::new();
        for n in &scan.stale {
            let old_seg = parse_segment(n).is_some_and(|(g, _)| g < scan.generation);
            let old_ckpt = parse_checkpoint(n).is_some_and(|(g, _)| g < scan.generation);
            if cfg.archive && (old_seg || old_ckpt) {
                retired.push(n.clone());
            } else {
                let _ = io.with(|f| f.remove(&dir.join(n)));
            }
        }

        let recovery = Recovery {
            snapshot,
            base_lsn: scan.base_lsn,
            truncated_tail: scan.torn.is_some(),
            segments: scan.segments.len(),
            ops,
            report: RecoveryReport {
                total_us: t0.elapsed().as_micros() as u64,
            },
        };
        let head = recovery.base_lsn + recovery.ops.len() as u64;
        // New appends go to a fresh segment so a truncated tail is
        // never appended into. Everything recovered is on disk, so the
        // watermark starts at the head.
        let wal = DiskWal {
            inner: Arc::new(WalInner {
                io,
                dir: dir.to_path_buf(),
                cfg,
                buf: Mutex::new(BufState {
                    next_lsn: head,
                    pending: Vec::new(),
                    pending_txn_ends: 0,
                    first_pending_at: None,
                    stop: false,
                }),
                flush_cv: Condvar::new(),
                disk: Mutex::new(DiskState {
                    generation: scan.generation,
                    seg_idx: scan.segments.len() as u64,
                    seg_bytes: 0,
                }),
                durable: Mutex::new(DurableState {
                    durable_lsn: head,
                    poison: None,
                    in_doubt_upto: head,
                }),
                durable_cv: Condvar::new(),
                on_durable: Mutex::new(None),
                poisoned: AtomicBool::new(false),
                flusher_running: AtomicBool::new(false),
                fsyncs_total: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                max_batch: AtomicU64::new(0),
                retired: Mutex::new(RetireQueue {
                    names: retired,
                    stop: false,
                }),
                retire_cv: Condvar::new(),
                archiver_running: AtomicBool::new(false),
                archived_segments: AtomicU64::new(0),
                archived_bytes: AtomicU64::new(0),
                archive_inflight: AtomicU64::new(0),
            }),
        };
        Ok((wal, recovery))
    }

    /// Next LSN to be assigned (== total ops this directory has seen).
    pub fn lsn(&self) -> u64 {
        lock(&self.inner.buf).next_lsn
    }

    /// One past the highest LSN a flush has covered (written, and
    /// fsynced unless the policy is `Never`). Records below this are
    /// safe to acknowledge and to ship to replicas.
    pub fn durable_lsn(&self) -> u64 {
        lock(&self.inner.durable).durable_lsn
    }

    /// Current checkpoint generation.
    pub fn generation(&self) -> u64 {
        lock(&self.inner.disk).generation
    }

    /// Flush-behavior counters plus the current watermark.
    pub fn stats(&self) -> WalStats {
        WalStats {
            fsyncs_total: self.inner.fsyncs_total.load(Ordering::Relaxed),
            group_commit_batches: self.inner.batches.load(Ordering::Relaxed),
            group_commit_max_batch: self.inner.max_batch.load(Ordering::Relaxed),
            durable_lsn: self.durable_lsn(),
        }
    }

    /// If a write or fsync has failed, the original error message. A
    /// poisoned WAL refuses further mutation; the database should be
    /// treated as read-only until re-opened.
    pub fn poisoned(&self) -> Option<String> {
        if !self.inner.poisoned.load(Ordering::SeqCst) {
            return None;
        }
        lock(&self.inner.durable).poison.clone()
    }

    /// Install (or clear) the durable sink (see [`DurableSink`]).
    pub fn set_durable_sink(&self, sink: Option<DurableSink>) {
        *lock(&self.inner.on_durable) = sink;
    }

    /// Run `f` while no append, flush, or checkpoint is in flight,
    /// passing the durable watermark. The replication handshake uses
    /// this to scan the log and register its subscriber without a gap
    /// or duplicate against the live shipping path.
    pub fn frozen<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let _buf = lock(&self.inner.buf);
        let _disk = lock(&self.inner.disk);
        let head = lock(&self.inner.durable).durable_lsn;
        f(head)
    }

    fn check_poison(&self) -> Result<(), WalError> {
        match self.poisoned() {
            Some(m) => Err(WalError::Poisoned(m)),
            None => Ok(()),
        }
    }

    /// Latch the failure and wake everyone who could be waiting on
    /// progress that will never come.
    fn poison<T>(&self, e: WalError) -> Result<T, WalError> {
        {
            let mut d = lock(&self.inner.durable);
            if d.poison.is_none() {
                d.poison = Some(e.to_string());
            }
        }
        self.inner.poisoned.store(true, Ordering::SeqCst);
        self.inner.durable_cv.notify_all();
        self.inner.flush_cv.notify_all();
        Err(e)
    }

    /// Append one op and return its assigned LSN: frame the record,
    /// stamp it with the next LSN, and queue it. No I/O happens here;
    /// durability arrives when a flush covers the record — ack only
    /// after [`DiskWal::wait_durable`].
    pub fn append(&self, op: &LogOp) -> Result<u64, WalError> {
        self.check_poison()?;
        let line = op.to_json_line()?;
        let frame = frame::encode(line.as_bytes());
        let ends_txn = op.ends_txn();

        let i = &*self.inner;
        let mut buf = lock(&i.buf);
        let lsn = buf.next_lsn;
        buf.next_lsn += 1;
        if ends_txn {
            buf.pending_txn_ends += 1;
        }
        if buf.first_pending_at.is_none() {
            buf.first_pending_at = Some(Instant::now());
        }
        buf.pending.push(PendingRec {
            lsn,
            frame,
            ends_txn,
        });
        drop(buf);
        i.flush_cv.notify_all();
        Ok(lsn)
    }

    /// Write a non-empty batch of framed records: segment rotation
    /// with seal-syncs, one coalesced append per segment run, and
    /// optionally one final fsync. On failure, also returns one past the
    /// last LSN whose bytes may have reached the file.
    fn write_batch(
        &self,
        disk: &mut DiskState,
        batch: &[PendingRec],
        final_fsync: bool,
    ) -> Result<(), (WalError, u64)> {
        let i = &*self.inner;
        let mut handed = batch[0].lsn;
        let mut run: Vec<u8> = Vec::new();
        for rec in batch {
            let projected = disk.seg_bytes + run.len() as u64 + rec.frame.len() as u64;
            if projected > i.cfg.segment_bytes && (disk.seg_bytes > 0 || !run.is_empty()) {
                // Seal the full segment: write the run, sync it, then
                // start the next.
                self.append_run(disk, &mut run, &mut handed, rec.lsn)?;
                self.fsync_segment(disk).map_err(|e| (e, handed))?;
                disk.seg_idx += 1;
                disk.seg_bytes = 0;
            }
            run.extend_from_slice(&rec.frame);
        }
        let end = batch[batch.len() - 1].lsn + 1;
        self.append_run(disk, &mut run, &mut handed, end)?;
        if final_fsync {
            self.fsync_segment(disk).map_err(|e| (e, handed))?;
        }
        Ok(())
    }

    /// Append `run` (the records below `end` not yet written) to the
    /// current segment and advance `handed` to `end`. A failed append
    /// re-reads the segment: only an unchanged length proves none of
    /// the run reached the file.
    fn append_run(
        &self,
        disk: &mut DiskState,
        run: &mut Vec<u8>,
        handed: &mut u64,
        end: u64,
    ) -> Result<(), (WalError, u64)> {
        if run.is_empty() {
            return Ok(());
        }
        let i = &*self.inner;
        let path = self.seg_path(disk);
        if let Err(e) = i.io.with(|f| f.append(&path, run)) {
            let untouched = match i.io.with(|f| f.read(&path)) {
                Ok(bytes) => bytes.len() as u64 == disk.seg_bytes,
                Err(r) => r.kind() == std::io::ErrorKind::NotFound && disk.seg_bytes == 0,
            };
            return Err((e.into(), if untouched { *handed } else { end }));
        }
        disk.seg_bytes += run.len() as u64;
        run.clear();
        *handed = end;
        Ok(())
    }

    fn fsync_segment(&self, disk: &DiskState) -> Result<(), WalError> {
        let path = self.seg_path(disk);
        self.inner.io.with(|f| f.fsync(&path))?;
        self.inner.fsyncs_total.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Advance the watermark to `upto`, release durability waiters, and
    /// hand the newly-covered records to the durable sink. Runs with
    /// the disk lock held so shipping stays serialized against the
    /// replication handshake.
    fn publish(
        &self,
        _disk: &mut DiskState,
        upto: u64,
        batch: Vec<PendingRec>,
        txn_ends: Option<usize>,
    ) {
        let i = &*self.inner;
        {
            let mut d = lock(&i.durable);
            if upto > d.durable_lsn {
                d.durable_lsn = upto;
            }
        }
        i.durable_cv.notify_all();
        if let Some(ends) = txn_ends {
            i.batches.fetch_add(1, Ordering::Relaxed);
            i.max_batch.fetch_max(ends as u64, Ordering::Relaxed);
        }
        if batch.is_empty() {
            return;
        }
        let sink = lock(&i.on_durable).clone();
        if let Some(sink) = sink {
            let records: Vec<DurableRecord> = batch
                .into_iter()
                .map(|r| DurableRecord {
                    lsn: r.lsn,
                    frame: r.frame,
                    ends_txn: r.ends_txn,
                })
                .collect();
            sink(&records);
        }
    }

    /// Steal a batch from the pending queue: everything when
    /// `drain_all` (or when no unit-ending record is pending — a
    /// delay-triggered flush), otherwise the prefix through the
    /// `max_batch`-th unit-ending record.
    fn steal(&self, buf: &mut BufState, drain_all: bool) -> Vec<PendingRec> {
        let take = if drain_all || buf.pending_txn_ends == 0 {
            buf.pending.len()
        } else {
            let (max_batch, _) = self.inner.cfg.fsync.batch_params();
            let mut ends = 0usize;
            let mut take = buf.pending.len();
            for (idx, r) in buf.pending.iter().enumerate() {
                if r.ends_txn {
                    ends += 1;
                    if ends >= max_batch {
                        take = idx + 1;
                        break;
                    }
                }
            }
            take
        };
        let batch: Vec<PendingRec> = buf.pending.drain(..take).collect();
        buf.pending_txn_ends -= batch.iter().filter(|r| r.ends_txn).count();
        buf.first_pending_at = if buf.pending.is_empty() {
            None
        } else {
            Some(Instant::now())
        };
        batch
    }

    /// One flush cycle: steal a pending batch (under `buf` + `disk`),
    /// release `buf`, write once + fsync once (under `disk`), publish
    /// the watermark. `force_fsync` syncs even under `Never` — and,
    /// with nothing pending, syncs what earlier `Never` flushes left
    /// unsynced in the current segment.
    fn flush_once(&self, drain_all: bool, force_fsync: bool) -> Result<(), WalError> {
        let i = &*self.inner;
        let mut buf = lock(&i.buf);
        let mut disk = lock(&i.disk);
        // Checked under `disk`: nothing may be written after a failed
        // flush, or a torn batch would become interior damage.
        self.check_poison()?;
        let batch = self.steal(&mut buf, drain_all);
        drop(buf); // appends may proceed while we do the I/O
        let never = i.cfg.fsync == FsyncPolicy::Never;
        if batch.is_empty() && force_fsync && never && disk.seg_bytes > 0 {
            if let Err(e) = self.fsync_segment(&disk) {
                return self.poison(e);
            }
        }
        self.land(&mut disk, batch, force_fsync || !never)
    }

    /// Write a stolen batch and publish it — the tail of every flush.
    /// A write failure poisons the WAL and records which of the batch's
    /// records are in doubt.
    fn land(
        &self,
        disk: &mut DiskState,
        batch: Vec<PendingRec>,
        fsync: bool,
    ) -> Result<(), WalError> {
        let Some(last) = batch.last() else {
            return Ok(());
        };
        let upto = last.lsn + 1;
        let ends = batch.iter().filter(|r| r.ends_txn).count();
        if let Err((e, in_doubt_upto)) = self.write_batch(disk, &batch, fsync) {
            lock(&self.inner.durable).in_doubt_upto = in_doubt_upto;
            return self.poison(e);
        }
        self.publish(disk, upto, batch, Some(ends));
        Ok(())
    }

    /// Block until the record at `lsn` is durable (the watermark passes
    /// it). With a flusher attached this just waits to be released by a
    /// batch flush; without one, the caller flushes the pending queue
    /// itself — leader-style group commit. If the WAL poisons before the
    /// record is covered, the caller must not ack: the error is
    /// [`WalError::InDoubt`] when the failed flush may have put the
    /// record in the file, [`WalError::Poisoned`] when it cannot have.
    pub fn wait_durable(&self, lsn: u64) -> Result<(), WalError> {
        let i = &*self.inner;
        if lsn >= self.lsn() {
            return Err(WalError::Io(format!(
                "wait_durable({lsn}) is beyond the head"
            )));
        }
        loop {
            {
                let mut d = lock(&i.durable);
                loop {
                    if d.durable_lsn > lsn {
                        return Ok(());
                    }
                    if let Some(m) = &d.poison {
                        return Err(if lsn < d.in_doubt_upto {
                            WalError::InDoubt(m.clone())
                        } else {
                            WalError::Poisoned(m.clone())
                        });
                    }
                    if !i.flusher_running.load(Ordering::SeqCst) {
                        break; // self-service below
                    }
                    // The timeout is only a lost-wakeup backstop; the
                    // flusher's max_delay bounds real latency.
                    let (g, _) = i
                        .durable_cv
                        .wait_timeout(d, Duration::from_millis(250))
                        .unwrap_or_else(|p| p.into_inner());
                    d = g;
                }
            }
            // A failed flush poisons the WAL; the checks above then
            // classify this record.
            let _ = self.flush_once(true, false);
        }
    }

    /// Force everything appended so far to stable storage regardless of
    /// policy: drain the pending queue and fsync the current segment
    /// (every sealed one was fsynced when it was sealed).
    pub fn sync(&self) -> Result<(), WalError> {
        self.flush_once(true, true)
    }

    /// Spawn the dedicated flusher thread that closes batches per the
    /// policy (see [`FsyncPolicy`]) so records nobody waits on still
    /// reach the durable watermark. Dropping (or `stop`ping) the handle
    /// drains the queue and joins the thread.
    pub fn start_flusher(&self) -> WalFlusher {
        let (max_batch, max_delay) = self.inner.cfg.fsync.batch_params();
        lock(&self.inner.buf).stop = false;
        self.inner.flusher_running.store(true, Ordering::SeqCst);
        let wal = self.clone();
        let handle = std::thread::Builder::new()
            .name("wal-flusher".to_string())
            .spawn(move || run_flusher(wal, max_batch, max_delay))
            .expect("spawn wal flusher");
        WalFlusher {
            wal: self.clone(),
            handle: Some(handle),
        }
    }

    fn seg_path(&self, disk: &DiskState) -> PathBuf {
        self.inner
            .dir
            .join(segment_name(disk.generation, disk.seg_idx))
    }

    /// Durably install `snap` (typically `db.snapshot()` taken under
    /// the same lock that orders appends) as the new recovery base,
    /// then retire the log generation it supersedes and run the sweep
    /// before returning (see [`DiskWal::checkpoint_deferred`] for the
    /// split form servers use to keep file deletion off the stall
    /// path).
    pub fn checkpoint(&self, snap: &Snapshot) -> Result<CheckpointReport, WalError> {
        let report = self.checkpoint_inner(snap, None)?;
        self.finish_sweep();
        Ok(report)
    }

    /// The installation half of a checkpoint: durably install `snap`
    /// and *queue* the superseded generation for sweeping, without
    /// deleting (or archiving) anything. The caller runs
    /// [`DiskWal::finish_sweep`] afterwards — typically after dropping
    /// the engine locks, so checkpoint stall excludes file deletion.
    pub fn checkpoint_deferred(&self, snap: &Snapshot) -> Result<CheckpointReport, WalError> {
        self.checkpoint_inner(snap, None)
    }

    /// Like [`DiskWal::checkpoint`], but stamp the checkpoint with an
    /// explicit LSN and adopt it as this log's position. A replica
    /// bootstrapping from a shipped snapshot uses this to jump its
    /// local log to the primary's LSN so subsequent appends line up.
    pub fn checkpoint_at(&self, snap: &Snapshot, lsn: u64) -> Result<CheckpointReport, WalError> {
        let report = self.checkpoint_inner(snap, Some(lsn))?;
        self.finish_sweep();
        Ok(report)
    }

    fn checkpoint_inner(
        &self,
        snap: &Snapshot,
        at: Option<u64>,
    ) -> Result<CheckpointReport, WalError> {
        let i = &*self.inner;
        let body = snap.to_json()?;
        let framed = frame::encode(body.as_bytes());

        // Hold `buf` for the whole installation: no append may
        // interleave with the generation switch.
        let mut buf = lock(&i.buf);
        let mut disk = lock(&i.disk);
        self.check_poison()?;

        // First make the buffered tail durable — and shipped — so the
        // replication stream never skips an LSN the snapshot covers.
        let batch = self.steal(&mut buf, true);
        self.land(&mut disk, batch, true)?;

        let lsn = at.unwrap_or(buf.next_lsn);
        let tmp = i.dir.join(TMP_NAME);
        let next_generation = disk.generation + 1;
        let finalname = i.dir.join(checkpoint_name(next_generation, lsn));

        // A leftover tmp from a crashed earlier attempt would otherwise
        // be appended after; clear it first.
        let names = i.io.with(|f| f.list(&i.dir))?;
        if names.iter().any(|n| n == TMP_NAME) {
            if let Err(e) = i.io.with(|f| f.remove(&tmp)) {
                return self.poison(e.into());
            }
        }

        // write tmp -> fsync -> rename -> fsync dir: the checkpoint is
        // either fully durable under its final name or invisible.
        let res = (|| -> Result<(), WalError> {
            i.io.with(|f| f.append(&tmp, &framed))?;
            i.io.with(|f| f.fsync(&tmp))?;
            i.io.with(|f| f.rename(&tmp, &finalname))?;
            i.io.with(|f| f.fsync_dir(&i.dir))?;
            Ok(())
        })();
        i.fsyncs_total.fetch_add(2, Ordering::Relaxed);
        if let Err(e) = res {
            return self.poison(e);
        }

        // The new checkpoint supersedes everything older, but nothing
        // is unlinked here: superseded names go on the retire queue,
        // and the sweep (plain deletion, or archive-then-unlink in
        // archive mode) runs off the checkpoint path.
        let mut swept = 0u64;
        {
            let mut q = lock(&i.retired);
            for n in names {
                let old_seg = parse_segment(&n).is_some_and(|(g, _)| g <= disk.generation);
                let old_ckpt = parse_checkpoint(&n).is_some_and(|(g, _)| g <= disk.generation);
                if (old_seg || old_ckpt) && !q.names.contains(&n) {
                    if old_seg {
                        swept += 1;
                    }
                    q.names.push(n);
                }
            }
        }

        disk.generation = next_generation;
        disk.seg_idx = 0;
        disk.seg_bytes = 0;
        buf.next_lsn = lsn;
        // The checkpoint itself is a durability point: everything at or
        // below its LSN is covered by the durable snapshot.
        self.publish(&mut disk, lsn, Vec::new(), None);
        Ok(CheckpointReport {
            lsn,
            swept_segments: swept,
        })
    }

    /// Abandon this log's history and restart it from `snap` at `lsn` —
    /// fork healing. Unlike [`DiskWal::checkpoint_at`], which treats the
    /// log as *correct* (flushes and ships the buffered tail, and never
    /// rewinds the durable watermark), a reset treats it as *wrong*:
    /// buffered records are dropped unwritten and unshipped, every
    /// existing segment and checkpoint is superseded, and the durable
    /// watermark is moved to `lsn` even when that is backwards. Any
    /// acked durability above `lsn` is deliberately forgotten — that is
    /// the point: those records were written on a deposed fork.
    pub fn reset_to(&self, snap: &Snapshot, lsn: u64) -> Result<CheckpointReport, WalError> {
        let i = &*self.inner;
        let body = snap.to_json()?;
        let framed = frame::encode(body.as_bytes());

        let mut buf = lock(&i.buf);
        let mut disk = lock(&i.disk);
        self.check_poison()?;

        // Discard, don't flush: the pending tail is fork debris.
        let dropped = self.steal(&mut buf, true);
        drop(dropped);

        let tmp = i.dir.join(TMP_NAME);
        let next_generation = disk.generation + 1;
        let finalname = i.dir.join(checkpoint_name(next_generation, lsn));
        let names = i.io.with(|f| f.list(&i.dir))?;
        if names.iter().any(|n| n == TMP_NAME) {
            if let Err(e) = i.io.with(|f| f.remove(&tmp)) {
                return self.poison(e.into());
            }
        }
        let res = (|| -> Result<(), WalError> {
            i.io.with(|f| f.append(&tmp, &framed))?;
            i.io.with(|f| f.fsync(&tmp))?;
            i.io.with(|f| f.rename(&tmp, &finalname))?;
            i.io.with(|f| f.fsync_dir(&i.dir))?;
            Ok(())
        })();
        i.fsyncs_total.fetch_add(2, Ordering::Relaxed);
        if let Err(e) = res {
            return self.poison(e);
        }

        // A reset deletes inline (no retirement): the superseded files
        // are fork debris, and archiving a deposed fork's history would
        // poison later restores. For the same reason the retire queue
        // and any already-written archives are purged.
        let mut swept = 0u64;
        for n in names {
            let old_seg = parse_segment(&n).is_some_and(|(g, _)| g <= disk.generation);
            let old_ckpt = parse_checkpoint(&n).is_some_and(|(g, _)| g <= disk.generation);
            if old_seg || old_ckpt {
                let removed = i.io.with(|f| f.remove(&i.dir.join(n))).is_ok();
                if removed && old_seg {
                    swept += 1;
                }
            }
        }
        lock(&i.retired).names.clear();
        if i.cfg.archive {
            archive::purge_archives(&i.io, &i.dir);
        }

        disk.generation = next_generation;
        disk.seg_idx = 0;
        disk.seg_bytes = 0;
        buf.next_lsn = lsn;
        // Rewind (not just advance) the watermark: durability claims
        // about the abandoned fork must not leak into the new history.
        {
            let mut d = lock(&i.durable);
            d.durable_lsn = lsn;
            d.in_doubt_upto = lsn;
        }
        i.durable_cv.notify_all();
        Ok(CheckpointReport {
            lsn,
            swept_segments: swept,
        })
    }

    /// Run the sweep for everything on the retire queue. In plain mode
    /// this deletes the retired files (best-effort) and returns the
    /// number of segment files removed. In archive mode nothing is
    /// deleted here: the archiver thread is nudged (if running) and the
    /// queue drains asynchronously — or a test drains it synchronously
    /// with [`DiskWal::archive_now`].
    pub fn finish_sweep(&self) -> u64 {
        let i = &*self.inner;
        if i.cfg.archive {
            if i.archiver_running.load(Ordering::SeqCst) {
                i.retire_cv.notify_all();
            }
            return 0;
        }
        self.sweep_retired()
    }

    /// Delete every retired file (plain-mode sweep). Best-effort: a
    /// failed unlink leaves debris that recovery ignores and the next
    /// checkpoint re-queues.
    fn sweep_retired(&self) -> u64 {
        let i = &*self.inner;
        let names = std::mem::take(&mut lock(&i.retired).names);
        let mut removed = 0u64;
        for n in &names {
            let ok = i.io.with(|f| f.remove(&i.dir.join(n))).is_ok();
            if ok && parse_segment(n).is_some() {
                removed += 1;
            }
        }
        removed
    }

    /// Synchronously drain the retire queue into the archive: compress
    /// each retired segment into a CRC-framed archive file, make it
    /// fsync-durable, and only then unlink the segment. Called by the
    /// archiver thread, and directly by tests/benches that need a
    /// deterministic drain. Holds no lock but the (brief) retire-queue
    /// lock — compression never runs under the flusher or engine locks.
    pub fn archive_now(&self) -> Result<ArchiveDrainReport, WalError> {
        let i = &*self.inner;
        let batch = std::mem::take(&mut lock(&i.retired).names);
        if batch.is_empty() {
            return Ok(ArchiveDrainReport::default());
        }
        let queued_segs = batch.iter().filter(|n| parse_segment(n).is_some()).count() as u64;
        i.archive_inflight.store(queued_segs, Ordering::SeqCst);
        let (report, remaining, err) = archive::drain_retired(&i.io, &i.dir, batch);
        i.archived_segments
            .fetch_add(report.segments, Ordering::Relaxed);
        i.archived_bytes.fetch_add(report.bytes, Ordering::Relaxed);
        i.archive_inflight.store(0, Ordering::SeqCst);
        if !remaining.is_empty() {
            // Splice the un-drained names back at the *front*: they are
            // older than anything a concurrent checkpoint queued since,
            // and the archive chain must be built oldest-first.
            let mut q = lock(&i.retired);
            let mut names = remaining;
            names.extend(std::mem::take(&mut q.names));
            q.names = names;
        }
        match err {
            // An archiver error must not latch the live log read-only:
            // the un-drained names are back on the queue and the next
            // pass retries.
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Lifetime archive progress (see [`ArchiveStats`]).
    pub fn archive_stats(&self) -> ArchiveStats {
        let i = &*self.inner;
        let queued = lock(&i.retired)
            .names
            .iter()
            .filter(|n| parse_segment(n).is_some())
            .count() as u64;
        ArchiveStats {
            segments_archived: i.archived_segments.load(Ordering::Relaxed),
            bytes_archived: i.archived_bytes.load(Ordering::Relaxed),
            lag_segments: queued + i.archive_inflight.load(Ordering::SeqCst),
        }
    }

    /// Spawn the dedicated archiver thread (archive mode only): it
    /// waits on the retire queue and drains it via
    /// [`DiskWal::archive_now`], so compression and archive fsyncs
    /// never run on a checkpointing, flushing, or committing thread.
    /// Dropping (or `stop`ping) the handle performs a final drain and
    /// joins the thread.
    pub fn start_archiver(&self) -> Option<WalArchiver> {
        if !self.inner.cfg.archive {
            return None;
        }
        lock(&self.inner.retired).stop = false;
        self.inner.archiver_running.store(true, Ordering::SeqCst);
        let wal = self.clone();
        let handle = std::thread::Builder::new()
            .name("wal-archiver".to_string())
            .spawn(move || run_archiver(wal))
            .expect("spawn wal archiver");
        Some(WalArchiver {
            wal: self.clone(),
            handle: Some(handle),
        })
    }
}

/// The dedicated flusher thread's loop: wait until `max_batch` txn
/// boundaries are pending or the oldest pending record has waited
/// `max_delay`, then run one flush cycle. On stop, drain what's left.
fn run_flusher(wal: DiskWal, max_batch: usize, max_delay: Duration) {
    let i = Arc::clone(&wal.inner);
    loop {
        let stopping;
        {
            let mut buf = lock(&i.buf);
            loop {
                if buf.stop {
                    stopping = true;
                    break;
                }
                if i.poisoned.load(Ordering::SeqCst) || buf.pending.is_empty() {
                    // Nothing to do (or nothing we can do): park until
                    // an append or a stop wakes us.
                    let (g, _) = i
                        .flush_cv
                        .wait_timeout(buf, Duration::from_millis(250))
                        .unwrap_or_else(|p| p.into_inner());
                    buf = g;
                    continue;
                }
                if buf.pending_txn_ends >= max_batch {
                    stopping = false;
                    break;
                }
                let elapsed = buf
                    .first_pending_at
                    .map(|t| t.elapsed())
                    .unwrap_or_default();
                if elapsed >= max_delay {
                    stopping = false;
                    break;
                }
                let (g, _) = i
                    .flush_cv
                    .wait_timeout(buf, max_delay - elapsed)
                    .unwrap_or_else(|p| p.into_inner());
                buf = g;
            }
        }
        // Flush errors poison the WAL and wake every waiter; the loop
        // then parks until stopped.
        let _ = wal.flush_once(stopping, false);
        if stopping {
            let drained = lock(&i.buf).pending.is_empty();
            if drained || i.poisoned.load(Ordering::SeqCst) {
                return;
            }
        }
    }
}

/// Handle to the dedicated flusher thread. Dropping it stops the
/// thread after a final drain of the pending queue.
pub struct WalFlusher {
    wal: DiskWal,
    handle: Option<JoinHandle<()>>,
}

impl WalFlusher {
    /// Drain the pending queue, stop the thread, and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        lock(&self.wal.inner.buf).stop = true;
        self.wal.inner.flush_cv.notify_all();
        let _ = handle.join();
        self.wal
            .inner
            .flusher_running
            .store(false, Ordering::SeqCst);
        // Waiters must re-evaluate: with the flusher gone they
        // self-serve (or observe the drained watermark).
        self.wal.inner.durable_cv.notify_all();
    }
}

impl Drop for WalFlusher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The dedicated archiver thread's loop: park until a checkpoint
/// retires segments (or a stop is requested), drain the queue through
/// [`DiskWal::archive_now`], repeat. Errors leave the batch queued and
/// back off briefly rather than spin.
fn run_archiver(wal: DiskWal) {
    let i = Arc::clone(&wal.inner);
    loop {
        let stopping = {
            let mut q = lock(&i.retired);
            while q.names.is_empty() && !q.stop {
                let (g, _) = i
                    .retire_cv
                    .wait_timeout(q, Duration::from_millis(250))
                    .unwrap_or_else(|p| p.into_inner());
                q = g;
            }
            q.stop
        };
        if wal.archive_now().is_err() && !stopping {
            std::thread::sleep(Duration::from_millis(100));
        }
        if stopping {
            return;
        }
    }
}

/// Handle to the dedicated archiver thread. Dropping it (or calling
/// [`WalArchiver::stop`]) requests a final drain of the retire queue,
/// then joins the thread.
pub struct WalArchiver {
    wal: DiskWal,
    handle: Option<JoinHandle<()>>,
}

impl WalArchiver {
    /// Drain the retire queue one last time, stop the thread, join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        lock(&self.wal.inner.retired).stop = true;
        self.wal.inner.retire_cv.notify_all();
        let _ = handle.join();
        self.wal
            .inner
            .archiver_running
            .store(false, Ordering::SeqCst);
    }
}

impl Drop for WalArchiver {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    #[test]
    fn parse_accepts_every_valid_surface_form() {
        assert_eq!(
            FsyncPolicy::parse("commit").unwrap(),
            FsyncPolicy::Group {
                max_batch: 1,
                max_delay: Duration::ZERO,
            }
        );
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("group").unwrap(),
            FsyncPolicy::default_group()
        );
        assert_eq!(
            FsyncPolicy::parse("group:32:5").unwrap(),
            FsyncPolicy::Group {
                max_batch: 32,
                max_delay: Duration::from_millis(5),
            }
        );
        assert_eq!(
            FsyncPolicy::parse("group:1:0").unwrap(),
            FsyncPolicy::Group {
                max_batch: 1,
                max_delay: Duration::ZERO,
            }
        );
    }

    #[test]
    fn parse_refuses_the_retired_inline_forms_naming_their_replacements() {
        for gone in ["always", "64", "1"] {
            let err = FsyncPolicy::parse(gone).unwrap_err();
            assert!(
                err.contains("commit") && err.contains("group"),
                "{gone:?}: unhelpful error: {err}"
            );
        }
    }

    #[test]
    fn parse_rejects_zero_batch_with_a_message_naming_the_cause() {
        let err = FsyncPolicy::parse("group:0:2").unwrap_err();
        assert!(err.contains("batch of 0"), "unhelpful error: {err}");
    }

    #[test]
    fn parse_rejects_absurd_delays() {
        let max = FsyncPolicy::MAX_GROUP_DELAY_MS;
        assert!(FsyncPolicy::parse(&format!("group:64:{max}")).is_ok());
        let err = FsyncPolicy::parse(&format!("group:64:{}", max + 1)).unwrap_err();
        assert!(err.contains("stalls every commit ack"), "bad error: {err}");
        let err = FsyncPolicy::parse("group:64:86400000").unwrap_err();
        assert!(err.contains("maximum"), "bad error: {err}");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "Group",
            "group:",
            "group:8",
            "group:8:2:9",
            "group:x:2",
            "group:8:y",
            "0",
            "-3",
            "3.5",
            "sometimes",
        ] {
            assert!(FsyncPolicy::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
