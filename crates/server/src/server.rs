//! The server: reactor-served sessions over a [`SharedDatabase`].
//!
//! Connections are owned by the poll-driven event loop in
//! [`crate::reactor`] (one loop thread + a worker pool).
//!
//! ## Session model
//!
//! Each connection is one *session* holding at most one open
//! transaction. The engine mutex is held only for the duration of each
//! individual command, so sessions interleave at transaction granularity
//! exactly like in-process users of [`SharedDatabase`]: conflicting
//! object access surfaces as a retryable `lock_conflict` error (the
//! engine never blocks on locks, so there is no deadlock), and the
//! client aborts and retries.
//!
//! ## Robustness
//!
//! * The loop wakes at least every [`ServerConfig::poll_interval`], so
//!   it notices shutdown promptly and expires idle transactions
//!   ([`ServerConfig::txn_idle_timeout`]); partial lines survive across
//!   reads (see [`crate::codec::LineReader`]).
//! * Malformed or overlong lines answer with a structured `id: 0` error
//!   notice; the connection stays open and usable.
//! * A disconnect (or shutdown) aborts the session's open transaction,
//!   releasing its object locks.
//!
//! ## Firing fan-out
//!
//! The engine's firing sink runs with the engine locked, so it must
//! never touch a socket: it serializes the [`Firing`] once and pushes
//! the shared frame onto each subscribed connection's outbox ring.
//! The event loop drains rings to sockets as writability allows, so a
//! slow subscriber delays only itself. Failed deliveries (a closed
//! ring, a dead socket) are counted in the `subscriber_drops` stat
//! rather than silently discarded.
//!
//! ## Durability
//!
//! With [`ServerBuilder::wal_dir`], the server recovers the directory
//! on startup (wire-defined classes from `schema.wal`, then the latest
//! checkpoint plus log tail via [`ode_db::DiskWal`]) and streams every
//! subsequent engine op back out through the engine's log sink. A WAL
//! write or fsync failure degrades gracefully: the offending session's
//! transaction is aborted, the command answers a `wal` error, and the
//! server latches **read-only** (mutating commands are refused; reads,
//! aborts, and subscriptions keep working) instead of panicking or
//! serving un-durable writes. The error is retryable when none of the
//! command's records can reach disk; a commit whose batch write landed
//! before the failure answers a non-retryable `wal_in_doubt` instead,
//! because recovery may restore it.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use ode_core::{Qualifier, Value};
use ode_db::durability::archive::{
    archive_dir, list_archives, read_archive_bytes, read_archive_meta,
};
use ode_db::durability::frame;
use ode_db::engine::{EventTap, FiringSink, LogSink};
use ode_db::replication::Applier;
use ode_db::{
    shard_dir, shard_of, to_global, to_local, ArchiveStats, ArgPred, Batch, CmpOp, Database,
    DurableRecord, EpochRecord, EpochTable, FiringNotice, HistConfig, HistQuery, HistStore, LogOp,
    ObjectId, SegmentReader, ShardedDatabase, ShardedWal, SharedDatabase, SharedIo, Snapshot,
    StdIo, TapEvent, TxnId, WalArchiver, WalConfig, WalError, WalFlusher,
};
use parking_lot::Mutex;

use crate::protocol::{
    hex_encode, Command, Firing, Reply, ReplyResult, Request, ServerMsg, WireError, WireRow,
    WireStats,
};
use crate::reactor::event_loop::{start as start_reactor, ListenSocket, ReactorHandle};
use crate::reactor::outbox::{ConnOutbox, SharedFrame};
use crate::repl::{run_replica, ReplSource, ReplicaState, StreamFault};
use crate::spec::{compile_class, ClassSpec};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum request-line length in bytes; longer lines are discarded
    /// with an `overlong` notice.
    pub max_line_bytes: usize,
    /// Housekeeping tick: the longest the event loop sleeps before
    /// checking the shutdown flag, heartbeats, and idle-transaction
    /// timers. Also the replica stream's read timeout and the
    /// `Promote` drain's poll interval.
    pub poll_interval: Duration,
    /// Abort a session's open transaction after this much inactivity
    /// (`None` disables the timer).
    pub txn_idle_timeout: Option<Duration>,
    /// Refuse connections past this count with a typed `server_full`
    /// notice instead of accepting and stalling (`None` = unlimited).
    pub max_conns: Option<u64>,
    /// Command-executor threads. Commands block (group-commit fsync
    /// waits, `Promote` stream drains), so they run on this pool rather
    /// than the event loop.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_line_bytes: 256 * 1024,
            poll_interval: Duration::from_millis(25),
            txn_idle_timeout: None,
            max_conns: None,
            workers: 8,
        }
    }
}

type Subscribers = Arc<Mutex<HashMap<u64, Arc<ConnOutbox>>>>;

/// The server's durability state (present when started with a WAL dir).
pub(crate) struct WalState {
    /// One WAL stream per engine shard (internally synchronized; the
    /// engine lock is only ever held around the cheap buffer+assign-LSN
    /// step, never an fsync). Unsharded servers run a single stream in
    /// the legacy flat layout.
    pub(crate) wal: ShardedWal,
    pub(crate) io: SharedIo,
    /// The WAL root directory; `Replicate` handshakes re-scan the
    /// per-shard subdirectories under it.
    pub(crate) dir: PathBuf,
    /// `<wal-dir>/schema.wal`: framed `ClassSpec` JSON, one record per
    /// wire-defined class, replayed (in `ClassId` order) before the op
    /// WAL on recovery. Shared by every shard — classes are defined on
    /// all shards in lockstep.
    pub(crate) schema_path: PathBuf,
    /// Latched after the first WAL write/fsync failure: mutating
    /// commands are refused with `read_only` until restart.
    pub(crate) read_only: AtomicBool,
    /// Replication subscribers, one map per shard: connections that
    /// sent `Replicate`. Each shard's durable sink ships its records to
    /// its own map (under that shard's disk lock), so live shipping
    /// serializes with that shard's `frozen` handshake and a primary
    /// crash can never have shipped a record recovery then loses. The
    /// maps are per shard because a handshake registers with each shard
    /// stream only after scanning *that* shard's history.
    pub(crate) repl_subs: Vec<Subscribers>,
    /// Wall-clock milliseconds startup recovery spent replaying the
    /// WAL (the slowest shard — shards recover in parallel).
    pub(crate) recovery_ms: u64,
    /// Segment files replayed by startup recovery, all shards.
    pub(crate) segments_replayed: u64,
}

/// The node's primary-election epoch state: the durable
/// [`EpochTable`] (when a WAL directory exists), an atomic mirror of
/// the node's *history* epoch for lock-free stamping on the shipping
/// path, and the deposed latch.
///
/// Two different epochs matter. The **history epoch** is the highest
/// `EpochBump` the node's own log contains — it describes the lineage
/// of the records the node holds and ships, so handshake claims,
/// `ReplOp` stamps, and fence arithmetic all use it. The **observed
/// epoch** additionally counts epochs the node has merely *heard of*
/// (a handshake claim, a heartbeat stamp, an explicit `Demote`);
/// when it runs ahead of the history epoch the node is *deposed*:
/// a newer primary exists whose history this node has not caught up
/// to, so its write authority is revoked and it refuses to serve
/// `Replicate` until it rejoins as a replica.
pub(crate) struct EpochState {
    /// Mirror of the table's history epoch (see above). Monotone.
    cell: Arc<AtomicU64>,
    /// `observed > history`: write authority revoked.
    deposed: AtomicBool,
    table: Mutex<EpochTable>,
    /// Where table records persist (`None` without a WAL directory —
    /// fencing still works, but only for the process lifetime).
    store: Option<(SharedIo, PathBuf)>,
    /// Frames and handshakes refused for carrying a stale epoch.
    pub(crate) stale_rejections: AtomicU64,
}

impl EpochState {
    fn new(table: EpochTable, store: Option<(SharedIo, PathBuf)>) -> EpochState {
        EpochState {
            cell: Arc::new(AtomicU64::new(table.history_epoch())),
            deposed: AtomicBool::new(table.is_deposed()),
            table: Mutex::new(table),
            store,
            stale_rejections: AtomicU64::new(0),
        }
    }

    /// The highest epoch whose bump record this node's history holds.
    pub(crate) fn history_epoch(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }

    /// The highest epoch this node has heard of by any means.
    pub(crate) fn observed_epoch(&self) -> u64 {
        self.table.lock().epoch()
    }

    pub(crate) fn is_deposed(&self) -> bool {
        self.deposed.load(Ordering::SeqCst)
    }

    /// A clone of the history-epoch cell for capture in sink closures.
    pub(crate) fn cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.cell)
    }

    fn refresh(&self, table: &EpochTable) {
        self.cell.store(table.history_epoch(), Ordering::SeqCst);
        self.deposed.store(table.is_deposed(), Ordering::SeqCst);
    }

    fn persist(&self, recs: &[EpochRecord]) -> Result<(), String> {
        if let Some((io, dir)) = &self.store {
            EpochTable::append(io, dir, recs).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Record that `epoch` exists somewhere (handshake claim,
    /// heartbeat stamp, or explicit `Demote`). Latches the deposed
    /// flag *before* attempting persistence — losing the durable
    /// record on a crash is recoverable (the fence check catches the
    /// node when it rejoins), serving writes from a known-deposed
    /// node is not.
    pub(crate) fn observe(&self, epoch: u64) -> Result<(), String> {
        let mut table = self.table.lock();
        let Some(rec) = table.record_deposed(epoch) else {
            return Ok(());
        };
        self.refresh(&table);
        self.persist(&[rec])
    }

    /// Record a durable epoch start: `EpochBump { epoch }` sits at
    /// `lsn` in shard `shard`'s log.
    pub(crate) fn note_start(&self, epoch: u64, shard: u64, lsn: u64) -> Result<(), String> {
        let mut table = self.table.lock();
        if let Some(rec) = table.record_start(epoch, shard, lsn) {
            self.persist(&[rec])?;
        }
        self.refresh(&table);
        Ok(())
    }

    /// Record that fork healing discarded shard `shard`'s local log.
    pub(crate) fn note_reset(&self, shard: u64) -> Result<(), String> {
        let mut table = self.table.lock();
        let rec = table.record_reset(shard);
        self.refresh(&table);
        self.persist(&[rec])
    }

    /// The LSN of the first bump past `than_epoch` in shard `shard` —
    /// the last log position a `than_epoch` follower may share.
    pub(crate) fn fence_lsn(&self, shard: u64, than_epoch: u64) -> Option<u64> {
        self.table.lock().fence_lsn(shard, than_epoch)
    }
}

thread_local! {
    /// Per shard, the LSN of the last record this thread appended
    /// through that shard's log sink. The sinks run synchronously on
    /// the committing thread (with the shard's engine locked), so after
    /// `commit()` returns this holds each participating shard's commit
    /// record LSN — the merged watermark the session must wait on
    /// before acking.
    static LAST_WAL_LSNS: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
    /// Whether an append through a log sink failed on this thread since
    /// the last [`lsns_clear`]: that record got no LSN and can never
    /// reach disk.
    static WAL_APPEND_FAILED: Cell<bool> = const { Cell::new(false) };
}

fn lsns_clear() {
    LAST_WAL_LSNS.with(|c| c.borrow_mut().clear());
    WAL_APPEND_FAILED.with(|f| f.set(false));
}

fn lsns_note(shard: usize, lsn: u64) {
    LAST_WAL_LSNS.with(|c| {
        let mut v = c.borrow_mut();
        match v.iter_mut().find(|(s, _)| *s == shard) {
            Some(e) => e.1 = lsn,
            None => v.push((shard, lsn)),
        }
    });
}

fn lsns_take() -> Vec<(usize, u64)> {
    LAST_WAL_LSNS.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// Run `act` and acknowledge its result only once every record it
/// logged is durable — the merged-watermark ack rule. The in-memory
/// work is done and every engine mutex released before the wait, so
/// other sessions proceed; under group commit one fsync releases every
/// session waiting on that shard. A failed `act` is returned at once:
/// an error promises nothing durable. If the log fails, the answer says
/// what recovery can restore (see [`wal_error`]).
fn ack_durable<T>(
    inner: &Shared,
    act: impl FnOnce() -> Result<T, WireError>,
) -> Result<T, WireError> {
    lsns_clear();
    let v = act()?;
    if let Some(ws) = &inner.wal {
        let acks = lsns_take();
        let waited = ws.wal.wait_durable(&acks);
        if WAL_APPEND_FAILED.with(Cell::get) {
            // A record that got no LSN is lost; the act is lost outright
            // only if none of its other records can survive either.
            let why = ws
                .wal
                .poisoned()
                .unwrap_or_else(|| "a log record was not appended".to_string());
            return Err(wal_error(match waited {
                Err(WalError::Poisoned(_)) => WalError::Poisoned(why),
                Ok(()) if acks.is_empty() => WalError::Poisoned(why),
                _ => WalError::InDoubt(why),
            }));
        }
        waited.map_err(wal_error)?;
    }
    Ok(v)
}

/// A WAL failure as the wire reports it. `wal` is retryable: none of
/// the command's records can reach disk, so a restart or another node
/// may succeed. `wal_in_doubt` is not: some of them may already be in
/// the log, so recovery may or may not restore the command — retrying
/// without checking could apply it twice.
fn wal_error(e: WalError) -> WireError {
    let in_doubt = matches!(e, WalError::InDoubt(_));
    WireError {
        code: if in_doubt { "wal_in_doubt" } else { "wal" }.to_string(),
        message: e.to_string(),
        retryable: !in_doubt,
    }
}

pub(crate) struct Shared {
    pub(crate) db: ShardedDatabase,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) subs: Subscribers,
    pub(crate) next_conn: AtomicU64,
    pub(crate) wal: Option<Arc<WalState>>,
    /// Primary-election epoch state (always present; durable when the
    /// server has a WAL directory).
    pub(crate) epochs: Arc<EpochState>,
    /// Firing notifications that never reached a subscriber (outbox
    /// gone or socket write failed).
    pub(crate) subscriber_drops: Arc<AtomicU64>,
    /// Live connections.
    pub(crate) conns_open: AtomicU64,
    /// Connections refused by the `max_conns` accept guard.
    pub(crate) conns_rejected: AtomicU64,
    /// Replica status when started with `replicate_from`.
    pub(crate) repl: Option<Arc<ReplicaState>>,
    /// The installed per-shard sinks, kept so the replica runner can
    /// re-install them after rebuilding a shard's engine for a
    /// snapshot jump.
    pub(crate) log_sinks: Vec<LogSink>,
    pub(crate) firing_sinks: Vec<FiringSink>,
    pub(crate) event_taps: Vec<EventTap>,
    /// Per-shard event-history stores (`--history`); empty when the
    /// feature is off.
    pub(crate) hist: Vec<Arc<HistStore>>,
}

/// Configures and starts a [`Server`].
pub struct ServerBuilder {
    db: SharedDatabase,
    shards: usize,
    config: ServerConfig,
    tcp: Option<String>,
    unix: Option<PathBuf>,
    wal_dir: Option<PathBuf>,
    wal_config: WalConfig,
    wal_io: Option<SharedIo>,
    replicate_from: Vec<ReplSource>,
    repl_fault_plan: HashMap<u64, StreamFault>,
    history: bool,
    hist_config: HistConfig,
}

impl ServerBuilder {
    /// Serve TCP on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port;
    /// read the bound address back with [`Server::tcp_addr`]).
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.tcp = Some(addr.into());
        self
    }

    /// Serve a Unix-domain socket at `path` (a stale socket file is
    /// removed first).
    pub fn unix(mut self, path: impl Into<PathBuf>) -> Self {
        self.unix = Some(path.into());
        self
    }

    /// Override the default [`ServerConfig`].
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Admit at most `n` concurrent connections; beyond that, new
    /// clients are answered with a retryable `server_full` notice and
    /// closed (counted in [`WireStats::conns_rejected`]).
    pub fn max_conns(mut self, n: u64) -> Self {
        self.config.max_conns = Some(n);
        self
    }

    /// Hash-partition objects and trigger state into `n` engine shards,
    /// each with its own engine lock, WAL segment stream, and
    /// group-commit flusher, so single-shard transactions run fully
    /// parallel end to end. The database handle given to
    /// [`Server::builder`] becomes shard 0 (external clones of it stay
    /// live); shards 1..n start empty, so with `n > 1` define classes
    /// through the wire (or pre-populate every shard), not on the
    /// handle alone. A WAL directory written with one shard count
    /// refuses to reopen with another.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one shard");
        self.shards = n;
        self
    }

    /// Persist every engine op to a write-ahead log under `dir`. On
    /// start the directory is recovered first: wire-defined classes
    /// replay from `schema.wal`, then the newest checkpoint restores
    /// and the log tail replays on top of it.
    pub fn wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Override the default [`WalConfig`] (segment size, fsync policy).
    /// Only meaningful together with [`ServerBuilder::wal_dir`].
    pub fn wal_config(mut self, cfg: WalConfig) -> Self {
        self.wal_config = cfg;
        self
    }

    /// Archive swept WAL segments (compressed, CRC-framed, under each
    /// shard directory's `archive/`) instead of deleting them at
    /// checkpoint. A dedicated archiver thread per shard does the
    /// compression; a segment is only unlinked once its archive is
    /// fsync-durable. Enables point-in-time restore and archive-based
    /// replica catch-up. Only meaningful together with
    /// [`ServerBuilder::wal_dir`].
    pub fn wal_archive(mut self, on: bool) -> Self {
        self.wal_config.archive = on;
        self
    }

    /// Override the WAL's I/O layer (fault injection in tests). Only
    /// meaningful together with [`ServerBuilder::wal_dir`].
    pub fn wal_io(mut self, io: SharedIo) -> Self {
        self.wal_io = Some(io);
        self
    }

    /// Maintain a per-shard append-only columnar store of the committed
    /// event stream (`hist/` under each shard's WAL directory), serving
    /// [`Command::Query`] and retroactive trigger activation
    /// (`Activate { replay_history: true }`). Requires
    /// [`ServerBuilder::wal_dir`]: ingestion is gated on WAL
    /// durability, and a store that lost its tail rebuilds from the
    /// log. Off by default — without it the engine's event tap stays
    /// uninstalled and the commit path is untouched.
    pub fn history(mut self, on: bool) -> Self {
        self.history = on;
        self
    }

    /// Override the default [`HistConfig`] (rows per sealed segment).
    /// Only meaningful together with [`ServerBuilder::history`].
    pub fn hist_config(mut self, cfg: HistConfig) -> Self {
        self.hist_config = cfg;
        self
    }

    /// Run as a read replica of the node at `source`: refuse
    /// mutations with `read_only_replica`, tail the upstream's WAL
    /// stream, and serve reads, stats, and subscriptions from the
    /// applied state. Combine with [`ServerBuilder::wal_dir`] to give
    /// the replica a local log for catch-up restart.
    ///
    /// The upstream may itself be a replica (a cascading tree): any
    /// WAL-backed node re-serves `Replicate` from its re-logged local
    /// log. Call this repeatedly to list fallback upstreams; when the
    /// current one dies (or turns out stale), the runner rotates to
    /// the next under its capped-jitter backoff (re-parenting).
    pub fn replicate_from(mut self, source: ReplSource) -> Self {
        self.replicate_from.push(source);
        self
    }

    /// Inject deterministic faults into the replication stream, keyed
    /// by received-record count (see [`StreamFault`]). Test hook; only
    /// meaningful together with [`ServerBuilder::replicate_from`].
    pub fn repl_fault_plan(mut self, plan: HashMap<u64, StreamFault>) -> Self {
        self.repl_fault_plan = plan;
        self
    }

    /// Bind the listeners, recover the WAL directory (if configured),
    /// install the firing and log sinks, and start the reactor.
    pub fn start(self) -> std::io::Result<Server> {
        let is_replica = !self.replicate_from.is_empty();
        let n = self.shards;
        if self.history && self.wal_dir.is_none() {
            return Err(std::io::Error::other(
                "history requires a WAL directory: ingestion is durability-gated \
                 and a lost store tail rebuilds by replaying the log",
            ));
        }
        // Shard 0 is the caller's handle (its external clones stay
        // live); the rest start empty.
        let mut handles = vec![self.db];
        for _ in 1..n {
            handles.push(SharedDatabase::new(Database::new()));
        }
        // Per shard: the LSN of the record most recently appended
        // through that shard's log sink. All appends happen on the
        // committing thread with that shard's engine locked, and the
        // commit record is the last append before the engine delivers
        // the committed-event tap — so at tap time this holds exactly
        // the commit record's LSN, pairing each history batch with the
        // WAL position that makes it durable.
        let cur_lsns: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let mut hist: Vec<Arc<HistStore>> = Vec::new();
        let mut event_taps: Vec<EventTap> = Vec::new();
        // Recover *before* installing the log sinks: replayed ops must
        // not be re-appended to the logs they came from. A replica
        // bootstraps through per-shard `Applier`s instead of
        // `restore_into` so the id maps of transactions its local logs
        // left open stay live for the stream to resume mid-transaction.
        // A replica also recovers *raw* (no cross-shard reconciliation):
        // everything in its local logs was shipped by a primary that
        // had already decided commit, so demoting a `Commit2pc` whose
        // sibling hasn't arrived yet would fork its history.
        let mut appliers: Vec<Applier> = (0..n).map(|_| Applier::new()).collect();
        let mut epoch_table = EpochTable::new();
        let mut epoch_store: Option<(SharedIo, PathBuf)> = None;
        let wal = match &self.wal_dir {
            None => None,
            Some(dir) => {
                let io = self
                    .wal_io
                    .clone()
                    .unwrap_or_else(|| SharedIo::new(StdIo::new()));
                let schema_path = dir.join("schema.wal");
                // An injected io (fault plans in tests) is shared by
                // every shard so the plan sees all traffic; the default
                // gives each shard its own handle, so shard flushers
                // fsync in parallel instead of queuing on one io mutex.
                let ios: Vec<SharedIo> = match &self.wal_io {
                    Some(custom) => vec![custom.clone(); n],
                    None => std::iter::once(io.clone())
                        .chain((1..n).map(|_| SharedIo::new(StdIo::new())))
                        .collect(),
                };
                let open = if is_replica {
                    ShardedWal::open_raw_per_shard(dir, self.wal_config, ios)
                } else {
                    ShardedWal::open_per_shard(dir, self.wal_config, ios)
                };
                let (wal, recovery) = open.map_err(|e| std::io::Error::other(e.to_string()))?;
                // Shards recover in parallel, so the user-visible
                // recovery time is the slowest shard's, not the sum.
                let recovery_ms = recovery
                    .shards
                    .iter()
                    .map(|r| r.report.total_us / 1_000)
                    .max()
                    .unwrap_or(0);
                let segments_replayed = recovery.shards.iter().map(|r| r.segments as u64).sum();
                // Load the epoch table and heal the promote crash
                // window: a bump that reached a shard WAL but not the
                // table (crash between the two appends) is merged back
                // in from the recovered ops, so the node always comes
                // back at the epoch its log proves — never an older
                // one.
                epoch_table =
                    EpochTable::load(&io, dir).map_err(|e| std::io::Error::other(e.to_string()))?;
                for (s, rec) in recovery.shards.iter().enumerate() {
                    let fresh = epoch_table.merge_bumps(s as u64, rec.base_lsn, &rec.ops);
                    EpochTable::append(&io, dir, &fresh)
                        .map_err(|e| std::io::Error::other(e.to_string()))?;
                }
                epoch_store = Some((io.clone(), dir.clone()));
                let specs = load_schema(&io, &schema_path).map_err(std::io::Error::other)?;
                if self.history {
                    for (s, rec) in recovery.shards.iter().enumerate() {
                        // A shard with a demoted Commit2pc had that
                        // record rewritten to an Abort in memory only —
                        // sealed history at or past the recovered base
                        // may contain the phantom commit, so rebuild
                        // everything the snapshot doesn't cover.
                        let demoted = recovery.report.demoted.iter().any(|(ds, _)| *ds == s);
                        let valid_excl = if demoted {
                            rec.base_lsn
                        } else {
                            rec.base_lsn + rec.ops.len() as u64
                        };
                        let hdir = shard_dir(dir, s, n).join("hist");
                        let store = HistStore::open(&hdir, self.hist_config, valid_excl)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                        hist.push(Arc::new(store));
                        let tap_store = Arc::clone(&hist[s]);
                        let cur = Arc::clone(&cur_lsns[s]);
                        let tap: EventTap =
                            Arc::new(move |txn: TxnId, now: u64, events: &[TapEvent]| {
                                tap_store.submit(Batch {
                                    lsn: cur.load(Ordering::SeqCst),
                                    txn: txn.0,
                                    time: now,
                                    events: events.to_vec(),
                                });
                            });
                        event_taps.push(tap);
                    }
                }
                for (s, rec) in recovery.shards.iter().enumerate() {
                    appliers[s] = handles[s]
                        .with(|db| -> Result<Applier, String> {
                            for spec in &specs {
                                let def = compile_class(spec).map_err(|e| e.to_string())?;
                                db.define_class(def).map_err(|e| e.to_string())?;
                            }
                            if let Some(store) = hist.get(s) {
                                // History backfill: the recovered tail
                                // is on disk by definition, so durability
                                // is pre-advanced over all of it; the tap
                                // goes in *before* replay so re-applied
                                // ops re-submit their batches — the store
                                // drops everything below its rebuild
                                // cursor, so only the lost suffix
                                // re-indexes, with identical rows.
                                db.set_event_tap(Some(event_taps[s].clone()));
                                let head = rec.base_lsn + rec.ops.len() as u64;
                                if head > 0 {
                                    store.advance_durable_through(head - 1);
                                }
                                if let Some(snap) = &rec.snapshot {
                                    db.restore(snap).map_err(|e| e.to_string())?;
                                }
                                let mut a = Applier::resume(db, rec.base_lsn);
                                for (i, op) in rec.ops.iter().enumerate() {
                                    let lsn = rec.base_lsn + i as u64;
                                    cur_lsns[s].store(lsn, Ordering::SeqCst);
                                    a.apply(db, lsn, op).map_err(|e| e.to_string())?;
                                }
                                db.take_output();
                                for (code, name) in db.class_names().iter().enumerate() {
                                    store.observe_class(code as u32, name);
                                }
                                // A primary discards the applier; a
                                // replica keeps its id maps live so the
                                // stream can resume mid-transaction.
                                if is_replica {
                                    Ok(a)
                                } else {
                                    Ok(Applier::new())
                                }
                            } else if is_replica {
                                Applier::bootstrap(db, rec).map_err(|e| e.to_string())
                            } else {
                                rec.restore_into(db).map_err(|e| e.to_string())?;
                                // Replay re-emits historical firing
                                // lines; don't serve them as fresh
                                // output.
                                db.take_output();
                                Ok(Applier::new())
                            }
                        })
                        .map_err(std::io::Error::other)?;
                }
                Some(Arc::new(WalState {
                    wal,
                    io,
                    dir: dir.clone(),
                    schema_path,
                    read_only: AtomicBool::new(false),
                    repl_subs: (0..n)
                        .map(|_| Arc::new(Mutex::new(HashMap::new())))
                        .collect(),
                    recovery_ms,
                    segments_replayed,
                }))
            }
        };
        // Checkpoints sweep bump records out of the log, so the
        // appliers' fencing cursors floor at the table's history
        // epoch rather than whatever bumps the recovered tail held.
        for a in appliers.iter_mut() {
            a.set_epoch(epoch_table.history_epoch());
        }
        let epochs = Arc::new(EpochState::new(epoch_table, epoch_store));
        // Wrap the recovered engines; the global commit sequence
        // resumes above every shard's recovered floor.
        let db = ShardedDatabase::from_shared(handles);

        let mut log_sinks: Vec<LogSink> = Vec::new();
        let mut wal_flushers = Vec::new();
        let mut wal_archivers = Vec::new();
        if let Some(ws) = &wal {
            for (s, shard_cur) in cur_lsns.iter().enumerate() {
                // Shipping happens in each shard's durable sink:
                // records reach that shard's replication subscribers
                // only once its durable watermark covers them, so a
                // primary crash can never have shipped a record its own
                // recovery then loses. The sink runs under the shard
                // WAL's disk lock — the same lock its `frozen`
                // handshake holds — so the handoff from history to live
                // stream has no gap and no duplicate. Capturing only
                // the subscriber map (not the WalState) keeps the WAL
                // out of an Arc cycle.
                let sink_subs = Arc::clone(&ws.repl_subs[s]);
                let sink_hist = hist.get(s).cloned();
                let sink_epoch = epochs.cell();
                let shard = s as u64;
                ws.wal.wal(s).set_durable_sink(Some(Arc::new(
                    move |records: &[DurableRecord]| {
                        // The history indexer applies a batch only once
                        // the WAL covers its LSN; this watermark bump is
                        // a mutex store + notify, safe on the flushing
                        // thread (the flusher or a self-serving
                        // committer).
                        if let (Some(store), Some(last)) = (&sink_hist, records.last()) {
                            store.advance_durable_through(last.lsn);
                        }
                        let subs = sink_subs.lock();
                        if subs.is_empty() || records.is_empty() {
                            return;
                        }
                        let head = records.last().expect("non-empty").lsn + 1;
                        let epoch = sink_epoch.load(Ordering::SeqCst);
                        for r in records {
                            let msg = ServerMsg::ReplOp {
                                shard,
                                lsn: r.lsn,
                                head,
                                frame: hex_encode(&r.frame),
                                epoch,
                            };
                            // Serialized once per record no matter how
                            // many replicas tail this shard.
                            let frame = SharedFrame::new();
                            for tx in subs.values() {
                                let _ = tx.send_shared(&msg, &frame);
                            }
                        }
                    },
                )));
                // Runs with the shard's engine locked, on the
                // committing thread. This only buffers and assigns the
                // LSN — the write and fsync happen in a flush, and the
                // session waits for it *outside* every lock (see
                // `ack_durable`).
                // A failed append (the shard's wal is poisoned) is noted
                // for `ack_durable`; `handle_line` latches read-only.
                let sink_wal = ws.wal.wal(s).clone();
                let sink_cur = Arc::clone(shard_cur);
                let sink: LogSink = Arc::new(move |op: &LogOp| match sink_wal.append(op) {
                    Ok(lsn) => {
                        sink_cur.store(lsn, Ordering::SeqCst);
                        lsns_note(s, lsn);
                    }
                    Err(_) => WAL_APPEND_FAILED.with(|f| f.set(true)),
                });
                log_sinks.push(Arc::clone(&sink));
                db.shard(s).set_log_sink(Some(sink));
            }
            wal_flushers = ws.wal.start_flushers();
            wal_archivers = ws.wal.start_archivers();
        }

        let subscriber_drops = Arc::new(AtomicU64::new(0));
        let subs: Subscribers = Arc::new(Mutex::new(HashMap::new()));
        let mut firing_sinks: Vec<FiringSink> = Vec::new();
        for s in 0..n {
            let sink_subs = Arc::clone(&subs);
            let sink_drops = Arc::clone(&subscriber_drops);
            let sink: FiringSink = Arc::new(move |notice: &FiringNotice| {
                let msg = ServerMsg::Firing(Firing::from_notice(notice, s, n));
                // This closure runs with the engine locked: serialize
                // the frame once, then fan out pointer pushes only —
                // the event loop does the socket I/O.
                let frame = SharedFrame::new();
                for tx in sink_subs.lock().values() {
                    if tx.send_shared(&msg, &frame).is_err() {
                        sink_drops.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            firing_sinks.push(Arc::clone(&sink));
            db.shard(s).set_firing_sink(Some(sink));
        }

        let repl = if is_replica {
            Some(Arc::new(ReplicaState::new(
                appliers.iter().map(|a| a.next_lsn()).collect(),
            )))
        } else {
            None
        };
        let inner = Arc::new(Shared {
            db,
            config: self.config,
            shutdown: AtomicBool::new(false),
            subs,
            next_conn: AtomicU64::new(0),
            wal,
            epochs,
            subscriber_drops,
            conns_open: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            repl,
            log_sinks,
            firing_sinks,
            event_taps,
            hist,
        });

        let mut repl_thread = None;
        if is_replica {
            let inner2 = Arc::clone(&inner);
            let sources = self.replicate_from;
            let plan = self.repl_fault_plan;
            repl_thread = Some(thread::spawn(move || {
                run_replica(inner2, sources, appliers, plan)
            }));
        }

        let mut listeners: Vec<ListenSocket> = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &self.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            listeners.push(ListenSocket::Tcp(listener));
        }
        let mut unix_path = None;
        if let Some(path) = &self.unix {
            if path.exists() {
                let _ = std::fs::remove_file(path);
            }
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.clone());
            listeners.push(ListenSocket::Unix(listener));
        }
        let reactor = if listeners.is_empty() {
            None
        } else {
            Some(start_reactor(Arc::clone(&inner), listeners)?)
        };

        Ok(Server {
            inner,
            reactor,
            repl_thread,
            wal_flushers,
            wal_archivers,
            tcp_addr,
            unix_path,
            stopped: false,
        })
    }
}

/// A running server. Dropping it shuts it down (joining all threads).
pub struct Server {
    inner: Arc<Shared>,
    reactor: Option<ReactorHandle>,
    repl_thread: Option<JoinHandle<()>>,
    wal_flushers: Vec<WalFlusher>,
    wal_archivers: Vec<WalArchiver>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    stopped: bool,
}

impl Server {
    /// Start configuring a server over `db`. Installs the engine's
    /// firing sink on [`ServerBuilder::start`].
    pub fn builder(db: SharedDatabase) -> ServerBuilder {
        ServerBuilder {
            db,
            shards: 1,
            config: ServerConfig::default(),
            tcp: None,
            unix: None,
            wal_dir: None,
            wal_config: WalConfig::default(),
            wal_io: None,
            replicate_from: Vec::new(),
            repl_fault_plan: HashMap::new(),
            history: false,
            hist_config: HistConfig::default(),
        }
    }

    /// The bound TCP address, if TCP was requested.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The Unix socket path, if one was requested.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// The underlying database handle (shard 0 — the whole database
    /// unless the server runs sharded).
    pub fn db(&self) -> &SharedDatabase {
        self.inner.db.shard(0)
    }

    /// The sharded database coordinator (all shards).
    pub fn sharded_db(&self) -> &ShardedDatabase {
        &self.inner.db
    }

    /// A shard's event-history store (`None` when started without
    /// [`ServerBuilder::history`] or out of range). Test/bench hook.
    pub fn hist(&self, shard: usize) -> Option<Arc<HistStore>> {
        self.inner.hist.get(shard).cloned()
    }

    /// Graceful shutdown: stop accepting, wake every session (each
    /// aborts its open transaction), join all threads, uninstall the
    /// firing sink, and remove the Unix socket file.
    pub fn shutdown(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.repl_thread.take() {
            let _ = h.join();
        }
        if let Some(mut r) = self.reactor.take() {
            // Wake the loop so it notices the flag; it tears down
            // every connection and exits, dropping the worker
            // injector; the workers then drain and exit.
            r.notify.waker.wake();
            if let Some(h) = r.loop_thread.take() {
                let _ = h.join();
            }
            for h in r.workers.drain(..) {
                let _ = h.join();
            }
        }
        for shard in self.inner.db.shards() {
            shard.set_firing_sink(None);
            shard.set_log_sink(None);
            shard.set_event_tap(None);
        }
        // Every session is gone, so no more appends: drain the pending
        // queues (each flusher's stop does a final flush), then fsync
        // what `never` flushes left unsynced, best effort.
        for f in self.wal_flushers.drain(..) {
            f.stop();
        }
        if let Some(ws) = &self.inner.wal {
            let _ = ws.wal.sync_all();
            for w in ws.wal.wals() {
                w.set_durable_sink(None);
            }
        }
        // Archivers stop last (after the final sync): their stop does a
        // final drain, so segments retired by a late checkpoint still
        // reach the archive before the process exits.
        for a in self.wal_archivers.drain(..) {
            a.stop();
        }
        if let Some(p) = &self.unix_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Drop every server-side registration a connection holds: its
/// subscription entry, its per-shard replication-stream entries, and
/// its slot in the open-connection count. Every disconnect path
/// (shutdown, peer EOF, socket error) funnels through here, so a
/// teardown can never leak a registration. The session's open
/// transaction is released separately, by the reactor's reap handshake.
pub(crate) fn release_session(inner: &Shared, conn_id: u64) {
    inner.subs.lock().remove(&conn_id);
    if let Some(ws) = &inner.wal {
        for subs in &ws.repl_subs {
            subs.lock().remove(&conn_id);
        }
    }
    inner.conns_open.fetch_sub(1, Ordering::SeqCst);
}

pub(crate) fn notice(code: &str, message: String) -> ServerMsg {
    ServerMsg::Reply {
        id: 0,
        result: ReplyResult::Err(WireError {
            code: code.to_string(),
            message,
            retryable: false,
        }),
    }
}

pub(crate) fn handle_line(
    inner: &Arc<Shared>,
    conn_id: u64,
    line: &str,
    open_txn: &mut Option<TxnId>,
    tx: &Arc<ConnOutbox>,
    replicating: &mut bool,
) {
    if line.trim().is_empty() {
        return;
    }
    let req: Request = match serde_json::from_str(line) {
        Ok(r) => r,
        Err(e) => {
            let _ = tx.send(notice("parse", format!("malformed request: {e}")));
            return;
        }
    };
    let is_mutation = mutates(&req.cmd);
    // These answer for their own log records through `ack_durable`.
    let self_acked = matches!(
        req.cmd,
        Command::Commit | Command::AdvanceClockBy { .. } | Command::AdvanceClockTo { .. }
    );
    let mut result = match execute(inner, conn_id, req.id, req.cmd, open_txn, tx, replicating) {
        Ok(reply) => ReplyResult::Ok(reply),
        Err(e) => ReplyResult::Err(e),
    };
    // Degradation check: if a mutating command left the WAL poisoned,
    // the engine may have state the log does not. Latch read-only and
    // abort the session's transaction. A command inside a transaction
    // answers a retryable `wal` error even over an in-memory success:
    // its transaction can no longer commit. A commit or clock advance
    // keeps the answer `ack_durable` gave — durable, lost, or in doubt —
    // which is what recovery will find.
    let refused = matches!(&result, ReplyResult::Err(e) if e.code == "read_only");
    if is_mutation && !refused {
        if let Some(ws) = &inner.wal {
            if let Some(msg) = ws.wal.poisoned() {
                ws.read_only.store(true, Ordering::SeqCst);
                if let Some(t) = open_txn.take() {
                    let _ = inner.db.abort(t);
                }
                if !self_acked {
                    result = ReplyResult::Err(WireError {
                        code: "wal".to_string(),
                        message: format!("write-ahead log failed; server is now read-only: {msg}"),
                        retryable: true,
                    });
                }
            }
        }
    }
    let _ = tx.send(ServerMsg::Reply { id: req.id, result });
}

/// Commands the WAL must capture (state writers). Everything else —
/// reads, aborts, subscriptions — stays allowed in read-only mode:
/// aborts need no durability because recovery discards uncommitted
/// effects anyway.
fn mutates(cmd: &Command) -> bool {
    !matches!(
        cmd,
        Command::Ping
            | Command::Abort
            | Command::Snapshot
            | Command::Stats
            | Command::Subscribe
            | Command::Unsubscribe
            | Command::TakeOutput
            | Command::PeekField { .. }
            | Command::Replicate { .. }
            | Command::Promote { .. }
            | Command::Demote { .. }
            | Command::Query { .. }
    )
}

/// Read the framed `ClassSpec` records from `schema.wal`. A missing
/// file means no wire-defined classes; a torn trailing record (crash
/// between define and append) is truncated away like an op-log tail.
/// Public so out-of-process restore tools (`ode_server --wal-restore`)
/// can rebuild the class table before replaying restored ops.
pub fn load_schema(io: &SharedIo, path: &Path) -> Result<Vec<ClassSpec>, String> {
    let bytes = match io.with(|io| io.read(path)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("schema wal: {e}")),
    };
    let (frames, tail) = frame::decode_all(&bytes)
        .map_err(|e| format!("schema wal corrupt at offset {}: {}", e.offset, e.reason))?;
    if let frame::Tail::Torn { offset } = tail {
        io.with(|io| io.truncate(path, offset))
            .map_err(|e| format!("schema wal: {e}"))?;
    }
    let mut specs = Vec::with_capacity(frames.len());
    for f in &frames {
        let json = std::str::from_utf8(f).map_err(|e| format!("schema wal: {e}"))?;
        specs.push(serde_json::from_str(json).map_err(|e| format!("schema wal: {e}"))?);
    }
    Ok(specs)
}

/// Append one framed `ClassSpec` to `schema.wal` and fsync it. Called
/// with the engine locked, right after the in-memory define succeeds.
pub(crate) fn append_schema(io: &SharedIo, path: &Path, spec: &ClassSpec) -> Result<(), String> {
    let json = serde_json::to_string(spec).map_err(|e| e.to_string())?;
    let rec = frame::encode(json.as_bytes());
    io.with(|io| {
        io.append(path, &rec)?;
        io.fsync(path)
    })
    .map_err(|e| e.to_string())
}

/// Build the `ReplArchive` messages that carry a shard's compressed
/// archive chain from `from_lsn` up to (at least) `upto` — replica
/// catch-up without a snapshot bootstrap. Returns `None` when the chain
/// has a gap, an unreadable file, or simply doesn't reach `upto`; the
/// caller then falls back to the snapshot. Best-effort by design: an
/// archiver that is mid-drain or disabled must never fail a handshake.
fn archive_catchup(
    io: &SharedIo,
    dir: &Path,
    shard: u64,
    from_lsn: u64,
    upto: u64,
    epoch: u64,
) -> Option<Vec<ServerMsg>> {
    let entries = list_archives(io, dir).ok()?;
    let adir = archive_dir(dir);
    let mut msgs = Vec::new();
    let mut cov = from_lsn;
    for (_, _, _, name) in entries {
        if cov >= upto {
            break;
        }
        let meta = read_archive_meta(io, &adir.join(&name)).ok()?;
        let end = meta.base_lsn + meta.records;
        if end <= cov {
            continue; // wholly before the replica's cursor
        }
        if meta.base_lsn > cov {
            return None; // gap: chain doesn't reach back to the cursor
        }
        let bytes = read_archive_bytes(io, dir, &name).ok()?;
        msgs.push(ServerMsg::ReplArchive {
            shard,
            base_lsn: meta.base_lsn,
            records: meta.records,
            data: hex_encode(&bytes),
            epoch,
        });
        cov = end;
    }
    (cov >= upto).then_some(msgs)
}

fn no_txn() -> WireError {
    WireError::new("no_txn", "no open transaction in this session")
}

/// Close out a transactional engine call: if the engine finalized the
/// transaction while failing (trigger-requested abort), forget it.
fn finish<T>(
    inner: &Shared,
    open_txn: &mut Option<TxnId>,
    t: TxnId,
    r: Result<T, ode_db::OdeError>,
) -> Result<T, WireError> {
    match r {
        Ok(v) => Ok(v),
        Err(e) => {
            if !inner.db.txn_open(t) {
                *open_txn = None;
            }
            Err(WireError::from_ode(&e))
        }
    }
}

fn execute(
    inner: &Arc<Shared>,
    conn_id: u64,
    req_id: u64,
    cmd: Command,
    open_txn: &mut Option<TxnId>,
    tx: &Arc<ConnOutbox>,
    replicating: &mut bool,
) -> Result<Reply, WireError> {
    if let Some(ws) = &inner.wal {
        if mutates(&cmd) && ws.read_only.load(Ordering::SeqCst) {
            return Err(WireError::new(
                "read_only",
                "server is read-only after a write-ahead log failure; restart to recover",
            ));
        }
    }
    // A deposed node's write authority is revoked: an epoch beyond
    // its history exists elsewhere, so anything committed here from
    // now on would be fork debris the fence discards on rejoin.
    if mutates(&cmd) && inner.epochs.is_deposed() {
        return Err(WireError::new(
            "deposed",
            format!(
                "this node was deposed at epoch {}; write through the new primary",
                inner.epochs.observed_epoch()
            ),
        ));
    }
    // An unpromoted replica refuses every state writer except its own
    // local `Checkpoint` (log maintenance): writes belong on the
    // primary, and the stream is the only mutation source here.
    if let Some(rs) = &inner.repl {
        if mutates(&cmd)
            && !rs.promoted.load(Ordering::SeqCst)
            && !matches!(cmd, Command::Checkpoint)
        {
            return Err(WireError::new(
                "read_only_replica",
                "this server is a read replica; write through the primary or Promote it",
            ));
        }
    }
    match cmd {
        Command::Ping => Ok(Reply::Pong),
        Command::DefineClass(spec) => {
            let def = compile_class(&spec).map_err(|e| WireError::from_ode(&e))?;
            match &inner.wal {
                None => {
                    inner
                        .db
                        .define_class(&def)
                        .map_err(|e| WireError::from_ode(&e))?;
                }
                // Define on every shard and append the schema record
                // while holding *all* engine locks (acquired in shard
                // order, like 2PC), so no shard can log an op that
                // references the class before the class record is
                // durable. A crash between the two tears the schema.wal
                // tail harmlessly (truncated on recovery).
                Some(ws) => {
                    let shard_count = inner.db.shard_count();
                    let mut guards: Vec<_> =
                        (0..shard_count).map(|s| inner.db.shard(s).lock()).collect();
                    for (s, g) in guards.iter_mut().enumerate() {
                        let cid = g
                            .define_class(def.clone())
                            .map_err(|e| WireError::from_ode(&e))?;
                        if let Some(store) = inner.hist.get(s) {
                            store.observe_class(cid.0, &def.name);
                        }
                    }
                    append_schema(&ws.io, &ws.schema_path, &spec).map_err(|msg| {
                        ws.read_only.store(true, Ordering::SeqCst);
                        WireError {
                            code: "wal".to_string(),
                            message: format!("schema log write failed: {msg}"),
                            retryable: true,
                        }
                    })?;
                    // Ship the new class while each shard's WAL is
                    // frozen so it serializes with that shard's
                    // Replicate handshake (which reads schema.wal under
                    // the same freeze).
                    for s in 0..shard_count {
                        ws.wal.wal(s).frozen(|_| {
                            for rtx in ws.repl_subs[s].lock().values() {
                                let _ = rtx.send(ServerMsg::ReplSchema(spec.clone()));
                            }
                        });
                    }
                }
            }
            Ok(Reply::Unit)
        }
        Command::Begin { user } => {
            if open_txn.is_some() {
                return Err(WireError::new(
                    "txn_open",
                    "session already has an open transaction",
                ));
            }
            let t = inner.db.begin(user);
            *open_txn = Some(t);
            Ok(Reply::Begun { txn: t.0 })
        }
        Command::Commit => {
            let t = open_txn.ok_or_else(no_txn)?;
            ack_durable(inner, || {
                let r = inner.db.commit(t);
                if !inner.db.txn_open(t) {
                    *open_txn = None;
                }
                r.map_err(|e| WireError::from_ode(&e))
            })?;
            Ok(Reply::Unit)
        }
        Command::Abort => {
            // Idempotent: a transaction the engine already finalized
            // (trigger abort, idle timeout) aborts to Unit as well.
            if let Some(t) = open_txn.take() {
                let _ = inner.db.abort(t);
            }
            Ok(Reply::Unit)
        }
        Command::New { class, overrides } => {
            let t = open_txn.ok_or_else(no_txn)?;
            let ovr: Vec<(&str, Value)> = overrides
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            let r = inner.db.create_object(t, &class, &ovr);
            finish(inner, open_txn, t, r).map(|id| Reply::Object { id: id.0 })
        }
        Command::Call {
            object,
            method,
            args,
        } => {
            let t = open_txn.ok_or_else(no_txn)?;
            let r = inner.db.call(t, ObjectId(object), &method, &args);
            finish(inner, open_txn, t, r).map(Reply::Value)
        }
        Command::Delete { object } => {
            let t = open_txn.ok_or_else(no_txn)?;
            let r = inner.db.delete_object(t, ObjectId(object));
            finish(inner, open_txn, t, r).map(|()| Reply::Unit)
        }
        Command::Activate {
            object,
            trigger,
            params,
            replay_history,
        } => {
            let t = open_txn.ok_or_else(no_txn)?;
            if !replay_history {
                let r = inner
                    .db
                    .activate_trigger(t, ObjectId(object), &trigger, &params);
                return finish(inner, open_txn, t, r).map(|()| Reply::Unit);
            }
            if inner.hist.is_empty() {
                return Err(WireError::new(
                    "no_history",
                    "replay_history requires a server started with --history",
                ));
            }
            if object == 0 {
                return Err(WireError::new("unknown_object", "object ids start at 1"));
            }
            let n = inner.db.shard_count();
            let obj = ObjectId(object);
            let store = &inner.hist[shard_of(obj, n)];
            // The replay input must cover everything this server has
            // acked: sync waits for the indexer to drain the durable
            // prefix (bounded — acked commits are durable already).
            store.sync();
            let events = store
                .object_events(to_local(obj, n).0)
                .map_err(|e| WireError::new("history", e.to_string()))?;
            let scanned = events.len() as u64;
            let r = inner
                .db
                .activate_trigger_retro(t, obj, &trigger, &params, &events);
            finish(inner, open_txn, t, r).map(|replay| Reply::Replayed {
                fired: replay.firings.len() as u64,
                scanned,
                active: replay.active,
            })
        }
        Command::Deactivate { object, trigger } => {
            let t = open_txn.ok_or_else(no_txn)?;
            let r = inner.db.deactivate_trigger(t, ObjectId(object), &trigger);
            finish(inner, open_txn, t, r).map(|()| Reply::Unit)
        }
        // A clock advance logs its own record and commits the timer
        // firings it causes in system transactions (§3.1), so it acks
        // under Commit's rule.
        Command::AdvanceClockBy { ms } => ack_durable(inner, || {
            inner.db.advance_clock_by(ms);
            Ok(Reply::Unit)
        }),
        Command::AdvanceClockTo { ms } => ack_durable(inner, || {
            inner.db.advance_clock_to(ms);
            Ok(Reply::Unit)
        }),
        Command::Snapshot => {
            // Lock every shard (in shard order) so the snapshot is one
            // consistent cut across the whole partitioned store. A
            // single shard serializes to the legacy flat snapshot; more
            // serialize to a JSON array of per-shard snapshots.
            let shard_count = inner.db.shard_count();
            let mut guards: Vec<_> = (0..shard_count).map(|s| inner.db.shard(s).lock()).collect();
            let mut parts = Vec::with_capacity(shard_count);
            for g in guards.iter_mut() {
                let snap = g.snapshot().map_err(|e| WireError::from_ode(&e))?;
                parts.push(snap.to_json().map_err(|e| WireError::from_ode(&e))?);
            }
            drop(guards);
            let json = if shard_count == 1 {
                parts.pop().expect("one shard")
            } else {
                serde_json::to_string(&parts)
                    .map_err(|e| WireError::new("engine", e.to_string()))?
            };
            Ok(Reply::SnapshotTaken { json })
        }
        Command::Restore { snapshot } => {
            if inner.wal.is_some() {
                // A state jump the log never saw would desync replay.
                return Err(WireError::new(
                    "restore_unsupported",
                    "Restore is not allowed on a WAL-backed server; use Checkpoint and recovery",
                ));
            }
            let shard_count = inner.db.shard_count();
            let parts: Vec<String> = if shard_count == 1 {
                vec![snapshot]
            } else {
                serde_json::from_str(&snapshot).map_err(|e| {
                    WireError::new(
                        "bad_snapshot",
                        format!("a {shard_count}-shard server restores a JSON array of {shard_count} per-shard snapshots: {e}"),
                    )
                })?
            };
            if parts.len() != shard_count {
                return Err(WireError::new(
                    "bad_snapshot",
                    format!(
                        "snapshot has {} shard part(s), server runs {shard_count}",
                        parts.len()
                    ),
                ));
            }
            let mut snaps = Vec::with_capacity(shard_count);
            for p in &parts {
                snaps.push(Snapshot::from_json(p).map_err(|e| WireError::from_ode(&e))?);
            }
            let mut guards: Vec<_> = (0..shard_count).map(|s| inner.db.shard(s).lock()).collect();
            for (g, snap) in guards.iter_mut().zip(&snaps) {
                g.restore(snap).map_err(|e| WireError::from_ode(&e))?;
            }
            Ok(Reply::Unit)
        }
        Command::Checkpoint => {
            let Some(ws) = &inner.wal else {
                return Err(WireError::new(
                    "no_wal",
                    "server was started without a WAL directory",
                ));
            };
            // Snapshot and checkpoint each shard while holding *all*
            // engine locks (in shard order), so every shard's
            // checkpoint LSN matches one consistent cut (lock order
            // engine → wal, same as the log sinks). That means every
            // session stalls for the duration — measure and report it
            // so operators see the cost.
            let started = Instant::now();
            let shard_count = inner.db.shard_count();
            let mut guards: Vec<_> = (0..shard_count).map(|s| inner.db.shard(s).lock()).collect();
            let mut lsn_max = 0u64;
            let mut swept = 0u64;
            for (s, g) in guards.iter_mut().enumerate() {
                let snap = g.snapshot().map_err(|e| WireError::from_ode(&e))?;
                if let Some(store) = inner.hist.get(s) {
                    // Seal the history store's active set behind the
                    // checkpoint barrier *before* the WAL truncates:
                    // with all engine locks held no new batches can
                    // arrive, so after an fsync + watermark bump the
                    // indexer drains everything below the head and the
                    // seal leaves `covered_lsn` at or past the
                    // checkpoint — WAL truncation never strands
                    // unsealed rows.
                    let head = ws.wal.wal(s).lsn();
                    if head > 0 {
                        ws.wal.wal(s).sync().map_err(wal_error)?;
                        store.advance_durable_through(head - 1);
                        store
                            .barrier_seal(head)
                            .map_err(|e| WireError::new("history", e.to_string()))?;
                    }
                }
                // The deferred form only *installs* the checkpoint and
                // queues the superseded generation; deletion (or the
                // archiver hand-off) runs below, after the engine locks
                // drop, so the stall figure is pure snapshot+install.
                let report = ws
                    .wal
                    .wal(s)
                    .checkpoint_deferred(&snap)
                    .map_err(wal_error)?;
                lsn_max = lsn_max.max(report.lsn);
                swept += report.swept_segments;
            }
            drop(guards);
            let stall = started.elapsed();
            let sweep_started = Instant::now();
            ws.wal.finish_sweep_all();
            let sweep = sweep_started.elapsed();
            eprintln!(
                "checkpoint: lsn {} in {:?} (engine stalled), retired {} segment file(s), \
                 sweep {:?} off-stall",
                lsn_max, stall, swept, sweep
            );
            Ok(Reply::Checkpointed {
                lsn: lsn_max,
                swept_segments: swept,
                stall_ms: stall.as_millis() as u64,
                sweep_ms: sweep.as_millis() as u64,
            })
        }
        Command::Stats => {
            // Engine counters sum across shards; the clock is the max
            // (shards advance in lockstep, but a broadcast in flight
            // may have reached only a prefix).
            let shard_count = inner.db.shard_count();
            let mut events_posted = 0;
            let mut symbols_stepped = 0;
            let mut triggers_fired = 0;
            let mut txns_committed = 0;
            let mut txns_aborted = 0;
            let mut clock_ms = 0;
            for shard in inner.db.shards() {
                let (s, now) = shard.with(|db| (db.stats(), db.now()));
                events_posted += s.events_posted;
                symbols_stepped += s.symbols_stepped;
                triggers_fired += s.triggers_fired;
                txns_committed += s.txns_committed;
                txns_aborted += s.txns_aborted;
                clock_ms = clock_ms.max(now);
            }
            // WAL counters likewise sum across shard streams (LSNs are
            // per-shard sequences, so the sums are record counts).
            let (mut read_only, mut wal_lsn, mut durable_lsn) = (false, None, None);
            let (mut fsyncs_total, mut batches, mut max_batch) = (0, 0, 0);
            let (mut recovery_ms, mut segments_replayed) = (0, 0);
            let mut archive = ArchiveStats::default();
            if let Some(ws) = &inner.wal {
                read_only = ws.read_only.load(Ordering::SeqCst);
                recovery_ms = ws.recovery_ms;
                segments_replayed = ws.segments_replayed;
                archive = ws.wal.archive_stats();
                let mut lsn_sum = 0;
                let mut durable_sum = 0;
                for w in ws.wal.wals() {
                    let st = w.stats();
                    lsn_sum += w.lsn();
                    durable_sum += st.durable_lsn;
                    fsyncs_total += st.fsyncs_total;
                    batches += st.group_commit_batches;
                    max_batch = max_batch.max(st.group_commit_max_batch);
                }
                wal_lsn = Some(lsn_sum);
                durable_lsn = Some(durable_sum);
            }
            let (replica, repl_connected, last_applied_lsn, replica_lag_lsn, heartbeat_age) =
                match &inner.repl {
                    Some(rs) => {
                        let applied = rs.applied_sum();
                        let head = rs.head_sum().max(applied);
                        let promoted = rs.promoted.load(Ordering::SeqCst);
                        read_only = read_only || !promoted;
                        (
                            true,
                            rs.connected.load(Ordering::SeqCst),
                            Some(applied),
                            if promoted { None } else { Some(head - applied) },
                            rs.heartbeat_age_ms(),
                        )
                    }
                    None => (false, false, None, None, None),
                };
            let mut hist_segments = 0;
            let mut hist_rows = 0;
            let mut hist_disk_bytes = 0;
            let mut hist_indexed_lsns = Vec::with_capacity(inner.hist.len());
            let mut hist_queries = 0;
            let mut hist_rows_returned = 0;
            let mut hist_segments_skipped = 0;
            let mut hist_retro_replays = 0;
            for store in &inner.hist {
                let hs = store.stats();
                hist_segments += hs.segments;
                hist_rows += hs.rows;
                hist_disk_bytes += hs.disk_bytes;
                hist_indexed_lsns.push(hs.indexed_lsn);
                hist_queries += hs.queries;
                hist_rows_returned += hs.rows_returned;
                hist_segments_skipped += hs.segments_skipped;
                hist_retro_replays += hs.retro_replays;
            }
            let shard_stats = inner.db.stats();
            Ok(Reply::Stats(Box::new(WireStats {
                events_posted,
                symbols_stepped,
                triggers_fired,
                txns_committed,
                txns_aborted,
                clock_ms,
                subscriber_drops: inner.subscriber_drops.load(Ordering::Relaxed),
                conns_open: inner.conns_open.load(Ordering::SeqCst),
                conns_rejected: inner.conns_rejected.load(Ordering::SeqCst),
                read_only,
                wal_lsn,
                durable_lsn,
                fsyncs_total,
                group_commit_batches: batches,
                group_commit_max_batch: max_batch,
                replica,
                repl_connected,
                last_applied_lsn,
                replica_lag_lsn,
                shards: shard_count as u64,
                shard_commits: shard_stats.commits,
                shard_lock_wait_us: shard_stats
                    .lock_wait_ns
                    .iter()
                    .map(|ns| ns / 1_000)
                    .collect(),
                hist_enabled: !inner.hist.is_empty(),
                hist_segments,
                hist_rows,
                hist_disk_bytes,
                hist_indexed_lsns,
                hist_queries,
                hist_rows_returned,
                hist_segments_skipped,
                hist_retro_replays,
                epoch: inner.epochs.observed_epoch(),
                deposed: inner.epochs.is_deposed(),
                repl_heartbeat_age_ms: heartbeat_age,
                stale_epoch_rejections: inner.epochs.stale_rejections.load(Ordering::Relaxed),
                recovery_ms,
                segments_replayed,
                archive_segments: archive.segments_archived,
                archive_bytes: archive.bytes_archived,
                archive_lag_segments: archive.lag_segments,
            })))
        }
        Command::Subscribe => {
            inner.subs.lock().insert(conn_id, Arc::clone(tx));
            Ok(Reply::Unit)
        }
        Command::Unsubscribe => {
            inner.subs.lock().remove(&conn_id);
            Ok(Reply::Unit)
        }
        Command::TakeOutput => Ok(Reply::Output(inner.db.take_output())),
        Command::PeekField { object, field } => {
            let v = inner
                .db
                .with_obj(ObjectId(object), |db, local| db.peek_field(local, &field));
            Ok(Reply::Value(v.unwrap_or(Value::Null)))
        }
        Command::Replicate { from_lsns, epoch } => {
            let Some(ws) = &inner.wal else {
                return Err(WireError::new(
                    "no_wal",
                    "server was started without a WAL directory; nothing to replicate",
                ));
            };
            let shard_count = ws.wal.shard_count();
            if from_lsns.len() != shard_count {
                return Err(WireError::new(
                    "shard_mismatch",
                    format!(
                        "replica negotiated {} shard stream(s); this primary runs {shard_count}",
                        from_lsns.len()
                    ),
                ));
            }
            let my_epoch = inner.epochs.history_epoch();
            if epoch > my_epoch {
                // The follower has seen a primary elected past us:
                // this node is deposed, and serving its (possibly
                // forked) history downstream would spread the fork.
                inner
                    .epochs
                    .observe(epoch)
                    .map_err(|e| WireError::new("wal", e))?;
                inner
                    .epochs
                    .stale_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return Err(WireError::new(
                    "stale_epoch",
                    format!("serving node is at epoch {my_epoch}, behind the stream's {epoch}"),
                ));
            }
            if inner.epochs.is_deposed() {
                return Err(WireError::new(
                    "deposed",
                    format!(
                        "this node was deposed at epoch {}; replicate from the new primary",
                        inner.epochs.observed_epoch()
                    ),
                ));
            }
            // Per shard stream: freeze that shard's WAL across scan +
            // registration. Each shard's durable sink ships under the
            // disk lock its freeze holds, so the handoff from
            // historical records to live shipping has no gap and no
            // duplicate per stream. The freeze's head is the durable
            // watermark — exactly what the on-disk scan contains, and
            // the most a primary may ever ship. Streams are negotiated
            // independently: a shard past the catch-up window
            // bootstraps from its own checkpoint snapshot.
            let mut start_lsns = Vec::with_capacity(shard_count);
            let mut heads = Vec::with_capacity(shard_count);
            for (s, &from_lsn) in from_lsns.iter().enumerate() {
                let dir = shard_dir(&ws.dir, s, shard_count);
                let (start_lsn, head) =
                    ws.wal
                        .wal(s)
                        .frozen(|head| -> Result<(u64, u64), WireError> {
                            // Fork fence, checked before the head
                            // bound: a follower claiming an older
                            // epoch whose cursor is past the first
                            // bump it hasn't seen holds records of a
                            // deposed lineage (a shared prefix would
                            // end at the bump). Tell it to discard
                            // the shard and re-replicate from zero; a
                            // cursor at or below the fence is shared
                            // history and streams normally — the bump
                            // record itself teaches the new epoch
                            // in-band.
                            if epoch < my_epoch {
                                if let Some(f) = inner.epochs.fence_lsn(s as u64, epoch) {
                                    if from_lsn > f {
                                        inner
                                            .epochs
                                            .stale_rejections
                                            .fetch_add(1, Ordering::Relaxed);
                                        let schema = load_schema(&ws.io, &ws.schema_path)
                                            .map_err(|msg| {
                                                WireError::new(
                                                    "wal",
                                                    format!("schema scan failed: {msg}"),
                                                )
                                            })?;
                                        let _ = tx.send(ServerMsg::ReplSnapshot {
                                            shard: s as u64,
                                            lsn: 0,
                                            schema,
                                            snapshot: None,
                                            epoch: my_epoch,
                                            fence_lsn: Some(f),
                                        });
                                        return Ok((0, head));
                                    }
                                }
                            }
                            if from_lsn > head {
                                return Err(WireError::new(
                                    "bad_lsn",
                                    format!(
                                "shard {s}: requested lsn {from_lsn} is beyond the durable head {head}"
                            ),
                                ));
                            }
                            let scan = SegmentReader::scan(&dir, &ws.io).map_err(|e| {
                                WireError::new("wal", format!("shard {s} log scan failed: {e}"))
                            })?;
                            let schema = load_schema(&ws.io, &ws.schema_path).map_err(|msg| {
                                WireError::new("wal", format!("schema scan failed: {msg}"))
                            })?;
                            let mut archive_msgs: Vec<ServerMsg> = Vec::new();
                            let (start_lsn, snapshot) = if from_lsn < scan.base_lsn {
                                // The live log before the checkpoint is
                                // gone. Prefer archive catch-up: when
                                // the compressed archive chain still
                                // covers [from_lsn, base), ship those
                                // archives and let the replica *replay*
                                // instead of discarding its state for a
                                // snapshot bootstrap.
                                match archive_catchup(
                                    &ws.io,
                                    &dir,
                                    s as u64,
                                    from_lsn,
                                    scan.base_lsn,
                                    my_epoch,
                                ) {
                                    Some(msgs) => {
                                        archive_msgs = msgs;
                                        (from_lsn, None)
                                    }
                                    None => {
                                        let bytes =
                                            scan.checkpoint.clone().ok_or_else(|| {
                                                WireError::new(
                                        "wal",
                                        format!(
                                    "shard {s} log starts past the requested lsn with no checkpoint"
                                ),
                                    )
                                            })?;
                                        let json = String::from_utf8(bytes).map_err(|e| {
                                            WireError::new(
                                                "wal",
                                                format!("checkpoint not utf-8: {e}"),
                                            )
                                        })?;
                                        (scan.base_lsn, Some(json))
                                    }
                                }
                            } else {
                                (from_lsn, None)
                            };
                            let _ = tx.send(ServerMsg::ReplSnapshot {
                                shard: s as u64,
                                lsn: start_lsn,
                                schema,
                                snapshot,
                                epoch: my_epoch,
                                fence_lsn: None,
                            });
                            for m in archive_msgs {
                                let _ = tx.send(m);
                            }
                            for (lsn, payload) in scan.records_from(start_lsn) {
                                let _ = tx.send(ServerMsg::ReplOp {
                                    shard: s as u64,
                                    lsn,
                                    head,
                                    frame: hex_encode(&frame::encode(payload)),
                                    epoch: my_epoch,
                                });
                            }
                            ws.repl_subs[s].lock().insert(conn_id, Arc::clone(tx));
                            Ok((start_lsn, head))
                        })?;
                start_lsns.push(start_lsn);
                heads.push(head);
            }
            *replicating = true;
            Ok(Reply::Replicating {
                start_lsns,
                heads,
                epoch: my_epoch,
            })
        }
        Command::Promote { force } => {
            let Some(rs) = &inner.repl else {
                return Err(WireError::new(
                    "not_replica",
                    "this server was not started as a replica",
                ));
            };
            if !rs.promoted.load(Ordering::SeqCst) {
                // Refuse a lagging promote: records the old primary
                // acked would silently vanish from the new lineage.
                // `force` accepts that loss — the fence demotes them
                // on every surviving node when the old primary's
                // subtree rejoins.
                if !force {
                    let applied = rs.applied_sum();
                    let head = rs.head_sum();
                    if head > applied {
                        return Err(WireError {
                            code: "promote_lagging".to_string(),
                            message: format!(
                                "replica is {} record(s) behind the last reported upstream \
                                 head; let it catch up or Promote with force:true",
                                head - applied
                            ),
                            retryable: true,
                        });
                    }
                }
                rs.stop.store(true, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while !rs.finished.load(Ordering::SeqCst) {
                    if Instant::now() >= deadline {
                        return Err(WireError {
                            code: "promote_timeout".to_string(),
                            message: "replication stream did not drain in time; retry Promote"
                                .to_string(),
                            retryable: true,
                        });
                    }
                    thread::sleep(inner.config.poll_interval);
                }
                // Bump the epoch *durably* before the first write is
                // accepted: the bump record lands in every shard WAL
                // (where it ships downstream and fences the old
                // lineage) and then in the epoch table (where it
                // survives checkpoint sweeps). A crash between the
                // two is healed by `merge_bumps` on recovery, so the
                // node can never come back writable at the old epoch.
                let new_epoch = inner.epochs.history_epoch() + 1;
                if let Some(ws) = &inner.wal {
                    let mut acks = Vec::with_capacity(ws.wal.shard_count());
                    for s in 0..ws.wal.shard_count() {
                        let lsn = ws
                            .wal
                            .wal(s)
                            .append(&LogOp::EpochBump { epoch: new_epoch })
                            .map_err(wal_error)?;
                        acks.push((s, lsn));
                    }
                    ws.wal.wait_durable(&acks).map_err(wal_error)?;
                    for &(s, lsn) in &acks {
                        inner
                            .epochs
                            .note_start(new_epoch, s as u64, lsn)
                            .map_err(|e| WireError::new("wal", e))?;
                    }
                } else {
                    for (s, applied) in rs.applied.iter().enumerate() {
                        inner
                            .epochs
                            .note_start(new_epoch, s as u64, applied.load(Ordering::SeqCst))
                            .map_err(|e| WireError::new("wal", e))?;
                    }
                }
                rs.promoted.store(true, Ordering::SeqCst);
            }
            Ok(Reply::Promoted {
                lsn: rs.applied_sum(),
                epoch: inner.epochs.history_epoch(),
            })
        }
        Command::Demote { epoch } => {
            // An announcement, not a mutation: record that `epoch`
            // exists. If that's news beyond this node's own history,
            // the deposed latch flips and mutations start answering
            // `deposed`.
            inner
                .epochs
                .observe(epoch)
                .map_err(|e| WireError::new("wal", e))?;
            Ok(Reply::Demoted {
                epoch: inner.epochs.observed_epoch(),
            })
        }
        Command::Query {
            class,
            object,
            kind,
            qualifier,
            args,
            min_seq,
            max_seq,
            min_time,
            max_time,
            limit,
        } => {
            if inner.hist.is_empty() {
                return Err(WireError::new(
                    "no_history",
                    "server was started without --history; the event-history store is off",
                ));
            }
            let qualifier = match qualifier.as_deref() {
                None => None,
                Some("before") => Some(Qualifier::Before),
                Some("after") => Some(Qualifier::After),
                Some(other) => {
                    return Err(WireError::new(
                        "bad_query",
                        format!("unknown qualifier {other:?}; use \"before\" or \"after\""),
                    ))
                }
            };
            let mut preds = Vec::with_capacity(args.len());
            for (index, op, value) in &args {
                let op = CmpOp::parse(op).ok_or_else(|| {
                    WireError::new(
                        "bad_query",
                        format!("unknown arg predicate op {op:?}; use eq|ne|lt|le|gt|ge"),
                    )
                })?;
                preds.push(ArgPred {
                    index: *index as usize,
                    op,
                    value: value.clone(),
                });
            }
            // A hard server-side ceiling bounds the stream even when
            // the client asks for everything; `truncated` tells them
            // to narrow the query.
            const MAX_QUERY_ROWS: usize = 10_000;
            let cap = limit
                .map(|l| l as usize)
                .unwrap_or(MAX_QUERY_ROWS)
                .min(MAX_QUERY_ROWS);
            let n = inner.db.shard_count();
            // An object filter pins the owning shard; object ids start
            // at 1, so a 0 filter matches nothing.
            let shards: Vec<usize> = match object {
                Some(0) => Vec::new(),
                Some(o) => vec![shard_of(ObjectId(o), n)],
                None => (0..n).collect(),
            };
            let mut sent = 0usize;
            let mut truncated = false;
            let mut scanned = 0u64;
            let mut skipped = 0u64;
            for &s in &shards {
                let store = &inner.hist[s];
                // Read-your-writes: anything acked before this query
                // was durable, so the indexer wait is bounded.
                store.sync();
                let q = HistQuery {
                    class: class.clone(),
                    object: object.map(|o| to_local(ObjectId(o), n).0),
                    kind: kind.clone(),
                    qualifier,
                    args: preds.clone(),
                    min_seq,
                    max_seq,
                    min_time,
                    max_time,
                    // One past the remaining budget: a full result
                    // proves more rows exist without streaming them.
                    limit: Some(cap - sent + 1),
                };
                let res = store
                    .query(&q)
                    .map_err(|e| WireError::new("history", e.to_string()))?;
                scanned += res.segments_scanned as u64;
                skipped += res.segments_skipped as u64;
                let budget = cap - sent;
                if res.truncated || res.rows.len() > budget {
                    truncated = true;
                }
                let take = res.rows.len().min(budget);
                for chunk in res.rows[..take].chunks(256) {
                    let rows: Vec<WireRow> = chunk
                        .iter()
                        .map(|r| WireRow {
                            seq: r.seq,
                            shard: s as u64,
                            time: r.time,
                            txn: r.txn,
                            object: to_global(ObjectId(r.object), s, n).0,
                            class: store.class_label(r.class),
                            event: store.render_event(r),
                            args: r.args.clone(),
                        })
                        .collect();
                    let _ = tx.send(ServerMsg::Rows { id: req_id, rows });
                }
                sent += take;
                if truncated {
                    break;
                }
            }
            Ok(Reply::QueryDone {
                rows: sent as u64,
                truncated,
                segments_scanned: scanned,
                segments_skipped: skipped,
            })
        }
    }
}
