//! E19 — the WAL lifecycle: recovery time, checkpoint-sweep stall
//! with and without background archiving, and the archive
//! compressor's ratio on real log segments.
//!
//! Three measurements over one multi-segment log build:
//!
//! 1. **Recovery** — cold `DiskWal::open` of the directory, best of
//!    three passes. The recovered ops must equal the logged ones
//!    record for record.
//! 2. **Checkpoint stall** — wall-clock of `checkpoint()` over a log
//!    with many sealed segments, plain mode (the sweep unlinks inline)
//!    vs archive mode (the sweep only queues; compression happens in a
//!    later `archive_now` drain, timed separately). Archiving must not
//!    add measurable stall to the checkpoint path.
//! 3. **Archive ratio** — raw retired bytes vs compressed archive
//!    bytes from that drain.
//!
//! Results are printed as a table and written to
//! `BENCH_e19_recovery.json` at the repository root. The recovery runs
//! double as a smoke test: every pass must decode the op stream that
//! was logged.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ode_bench::tmp_dir;
use ode_core::Value;
use ode_db::{demo, Database, DiskWal, FsyncPolicy, LogOp, SharedIo, StdIo, WalConfig};

const TXNS: usize = 12_000;

/// The stall phase replays fewer txns (its checkpoint serializes the
/// whole database — object histories included — into one frame) over
/// smaller segments, so the sweep still has 8+ files to retire.
const STALL_TXNS: usize = 1_500;

fn std_io() -> SharedIo {
    SharedIo::new(StdIo::new())
}

fn cfg(archive: bool, segment_bytes: u64) -> WalConfig {
    WalConfig {
        segment_bytes,
        fsync: FsyncPolicy::Never,
        archive,
    }
}

/// 256 KiB segments: the recovery workload seals well over 8 of them.
fn recovery_cfg() -> WalConfig {
    cfg(false, 256 * 1024)
}

/// Build a log in `dir`: `txns` committed withdrawals (one in eight
/// fires T6, so records carry trigger traffic). Returns the live
/// database for later snapshotting and the logged records as JSON
/// lines.
fn build_log(dir: &Path, config: WalConfig, txns: usize) -> (DiskWal, Database, Vec<String>) {
    let (wal, recovery) = DiskWal::open(dir, config, std_io()).expect("open");
    assert!(recovery.is_empty());
    let logged = Arc::new(Mutex::new(Vec::new()));

    let mut db = Database::new();
    db.define_class(demo::stockroom_class()).unwrap();
    let sink_wal = wal.clone();
    let sink_logged = Arc::clone(&logged);
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        sink_wal.append(op).expect("append");
        sink_logged
            .lock()
            .unwrap()
            .push(op.to_json_line().expect("encode"));
    })));
    let t = db.begin_as(Value::Str("admin".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();
    for k in 0..txns {
        let q = if k % 8 == 0 { 150 } else { 5 };
        demo::withdraw_txn(&mut db, "alice", room, "bolt", q).unwrap();
    }
    wal.sync().expect("final sync");
    db.set_log_sink(None);
    let logged = std::mem::take(&mut *logged.lock().unwrap());
    (wal, db, logged)
}

fn segment_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("dir")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("segment-")
        })
        .count()
}

/// Cold recovery, best of `reps` — each pass must recover exactly the
/// `logged` records. Returns seconds.
fn time_recovery(dir: &Path, logged: &[String], reps: usize) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (_wal, recovery) = DiskWal::open(dir, recovery_cfg(), std_io()).expect("recover");
        best = best.min(t0.elapsed().as_secs_f64());
        let recovered: Vec<String> = recovery
            .ops
            .iter()
            .map(|op| op.to_json_line().expect("encode"))
            .collect();
        assert!(recovered == logged, "recovery returns the logged op stream");
    }
    best
}

fn main() {
    eprintln!("\n== E19: WAL lifecycle (recovery, archive stall, restore) ==\n");

    // ---- 1. Recovery ---------------------------------------------------
    let dir = tmp_dir("e19-recovery", "recovery");
    let (wal, _db, logged) = build_log(&dir, recovery_cfg(), TXNS);
    drop(wal);
    let segments = segment_count(&dir);
    assert!(
        segments >= 8,
        "need 8+ segments for the headline, got {segments}"
    );

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let recovery_s = time_recovery(&dir, &logged, 3);
    let records = logged.len();
    eprintln!(
        "recovery: {segments} segments, {records} records, {cpus} cpu(s); {:.1}ms",
        recovery_s * 1e3,
    );
    let _ = std::fs::remove_dir_all(&dir);

    // ---- 2. Checkpoint stall: plain vs archive -------------------------
    // Same workload in each mode; the stall is the wall-clock the
    // engine-visible checkpoint() call takes over a log with many
    // sealed segments to sweep.
    let plain_dir = tmp_dir("e19-recovery", "stall-plain");
    let (plain_wal, plain_db, _) = build_log(&plain_dir, cfg(false, 24 * 1024), STALL_TXNS);
    let snap = plain_db.snapshot().expect("snapshot");
    let t0 = Instant::now();
    let plain_report = plain_wal.checkpoint(&snap).expect("plain checkpoint");
    let plain_stall_s = t0.elapsed().as_secs_f64();
    assert!(plain_report.swept_segments >= 8);
    drop(plain_wal);
    let _ = std::fs::remove_dir_all(&plain_dir);

    let arch_dir = tmp_dir("e19-recovery", "stall-archive");
    let (arch_wal, arch_db, _) = build_log(&arch_dir, cfg(true, 24 * 1024), STALL_TXNS);
    let raw_bytes: u64 = std::fs::read_dir(&arch_dir)
        .expect("dir")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("segment-")
        })
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    let snap = arch_db.snapshot().expect("snapshot");
    let t0 = Instant::now();
    let arch_report = arch_wal.checkpoint(&snap).expect("archive checkpoint");
    let arch_stall_s = t0.elapsed().as_secs_f64();
    assert_eq!(arch_report.swept_segments, plain_report.swept_segments);

    // The compression happens here, off the checkpoint path.
    let t0 = Instant::now();
    let drain = arch_wal.archive_now().expect("drain");
    let drain_s = t0.elapsed().as_secs_f64();
    assert_eq!(drain.segments, arch_report.swept_segments);
    let ratio = raw_bytes as f64 / drain.bytes.max(1) as f64;
    eprintln!(
        "checkpoint stall: plain {:.2}ms, archive {:.2}ms \
         (drain {:.1}ms off-path, {} -> {} bytes, {ratio:.1}x)",
        plain_stall_s * 1e3,
        arch_stall_s * 1e3,
        drain_s * 1e3,
        raw_bytes,
        drain.bytes,
    );
    drop(arch_wal);
    let _ = std::fs::remove_dir_all(&arch_dir);

    // ---- emit ----------------------------------------------------------
    let json = format!(
        "{{\n  \"experiment\": \"e19_recovery\",\n  \"txns\": {TXNS},\n  \"cpus\": {cpus},\n  \
         \"segments\": {segments},\n  \"records\": {records},\n  \
         \"recovery_ms\": {:.2},\n  \
         \"checkpoint_stall_plain_ms\": {:.3},\n  \
         \"checkpoint_stall_archive_ms\": {:.3},\n  \"archive_drain_ms\": {:.2},\n  \
         \"swept_segments\": {},\n  \"raw_segment_bytes\": {raw_bytes},\n  \
         \"archive_bytes\": {},\n  \"compression_ratio\": {ratio:.2}\n}}\n",
        recovery_s * 1e3,
        plain_stall_s * 1e3,
        arch_stall_s * 1e3,
        drain_s * 1e3,
        arch_report.swept_segments,
        drain.bytes,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e19_recovery.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("\nwrote {path}");
}
