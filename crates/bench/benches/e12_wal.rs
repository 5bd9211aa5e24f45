//! E12 — the cost of durability: stockroom transaction throughput with
//! the write-ahead log under each fsync policy, against a no-WAL
//! baseline, plus on-disk log size and cold recovery time.
//!
//! Every committed transaction streams its ops through the engine's
//! log sink into a `DiskWal` (CRC-framed, segment-rotated), and the
//! sink waits for each commit record to be durable — the ack rule a
//! server applies. The fsync policy is the knob that trades durability
//! for speed:
//!
//! * `commit`   — one write + one fsync per transaction.
//! * `never`    — one write per transaction, no fsync.
//!
//! Results are printed as a table and written to `BENCH_e12_wal.json`
//! at the repository root. Each run ends with a recovery pass whose
//! recovered state is asserted equal to the live engine's — the bench
//! doubles as a smoke test.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ode_bench::{bolt, tmp_dir};
use ode_core::Value;
use ode_db::{demo, Database, DiskWal, FsyncPolicy, LogOp, ObjectId, SharedIo, StdIo, WalConfig};

const TXNS: usize = 2_000;

/// The workload: TXNS committed withdrawals, one in eight large enough
/// to fire T6 (so the log carries trigger traffic, not just writes).
fn session(db: &mut Database, room: ObjectId) {
    for k in 0..TXNS {
        let q = if k % 8 == 0 { 150 } else { 5 };
        demo::withdraw_txn(db, "alice", room, "bolt", q as i64).unwrap();
    }
}

/// One measured run under `fsync`. Returns (txns/sec, log bytes,
/// recovery seconds).
fn run_policy(tag: &str, fsync: FsyncPolicy) -> (f64, u64, f64) {
    let dir = tmp_dir("e12-wal", tag);
    let cfg = WalConfig {
        fsync,
        ..WalConfig::default()
    };
    let (wal, recovery) = DiskWal::open(&dir, cfg, SharedIo::new(StdIo::new())).expect("open");
    assert!(recovery.is_empty());
    let wal = Arc::new(Mutex::new(wal));

    // The room must be created *after* the sink is installed so its
    // creation is in the log recovery replays.
    let mut db = Database::new();
    db.define_class(demo::stockroom_class()).unwrap();
    let sink_wal = Arc::clone(&wal);
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        let wal = sink_wal.lock().unwrap();
        if let Ok(lsn) = wal.append(op) {
            if op.ends_txn() {
                let _ = wal.wait_durable(lsn);
            }
        }
    })));
    let t = db.begin_as(Value::Str("admin".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();

    let t0 = Instant::now();
    session(&mut db, room);
    wal.lock().unwrap().sync().expect("final sync");
    let secs = t0.elapsed().as_secs_f64();
    assert!(wal.lock().unwrap().poisoned().is_none());

    let log_bytes: u64 = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();

    // Cold recovery: fresh engine, fresh io, the directory is all
    // there is.
    let t1 = Instant::now();
    let (_wal2, recovery) = DiskWal::open(&dir, cfg, SharedIo::new(StdIo::new())).expect("reopen");
    let mut db2 = Database::new();
    db2.define_class(demo::stockroom_class()).unwrap();
    recovery.restore_into(&mut db2).expect("restore");
    let rec_secs = t1.elapsed().as_secs_f64();
    assert_eq!(
        bolt(&db2, ObjectId(1)),
        bolt(&db, ObjectId(1)),
        "recovery is exact"
    );

    let _ = std::fs::remove_dir_all(&dir);
    (TXNS as f64 / secs, log_bytes, rec_secs)
}

fn main() {
    eprintln!("\n== E12: WAL durability cost (stockroom withdraw txns) ==\n");

    // Baseline: the same session with no log sink at all.
    let (mut db, room) = demo::setup();
    let t0 = Instant::now();
    session(&mut db, room);
    let base_tps = TXNS as f64 / t0.elapsed().as_secs_f64();
    eprintln!("{:>8}: {base_tps:>9.0} txns/sec", "no_wal");

    let mut json = String::from("{\n  \"experiment\": \"e12_wal\",\n");
    json.push_str(&format!("  \"txns\": {TXNS},\n"));
    json.push_str(&format!("  \"no_wal_txns_per_sec\": {base_tps:.0},\n"));
    json.push_str("  \"policies\": [\n");

    let policies = [
        ("commit", FsyncPolicy::commit()),
        ("never", FsyncPolicy::Never),
    ];
    for (i, (tag, fsync)) in policies.iter().enumerate() {
        let (tps, log_bytes, rec_secs) = run_policy(tag, *fsync);
        eprintln!(
            "{tag:>8}: {tps:>9.0} txns/sec  ({:.1}x slowdown, {log_bytes} log bytes, \
             recovery {:.1}ms)",
            base_tps / tps,
            rec_secs * 1e3,
        );
        json.push_str(&format!(
            "    {{\"policy\": \"{tag}\", \"txns_per_sec\": {tps:.0}, \
             \"slowdown_vs_no_wal\": {:.2}, \"log_bytes\": {log_bytes}, \
             \"recovery_ms\": {:.1}}}{}\n",
            base_tps / tps,
            rec_secs * 1e3,
            if i + 1 == policies.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e12_wal.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("\nwrote {path}");
}
