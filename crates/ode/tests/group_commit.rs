//! Group-commit contention regression: N threads committing to one
//! shared stock room under `FsyncPolicy::Group` must (a) actually
//! batch — at least one fsync covers more than one commit — (b) fire
//! exactly the same trigger sequence a serial replay of the log fires,
//! and (c) recover to a state identical to the live one, proving
//! ack-after-durable held for every committed transaction.
#![cfg(feature = "persistence")]

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ode_core::Value;

use ode_db::{
    demo, Database, DiskWal, FsyncPolicy, LogOp, SharedDatabase, SharedIo, StdIo, WalConfig,
};

const THREADS: usize = 8;
const TXNS_PER_THREAD: usize = 24;

thread_local! {
    /// LSN of the last record this thread appended through the log
    /// sink — after a commit returns, the commit record's LSN.
    static LAST_LSN: Cell<Option<u64>> = const { Cell::new(None) };
}

fn fresh() -> Database {
    let mut db = Database::new();
    db.define_class(demo::stockroom_class()).unwrap();
    db
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-group-commit-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A firing line with its transaction id masked out: concurrent runs
/// spend extra txn ids on lock-conflict retries, so ids differ from a
/// serial run even when the committed work is identical.
fn mask_txn(line: &str) -> String {
    match line.strip_prefix('[').and_then(|r| r.split_once(' ')) {
        Some((_txn, rest)) => format!("[_ {rest}"),
        None => line.to_string(),
    }
}

#[test]
fn concurrent_commits_batch_fsyncs_and_match_serial_firings() {
    // Serial ground truth: the same committed transactions, one thread,
    // no WAL. Each deposit+withdraw of q=150 deterministically fires T6
    // (withdrawal over 100) and T8 (deposit-then-withdraw same txn).
    let serial_firings: Vec<String> = {
        let mut db = fresh();
        let t = db.begin_as(Value::Str("alice".into()));
        let room = db.create_object(t, "stockRoom", &[]).unwrap();
        db.commit(t).unwrap();
        for _ in 0..THREADS * TXNS_PER_THREAD {
            demo::deposit_withdraw_txn(&mut db, "alice", room, "bolt", 150).unwrap();
        }
        db.take_output().iter().map(|l| mask_txn(l)).collect()
    };

    // Concurrent run: Group policy with a real flusher thread. The
    // delay window is what lets commits pile into one batch while the
    // previous fsync is in flight.
    let dir = tmp_dir();
    let cfg = WalConfig {
        segment_bytes: 64 * 1024,
        fsync: FsyncPolicy::Group {
            max_batch: THREADS,
            max_delay: Duration::from_millis(2),
        },
        archive: false,
    };
    let (wal, recovery) = DiskWal::open(&dir, cfg, SharedIo::new(StdIo::new())).unwrap();
    assert!(recovery.is_empty());
    let flusher = wal.start_flusher();

    let shared = SharedDatabase::new(fresh()).with_max_retries(100_000);
    let sink_wal = wal.clone();
    shared.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        if let Ok(lsn) = sink_wal.append(op) {
            LAST_LSN.with(|c| c.set(Some(lsn)));
        }
    })));

    let room = shared
        .run_txn("alice", |t| t.db.create_object(t.txn, "stockRoom", &[]))
        .unwrap();
    wal.wait_durable(LAST_LSN.with(|c| c.get()).expect("creation logged"))
        .expect("setup commit becomes durable");

    crossbeam::scope(|s| {
        for _ in 0..THREADS {
            let shared = shared.clone();
            let wal = wal.clone();
            s.spawn(move |_| {
                for _ in 0..TXNS_PER_THREAD {
                    shared
                        .run_txn("alice", |t| {
                            t.db.call(
                                t.txn,
                                room,
                                "deposit",
                                &[Value::Str("bolt".into()), Value::Int(150)],
                            )?;
                            t.db.call(
                                t.txn,
                                room,
                                "withdraw",
                                &[Value::Str("bolt".into()), Value::Int(150)],
                            )
                        })
                        .expect("contended txn commits within the retry budget");
                    // Ack-after-durable: the transaction only counts
                    // once a batch fsync covers its commit record.
                    let lsn = LAST_LSN.with(|c| c.get()).expect("commit logged");
                    wal.wait_durable(lsn).expect("commit becomes durable");
                }
            });
        }
    })
    .unwrap();

    flusher.stop();
    wal.sync().expect("final drain");
    assert!(wal.poisoned().is_none());

    let stats = wal.stats();
    assert_eq!(stats.durable_lsn, wal.lsn(), "everything drained durable");
    assert!(stats.group_commit_batches >= 1, "the flusher ran batches");
    assert!(
        stats.group_commit_max_batch >= 2,
        "batching never engaged: every fsync covered a single commit \
         ({} batches for {} committed txns)",
        stats.group_commit_batches,
        THREADS * TXNS_PER_THREAD,
    );

    let live_firings = shared.with(|db| db.take_output());
    let live_print = shared.with(|db| {
        let mut objs: Vec<String> = db
            .objects()
            .map(|o| format!("{:?} {:?}", o.id, o.fields))
            .collect();
        objs.sort();
        objs.join("\n")
    });
    // The committed work matches serial execution exactly (txn ids
    // aside — retries consume ids): same firings, same multiset order
    // after masking, and the shared room's fields are back to baseline.
    let mut masked_live: Vec<String> = live_firings.iter().map(|l| mask_txn(l)).collect();
    let mut masked_serial = serial_firings.clone();
    masked_live.sort();
    masked_serial.sort();
    assert_eq!(masked_live, masked_serial, "firing content diverges");

    // Serial replay of the recovered log must reproduce the live run
    // record for record: identical firing sequence (ids included) and
    // identical final state. This is the determinism the buffer step's
    // under-the-engine-lock LSN assignment preserves.
    drop(wal);
    let (_wal2, recovery) = DiskWal::open(&dir, cfg, SharedIo::new(StdIo::new())).unwrap();
    let mut recovered = fresh();
    recovery.restore_into(&mut recovered).expect("restore");
    let replay_firings = recovered.take_output();
    assert_eq!(
        replay_firings, live_firings,
        "serial replay fired a different sequence than the live run"
    );
    let recovered_print = {
        let mut objs: Vec<String> = recovered
            .objects()
            .map(|o| format!("{:?} {:?}", o.id, o.fields))
            .collect();
        objs.sort();
        objs.join("\n")
    };
    assert_eq!(recovered_print, live_print, "recovered state diverges");
    let _ = std::fs::remove_dir_all(&dir);
}
