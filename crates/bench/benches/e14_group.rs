//! E14 — group commit under contention: concurrent committers vs fsync
//! policy, with ack-after-durable held throughout.
//!
//! E12 showed `fsync=commit`-grade durability costs ~8x the no-WAL
//! throughput, because every commit pays a private fsync — and it pays
//! it on the committing thread. This experiment measures what the
//! two-phase append buys back: N committer threads run withdrawal
//! transactions (each on its own room, so the engine lock, not object
//! locks, is the shared resource), every commit blocks on
//! `wait_durable` before counting — the same ack rule a server client
//! sees — and the policies differ only in who fsyncs and when:
//!
//! * `commit`  — `Group { max_batch: 1, max_delay: 0 }`: each committer
//!   flushes its own batch, one fsync per flush. The durability
//!   baseline.
//! * `group`   — `Group { max_batch: N, max_delay: 500µs }`: one fsync
//!   covers every commit that arrived while the previous one ran.
//! * `never`   — the same pipeline without the fsync: the
//!   no-durability ceiling.
//!
//! The `every64` rows in older `BENCH_e14_group.json` files came from
//! an inline write-on-append policy that no longer exists.
//!
//! Results are printed as a table and written to `BENCH_e14_group.json`
//! at the repository root. Each run ends with a recovery pass asserted
//! equal to the live state — acked durability is checked, not assumed.

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ode_bench::{bolt, tmp_dir};
use ode_core::Value;
use ode_db::{
    demo, Database, DiskWal, FsyncPolicy, LogOp, ObjectId, SharedDatabase, SharedIo, StdIo,
    WalConfig, WalStats,
};

const TXNS_PER_COMMITTER: usize = 400;

thread_local! {
    static LAST_LSN: Cell<Option<u64>> = const { Cell::new(None) };
}

/// One measured run: `committers` threads, each committing
/// `TXNS_PER_COMMITTER` withdrawals to its own room and acking each
/// only after `wait_durable`. Returns (txns/sec, wal stats).
fn run(tag: &str, committers: usize, fsync: FsyncPolicy) -> (f64, WalStats) {
    let dir = tmp_dir("e14-group", tag);
    let cfg = WalConfig {
        fsync,
        ..WalConfig::default()
    };
    let (wal, recovery) = DiskWal::open(&dir, cfg, SharedIo::new(StdIo::new())).expect("open");
    assert!(recovery.is_empty());
    let flusher = wal.start_flusher();

    let mut db = Database::new();
    db.define_class(demo::stockroom_class()).unwrap();
    let sink_wal = wal.clone();
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        if let Ok(lsn) = sink_wal.append(op) {
            LAST_LSN.with(|c| c.set(Some(lsn)));
        }
    })));
    let shared = SharedDatabase::new(db);
    let rooms: Vec<ObjectId> = (0..committers)
        .map(|_| {
            shared
                .run_txn("admin", |t| t.db.create_object(t.txn, "stockRoom", &[]))
                .expect("room creates")
        })
        .collect();
    wal.wait_durable(LAST_LSN.with(|c| c.get()).expect("creations logged"))
        .expect("setup durable");

    let t0 = Instant::now();
    crossbeam::scope(|s| {
        for &room in &rooms {
            let shared = shared.clone();
            let wal = wal.clone();
            s.spawn(move |_| {
                for k in 0..TXNS_PER_COMMITTER {
                    let q = if k % 8 == 0 { 150 } else { 5 };
                    shared
                        .run_txn("alice", |t| {
                            t.db.call(
                                t.txn,
                                room,
                                "withdraw",
                                &[Value::Str("bolt".into()), Value::Int(q)],
                            )
                        })
                        .expect("withdrawal commits");
                    // The ack rule: a transaction counts only once its
                    // commit record is fsync-covered. Inline policies
                    // return immediately; deferred ones block here —
                    // outside the engine lock — until a batch fsync
                    // releases every waiter at once.
                    let lsn = LAST_LSN.with(|c| c.get()).expect("commit logged");
                    wal.wait_durable(lsn).expect("commit durable");
                }
            });
        }
    })
    .unwrap();
    let secs = t0.elapsed().as_secs_f64();

    flusher.stop();
    wal.sync().expect("final sync");
    assert!(wal.poisoned().is_none());
    let stats = wal.stats();

    // Recovery must reproduce every acked withdrawal exactly.
    let (_wal2, recovery) = DiskWal::open(&dir, cfg, SharedIo::new(StdIo::new())).expect("reopen");
    let mut db2 = Database::new();
    db2.define_class(demo::stockroom_class()).unwrap();
    recovery.restore_into(&mut db2).expect("restore");
    shared.with(|db| {
        for &room in &rooms {
            assert_eq!(bolt(&db2, room), bolt(db, room), "recovery is exact");
        }
    });

    let _ = std::fs::remove_dir_all(&dir);
    ((committers * TXNS_PER_COMMITTER) as f64 / secs, stats)
}

fn main() {
    eprintln!("\n== E14: group commit — concurrent committers vs fsync policy ==\n");
    eprintln!(
        "{} txns per committer; every commit acked only after wait_durable\n",
        TXNS_PER_COMMITTER
    );

    let mut json = String::from("{\n  \"experiment\": \"e14_group_commit\",\n");
    json.push_str(&format!(
        "  \"txns_per_committer\": {TXNS_PER_COMMITTER},\n  \"runs\": [\n"
    ));

    let mut rows = Vec::new();
    for &committers in &[1usize, 4, 8] {
        let policies = [
            ("commit", FsyncPolicy::commit()),
            (
                "group",
                FsyncPolicy::Group {
                    max_batch: committers,
                    max_delay: Duration::from_micros(500),
                },
            ),
            ("never", FsyncPolicy::Never),
        ];
        let mut commit_tps = 0.0;
        for (tag, fsync) in policies {
            let (tps, stats) = run(&format!("{tag}-{committers}"), committers, fsync);
            if tag == "commit" {
                commit_tps = tps;
            }
            let speedup = tps / commit_tps;
            eprintln!(
                "{committers} committer(s) {tag:>8}: {tps:>9.0} txns/sec  \
                 ({speedup:.2}x vs commit, {} fsyncs, {} batches, max batch {})",
                stats.fsyncs_total, stats.group_commit_batches, stats.group_commit_max_batch,
            );
            rows.push(format!(
                "    {{\"committers\": {committers}, \"policy\": \"{tag}\", \
                 \"txns_per_sec\": {tps:.0}, \"speedup_vs_commit\": {speedup:.2}, \
                 \"fsyncs_total\": {}, \"group_commit_batches\": {}, \
                 \"group_commit_max_batch\": {}}}",
                stats.fsyncs_total, stats.group_commit_batches, stats.group_commit_max_batch,
            ));
        }
        eprintln!();
    }
    json.push_str(&rows.join(",\n"));
    json.push_str("\n  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e14_group.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("wrote {path}");
}
