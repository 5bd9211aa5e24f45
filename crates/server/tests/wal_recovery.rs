//! End-to-end durability: a WAL-backed server restarted from its log
//! directory serves exactly the state committed before it went down —
//! wire-defined classes, object fields, trigger automata — and a WAL
//! write failure degrades the live server to read-only instead of
//! panicking or silently serving un-durable writes.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use ode_core::Value;
use ode_db::{Database, Fault, FaultyIo, FsyncPolicy, SharedDatabase, SharedIo, WalConfig};
use ode_server::protocol::Command;
use ode_server::spec::{stockroom_spec, ActionSpec, TriggerSpec};
use ode_server::{Client, ClientError, Server};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-wal-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Tiny segments so even a short session rotates; one fsync per commit.
fn small_cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 512,
        fsync: FsyncPolicy::commit(),
        archive: false,
    }
}

/// [`small_cfg`] with a batch window only a commit (or clock advance)
/// closes: the flusher never writes an open transaction's records
/// early, so a single session issues the same I/O sequence on every
/// run and a fault-injection plan hits deterministic places.
fn one_unit_per_flush_cfg() -> WalConfig {
    WalConfig {
        fsync: FsyncPolicy::Group {
            max_batch: 1,
            max_delay: Duration::from_millis(FsyncPolicy::MAX_GROUP_DELAY_MS),
        },
        ..small_cfg()
    }
}

fn start_server(dir: &Path) -> Server {
    Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(small_cfg())
        .start()
        .expect("server starts")
}

fn bolt(c: &mut Client, room: u64) -> i64 {
    c.peek_field(room, "items")
        .expect("peek")
        .member("bolt")
        .and_then(Value::as_int)
        .expect("bolt is an int")
}

#[test]
fn committed_state_survives_a_restart() {
    let dir = tmp_dir("restart");

    // Generation one: define the class over the wire, mutate, go down.
    let (room, bolt_before) = {
        let mut server = start_server(&dir);
        let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
        c.define_class(stockroom_spec()).expect("define");
        let room = c.txn("admin", |c| c.new_object("room", &[])).expect("room");
        for _ in 0..3 {
            c.txn("alice", |c| {
                c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(120)])
            })
            .expect("withdraw");
        }
        // An uncommitted transaction must NOT survive.
        c.begin("alice").expect("begin");
        c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(99)])
            .expect("call in doomed txn");
        let bolt_before = 500 - 3 * 120;
        server.shutdown();
        (room, bolt_before)
    };

    // Generation two: a fresh engine recovered purely from the
    // directory.
    let mut server = start_server(&dir);
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("reconnect");
    assert_eq!(
        bolt(&mut c, room),
        bolt_before,
        "committed withdrawals only"
    );
    let stats = c.stats().expect("stats");
    assert!(!stats.read_only);
    assert!(stats.wal_lsn.expect("wal-backed") > 0);
    assert_eq!(stats.subscriber_drops, 0);

    // The schema came back through schema.wal: methods, masks, and
    // trigger automata all work without re-defining anything.
    c.txn("alice", |c| {
        c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(1)])
    })
    .expect("class recovered");
    c.begin("mallory").expect("begin");
    match c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(1)]) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "aborted", "T1 still guards"),
        other => panic!("mallory must still be aborted by T1, got {other:?}"),
    }
    c.abort().expect("abort");
    assert_eq!(bolt(&mut c, room), bolt_before - 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_truncates_and_recovery_stays_exact() {
    let dir = tmp_dir("checkpoint");
    let room;
    {
        let mut server = start_server(&dir);
        let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
        c.define_class(stockroom_spec()).expect("define");
        room = c.txn("admin", |c| c.new_object("room", &[])).expect("room");
        for _ in 0..4 {
            c.txn("alice", |c| {
                c.call(room, "withdraw", &[Value::from("gear"), Value::Int(5)])
            })
            .expect("withdraw");
        }

        // Restore is a state jump the log would never see: refused.
        let snap = c.snapshot().expect("snapshot");
        match c.restore(snap) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, "restore_unsupported"),
            other => panic!("Restore must be refused on a WAL-backed server, got {other:?}"),
        }

        match c.request(Command::Checkpoint).expect("checkpoint") {
            ode_server::protocol::Reply::Checkpointed {
                lsn,
                swept_segments,
                ..
            } => {
                assert!(lsn > 0);
                // Generation zero had live segments; the sweep must
                // report reclaiming them.
                assert!(swept_segments > 0, "checkpoint swept no segments");
            }
            other => panic!("expected Checkpointed, got {other:?}"),
        }
        // The checkpoint superseded generation zero's segments.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().any(|n| n.starts_with("checkpoint-")),
            "no checkpoint file in {names:?}"
        );
        assert!(
            !names.iter().any(|n| n.starts_with("segment-0000000000-")),
            "generation 0 segments survived the checkpoint: {names:?}"
        );

        // And the log keeps growing after the checkpoint.
        c.txn("bob", |c| {
            c.call(room, "withdraw", &[Value::from("gear"), Value::Int(7)])
        })
        .expect("post-checkpoint withdraw");
        server.shutdown();
    }

    let mut server = start_server(&dir);
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("reconnect");
    let gear = c
        .peek_field(room, "items")
        .expect("peek")
        .member("gear")
        .and_then(Value::as_int)
        .expect("gear is an int");
    assert_eq!(gear, 100 - 4 * 5 - 7, "checkpoint + tail replay is exact");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Start a server over `io` with [`one_unit_per_flush_cfg`], define
/// the stockroom class and create a room.
fn start_faulty(dir: &Path, io: FaultyIo) -> (Server, Client, u64) {
    let server = Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(one_unit_per_flush_cfg())
        .wal_io(SharedIo::new(io))
        .start()
        .expect("server starts");
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
    c.define_class(stockroom_spec()).expect("define");
    let room = c.txn("admin", |c| c.new_object("room", &[])).expect("room");
    (server, c, room)
}

#[test]
fn wal_failure_latches_read_only_and_the_prefix_recovers() {
    let dir = tmp_dir("degrade");

    // Let the schema append, object creation, and two withdrawals
    // through, then fail every mutating file op after them. A fault-free
    // dry run of that prefix counts its ops, so the first failure is the
    // first op of the next withdrawal's flush — never the fsync after a
    // batch write already landed, which would leave that commit in doubt
    // rather than failed.
    let counting = FaultyIo::counting();
    let ops = counting.op_counter();
    let (mut server, mut c, room) = start_faulty(&dir, counting);
    for _ in 0..2 {
        c.txn("alice", |c| {
            c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(10)])
        })
        .expect("dry-run withdraw");
    }
    let first_fault = ops.load(std::sync::atomic::Ordering::SeqCst);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let plan: HashMap<u64, Fault> = (first_fault..first_fault + 360)
        .map(|k| (k, Fault::FailOp))
        .collect();
    let (mut server, mut c, room) = start_faulty(&dir, FaultyIo::new(plan));

    // Withdraw until the injected failure bites. `txn` retries the
    // retryable `wal` error once, then hits the read-only latch.
    let mut committed = 0i64;
    let failure = loop {
        let r = c
            .begin("alice")
            .and_then(|_| c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(10)]))
            .and_then(|_| c.commit());
        match r {
            Ok(()) => committed += 1,
            Err(ClientError::Server(e)) => break e,
            Err(other) => panic!("unexpected client failure: {other}"),
        }
        assert!(committed < 50, "fault plan never fired");
    };
    assert_eq!(failure.code, "wal", "first failure surfaces as a wal error");
    assert!(failure.retryable, "the client may retry (and learn worse)");

    // The server is alive but read-only: reads fine, writes refused.
    c.abort().expect("abort still allowed");
    let stats = c.stats().expect("stats still allowed");
    assert!(stats.read_only, "read-only latched");
    assert!(bolt(&mut c, room) <= 500, "peek still allowed");
    match c.begin("alice") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "read_only");
            assert!(!e.retryable);
        }
        other => panic!("Begin must be refused in read-only mode, got {other:?}"),
    }
    server.shutdown();

    // Recovery with a healthy io serves the durable prefix: every
    // withdrawal acknowledged before the failure, nothing after it.
    let mut server = start_server(&dir);
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("reconnect");
    let recovered = bolt(&mut c, room);
    assert_eq!(
        recovered,
        500 - committed * 10,
        "exactly the acknowledged transactions survive"
    );
    assert!(
        !c.stats().expect("stats").read_only,
        "fresh start is writable"
    );
    c.txn("alice", |c| {
        c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(10)])
    })
    .expect("writes work again after recovery");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A commit whose batch write lands but whose fsync then fails is in
/// doubt: recovery restores it, so the reply must not invite a blind
/// retry that would apply it twice.
#[test]
fn commit_whose_write_landed_before_a_failed_fsync_answers_in_doubt() {
    let dir = tmp_dir("in-doubt");
    let withdraw = |c: &mut Client, room: u64| {
        c.begin("alice")
            .and_then(|_| c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(10)]))
            .and_then(|_| c.commit())
    };

    // A fault-free dry run of the same session: the third withdrawal's
    // flush ends with its batch fsync, the last op counted.
    let counting = FaultyIo::counting();
    let ops = counting.op_counter();
    let (mut server, mut c, room) = start_faulty(&dir, counting);
    for _ in 0..3 {
        withdraw(&mut c, room).expect("dry-run withdraw");
    }
    let third_fsync = ops.load(std::sync::atomic::Ordering::SeqCst) - 1;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let plan: HashMap<u64, Fault> = (third_fsync..third_fsync + 360)
        .map(|k| (k, Fault::FailOp))
        .collect();
    let (mut server, mut c, room) = start_faulty(&dir, FaultyIo::new(plan));
    for _ in 0..2 {
        withdraw(&mut c, room).expect("withdraw before the fault");
    }
    match withdraw(&mut c, room) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "wal_in_doubt", "{e:?}");
            assert!(
                !e.retryable,
                "an in-doubt commit must not be retried blindly"
            );
        }
        other => panic!("the failed fsync must answer in doubt, got {other:?}"),
    }
    assert!(c.stats().expect("stats").read_only, "read-only latched");
    server.shutdown();

    // The landed write survives: recovery restores the in-doubt commit.
    let mut server = start_server(&dir);
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("reconnect");
    assert_eq!(bolt(&mut c, room), 500 - 3 * 10);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A clock advance commits the timer firings it causes in system
/// transactions (§3.1), and its one `AdvanceClock` record is what
/// replay re-runs them from — so its ack must wait for durability
/// exactly like `Commit`'s. The batch holds one unit and the delay is
/// far longer than the test: the advance fills the batch, and the
/// reply may only arrive once the flush covering it has returned.
#[test]
fn clock_advance_acks_only_after_its_timer_commits_are_durable() {
    let dir = tmp_dir("clock-ack");
    let mut spec = stockroom_spec();
    spec.triggers.push(TriggerSpec {
        name: "T3".into(),
        perpetual: true,
        event: "at time(HR=17)".into(),
        action: ActionSpec::Emit("day end".into()),
        capture: false,
        full_history: false,
    });
    spec.activate_on_create.push("T3".into());
    let mut server = Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(&dir)
        .wal_config(one_unit_per_flush_cfg())
        .start()
        .expect("server starts");
    let mut c = Client::connect_tcp(server.tcp_addr().unwrap()).expect("connect");
    c.define_class(spec).expect("define");
    c.txn("admin", |c| c.new_object("room", &[])).expect("room");
    let fired_before = c.stats().expect("stats").triggers_fired;

    c.advance_clock_to(17 * 3_600_000)
        .expect("advance to 17:00");
    let stats = c.stats().expect("stats");
    assert_eq!(stats.triggers_fired, fired_before + 1, "T3 fired at 17:00");
    assert_eq!(
        stats.durable_lsn, stats.wal_lsn,
        "the clock advance was acked before its system commit was durable"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
