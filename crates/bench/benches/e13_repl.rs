//! E13 — WAL-shipping replication: what a read-replica fleet costs the
//! primary, how far replicas trail under a write burst, and how fast
//! trigger firings fan out through replica subscriptions.
//!
//! For 0 (single-node baseline), 1, 2, and 4 replicas, a primary
//! commits a burst of stockroom withdrawals while one subscriber per
//! replica (per the primary itself, in the baseline) listens for the
//! T6 firings the burst provokes. Measured per configuration:
//!
//! * **txns/sec** — primary commit throughput with the shipper on.
//! * **peak lag** — the largest `replica_lag_lsn` any replica reported
//!   mid-burst (sampled via `Stats` every 2ms — the observability
//!   surface itself).
//! * **drain** — time from the last commit until every replica reports
//!   `last_applied_lsn` equal to the primary's head.
//! * **fan-out firings/sec** — total firings delivered to all
//!   subscribers divided by the time from burst start to the last
//!   delivery.
//!
//! Results are printed as a table and written to `BENCH_e13_repl.json`
//! at the repository root.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use ode_bench::tmp_dir;
use ode_core::Value;
use ode_db::{Database, SharedDatabase, WalConfig};
use ode_server::spec::stockroom_spec;
use ode_server::{Client, ReplSource, Server};

const TXNS: usize = 400;
/// Every eighth withdrawal is large enough to fire T6.
const FIRINGS: usize = TXNS / 8;

fn start_primary(dir: &Path) -> Server {
    Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(WalConfig::default())
        .start()
        .expect("primary starts")
}

fn start_replica(dir: &Path, primary: &Server) -> Server {
    Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(WalConfig::default())
        .replicate_from(ReplSource::Tcp(
            primary.tcp_addr().expect("primary tcp").to_string(),
        ))
        .start()
        .expect("replica starts")
}

fn wait_applied(addr: SocketAddr, target: u64) {
    let mut c = Client::connect_tcp(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = c.stats().expect("stats");
        if stats.last_applied_lsn == Some(target) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica never reached LSN {target}"
        );
        thread::sleep(Duration::from_millis(1));
    }
}

struct Row {
    replicas: usize,
    txns_per_sec: f64,
    peak_lag: u64,
    drain_ms: f64,
    fanout_per_sec: f64,
}

fn run_config(n: usize) -> Row {
    let pdir = tmp_dir("e13-repl", &format!("p{n}"));
    let primary = start_primary(&pdir);
    let paddr = primary.tcp_addr().expect("tcp");
    let mut pc = Client::connect_tcp(paddr).expect("connect");
    pc.define_class(stockroom_spec()).expect("define");
    let room = pc
        .txn("admin", |c| {
            c.new_object(
                "room",
                &[(
                    "items",
                    Value::record([
                        ("bolt", Value::Int(100_000_000)),
                        ("gear", Value::Int(100_000_000)),
                    ]),
                )],
            )
        })
        .expect("room");

    let rdirs: Vec<PathBuf> = (0..n)
        .map(|i| tmp_dir("e13-repl", &format!("r{n}-{i}")))
        .collect();
    let replicas: Vec<Server> = rdirs.iter().map(|d| start_replica(d, &primary)).collect();
    let head0 = pc.stats().expect("stats").wal_lsn.expect("wal");
    for r in &replicas {
        wait_applied(r.tcp_addr().expect("tcp"), head0);
    }

    // One subscriber per replica; the baseline subscribes to the
    // primary itself. Everyone is subscribed before the burst starts.
    let sub_addrs: Vec<SocketAddr> = if n == 0 {
        vec![paddr]
    } else {
        replicas
            .iter()
            .map(|r| r.tcp_addr().expect("tcp"))
            .collect()
    };
    let barrier = Arc::new(Barrier::new(sub_addrs.len() + 1));
    let collectors: Vec<thread::JoinHandle<Instant>> = sub_addrs
        .iter()
        .map(|&addr| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut c = Client::connect_tcp(addr).expect("connect");
                c.subscribe().expect("subscribe");
                barrier.wait();
                for _ in 0..FIRINGS {
                    c.next_firing(Duration::from_secs(30)).expect("firing");
                }
                Instant::now()
            })
        })
        .collect();

    // Lag samplers: poll each replica's stats while the burst runs and
    // keep the worst figure seen.
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let samplers: Vec<thread::JoinHandle<()>> = replicas
        .iter()
        .map(|r| {
            let addr = r.tcp_addr().expect("tcp");
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            thread::spawn(move || {
                let mut c = Client::connect_tcp(addr).expect("connect");
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(stats) = c.stats() {
                        peak.fetch_max(stats.replica_lag_lsn.unwrap_or(0), Ordering::Relaxed);
                    }
                    thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();

    barrier.wait();
    let t0 = Instant::now();
    for k in 0..TXNS {
        let q = if k % 8 == 0 { 150 } else { 1 };
        pc.txn("alice", |c| {
            c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(q)])
        })
        .expect("withdraw");
    }
    let commit_secs = t0.elapsed().as_secs_f64();

    let head = pc.stats().expect("stats").wal_lsn.expect("wal");
    let t1 = Instant::now();
    for r in &replicas {
        wait_applied(r.tcp_addr().expect("tcp"), head);
    }
    let drain_ms = t1.elapsed().as_secs_f64() * 1e3;

    let last_delivery = collectors
        .into_iter()
        .map(|h| h.join().expect("collector"))
        .max()
        .expect("at least one subscriber");
    let fan_secs = (last_delivery - t0).as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    for h in samplers {
        h.join().expect("sampler");
    }

    for mut r in replicas {
        r.shutdown();
    }
    let mut primary = primary;
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    for d in &rdirs {
        let _ = std::fs::remove_dir_all(d);
    }

    Row {
        replicas: n,
        txns_per_sec: TXNS as f64 / commit_secs,
        peak_lag: peak.load(Ordering::Relaxed),
        drain_ms,
        fanout_per_sec: (sub_addrs.len() * FIRINGS) as f64 / fan_secs,
    }
}

fn main() {
    eprintln!("\n== E13: WAL-shipping replication (burst of {TXNS} withdraw txns) ==\n");

    let mut json = String::from("{\n  \"experiment\": \"e13_repl\",\n");
    json.push_str(&format!("  \"txns\": {TXNS},\n"));
    json.push_str(&format!("  \"firings_per_subscriber\": {FIRINGS},\n"));
    json.push_str("  \"configs\": [\n");

    let configs = [0usize, 1, 2, 4];
    for (i, &n) in configs.iter().enumerate() {
        let row = run_config(n);
        eprintln!(
            "{:>1} replica(s): {:>7.0} txns/sec  peak lag {:>4} records  drain {:>6.1}ms  \
             fan-out {:>7.0} firings/sec",
            row.replicas, row.txns_per_sec, row.peak_lag, row.drain_ms, row.fanout_per_sec,
        );
        json.push_str(&format!(
            "    {{\"replicas\": {}, \"txns_per_sec\": {:.0}, \"peak_lag_lsn\": {}, \
             \"drain_ms\": {:.1}, \"fanout_firings_per_sec\": {:.0}}}{}\n",
            row.replicas,
            row.txns_per_sec,
            row.peak_lag,
            row.drain_ms,
            row.fanout_per_sec,
            if i + 1 == configs.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e13_repl.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("\nwrote {path}");
}
