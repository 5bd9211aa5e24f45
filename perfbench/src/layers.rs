//! The traced run's per-layer numbers: timed calls into each layer's
//! public functions, fed with the inputs the workload generated, plus
//! counters the server exports, folded into self times per transaction
//! and the share of `txn_p50_us` no layer timing covers.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ode_core::{parse_event, CompiledEvent, Qualifier, Value};
use ode_db::{
    recover_sharded, Applier, ArgPred, CmpOp, Database, DiskWal, FsyncPolicy, HistConfig,
    HistQuery, HistStore, LogOp, SegmentReader, SharedIo, StdIo, WalConfig,
};
use ode_server::spec::compile_class;
use ode_server::{load_schema, ClassSpec, Request, ServerMsg, WireStats};

use crate::gen::{Query, QueryGen, QueryKind, Txn};
use crate::run::{Ctx, Report};
use crate::session::SessionOut;
use crate::stats::{mean, median};
use crate::trace::Spans;
use crate::wire::{Lines, Wire, R};

/// What the workload phases hand to the traced run's layer timings.
#[derive(Default)]
pub struct Layers {
    pub lines: Lines,
    pub txn_p50_traced_us: f64,
    pub txn_p50_untraced_us: f64,
    pub ping_rtt_us: f64,
    /// Client requests (each one round trip) and firings per committed
    /// transaction on the measured path.
    pub round_trips_per_txn: f64,
    pub firings_per_txn: f64,
    /// Commits wait for an fsync on the measured path.
    pub fsync_on_commit: bool,
    pub late_p99_us: f64,
    pub index_lag_lsn: f64,
    pub lock_wait_us_per_txn: f64,
    pub conflict_retries_per_txn: f64,
    pub fsyncs_per_txn: f64,
    pub txns_per_batch: f64,
    pub subscriber_drops: f64,
    /// Counters of the log-phase server after its load.
    pub log_stats: Option<WireStats>,
    pub recovery_ms: Vec<f64>,
    pub segments_replayed: f64,
    pub restart_start_ms: Vec<f64>,
    pub restart_ping_ms: Vec<f64>,
    pub restart_total_ms: f64,
    pub peak_lag_lsn: f64,
    pub log_bytes_per_txn: f64,
    pub records: u64,
    pub catchup_s: f64,
    pub log_spec: Option<(ClassSpec, usize)>,
    pub log_dir: Option<PathBuf>,
    /// A copy of the log-phase directory as its restarts found it.
    pub restart_copy: Option<PathBuf>,
    /// The measured path's class, transactions and object count.
    pub main_spec: Option<ClassSpec>,
    pub main_txns: Vec<Txn>,
    pub main_objects: usize,
    /// The measured path writes a WAL.
    pub main_wal: bool,
    hist: Option<HistNumbers>,
}

struct HistNumbers {
    us: [f64; 3],
    scanned: f64,
    skipped: f64,
}

impl Layers {
    /// Counters of the measured phase, from `Stats` before and after.
    pub fn main_stats(
        &mut self,
        st0: &WireStats,
        st1: &WireStats,
        committed: u64,
        sessions: &[&SessionOut],
    ) {
        let n = committed.max(1) as f64;
        let wait = |s: &WireStats| s.shard_lock_wait_us.iter().sum::<u64>();
        self.lock_wait_us_per_txn = (wait(st1) - wait(st0)) as f64 / n;
        self.conflict_retries_per_txn = sessions.iter().map(|s| s.retries).sum::<u64>() as f64 / n;
        self.fsyncs_per_txn = (st1.fsyncs_total - st0.fsyncs_total) as f64 / n;
        let batches = st1.group_commit_batches - st0.group_commit_batches;
        self.txns_per_batch = if batches == 0 {
            0.0
        } else {
            committed as f64 / batches as f64
        };
        self.subscriber_drops = st1.subscriber_drops as f64;
    }
}

/// Median `Ping` round trip on an idle connection, in microseconds.
pub fn ping_rtt(w: &mut Wire) -> R<f64> {
    let mut v = Vec::with_capacity(300);
    for _ in 0..300 {
        v.push(crate::wire::ping(w)?.as_secs_f64() * 1e6);
    }
    Ok(median(&v))
}

fn hist_query(q: &Query) -> HistQuery {
    HistQuery {
        kind: q.event_kind.clone(),
        qualifier: q.after.then_some(Qualifier::After),
        args: q
            .args
            .iter()
            .map(|(i, op, v)| ArgPred {
                index: *i as usize,
                op: CmpOp::parse(op).expect("generated ops parse"),
                value: v.clone(),
            })
            .collect(),
        min_seq: q.min_seq,
        max_seq: q.max_seq,
        ..HistQuery::default()
    }
}

/// In-process `HistStore::query` over a quiescent, seeded history: 30
/// queries of each kind. Runs once per traced run (on the first
/// history it is given).
pub fn hist_inprocess(
    store: &HistStore,
    seed: u64,
    seq_hi: u64,
    method: &'static str,
    threshold: i64,
    lay: &mut Layers,
) -> R<()> {
    if lay.hist.is_some() {
        return Ok(());
    }
    let mut g = QueryGen::new(seed, seq_hi, method, threshold);
    let mut per: [Vec<f64>; 3] = Default::default();
    let (mut scanned, mut skipped) = (0usize, 0usize);
    for _ in 0..90 {
        let q = g.next_query();
        let hq = hist_query(&q);
        let t = Instant::now();
        let r = store.query(&hq).map_err(|e| e.to_string())?;
        per[QueryKind::ALL
            .iter()
            .position(|k| *k == q.kind)
            .unwrap_or(0)]
        .push(t.elapsed().as_secs_f64() * 1e6);
        scanned += r.segments_scanned;
        skipped += r.segments_skipped;
        black_box(r.rows.len());
    }
    lay.hist = Some(HistNumbers {
        us: [median(&per[0]), median(&per[1]), median(&per[2])],
        scanned: scanned as f64 / 90.0,
        skipped: skipped as f64 / 90.0,
    });
    Ok(())
}

/// Mean nanoseconds of `f` per item, repeating passes over `items` for
/// at least 20 ms.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t.elapsed() < Duration::from_millis(20) {
        for i in items {
            f(i);
        }
        passes += 1;
    }
    t.elapsed().as_nanos() as f64 / (passes as f64 * items.len() as f64)
}

/// Replay `txns` on a fresh in-process engine with `spec`: per-call and
/// per-commit nanoseconds, and the engine's posted-event count.
fn engine_replay(
    spec: &ClassSpec,
    objects: usize,
    txns: &[Txn],
    spans: &mut Spans,
) -> R<(Vec<f64>, Vec<f64>, u64)> {
    let mut db = Database::new();
    db.define_class(compile_class(spec).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let t = db.begin();
    let mut ids = Vec::with_capacity(objects);
    for _ in 0..objects {
        ids.push(
            db.create_object(t, &spec.name, &[])
                .map_err(|e| e.to_string())?,
        );
    }
    db.commit(t).map_err(|e| e.to_string())?;
    let before = db.stats().events_posted;
    let (mut calls, mut commits) = (Vec::new(), Vec::new());
    for (k, tx) in txns.iter().enumerate() {
        let t = db.begin_as(Value::from(tx.user));
        let mut alive = true;
        for c in &tx.calls {
            let s = Instant::now();
            let r = db.call(t, ids[c.obj], c.method, &c.args);
            let e = Instant::now();
            spans.record("layer.engine.call", s, e, None, k as u64);
            calls.push((e - s).as_nanos() as f64);
            if r.is_err() {
                alive = false;
                break;
            }
        }
        if alive {
            let s = Instant::now();
            db.commit(t).map_err(|e| e.to_string())?;
            let e = Instant::now();
            spans.record("layer.engine.commit", s, e, None, k as u64);
            commits.push((e - s).as_nanos() as f64);
        } else {
            let _ = db.abort(t);
        }
        black_box(&db);
    }
    Ok((calls, commits, db.stats().events_posted - before))
}

/// Compute and report every per-layer metric.
pub fn finish(ctx: &Ctx, rep: &mut Report, lay: &mut Layers) -> R<()> {
    let mut sp = Spans::new(ctx.origin, true);
    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |k: &str, v: f64, u: &'static str| -> f64 {
        m.insert(k.to_string(), (v, u));
        v
    };

    // Codec: the NDJSON lines this run actually sent and received.
    let l = &lay.lines;
    let req_decode_ns = put(
        "codec.request_decode_ns",
        per_item_ns(&l.requests, |s| {
            black_box(serde_json::from_str::<Request>(s).ok());
        }),
        "ns",
    );
    let parse = |v: &[String]| -> Vec<ServerMsg> {
        v.iter()
            .filter_map(|s| serde_json::from_str(s).ok())
            .collect()
    };
    let replies = parse(&l.replies);
    let firings = parse(&l.firings);
    let reply_encode_ns = put(
        "codec.reply_encode_ns",
        per_item_ns(&replies, |m| {
            black_box(serde_json::to_string(m).ok());
        }),
        "ns",
    );
    let firing_encode_ns = put(
        "codec.firing_encode_ns",
        per_item_ns(&firings, |m| {
            black_box(serde_json::to_string(m).ok());
        }),
        "ns",
    );
    let req_bytes: Vec<f64> = l.requests.iter().map(|s| s.len() as f64 + 1.0).collect();
    put("codec.bytes_per_request", mean(&req_bytes), "B");
    let (row_bytes, rows) = l
        .rows
        .iter()
        .fold((0usize, 0usize), |(b, n), (s, k)| (b + s.len() + 1, n + k));
    put(
        "codec.bytes_per_row",
        if rows == 0 {
            0.0
        } else {
            row_bytes as f64 / rows as f64
        },
        "B",
    );

    // Reactor and server dispatch.
    put("reactor.ping_rtt_us", lay.ping_rtt_us, "us");
    put("reactor.subscriber_drops", lay.subscriber_drops, "count");

    // Compile: the measured path's class.
    let spec = lay.main_spec.clone().ok_or("no class recorded")?;
    let mut cms = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        black_box(compile_class(&spec).map_err(|e| e.to_string())?);
        cms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    put("compile.class_ms", median(&cms), "ms");
    let mut dfa = 0usize;
    for t in &spec.triggers {
        let e = parse_event(&t.event).map_err(|e| e.to_string())?;
        dfa += CompiledEvent::compile(&e)
            .map_err(|e| e.to_string())?
            .stats()
            .dfa_states;
    }
    put("compile.dfa_states", dfa as f64, "count");

    // Engine and detection: the measured path's transactions on an
    // in-process engine without a WAL, with the class's triggers active
    // and with none active; the difference is detection.
    let mut bare = spec.clone();
    bare.activate_on_create.clear();
    let (mut with_c, mut with_k, mut bare_c) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = 0;
    for _ in 0..3 {
        let (c, k, ev) = engine_replay(&spec, lay.main_objects, &lay.main_txns, &mut sp)?;
        let (b, _, _) = engine_replay(
            &bare,
            lay.main_objects,
            &lay.main_txns,
            &mut Spans::new(ctx.origin, false),
        )?;
        with_c.push(c.iter().sum::<f64>());
        with_k.push(mean(&k));
        bare_c.push(b.iter().sum::<f64>());
        events = ev;
    }
    let ncalls = lay
        .main_txns
        .iter()
        .map(|t| t.calls.len())
        .sum::<usize>()
        .max(1) as f64;
    let call_ns = median(&with_c) / ncalls;
    let commit_ns = median(&with_k);
    put("engine.call_ns", call_ns, "ns");
    put("engine.commit_ns", commit_ns, "ns");
    put(
        "detect.post_ns",
        (median(&with_c) - median(&bare_c)) / events.max(1) as f64,
        "ns",
    );
    put(
        "detect.share_of_call",
        1.0 - median(&bare_c) / median(&with_c).max(1.0),
        "ratio",
    );
    let ls = lay
        .log_stats
        .clone()
        .ok_or("log phase recorded no counters")?;
    let ev = ls.events_posted.max(1) as f64;
    put(
        "detect.symbols_per_event",
        ls.symbols_stepped as f64 / ev,
        "ratio",
    );
    put(
        "detect.firings_per_event",
        ls.triggers_fired as f64 / ev,
        "ratio",
    );
    put(
        "engine.lock_wait_us_per_txn",
        lay.lock_wait_us_per_txn,
        "us",
    );
    put(
        "engine.conflict_retries_per_txn",
        lay.conflict_retries_per_txn,
        "ratio",
    );

    // The LogOp record codec, WAL append and fsync, and the replication
    // applier, all on the seeded log the log phase wrote (the records
    // below the head it had before its time-bounded probe).
    let dir = lay.log_dir.clone().ok_or("log phase kept no directory")?;
    let io = SharedIo::new(StdIo::new());
    let reader = SegmentReader::scan(&dir, &io).map_err(|e| e.to_string())?;
    let payloads: Vec<Vec<u8>> = reader
        .records_from(0)
        .take_while(|(lsn, _)| *lsn < lay.records)
        .map(|(_, p)| p.to_vec())
        .collect();
    let mut ops = Vec::with_capacity(payloads.len());
    for (i, p) in payloads.iter().enumerate() {
        let text = std::str::from_utf8(p).map_err(|e| e.to_string())?;
        ops.push(
            sp.time("layer.logop.decode", i as u64, || {
                LogOp::from_json_line(text)
            })
            .map_err(|e| e.to_string())?,
        );
    }
    put(
        "logop.decode_ns",
        per_item_ns(&payloads, |p| {
            black_box(LogOp::from_json_line(std::str::from_utf8(p).unwrap_or("")).ok());
        }),
        "ns",
    );
    let logop_encode_ns = per_item_ns(&ops, |op| {
        black_box(op.to_json_line().ok());
    });
    put("logop.encode_ns", logop_encode_ns, "ns");
    let bytes: Vec<f64> = payloads.iter().map(|p| p.len() as f64).collect();
    put("logop.bytes_per_record", mean(&bytes), "B");

    let scratch = ctx.fresh_dir("wal-append");
    let (wal, _) = DiskWal::open(
        &scratch,
        WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        },
        io.clone(),
    )
    .map_err(|e| e.to_string())?;
    let mut app = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let s = Instant::now();
        wal.append(op).map_err(|e| e.to_string())?;
        let e = Instant::now();
        sp.record("layer.wal.append", s, e, None, i as u64);
        app.push((e - s).as_nanos() as f64);
    }
    let wal_append_ns = mean(&app);
    put("wal.append_ns", wal_append_ns, "ns");
    let mut syncs = Vec::new();
    for (i, chunk) in ops.chunks(4).take(40).enumerate() {
        for op in chunk {
            wal.append(op).map_err(|e| e.to_string())?;
        }
        let s = Instant::now();
        wal.sync().map_err(|e| e.to_string())?;
        let e = Instant::now();
        sp.record("layer.wal.sync", s, e, None, i as u64);
        syncs.push((e - s).as_secs_f64() * 1e6);
    }
    drop(wal);
    let _ = std::fs::remove_dir_all(&scratch);
    let fsync_us = median(&syncs);
    put("wal.fsync_us", fsync_us, "us");
    put("wal.bytes_per_txn", lay.log_bytes_per_txn, "B");
    put("wal.fsyncs_per_txn", lay.fsyncs_per_txn, "ratio");
    put("wal.txns_per_batch", lay.txns_per_batch, "ratio");
    put("wal.recovery_ms", median(&lay.recovery_ms), "ms");
    put("wal.segments_replayed", lay.segments_replayed, "count");

    let (log_spec, _) = lay.log_spec.clone().ok_or("no log-phase class")?;
    let mut apply_ns = Vec::new();
    for _ in 0..3 {
        let mut db = Database::new();
        db.define_class(compile_class(&log_spec).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let mut a = Applier::new();
        let t = Instant::now();
        for (i, op) in ops.iter().enumerate() {
            a.apply(&mut db, reader.base_lsn + i as u64, op)
                .map_err(|e| format!("apply {i}: {e:?}"))?;
        }
        apply_ns.push(t.elapsed().as_nanos() as f64 / ops.len().max(1) as f64);
    }
    put("repl.apply_ns", median(&apply_ns), "ns");
    put(
        "repl.records_per_s",
        lay.records as f64 / lay.catchup_s.max(1e-9),
        "1/s",
    );
    put("repl.peak_lag_lsn", lay.peak_lag_lsn, "count");

    // History store, in process.
    let h = lay.hist.as_ref().ok_or("no history timings")?;
    put("hist.query_us.rare_kind", h.us[0], "us");
    put("hist.query_us.seq_band", h.us[1], "us");
    put("hist.query_us.arg_pred", h.us[2], "us");
    put("hist.segments_scanned_per_query", h.scanned, "ratio");
    put("hist.segments_skipped_per_query", h.skipped, "ratio");
    put("hist.index_lag_lsn", lay.index_lag_lsn, "count");

    // The restart, step by step, on a copy of the log-phase directory
    // taken before its restarts.
    let copy = lay.restart_copy.clone().ok_or("log phase kept no copy")?;
    let t = Instant::now();
    let specs = load_schema(&io, &copy.join("schema.wal"))?;
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let (rwal, rdb, _) = recover_sharded(
        &copy,
        1,
        WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        },
        io.clone(),
        |db| {
            for s in &specs {
                db.define_class(compile_class(s)?)?;
            }
            Ok(())
        },
    )
    .map_err(|e| e.to_string())?;
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    drop((rwal, rdb));
    let t = Instant::now();
    let hs = HistStore::open(&copy.join("hist"), HistConfig::default(), lay.records)
        .map_err(|e| e.to_string())?;
    let hist_open_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(hs);
    let _ = std::fs::remove_dir_all(&copy);
    let start_ms = median(&lay.restart_start_ms);
    put("restart.total_ms", lay.restart_total_ms, "ms");
    put("restart.builder_start_ms", start_ms, "ms");
    put("restart.first_ping_ms", median(&lay.restart_ping_ms), "ms");
    put("restart.load_schema_ms", load_ms, "ms");
    put("restart.recover_sharded_ms", recover_ms, "ms");
    // `recovery_ms` in Stats covers reading and decoding the segments;
    // the rest of `recover_sharded` is re-running every op through the
    // engine, which Stats does not report.
    put(
        "restart.engine_replay_ms",
        recover_ms - median(&lay.recovery_ms),
        "ms",
    );
    put("restart.hist_open_ms", hist_open_ms, "ms");
    put(
        "restart.other_ms",
        start_ms - load_ms - recover_ms - hist_open_ms,
        "ms",
    );

    put("loadgen.late_p99_us", lay.late_p99_us, "us");

    // Self time per layer, and how much of the median transaction the
    // layer timings explain.
    let spans = rep
        .spans
        .get_or_insert_with(|| Spans::new(ctx.origin, true));
    spans.absorb(sp);
    let st = spans.self_ns();
    let txns = spans
        .spans
        .iter()
        .filter(|s| s.name == "txn")
        .count()
        .max(1) as f64;
    let get = |k: &str| st.get(k).copied().unwrap_or(0) as f64 / 1e3;
    put("self_us_per_txn.client", get("txn") / txns, "us");
    put(
        "self_us_per_txn.wire_request",
        (get("req.begin") + get("req.call") + get("req.commit") + get("req.pipelined")) / txns,
        "us",
    );
    let replayed = (3 * lay.main_txns.len()).max(1) as f64;
    let engine_us = (get("layer.engine.call") + get("layer.engine.commit")) / replayed;
    put("self_us_per_txn.engine", engine_us, "us");
    let records_per_txn = ls.wal_lsn.unwrap_or(0) as f64 / ls.txns_committed.max(1) as f64;
    let per_txn_append = get("layer.wal.append") / ops.len().max(1) as f64 * records_per_txn;
    put("self_us_per_txn.wal_append", per_txn_append, "us");

    let reqs = lay.round_trips_per_txn;
    // A layer the measured path does not use is attributed nothing.
    let wal = if lay.main_wal {
        records_per_txn / 1e3
    } else {
        0.0
    };
    let attrib: [(&str, f64); 6] = [
        ("wire", lay.ping_rtt_us * lay.round_trips_per_txn),
        (
            "codec",
            ((req_decode_ns + reply_encode_ns) * reqs + firing_encode_ns * lay.firings_per_txn)
                / 1e3,
        ),
        (
            "engine",
            (call_ns * ncalls / lay.main_txns.len().max(1) as f64 + commit_ns) / 1e3,
        ),
        ("logop", logop_encode_ns * wal),
        ("wal_append", wal_append_ns * wal),
        ("fsync", if lay.fsync_on_commit { fsync_us } else { 0.0 }),
    ];
    let covered: f64 = attrib.iter().map(|a| a.1).sum();
    for (k, v) in &attrib {
        put(&format!("attrib_us.{k}"), *v, "us");
    }
    let p50 = lay.txn_p50_untraced_us;
    put("trace.txn_p50_untraced_us", p50, "us");
    put("trace.txn_p50_traced_us", lay.txn_p50_traced_us, "us");
    put("unattributed_frac", 1.0 - covered / p50.max(1e-9), "ratio");
    put(
        "trace.overhead_frac",
        lay.txn_p50_traced_us / p50.max(1e-9) - 1.0,
        "ratio",
    );
    put(
        "error_rate",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        "ratio",
    );
    rep.layer.extend(m);
    Ok(())
}
