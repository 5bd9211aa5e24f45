//! The four workloads and the log phase they share.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use ode_core::Value;
use ode_db::{Database, FiringNotice, FsyncPolicy};
use ode_server::spec::{compile_class, stockroom_spec};
use ode_server::{ClassSpec, Firing, ReplyResult};

use crate::gen::{fanout_spec, FanGen, Query, QueryGen, StockGen, Txn};
use crate::layers::{self, Layers};
use crate::node::{self, Node, NodeCfg};
use crate::session::{
    check_rows, closed_loop, naive_filter, rows_digest, run_query, sent_key, subscribe_collect,
    Scan, SentLog, SessionOut,
};
use crate::stats::{mean, median, pct};
use crate::trace::Spans;
use crate::wire::{Wire, R};

/// Every run is cut into `ROUNDS` rounds. A round runs a slice of the
/// workload's own load, then one restart-and-replicate cycle of the
/// log phase and a slice of its probe. The host's CPU slows by a third
/// or more for spells of seconds to minutes, so a time taken in one
/// burst of a run moves with them. Each round yields one value per
/// time, and a run reports the lower quartile of the rounds' times and
/// latencies (`ACROSS`) and the upper quartile of their rates, which
/// move only when a spell covers most of the run. Spells that long
/// still occur, so these times carry no bound (see `BOUNDED`).
const ROUNDS: usize = 8;
const ACROSS: f64 = 25.0;
/// Set-up repetitions per run: at least `SETUP_REPS`, more while under
/// `SETUP_MIN_S` in total, at most `SETUP_MAX_REPS`; `setup_s` is their
/// median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 2.5;
const SETUP_MAX_REPS: usize = 9;
/// Stock rooms of `oltp_durable`.
const OLTP_ROOMS: usize = 10_000;
/// Objects and triggers per object of `trigger_fanout`.
pub const FAN_OBJECTS: usize = 64;
pub const FAN_TRIGGERS: usize = 1024;
/// Offered rate of the `trigger_fanout` open loop, txns per second.
pub const FAN_RATE: f64 = 200.0;
/// Rooms and preloaded transactions of `history_mix`.
const HIST_ROOMS: usize = 1_000;
const HIST_PRELOAD: usize = 2_500;
/// Rooms of every log phase.
const LOG_ROOMS: usize = 1_000;
/// Bulk-loaded transactions of the log phase, and how long its
/// closed-loop probe runs in all (generated with room to spare): large
/// in `log_replay`, small where the log phase only completes the
/// metrics. The fanout workload takes no metric from the probe, so it
/// runs a token one.
const LOG_BULK: usize = 5_000;
const LOG_BULK_SMALL: usize = 1_500;
const LOG_PROBE_MAX: usize = 60_000;
const LOG_PROBE_SECS_SMALL: f64 = 3.6;
const LOG_PROBE_FAN: usize = 180;
/// History queries of the log phase (the three kinds in turn).
const LOG_QUERIES: usize = 60;
/// Share of stockroom transactions run as `mallory`.
const MALLORY_P: f64 = 0.03;

const IN_MEMORY: NodeCfg = NodeCfg {
    fsync: None,
    history: false,
};
const LOG_CFG: NodeCfg = NodeCfg {
    fsync: Some(FsyncPolicy::Never),
    history: true,
};
const REPLICA_CFG: NodeCfg = NodeCfg {
    fsync: Some(FsyncPolicy::Never),
    history: false,
};
const HIST_CFG: NodeCfg = NodeCfg {
    fsync: Some(FsyncPolicy::Never),
    history: true,
};

fn oltp_cfg() -> NodeCfg {
    NodeCfg {
        fsync: Some(FsyncPolicy::default_group()),
        history: false,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OltpDurable,
    TriggerFanout,
    HistoryMix,
    LogReplay,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "oltp_durable" => Workload::OltpDurable,
            "trigger_fanout" => Workload::TriggerFanout,
            "history_mix" => Workload::HistoryMix,
            "log_replay" => Workload::LogReplay,
            _ => return None,
        })
    }
}

/// Run-wide settings and scratch space.
pub struct Ctx {
    pub seed: u64,
    pub secs: f64,
    pub trace: bool,
    pub work: PathBuf,
    pub origin: Instant,
    dirs: AtomicUsize,
}

impl Ctx {
    pub fn new(seed: u64, secs: f64, trace: bool, work: PathBuf) -> Ctx {
        Ctx {
            seed,
            secs,
            trace,
            work,
            origin: Instant::now(),
            dirs: AtomicUsize::new(0),
        }
    }

    /// A fresh, empty directory under the run's scratch space.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = self.dirs.fetch_add(1, Ordering::Relaxed);
        self.work.join(format!("{tag}-{n}"))
    }
}

/// Everything a run reports.
#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, (f64, &'static str)>,
    pub layer: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub facts: BTreeMap<&'static str, String>,
    pub spans: Option<Spans>,
}

impl Report {
    fn e(&mut self, name: &'static str, v: f64, unit: &'static str) {
        self.e2e.insert(name, (v, unit));
    }

    /// An oracle check: one attempted operation, failed when `ok` is
    /// false.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    fn session(&mut self, s: &SessionOut) {
        self.attempted += s.attempted;
        self.failed += s.failed;
        self.errors.extend(s.errors.iter().cloned());
    }

    fn spans(&mut self, s: Spans) {
        match &mut self.spans {
            Some(all) => all.absorb(s),
            None => self.spans = Some(s),
        }
    }
}

/// The fields a fingerprint reads, per class.
fn fields(spec: &ClassSpec) -> Vec<String> {
    spec.fields.iter().map(|f| f.name.clone()).collect()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Start fresh servers and set each up with `setup` (see `SETUP_REPS`);
/// `setup_s` is the median set-up time. The last server is kept.
fn timed_setups<T>(
    rep: &mut Report,
    reps: usize,
    mut setup: impl FnMut() -> R<(Node, T)>,
) -> R<(Node, T)> {
    let mut times = Vec::new();
    let mut last = None;
    let begin = Instant::now();
    while times.len() < reps
        || (secs(begin.elapsed()) < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        if let Some((mut n, _)) = last.take() {
            Node::shutdown(&mut n);
        }
        let t = Instant::now();
        let got = setup()?;
        times.push(secs(t.elapsed()));
        last = Some(got);
    }
    rep.e("setup_s", median(&times), "s");
    last.ok_or_else(|| "no set-up ran".to_string())
}

impl Node {
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Run `w` and fill `rep`.
pub fn run(ctx: &Ctx, w: Workload, rep: &mut Report) -> R<()> {
    let mut lay = Layers::default();
    match w {
        Workload::OltpDurable => oltp_durable(ctx, rep, &mut lay)?,
        Workload::TriggerFanout => trigger_fanout(ctx, rep, &mut lay)?,
        Workload::HistoryMix => history_mix(ctx, rep, &mut lay)?,
        Workload::LogReplay => log_replay(ctx, rep, &mut lay)?,
    }
    rep.e("peak_rss_mb", peak_rss_mb(), "MB");
    rep.e(
        "peak_heap_mb",
        crate::peak_heap_bytes() as f64 / (1024.0 * 1024.0),
        "MB",
    );
    if ctx.trace {
        layers::finish(ctx, rep, &mut lay)?;
    }
    Ok(())
}

/// VmHWM of this process (which hosts every server), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Stockroom transactions for bulk loads: no `mallory`, one stream.
fn stock_txns(seed: u64, stream: u64, rooms: usize, n: usize, mallory: f64) -> Vec<Txn> {
    let mut g = StockGen::new(seed, stream, rooms, mallory, 0);
    (0..n).map(|_| g.next_txn()).collect()
}

fn fan_txns(seed: u64, stream: u64, n: usize, first_tag: u64) -> Vec<Txn> {
    let mut g = FanGen::new(seed, stream, FAN_OBJECTS);
    (0..n).map(|i| g.next_txn(first_tag + i as u64)).collect()
}

/// Closed-loop load gathered slice by slice over a run.
#[derive(Default)]
struct Load {
    sessions: Vec<SessionOut>,
    /// Per slice: commits per second and median latency, us.
    rates: Vec<f64>,
    p50s: Vec<f64>,
}

impl Load {
    /// Add the sessions of one slice that ran from `start` to `end`
    /// (seconds since the run's origin).
    fn slice(&mut self, rep: &mut Report, start: f64, end: f64, outs: Vec<SessionOut>) {
        let lat: Vec<f64> = outs
            .iter()
            .flat_map(|s| s.txn_lat.iter().map(|x| x.1))
            .collect();
        if !lat.is_empty() {
            self.rates.push(lat.len() as f64 / (end - start).max(1e-9));
            self.p50s.push(median(&lat));
        }
        for s in &outs {
            rep.session(s);
        }
        self.sessions.extend(outs);
    }

    fn refs(&self) -> Vec<&SessionOut> {
        self.sessions.iter().collect()
    }

    /// `txns_per_s`, `txn_p50_us` (with the traced run's tail and
    /// tracing overhead) and `wire_bytes_per_txn`.
    fn report(&self, rep: &mut Report, lay: &mut Layers) {
        let bytes: u64 = self.sessions.iter().map(|s| s.wire_bytes).sum();
        let committed: u64 = self.sessions.iter().map(|s| s.committed).sum();
        rep.e(
            "wire_bytes_per_txn",
            bytes as f64 / committed.max(1) as f64,
            "B",
        );
        rep.e("txns_per_s", pct(&self.rates, 100.0 - ACROSS), "1/s");
        rep.e("txn_p50_us", pct(&self.p50s, ACROSS), "us");
        let lat: Vec<f64> = self
            .sessions
            .iter()
            .flat_map(|s| s.txn_lat.iter().map(|x| x.1))
            .collect();
        tail(rep, "tail.txn_p90_us", &lat);
        trace_overhead(lay, &self.refs());
    }
}

/// The p90 of every sample of a run, for the traced run only: on the
/// shared 2-CPU host the transaction and firing p90s, like every p99,
/// moved between runs by more than any allowed bound, so they carry
/// none.
fn tail(rep: &mut Report, name: &str, lat: &[f64]) {
    rep.layer.insert(name.into(), (pct(lat, 90.0), "us"));
}

/// The lower quartile (`ACROSS`) of per-round medians of `rounds`.
fn rounds_p50(rounds: &[Vec<f64>]) -> f64 {
    let p50s: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .collect();
    pct(&p50s, ACROSS)
}

/// Mean and p90 of history query latencies over the fixed mix. The
/// median is no metric here: the seq-band kind sits in the middle of
/// the mix, and from query to query its reply's last line either
/// arrives at once or waits about 40 ms for the client's delayed ACK,
/// so the median of a run flipped between the two.
fn query_metrics(rep: &mut Report, lat: &[f64]) {
    rep.e("query_mean_us", mean(lat), "us");
    rep.e("query_p90_us", pct(lat, 90.0), "us");
}

/// One closed-loop session per generator on `addr` until `deadline`,
/// one thread each. Their spans and raw lines go to `rep` and `lay`.
#[allow(clippy::too_many_arguments)]
fn sessions_until(
    ctx: &Ctx,
    rep: &mut Report,
    lay: &mut Layers,
    addr: std::net::SocketAddr,
    objs: &[u64],
    gens: &mut [StockGen],
    deadline: Instant,
    seed: u64,
) -> R<Vec<SessionOut>> {
    let outs: Vec<R<(SessionOut, Spans, Option<Lines>)>> = std::thread::scope(|s| {
        let hs: Vec<_> = gens
            .iter_mut()
            .enumerate()
            .map(|(i, g)| {
                s.spawn(move || -> R<_> {
                    let mut w = Wire::connect(addr)?;
                    if ctx.trace {
                        w.record();
                    }
                    let mut spans = Spans::new(ctx.origin, ctx.trace);
                    let out = closed_loop(
                        &mut w,
                        objs,
                        || Some(g.next_txn()),
                        Some(deadline),
                        ctx.origin,
                        &mut spans,
                        ctx.trace,
                        seed + i as u64,
                        None,
                    );
                    Ok((out, spans, w.lines.take()))
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("session panicked".into())))
            .collect()
    });
    let mut sessions = Vec::with_capacity(outs.len());
    for o in outs {
        let (out, spans, lines) = o?;
        rep.spans(spans);
        if let Some(l) = lines {
            lay.lines.absorb(l);
        }
        sessions.push(out);
    }
    Ok(sessions)
}

/// Seconds since the run's origin.
fn since(ctx: &Ctx) -> f64 {
    ctx.origin.elapsed().as_secs_f64()
}

/// Oracle on a subscriber's stream: strictly increasing seqs (so no
/// duplicates and per-shard order) and as many firings as the server
/// counted.
fn check_stream(rep: &mut Report, firings: &[(Instant, Firing)], fired: u64) {
    let in_order = firings.windows(2).all(|p| p[0].1.seq < p[1].1.seq);
    rep.check(in_order, || {
        "firings arrived out of seq order or twice".into()
    });
    rep.check(firings.len() as u64 == fired, || {
        format!(
            "subscriber got {} firings, the server fired {fired}",
            firings.len()
        )
    });
}

/// The traced-minus-untraced latency overhead, from sessions that
/// alternated tracing by window.
fn trace_overhead(lay: &mut Layers, sessions: &[&SessionOut]) {
    let pick = |on: bool| -> Vec<f64> {
        sessions
            .iter()
            .flat_map(|s| s.txn_lat.iter().filter(|x| x.2 == on).map(|x| x.1))
            .collect()
    };
    lay.txn_p50_traced_us = median(&pick(true));
    lay.txn_p50_untraced_us = median(&pick(false));
}

type Lines = crate::wire::Lines;

// ------------------------------------------------------------ oltp_durable

fn oltp_durable(ctx: &Ctx, rep: &mut Report, lay: &mut Layers) -> R<()> {
    let spec = stockroom_spec();
    let cfg = oltp_cfg();
    rep.facts.insert("flush_policy", cfg.describe());
    let first = stock_txns(ctx.seed, 1, OLTP_ROOMS, 1000, MALLORY_P);
    rep.facts.insert(
        "inputs_digest",
        format!("{:016x}", crate::gen::digest(&first)),
    );
    let (mut node, objs) = timed_setups(rep, SETUP_REPS, || {
        let dir = ctx.fresh_dir("oltp");
        let node = node::start(Some(&dir), cfg, None)?;
        let mut w = Wire::connect(node.addr)?;
        let objs = node::populate(&mut w, &spec, OLTP_ROOMS)?;
        Ok((node, objs))
    })?;
    let mut admin = Wire::connect(node.addr)?;
    let st0 = node::stats(&mut admin)?;
    drop(admin);

    // Two closed-loop sessions, a slice per round.
    let mut gens: Vec<StockGen> = (0..2)
        .map(|i| StockGen::new(ctx.seed, 1 + i as u64, OLTP_ROOMS, MALLORY_P, i))
        .collect();
    let mut load = Load::default();
    let slice = ctx.secs / ROUNDS as f64;
    let mut round = 0;
    let ls = LogSpec::stock(
        ctx.seed,
        LOG_BULK_SMALL,
        LOG_PROBE_MAX,
        Some(LOG_PROBE_SECS_SMALL),
    );
    log_phase(
        ctx,
        &ls,
        rep,
        lay,
        Metrics::BYPASS,
        false,
        &mut |rep, lay| {
            round += 1;
            let start = since(ctx);
            let deadline = Instant::now() + Duration::from_secs_f64(slice);
            let seed = ctx.seed + 16 * round;
            let outs = sessions_until(ctx, rep, lay, node.addr, &objs, &mut gens, deadline, seed)?;
            load.slice(rep, start, start + slice, outs);
            Ok(())
        },
    )?;
    load.report(rep, lay);
    let refs = load.refs();

    // Oracle: every room holds its initial stock plus the net change of
    // the acked transactions, so bolt and gear totals are conserved.
    let mut delta: HashMap<usize, [i64; 2]> = HashMap::new();
    for s in &refs {
        for (k, d) in &s.deltas {
            let e = delta.entry(*k).or_insert([0, 0]);
            e[0] += d[0];
            e[1] += d[1];
        }
    }
    let (mut want, mut got) = ([0i64; 2], [0i64; 2]);
    let mut bad_rooms = 0;
    node.server.db().with(|db| {
        for (i, &o) in objs.iter().enumerate() {
            let d = delta.get(&i).copied().unwrap_or([0, 0]);
            let exp = [500 + d[0], 100 + d[1]];
            let items = db.peek_field(ode_db::ObjectId(o), "items");
            let have = [
                items
                    .as_ref()
                    .and_then(|v| v.member("bolt"))
                    .and_then(Value::as_int),
                items
                    .as_ref()
                    .and_then(|v| v.member("gear"))
                    .and_then(Value::as_int),
            ];
            for k in 0..2 {
                want[k] += exp[k];
                got[k] += have[k].unwrap_or(i64::MIN / 4);
            }
            if have != [Some(exp[0]), Some(exp[1])] {
                bad_rooms += 1;
            }
        }
    });
    rep.check(bad_rooms == 0 && want == got, || {
        format!("stock not conserved: {bad_rooms} rooms differ; totals want {want:?} got {got:?}")
    });
    let mut admin = Wire::connect(node.addr)?;
    let st1 = node::stats(&mut admin)?;
    let committed = st1.txns_committed - st0.txns_committed;
    let ok_commits: u64 = refs.iter().map(|s| s.committed).sum();
    rep.check(committed == ok_commits, || {
        format!("server committed {committed} txns, clients saw {ok_commits} acks")
    });
    if ctx.trace {
        lay.main_stats(&st0, &st1, committed, &refs);
        lay.ping_rtt_us = layers::ping_rtt(&mut admin)?;
        lay.round_trips_per_txn =
            refs.iter().map(|s| s.requests).sum::<u64>() as f64 / committed.max(1) as f64;
        lay.fsync_on_commit = true;
        lay.main_wal = true;
        lay.main_spec = Some(spec.clone());
        lay.main_txns = stock_txns(ctx.seed, 1, OLTP_ROOMS, 400, MALLORY_P);
        lay.main_objects = OLTP_ROOMS;
    }
    drop(admin);
    node.shutdown();
    Ok(())
}

// ---------------------------------------------------------- trigger_fanout

/// The firings an in-process engine produces for `txns`, keyed by
/// `(object index, trigger, args)` with their multiplicity.
fn fanout_oracle(spec: &ClassSpec, txns: &[Txn]) -> R<BTreeMap<(usize, String, String), u32>> {
    let mut db = Database::new();
    db.define_class(compile_class(spec).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    type Fired = Vec<(u64, String, Vec<Value>)>;
    let seen: Arc<Mutex<Fired>> = Arc::default();
    let sink = Arc::clone(&seen);
    db.set_firing_sink(Some(Arc::new(move |n: &FiringNotice| {
        sink.lock().expect("oracle sink lock").push((
            n.object.0,
            n.trigger.clone(),
            n.args.clone(),
        ));
    })));
    let t = db.begin();
    let mut ids = Vec::with_capacity(FAN_OBJECTS);
    for _ in 0..FAN_OBJECTS {
        ids.push(
            db.create_object(t, &spec.name, &[])
                .map_err(|e| e.to_string())?,
        );
    }
    db.commit(t).map_err(|e| e.to_string())?;
    let index: HashMap<u64, usize> = ids.iter().enumerate().map(|(i, o)| (o.0, i)).collect();
    for tx in txns {
        let t = db.begin_as(Value::from(tx.user));
        for c in &tx.calls {
            db.call(t, ids[c.obj], c.method, &c.args)
                .map_err(|e| e.to_string())?;
        }
        db.commit(t).map_err(|e| e.to_string())?;
    }
    let mut out = BTreeMap::new();
    for (o, trig, args) in seen.lock().expect("oracle sink lock").drain(..) {
        *out.entry((index[&o], trig, format!("{args:?}")))
            .or_insert(0) += 1;
    }
    Ok(out)
}

/// What one open-loop segment of `trigger_fanout` measured.
#[derive(Default)]
struct FanSeg {
    /// `(completion time s, latency us from due, traced)` per txn.
    lat: Vec<(f64, f64, bool)>,
    /// How late each request was sent, us.
    late: Vec<f64>,
    /// Latency of each firing from its call's due time, us.
    firing_lat: Vec<f64>,
    firings: usize,
    /// NDJSON bytes the writer's connection wrote and read.
    wire_bytes: u64,
    /// From the first due time to the last commit ack, s.
    elapsed: f64,
}

/// One segment of the `trigger_fanout` open loop: a fresh in-memory
/// server, `secs` of seeded calls from stream `stream`, and the
/// segment's oracles.
fn fan_segment(
    ctx: &Ctx,
    rep: &mut Report,
    lay: &mut Layers,
    spec: &ClassSpec,
    stream: u64,
    secs: f64,
) -> R<FanSeg> {
    let mut node = node::start(None, IN_MEMORY, None)?;
    let objs = node::populate(&mut Wire::connect(node.addr)?, spec, FAN_OBJECTS)?;
    let n = (FAN_RATE * secs).round() as usize;
    let txns = fan_txns(ctx.seed, stream, n, 1);
    if stream == 1 {
        rep.facts.insert(
            "inputs_digest",
            format!("{:016x}", crate::gen::digest(&txns)),
        );
    }
    let expected = fanout_oracle(spec, &txns)?;
    let expected_n: u32 = expected.values().sum();
    let index: HashMap<u64, usize> = objs.iter().enumerate().map(|(i, &o)| (o, i)).collect();

    let mut admin = Wire::connect(node.addr)?;
    let st0 = node::stats(&mut admin)?;
    let writer_done = AtomicBool::new(false);
    let ready = Barrier::new(2);
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / FAN_RATE);

    type WriterOut = R<(Vec<(f64, f64, bool)>, Vec<f64>, Spans, Option<Lines>, u64)>;
    let (sub_out, writer_out) = std::thread::scope(|s| {
        let (done, ready) = (&writer_done, &ready);
        let sub_h = s.spawn(move || {
            subscribe_collect(node.addr, ctx.trace, ready, done, || expected_n as usize)
        });
        let (txns, objs) = (&txns, &objs);
        let writer_h = s.spawn(move || -> WriterOut {
            let w = Wire::connect(node.addr);
            ready.wait();
            let mut w = w?;
            if ctx.trace {
                w.record();
            }
            let mut spans = Spans::new(ctx.origin, ctx.trace);
            let mut lat = Vec::with_capacity(txns.len());
            let mut late = Vec::with_capacity(txns.len());
            for (i, t) in txns.iter().enumerate() {
                let d = due(i);
                loop {
                    let now = Instant::now();
                    if now >= d {
                        break;
                    }
                    let left = d - now;
                    if left > Duration::from_micros(150) {
                        std::thread::sleep(left - Duration::from_micros(100));
                    } else {
                        std::thread::yield_now();
                    }
                }
                let sent = Instant::now();
                late.push(sent.duration_since(d).as_secs_f64() * 1e6);
                let on = ctx.trace && (ctx.origin.elapsed().as_millis() / 500) % 2 == 1;
                spans.set_on(on);
                let mut kids = Vec::with_capacity(3);
                for cmd in node::txn_cmds(t, objs) {
                    let at = Instant::now();
                    if let ReplyResult::Err(e) = w.call(cmd)? {
                        return Err(format!("fanout txn {i} failed [{}]: {}", e.code, e.message));
                    }
                    kids.push((at, Instant::now()));
                }
                let end = Instant::now();
                let tag = (stream << 32) + i as u64 + 1;
                let root = spans.record("txn", d, end, None, tag);
                for (k, (a, b)) in kids.into_iter().enumerate() {
                    let name = ["req.begin", "req.call", "req.commit"][k.min(2)];
                    spans.record(name, a, b, root, tag);
                }
                lat.push((
                    end.duration_since(ctx.origin).as_secs_f64(),
                    end.duration_since(d).as_secs_f64() * 1e6,
                    on,
                ));
            }
            spans.set_on(ctx.trace);
            Ok((lat, late, spans, w.lines.take(), w.bytes))
        });
        let w = writer_h
            .join()
            .unwrap_or_else(|_| Err("writer panicked".into()));
        writer_done.store(true, Ordering::SeqCst);
        let s = sub_h
            .join()
            .unwrap_or_else(|_| Err("subscriber panicked".into()));
        (s, w)
    });
    let (lat, late, spans, wlines, wire_bytes) = writer_out?;
    let (firings, slines) = sub_out?;
    let elapsed = lat.last().map_or(secs, |l| {
        l.0 - start.duration_since(ctx.origin).as_secs_f64()
    });
    rep.attempted += txns.len() as u64;
    rep.spans(spans);
    for l in [wlines, slines].into_iter().flatten() {
        lay.lines.absorb(l);
    }

    // Oracle: exactly once, in seq order, and the same set of firings
    // as the in-process engine fed the same calls.
    let mut got: BTreeMap<(usize, String, String), u32> = BTreeMap::new();
    let mut firing_lat = Vec::with_capacity(firings.len());
    for (at, f) in &firings {
        let obj = index.get(&f.object).copied().unwrap_or(usize::MAX);
        *got.entry((obj, f.trigger.clone(), format!("{:?}", f.args)))
            .or_insert(0) += 1;
        if let Some(Value::Int(tag)) = f.args.first() {
            let d = due((*tag as usize).saturating_sub(1));
            firing_lat.push(at.saturating_duration_since(d).as_secs_f64() * 1e6);
        }
    }
    check_stream(rep, &firings, u64::from(expected_n));
    rep.check(got == expected, || {
        format!(
            "firing set differs from the in-process engine: got {} firings, expected {expected_n}",
            firings.len()
        )
    });
    let st1 = node::stats(&mut admin)?;
    rep.check(
        st1.txns_committed - st0.txns_committed == txns.len() as u64,
        || "server committed a different number of fanout txns".into(),
    );
    if ctx.trace {
        // The last segment's counters and inputs stand for the run.
        lay.main_stats(&st0, &st1, txns.len() as u64, &[]);
        lay.ping_rtt_us = layers::ping_rtt(&mut admin)?;
        lay.round_trips_per_txn = 3.0;
        lay.main_spec = Some(spec.clone());
        lay.main_txns = txns.iter().take(400).cloned().collect();
        lay.main_objects = FAN_OBJECTS;
    }
    drop(admin);
    node.shutdown();
    Ok(FanSeg {
        lat,
        late,
        firing_lat,
        firings: firings.len(),
        wire_bytes,
        elapsed,
    })
}

fn trigger_fanout(ctx: &Ctx, rep: &mut Report, lay: &mut Layers) -> R<()> {
    let spec = fanout_spec(FAN_TRIGGERS);
    rep.facts.insert("flush_policy", IN_MEMORY.describe());
    rep.facts
        .insert("offered_rate", format!("{FAN_RATE} txns/s, open loop"));
    timed_setups(rep, SETUP_REPS, || {
        let node = node::start(None, IN_MEMORY, None)?;
        let mut w = Wire::connect(node.addr)?;
        let objs = node::populate(&mut w, &spec, FAN_OBJECTS)?;
        Ok((node, objs))
    })?
    .0
    .shutdown();

    // A segment of the open loop per round, each on a server of its
    // own, so no run keeps one server's thread placement throughout.
    let mut segs = Vec::with_capacity(ROUNDS);
    let ls = LogSpec::fan(ctx.seed, LOG_BULK_SMALL, LOG_PROBE_FAN);
    log_phase(
        ctx,
        &ls,
        rep,
        lay,
        Metrics::BYPASS_FANOUT,
        false,
        &mut |rep, lay| {
            let stream = 1 + segs.len() as u64;
            let seg = fan_segment(ctx, rep, lay, &spec, stream, ctx.secs / ROUNDS as f64)?;
            segs.push(seg);
            Ok(())
        },
    )?;
    let txns: usize = segs.iter().map(|s| s.lat.len()).sum();
    let elapsed: f64 = segs.iter().map(|s| s.elapsed).sum();
    rep.e("txns_per_s", txns as f64 / elapsed, "1/s");
    let bytes: u64 = segs.iter().map(|s| s.wire_bytes).sum();
    rep.e("wire_bytes_per_txn", bytes as f64 / txns as f64, "B");
    let lat: Vec<Vec<f64>> = segs
        .iter()
        .map(|s| s.lat.iter().map(|x| x.1).collect())
        .collect();
    let firing: Vec<Vec<f64>> = segs.iter().map(|s| s.firing_lat.clone()).collect();
    rep.e("txn_p50_us", rounds_p50(&lat), "us");
    rep.e("firing_p50_us", rounds_p50(&firing), "us");
    tail(rep, "tail.txn_p90_us", &lat.concat());
    tail(rep, "tail.firing_p90_us", &firing.concat());
    if ctx.trace {
        let late: Vec<f64> = segs.iter().flat_map(|s| s.late.iter().copied()).collect();
        lay.late_p99_us = pct(&late, 99.0);
        lay.firings_per_txn = segs.iter().map(|s| s.firings).sum::<usize>() as f64 / txns as f64;
    }
    let sess = SessionOut {
        txn_lat: segs.into_iter().flat_map(|s| s.lat).collect(),
        ..SessionOut::default()
    };
    trace_overhead(lay, &[&sess]);
    Ok(())
}

// ------------------------------------------------------------- history_mix

type QuerierOut = R<(Vec<f64>, Vec<(Query, u64)>, u64, Option<Lines>)>;

fn history_mix(ctx: &Ctx, rep: &mut Report, lay: &mut Layers) -> R<()> {
    let spec = stockroom_spec();
    rep.facts.insert("flush_policy", HIST_CFG.describe());
    let preload = stock_txns(ctx.seed, 3, HIST_ROOMS, HIST_PRELOAD, 0.0);
    rep.facts.insert(
        "inputs_digest",
        format!("{:016x}", crate::gen::digest(&preload)),
    );
    let (mut node, objs) = timed_setups(rep, SETUP_REPS, || {
        let dir = ctx.fresh_dir("hist");
        let node = node::start(Some(&dir), HIST_CFG, None)?;
        let mut w = Wire::connect(node.addr)?;
        let objs = node::populate(&mut w, &spec, HIST_ROOMS)?;
        node::bulk_load(&mut w, &preload, &objs)?;
        // The history is part of set-up: wait until it is indexed.
        node.server.hist(0).ok_or("history store missing")?.sync();
        Ok((node, objs))
    })?;
    let store = node.server.hist(0).ok_or("history store missing")?;
    let mut admin = Wire::connect(node.addr)?;
    let st0 = node::stats(&mut admin)?;
    drop(admin);
    let seq_hi = st0.events_posted;
    if ctx.trace {
        layers::hist_inprocess(&store, ctx.seed, seq_hi, "withdraw", 100, lay)?;
    }

    // A writer session beside a querier session, a slice per round.
    let mut wgen = [StockGen::new(ctx.seed, 1, HIST_ROOMS, MALLORY_P, 0)];
    let mut qgen = QueryGen::new(ctx.seed, seq_hi, "withdraw", 100);
    let mut load = Load::default();
    let (mut qlat, mut seen, mut lag) = (Vec::new(), Vec::new(), 0u64);
    let slice = ctx.secs / ROUNDS as f64;
    let mut round = 0;
    let addr = node.addr;
    let ls = LogSpec::stock(
        ctx.seed,
        LOG_BULK_SMALL,
        LOG_PROBE_MAX,
        Some(LOG_PROBE_SECS_SMALL),
    );
    log_phase(
        ctx,
        &ls,
        rep,
        lay,
        Metrics::BYPASS_HISTORY,
        false,
        &mut |rep, lay| {
            round += 1;
            let start = since(ctx);
            let deadline = Instant::now() + Duration::from_secs_f64(slice);
            let (wgen, qgen) = (&mut wgen, &mut qgen);
            let seed = ctx.seed + 16 * round;
            let (writer, querier) = std::thread::scope(|s| {
                let qh = s.spawn(move || -> QuerierOut {
                    let mut w = Wire::connect(addr)?;
                    if ctx.trace {
                        w.record();
                    }
                    let (mut lat, mut seen, mut lag) = (Vec::new(), Vec::new(), 0u64);
                    while Instant::now() < deadline {
                        let q = qgen.next_query();
                        let (rows, d, _, _) = run_query(&mut w, &q)?;
                        lat.push(d.as_secs_f64() * 1e6);
                        let digest = rows_digest(
                            rows.iter().map(|r| (r.seq, r.event.as_str(), &r.args[..])),
                        );
                        seen.push((q, digest));
                        if ctx.trace && lat.len() % 10 == 0 {
                            let st = node::stats(&mut w)?;
                            let indexed = st.hist_indexed_lsns.first().copied().unwrap_or(0);
                            lag = lag.max(st.wal_lsn.unwrap_or(0).saturating_sub(indexed));
                        }
                    }
                    Ok((lat, seen, lag, w.lines.take()))
                });
                let writer = sessions_until(ctx, rep, lay, addr, &objs, wgen, deadline, seed);
                let querier = qh.join().unwrap_or_else(|_| Err("querier panicked".into()));
                (writer, querier)
            });
            load.slice(rep, start, start + slice, writer?);
            let (ql, sn, lg, lines) = querier?;
            qlat.extend(ql);
            seen.extend(sn);
            lag = lag.max(lg);
            if let Some(l) = lines {
                lay.lines.absorb(l);
            }
            Ok(())
        },
    )?;
    load.report(rep, lay);
    query_metrics(rep, &qlat);
    rep.attempted += qlat.len() as u64;

    // Oracle: every query stays inside the preloaded history, so each
    // one's rows must equal the naive filter of a full scan exactly.
    let scan = Scan::take(&store, seq_hi)?;
    for (q, digest) in &seen {
        let naive = naive_filter(&scan, q);
        let want = rows_digest(naive.iter().map(|(s, (e, a))| (*s, *e, *a)));
        rep.check(want == *digest, || {
            format!("{:?} query rows differ from the full-scan filter", q.kind)
        });
    }
    drop(scan);
    let mut w = Wire::connect(node.addr)?;
    if ctx.trace {
        let st1 = node::stats(&mut w)?;
        let refs = load.refs();
        let committed: u64 = refs.iter().map(|s| s.committed).sum();
        let requests: u64 = refs.iter().map(|s| s.requests).sum();
        lay.main_stats(&st0, &st1, committed, &refs);
        lay.index_lag_lsn = lag as f64;
        lay.ping_rtt_us = layers::ping_rtt(&mut w)?;
        lay.round_trips_per_txn = requests as f64 / committed.max(1) as f64;
        lay.main_wal = true;
        lay.main_spec = Some(spec.clone());
        lay.main_txns = stock_txns(ctx.seed, 1, HIST_ROOMS, 400, MALLORY_P);
        lay.main_objects = HIST_ROOMS;
    }
    drop(w);
    drop(store);
    node.shutdown();
    Ok(())
}

// -------------------------------------------------------------- log_replay

fn log_replay(ctx: &Ctx, rep: &mut Report, lay: &mut Layers) -> R<()> {
    rep.facts.insert("flush_policy", LOG_CFG.describe());
    // The probe is the measured load here: generate more than a run can
    // use and stop at the deadline.
    let ls = LogSpec::stock(ctx.seed, LOG_BULK, LOG_PROBE_MAX, Some(ctx.secs));
    log_phase(ctx, &ls, rep, lay, Metrics::ALL, true, &mut |_, _| Ok(()))
}

// --------------------------------------------------------------- log phase

/// Which end-to-end metrics the log phase reports for its workload:
/// the ones the workload's own measured phase does not produce.
#[derive(Clone, Copy)]
struct Metrics {
    txn: bool,
    firing: bool,
    query: bool,
}

impl Metrics {
    const ALL: Metrics = Metrics {
        txn: true,
        firing: true,
        query: true,
    };
    const BYPASS: Metrics = Metrics {
        txn: false,
        firing: true,
        query: true,
    };
    const BYPASS_FANOUT: Metrics = Metrics {
        txn: false,
        firing: false,
        query: true,
    };
    const BYPASS_HISTORY: Metrics = Metrics {
        txn: false,
        firing: true,
        query: false,
    };
}

/// The log phase: a fixed, seeded log written by a WAL server (fsync
/// never, history on), then restarted, replicated, probed and queried.
pub struct LogSpec {
    pub spec: ClassSpec,
    pub objects: usize,
    pub bulk: Vec<Txn>,
    pub probe: Vec<Txn>,
    pub arg_method: &'static str,
    pub arg_threshold: i64,
    /// Run the closed-loop probe for this long in all instead of to the
    /// end of `probe` (`log_replay`, where the probe is the measured
    /// load, and the stockroom workloads).
    pub probe_secs: Option<f64>,
}

impl LogSpec {
    fn stock(seed: u64, bulk: usize, probe: usize, probe_secs: Option<f64>) -> LogSpec {
        LogSpec {
            spec: stockroom_spec(),
            objects: LOG_ROOMS,
            bulk: stock_txns(seed, 11, LOG_ROOMS, bulk, 0.0),
            probe: {
                let mut g = StockGen::new(seed, 12, LOG_ROOMS, MALLORY_P, 0).firing_every_txn();
                (0..probe).map(|_| g.next_txn()).collect()
            },
            arg_method: "withdraw",
            arg_threshold: 100,
            probe_secs,
        }
    }

    fn fan(seed: u64, bulk: usize, probe: usize) -> LogSpec {
        LogSpec {
            spec: fanout_spec(FAN_TRIGGERS),
            objects: FAN_OBJECTS,
            bulk: fan_txns(seed, 11, bulk, 1),
            probe: fan_txns(seed, 12, probe, 1 + bulk as u64),
            arg_method: "a",
            arg_threshold: 97,
            probe_secs: None,
        }
    }
}

/// The seeded log a log phase restarts from.
struct SeededLog<'a> {
    dir: PathBuf,
    objs: &'a [u64],
    fields: &'a [String],
    /// Fingerprint of the state that wrote the log.
    f0: u64,
    head: u64,
}

/// Restart a server on the seeded log until it serves, then bring up a
/// fresh replica of it until it has applied the whole log. Both must
/// hold exactly the state that wrote the log. Returns the two times, s.
fn restart_cycle(ctx: &Ctx, rep: &mut Report, lay: &mut Layers, log: &SeededLog) -> R<(f64, f64)> {
    let t0 = Instant::now();
    let mut prim = node::start(Some(&log.dir), LOG_CFG, None)?;
    let t_started = Instant::now();
    let mut pw = node::connect_ready(prim.addr)?;
    let t_ready = Instant::now();
    lay.restart_start_ms.push(secs(t_started - t0) * 1e3);
    lay.restart_ping_ms.push(secs(t_ready - t_started) * 1e3);
    let pst = node::stats(&mut pw)?;
    rep.check(
        node::fingerprint(&prim.server, log.objs, log.fields) == log.f0
            && pst.wal_lsn == Some(log.head),
        || "recovered state differs from the state before the restart".into(),
    );
    lay.recovery_ms.push(pst.recovery_ms as f64);
    lay.segments_replayed = pst.segments_replayed as f64;

    let rdir = ctx.fresh_dir("replica");
    let t1 = Instant::now();
    let mut repl = node::start(Some(&rdir), REPLICA_CFG, Some(prim.addr))?;
    let mut rw = node::connect_ready(repl.addr)?;
    let deadline = t1 + Duration::from_secs(60);
    let mut peak_lag = 0u64;
    loop {
        let s = node::stats(&mut rw)?;
        peak_lag = peak_lag.max(s.replica_lag_lsn.unwrap_or(0));
        if s.last_applied_lsn == Some(log.head) {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!(
                "replica stuck at {:?} of {}",
                s.last_applied_lsn, log.head
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let catchup = secs(t1.elapsed());
    rep.check(
        node::fingerprint(&repl.server, log.objs, log.fields) == log.f0,
        || "replica state differs from the primary's".into(),
    );
    lay.peak_lag_lsn = lay.peak_lag_lsn.max(peak_lag as f64);
    drop(rw);
    repl.shutdown();
    drop(repl);
    let _ = std::fs::remove_dir_all(&rdir);
    drop(pw);
    prim.shutdown();
    Ok((secs(t_ready - t0), catchup))
}

/// What the probe of a log phase measured over its slices.
#[derive(Default)]
struct Probe {
    load: Load,
    /// Per slice, the latency of each firing from its call's send, us.
    firing_lat: Vec<Vec<f64>>,
    firings: usize,
    lines: Vec<Lines>,
}

/// One slice of the probe: seeded transactions closed-loop on `w` until
/// `deadline` or `txns` run dry, with a second, subscribed connection
/// timing every firing from its call's send.
#[allow(clippy::too_many_arguments)]
fn probe_slice(
    ctx: &Ctx,
    rep: &mut Report,
    p: &mut Probe,
    w: &mut Wire,
    addr: std::net::SocketAddr,
    objs: &[u64],
    txns: &mut dyn Iterator<Item = Txn>,
    deadline: Option<Instant>,
    spans: &mut Spans,
    record: bool,
    seed: u64,
) -> R<()> {
    let st_a = node::stats(w)?;
    let sent: SentLog = Mutex::default();
    let done = AtomicBool::new(false);
    let ready = Barrier::new(2);
    let fired = std::sync::atomic::AtomicU64::new(u64::MAX);
    let start = since(ctx);
    let ((out, st_b), sub) = std::thread::scope(|s| {
        let (done, ready, fired) = (&done, &ready, &fired);
        let sub_h = s.spawn(move || {
            subscribe_collect(addr, record, ready, done, || {
                fired.load(Ordering::SeqCst) as usize
            })
        });
        ready.wait();
        let out = closed_loop(
            w,
            objs,
            || txns.next(),
            deadline,
            ctx.origin,
            spans,
            record,
            seed,
            Some(&sent),
        );
        let st = node::stats(w);
        if let Ok(st) = &st {
            fired.store(st.triggers_fired - st_a.triggers_fired, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
        let sub = sub_h
            .join()
            .unwrap_or_else(|_| Err("subscriber panicked".into()));
        ((out, st), sub)
    });
    let end = since(ctx);
    let st_b = st_b?;
    let (firings, slines) = sub?;
    check_stream(rep, &firings, st_b.triggers_fired - st_a.triggers_fired);
    let sent = sent.lock().map_err(|_| "sent-log lock poisoned")?;
    let mut lat = Vec::with_capacity(firings.len());
    for (at, f) in &firings {
        match sent.get(&sent_key(f.object, &f.args)) {
            Some(t) => lat.push(at.saturating_duration_since(*t).as_secs_f64() * 1e6),
            None => rep.check(false, || format!("firing {} matches no call", f.seq)),
        }
    }
    p.firing_lat.push(lat);
    p.firings += firings.len();
    p.load.slice(rep, start, end, vec![out]);
    p.lines.extend(slines);
    Ok(())
}

/// The log phase. Set-up writes the seeded log; then each of `ROUNDS`
/// rounds runs `main` (a slice of the workload's own load), one
/// restart-and-replicate cycle on the seeded log and a slice of the
/// probe; the history queries follow the last round. The probe and the
/// queries run on a server recovered from a copy of the log, so every
/// restart replays the same log.
fn log_phase(
    ctx: &Ctx,
    ls: &LogSpec,
    rep: &mut Report,
    lay: &mut Layers,
    which: Metrics,
    timed_setup: bool,
    main: &mut dyn FnMut(&mut Report, &mut Layers) -> R<()>,
) -> R<()> {
    let fields = fields(&ls.spec);
    // Each set-up writes a directory of its own.
    let setup = || -> R<(Node, (Vec<u64>, PathBuf))> {
        let dir = ctx.fresh_dir("log");
        let node = node::start(Some(&dir), LOG_CFG, None)?;
        let mut w = Wire::connect(node.addr)?;
        let objs = node::populate(&mut w, &ls.spec, ls.objects)?;
        node::bulk_load(&mut w, &ls.bulk, &objs)?;
        Ok((node, (objs, dir)))
    };
    let (mut node, (objs, dir)) = if timed_setup {
        timed_setups(rep, SETUP_REPS, setup)?
    } else {
        rep.facts.insert("log_phase_policy", LOG_CFG.describe());
        setup()?
    };
    if which.txn {
        rep.facts.insert(
            "inputs_digest",
            format!("{:016x}", crate::gen::digest(&ls.bulk)),
        );
    }

    // WAL bytes per committed transaction of the seeded log: exact for
    // a given seed.
    let mut w = Wire::connect(node.addr)?;
    let st = node::stats(&mut w)?;
    let head = st.wal_lsn.ok_or("log-phase server has no WAL")?;
    let bytes_per_txn = node::wal_bytes(&dir)? as f64 / st.txns_committed.max(1) as f64;
    rep.e("log_bytes_per_txn", bytes_per_txn, "B");
    let log = SeededLog {
        f0: node::fingerprint(&node.server, &objs, &fields),
        dir,
        objs: &objs,
        fields: &fields,
        head,
    };
    if ctx.trace {
        lay.log_bytes_per_txn = bytes_per_txn;
        lay.log_stats = Some(st.clone());
    }
    drop(w);
    node.shutdown();
    drop(node);
    if ctx.trace {
        // The traced run times the restart's steps on this log, the one
        // every restart below replays.
        let copy = ctx.fresh_dir("restart-copy");
        node::copy_dir(&log.dir, &copy)?;
        lay.restart_copy = Some(copy);
    }

    // The probe server: the seeded log recovered from a copy.
    let pdir = ctx.fresh_dir("probe");
    node::copy_dir(&log.dir, &pdir)?;
    let mut pnode = node::start(Some(&pdir), LOG_CFG, None)?;
    let mut w = node::connect_ready(pnode.addr)?;
    rep.check(
        node::fingerprint(&pnode.server, &objs, &fields) == log.f0,
        || "probe server recovered a different state".into(),
    );
    let store = pnode.server.hist(0).ok_or("history store missing")?;
    store.sync();
    if ctx.trace {
        // In process, on the recovered seeded log alone, before the
        // probe adds a run-length-dependent tail.
        layers::hist_inprocess(
            &store,
            ctx.seed,
            st.events_posted,
            ls.arg_method,
            ls.arg_threshold,
            lay,
        )?;
    }
    // The queries stop at the seeded log's last seq, so they are checked
    // against a scan of the seeded log alone.
    let scan = if which.query {
        Some(Scan::take(&store, st.events_posted)?)
    } else {
        None
    };

    let record = ctx.trace && which.txn;
    if record {
        w.record();
    }
    let mut spans = Spans::new(ctx.origin, record);
    let mut probe = Probe::default();
    let mut txns = ls.probe.iter().cloned();
    let per_round = ls.probe.len().div_ceil(ROUNDS);
    let (mut rec, mut catch) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        main(rep, lay)?;
        let (r, c) = restart_cycle(ctx, rep, lay, &log)?;
        rec.push(r);
        catch.push(c);
        let deadline = ls
            .probe_secs
            .map(|s| Instant::now() + Duration::from_secs_f64(s / ROUNDS as f64));
        let mut slice = txns.by_ref().take(per_round);
        probe_slice(
            ctx,
            rep,
            &mut probe,
            &mut w,
            pnode.addr,
            &objs,
            &mut slice,
            deadline,
            &mut spans,
            record,
            ctx.seed + round as u64,
        )?;
    }
    rep.e("recovery_s", pct(&rec, ACROSS), "s");
    rep.e("catchup_s", pct(&catch, ACROSS), "s");
    if which.txn {
        probe.load.report(rep, lay);
        rep.spans(spans);
        if ctx.trace {
            lay.ping_rtt_us = layers::ping_rtt(&mut w)?;
        }
    }
    if which.firing {
        rep.e("firing_p50_us", rounds_p50(&probe.firing_lat), "us");
        tail(rep, "tail.firing_p90_us", &probe.firing_lat.concat());
    }
    if record {
        for l in w.lines.take().into_iter().chain(probe.lines) {
            lay.lines.absorb(l);
        }
    }
    drop(store);
    drop(w);
    pnode.shutdown();
    drop(pnode);

    // The history queries run back to back on the probe server once more
    // restarted, over the seeded log as recovered. Each is checked
    // exactly against a naive filter of a full in-process scan.
    if let Some(scan) = &scan {
        let mut qnode = node::start(Some(&pdir), LOG_CFG, None)?;
        let mut w = node::connect_ready(qnode.addr)?;
        if ctx.trace {
            w.record();
        }
        let mut g = QueryGen::new(ctx.seed, st.events_posted, ls.arg_method, ls.arg_threshold);
        let mut ql = Vec::with_capacity(LOG_QUERIES);
        for _ in 0..LOG_QUERIES {
            let q = g.next_query();
            let (rows, d, _, _) = run_query(&mut w, &q)?;
            ql.push(d.as_secs_f64() * 1e6);
            let r = check_rows(&rows, &naive_filter(scan, &q), true);
            rep.check(r.is_ok(), || {
                format!("{:?} query: {}", q.kind, r.unwrap_err())
            });
        }
        query_metrics(rep, &ql);
        if let Some(l) = w.lines.take() {
            lay.lines.absorb(l);
        }
        drop(w);
        qnode.shutdown();
    }
    drop(scan);
    let _ = std::fs::remove_dir_all(&pdir);
    if ctx.trace {
        lay.records = head;
        lay.catchup_s = pct(&catch, ACROSS);
        lay.log_spec = Some((ls.spec.clone(), ls.objects));
        lay.log_dir = Some(log.dir.clone());
        lay.restart_total_ms = pct(&rec, ACROSS) * 1e3;
        if which.txn {
            let refs = probe.load.refs();
            let committed: u64 = refs.iter().map(|s| s.committed).sum();
            let requests: u64 = refs.iter().map(|s| s.requests).sum();
            lay.round_trips_per_txn = requests as f64 / committed.max(1) as f64;
            lay.firings_per_txn = probe.firings as f64 / committed.max(1) as f64;
            lay.main_wal = true;
            lay.main_spec = Some(ls.spec.clone());
            lay.main_txns = ls.probe.iter().take(400).cloned().collect();
            lay.main_objects = ls.objects;
        }
    } else {
        let _ = std::fs::remove_dir_all(&log.dir);
    }
    Ok(())
}
