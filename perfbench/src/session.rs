//! Client sessions: the closed transaction loop shared by the
//! stockroom workloads, the firing subscriber, and the history querier.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ode_core::Value;
use ode_server::{Command, Firing, Reply, ReplyResult, WireRow};

use crate::gen::{Query, Rng, Txn, ITEMS};
use crate::trace::Spans;
use crate::wire::{Lines, Wire, R};

/// Retries of one transaction before it counts as failed.
const MAX_RETRIES: u32 = 200;

/// Send times of calls, keyed by `(object, args)`, so firings read on
/// another connection can be timed from the call that caused them.
pub type SentLog = Mutex<HashMap<(u64, String), Instant>>;

pub fn sent_key(object: u64, args: &[Value]) -> (u64, String) {
    (object, format!("{args:?}"))
}

/// What one closed-loop session measured and checked.
#[derive(Default)]
pub struct SessionOut {
    /// `(completion time s, latency us, traced)` per committed txn.
    pub txn_lat: Vec<(f64, f64, bool)>,
    pub committed: u64,
    pub t1_aborts: u64,
    pub retries: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per object index: net `[bolt, gear]` change of committed txns.
    pub deltas: HashMap<usize, [i64; 2]>,
    /// Oracle violations and failures, as text.
    pub errors: Vec<String>,
    /// Client requests sent (all are sent one at a time).
    pub requests: u64,
    /// NDJSON bytes the session's transactions wrote and read.
    pub wire_bytes: u64,
}

enum Outcome {
    Committed { begin: Instant, end: Instant },
    T1Aborted,
}

/// One request, awaited; counts it.
fn req(w: &mut Wire, out: &mut SessionOut, cmd: Command) -> R<ReplyResult> {
    out.requests += 1;
    w.call(cmd)
}

/// Run one generated transaction request by request, retrying lock
/// conflicts with capped jittered backoff. Checks the T1 contract: a
/// `mallory` transaction is aborted at its first withdraw and no other
/// transaction is aborted by a trigger.
#[allow(clippy::too_many_arguments)]
fn run_txn(
    w: &mut Wire,
    t: &Txn,
    objs: &[u64],
    spans: &mut Spans,
    tag: u64,
    rng: &mut Rng,
    sent: Option<&SentLog>,
    out: &mut SessionOut,
) -> R<Outcome> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let mut kids: Vec<(&'static str, Instant, Instant)> = Vec::new();
        let begin = Instant::now();
        let user = Value::from(t.user);
        match req(w, out, Command::Begin { user })? {
            ReplyResult::Ok(Reply::Begun { .. }) => {}
            other => return Err(format!("begin failed: {other:?}")),
        }
        kids.push(("req.begin", begin, Instant::now()));
        let mut conflict = None;
        for c in &t.calls {
            let at = Instant::now();
            if let Some(log) = sent {
                log.lock()
                    .expect("sent-log lock")
                    .insert(sent_key(objs[c.obj], &c.args), at);
            }
            let call = Command::Call {
                object: objs[c.obj],
                method: c.method.into(),
                args: c.args.clone(),
            };
            let r = req(w, out, call)?;
            kids.push(("req.call", at, Instant::now()));
            match r {
                ReplyResult::Ok(_) => {}
                ReplyResult::Err(e) if e.code == "aborted" => {
                    req(w, out, Command::Abort)?;
                    if !t.is_mallory() || !e.message.contains("T1") {
                        return Err(format!("unexpected trigger abort: {}", e.message));
                    }
                    return Ok(Outcome::T1Aborted);
                }
                ReplyResult::Err(e) if e.retryable => {
                    conflict = Some(e.message);
                    break;
                }
                ReplyResult::Err(e) => {
                    return Err(format!("call failed [{}]: {}", e.code, e.message))
                }
            }
        }
        if conflict.is_none() {
            if t.is_mallory() {
                return Err("T1 did not abort a mallory transaction".into());
            }
            let at = Instant::now();
            match req(w, out, Command::Commit)? {
                ReplyResult::Ok(_) => {
                    let end = Instant::now();
                    kids.push(("req.commit", at, end));
                    let root = spans.record("txn", begin, end, None, tag);
                    for (name, s, e) in kids {
                        spans.record(name, s, e, root, tag);
                    }
                    return Ok(Outcome::Committed { begin, end });
                }
                ReplyResult::Err(e) if e.retryable => conflict = Some(e.message),
                ReplyResult::Err(e) => {
                    return Err(format!("commit failed [{}]: {}", e.code, e.message))
                }
            }
        }
        req(w, out, Command::Abort)?;
        if attempt > MAX_RETRIES {
            return Err(format!(
                "retries exhausted: {}",
                conflict.unwrap_or_default()
            ));
        }
        out.retries += 1;
        let cap = 50u64 << attempt.min(6);
        std::thread::sleep(Duration::from_micros(cap / 2 + rng.below(cap / 2 + 1)));
    }
}

/// A closed loop over `next`: one transaction at a time until
/// `deadline` (or until `next` runs dry). When `traced` is set, spans
/// are recorded on alternate half-second windows so one run yields both
/// traced and untraced latencies.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    w: &mut Wire,
    objs: &[u64],
    mut next: impl FnMut() -> Option<Txn>,
    deadline: Option<Instant>,
    origin: Instant,
    spans: &mut Spans,
    traced: bool,
    seed: u64,
    sent: Option<&SentLog>,
) -> SessionOut {
    let mut out = SessionOut::default();
    let bytes0 = w.bytes;
    let mut rng = Rng::new(seed, 0xbac0);
    let mut tag = 0u64;
    while deadline.is_none_or(|d| Instant::now() < d) {
        let Some(t) = next() else { break };
        tag += 1;
        let on = traced && (origin.elapsed().as_millis() / 500) % 2 == 1;
        spans.set_on(on);
        out.attempted += 1;
        match run_txn(w, &t, objs, spans, tag, &mut rng, sent, &mut out) {
            Ok(Outcome::Committed { begin, end }) => {
                out.committed += 1;
                out.txn_lat.push((
                    end.duration_since(origin).as_secs_f64(),
                    end.duration_since(begin).as_secs_f64() * 1e6,
                    on,
                ));
                for c in &t.calls {
                    let (Some(Value::Str(item)), Some(Value::Int(q))) =
                        (c.args.first(), c.args.get(1))
                    else {
                        continue;
                    };
                    let Some(i) = ITEMS.iter().position(|x| x == item) else {
                        continue;
                    };
                    let sign = if c.method == "withdraw" { -1 } else { 1 };
                    out.deltas.entry(c.obj).or_insert([0, 0])[i] += sign * q;
                }
            }
            Ok(Outcome::T1Aborted) => out.t1_aborts += 1,
            Err(e) => {
                out.failed += 1;
                out.errors.push(e);
                break;
            }
        }
    }
    spans.set_on(traced);
    out.wire_bytes = w.bytes - bytes0;
    out
}

/// Firings with their receipt times, and the raw lines when recording.
pub type Collected = (Vec<(Instant, Firing)>, Option<Lines>);

/// A subscribed connection collecting every firing with its receipt
/// time. It subscribes before `ready` is released, and once `done` is
/// set it stops when `expected()` firings have arrived (or after 5 s
/// with nothing new).
pub fn subscribe_collect(
    addr: std::net::SocketAddr,
    record: bool,
    ready: &std::sync::Barrier,
    done: &AtomicBool,
    expected: impl Fn() -> usize,
) -> R<Collected> {
    let mut sub = Wire::connect(addr);
    if let Ok(s) = sub.as_mut() {
        if record {
            s.record();
        }
    }
    let subscribed = sub
        .as_mut()
        .map_err(|e| e.clone())
        .and_then(|s| s.ok(Command::Subscribe));
    ready.wait();
    let mut sub = sub?;
    subscribed?;
    let mut got = Vec::new();
    let mut idle_since: Option<Instant> = None;
    loop {
        match sub.wait_firing(Duration::from_millis(20))? {
            Some(f) => {
                got.push(f);
                idle_since = None;
            }
            None => {
                if done.load(Ordering::SeqCst) {
                    let t = *idle_since.get_or_insert_with(Instant::now);
                    if got.len() >= expected() || t.elapsed() > Duration::from_secs(5) {
                        break;
                    }
                }
            }
        }
    }
    Ok((got, sub.lines.take()))
}

/// One history query over the wire: its rows and its latency.
pub fn run_query(w: &mut Wire, q: &Query) -> R<(Vec<WireRow>, Duration, u64, u64)> {
    let t = Instant::now();
    let id = w.send(vec![query_cmd(q)])?[0];
    let mut rows = Vec::new();
    let (at, result) = w.reply(id, &mut rows)?;
    match result {
        ReplyResult::Ok(Reply::QueryDone {
            truncated: false,
            segments_scanned,
            segments_skipped,
            ..
        }) => Ok((
            rows,
            at.duration_since(t),
            segments_scanned,
            segments_skipped,
        )),
        other => Err(format!("query {q:?} failed: {other:?}")),
    }
}

pub fn query_cmd(q: &Query) -> Command {
    Command::Query {
        class: None,
        object: None,
        kind: q.event_kind.clone(),
        qualifier: q.after.then(|| "after".to_string()),
        args: q.args.clone(),
        min_seq: q.min_seq,
        max_seq: q.max_seq,
        min_time: None,
        max_time: None,
        limit: None,
    }
}

/// A full in-process scan of a history store, with each row's kind
/// label and rendered event resolved once.
pub struct Scan {
    rows: Vec<ode_db::EventRow>,
    labels: Vec<String>,
    events: Vec<String>,
}

impl Scan {
    /// Every row up to seq `max_seq` (the generated queries never look
    /// past it, and the rest only costs memory).
    pub fn take(store: &ode_db::HistStore, max_seq: u64) -> R<Scan> {
        store.sync();
        let q = ode_db::HistQuery {
            max_seq: Some(max_seq),
            ..ode_db::HistQuery::default()
        };
        let rows = store.query(&q).map_err(|e| e.to_string())?.rows;
        let labels = rows.iter().map(|r| store.kind_label(r.kind)).collect();
        let events = rows.iter().map(|r| store.render_event(r)).collect();
        Ok(Scan {
            rows,
            labels,
            events,
        })
    }
}

/// The rows a naive filter of a full scan returns for `q`, keyed by
/// seq, with the rendered event and arguments.
pub fn naive_filter<'a>(scan: &'a Scan, q: &Query) -> BTreeMap<u64, (&'a str, &'a [Value])> {
    let mut out = BTreeMap::new();
    for (i, row) in scan.rows.iter().enumerate() {
        if q.event_kind.as_ref().is_some_and(|k| scan.labels[i] != *k) {
            continue;
        }
        if q.after && row.qual != ode_db::histstore::row::QUAL_AFTER {
            continue;
        }
        if q.min_seq.is_some_and(|lo| row.seq < lo) || q.max_seq.is_some_and(|hi| row.seq > hi) {
            continue;
        }
        let args_ok =
            q.args.iter().all(
                |(i, op, v)| match (row.args.get(*i as usize), v, op.as_str()) {
                    (Some(Value::Int(a)), Value::Int(b), "gt") => a > b,
                    _ => false,
                },
            );
        if args_ok {
            out.insert(row.seq, (scan.events[i].as_str(), row.args.as_slice()));
        }
    }
    out
}

/// An order-independent digest of query rows: `(seq, event, args)`
/// hashed in seq order.
pub fn rows_digest<'a>(rows: impl Iterator<Item = (u64, &'a str, &'a [Value])>) -> u64 {
    let mut v: Vec<(u64, String)> = rows.map(|(s, e, a)| (s, format!("{e}|{a:?}"))).collect();
    v.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (s, text) in &v {
        for b in s.to_le_bytes().iter().chain(text.as_bytes()) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Check wire rows against the naive filter: `exact` demands the same
/// set; otherwise every wire row must be in the filter's result (a
/// query that ran while the writer was still adding rows).
pub fn check_rows(
    rows: &[WireRow],
    naive: &BTreeMap<u64, (&str, &[Value])>,
    exact: bool,
) -> Result<(), String> {
    for r in rows {
        match naive.get(&r.seq) {
            Some((ev, args)) if *ev == r.event && *args == r.args.as_slice() => {}
            Some(other) => {
                return Err(format!(
                    "row seq {} differs: wire {} {:?}, scan {:?}",
                    r.seq, r.event, r.args, other
                ))
            }
            None => return Err(format!("row seq {} is not in the full-scan filter", r.seq)),
        }
    }
    if exact && rows.len() != naive.len() {
        return Err(format!(
            "query returned {} rows, full-scan filter {}",
            rows.len(),
            naive.len()
        ));
    }
    Ok(())
}
