//! E16 — the event-history store: columnar query latency vs a naive
//! full scan, and retroactive activation throughput.
//!
//! The store keeps committed events in typed column segments with
//! per-segment zone metadata (seq/time ranges, class/kind bitmaps,
//! object range), so a selective query can prune whole segments
//! without decoding them. This experiment feeds a synthetic committed
//! stream of N events (N = 10k / 100k / 1M) into a store and measures
//! three query shapes against a naive baseline that materializes every
//! row and filters in memory — the cost a scan of the full history
//! would pay without zone metadata:
//!
//! * `rare-kind` — a kind that occurs only in a 0.5% window of the
//!   history; the kind bitmap prunes every segment outside it.
//! * `seq-band`  — a 1% posting-seq band; the seq range prunes.
//! * `arg-pred`  — class + kind + argument predicate (~1% selective);
//!   kind bitmaps prune nothing here (the kind is everywhere), so this
//!   is the honest decode-almost-everything case.
//!
//! A second section measures the retroactive-activation path end to
//! end on a live engine: K objects accumulate committed method calls
//! through the tap, then `activate_trigger_retro` fetches each
//! object's sub-history from the store and replays it through the
//! trigger's automaton. Reported as activations/sec and replayed
//! events/sec.
//!
//! Results are printed as a table and written to
//! `BENCH_e16_history.json` at the repository root.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ode_bench::tmp_dir;
use ode_core::{BasicEvent, Value};
use ode_db::{
    Action, ArgPred, Batch, ClassDef, ClassId, CmpOp, Database, EventRow, EventTap, HistConfig,
    HistQuery, HistStore, MethodKind, ObjectId, TapEvent, TxnId,
};

const TIERS: [u64; 3] = [10_000, 100_000, 1_000_000];
const EVENTS_PER_TXN: u64 = 8;
const OBJECTS: u64 = 64;
const SEGMENT_ROWS: usize = 4096;

/// Retro section: K objects x M bump transactions each.
const RETRO_OBJECTS: usize = 128;
const RETRO_BUMPS: usize = 64;

/// Deterministic xorshift — the bench must not depend on wall-clock
/// entropy.
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Feed `n` synthetic committed events into a fresh store: two classes
/// (`sensor`/`audit`), `after reading(v, tag)` for the mass of the
/// stream, and a rare `after alarm(v)` kind confined to a 0.5% window
/// in the middle.
fn feed(store: &HistStore, n: u64) {
    store.observe_class(0, "sensor");
    store.observe_class(1, "audit");
    let alarm_lo = n / 2;
    let alarm_hi = alarm_lo + (n / 200).max(1);
    let mut rng = 0x2545F4914F6CDD1Du64;
    let mut seq = 0u64;
    let batches = n.div_ceil(EVENTS_PER_TXN);
    for b in 0..batches {
        let mut events = Vec::with_capacity(EVENTS_PER_TXN as usize);
        while events.len() < EVENTS_PER_TXN as usize && seq < n {
            seq += 1;
            let r = xorshift(&mut rng);
            let obj = r % OBJECTS + 1;
            let v = (r >> 8) % 1000;
            let in_alarm_window = seq > alarm_lo && seq <= alarm_hi && seq.is_multiple_of(4);
            let (basic, args) = if in_alarm_window {
                (
                    BasicEvent::after_method("alarm"),
                    vec![Value::Int(v as i64)],
                )
            } else {
                (
                    BasicEvent::after_method("reading"),
                    vec![
                        Value::Int(v as i64),
                        Value::Str(["a", "b", "c"][(r >> 20) as usize % 3].into()),
                    ],
                )
            };
            events.push(TapEvent {
                seq,
                object: ObjectId(obj),
                class: ClassId((obj % 2) as u32),
                basic,
                args,
            });
        }
        store.submit(Batch {
            lsn: b,
            txn: b + 1,
            time: b,
            events,
        });
    }
    store.advance_durable_through(batches.saturating_sub(1));
    store.sync();
    assert!(!store.failed(), "indexer healthy");
}

/// Mean latency in microseconds of `f` over `iters` runs (after one
/// warmup), plus the row count `f` reported on the last run.
fn time_us(iters: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut rows = f();
    let t0 = Instant::now();
    for _ in 0..iters {
        rows = f();
    }
    (t0.elapsed().as_secs_f64() * 1e6 / iters as f64, rows)
}

struct QueryRun {
    name: &'static str,
    rows: usize,
    columnar_us: f64,
    naive_us: f64,
    scanned: usize,
    skipped: usize,
}

/// One tier: build the store, run the three query shapes columnar and
/// naive, assert both agree row for row.
fn run_tier(n: u64, iters: usize) -> Vec<QueryRun> {
    let dir = tmp_dir("e16-hist", &format!("q{n}"));
    let store = HistStore::open(
        &dir,
        HistConfig {
            segment_rows: SEGMENT_ROWS,
        },
        0,
    )
    .expect("store opens");
    feed(&store, n);

    let queries: Vec<(&'static str, HistQuery)> = vec![
        (
            "rare-kind",
            HistQuery {
                kind: Some("alarm".into()),
                ..HistQuery::default()
            },
        ),
        (
            "seq-band",
            HistQuery {
                min_seq: Some(n * 45 / 100),
                max_seq: Some(n * 46 / 100),
                ..HistQuery::default()
            },
        ),
        (
            "arg-pred",
            HistQuery {
                class: Some("sensor".into()),
                kind: Some("reading".into()),
                args: vec![ArgPred {
                    index: 0,
                    op: CmpOp::Gt,
                    value: Value::Int(989),
                }],
                ..HistQuery::default()
            },
        ),
    ];

    let mut out = Vec::new();
    for (name, q) in &queries {
        let reference = store.query(q).expect("query runs");
        assert!(!reference.truncated);
        // Resolve the query's codes once from a reference row so the
        // naive filter is pure comparisons — its measured cost is the
        // full materialization, not string decoding.
        let naive_filter: Box<dyn Fn(&EventRow) -> bool> = match *name {
            "rare-kind" | "arg-pred" => {
                let kind = reference.rows.first().map(|r| r.kind);
                let class = reference.rows.first().map(|r| r.class);
                let want_class = q.class.is_some();
                let preds = q.args.clone();
                Box::new(move |r: &EventRow| {
                    Some(r.kind) == kind
                        && (!want_class || Some(r.class) == class)
                        && preds
                            .iter()
                            .all(|p| match (&r.args.get(p.index), &p.value) {
                                (Some(Value::Int(a)), Value::Int(b)) => match p.op {
                                    CmpOp::Gt => a > b,
                                    _ => unreachable!("bench uses Gt only"),
                                },
                                _ => false,
                            })
                })
            }
            _ => {
                let (lo, hi) = (q.min_seq.unwrap(), q.max_seq.unwrap());
                Box::new(move |r: &EventRow| r.seq >= lo && r.seq <= hi)
            }
        };

        let (columnar_us, rows) = time_us(iters, || store.query(q).expect("query runs").rows.len());
        let (naive_us, naive_rows) = time_us(iters, || {
            let all = store.query(&HistQuery::default()).expect("full scan");
            all.rows.iter().filter(|r| naive_filter(r)).count()
        });
        assert_eq!(rows, naive_rows, "columnar and naive agree ({name})");
        assert_eq!(rows, reference.rows.len());
        out.push(QueryRun {
            name,
            rows,
            columnar_us,
            naive_us,
            scanned: reference.segments_scanned,
            skipped: reference.segments_skipped,
        });
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// A meter class with a parameterized-event trigger that is *not*
/// activated at create time — the retroactive-activation target.
fn meter_class() -> ClassDef {
    ClassDef::builder("meter")
        .field("n", 0i64)
        .method("bump", MethodKind::Update, &["amt"], |ctx| {
            let amt = ctx.arg(0)?.as_int().unwrap_or(0);
            let n = ctx.get_required("n")?.as_int().unwrap_or(0);
            ctx.set("n", n + amt);
            Ok(Value::Null)
        })
        .method("note", MethodKind::Read, &[], |ctx| {
            ctx.emit("note()".to_string());
            Ok(Value::Null)
        })
        .trigger(
            "big",
            true,
            "after bump(amt) && amt > 10",
            Action::Call("note".into()),
        )
        .build()
        .expect("meter class builds")
}

struct RetroRun {
    activations: usize,
    events_replayed: u64,
    firings: u64,
    secs: f64,
}

/// Live engine + tap + store: K objects accumulate committed bumps,
/// then every object gets a retroactive `big` activation — sub-history
/// fetch, automaton replay, instance install, firing report.
fn run_retro() -> RetroRun {
    let dir = tmp_dir("e16-hist", "retro");
    let store = Arc::new(
        HistStore::open(
            &dir,
            HistConfig {
                segment_rows: SEGMENT_ROWS,
            },
            0,
        )
        .expect("store opens"),
    );
    let mut db = Database::new();
    db.define_class(meter_class()).expect("class defines");
    for (i, name) in db.class_names().iter().enumerate() {
        store.observe_class(i as u32, name);
    }
    let batches = Arc::new(AtomicU64::new(0));
    let tap: EventTap = {
        let store = Arc::clone(&store);
        let batches = Arc::clone(&batches);
        Arc::new(move |txn: TxnId, now: u64, events: &[TapEvent]| {
            store.submit(Batch {
                lsn: batches.fetch_add(1, Ordering::SeqCst),
                txn: txn.0,
                time: now,
                events: events.to_vec(),
            });
        })
    };
    db.set_event_tap(Some(tap));

    let objects: Vec<ObjectId> = (0..RETRO_OBJECTS)
        .map(|_| {
            let t = db.begin_as(Value::Str("admin".into()));
            let o = db.create_object(t, "meter", &[]).expect("creates");
            db.commit(t).expect("commits");
            o
        })
        .collect();
    for (i, &o) in objects.iter().enumerate() {
        for j in 0..RETRO_BUMPS {
            let t = db.begin_as(Value::Str("alice".into()));
            let amt = ((i * RETRO_BUMPS + j) % 100) as i64;
            db.call(t, o, "bump", &[Value::Int(amt)]).expect("bumps");
            db.commit(t).expect("commits");
        }
    }
    db.take_output();
    let head = batches.load(Ordering::SeqCst);
    store.advance_durable_through(head - 1);
    store.sync();

    let t0 = Instant::now();
    let mut events_replayed = 0u64;
    let mut firings = 0u64;
    let t = db.begin_as(Value::Str("admin".into()));
    for &o in &objects {
        let events = store.object_events(o.0).expect("sub-history");
        events_replayed += events.len() as u64;
        let replay = db
            .activate_trigger_retro(t, o, "big", &[], &events)
            .expect("retro activates");
        firings += replay.firings.len() as u64;
    }
    db.commit(t).expect("commits");
    let secs = t0.elapsed().as_secs_f64();

    db.set_event_tap(None);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    RetroRun {
        activations: RETRO_OBJECTS,
        events_replayed,
        firings,
        secs,
    }
}

fn main() {
    eprintln!(
        "\n== E16: event-history store — columnar query vs naive scan, retro activation ==\n"
    );

    let mut json = String::from("{\n  \"experiment\": \"e16_history\",\n  \"runs\": [\n");
    let mut rows = Vec::new();
    let mut headline_rare_1m = 0.0;
    for &n in &TIERS {
        let iters = match n {
            10_000 => 30,
            100_000 => 10,
            _ => 3,
        };
        for r in run_tier(n, iters) {
            let speedup = r.naive_us / r.columnar_us;
            if n == 1_000_000 && r.name == "rare-kind" {
                headline_rare_1m = speedup;
            }
            eprintln!(
                "{n:>9} events {:>9}: {:>10.1} us columnar vs {:>11.1} us naive \
                 ({speedup:>6.1}x, {} rows, {} segments scanned / {} skipped)",
                r.name, r.columnar_us, r.naive_us, r.rows, r.scanned, r.skipped
            );
            rows.push(format!(
                "    {{\"events\": {n}, \"query\": \"{}\", \"rows\": {}, \
                 \"columnar_us\": {:.1}, \"naive_us\": {:.1}, \"speedup\": {speedup:.1}, \
                 \"segments_scanned\": {}, \"segments_skipped\": {}}}",
                r.name, r.rows, r.columnar_us, r.naive_us, r.scanned, r.skipped
            ));
        }
        eprintln!();
    }
    json.push_str(&rows.join(",\n"));

    let retro = run_retro();
    let act_per_sec = retro.activations as f64 / retro.secs;
    let ev_per_sec = retro.events_replayed as f64 / retro.secs;
    eprintln!(
        "retro: {} activations, {} events replayed, {} firings in {:.3}s \
         ({act_per_sec:.0} activations/sec, {ev_per_sec:.0} events/sec)",
        retro.activations, retro.events_replayed, retro.firings, retro.secs
    );

    json.push_str(&format!(
        "\n  ],\n  \"retro_activations\": {},\n  \"retro_events_replayed\": {},\n  \
         \"retro_firings\": {},\n  \"retro_activations_per_sec\": {act_per_sec:.0},\n  \
         \"retro_events_replayed_per_sec\": {ev_per_sec:.0},\n  \
         \"headline_rare_kind_1m_speedup\": {headline_rare_1m:.1},\n  \
         \"note\": \"naive = materialize every row and filter in memory (the cost without \
         zone metadata). rare-kind and seq-band prune segments via kind bitmaps / seq \
         ranges; arg-pred decodes almost everything and measures the columnar scan \
         itself. retro = object_events fetch + automaton replay + install, per object.\"\n}}\n",
        retro.activations, retro.events_replayed, retro.firings
    ));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e16_history.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("headline: rare-kind at 1M events = {headline_rare_1m:.1}x a naive full scan");
    eprintln!("wrote {path}");
}
