//! `ode-perfbench`: the repository benchmark. One process hosts an
//! `ode-server` per workload and drives it over loopback TCP, checks
//! every result against an oracle, and prints one JSON result line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload oltp_durable --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the per-layer ones. See `perfbench/README.md`.

mod gen;
mod layers;
mod node;
mod run;
mod session;
mod stats;
mod trace;
mod wire;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use run::{Ctx, Report, Workload};

/// The end-to-end metrics `BENCHMARK.json` bounds: the ones that held
/// steady from run to run on a shared 2-CPU host whose CPU speed swings
/// by a third for minutes at a time. Every other end-to-end number is
/// CPU-bound and is printed with the per-layer metrics of a traced run.
const BOUNDED: [&str; 4] = [
    "log_bytes_per_txn",
    "peak_heap_mb",
    "setup_s",
    "wire_bytes_per_txn",
];

/// The system allocator, counting the bytes live on the heap and their
/// peak: the bench process hosts every server, so the peak is the most
/// memory a workload held, without the allocator's own slack.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let now = LIVE.fetch_add(by, Relaxed) + by;
    if now > PEAK.load(Relaxed) {
        PEAK.fetch_max(now, Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        let p = System.alloc(l);
        if !p.is_null() {
            grew(l.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(l);
        if !p.is_null() {
            grew(l.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l);
        LIVE.fetch_sub(l.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        let q = System.realloc(p, l, new);
        if !q.is_null() {
            if new > l.size() {
                grew(new - l.size());
            } else {
                LIVE.fetch_sub(l.size() - new, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// The most heap bytes live at once so far.
pub fn peak_heap_bytes() -> usize {
    PEAK.load(Relaxed)
}

struct Args {
    name: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = Workload::parse(&val).ok_or(format!("unknown workload {val:?}"))?;
                workload = Some((val, w));
            }
            "--seed" => seed = Some(val.parse().map_err(|_| format!("bad seed {val:?}"))?),
            "--seconds" => seconds = Some(val.parse().map_err(|_| format!("bad seconds {val:?}"))?),
            "--trace" => trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (name, workload) = workload.ok_or("--workload is required")?;
    Ok(Args {
        name,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The filesystem type of the mount holding `p`.
fn fs_type(p: &Path) -> String {
    let Ok(p) = p.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.len() > 2 && p.starts_with(f[1])).then(|| (f[1].len(), f[2].to_string()))
        })
        .max()
        .map_or("unknown".into(), |m| m.1)
}

/// The checked-out commit, read from `.git` when there is one.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".into(),
    }
}

/// Seconds of CPU time the hypervisor has stolen from this machine
/// (`steal` in `/proc/stat`, at the usual 100 ticks per second).
fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |t| t / 100.0)
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).unwrap_or_else(|_| "\"\"".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx::new(args.seed, args.seconds, args.trace, work.clone());
    let mut rep = Report::default();
    let steal0 = steal_s();
    let outcome = run::run(&ctx, args.workload, &mut rep);
    let stolen = steal_s() - steal0;
    if let Err(e) = &outcome {
        rep.attempted += 1;
        rep.failed += 1;
        rep.errors.push(e.clone());
    }
    for e in &rep.errors {
        eprintln!("perfbench: FAILED: {e}");
    }

    let workload = &args.name;
    if let Some(spans) = rep.spans.as_ref().filter(|_| args.trace) {
        let path = Path::new(".bench_work").join(format!("spans-{workload}-{}.ndjson", args.seed));
        if let Err(e) = spans.write(&path) {
            eprintln!("perfbench: writing spans: {e}");
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut host = vec![
        ("nproc".to_string(), nproc.to_string()),
        ("cpu_steal_s".into(), format!("{stolen:.2}")),
        ("wal_fs".into(), json_str(&fs_type(&work))),
        ("run_seconds".into(), args.seconds.to_string()),
        ("seed".into(), args.seed.to_string()),
        ("workload".into(), json_str(workload)),
        ("git_commit".into(), json_str(&git_commit())),
        (
            "latency_note".into(),
            json_str(
                "latencies are the host's loopback and page-cache figures, not a storage device's",
            ),
        ),
    ];
    for (k, v) in &rep.facts {
        host.push((k.to_string(), json_str(v)));
    }
    let host: Vec<String> = host.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    println!("{{\"host\":{{{}}}}}", host.join(","));
    let _ = std::fs::remove_dir_all(&work);
    // Succeeds only when nothing else (span logs, other runs) is left.
    let _ = std::fs::remove_dir(".bench_work");

    let bounded = |k: &str| BOUNDED.contains(&k);
    let chosen: Vec<(String, (f64, &str))> = if args.trace {
        let unbounded = rep.e2e.iter().filter(|(k, _)| !bounded(k));
        rep.layer
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .chain(unbounded.map(|(k, v)| (k.to_string(), *v)))
            .collect()
    } else {
        let e2e = rep.e2e.iter().filter(|(k, _)| bounded(k));
        e2e.map(|(k, v)| (k.to_string(), *v)).collect()
    };
    let metrics: Vec<String> = chosen
        .iter()
        .map(|(k, (v, u))| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
        })
        .collect();
    let correct = outcome.is_ok() && rep.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
