//! Starting in-process servers and driving their set-up over the wire.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use ode_core::Value;
use ode_db::{Database, FsyncPolicy, SharedDatabase, WalConfig};
use ode_server::{ClassSpec, Command, ReplSource, Reply, ReplyResult, Server, WireStats};

use crate::gen::Txn;
use crate::wire::{Wire, R};

/// How a server is configured.
#[derive(Clone, Copy, Debug)]
pub struct NodeCfg {
    /// WAL fsync policy; `None` runs in memory with no WAL.
    pub fsync: Option<FsyncPolicy>,
    /// Event-history store on.
    pub history: bool,
}

impl NodeCfg {
    pub fn describe(&self) -> String {
        match self.fsync {
            None => "in-memory (no WAL)".into(),
            Some(p) => format!(
                "WAL fsync {}, 1 shard, history {}",
                match p {
                    FsyncPolicy::Group {
                        max_batch,
                        max_delay,
                    } => format!("group:{max_batch}:{}ms", max_delay.as_millis()),
                    FsyncPolicy::Never => "never".into(),
                    other => format!("{other:?}"),
                },
                if self.history { "on" } else { "off" }
            ),
        }
    }
}

pub struct Node {
    pub server: Server,
    pub addr: SocketAddr,
}

/// Start a one-shard server on an ephemeral loopback port. With a WAL
/// directory the server first recovers whatever the directory holds.
pub fn start(dir: Option<&Path>, cfg: NodeCfg, upstream: Option<SocketAddr>) -> R<Node> {
    let mut b = Server::builder(SharedDatabase::new(Database::new())).tcp("127.0.0.1:0");
    if let (Some(d), Some(fsync)) = (dir, cfg.fsync) {
        b = b
            .wal_dir(d)
            .wal_config(WalConfig {
                fsync,
                ..WalConfig::default()
            })
            .history(cfg.history);
    }
    if let Some(up) = upstream {
        b = b.replicate_from(ReplSource::Tcp(up.to_string()));
    }
    let server = b.start().map_err(|e| format!("server start: {e}"))?;
    let addr = server.tcp_addr().ok_or("server has no tcp address")?;
    Ok(Node { server, addr })
}

pub fn stats(w: &mut Wire) -> R<WireStats> {
    match w.ok(Command::Stats)? {
        Reply::Stats(s) => Ok(*s),
        other => Err(format!("expected Stats, got {other:?}")),
    }
}

/// Send `cmds` pipelined and require every reply to be a success.
pub fn pipeline_ok(w: &mut Wire, cmds: Vec<Command>) -> R<Vec<Reply>> {
    let ids = w.send(cmds)?;
    let mut out = Vec::with_capacity(ids.len());
    for id in ids {
        match w.reply(id, &mut Vec::new())?.1 {
            ReplyResult::Ok(r) => out.push(r),
            ReplyResult::Err(e) => {
                return Err(format!(
                    "pipelined request failed [{}]: {}",
                    e.code, e.message
                ))
            }
        }
    }
    Ok(out)
}

/// Define `spec` and create `n` objects of it (in pipelined batches of
/// 500 per transaction). Returns the object ids in creation order.
pub fn populate(w: &mut Wire, spec: &ClassSpec, n: usize) -> R<Vec<u64>> {
    w.ok(Command::DefineClass(spec.clone()))?;
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let batch = (n - ids.len()).min(500);
        let mut cmds = vec![Command::Begin {
            user: Value::from("admin"),
        }];
        cmds.extend((0..batch).map(|_| Command::New {
            class: spec.name.clone(),
            overrides: vec![],
        }));
        cmds.push(Command::Commit);
        for r in pipeline_ok(w, cmds)? {
            if let Reply::Object { id } = r {
                ids.push(id);
            }
        }
    }
    Ok(ids)
}

/// The wire commands of one transaction, begin to commit.
pub fn txn_cmds(t: &Txn, objs: &[u64]) -> Vec<Command> {
    let mut cmds = vec![Command::Begin {
        user: Value::from(t.user),
    }];
    for c in &t.calls {
        cmds.push(Command::Call {
            object: objs[c.obj],
            method: c.method.into(),
            args: c.args.clone(),
        });
    }
    cmds.push(Command::Commit);
    cmds
}

/// Commit `txns` pipelined, 100 transactions per write. Every one of
/// them must commit (bulk loads carry no `mallory` transactions).
pub fn bulk_load(w: &mut Wire, txns: &[Txn], objs: &[u64]) -> R<()> {
    for chunk in txns.chunks(100) {
        let cmds = chunk.iter().flat_map(|t| txn_cmds(t, objs)).collect();
        pipeline_ok(w, cmds)?;
    }
    Ok(())
}

/// Connect and wait until the server answers `Ping`.
pub fn connect_ready(addr: SocketAddr) -> R<Wire> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut w) = Wire::connect(addr) {
            if crate::wire::ping(&mut w).is_ok() {
                return Ok(w);
            }
        }
        if Instant::now() > deadline {
            return Err(format!("server at {addr} never answered"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A digest of every object's fields, read in-process from the
/// server's engine, in object-id order.
pub fn fingerprint(server: &Server, objs: &[u64], fields: &[String]) -> u64 {
    server.db().with(|db| {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &o in objs {
            for f in fields {
                let v = db.peek_field(ode_db::ObjectId(o), f);
                for b in format!("{o}:{f}={v:?};").bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x1000_0000_01b3);
                }
            }
        }
        h
    })
}

/// Total bytes of the WAL segment files directly under `dir` (the
/// schema log, epoch table and history store are not the op log).
pub fn wal_bytes(dir: &Path) -> R<u64> {
    let mut total = 0;
    for e in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let e = e.map_err(|e| e.to_string())?;
        let name = e.file_name().to_string_lossy().into_owned();
        let meta = e.metadata().map_err(|e| e.to_string())?;
        if meta.is_file() && name.starts_with("segment-") {
            total += meta.len();
        }
    }
    Ok(total)
}

/// Recursively copy a directory tree.
pub fn copy_dir(from: &Path, to: &Path) -> R<()> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for e in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let e = e.map_err(|e| e.to_string())?;
        let dst = to.join(e.file_name());
        if e.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&e.path(), &dst)?;
        } else {
            std::fs::copy(e.path(), &dst).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}
