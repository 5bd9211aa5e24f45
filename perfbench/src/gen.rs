//! Seeded input generators. The server receives only what these
//! produce; the same seed always yields the same inputs.

use ode_core::Value;
use ode_server::{ActionSpec, ClassSpec, FieldSpec, MethodOp, MethodSpec, TriggerSpec};

/// splitmix64: small, fast, and reproducible across platforms.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// One member-function call: the target object (an index into the
/// workload's created objects), the method and its arguments.
#[derive(Clone, Debug)]
pub struct Call {
    pub obj: usize,
    pub method: &'static str,
    pub args: Vec<Value>,
}

/// One generated transaction.
#[derive(Clone, Debug)]
pub struct Txn {
    pub user: &'static str,
    pub calls: Vec<Call>,
}

impl Txn {
    /// `mallory` transactions are the ones stockroom trigger T1 aborts.
    pub fn is_mallory(&self) -> bool {
        self.user == "mallory"
    }
}

/// The two items of the stockroom class.
pub const ITEMS: [&str; 2] = ["bolt", "gear"];

/// The stockroom mix: 1–4 withdraw/deposit calls on skewed rooms.
/// A few per cent of transactions run as `mallory` (T1 aborts them at
/// their first withdraw) and some withdraw more than 100 (T6 fires).
pub struct StockGen {
    rng: Rng,
    rooms: usize,
    mallory_p: f64,
    large_p: f64,
    users: [&'static str; 2],
}

impl StockGen {
    pub fn new(seed: u64, stream: u64, rooms: usize, mallory_p: f64, session: usize) -> StockGen {
        let users = if session == 0 {
            ["alice", "mallory"]
        } else {
            ["bob", "mallory"]
        };
        StockGen {
            rng: Rng::new(seed, stream),
            rooms,
            mallory_p,
            large_p: 0.12,
            users,
        }
    }

    /// Give every transaction one withdraw over 100, so T6 fires once
    /// per transaction (a firing-latency probe needs many samples).
    pub fn firing_every_txn(mut self) -> StockGen {
        self.large_p = 1.0;
        self
    }

    /// A skewed room pick: `rooms * u^2` puts ~32% of picks on the
    /// lowest tenth of the rooms, yet keeps two sessions' lock conflicts
    /// well under 1% of transactions, so retries do not set the p99.
    fn room(&mut self) -> usize {
        let u = self.rng.unit();
        ((self.rooms as f64 * u * u) as usize).min(self.rooms - 1)
    }

    pub fn next_txn(&mut self) -> Txn {
        let mallory = self.rng.chance(self.mallory_p);
        let n = 1 + self.rng.below(4) as usize;
        let large_at = if self.rng.chance(self.large_p) {
            Some(self.rng.below(n as u64) as usize)
        } else {
            None
        };
        let mut calls = Vec::with_capacity(n);
        for k in 0..n {
            // A mallory transaction starts with a withdraw, so T1 always
            // has an event to abort on.
            let withdraw = (mallory && k == 0) || large_at == Some(k) || self.rng.chance(0.55);
            let q = if large_at == Some(k) {
                101 + self.rng.below(50) as i64
            } else {
                1 + self.rng.below(20) as i64
            };
            let item = ITEMS[self.rng.below(2) as usize];
            calls.push(Call {
                obj: self.room(),
                method: if withdraw { "withdraw" } else { "deposit" },
                args: vec![Value::from(item), Value::Int(q)],
            });
        }
        Txn {
            user: self.users[usize::from(mallory)],
            calls,
        }
    }
}

/// The trigger-fanout class: three update methods `a`, `b`, `c`, each
/// taking `(tag, x)`, and `triggers` perpetual triggers cycling through
/// the §3 operators (arg masks, `every n`, `choose n`, `relative`,
/// `prior`, `sequence`, `fa`, `faAbs`), all activated on creation. The
/// trigger actions are empty: firings reach subscribers, nothing else.
pub fn fanout_spec(triggers: usize) -> ClassSpec {
    let method = |name: &str| MethodSpec {
        name: name.into(),
        update: true,
        params: vec!["t".into(), "x".into()],
        body: vec![MethodOp::Set {
            field: "v".into(),
            expr: "x".into(),
        }],
    };
    let mut specs = Vec::with_capacity(triggers);
    for i in 0..triggers {
        let k = i / 8;
        // Thresholds keep firings to a few per call: every trigger still
        // steps its automaton on every matching event, but the firing
        // stream stays well inside what one subscriber drains.
        let event = match i % 8 {
            0 => format!("after a(t, x) && x > {}", 97 + k % 2),
            1 => format!("every {} (after b)", 60 + k % 40),
            2 => format!("choose {} (after c)", 3 + k % 5),
            3 => format!(
                "relative(after a(t1, x1) && x1 > {}, after c(t2, x2) && x2 > {})",
                40 + (7 * k) % 50,
                97 + k % 2
            ),
            4 => format!(
                "prior(after b(t1, x1) && x1 > {}, after c(t2, x2) && x2 < {})",
                50 + (3 * k) % 40,
                1 + k % 2
            ),
            5 => format!("sequence(after a(t1, x1) && x1 > {}, after b)", 95 + k % 4),
            6 => format!("fa(after a, after b(t, x) && x > {}, after c)", 96 + k % 3),
            _ => format!(
                "faAbs(after a, after b(t, x) && x > {}, after c)",
                96 + k % 3
            ),
        };
        specs.push(TriggerSpec {
            name: format!("F{i}"),
            perpetual: true,
            event,
            action: ActionSpec::Seq(vec![]),
            capture: false,
            full_history: false,
        });
    }
    ClassSpec {
        name: "sensor".into(),
        fields: vec![FieldSpec {
            name: "v".into(),
            default: Value::Int(0),
        }],
        methods: vec![method("a"), method("b"), method("c")],
        masks: vec![],
        activate_on_create: specs.iter().map(|t| t.name.clone()).collect(),
        triggers: specs,
    }
}

/// The fanout stream: one call per transaction on a uniform object,
/// tagged with the transaction's sequence number so each firing can be
/// matched to the time its call was due.
pub struct FanGen {
    rng: Rng,
    objects: usize,
}

impl FanGen {
    pub fn new(seed: u64, stream: u64, objects: usize) -> FanGen {
        FanGen {
            rng: Rng::new(seed, stream),
            objects,
        }
    }

    pub fn next_txn(&mut self, tag: u64) -> Txn {
        let method = ["a", "b", "c"][self.rng.below(3) as usize];
        let x = self.rng.below(100) as i64;
        Txn {
            user: "writer",
            calls: vec![Call {
                obj: self.rng.below(self.objects as u64) as usize,
                method,
                args: vec![Value::Int(tag as i64), Value::Int(x)],
            }],
        }
    }
}

/// The three history-query kinds, cycled in a fixed order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// A kind that is rare in the history (`create`): zone maps should
    /// skip most segments.
    RareKind,
    /// A band of posting seqs: zone maps skip by seq range.
    SeqBand,
    /// An argument predicate on the after-event of the big method: every
    /// segment holding that kind is decoded and each row's args tested.
    ArgPred,
}

impl QueryKind {
    pub const ALL: [QueryKind; 3] = [QueryKind::RareKind, QueryKind::SeqBand, QueryKind::ArgPred];
}

/// One generated history query.
#[derive(Clone, Debug)]
pub struct Query {
    pub kind: QueryKind,
    /// Event kind filter (a fixed kind name or a method name).
    pub event_kind: Option<String>,
    /// `after` when set.
    pub after: bool,
    /// `(index, op, value)` argument predicates.
    pub args: Vec<(u64, String, Value)>,
    pub min_seq: Option<u64>,
    pub max_seq: Option<u64>,
}

/// Seeded query stream over a history whose seqs run up to `seq_hi`.
/// `method` and `threshold` name the arg-pred target: rows of
/// `after method(.., q)` with `q > threshold`.
pub struct QueryGen {
    rng: Rng,
    seq_hi: u64,
    band: u64,
    method: &'static str,
    threshold: i64,
    n: usize,
}

impl QueryGen {
    pub fn new(seed: u64, seq_hi: u64, method: &'static str, threshold: i64) -> QueryGen {
        QueryGen {
            rng: Rng::new(seed, 0x51),
            seq_hi,
            band: 2_000,
            method,
            threshold,
            n: 0,
        }
    }

    pub fn next_query(&mut self) -> Query {
        let kind = QueryKind::ALL[self.n % 3];
        self.n += 1;
        // Every query stays inside the seeded history (seqs start at 1),
        // so its answer does not depend on how far a concurrent writer
        // has got.
        let mut q = Query {
            kind,
            event_kind: None,
            after: false,
            args: vec![],
            min_seq: None,
            max_seq: Some(self.seq_hi),
        };
        match kind {
            QueryKind::RareKind => q.event_kind = Some("create".into()),
            QueryKind::SeqBand => {
                let lo = 1 + self.rng.below(self.seq_hi.saturating_sub(self.band).max(1));
                q.min_seq = Some(lo);
                q.max_seq = Some((lo + self.band - 1).min(self.seq_hi));
            }
            QueryKind::ArgPred => {
                q.event_kind = Some(self.method.into());
                q.after = true;
                q.args = vec![(1, "gt".into(), Value::Int(self.threshold))];
            }
        }
        q
    }
}

/// An order-sensitive digest of generated transactions, so a run can
/// show that its inputs depend on the seed and only on the seed.
pub fn digest(txns: &[Txn]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for t in txns {
        eat(t.user.as_bytes());
        for c in &t.calls {
            eat(&(c.obj as u64).to_le_bytes());
            eat(c.method.as_bytes());
            eat(format!("{:?}", c.args).as_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let take = |seed| {
            let mut g = StockGen::new(seed, 1, 100, 0.05, 0);
            (0..50).map(|_| g.next_txn()).collect::<Vec<_>>()
        };
        assert_eq!(digest(&take(7)), digest(&take(7)));
        assert_ne!(digest(&take(7)), digest(&take(8)));
    }

    #[test]
    fn mallory_always_withdraws_first() {
        let mut g = StockGen::new(3, 1, 100, 0.5, 1);
        for _ in 0..200 {
            let t = g.next_txn();
            if t.is_mallory() {
                assert_eq!(t.calls[0].method, "withdraw");
            }
        }
    }

    #[test]
    fn fanout_spec_compiles() {
        ode_server::spec::compile_class(&fanout_spec(40)).expect("fanout class compiles");
    }
}
