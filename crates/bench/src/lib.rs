//! Workload generators shared by the experiment benches E1–E8, and the
//! scratch-directory and stock-level fixtures the WAL and server
//! benches (E12–E19) share.
//!
//! See `DESIGN.md` (per-experiment index) and `EXPERIMENTS.md` (measured
//! results). Each bench prints the table rows it regenerates via
//! `eprintln!` so that `cargo bench | tee bench_output.txt` captures
//! both the Criterion timings and the experiment tables.

use std::fmt;
use std::path::PathBuf;

use ode_core::{BasicEvent, EventExpr, Value};
use ode_db::{Database, ObjectId};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Error returned by [`operator_family`] for a family name it does not
/// know.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownOperatorFamily {
    /// The unrecognized family name.
    pub name: String,
}

impl fmt::Display for UnknownOperatorFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown operator family `{}`", self.name)
    }
}

impl std::error::Error for UnknownOperatorFamily {}

/// A posted application event: a basic event plus arguments.
pub type Posting = (BasicEvent, Vec<Value>);

/// A random stream of `after <method>` events over the given method
/// vocabulary, with `withdraw`-style quantity arguments.
pub fn random_stream(methods: &[&str], len: usize, seed: u64) -> Vec<Posting> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let m = methods[rng.random_range(0..methods.len())];
            let args = if m == "w" {
                vec![Value::Null, Value::Int(rng.random_range(0..200))]
            } else {
                vec![]
            };
            (BasicEvent::after_method(m), args)
        })
        .collect()
}

/// The expression families used by experiments E3 and E8, parameterized
/// by a size knob `n`.
pub fn operator_family(name: &str, n: u32) -> Result<EventExpr, UnknownOperatorFamily> {
    let a = || EventExpr::after_method("a");
    let b = || EventExpr::after_method("b");
    let c = || EventExpr::after_method("c");
    Ok(match name {
        "choose" => a().choose(n),
        "every" => a().every(n),
        "relative_n" => a().relative_n(n),
        "prior_n" => a().prior_n(n),
        "sequence_n" => a().sequence_n(n),
        "relative_chain" => {
            // relative(a, b, a, b, …) with n components
            let items: Vec<EventExpr> =
                (0..n).map(|i| if i % 2 == 0 { a() } else { b() }).collect();
            EventExpr::Relative(items)
        }
        "sequence_chain" => {
            let items: Vec<EventExpr> =
                (0..n).map(|i| if i % 2 == 0 { a() } else { b() }).collect();
            EventExpr::Sequence(items)
        }
        "nested_fa" => {
            let mut e = EventExpr::fa(a(), b(), c());
            for _ in 1..n {
                e = EventExpr::fa(e, b(), c());
            }
            e
        }
        "negation_tower" => {
            let mut e = a();
            for _ in 0..n {
                e = e.not().and(b()).or(a());
            }
            e
        }
        "fa_abs" => EventExpr::fa_abs(a().relative_n(n.max(1)), b(), c()),
        other => {
            return Err(UnknownOperatorFamily {
                name: other.to_string(),
            })
        }
    })
}

/// `k` overlapping masks on one basic event (experiment E4): the union
/// of `after w(i, q) && q > t` for k distinct thresholds.
pub fn overlapping_masks(k: usize) -> EventExpr {
    use ode_core::{LogicalEvent, MaskExpr};
    let mut expr: Option<EventExpr> = None;
    for j in 0..k {
        let le = EventExpr::Logical(
            LogicalEvent::bare(BasicEvent::after_method("w"))
                .with_params(["i", "q"])
                .with_mask(MaskExpr::gt("q", (10 * (j + 1)) as i64)),
        );
        expr = Some(match expr {
            Some(e) => e.or(le),
            None => le,
        });
    }
    expr.expect("k >= 1")
}

/// Parameters for [`txn_symbol_history`].
pub struct TxnHistorySpec<'a> {
    /// Number of transactions.
    pub txns: usize,
    /// Maximum operations per transaction.
    pub max_ops: usize,
    /// Probability a transaction aborts.
    pub abort_ratio: f64,
    /// `after tbegin` symbol.
    pub tbegin: u32,
    /// `after tcommit` symbol.
    pub tcommit: u32,
    /// `after tabort` symbol.
    pub tabort: u32,
    /// Operation symbols to draw from.
    pub op_symbols: &'a [u32],
}

/// A well-formed transactional symbol history for experiment E5:
/// transactions of up to `max_ops` operations, aborting with probability
/// `abort_ratio`.
pub fn txn_symbol_history(spec: &TxnHistorySpec<'_>, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut h = Vec::new();
    for _ in 0..spec.txns {
        h.push(spec.tbegin);
        for _ in 0..rng.random_range(0..=spec.max_ops) {
            h.push(spec.op_symbols[rng.random_range(0..spec.op_symbols.len())]);
        }
        h.push(if rng.random_bool(spec.abort_ratio) {
            spec.tabort
        } else {
            spec.tcommit
        });
    }
    h
}

/// A fresh, empty scratch path `ode-<bench>-<tag>-<pid>` under the
/// system temp dir (any leftover from an earlier run is removed).
pub fn tmp_dir(bench: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ode-{bench}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `bolt` stock level of stock room `room`.
pub fn bolt(db: &Database, room: ObjectId) -> i64 {
    db.peek_field(room, "items")
        .expect("items")
        .member("bolt")
        .and_then(Value::as_int)
        .expect("bolt is an int")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let a = random_stream(&["a", "b", "w"], 50, 7);
        let b = random_stream(&["a", "b", "w"], 50, 7);
        assert_eq!(a.len(), 50);
        assert_eq!(
            a.iter().map(|(e, _)| e.to_string()).collect::<Vec<_>>(),
            b.iter().map(|(e, _)| e.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn operator_families_compile() {
        for fam in [
            "choose",
            "every",
            "relative_n",
            "prior_n",
            "sequence_n",
            "relative_chain",
            "sequence_chain",
            "nested_fa",
            "negation_tower",
            "fa_abs",
        ] {
            let e = operator_family(fam, 3).unwrap();
            ode_core::CompiledEvent::compile(&e)
                .unwrap_or_else(|err| panic!("{fam} failed: {err}"));
        }
    }

    #[test]
    fn unknown_operator_family_is_a_typed_error() {
        let err = operator_family("no_such_family", 3).unwrap_err();
        assert_eq!(err.name, "no_such_family");
        assert!(err.to_string().contains("no_such_family"));
    }

    #[test]
    fn overlapping_masks_expand_minterms() {
        for k in 1..=4 {
            let e = overlapping_masks(k);
            let c = ode_core::CompiledEvent::compile(&e).unwrap();
            assert_eq!(c.stats().alphabet_len, 1 + (1 << k));
        }
    }
}
