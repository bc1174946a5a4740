//! # bench-harness — perf smoke benches and micro-benchmarks
//!
//! The paper's tables and figures are not bench targets: every
//! experiment lives in [`scenario::registry`] as a declarative grid,
//! and `lru-leak run <id>` (or `lru-leak run-all`) runs it and prints
//! its report. The long names the old per-artifact bench targets
//! had (`fig6_timesliced`, `table1_plru_eviction`, …) are accepted
//! by `lru-leak run` too. The end-to-end and per-layer benchmark is
//! the standalone `perfbench` package.
//!
//! What remains here measures the simulator itself:
//!
//! * `bench_perf_smoke`, `bench_batch_smoke`, `bench_execsim_smoke`
//!   and `bench_lockstep_smoke` time one hot path each at explicit
//!   worker widths, assert their equivalence claims, and update the
//!   checked-in `BENCH_*.json` trajectories through the helpers of
//!   this library;
//! * `micro` holds the criterion micro-benchmarks of the cache
//!   model, replacement policies, measurement machinery and
//!   decoders.
//!
//! Run one with `cargo bench -p bench-harness --bench <name>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use scenario::fmt::{kbps, pct, pct1, sparkline, BENCH_SEED};
use scenario::Value;

/// Prints the standard experiment header (used by the perf smoke
/// bench, which is not a paper artifact).
pub fn header(id: &str, paper_ref: &str, what: &str) {
    let mut buf = String::new();
    scenario::fmt::header(&mut buf, id, paper_ref, what);
    print!("{buf}");
}

/// Prints the one-line old→new comparison every perf gate emits
/// before rewriting its checked-in BENCH json: the number found at
/// `path` inside the workspace-root `file`, or `(new)` when the file
/// or key does not exist yet.
pub fn delta_line(file: &str, label: &str, path: &[&str], new: f64) {
    let full = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let old = std::fs::read_to_string(full)
        .ok()
        .and_then(|text| Value::parse(&text).ok())
        .and_then(|v| {
            path.iter()
                .try_fold(v, |v, key| v.get(key).cloned())
                .and_then(|v| v.as_f64())
        });
    match old {
        Some(old) => println!("{file}: {label} {old:.3} -> {new:.3}"),
        None => println!("{file}: {label} (new) -> {new:.3}"),
    }
}

/// Reads the workspace-root BENCH `file` and returns the value at
/// top-level `key`, if the file parses and the key exists.
pub fn bench_json_get(file: &str, key: &str) -> Option<Value> {
    let full = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(full).ok()?;
    Value::parse(&text).ok()?.get(key).cloned()
}

/// Replaces (or adds) top-level `key` in the workspace-root BENCH
/// `file`, preserving every other key. The file is re-emitted in the
/// canonical pretty form of [`Value`].
///
/// # Panics
///
/// Panics if the file is missing or unparsable — a perf gate must
/// never silently drop its trajectory.
pub fn bench_json_upsert(file: &str, key: &str, block: &Value) {
    let full = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&full).unwrap_or_else(|e| panic!("read {file}: {e}"));
    let mut v = Value::parse(&text).unwrap_or_else(|e| panic!("parse {file}: {e}"));
    if let Value::Obj(pairs) = &mut v {
        pairs.retain(|(k, _)| k != key);
    }
    let v = v.with(key, block.clone());
    std::fs::write(&full, format!("{}\n", v.pretty()))
        .unwrap_or_else(|e| panic!("write {file}: {e}"));
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatting_reexports_are_live() {
        assert_eq!(super::pct(0.5), "50.00%");
        assert_eq!(super::kbps(2_000.0), "2Kbps");
        assert!(!super::sparkline(&[1.0, 2.0]).is_empty());
    }
}
