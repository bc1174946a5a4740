//! The streaming refactor's contract: stream-and-reduce must be
//! byte-identical to the pre-refactor buffer-then-fold path.
//!
//! `oracle::buffered::{run_artifact, run_scenario}` keep the old
//! semantics — run every trial sequentially, collect a `Vec`, then
//! render — as the oracle. The streamed path (chunked work-stealing
//! scheduler, in-order chunk merging) must reproduce the oracle's
//! `Report { text, metrics }` byte for byte on 1, 4 and 8 workers,
//! for every artifact in the registry.

use lru_leak::scenario::aggregate::{KeyHistogram, ScalarStats};
use lru_leak::scenario::engine::{CancelToken, Engine, RunCtrl};
use lru_leak::scenario::registry::{self, Artifact, Report, RunOpts};
use lru_leak::scenario::spec::{ExperimentKind, InitId, MessageSource, Scenario, SequenceId};
use lru_leak::scenario::{Aggregate, LockstepMode, Reducer, Value};
use oracle::buffered;

/// Runs `artifact` through an engine of width `workers`.
fn run_on(workers: usize, artifact: &Artifact, opts: &RunOpts) -> Report {
    let engine = Engine::new().with_workers(workers);
    let (report, _status) = engine
        .run_artifact(artifact, opts, None, &CancelToken::new())
        .unwrap_or_else(|e| panic!("{}: {e}", artifact.id));
    report
}

fn on(workers: usize) -> RunCtrl {
    RunCtrl::new().with_workers(workers)
}

/// Streams `sc`'s trials through `reducer` on `workers` threads.
fn reduced_on<R: Reducer>(workers: usize, sc: &Scenario, reducer: &R) -> String {
    sc.run_reduced(reducer, None, &on(workers), LockstepMode::Auto)
        .unwrap()
        .to_string()
}

/// `sc`'s default summary on `workers` threads.
fn summary_on(workers: usize, sc: &Scenario) -> Value {
    Aggregate::for_scenario(sc)
        .reduce(sc, None, &on(workers))
        .unwrap()
}

#[test]
fn every_artifact_streams_bit_identical_to_the_buffered_path() {
    let opts = RunOpts {
        trials: Some(1),
        seed: 0x5eed_cafe,
    };
    for id in registry::ids() {
        let artifact = registry::get(id).unwrap();
        let reference = buffered::run_artifact(artifact, &opts);
        for workers in [1usize, 4, 8] {
            let streamed = run_on(workers, artifact, &opts);
            assert_eq!(
                streamed.text, reference.text,
                "{id}: streamed text differs from the buffered oracle at {workers} workers"
            );
            assert_eq!(
                streamed.metrics.to_string(),
                reference.metrics.to_string(),
                "{id}: streamed metrics differ from the buffered oracle at {workers} workers"
            );
        }
    }
}

/// A cheap many-trial scenario (one PLRU eviction probe per trial).
fn plru_scenario(trials: usize) -> Scenario {
    Scenario::builder()
        .kind(ExperimentKind::PlruEviction {
            sequence: SequenceId::Seq1,
            init: InitId::Random,
            iterations: 2,
            trials: 1,
        })
        .message(MessageSource::Alternating { bits: 1 })
        .trials(trials)
        .seed(0xfeed)
        .build()
        .unwrap()
}

#[test]
fn scenario_run_matches_the_buffered_oracle_per_worker_count() {
    let sc = plru_scenario(97); // not a multiple of any chunk size
    let reference = buffered::run_scenario(&sc);
    assert_eq!(sc.run().to_string(), reference.to_string());
    for workers in [1usize, 4, 8] {
        let collected = sc.run_ctrl(None, &on(workers), LockstepMode::Auto).unwrap();
        assert_eq!(
            collected.to_string(),
            reference.to_string(),
            "collected trials differ at {workers} workers"
        );
    }
}

#[test]
fn engines_of_different_widths_run_side_by_side_bit_identically() {
    // The width is a per-run value: two engines in one process, run
    // at the same time on different widths, cannot disturb each other.
    let opts = RunOpts {
        trials: Some(8),
        seed: 0x5eed_cafe,
    };
    let artifact = registry::get("fig6").unwrap();
    let (narrow, wide) = std::thread::scope(|s| {
        let narrow = s.spawn(|| run_on(1, artifact, &opts));
        let wide = s.spawn(|| run_on(4, artifact, &opts));
        (narrow.join().unwrap(), wide.join().unwrap())
    });
    assert_eq!(narrow.text, wide.text);
    assert_eq!(narrow.metrics.to_string(), wide.metrics.to_string());
}

#[test]
fn streaming_reducers_are_worker_count_invariant() {
    let sc = plru_scenario(500);
    // Non-associative floating-point state (sums) and associative
    // integer state (bins) must both reproduce exactly.
    let stats = ScalarStats::new(&["steady_state"]);
    let hist = KeyHistogram {
        key: "steady_state",
        bins: 8,
    };
    let stats_seq = reduced_on(1, &sc, &stats);
    let hist_seq = reduced_on(1, &sc, &hist);
    let summary_seq = summary_on(1, &sc).to_string();
    for workers in [4usize, 8] {
        assert_eq!(reduced_on(workers, &sc, &stats), stats_seq);
        assert_eq!(reduced_on(workers, &sc, &hist), hist_seq);
        assert_eq!(summary_on(workers, &sc).to_string(), summary_seq);
    }
}

#[test]
fn summary_aggregate_agrees_with_the_buffered_trials() {
    let sc = plru_scenario(64);
    let collected = buffered::run_scenario(&sc);
    let trials = collected.as_arr().expect("trials array");
    let count = trials
        .iter()
        .filter(|t| t.get("steady_state").is_some())
        .count() as u64;
    let max = trials
        .iter()
        .filter_map(|t| t.get("steady_state").and_then(Value::as_f64))
        .fold(f64::NEG_INFINITY, f64::max);
    let summary = summary_on(0, &sc);
    let stat = summary
        .get("keys")
        .and_then(|k| k.get("steady_state"))
        .expect("summary stat");
    assert_eq!(stat.get("count").and_then(Value::as_u64), Some(count));
    assert_eq!(stat.get("max").and_then(Value::as_f64), Some(max));
}
