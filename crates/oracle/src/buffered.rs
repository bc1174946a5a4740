//! The buffered run path: every trial and every grid cell runs
//! sequentially, all outcomes are collected, then wrapped or
//! rendered. `O(trials)` memory by construction — the oracle the
//! streamed runs (`scenario::Engine::run_artifact`,
//! `scenario::Scenario::run_ctrl`) are pinned byte-identical to,
//! never a production path.

use lru_channel::trials::derive_seed;
use scenario::{Artifact, Report, RunOpts, Scenario, Value};

/// Runs the scenario's `trials` repetitions one after another and
/// returns their metrics: a single tree for one trial (seeded with
/// the master seed), an array for several (seeded by
/// [`derive_seed`]).
pub fn run_scenario(sc: &Scenario) -> Value {
    if sc.trials <= 1 {
        return sc.run_once(sc.seed).metrics;
    }
    let outs = (0..sc.trials)
        .map(|i| sc.run_once(derive_seed(sc.seed, i as u64)).metrics)
        .collect();
    Value::Arr(outs)
}

/// Runs every cell of the artifact's grid through [`run_scenario`]
/// and renders the collected outcomes into the artifact's
/// [`Report`].
pub fn run_artifact(artifact: &Artifact, opts: &RunOpts) -> Report {
    let grid = artifact.scenarios(opts);
    let outcomes: Vec<Value> = grid.iter().map(run_scenario).collect();
    artifact.render_report(opts, &grid, &outcomes)
}
