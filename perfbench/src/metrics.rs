//! The benchmark's metric catalogue — the single source of every
//! metric name, unit and direction, of which end-to-end metric each
//! per-layer metric should move, and on which workload.
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; a unit test keeps the two in step.

use std::collections::BTreeMap;

use scenario::Value;

/// The benchmark's workloads, with the reason each exists.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "paper-batch",
        "every registry artifact at default trials in-process, as run-all --json does; lockstep covert, cache-sim CPI and PLRU loops dominate",
    ),
    (
        "timesliced-sweep",
        "fig6/fig8/fig15/ablation_noise_grid at 8000 samples: exec-sim fast-forward and noise models do the work, lockstep does none",
    ),
    (
        "service-mix",
        "in-process server with journal on, two closed-loop clients mixing cold, warm-cache and coalesced requests; admission, journal and cache I/O set latency",
    ),
];

/// An end-to-end metric: what a user of the reproduction sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports all of these on an untraced run. `setup_s`
/// has the largest bound, so work moved into set-up still shows; the
/// others sit near the contract's 0.25 ceiling because this
/// simulator's speed on shared 2-vCPU hosts drifts by 10–30 % over
/// minutes.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.24,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.2,
    },
];

/// A per-layer metric from the traced run, with the end-to-end
/// metric and workload it is expected to move.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

/// The registry artifacts `scenario.artifact_s.*` names; an artifact
/// the registry gains later is timed under `other`.
pub const ARTIFACT_IDS: [&str; 26] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "fig13",
    "fig14",
    "fig15",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "ablation_defenses",
    "ablation_multiset",
    "ablation_prefetcher",
    "ablation_noise_ber",
    "ablation_noise_capacity",
    "ablation_noise_grid",
    "l2_lru_channel",
    "l2_inclusion_victim",
];

/// Cell classes (`<kind>.<sharing>.<lockstep|scalar>`) the registry
/// grids contain; a class the registry gains later is timed under
/// `other`.
pub const CELL_CLASSES: [&str; 16] = [
    "covert.hyper-threaded.lockstep",
    "covert.hyper-threaded.scalar",
    "defense-eval.hyper-threaded.scalar",
    "encoding-latency.hyper-threaded.scalar",
    "inclusion-victim.hyper-threaded.scalar",
    "l2-channel.hyper-threaded.scalar",
    "latency-check.hyper-threaded.scalar",
    "multi-set.hyper-threaded.scalar",
    "percent-ones.time-sliced.scalar",
    "platform-spec.hyper-threaded.scalar",
    "plru-eviction.hyper-threaded.scalar",
    "policy-perf.hyper-threaded.scalar",
    "probe-histogram.hyper-threaded.scalar",
    "sender-miss-rates.hyper-threaded.scalar",
    "spectre-miss-rates.hyper-threaded.scalar",
    "spectre.hyper-threaded.scalar",
];

/// `LockstepIneligible` reasons, as metric-name suffixes.
pub const INELIGIBLE: [&str; 5] = ["kind", "sharing", "noise", "hierarchy", "way-predictor"];

/// Cache backends the cache-sim probe drives.
pub const BACKENDS: [&str; 6] = [
    "soa",
    "plcache",
    "hier-inclusive",
    "hier-non-inclusive",
    "hier-back-invalidate",
    "soa-lru",
];

/// Service request classes.
pub const CLASSES: [&str; 3] = ["cold", "warm", "coalesced"];

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 5] = ["scenario", "core", "exec-sim", "cache-sim", "server"];

const PAPER: &str = "wall_s on paper-batch";
const SWEEP: &str = "wall_s on timesliced-sweep";
const SERVICE: &str = "wall_s on service-mix";

/// The full per-layer catalogue, in output order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, better, moves| {
        out.push(PerLayer {
            name,
            unit,
            better,
            moves,
        });
    };
    for id in ARTIFACT_IDS.iter().chain(&["other"]) {
        add(format!("scenario.artifact_s.{id}"), "s", "lower", PAPER);
    }
    for class in CELL_CLASSES.iter().chain(&["other"]) {
        add(format!("scenario.cell_s.{class}"), "s", "lower", PAPER);
    }
    add("scenario.fold.efficiency".into(), "ratio", "higher", PAPER);
    add("scenario.fold.serial_cell_s".into(), "s", "lower", PAPER);
    add("scenario.fold.worker_s".into(), "s", "lower", PAPER);
    add(
        "scenario.fold.retried_chunks".into(),
        "count",
        "lower",
        PAPER,
    );
    add(
        "scenario.render_s".into(),
        "s",
        "lower",
        "wall_s on paper-batch; warm latency on service-mix",
    );
    add(
        "scenario.json_bytes".into(),
        "bytes",
        "lower",
        "wall_s on paper-batch; warm latency on service-mix",
    );
    add(
        "scenario.result_cache.lookup_ms".into(),
        "ms",
        "lower",
        "warm latency on service-mix",
    );
    add(
        "scenario.result_cache.store_ms".into(),
        "ms",
        "lower",
        "cold latency on service-mix",
    );
    add(
        "scenario.result_cache.hit_ratio".into(),
        "ratio",
        "higher",
        SERVICE,
    );
    add("scenario.unattributed_s".into(), "s", "lower", PAPER);
    add("core.lockstep.cells".into(), "count", "higher", PAPER);
    for reason in INELIGIBLE {
        add(
            format!("core.lockstep.ineligible.{reason}"),
            "count",
            "lower",
            PAPER,
        );
    }
    add("core.lockstep.speedup".into(), "x", "higher", PAPER);
    add("core.lockstep.share".into(), "ratio", "lower", PAPER);
    add("exec-sim.ff_speedup".into(), "x", "higher", SWEEP);
    for backend in BACKENDS {
        for stream in ["l1", "spill"] {
            add(
                format!("cache-sim.{backend}.{stream}.accesses_per_s"),
                "1/s",
                "higher",
                PAPER,
            );
        }
    }
    for phase in ["admit_ms", "reply_ms", "total_ms"] {
        for class in CLASSES {
            for pct in ["p50", "p90"] {
                add(
                    format!("server.{phase}.{class}.{pct}"),
                    "ms",
                    "lower",
                    SERVICE,
                );
            }
        }
    }
    add("server.requests_per_s".into(), "1/s", "higher", SERVICE);
    add("server.job_wall_ms".into(), "ms", "lower", SERVICE);
    add("server.journal.append_ms".into(), "ms", "lower", SERVICE);
    add("server.frame_bytes".into(), "bytes", "lower", SERVICE);
    for (counter, better) in [
        ("coalesced", "higher"),
        ("computed_cells", "lower"),
        ("cached_cells", "higher"),
        ("lockstep_cells", "higher"),
        ("shed", "lower"),
        ("failed", "lower"),
    ] {
        add(format!("server.{counter}"), "count", better, SERVICE);
    }
    add("server.coalesce_ratio".into(), "ratio", "higher", SERVICE);
    for layer in LAYERS {
        let moves = match layer {
            "exec-sim" => SWEEP,
            "server" => SERVICE,
            _ => PAPER,
        };
        add(format!("{layer}.self_s"), "s", "lower", moves);
    }
    for (workload, _) in WORKLOADS {
        add(
            format!("trace.overhead_frac.{workload}"),
            "ratio",
            "lower",
            "none: traced vs untraced pass of the same work",
        );
    }
    out
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Adds `value` to `name` (starting from 0).
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.values.entry(name.into()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The `metrics` object of the result line: exactly the catalogue
    /// names `expected` (with their units), in catalogue order.
    ///
    /// # Errors
    ///
    /// Names a missing or non-finite metric, or one outside the
    /// catalogue.
    pub fn to_json(&self, expected: &[(String, &'static str)]) -> Result<Value, String> {
        let mut out = Value::obj();
        for (name, unit) in expected {
            let value = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            out = out.with(name, Value::obj().with("value", *value).with("unit", *unit));
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !expected.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        Ok(out)
    }
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json() -> String {
    let command: Vec<Value> = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ]
    .iter()
    .map(|&s| Value::from(s))
    .collect();
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| Value::obj().with("name", *name).with("why", *why))
        .collect::<Vec<_>>();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better)
                .with("bound", m.bound)
        })
        .collect::<Vec<_>>();
    let layer = per_layer()
        .into_iter()
        .map(|m| {
            Value::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better)
        })
        .collect::<Vec<_>>();
    Value::obj()
        .with("command", command)
        .with("paths", vec![Value::from("perfbench")])
        .with("run_seconds", 30u64)
        .with("workloads", workloads)
        .with("end_to_end", e2e)
        .with("per_layer", layer)
        .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, at most
    /// 64 characters, starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(names.len() - END_TO_END.len() <= 128);
        assert!(!valid_name("a b") && !valid_name("_x") && !valid_name("x/y"));
    }

    /// `BENCHMARK.json` is this catalogue, as `--benchmark-json`
    /// prints it.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(text.trim_end(), benchmark_json());
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
