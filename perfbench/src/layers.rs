//! Per-layer probes of the traced run: one-cell jobs per cell class,
//! lockstep on/off and engine reference/fast comparisons, cache
//! backends on seeded streams, and result-cache and journal I/O.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use cache_sim::addr::PhysAddr;
use cache_sim::backend::{Backend, HierarchyBackend};
use cache_sim::cache::Cache;
use cache_sim::geometry::CacheGeometry;
use cache_sim::hierarchy::Inclusion;
use cache_sim::plcache::{PlCache, PlDesign};
use cache_sim::replacement::PolicyKind;
use exec_sim::sched;
use lru_channel::covert::Sharing;
use lru_channel::trials::derive_seed;
use lru_leak_server::journal::Journal;
use scenario::{
    content_hash64, registry, CancelToken, Engine, Job, LockstepIneligible, LockstepMode,
    ResultCache, RunOpts, Scenario, Value,
};

use crate::gate::Gate;
use crate::metrics::{Metrics, CELL_CLASSES, INELIGIBLE};
use crate::stats::median;
use crate::trace::{Tracer, NO_SPAN};

/// A registry cell with its one-cell-job timing and outcome.
struct Cell {
    artifact: &'static str,
    scenario: Scenario,
    class: String,
    lockstep: bool,
    secs: f64,
    hash: u64,
}

/// The cell's class name, `<kind>.<sharing>.<lockstep|scalar>`.
fn class_of(sc: &Scenario) -> String {
    let sharing = match sc.sharing {
        Sharing::HyperThreaded => "hyper-threaded",
        Sharing::TimeSliced => "time-sliced",
    };
    let path = if sc.lockstep_spec().is_ok() {
        "lockstep"
    } else {
        "scalar"
    };
    format!("{}.{sharing}.{path}", sc.kind.tag())
}

/// The layer a cell's trials spend their time in: lockstep covert
/// cells in core's batch interpreter, cache-only kernels in
/// cache-sim, table lookups in scenario, every scheduled-machine run
/// in exec-sim.
fn layer_of(cell: &Cell) -> &'static str {
    if cell.lockstep {
        return "core";
    }
    match cell.scenario.kind.tag() {
        "plru-eviction" | "policy-perf" | "l2-channel" | "inclusion-victim" => "cache-sim",
        "latency-check" | "platform-spec" => "scenario",
        _ => "exec-sim",
    }
}

fn ineligible_name(reason: &LockstepIneligible) -> &'static str {
    match reason {
        LockstepIneligible::Kind => "kind",
        LockstepIneligible::Sharing => "sharing",
        LockstepIneligible::Noise => "noise",
        LockstepIneligible::Hierarchy(_) => "hierarchy",
        LockstepIneligible::WayPredictor => "way-predictor",
    }
}

/// Runs `sc` as a one-cell job; returns (seconds, outcome).
fn one_cell(engine: &Engine, label: &str, sc: &Scenario) -> Result<(f64, Value), String> {
    let job = Job::from_scenario(label, sc.clone());
    let t0 = Instant::now();
    let (mut outcomes, _) = engine
        .run_job(&job, None, &CancelToken::new())
        .map_err(|e| e.to_string())?;
    Ok((t0.elapsed().as_secs_f64(), outcomes.remove(0)))
}

/// Restores the fast engine however the reference-engine probe ends.
struct FastEngineOnDrop;

impl Drop for FastEngineOnDrop {
    fn drop(&mut self) {
        sched::set_engine(sched::Engine::FastForward);
    }
}

/// Times every registry cell as a one-cell job on one worker, then
/// re-runs the lockstep cells with lockstep off and the time-sliced
/// cells on the reference engine, checking all three give the same
/// bytes. Fills the `scenario.cell_s.*`, `core.*` and `exec-sim.*`
/// metrics and returns some (cell, outcome) pairs for the
/// result-cache probe.
pub fn cell_probes(
    opts: &RunOpts,
    tracer: &Tracer,
    gate: &mut Gate,
    m: &mut Metrics,
) -> Vec<(Scenario, Value)> {
    let auto = Engine::new().with_workers(1);
    let mut cells = Vec::new();
    let mut samples = Vec::new();
    m.set("core.lockstep.cells", 0.0);
    for name in INELIGIBLE {
        m.set(format!("core.lockstep.ineligible.{name}"), 0.0);
    }
    for artifact in registry::ARTIFACTS {
        for sc in artifact.scenarios(opts) {
            match sc.lockstep_spec() {
                Ok(_) => m.add("core.lockstep.cells", 1.0),
                Err(reason) => m.add(
                    format!("core.lockstep.ineligible.{}", ineligible_name(&reason)),
                    1.0,
                ),
            }
            cells.push(Cell {
                artifact: artifact.id,
                class: class_of(&sc),
                lockstep: sc.lockstep_spec().is_ok(),
                scenario: sc,
                secs: 0.0,
                hash: 0,
            });
        }
    }
    for cell in &mut cells {
        let span = tracer.open(
            layer_of(cell),
            format!("cell:{}", cell.artifact),
            NO_SPAN,
            0,
        );
        let run = one_cell(&auto, cell.artifact, &cell.scenario);
        tracer.close(span);
        match run {
            Ok((secs, outcome)) => {
                cell.secs = secs;
                cell.hash = content_hash64(outcome.to_string().as_bytes());
                if samples.len() < 32 {
                    samples.push((cell.scenario.clone(), outcome));
                }
                gate.check(1, true, String::new);
            }
            Err(e) => gate.check(1, false, || format!("cell of {}: {e}", cell.artifact)),
        }
    }
    for class in CELL_CLASSES.iter().chain(&["other"]) {
        m.set(format!("scenario.cell_s.{class}"), 0.0);
    }
    for cell in &cells {
        let class = if CELL_CLASSES.contains(&cell.class.as_str()) {
            cell.class.as_str()
        } else {
            "other"
        };
        m.add(format!("scenario.cell_s.{class}"), cell.secs);
    }
    let total: f64 = cells.iter().map(|c| c.secs).sum();
    m.set("scenario.fold.serial_cell_s", total);

    // Lockstep off vs auto on the eligible cells.
    let off = Engine::new()
        .with_workers(1)
        .with_lockstep(LockstepMode::Off);
    let (mut auto_s, mut off_s) = (0.0, 0.0);
    for cell in cells.iter().filter(|c| c.lockstep) {
        let run = tracer.span(
            "core",
            format!("lockstep-off:{}", cell.artifact),
            NO_SPAN,
            |_| one_cell(&off, cell.artifact, &cell.scenario),
        );
        let ok =
            matches!(&run, Ok((_, v)) if content_hash64(v.to_string().as_bytes()) == cell.hash);
        gate.check(1, ok, || {
            format!("{}: lockstep off differs from auto", cell.artifact)
        });
        auto_s += cell.secs;
        off_s += run.map_or(0.0, |(s, _)| s);
    }
    m.set("core.lockstep.speedup", off_s / auto_s);
    m.set("core.lockstep.share", auto_s / total);

    // Reference vs fast engine on the time-sliced cells.
    let (mut fast_s, mut ref_s) = (0.0, 0.0);
    {
        let _restore = FastEngineOnDrop;
        sched::set_engine(sched::Engine::Reference);
        for cell in cells
            .iter()
            .filter(|c| c.scenario.sharing == Sharing::TimeSliced)
        {
            let run = tracer.span(
                "exec-sim",
                format!("reference:{}", cell.artifact),
                NO_SPAN,
                |_| one_cell(&auto, cell.artifact, &cell.scenario),
            );
            let ok =
                matches!(&run, Ok((_, v)) if content_hash64(v.to_string().as_bytes()) == cell.hash);
            gate.check(1, ok, || {
                format!("{}: reference engine differs from fast", cell.artifact)
            });
            fast_s += cell.secs;
            ref_s += run.map_or(0.0, |(s, _)| s);
        }
    }
    m.set("exec-sim.ff_speedup", ref_s / fast_s);
    samples
}

/// `n` line-aligned addresses drawn from `lines` distinct lines.
fn stream(seed: u64, lines: u64, n: usize) -> Vec<PhysAddr> {
    (0..n as u64)
        .map(|i| PhysAddr::new((derive_seed(seed, i) % lines) * 64))
        .collect()
}

fn backend(name: &str, geom: CacheGeometry, seed: u64) -> Box<dyn Backend> {
    let plru = PolicyKind::TreePlru;
    let hierarchy = |inclusion| Box::new(HierarchyBackend::new(geom, plru, inclusion, seed));
    match name {
        "soa" => Box::new(Cache::new(geom, plru, seed)),
        "plcache" => Box::new(PlCache::new(geom, plru, PlDesign::Original, seed)),
        "hier-inclusive" => hierarchy(Inclusion::Inclusive),
        "hier-non-inclusive" => hierarchy(Inclusion::NonInclusive),
        "hier-back-invalidate" => hierarchy(Inclusion::BackInvalidate),
        "soa-lru" => Box::new(Cache::new(geom, PolicyKind::Lru, seed)),
        other => unreachable!("no backend {other}"),
    }
}

/// Accesses per second of `Backend::access` for every backend on an
/// L1-resident stream (384 lines in a 512-line L1) and a spilling
/// one (4096 lines); the median of three fresh-cache runs each.
pub fn backend_probes(seed: u64, tracer: &Tracer, m: &mut Metrics) {
    const ACCESSES: usize = 1 << 19;
    let geom = CacheGeometry::new(64, 64, 8).expect("a 64-set 8-way L1 is a valid geometry");
    for (stream_name, lines) in [("l1", 384), ("spill", 4096)] {
        let addrs = stream(derive_seed(seed, lines), lines, ACCESSES);
        for name in crate::metrics::BACKENDS {
            let secs: Vec<f64> = (0..3)
                .map(|rep| {
                    let mut cache = backend(name, geom, derive_seed(seed, rep));
                    tracer.span(
                        "cache-sim",
                        format!("{name}.{stream_name}"),
                        NO_SPAN,
                        |_| {
                            let t0 = Instant::now();
                            let mut hits = 0u64;
                            for &pa in &addrs {
                                hits += u64::from(cache.access(black_box(pa)).hit);
                            }
                            black_box(hits);
                            t0.elapsed().as_secs_f64()
                        },
                    )
                })
                .collect();
            m.set(
                format!("cache-sim.{name}.{stream_name}.accesses_per_s"),
                ACCESSES as f64 / median(&secs),
            );
        }
    }
}

/// Mean `ResultCache::store` and hit `lookup` times over `entries`,
/// in a fresh directory under `dir`.
pub fn result_cache_probe(
    dir: &Path,
    entries: &[(Scenario, Value)],
    tracer: &Tracer,
    gate: &mut Gate,
    m: &mut Metrics,
) -> std::io::Result<()> {
    let cache_dir = dir.join("result-cache-probe");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = ResultCache::open(&cache_dir)?;
    let (mut store_s, mut lookup_s) = (0.0, 0.0);
    for (sc, outcome) in entries {
        let t0 = Instant::now();
        tracer.span("scenario", "result_cache.store", NO_SPAN, |_| {
            cache.store(sc, outcome)
        })?;
        store_s += t0.elapsed().as_secs_f64();
    }
    for (sc, outcome) in entries {
        let t0 = Instant::now();
        let hit = tracer.span("scenario", "result_cache.lookup", NO_SPAN, |_| {
            cache.lookup(sc)
        });
        lookup_s += t0.elapsed().as_secs_f64();
        gate.check(1, hit.as_ref() == Some(outcome), || {
            "result cache returned a different outcome".into()
        });
    }
    let n = entries.len().max(1) as f64;
    m.set("scenario.result_cache.store_ms", store_s / n * 1e3);
    m.set("scenario.result_cache.lookup_ms", lookup_s / n * 1e3);
    std::fs::remove_dir_all(&cache_dir)
}

/// Mean time of one `Journal::accepted` plus `done` pair, in a fresh
/// directory under `dir`.
pub fn journal_probe(dir: &Path, tracer: &Tracer, m: &mut Metrics) -> std::io::Result<()> {
    const APPENDS: u64 = 50;
    let journal_dir = dir.join("journal-probe");
    let _ = std::fs::remove_dir_all(&journal_dir);
    std::fs::create_dir_all(&journal_dir)?;
    let journal = Journal::open(&journal_dir)?;
    let request = Value::obj().with("cmd", "run").with("artifact", "fig5");
    let t0 = Instant::now();
    for key in 0..APPENDS {
        tracer.span("server", "journal.append", NO_SPAN, |_| {
            journal
                .accepted(key, &request)
                .and_then(|seq| journal.done(seq))
        })?;
    }
    m.set(
        "server.journal.append_ms",
        t0.elapsed().as_secs_f64() / APPENDS as f64 * 1e3,
    );
    drop(journal);
    std::fs::remove_dir_all(&journal_dir)
}
