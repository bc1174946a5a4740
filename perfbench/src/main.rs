//! The reproduction's benchmark: three workloads, each reporting the
//! end-to-end metrics of `metrics::END_TO_END`, and a traced run
//! that attributes the time to the layers (`scenario`, `core`,
//! `exec-sim`, `cache-sim`, `server`) and reports the per-layer
//! catalogue.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-batch|timesliced-sweep|service-mix|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --describe
//! ```
//!
//! Standard output ends with a host-metadata line and then the result
//! line `{"correct", "attempted", "failed", "metrics"}`; a
//! human-readable table goes to standard error. Every timed output is
//! also checked (see `gate`), and a wrong output makes the run exit
//! with code 1.

mod alloc;
mod batch;
mod gate;
mod host;
mod layers;
mod metrics;
mod schedule;
mod service;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use scenario::{registry, Artifact, RunOpts, Value};

use batch::{Batch, Pass, TIMESLICED, TIMESLICED_SAMPLES};
use gate::Gate;
use metrics::{Metrics, ARTIFACT_IDS, CLASSES, END_TO_END, LAYERS, WORKLOADS};
use schedule::{compute_seed, pass_schedule, warm_set, Class, CLIENTS};
use service::{References, Sample};
use stats::{median, percentile};
use trace::{Tracer, NO_SPAN};

#[global_allocator]
static HEAP: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perfbench --workload <paper-batch|timesliced-sweep|service-mix|all> \
--seed <n> --seconds <n> --trace <0|1>\n       perfbench --describe | --benchmark-json";

/// Set-ups per run of a compute workload (the median is reported).
const BATCH_SETUPS: usize = 101;

/// Set-ups per run of `service-mix`; each binds a fresh server and
/// primes its warm set.
const SERVICE_SETUPS: usize = 5;

/// Passes every run makes however short `--seconds` is, so the
/// across-pass output check always has a second pass to compare.
const MIN_PASSES: usize = 2;

/// Traced `service-mix` passes (each followed by an untraced one):
/// 3 × 40 samples per class, enough for a p90 with ten samples
/// beyond it.
const TRACED_SERVICE_PASSES: u64 = 3;

/// Traced passes of each compute workload (each preceded by an
/// untraced one).
const TRACED_BATCH_PASSES: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))? as f64;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Where spans and the service's scratch directories go: the build
/// directory, which is inside the checkout and never committed.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")));
    target.join("perfbench-run")
}

/// Everything one run measures and checks.
struct Run {
    seed: u64,
    seconds: f64,
    workers: usize,
    out: PathBuf,
    gate: Gate,
    metrics: Metrics,
    /// Human-readable lines for standard error.
    notes: Vec<String>,
    /// Traced vs untraced pass, per workload.
    overhead: Vec<(&'static str, f64)>,
}

impl Run {
    fn finish_end_to_end(&mut self, walls: &[f64], peaks: &[f64], setups: &[f64]) {
        self.metrics.set("wall_s", median(walls));
        self.metrics.set("setup_s", median(setups));
        self.metrics.set("peak_heap_mb", median(peaks));
        if let Some(rss) = host::peak_rss_mb() {
            self.notes.push(format!("peak resident set {rss:.3} MiB"));
        }
        self.notes.push(format!(
            "{} passes, wall_s min {:.4} max {:.4}",
            walls.len(),
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            walls.iter().copied().fold(0.0, f64::max)
        ));
    }

    /// A compute workload, untraced: `wall_s` per pass over every
    /// artifact.
    fn compute(&mut self, workload: &'static str) -> Result<(), String> {
        let mut setups = Vec::new();
        let mut batch = None;
        for _ in 0..BATCH_SETUPS {
            let t0 = Instant::now();
            batch = Some(batch_for(workload, self.seed, self.workers));
            setups.push(t0.elapsed().as_secs_f64());
        }
        let batch = batch.expect("at least one set-up");
        let off = Tracer::new(false);
        let (walls, peaks) = timed_passes(self.seconds, |_| {
            let wall = batch.run_pass(&off, NO_SPAN, &mut self.gate).wall;
            (wall, alloc::peak_heap_mb())
        });
        self.finish_end_to_end(&walls, &peaks, &setups);
        Ok(())
    }

    /// `service-mix`, untraced: `wall_s` per pass of the schedule.
    fn service(&mut self) -> Result<(), String> {
        let warm = warm_set(self.seed);
        let mut setups = Vec::new();
        // Every set-up's server stays up until the run ends: stopping
        // one mid-run slows the next server's jobs for seconds after.
        let mut fixtures = Vec::new();
        let mut primed = Vec::new();
        for rep in 0..SERVICE_SETUPS {
            let dir = self.out.join(format!("svc-{}-{rep}", std::process::id()));
            let t0 = Instant::now();
            let (fixture, samples) = service::start_primed(&dir, self.workers, &warm)
                .map_err(|e| format!("server start: {e}"))?;
            setups.push(t0.elapsed().as_secs_f64());
            fixtures.push(fixture);
            primed = samples;
        }
        let fixture = fixtures.last().expect("at least one set-up");
        let mut refs = References::new(self.workers);
        refs.verify(&primed, &mut self.gate);
        let off = Tracer::new(false);
        let mut samples = Vec::new();
        let (walls, peaks) = timed_passes(self.seconds, |p| {
            let rounds = pass_schedule(self.seed, p, &warm);
            let (wall, pass) = service::run_pass(&fixture.addr, &rounds, &off, NO_SPAN, p);
            let peak = alloc::peak_heap_mb();
            refs.verify(&pass, &mut self.gate);
            samples.extend(pass);
            (wall, peak)
        });
        for fixture in fixtures {
            fixture.stop().map_err(|e| format!("server stop: {e}"))?;
        }
        let mut latencies = Metrics::default();
        class_latencies(&samples, &mut latencies, &["total_ms"]);
        for class in CLASSES {
            for pct in ["p50", "p90"] {
                let name = format!("server.total_ms.{class}.{pct}");
                let shown = latencies
                    .get(&name)
                    .map_or("too few samples".into(), |v| format!("{v:.3} ms"));
                self.notes.push(format!("{class}_{pct}_ms {shown}"));
            }
        }
        self.notes.push(format!(
            "requests_per_s {:.3} 1/s over {} requests",
            samples.len() as f64 / walls.iter().sum::<f64>(),
            samples.len()
        ));
        self.finish_end_to_end(&walls, &peaks, &setups);
        Ok(())
    }

    /// The traced run: untraced and traced passes of every workload
    /// and the layer probes. Reports the per-layer catalogue.
    fn traced(&mut self, tracer: &Tracer) -> Result<(), String> {
        let paper = self.traced_batch("paper-batch", tracer);
        let worker_s = self.paper_batch_layers(&paper);
        self.traced_batch("timesliced-sweep", tracer);

        let samples = layers::cell_probes(
            &paper_opts(self.seed),
            tracer,
            &mut self.gate,
            &mut self.metrics,
        );
        let serial = self
            .metrics
            .get("scenario.fold.serial_cell_s")
            .unwrap_or(0.0);
        self.metrics
            .set("scenario.fold.efficiency", serial / worker_s);
        layers::backend_probes(self.seed, tracer, &mut self.metrics);
        layers::result_cache_probe(
            &self.out,
            &samples,
            tracer,
            &mut self.gate,
            &mut self.metrics,
        )
        .map_err(|e| format!("result cache probe: {e}"))?;
        layers::journal_probe(&self.out, tracer, &mut self.metrics)
            .map_err(|e| format!("journal probe: {e}"))?;
        // Last: stopping a server slows the process's next jobs.
        self.traced_service(tracer)?;

        let own = tracer.self_seconds();
        for layer in LAYERS {
            self.metrics.set(
                format!("{layer}.self_s"),
                own.get(layer).copied().unwrap_or(0.0),
            );
        }
        for (workload, frac) in &self.overhead {
            self.metrics
                .set(format!("trace.overhead_frac.{workload}"), *frac);
        }
        Ok(())
    }

    /// A warm-up pass, then untraced and traced passes in turn; the
    /// overhead compares their medians. Returns the last traced pass.
    fn traced_batch(&mut self, workload: &'static str, tracer: &Tracer) -> Pass {
        let batch = batch_for(workload, self.seed, self.workers);
        let off = Tracer::new(false);
        batch.run_pass(&off, NO_SPAN, &mut self.gate);
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..TRACED_BATCH_PASSES {
            plain.push(batch.run_pass(&off, NO_SPAN, &mut self.gate).wall);
            let pass = tracer.span("bench", format!("pass:{workload}"), NO_SPAN, |id| {
                batch.run_pass(tracer, id, &mut self.gate)
            });
            traced.push(pass);
        }
        let walls: Vec<f64> = traced.iter().map(|p| p.wall).collect();
        self.overhead
            .push((workload, median(&walls) / median(&plain) - 1.0));
        traced.pop().expect("at least one traced pass")
    }

    /// The `scenario.*` metrics of the traced `paper-batch` pass;
    /// returns the worker-seconds the pass had available.
    fn paper_batch_layers(&mut self, pass: &Pass) -> f64 {
        let m = &mut self.metrics;
        for id in ARTIFACT_IDS.iter().chain(&["other"]) {
            m.set(format!("scenario.artifact_s.{id}"), 0.0);
        }
        let mut attributed = 0.0;
        for a in &pass.artifacts {
            let id = if ARTIFACT_IDS.contains(&a.id) {
                a.id
            } else {
                "other"
            };
            m.add(format!("scenario.artifact_s.{id}"), a.secs);
            m.add("scenario.render_s", a.render_secs);
            m.add("scenario.json_bytes", a.json_bytes as f64);
            m.add(
                "scenario.fold.retried_chunks",
                a.status.retried_chunks as f64,
            );
            attributed += a.secs;
        }
        let unattributed = pass.wall - attributed;
        m.set("scenario.unattributed_s", unattributed);
        let worker_s = attributed * self.workers as f64;
        m.set("scenario.fold.worker_s", worker_s);
        self.notes.push(format!(
            "paper-batch attribution: wall {:.4} s = artifacts {attributed:.4} s + unattributed {unattributed:.4} s",
            pass.wall
        ));
        worker_s
    }

    /// `service-mix` traced: traced passes, each followed by an
    /// untraced one, give the `server.*` metrics.
    fn traced_service(&mut self, tracer: &Tracer) -> Result<(), String> {
        let warm = warm_set(self.seed);
        let dir = self.out.join(format!("svc-{}-traced", std::process::id()));
        let (fixture, primed) = service::start_primed(&dir, self.workers, &warm)
            .map_err(|e| format!("server start: {e}"))?;
        let mut refs = References::new(self.workers);
        refs.verify(&primed, &mut self.gate);
        let off = Tracer::new(false);
        let (mut plain, mut walls) = (Vec::new(), Vec::new());
        let mut samples: Vec<Sample> = Vec::new();
        let mut coalesced_rounds = 0;
        for p in 0..2 * TRACED_SERVICE_PASSES {
            let rounds = pass_schedule(self.seed, p, &warm);
            coalesced_rounds += rounds
                .iter()
                .filter(|r| r.class == Class::Coalesced)
                .count();
            if p % 2 == 1 {
                let (wall, pass) = service::run_pass(&fixture.addr, &rounds, &off, NO_SPAN, p);
                refs.verify(&pass, &mut self.gate);
                plain.push(wall);
                continue;
            }
            let (wall, pass) = tracer.span("bench", "pass:service-mix", NO_SPAN, |id| {
                service::run_pass(&fixture.addr, &rounds, tracer, id, p)
            });
            refs.verify(&pass, &mut self.gate);
            walls.push(wall);
            samples.extend(pass);
        }
        let status =
            lru_leak_server::client::status(&fixture.addr).map_err(|e| format!("status: {e}"))?;
        fixture.stop().map_err(|e| format!("server stop: {e}"))?;
        self.overhead
            .push(("service-mix", median(&walls) / median(&plain) - 1.0));

        let m = &mut self.metrics;
        if !class_latencies(&samples, m, &["admit_ms", "reply_ms", "total_ms"]) {
            return Err("too few traced service samples for a p90".into());
        }
        let n = samples.len() as f64;
        m.set("server.requests_per_s", n / walls.iter().sum::<f64>());
        m.set(
            "server.job_wall_ms",
            samples.iter().map(|s| s.job_wall_ms as f64).sum::<f64>() / n,
        );
        m.set(
            "server.frame_bytes",
            samples.iter().map(|s| s.frame_bytes as f64).sum::<f64>() / n,
        );
        let counter = |name: &str| status.get(name).and_then(Value::as_u64).unwrap_or(0) as f64;
        for name in [
            "coalesced",
            "computed_cells",
            "cached_cells",
            "lockstep_cells",
            "shed",
            "failed",
        ] {
            m.set(format!("server.{name}"), counter(name));
        }
        m.set(
            "server.coalesce_ratio",
            counter("coalesced") / coalesced_rounds as f64,
        );
        let cache = |name: &str| {
            status
                .get("cache")
                .and_then(|c| c.get(name))
                .and_then(Value::as_u64)
                .unwrap_or(0) as f64
        };
        let lookups = cache("hits") + cache("misses") + cache("corrupt_recovered");
        m.set(
            "scenario.result_cache.hit_ratio",
            cache("hits") / lookups.max(1.0),
        );
        Ok(())
    }
}

/// Sets `server.<phase>.<class>.<p50|p90>` from `samples`; returns
/// false when a class has too few samples for a percentile.
fn class_latencies(samples: &[Sample], m: &mut Metrics, phases: &[&str]) -> bool {
    let mut complete = true;
    for (k, class) in CLASSES.iter().enumerate() {
        let of_class: Vec<&Sample> = samples.iter().filter(|s| s.class.index() == k).collect();
        for phase in phases {
            let values: Vec<f64> = of_class
                .iter()
                .map(|s| match *phase {
                    "admit_ms" => s.admit_ms,
                    "reply_ms" => s.reply_ms,
                    _ => s.total_ms,
                })
                .collect();
            for (pct, q) in [("p50", 0.5), ("p90", 0.9)] {
                match percentile(&values, q) {
                    Ok(v) => m.set(format!("server.{phase}.{class}.{pct}"), v),
                    Err(_) => complete = false,
                }
            }
        }
    }
    complete
}

fn paper_opts(seed: u64) -> RunOpts {
    RunOpts {
        trials: None,
        seed: compute_seed(seed),
    }
}

fn timesliced_opts(seed: u64) -> RunOpts {
    RunOpts {
        trials: Some(TIMESLICED_SAMPLES),
        seed: compute_seed(seed),
    }
}

/// Calls `pass(i)` until `seconds` have gone by, at least
/// [`MIN_PASSES`] times. Each call returns its wall seconds and the
/// peak heap it read right after its timed work; the peak is reset to
/// the live heap before every call.
fn timed_passes(seconds: f64, mut pass: impl FnMut(u64) -> (f64, f64)) -> (Vec<f64>, Vec<f64>) {
    let start = Instant::now();
    let (mut walls, mut peaks) = (Vec::new(), Vec::new());
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        alloc::reset_peak();
        let (wall, peak) = pass(walls.len() as u64);
        walls.push(wall);
        peaks.push(peak);
    }
    (walls, peaks)
}

/// A compute workload's artifacts and options, with grids built.
fn batch_for(workload: &'static str, seed: u64, workers: usize) -> Batch {
    let (artifacts, opts): (Vec<&'static Artifact>, _) = match workload {
        "paper-batch" => (registry::ARTIFACTS.iter().collect(), paper_opts(seed)),
        _ => (
            TIMESLICED
                .iter()
                .map(|id| registry::get(id).expect("time-sliced artifacts are registered"))
                .collect(),
            timesliced_opts(seed),
        ),
    };
    Batch::new(workload, &artifacts, opts, workers)
}

/// Runs one workload (or, traced, the whole battery) and prints its
/// host line and result line; returns whether every output checked.
fn run_workload(workload: &'static str, args: &Args) -> Result<bool, String> {
    let workers = host::nproc();
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        workers,
        out: out_dir(),
        gate: Gate::default(),
        metrics: Metrics::default(),
        notes: Vec::new(),
        overhead: Vec::new(),
    };
    std::fs::create_dir_all(&run.out).map_err(|e| format!("cannot create {:?}: {e}", run.out))?;
    let tracer = Tracer::new(args.trace);
    let expected: Vec<(String, &'static str)> = if args.trace {
        run.traced(&tracer)?;
        let spans = run
            .out
            .join(format!("spans-{workload}-{}.ndjson", args.seed));
        std::fs::write(&spans, tracer.to_ndjson())
            .map_err(|e| format!("cannot write {spans:?}: {e}"))?;
        run.notes
            .push(format!("spans written to {}", spans.display()));
        metrics::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        match workload {
            "service-mix" => run.service()?,
            compute => run.compute(compute)?,
        }
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let metrics = run.metrics.to_json(&expected)?;

    let mut overhead = Value::obj();
    for (w, frac) in &run.overhead {
        overhead = overhead.with(w, *frac);
    }
    let host = host::metadata(workers, CLIENTS)
        .with("workload", workload)
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("traced", args.trace)
        .with(
            "tracing_overhead",
            if args.trace { overhead } else { Value::Null },
        );
    let (attempted, failed) = (run.gate.attempted(), run.gate.failed());
    eprintln!(
        "== {workload} (seed {}, trace {}) ==",
        args.seed,
        u8::from(args.trace)
    );
    for (name, unit) in &expected {
        eprintln!(
            "{name:<56} {:>18.6} {unit}",
            run.metrics.get(name).unwrap_or(f64::NAN)
        );
    }
    eprintln!(
        "failed_frac {} ({failed} of {attempted} operations)",
        failed as f64 / attempted.max(1) as f64
    );
    for note in &run.notes {
        eprintln!("{note}");
    }
    for failure in run.gate.failures() {
        eprintln!("WRONG OUTPUT: {failure}");
    }
    println!("{}", Value::obj().with("host", host));
    println!(
        "{}",
        Value::obj()
            .with("correct", failed == 0)
            .with("attempted", attempted.max(1))
            .with("failed", failed)
            .with("metrics", metrics)
    );
    Ok(failed == 0)
}

/// The catalogue as text: workloads, end-to-end metrics with bounds,
/// and what each per-layer metric should move.
fn describe() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name}: {why}");
    }
    println!("end-to-end (every workload, --trace 0):");
    for m in &END_TO_END {
        println!(
            "  {} [{}] {} is better, bound {}",
            m.name, m.unit, m.better, m.bound
        );
    }
    println!("per-layer (traced run, --trace 1):");
    for m in metrics::per_layer() {
        println!(
            "  {} [{}] {} is better; moves {}",
            m.name, m.unit, m.better, m.moves
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--describe") => {
            describe();
            return ExitCode::SUCCESS;
        }
        Some("--benchmark-json") => {
            println!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&'static str> = match args.workload.as_str() {
        // The traced run covers every workload already.
        "all" if args.trace => vec!["paper-batch"],
        "all" => WORKLOADS.iter().map(|(w, _)| *w).collect(),
        w => vec![
            WORKLOADS
                .iter()
                .find(|(name, _)| *name == w)
                .expect("validated")
                .0,
        ],
    };
    let mut all_correct = true;
    for workload in workloads {
        match run_workload(workload, &args) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
