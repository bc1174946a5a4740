//! The compute workloads, `paper-batch` and `timesliced-sweep`: a
//! list of registry artifacts run through the job engine and
//! rendered to JSON, exactly as `lru-leak run-all --json` does.

use std::time::Instant;

use scenario::{content_hash64, Artifact, CancelToken, Engine, Job, JobStatus, RunOpts};

use crate::gate::Gate;
use crate::trace::{SpanId, Tracer};

/// The `timesliced-sweep` artifacts.
pub const TIMESLICED: [&str; 4] = ["fig6", "fig8", "fig15", "ablation_noise_grid"];

/// The `timesliced-sweep` sample override: about a second per pass
/// on a 2-vCPU host.
pub const TIMESLICED_SAMPLES: usize = 8000;

/// One artifact of a pass.
#[derive(Debug, Clone)]
pub struct ArtifactRun {
    pub id: &'static str,
    /// `Engine::run_job` plus rendering.
    pub secs: f64,
    /// `render_report` plus `Value::pretty`.
    pub render_secs: f64,
    pub json_bytes: usize,
    pub status: JobStatus,
}

/// One pass over every artifact of a batch.
#[derive(Debug, Clone)]
pub struct Pass {
    pub wall: f64,
    pub artifacts: Vec<ArtifactRun>,
}

/// A compute workload: artifacts with their grids built.
#[derive(Debug)]
pub struct Batch {
    /// The workload's name; keys the across-pass output check.
    label: &'static str,
    opts: RunOpts,
    jobs: Vec<(&'static Artifact, Job)>,
    engine: Engine,
}

impl Batch {
    /// Builds every artifact's grid — the workload's set-up.
    pub fn new(
        label: &'static str,
        artifacts: &[&'static Artifact],
        opts: RunOpts,
        workers: usize,
    ) -> Batch {
        Batch {
            label,
            jobs: artifacts
                .iter()
                .map(|a| (*a, Job::from_artifact(a, &opts)))
                .collect(),
            opts,
            engine: Engine::new().with_workers(workers),
        }
    }

    /// Runs every artifact once, checking each JSON rendering against
    /// the first pass's bytes.
    pub fn run_pass(&self, tracer: &Tracer, parent: SpanId, gate: &mut Gate) -> Pass {
        let start = Instant::now();
        let mut artifacts = Vec::with_capacity(self.jobs.len());
        for (artifact, job) in &self.jobs {
            let cells = job.grid.len() as u64;
            let t0 = Instant::now();
            let span = tracer.open("bench", format!("artifact:{}", artifact.id), parent, 0);
            let result = self.engine.run_job(job, None, &CancelToken::new());
            let (outcomes, status) = match result {
                Ok(done) => done,
                Err(e) => {
                    tracer.close(span);
                    gate.check(cells, false, || format!("{}: {e}", artifact.id));
                    continue;
                }
            };
            let r0 = Instant::now();
            let json = tracer.span("scenario", "render", span, |_| {
                artifact
                    .render_report(&self.opts, &job.grid, &outcomes)
                    .metrics
                    .pretty()
            });
            let render_secs = r0.elapsed().as_secs_f64();
            tracer.close(span);
            let secs = t0.elapsed().as_secs_f64();
            let key = format!("{}/{}", self.label, artifact.id);
            gate.same_as_before(&key, content_hash64(json.as_bytes()), cells);
            artifacts.push(ArtifactRun {
                id: artifact.id,
                secs,
                render_secs,
                json_bytes: json.len(),
                status,
            });
        }
        Pass {
            wall: start.elapsed().as_secs_f64(),
            artifacts,
        }
    }
}
