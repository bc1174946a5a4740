//! The `service-mix` workload: an in-process experiment server with
//! its journal on, driven by closed-loop clients over real TCP.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread::{self, JoinHandle};
use std::time::Instant;

use lru_leak_server::{client, Server, ServerConfig, ServerHandle, ServerSummary};
use scenario::{content_hash64, registry, CancelToken, Engine, RunOpts, Value};

use crate::gate::Gate;
use crate::schedule::{Class, Req, Round, CLIENTS};
use crate::trace::{SpanId, Tracer};

/// A running server over a fresh cache directory.
#[derive(Debug)]
pub struct Fixture {
    pub addr: String,
    handle: ServerHandle,
    thread: Option<JoinHandle<io::Result<ServerSummary>>>,
    dir: PathBuf,
}

impl Fixture {
    /// Binds a server on a free local port with its result cache and
    /// journal in `dir` (emptied first) and starts it on a thread.
    fn start(dir: PathBuf, threads: usize) -> io::Result<Fixture> {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: Some(threads),
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr()?.to_string();
        let handle = server.handle();
        let thread = Some(thread::spawn(move || server.run()));
        Ok(Fixture {
            addr,
            handle,
            thread,
            dir,
        })
    }

    /// Drains the server, waits for it and removes its directory.
    pub fn stop(mut self) -> io::Result<ServerSummary> {
        self.handle.begin_shutdown();
        let summary = self.join()?;
        std::fs::remove_dir_all(&self.dir)?;
        Ok(summary)
    }

    fn join(&mut self) -> io::Result<ServerSummary> {
        match self.thread.take() {
            Some(t) => t
                .join()
                .map_err(|_| io::Error::other("the server thread panicked"))?,
            None => Ok(ServerSummary::default()),
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.handle.begin_shutdown();
            let _ = self.join();
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// One timed request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub class: Class,
    pub req: Req,
    /// Connect until the `accepted` event, in ms.
    pub admit_ms: f64,
    /// `accepted` until the final event, in ms.
    pub reply_ms: f64,
    pub total_ms: f64,
    /// Bytes of every event line received.
    pub frame_bytes: usize,
    /// The server's own `wall_ms` for the job.
    pub job_wall_ms: u64,
    /// `content_hash64` of the `result` body, or why there was none.
    pub body: Result<u64, String>,
}

/// Sends one request and times its phases; `id` tags its spans.
fn timed_request(
    addr: &str,
    class: Class,
    req: Req,
    tracer: &Tracer,
    parent: SpanId,
    id: u64,
) -> Sample {
    let span = tracer.open("server", format!("request:{}", req.artifact), parent, id);
    let admit = tracer.open("server", "admit", span, id);
    let mut reply = None;
    let mut accepted_at = None;
    let mut frame_bytes = 0;
    let t0 = Instant::now();
    let result = client::request(addr, &req.to_json(), |event| {
        frame_bytes += event.to_string().len() + 1;
        if accepted_at.is_none() && event.get("event").and_then(Value::as_str) == Some("accepted") {
            accepted_at = Some(Instant::now());
            tracer.close(admit);
            reply = Some(tracer.open("server", "reply", span, id));
        }
    });
    let end = Instant::now();
    match reply {
        Some(r) => tracer.close(r),
        None => tracer.close(admit),
    }
    tracer.close(span);
    let accepted_at = accepted_at.unwrap_or(end);
    let (body, job_wall_ms) = match result {
        Ok(event) => {
            frame_bytes += event.to_string().len() + 1;
            let wall = event.get("wall_ms").and_then(Value::as_u64).unwrap_or(0);
            match event.get("body").and_then(Value::as_str) {
                Some(body) => (Ok(content_hash64(body.as_bytes())), wall),
                None => (Err(format!("no result: {event}")), wall),
            }
        }
        Err(e) => (Err(format!("transport: {e}")), 0),
    };
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Sample {
        class,
        req,
        admit_ms: ms(t0, accepted_at),
        reply_ms: ms(accepted_at, end),
        total_ms: ms(t0, end),
        frame_bytes,
        job_wall_ms,
        body,
    }
}

/// Runs `rounds` with one closed-loop client thread per request slot;
/// both clients start each round together. Returns the pass's wall
/// time in seconds and every sample.
pub fn run_pass(
    addr: &str,
    rounds: &[Round],
    tracer: &Tracer,
    parent: SpanId,
    pass: u64,
) -> (f64, Vec<Sample>) {
    let barrier = Barrier::new(CLIENTS);
    let start = Instant::now();
    let per_client: Vec<Vec<Sample>> = thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    rounds
                        .iter()
                        .enumerate()
                        .map(|(i, round)| {
                            barrier.wait();
                            let id = (pass << 32) | ((i as u64) << 2) | c as u64;
                            timed_request(addr, round.class, round.reqs[c], tracer, parent, id + 1)
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a client thread panicked"))
            .collect()
    });
    (
        start.elapsed().as_secs_f64(),
        per_client.into_iter().flatten().collect(),
    )
}

/// In-process reference bodies, computed once per distinct request.
#[derive(Debug)]
pub struct References {
    engine: Engine,
    hashes: HashMap<Req, Result<u64, String>>,
}

impl References {
    pub fn new(workers: usize) -> References {
        References {
            engine: Engine::new().with_workers(workers),
            hashes: HashMap::new(),
        }
    }

    /// The `content_hash64` of `lru-leak run <artifact> --seed <seed>
    /// --json`, as `Engine::run_artifact` renders it in-process.
    fn hash(&mut self, req: Req) -> Result<u64, String> {
        let engine = &self.engine;
        self.hashes
            .entry(req)
            .or_insert_with(|| {
                let artifact = registry::get(req.artifact).ok_or("unknown artifact")?;
                let opts = RunOpts {
                    trials: None,
                    seed: req.seed,
                };
                let (report, _) = engine
                    .run_artifact(artifact, &opts, None, &CancelToken::new())
                    .map_err(|e| e.to_string())?;
                let body = format!("{}\n", report.metrics.pretty());
                Ok(content_hash64(body.as_bytes()))
            })
            .clone()
    }

    /// Checks every sample's body against the in-process bytes.
    pub fn verify(&mut self, samples: &[Sample], gate: &mut Gate) {
        for s in samples {
            let expected = self.hash(s.req);
            let ok = matches!((&s.body, &expected), (Ok(got), Ok(want)) if got == want);
            gate.check(1, ok, || {
                format!(
                    "service {} seed {}: body hash {:?} vs in-process {:?}",
                    s.req.artifact, s.req.seed, s.body, expected
                )
            });
        }
    }
}

/// Starts a fixture in `dir` and primes the warm set through it; the
/// primed bodies are returned as samples for verification.
pub fn start_primed(
    dir: &Path,
    threads: usize,
    warm: &[Req],
) -> io::Result<(Fixture, Vec<Sample>)> {
    let fixture = Fixture::start(dir.to_path_buf(), threads)?;
    let off = Tracer::new(false);
    let primed = warm
        .iter()
        .map(|&req| {
            timed_request(
                &fixture.addr,
                Class::Warm,
                req,
                &off,
                crate::trace::NO_SPAN,
                0,
            )
        })
        .collect();
    Ok((fixture, primed))
}
