//! Environmental noise: deterministic, seed-derived cache
//! interference for any experiment.
//!
//! The paper reports its channels under clean single-tenant
//! conditions; real machines are not clean. Co-running workloads
//! evict lines, schedulers jitter, and probabilistic contention
//! flips replacement state between a sender's encode and a
//! receiver's decode. This module models that environment as three
//! parametric interference processes behind one spec type,
//! [`NoiseModel`]:
//!
//! * [`NoiseModel::RandomEviction`] — a steady co-runner touching
//!   uniformly random lines of its own buffer every `gap_cycles`
//!   (the §V-B pollution process with a controllable rate).
//! * [`NoiseModel::PeriodicBurst`] — a phase-structured co-runner
//!   that sleeps most of each `period_cycles` window, then streams
//!   `burst_lines` consecutive lines (a timer-tick / GC-pause
//!   shape).
//! * [`NoiseModel::Bernoulli`] — memoryless per-observation
//!   interference: each receiver period, an independent coin with
//!   probability `p` decides whether a random line gets touched.
//!
//! Every model is a pure function of its parameters and a seed, so
//! noisy experiments stay bit-identical across worker counts like
//! everything else in the workspace. Each model has two faces:
//!
//! 1. **A scheduled program** ([`NoiseModel::program`]) — an
//!    [`exec_sim::program::Program`] run as a third thread next to
//!    the sender and receiver. This is how the covert-channel
//!    experiments inject noise.
//! 2. **An access-stream gate** ([`NoiseModel::injector`]) — the
//!    deterministic decision process mapped into the access-index
//!    domain, pluggable into
//!    [`cache_sim::stream::Interleave`] to perturb *any* address
//!    stream feeding a bare cache.

use cache_sim::addr::{PhysAddr, VirtAddr};
use cache_sim::stream::AccessStream;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use exec_sim::block::BlockCtx;
use exec_sim::program::{Footprint, Op, Program};

use crate::covert::ThirdParty;

use std::error::Error;
use std::fmt;

/// Cache-line stride the noise buffers assume (all simulated L1s use
/// 64-byte lines).
pub const LINE: u64 = 64;

/// Nominal cost of one base-stream access, used to map the
/// cycle-domain models ([`NoiseModel::RandomEviction`],
/// [`NoiseModel::PeriodicBurst`]) into the access-index domain of
/// [`NoiseModel::injector`]. Matches the simulated L1 hit latency.
pub const STREAM_CYCLES_PER_ACCESS: u64 = 4;

/// A parametric cache-interference process. `None` is the default
/// everywhere; scenarios omit it when serializing, which keeps
/// pre-noise JSON encodings byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseModel {
    /// No injected interference.
    None,
    /// A co-runner touching one uniformly random line of a
    /// `lines`-line buffer every `gap_cycles` of compute.
    RandomEviction {
        /// Buffer size in cache lines (64 lines span all 64 L1 sets
        /// once; 512 puts 8-way pressure on every set).
        lines: u32,
        /// Compute cycles between touches — smaller is noisier.
        gap_cycles: u32,
    },
    /// A co-runner that sleeps until the next multiple of
    /// `period_cycles`, then streams `burst_lines` consecutive
    /// lines.
    PeriodicBurst {
        /// Burst period in cycles.
        period_cycles: u64,
        /// Lines touched per burst.
        burst_lines: u32,
    },
    /// Memoryless interference: once per receiver period, touch one
    /// uniformly random line of a `lines`-line buffer with
    /// probability `p`.
    Bernoulli {
        /// Per-period touch probability in `[0, 1]`.
        p: f64,
        /// Buffer size in cache lines.
        lines: u32,
    },
}

/// Largest buffer a noise model may span, in cache lines (4 MiB —
/// two orders of magnitude beyond any simulated L1+L2, and small
/// enough that a hostile `adhoc` scenario cannot stall the process
/// allocating page-table entries).
pub const MAX_NOISE_LINES: u32 = 65_536;

/// Why a [`NoiseModel`] is not usable.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseError {
    /// A line count of zero (no buffer to touch).
    ZeroLines,
    /// A line count beyond [`MAX_NOISE_LINES`] (the buffer would
    /// dwarf every simulated cache and stall allocation).
    TooManyLines(u32),
    /// A zero cycle period or gap (the process would never yield).
    ZeroPeriod,
    /// A Bernoulli probability outside `[0, 1]` (or NaN).
    BadProbability(f64),
}

impl fmt::Display for NoiseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseError::ZeroLines => write!(f, "noise model needs lines >= 1"),
            NoiseError::TooManyLines(lines) => write!(
                f,
                "noise model needs lines <= {MAX_NOISE_LINES}, got {lines}"
            ),
            NoiseError::ZeroPeriod => {
                write!(f, "noise model needs a positive period/gap in cycles")
            }
            NoiseError::BadProbability(p) => {
                write!(f, "bernoulli noise needs p in [0, 1], got {p}")
            }
        }
    }
}

impl Error for NoiseError {}

impl NoiseModel {
    /// `true` for [`NoiseModel::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, NoiseModel::None)
    }

    /// Checks the parameters.
    ///
    /// # Errors
    ///
    /// See [`NoiseError`].
    pub fn validate(&self) -> Result<(), NoiseError> {
        let lines_in_range = |lines: u32| match lines {
            0 => Err(NoiseError::ZeroLines),
            l if l > MAX_NOISE_LINES => Err(NoiseError::TooManyLines(l)),
            _ => Ok(()),
        };
        match *self {
            NoiseModel::None => Ok(()),
            NoiseModel::RandomEviction { lines, gap_cycles } => {
                lines_in_range(lines)?;
                if gap_cycles == 0 {
                    Err(NoiseError::ZeroPeriod)
                } else {
                    Ok(())
                }
            }
            NoiseModel::PeriodicBurst {
                period_cycles,
                burst_lines,
            } => {
                lines_in_range(burst_lines)?;
                if period_cycles == 0 {
                    Err(NoiseError::ZeroPeriod)
                } else {
                    Ok(())
                }
            }
            NoiseModel::Bernoulli { p, lines } => {
                lines_in_range(lines)?;
                if !(0.0..=1.0).contains(&p) {
                    Err(NoiseError::BadProbability(p))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Lines the model's buffer needs (0 for `None`; bursts stream
    /// their burst length).
    pub fn buffer_lines(&self) -> u64 {
        match *self {
            NoiseModel::None => 0,
            NoiseModel::RandomEviction { lines, .. } => u64::from(lines),
            NoiseModel::PeriodicBurst { burst_lines, .. } => u64::from(burst_lines),
            NoiseModel::Bernoulli { lines, .. } => u64::from(lines),
        }
    }

    /// A compact human label (`bernoulli(p=0.25, lines=256)`), used
    /// by report renderers and `lru-leak show`.
    pub fn label(&self) -> String {
        match *self {
            NoiseModel::None => "none".to_string(),
            NoiseModel::RandomEviction { lines, gap_cycles } => {
                format!("random-eviction(lines={lines}, gap={gap_cycles})")
            }
            NoiseModel::PeriodicBurst {
                period_cycles,
                burst_lines,
            } => format!("periodic-burst(period={period_cycles}, burst={burst_lines})"),
            NoiseModel::Bernoulli { p, lines } => format!("bernoulli(p={p}, lines={lines})"),
        }
    }

    /// The scheduled face: a [`Program`] injecting this model's
    /// interference from a third thread.
    ///
    /// `buffer` must point at [`NoiseModel::buffer_lines`] allocated
    /// lines. `cadence_cycles` is the Bernoulli model's per-trial
    /// period (pass the receiver period `Tr` so "per observation"
    /// means per receiver measurement); the other models ignore it.
    /// Returns `None` for [`NoiseModel::None`].
    ///
    /// Degenerate parameters (zero lines, zero periods, `p` outside
    /// `[0, 1]`) are clamped to the nearest usable value rather than
    /// panicking mid-run — call [`NoiseModel::validate`] first to
    /// reject them outright, as the scenario builder does.
    pub fn program(
        &self,
        buffer: VirtAddr,
        cadence_cycles: u64,
        seed: u64,
    ) -> Option<NoiseProgram> {
        if self.is_none() {
            return None;
        }
        Some(NoiseProgram {
            model: *self,
            buffer,
            cadence_cycles: cadence_cycles.max(1),
            rng: SmallRng::seed_from_u64(seed ^ 0x6e01_5e5e),
            phase: Phase::Idle,
            next_slot: 0,
        })
    }

    /// Spawns this model as a ready-to-schedule third party on
    /// `machine`: creates the interference process, allocates its
    /// buffer (capped at [`MAX_NOISE_LINES`] even for unvalidated
    /// models), and builds the [`NoiseProgram`] with the canonical
    /// seed derivation. Both the covert and percent-ones faces go
    /// through here, so they model identical interference. Returns
    /// `None` for [`NoiseModel::None`] (no process is created).
    pub fn spawn(
        &self,
        machine: &mut exec_sim::machine::Machine,
        cadence_cycles: u64,
        seed: u64,
    ) -> Option<ThirdParty> {
        if self.is_none() {
            return None;
        }
        let pid = machine.create_process();
        let lines = self.buffer_lines().min(u64::from(MAX_NOISE_LINES));
        let buffer = machine.alloc_pages(pid, lines.div_ceil(64).max(1));
        self.program(buffer, cadence_cycles, seed ^ 0x0153)
            .map(|prog| (pid, Box::new(prog) as Box<dyn Program>))
    }

    /// The stream face: a gate + address source for
    /// [`cache_sim::stream::Interleave`], with the cycle-domain
    /// models mapped into the access-index domain at
    /// [`STREAM_CYCLES_PER_ACCESS`] cycles per base access.
    ///
    /// Interference addresses start at physical address `base_pa`
    /// and span [`NoiseModel::buffer_lines`] lines.
    pub fn injector(&self, base_pa: u64, seed: u64) -> Injector {
        Injector {
            model: *self,
            base_pa,
            rng: SmallRng::seed_from_u64(seed ^ 0x6e01_5e5e),
            carry_cycles: 0,
            burst_cursor: 0,
        }
    }
}

/// Internal phase of a [`NoiseProgram`].
#[derive(Debug, Clone)]
enum Phase {
    /// Waiting for the next decision point.
    Idle,
    /// `n` burst accesses still to issue.
    Bursting(u32),
}

/// The scheduled face of a [`NoiseModel`]: run it as one more
/// [`ThreadHandle`](exec_sim::sched::ThreadHandle) next to the
/// channel parties. All randomness comes from the construction seed,
/// so a noisy run reproduces exactly.
#[derive(Debug, Clone)]
pub struct NoiseProgram {
    model: NoiseModel,
    buffer: VirtAddr,
    cadence_cycles: u64,
    rng: SmallRng,
    phase: Phase,
    next_slot: u64,
}

impl NoiseProgram {
    fn random_line(&mut self, lines: u32) -> VirtAddr {
        let line = self.rng.gen_range(0..u64::from(lines.max(1)));
        self.buffer.add(line * LINE)
    }
}

impl Program for NoiseProgram {
    fn next_op(&mut self, now: u64) -> Op {
        if let Phase::Bursting(left) = self.phase {
            // Stream the remaining burst lines back to back.
            let idx = match self.model {
                NoiseModel::PeriodicBurst { burst_lines, .. } => burst_lines - left,
                _ => 0,
            };
            self.phase = if left > 1 {
                Phase::Bursting(left - 1)
            } else {
                Phase::Idle
            };
            return Op::Access(self.buffer.add(u64::from(idx) * LINE));
        }
        match self.model {
            NoiseModel::None => Op::Done,
            NoiseModel::RandomEviction { lines, gap_cycles } => {
                if now < self.next_slot {
                    return Op::Compute(gap_cycles);
                }
                self.next_slot = now + u64::from(gap_cycles);
                Op::Access(self.random_line(lines))
            }
            NoiseModel::PeriodicBurst {
                period_cycles,
                burst_lines,
            } => {
                if now < self.next_slot {
                    return Op::SpinUntil(self.next_slot);
                }
                // Sleep to the *next* boundary after the burst, even
                // if the scheduler delivered us late.
                let period = period_cycles.max(1);
                self.next_slot = (now / period + 1) * period;
                self.phase = if burst_lines > 1 {
                    Phase::Bursting(burst_lines - 1)
                } else {
                    Phase::Idle
                };
                Op::Access(self.buffer)
            }
            NoiseModel::Bernoulli { p, lines } => {
                if now < self.next_slot {
                    return Op::SpinUntil(self.next_slot);
                }
                self.next_slot = now + self.cadence_cycles;
                if self.rng.gen_bool(p.clamp(0.0, 1.0)) {
                    Op::Access(self.random_line(lines))
                } else {
                    // The coin came up quiet: burn a token cycle so
                    // the scheduler can interleave us fairly.
                    Op::Compute(1)
                }
            }
        }
    }

    fn run_block(&mut self, ctx: &mut BlockCtx<'_>) {
        while ctx.can_issue() {
            if let Phase::Bursting(left) = self.phase {
                // Stream the remaining burst lines back to back.
                let idx = match self.model {
                    NoiseModel::PeriodicBurst { burst_lines, .. } => burst_lines - left,
                    _ => 0,
                };
                self.phase = if left > 1 {
                    Phase::Bursting(left - 1)
                } else {
                    Phase::Idle
                };
                ctx.access(self.buffer.add(u64::from(idx) * LINE));
                continue;
            }
            match self.model {
                NoiseModel::None => return,
                NoiseModel::RandomEviction { lines, gap_cycles } => {
                    if ctx.now() < self.next_slot {
                        ctx.compute(gap_cycles);
                        continue;
                    }
                    // Fast-forward: with a grant, every touch of the
                    // private (disjoint, L1-resident) buffer is a hit
                    // and the access/compute alternation advances in
                    // closed form. The alternation only holds while a
                    // hit is cheaper than the gap (otherwise the next
                    // slot is already due after the access), and the
                    // line draws are unobservable and intentionally
                    // not replayed.
                    let alternates = ctx
                        .analytic_access_cycles()
                        .is_some_and(|c| c < u64::from(gap_cycles));
                    if alternates {
                        if let Some(adv) = ctx.advance_paced(gap_cycles) {
                            if adv.accesses > 0 {
                                self.next_slot = adv.last_access_at + u64::from(gap_cycles);
                            }
                            continue;
                        }
                    }
                    self.next_slot = ctx.now() + u64::from(gap_cycles);
                    let va = self.random_line(lines);
                    ctx.access(va);
                }
                NoiseModel::PeriodicBurst {
                    period_cycles,
                    burst_lines,
                } => {
                    if ctx.now() < self.next_slot {
                        // Sleep: back to the scheduler's spin path.
                        return;
                    }
                    let period = period_cycles.max(1);
                    self.next_slot = (ctx.now() / period + 1) * period;
                    self.phase = if burst_lines > 1 {
                        Phase::Bursting(burst_lines - 1)
                    } else {
                        Phase::Idle
                    };
                    ctx.access(self.buffer);
                }
                NoiseModel::Bernoulli { p, lines } => {
                    if ctx.now() < self.next_slot {
                        return;
                    }
                    self.next_slot = ctx.now() + self.cadence_cycles;
                    if self.rng.gen_bool(p.clamp(0.0, 1.0)) {
                        let va = self.random_line(lines);
                        ctx.access(va);
                    } else {
                        ctx.compute(1);
                    }
                }
            }
        }
    }

    fn uses_blocks(&self) -> bool {
        true
    }

    fn footprint(&self) -> Footprint {
        let lines = self.model.buffer_lines();
        if lines > 0 {
            Footprint::Lines(vec![(self.buffer, lines)])
        } else {
            Footprint::Unknown
        }
    }
}

/// The stream face of a [`NoiseModel`]: a deterministic gate
/// (interference touches to inject after base access `i`) plus the
/// seed-derived interference addresses themselves. Feed both sides
/// to [`cache_sim::stream::Interleave`] via
/// [`Injector::into_stream_parts`].
#[derive(Debug, Clone)]
pub struct Injector {
    model: NoiseModel,
    base_pa: u64,
    rng: SmallRng,
    carry_cycles: u64,
    burst_cursor: u64,
}

impl Injector {
    /// How many interference accesses to inject after base access
    /// `index` (the [`cache_sim::stream::Interleave`] gate).
    pub fn decide(&mut self, _index: u64) -> u32 {
        match self.model {
            NoiseModel::None => 0,
            NoiseModel::RandomEviction { gap_cycles, .. } => {
                self.carry_cycles += STREAM_CYCLES_PER_ACCESS;
                let n = self.carry_cycles / u64::from(gap_cycles.max(1));
                self.carry_cycles %= u64::from(gap_cycles.max(1));
                n.min(u64::from(u32::MAX)) as u32
            }
            NoiseModel::PeriodicBurst {
                period_cycles,
                burst_lines,
            } => {
                let before = self.carry_cycles / period_cycles.max(1);
                self.carry_cycles += STREAM_CYCLES_PER_ACCESS;
                let after = self.carry_cycles / period_cycles.max(1);
                ((after - before) as u32).saturating_mul(burst_lines)
            }
            NoiseModel::Bernoulli { p, .. } => u32::from(self.rng.gen_bool(p.clamp(0.0, 1.0))),
        }
    }

    /// The next interference address.
    pub fn next_line(&mut self) -> PhysAddr {
        let lines = self.model.buffer_lines().max(1);
        let line = match self.model {
            // Bursts stream sequentially: a cursor advances on every
            // injected access, so one burst touches `burst_lines`
            // *distinct* consecutive lines like the program face.
            NoiseModel::PeriodicBurst { .. } => {
                let line = self.burst_cursor % lines;
                self.burst_cursor += 1;
                line
            }
            _ => self.rng.gen_range(0..lines),
        };
        PhysAddr::new(self.base_pa + line * LINE)
    }

    /// Splits the injector into the `(noise_stream, gate)` pair
    /// [`cache_sim::stream::Interleave::new`] wants. Both halves
    /// share the injector's RNG state through a single owner, so the
    /// composition stays deterministic.
    pub fn into_stream_parts(
        self,
    ) -> (
        impl AccessStream + 'static,
        impl FnMut(u64) -> u32 + 'static,
    ) {
        use std::cell::RefCell;
        use std::rc::Rc;
        let shared = Rc::new(RefCell::new(self));
        let gate_half = Rc::clone(&shared);
        let stream = InjectorStream { inner: shared };
        let gate = move |i: u64| gate_half.borrow_mut().decide(i);
        (stream, gate)
    }
}

/// Infinite [`AccessStream`] of one injector's interference lines.
struct InjectorStream {
    inner: std::rc::Rc<std::cell::RefCell<Injector>>,
}

impl AccessStream for InjectorStream {
    fn next_access(&mut self) -> Option<PhysAddr> {
        Some(self.inner.borrow_mut().next_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::cache::Cache;
    use cache_sim::geometry::CacheGeometry;
    use cache_sim::replacement::PolicyKind;
    use cache_sim::stream::{drain, Interleave};
    use exec_sim::machine::Machine;
    use exec_sim::sched::{HyperThreaded, ThreadHandle};

    #[test]
    fn validation_catches_degenerate_parameters() {
        assert!(NoiseModel::None.validate().is_ok());
        assert_eq!(
            NoiseModel::RandomEviction {
                lines: 0,
                gap_cycles: 10
            }
            .validate(),
            Err(NoiseError::ZeroLines)
        );
        assert_eq!(
            NoiseModel::PeriodicBurst {
                period_cycles: 0,
                burst_lines: 4
            }
            .validate(),
            Err(NoiseError::ZeroPeriod)
        );
        assert_eq!(
            NoiseModel::Bernoulli { p: 1.5, lines: 64 }.validate(),
            Err(NoiseError::BadProbability(1.5))
        );
        assert!(NoiseModel::Bernoulli { p: 0.5, lines: 64 }
            .validate()
            .is_ok());
        // A hostile line count is rejected before it can stall
        // allocation (one adhoc scenario could otherwise demand
        // tens of millions of page-table entries).
        assert_eq!(
            NoiseModel::RandomEviction {
                lines: u32::MAX,
                gap_cycles: 1
            }
            .validate(),
            Err(NoiseError::TooManyLines(u32::MAX))
        );
        assert!(NoiseModel::RandomEviction {
            lines: MAX_NOISE_LINES,
            gap_cycles: 1
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn none_has_no_program() {
        assert!(NoiseModel::None.program(VirtAddr::new(0), 100, 1).is_none());
    }

    #[test]
    fn programs_are_deterministic_per_seed() {
        let model = NoiseModel::RandomEviction {
            lines: 64,
            gap_cycles: 50,
        };
        let run = |seed| {
            let mut p = model.program(VirtAddr::new(0), 100, seed).unwrap();
            let mut ops = Vec::new();
            let mut now = 0;
            for _ in 0..64 {
                let op = p.next_op(now);
                if let Op::Compute(c) = op {
                    now += u64::from(c);
                }
                ops.push(format!("{op:?}"));
            }
            ops
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn periodic_burst_streams_then_sleeps() {
        let model = NoiseModel::PeriodicBurst {
            period_cycles: 10_000,
            burst_lines: 3,
        };
        let mut p = model.program(VirtAddr::new(0), 100, 1).unwrap();
        // Burst of 3 consecutive lines...
        for want in [0u64, 64, 128] {
            match p.next_op(0) {
                Op::Access(va) => assert_eq!(va.raw(), want),
                other => panic!("expected access, got {other:?}"),
            }
        }
        // ...then sleep to the next period boundary.
        assert_eq!(p.next_op(1), Op::SpinUntil(10_000));
        assert!(matches!(p.next_op(10_000), Op::Access(_)));
    }

    #[test]
    fn bernoulli_touch_rate_tracks_p() {
        let model = NoiseModel::Bernoulli { p: 0.3, lines: 64 };
        let mut p = model.program(VirtAddr::new(0), 100, 3).unwrap();
        let mut touches = 0;
        let mut slots = 0;
        let mut now = 0u64;
        while slots < 2_000 {
            match p.next_op(now) {
                Op::Access(_) => touches += 1,
                Op::SpinUntil(t) => {
                    now = t;
                    slots += 1;
                    continue;
                }
                _ => {}
            }
        }
        let rate = f64::from(touches) / 2_000.0;
        assert!(
            (rate - 0.3).abs() < 0.05,
            "touch rate {rate} far from p=0.3"
        );
    }

    #[test]
    fn noise_program_pollutes_a_machine() {
        let model = NoiseModel::RandomEviction {
            lines: 256,
            gap_cycles: 100,
        };
        let mut m = Machine::new(
            cache_sim::profiles::MicroArch::sandy_bridge_e5_2690(),
            PolicyKind::TreePlru,
            2,
        );
        let pid = m.create_process();
        let buf = m.alloc_pages(pid, model.buffer_lines().div_ceil(64));
        let mut prog = model.program(buf, 100, 9).unwrap();
        HyperThreaded::new(4).run(&mut m, &mut [ThreadHandle::new(pid, &mut prog)], 400_000);
        assert!(
            m.counters(pid).l1d_accesses > 100,
            "noise must keep touching"
        );
    }

    #[test]
    fn injector_gate_composes_with_interleave() {
        let geom = CacheGeometry::new(64, 64, 8).unwrap();
        let model = NoiseModel::Bernoulli { p: 1.0, lines: 512 };
        let (noise, gate) = model.injector(1 << 20, 11).into_stream_parts();
        let base: Vec<PhysAddr> = (0..200u64).map(|i| PhysAddr::new((i % 4) * 64)).collect();
        let mut cache = Cache::new(geom, PolicyKind::TreePlru, 1);
        let mut s = Interleave::new(base.into_iter(), noise, gate);
        let stats = drain(&mut cache, &mut s);
        // p = 1: one interference touch per base access.
        assert_eq!(stats.accesses, 400);
        // The injected lines come from a disjoint region, so the
        // base working set still fits — but pressure is visible.
        assert!(stats.misses > 4, "interference must add misses");
    }

    #[test]
    fn injector_is_deterministic() {
        let model = NoiseModel::Bernoulli { p: 0.4, lines: 64 };
        let gates = |seed| {
            let mut inj = model.injector(0, seed);
            (0..512).map(|i| inj.decide(i)).collect::<Vec<_>>()
        };
        assert_eq!(gates(5), gates(5));
        assert_ne!(gates(5), gates(6));
    }

    #[test]
    fn cycle_domain_models_map_into_the_index_domain() {
        // gap = 2 × STREAM_CYCLES_PER_ACCESS → one touch every two
        // base accesses.
        let model = NoiseModel::RandomEviction {
            lines: 64,
            gap_cycles: 2 * STREAM_CYCLES_PER_ACCESS as u32,
        };
        let mut inj = model.injector(0, 1);
        let total: u32 = (0..1_000).map(|i| inj.decide(i)).sum();
        assert_eq!(total, 500);
        // One 4-line burst every 40 cycles → 4 lines per 10 accesses.
        let model = NoiseModel::PeriodicBurst {
            period_cycles: 40,
            burst_lines: 4,
        };
        let mut inj = model.injector(0, 1);
        let total: u32 = (0..1_000).map(|i| inj.decide(i)).sum();
        assert_eq!(total, 400);
    }

    #[test]
    fn burst_injector_streams_distinct_consecutive_lines() {
        // period a multiple of burst_lines — the regression shape
        // where a carry-derived line index would repeat line 0.
        let model = NoiseModel::PeriodicBurst {
            period_cycles: 40,
            burst_lines: 4,
        };
        let mut inj = model.injector(1 << 20, 1);
        let mut bursts = Vec::new();
        for i in 0..64 {
            let n = inj.decide(i);
            if n > 0 {
                let lines: Vec<u64> = (0..n)
                    .map(|_| (inj.next_line().raw() - (1 << 20)) / LINE)
                    .collect();
                bursts.push(lines);
            }
        }
        assert!(!bursts.is_empty(), "bursts must fire");
        for burst in &bursts {
            assert_eq!(burst.len(), 4);
            let mut sorted = burst.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                4,
                "a burst must touch distinct lines, got {burst:?}"
            );
        }
    }

    #[test]
    fn labels_are_compact_and_distinct() {
        let labels = [
            NoiseModel::None.label(),
            NoiseModel::RandomEviction {
                lines: 64,
                gap_cycles: 100,
            }
            .label(),
            NoiseModel::PeriodicBurst {
                period_cycles: 1_000,
                burst_lines: 8,
            }
            .label(),
            NoiseModel::Bernoulli { p: 0.25, lines: 64 }.label(),
        ];
        for (i, a) in labels.iter().enumerate() {
            for b in labels.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(labels[0], "none");
    }
}
