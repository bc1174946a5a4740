//! End-to-end covert-channel runs (paper §V, §VI).

use cache_sim::replacement::PolicyKind;
use exec_sim::machine::{Machine, Pid};
use exec_sim::measure::LatencyProbe;
use exec_sim::program::Program;
use exec_sim::sched::{HyperThreaded, SchedulerReport, ThreadHandle, TimeSliced};

use crate::decode::{self, BitConvention};
use crate::noise::NoiseModel;
use crate::params::{ChannelParams, ParamError, Platform};
use crate::protocol::{LruReceiver, LruSender, Sample};
use crate::setup::{self, Endpoints};

/// Which channel protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Algorithm 1: sender and receiver are separate processes with
    /// a shared page holding `line 0`.
    SharedMemory,
    /// Algorithm 1 between two threads of one address space (the AMD
    /// pthreads configuration of §VI-B — immune to the µtag way
    /// predictor because both parties use the same linear address).
    SharedMemoryThreads,
    /// Algorithm 2: fully separate processes, no shared memory.
    NoSharedMemory,
}

/// How the two parties share the physical core (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Two hyper-threads running in parallel (§V-A).
    HyperThreaded,
    /// Two processes time-slicing the core with CFS-like quanta
    /// (§V-B).
    TimeSliced,
}

/// Configuration of one covert-channel run.
#[derive(Debug, Clone)]
pub struct CovertConfig {
    /// The simulated CPU.
    pub platform: Platform,
    /// Channel parameters (`d`, target set, `Ts`, `Tr`).
    pub params: ChannelParams,
    /// Protocol variant.
    pub variant: Variant,
    /// Core-sharing setting.
    pub sharing: Sharing,
    /// Bits the sender transmits (once; repeat the slice yourself to
    /// send a string several times, as the paper's error evaluation
    /// does).
    pub message: Vec<bool>,
    /// Seed for every randomized component of the run.
    pub seed: u64,
}

/// The observable outcome of a covert-channel run.
#[derive(Debug, Clone)]
pub struct CovertRun {
    /// The receiver's timed observations, in order.
    pub samples: Vec<Sample>,
    /// Threshold separating hit from miss readouts on this platform.
    pub hit_threshold: u32,
    /// Nominal transmission rate in bits/second (`freq / Ts`).
    pub rate_bps: f64,
    /// Scheduler accounting for the run.
    pub report: SchedulerReport,
}

impl CovertConfig {
    /// Runs the channel on a fresh Tree-PLRU machine with no third
    /// party and returns the receiver's trace.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the parameters do not fit the
    /// platform's L1 geometry.
    pub fn run(&self) -> Result<CovertRun, ParamError> {
        let mut machine = Machine::new(self.platform.arch, PolicyKind::TreePlru, self.seed);
        self.run_on(&mut machine, NoiseModel::None)
    }

    /// Runs the channel on a caller-supplied machine (the secure-cache
    /// ablations swap its L1 policy, the scenario layer its inclusion
    /// model), with `noise` spawned as a third thread next to the
    /// sender and receiver. `NoiseModel::None` spawns nothing and
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if the parameters do not fit the
    /// machine's L1 geometry.
    pub fn run_on(
        &self,
        machine: &mut Machine,
        noise: NoiseModel,
    ) -> Result<CovertRun, ParamError> {
        let cadence = self.params.tr.max(1);
        self.run_wired(machine, None, |m| noise.spawn(m, cadence, self.seed))
    }

    /// The one run sequence behind [`CovertConfig::run_on`] and
    /// [`percent_ones`]: validate, wire the endpoints, spawn the third
    /// party (right after the channel's own allocations, so a quiet
    /// run performs exactly the two-party allocation sequence), build
    /// the probe, warm the channel lines, and schedule the threads.
    ///
    /// With `max_samples` unset the run lasts one `Ts` per message bit
    /// plus one. A receiver capped at `n` samples instead runs until
    /// it has them, with slack for every party sharing the quanta,
    /// under its own scheduler stream.
    fn run_wired(
        &self,
        machine: &mut Machine,
        max_samples: Option<usize>,
        third_party: impl FnOnce(&mut Machine) -> Option<ThirdParty>,
    ) -> Result<CovertRun, ParamError> {
        let geom = machine.hierarchy().l1().geometry();
        self.params
            .validate(geom.ways(), geom.num_sets() as usize)?;

        let (endpoints, mut receiver) = self.wire(machine);
        let mut sender =
            LruSender::new(endpoints.sender_line, self.message.clone(), self.params.ts);
        if self.sharing == Sharing::TimeSliced {
            // Keep multi-second time-sliced runs tractable: the
            // sender touches its line every ~50k cycles instead of
            // every ~30 — still hundreds of touches per quantum, so
            // the channel semantics are unchanged.
            sender = sender.repeating().with_encode_calc(50_000);
        }
        if let Some(n) = max_samples {
            receiver = receiver.with_max_samples(n);
        }

        // The interference party, if any: its own process, its own
        // buffer, its op stream derived only from the run seed.
        let mut third = third_party(machine);

        let probe_set = setup::reserved_probe_set(machine, self.params.target_set);
        let probe = LatencyProbe::new(
            machine,
            endpoints.receiver_pid,
            self.platform.tsc,
            probe_set,
        );

        // Warm the channel lines so the steady state (all lines in
        // L1/L2 rather than cold memory) is reached immediately, as
        // in the paper where the attack loops run continuously.
        for &va in &endpoints.receiver_lines {
            machine.access(endpoints.receiver_pid, va);
        }
        machine.access(endpoints.sender_pid, endpoints.sender_line);

        let (limit, sched_seed) = match max_samples {
            None => (
                (self.message.len() as u64 + 1) * self.params.ts,
                self.seed ^ 0x5eed,
            ),
            Some(n) => {
                let parties = 2 + u64::from(third.is_some());
                (
                    (n as u64 + 8) * (self.params.tr + 100_000) + parties * 400_000_000,
                    self.seed ^ 0x711c,
                )
            }
        };
        let mut threads = vec![
            ThreadHandle::new(endpoints.sender_pid, &mut sender),
            ThreadHandle::with_probe(endpoints.receiver_pid, &mut receiver, probe),
        ];
        if let Some((pid, prog)) = third.as_mut() {
            threads.push(ThreadHandle::new(*pid, &mut **prog));
        }
        let report = match self.sharing {
            Sharing::HyperThreaded => {
                HyperThreaded::new(sched_seed).run(machine, &mut threads, limit)
            }
            Sharing::TimeSliced => TimeSliced::new(sched_seed).run(machine, &mut threads, limit),
        };

        Ok(CovertRun {
            samples: receiver.into_samples(),
            hit_threshold: self.platform.hit_threshold(),
            rate_bps: self.platform.rate_bps(self.params.ts),
            report,
        })
    }

    fn wire(&self, machine: &mut Machine) -> (Endpoints, LruReceiver) {
        let (sender_pid, receiver_pid) = match self.variant {
            Variant::SharedMemoryThreads => {
                let p = machine.create_process();
                (p, p)
            }
            _ => (machine.create_process(), machine.create_process()),
        };
        let endpoints = match self.variant {
            Variant::SharedMemory | Variant::SharedMemoryThreads => {
                setup::alg1(machine, sender_pid, receiver_pid, self.params.target_set)
            }
            Variant::NoSharedMemory => {
                setup::alg2(machine, sender_pid, receiver_pid, self.params.target_set)
            }
        };
        let receiver = LruReceiver::new(
            endpoints.receiver_lines.clone(),
            self.params.d,
            self.params.tr,
        );
        (endpoints, receiver)
    }
}

/// A party sharing the core with the sender and receiver: its process
/// and the program it runs.
pub type ThirdParty = (Pid, Box<dyn Program>);

/// One point of a time-sliced percent-of-ones grid (Figs. 6, 8, 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPoint {
    /// Channel parameters of the point (`d`, target set, `Ts`, `Tr`).
    pub params: ChannelParams,
    /// The constant bit the sender holds.
    pub bit: bool,
    /// Seed of this point's run.
    pub seed: u64,
}

/// The time-sliced constant-bit experiment behind Figs. 6, 8, 15: the
/// sender sends only `point.bit`, the receiver takes `n_samples`
/// measurements at period `Tr`, and the result is the fraction of
/// measurements the receiver classifies as `1`.
///
/// The caller supplies the machine (its replacement policy and
/// inclusion model) and the third party, if any: `third_party` runs
/// once the channel endpoints are wired and returns the process to
/// time-slice the core with — `|_| None` for a quiet machine,
/// [`NoiseModel::spawn`] for a parametric interference model,
/// [`benign_process`] for the §V-B co-runner.
///
/// # Errors
///
/// Returns [`ParamError`] if the parameters do not fit the machine's
/// L1 geometry.
pub fn percent_ones(
    machine: &mut Machine,
    platform: Platform,
    variant: Variant,
    point: GridPoint,
    n_samples: usize,
    third_party: impl FnOnce(&mut Machine) -> Option<ThirdParty>,
) -> Result<f64, ParamError> {
    let cfg = CovertConfig {
        platform,
        params: point.params,
        variant,
        sharing: Sharing::TimeSliced,
        message: vec![point.bit],
        seed: point.seed,
    };
    let run = cfg.run_wired(machine, Some(n_samples), third_party)?;
    let convention = match variant {
        Variant::SharedMemory | Variant::SharedMemoryThreads => BitConvention::HitIsOne,
        Variant::NoSharedMemory => BitConvention::MissIsOne,
    };
    Ok(decode::percent_ones(
        &run.samples,
        run.hit_threshold,
        convention,
    ))
}

/// The benign third process of §V-B ("any other processes running
/// during Tr could pollute the target set and introduce much noise" —
/// the reason the paper could not observe time-sliced Algorithm 2 at
/// all): it touches random lines of a 256-line buffer, polluting every
/// L1 set including the target. Pass it to [`percent_ones`] as
/// `|m| benign_process(m, seed)`.
pub fn benign_process(machine: &mut Machine, seed: u64) -> Option<ThirdParty> {
    use exec_sim::noise::RandomTouches;

    let pid = machine.create_process();
    let buf = machine.alloc_pages(pid, 4);
    let touches = RandomTouches::new(buf, 4 * 64, 64, 60_000, seed ^ 0x0153);
    Some((pid, Box::new(touches)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{self, BitConvention};
    use crate::edit_distance::error_rate;

    fn alternating(n: usize) -> Vec<bool> {
        (0..n).map(|i| i % 2 == 1).collect()
    }

    #[test]
    fn alg1_hyperthreaded_transfers_alternating_bits() {
        let msg = alternating(20);
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params: ChannelParams::paper_alg1_default(),
            variant: Variant::SharedMemory,
            sharing: Sharing::HyperThreaded,
            message: msg.clone(),
            seed: 1,
        }
        .run()
        .unwrap();
        assert!(run.samples.len() > 100, "receiver must sample densely");
        let bits = decode::bits_by_window(
            &run.samples,
            6_000,
            run.hit_threshold,
            BitConvention::HitIsOne,
        );
        let err = error_rate(&msg, &bits[..msg.len().min(bits.len())]);
        assert!(err < 0.15, "Alg1 HT error rate too high: {err}");
    }

    #[test]
    fn alg2_hyperthreaded_transfers_alternating_bits() {
        let msg = alternating(20);
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params: ChannelParams::paper_alg2_default(),
            variant: Variant::NoSharedMemory,
            sharing: Sharing::HyperThreaded,
            message: msg.clone(),
            seed: 2,
        }
        .run()
        .unwrap();
        let bits = decode::bits_by_window_ratio(
            &run.samples,
            6_000,
            run.hit_threshold,
            BitConvention::MissIsOne,
            0.25,
        );
        let err = error_rate(&msg, &bits[..msg.len().min(bits.len())]);
        assert!(err < 0.2, "Alg2 HT error rate too high: {err}");
    }

    #[test]
    fn sending_all_zeros_keeps_line0_evicted_alg1() {
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params: ChannelParams::paper_alg1_default(),
            variant: Variant::SharedMemory,
            sharing: Sharing::HyperThreaded,
            message: vec![false; 8],
            seed: 3,
        }
        .run()
        .unwrap();
        let misses = run
            .samples
            .iter()
            .filter(|s| s.measured > run.hit_threshold)
            .count();
        // m=0: receiver's 9 accesses into the 8-way set evict line 0
        // nearly every iteration (Table I sequential condition).
        assert!(
            misses as f64 / run.samples.len() as f64 > 0.8,
            "expected mostly misses, got {misses}/{}",
            run.samples.len()
        );
    }

    #[test]
    fn sending_all_ones_keeps_line0_hot_alg1() {
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params: ChannelParams::paper_alg1_default(),
            variant: Variant::SharedMemory,
            sharing: Sharing::HyperThreaded,
            message: vec![true; 8],
            seed: 4,
        }
        .run()
        .unwrap();
        let hits = run
            .samples
            .iter()
            .filter(|s| s.measured <= run.hit_threshold)
            .count();
        assert!(
            hits as f64 / run.samples.len() as f64 > 0.8,
            "expected mostly hits, got {hits}/{}",
            run.samples.len()
        );
    }

    #[test]
    fn invalid_params_surface_as_errors() {
        let mut params = ChannelParams::paper_alg1_default();
        params.d = 0;
        let res = CovertConfig {
            platform: Platform::e5_2690(),
            params,
            variant: Variant::SharedMemory,
            sharing: Sharing::HyperThreaded,
            message: vec![true],
            seed: 0,
        }
        .run();
        assert!(res.is_err());
    }

    #[test]
    fn time_sliced_percent_ones_distinguishes_bits() {
        // A scaled-down Fig. 6 point: d=8, Tr=1e8.
        let platform = Platform::e5_2690();
        let params = ChannelParams {
            d: 8,
            target_set: 0,
            ts: 100_000_000,
            tr: 100_000_000,
        };
        let run = |bit| {
            let mut machine = Machine::new(platform.arch, PolicyKind::TreePlru, 5);
            let point = GridPoint {
                params,
                bit,
                seed: 5,
            };
            percent_ones(
                &mut machine,
                platform,
                Variant::SharedMemory,
                point,
                60,
                |_| None,
            )
            .unwrap()
        };
        let (p0, p1) = (run(false), run(true));
        assert!(
            p1 > p0 + 0.1,
            "sending 1 must yield more observed 1s (got p0={p0:.2}, p1={p1:.2})"
        );
        assert!(
            p0 < 0.1,
            "sending 0 should read as almost all 0s, got {p0:.2}"
        );
    }
}

/// Ignored diagnostic dumps used while calibrating the model against
/// the paper (run with `cargo test -- --ignored --nocapture`).
#[cfg(test)]
mod diagnostics_alg2 {
    use super::*;
    use crate::decode::{self, BitConvention};

    #[test]
    #[ignore]
    fn dump_alg2() {
        let msg: Vec<bool> = (0..20).map(|i| i % 2 == 1).collect();
        let run = CovertConfig {
            platform: Platform::e5_2690(),
            params: ChannelParams::paper_alg2_default(),
            variant: Variant::NoSharedMemory,
            sharing: Sharing::HyperThreaded,
            message: msg.clone(),
            seed: 2,
        }
        .run()
        .unwrap();
        println!(
            "threshold={} samples={}",
            run.hit_threshold,
            run.samples.len()
        );
        // per-window fraction of misses
        let ts = 6000u64;
        let mut windows: Vec<Vec<u32>> = vec![];
        for s in &run.samples {
            let w = (s.at / ts) as usize;
            while windows.len() <= w {
                windows.push(vec![]);
            }
            windows[w].push(s.measured);
        }
        for (w, vals) in windows.iter().enumerate() {
            let miss = vals.iter().filter(|&&v| v > run.hit_threshold).count();
            println!(
                "w{:02} sent={} miss_frac={:.2} n={} vals={:?}",
                w,
                msg.get(w).map(|b| *b as u8).unwrap_or(9),
                miss as f64 / vals.len().max(1) as f64,
                vals.len(),
                &vals[..vals.len().min(12)]
            );
        }
        let bits = decode::bits_by_window(
            &run.samples,
            ts,
            run.hit_threshold,
            BitConvention::MissIsOne,
        );
        println!(
            "decoded: {:?}",
            bits.iter().map(|b| *b as u8).collect::<Vec<_>>()
        );
    }
}

#[cfg(test)]
mod diagnostics_alg2_by_d {
    use super::*;

    #[test]
    #[ignore]
    fn alg2_signal_by_d() {
        for d in 1..=8 {
            let params = ChannelParams {
                d,
                target_set: 0,
                ts: 6000,
                tr: 600,
            };
            let mut fracs = (0.0, 0.0);
            for (bit, slot) in [(false, 0), (true, 1)] {
                let run = CovertConfig {
                    platform: Platform::e5_2690(),
                    params,
                    variant: Variant::NoSharedMemory,
                    sharing: Sharing::HyperThreaded,
                    message: vec![bit; 30],
                    seed: 7,
                }
                .run()
                .unwrap();
                let miss = run
                    .samples
                    .iter()
                    .filter(|s| s.measured > run.hit_threshold)
                    .count();
                let f = miss as f64 / run.samples.len() as f64;
                if slot == 0 {
                    fracs.0 = f
                } else {
                    fracs.1 = f
                }
            }
            println!("d={d} miss_frac m=0: {:.2}  m=1: {:.2}", fracs.0, fracs.1);
        }
    }
}

#[cfg(test)]
mod diagnostics_bitplru {
    use super::*;
    use cache_sim::replacement::PolicyKind;

    #[test]
    #[ignore]
    fn bitplru_sweep_d() {
        for d in 1..=8 {
            let params = ChannelParams {
                d,
                target_set: 0,
                ts: 6000,
                tr: 600,
            };
            let mut res = vec![];
            for bit in [false, true] {
                let cfg = CovertConfig {
                    platform: Platform::e5_2690(),
                    params,
                    variant: Variant::SharedMemory,
                    sharing: Sharing::HyperThreaded,
                    message: vec![bit; 30],
                    seed: 7,
                };
                let mut machine =
                    exec_sim::machine::Machine::new(cfg.platform.arch, PolicyKind::BitPlru, 7);
                let run = cfg.run_on(&mut machine, NoiseModel::None).unwrap();
                let hits = run
                    .samples
                    .iter()
                    .filter(|s| s.measured <= run.hit_threshold)
                    .count();
                res.push(hits as f64 / run.samples.len() as f64);
            }
            println!(
                "BitPlru d={d} P(hit|0)={:.2} P(hit|1)={:.2}",
                res[0], res[1]
            );
        }
    }
}
