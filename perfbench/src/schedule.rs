//! Inputs derived from the benchmark seed: the master seed the
//! compute workloads run under, and the `service-mix` request
//! schedule. The program under test only ever sees the generated
//! requests.

use lru_channel::trials::derive_seed;
use scenario::Value;

/// Artifacts the service requests draw from: each computes in
/// well under 10 ms at default trials, so request latency is set by
/// admission, the journal, result-cache I/O and framing rather than
/// by simulation. Between them they run lockstep covert, time-sliced,
/// encoding-latency, trace and two-level-hierarchy cells.
const SERVICE_ARTIFACTS: [&str; 5] = ["fig5", "fig8", "table5", "fig14", "l2_lru_channel"];

/// Rounds of each class in one pass; every round issues one request
/// per client, so a pass yields `2 × ROUNDS_PER_CLASS` samples of
/// each class.
const ROUNDS_PER_CLASS: usize = 20;

/// Requests primed into the result cache during set-up.
const WARM_SET: usize = 10;

/// Closed-loop clients (one request in flight each).
pub const CLIENTS: usize = 2;

/// The request classes of `service-mix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A fresh request: misses the cache, computes, stores, fsyncs.
    Cold,
    /// A repeat of a request primed during set-up: a cache hit.
    Warm,
    /// Both clients send the same fresh request at once.
    Coalesced,
}

impl Class {
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One artifact request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    pub artifact: &'static str,
    pub seed: u64,
}

impl Req {
    /// The NDJSON request the service receives.
    pub fn to_json(self) -> Value {
        Value::obj()
            .with("cmd", "run")
            .with("artifact", self.artifact)
            .with("seed", self.seed)
    }
}

/// One closed-loop round: each client sends its request, and both
/// start together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    pub class: Class,
    pub reqs: [Req; CLIENTS],
}

/// Stream tags keeping the seed families of different inputs apart.
const COMPUTE: u64 = 1;
const WARM: u64 = 2;
const FRESH: u64 = 3;
const ORDER: u64 = 4;

/// The master seed the compute workloads run their artifacts under.
pub fn compute_seed(seed: u64) -> u64 {
    derive_seed(seed, COMPUTE)
}

/// The requests primed during set-up and repeated as warm traffic;
/// each service artifact appears equally often.
pub fn warm_set(seed: u64) -> Vec<Req> {
    (0..WARM_SET)
        .map(|i| Req {
            artifact: SERVICE_ARTIFACTS[i % SERVICE_ARTIFACTS.len()],
            seed: derive_seed(derive_seed(seed, WARM), i as u64),
        })
        .collect()
}

/// The rounds of pass `pass`: a fixed number per class, each service
/// artifact equally often within a class, so the work per pass does
/// not depend on the seed — which only shuffles the order and sets
/// the fresh request seeds.
pub fn pass_schedule(seed: u64, pass: u64, warm: &[Req]) -> Vec<Round> {
    let fresh_base = derive_seed(derive_seed(seed, FRESH), pass);
    let fresh = |n: u64, artifact| Req {
        artifact,
        seed: derive_seed(fresh_base, n),
    };
    let art = |k: usize| SERVICE_ARTIFACTS[k % SERVICE_ARTIFACTS.len()];
    let mut rounds = Vec::with_capacity(3 * ROUNDS_PER_CLASS);
    for i in 0..ROUNDS_PER_CLASS {
        let (a, b) = (2 * i, 2 * i + 1);
        rounds.push(Round {
            class: Class::Cold,
            reqs: [fresh(a as u64, art(a)), fresh(b as u64, art(b))],
        });
        rounds.push(Round {
            class: Class::Warm,
            reqs: [warm[a % warm.len()], warm[b % warm.len()]],
        });
        let shared = fresh((2 * ROUNDS_PER_CLASS + i) as u64, art(i));
        rounds.push(Round {
            class: Class::Coalesced,
            reqs: [shared; CLIENTS],
        });
    }
    // Fisher–Yates with a seed-derived stream.
    let order = derive_seed(derive_seed(seed, ORDER), pass);
    for i in (1..rounds.len()).rev() {
        let j = (derive_seed(order, i as u64) % (i as u64 + 1)) as usize;
        rounds.swap(i, j);
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_different() {
        let a = pass_schedule(7, 0, &warm_set(7));
        assert_eq!(a, pass_schedule(7, 0, &warm_set(7)));
        assert_ne!(a, pass_schedule(8, 0, &warm_set(8)));
        assert_ne!(a, pass_schedule(7, 1, &warm_set(7)));
        assert_ne!(warm_set(7), warm_set(8));
    }

    #[test]
    fn every_pass_has_the_same_mix() {
        for seed in [1, 2, 3] {
            let warm = warm_set(seed);
            let rounds = pass_schedule(seed, 0, &warm);
            for class in [Class::Cold, Class::Warm, Class::Coalesced] {
                let of_class: Vec<_> = rounds.iter().filter(|r| r.class == class).collect();
                assert_eq!(of_class.len(), ROUNDS_PER_CLASS);
                let mut per_artifact = [0usize; SERVICE_ARTIFACTS.len()];
                for r in &of_class {
                    for q in r.reqs {
                        let k = SERVICE_ARTIFACTS.iter().position(|&a| a == q.artifact);
                        per_artifact[k.unwrap()] += 1;
                    }
                }
                assert!(per_artifact.iter().all(|&n| n == per_artifact[0]));
            }
            for r in rounds.iter().filter(|r| r.class == Class::Coalesced) {
                assert_eq!(r.reqs[0], r.reqs[1]);
            }
            for r in rounds.iter().filter(|r| r.class == Class::Warm) {
                assert!(r.reqs.iter().all(|q| warm.contains(q)));
            }
            // Fresh requests never repeat a warm one or each other.
            let mut fresh: Vec<_> = rounds
                .iter()
                .filter(|r| r.class != Class::Warm)
                .flat_map(|r| r.reqs)
                .collect();
            fresh.dedup();
            let n = fresh.len();
            fresh.sort_by_key(|q| q.seed);
            fresh.dedup();
            assert_eq!(fresh.len(), n);
            assert!(fresh.iter().all(|q| !warm.contains(q)));
        }
    }
}
