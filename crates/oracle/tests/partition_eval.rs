//! Differential suite for the §IX-B partitioning study: the two
//! experiments of `defense::partition_eval`, which run on the
//! production [`cache_sim::replacement::SetState`], written a second
//! time against the oracle's object policies. Both must return the
//! identical `PartitionLeak` for every seed.

use cache_sim::replacement::{Domain, WayMask};
use defense::partition_eval::{dawg_partitioned_leak, shared_plru_leak, PartitionLeak};
use oracle::{PartitionedTreePlru, SetReplacement, TreePlru};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const TRIALS: usize = 2_000;

/// `shared_plru_leak` over one object [`TreePlru`] shared by both
/// domains' ways.
fn shared_plru_leak_oracle(trials: usize, seed: u64) -> PartitionLeak {
    let mut rng = SmallRng::seed_from_u64(seed);
    let receiver_ways = WayMask::single(0).with(2).with(4).with(6);
    let sender_ways = [1usize, 3, 5, 7];
    let mut flips = 0usize;
    for _ in 0..trials {
        let mut tree = TreePlru::new(8);
        for _ in 0..rng.gen_range(4..24) {
            let w = rng.gen_range(0..8);
            tree.touch(w);
        }
        let mut with_sender = tree.clone();
        for w in [0usize, 2, 4, 6] {
            tree.touch(w);
            with_sender.touch(w);
        }
        with_sender.touch(sender_ways[rng.gen_range(0..4usize)]);
        let v_quiet = tree.victim_among(receiver_ways, Domain::PRIMARY);
        let v_noisy = with_sender.victim_among(receiver_ways, Domain::PRIMARY);
        if v_quiet != v_noisy {
            flips += 1;
        }
    }
    PartitionLeak {
        victim_flip_rate: flips as f64 / trials as f64,
        trials,
    }
}

/// `dawg_partitioned_leak` over the object [`PartitionedTreePlru`].
fn dawg_partitioned_leak_oracle(trials: usize, seed: u64) -> PartitionLeak {
    let mut rng = SmallRng::seed_from_u64(seed);
    let all = WayMask::all(8);
    let mut flips = 0usize;
    for _ in 0..trials {
        let mut state = PartitionedTreePlru::new(8);
        for _ in 0..rng.gen_range(4..24) {
            let w = rng.gen_range(0..8);
            let domain = if w < 4 {
                Domain::PRIMARY
            } else {
                Domain::SECONDARY
            };
            state.on_access(w, domain);
        }
        let mut with_sender = state.clone();
        for w in 0..4 {
            state.on_access(w, Domain::PRIMARY);
            with_sender.on_access(w, Domain::PRIMARY);
        }
        with_sender.on_access(rng.gen_range(4..8), Domain::SECONDARY);
        let v_quiet = state.victim_among(all, Domain::PRIMARY);
        let v_noisy = with_sender.victim_among(all, Domain::PRIMARY);
        if v_quiet != v_noisy {
            flips += 1;
        }
    }
    PartitionLeak {
        victim_flip_rate: flips as f64 / trials as f64,
        trials,
    }
}

#[test]
fn shared_plru_leak_matches_the_object_tree() {
    for seed in 1..=8 {
        assert_eq!(
            shared_plru_leak(TRIALS, seed),
            shared_plru_leak_oracle(TRIALS, seed),
            "seed {seed}"
        );
    }
}

#[test]
fn dawg_partitioned_leak_matches_the_object_partitioned_tree() {
    for seed in 1..=8 {
        assert_eq!(
            dawg_partitioned_leak(TRIALS, seed),
            dawg_partitioned_leak_oracle(TRIALS, seed),
            "seed {seed}"
        );
    }
}
