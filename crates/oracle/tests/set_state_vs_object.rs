//! Differential suite: the production packed replacement logic,
//! driven through [`SetState`], against the object policies of the
//! oracle, for all six policy kinds.
//!
//! Every update and every victim choice must agree: hits, fills and
//! mask-restricted victim requests from both protection domains.
//! Random-policy seeding across the sets of a cache is pinned
//! separately, by `tests/layout_equivalence.rs` (`Cache` vs
//! `RefCache`).

use cache_sim::replacement::{Domain, PolicyKind, SetState, WayMask};
use oracle::{Policy, SetReplacement};
use proptest::prelude::*;

/// The way counts every policy kind accepts (Tree-PLRU variants need
/// a power of two, the partitioned one at least 2).
const WAYS: [usize; 6] = [2, 4, 8, 16, 32, 64];

fn domain(secondary: bool) -> Domain {
    if secondary {
        Domain::SECONDARY
    } else {
        Domain::PRIMARY
    }
}

/// The mixed access/fill/victim schedule the packed layout was first
/// validated on: four independent sets, 4,000 steps, primary-domain
/// updates, random masks, and secondary-domain victim requests on the
/// partitioned policy.
#[test]
fn set_state_matches_object_policies_on_the_mixed_schedule() {
    for kind in PolicyKind::ALL {
        let ways = 8;
        let sets = 4;
        let seeds = [0xfeed, 0xfeed ^ 1, 0xfeed ^ 2, 0xfeed ^ 3];
        let mut packed: Vec<SetState> = seeds
            .iter()
            .map(|&s| SetState::new(kind, ways, s))
            .collect();
        let mut reference: Vec<Policy> =
            seeds.iter().map(|&s| Policy::new(kind, ways, s)).collect();
        let mut x = 123u64;
        for step in 0..4000 {
            // Cheap deterministic schedule driver.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let set = (x >> 33) as usize % sets;
            let way = (x >> 21) as usize % ways;
            match step % 3 {
                0 => {
                    packed[set].on_access(way, Domain::PRIMARY);
                    reference[set].on_access(way, Domain::PRIMARY);
                }
                1 => {
                    packed[set].on_fill(way, Domain::PRIMARY);
                    reference[set].on_fill(way, Domain::PRIMARY);
                }
                _ => {
                    let mask_bits = 1 | ((x >> 5) & WayMask::all(ways).bits());
                    let mask = WayMask::from_bits(mask_bits);
                    let domain = if kind == PolicyKind::PartitionedTreePlru && x & 1 == 1 {
                        Domain::SECONDARY
                    } else {
                        Domain::PRIMARY
                    };
                    assert_eq!(
                        packed[set].victim_among(mask, domain),
                        reference[set].victim_among(mask, domain),
                        "{kind} diverged at step {step} (set {set}, mask {mask})"
                    );
                }
            }
        }
    }
}

/// Full-mask victim requests draw exactly the object `RandomRepl`
/// stream for the same seed.
#[test]
fn random_full_mask_victims_follow_the_object_stream() {
    let ways = 8;
    for seed in [0u64, 9, 0x9e37_79b9] {
        let mut packed = SetState::new(PolicyKind::Random, ways, seed);
        let mut reference = Policy::new(PolicyKind::Random, ways, seed);
        for i in 0..200 {
            let all = WayMask::all(ways);
            assert_eq!(
                packed.victim_among(all, Domain::PRIMARY),
                reference.victim_among(all, Domain::PRIMARY),
                "seed {seed}: draw {i} diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random operation streams: `op` 0 = hit, 1 = fill, 2 = victim
    /// request; the victim mask is `bits` restricted to the set, plus
    /// the operation's way so it is never empty; `secondary` picks
    /// the requesting domain.
    #[test]
    fn set_state_agrees_with_the_object_policy(
        shape in (0usize..6, 0u64..1 << 32),
        ops in collection::vec(((0u8..3, 0usize..64), (0u64..u64::MAX, any::<bool>())), 0..400),
    ) {
        let (ways_idx, seed) = shape;
        let ways = WAYS[ways_idx];
        let full = WayMask::all(ways).bits();
        for kind in PolicyKind::ALL {
            let mut packed = SetState::new(kind, ways, seed);
            let mut reference = Policy::new(kind, ways, seed);
            for (step, &((op, way), (bits, secondary))) in ops.iter().enumerate() {
                let way = way % ways;
                let domain = domain(secondary);
                match op {
                    0 => {
                        packed.on_access(way, domain);
                        reference.on_access(way, domain);
                    }
                    1 => {
                        packed.on_fill(way, domain);
                        reference.on_fill(way, domain);
                    }
                    _ => {
                        let mask = WayMask::from_bits((bits & full) | 1 << way);
                        prop_assert_eq!(
                            packed.victim_among(mask, domain),
                            reference.victim_among(mask, domain),
                            "{} ({} ways, seed {}) diverged at step {} (mask {}, {})",
                            kind, ways, seed, step, mask, domain
                        );
                    }
                }
            }
            // Both end in the same state: every full-mask victim
            // request from either domain agrees.
            for secondary in [false, true] {
                let all = WayMask::all(ways);
                prop_assert_eq!(
                    packed.clone().victim_among(all, domain(secondary)),
                    reference.clone().victim_among(all, domain(secondary)),
                    "{} ({} ways) final state differs", kind, ways
                );
            }
        }
    }
}
