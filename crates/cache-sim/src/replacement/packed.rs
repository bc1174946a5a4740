//! Packed replacement-policy logic over per-set state words.
//!
//! The replacement state of a set is a handful of `u64` words. In
//! the flat cache layout ([`crate::storage`]) they live *inside the
//! set's own storage row*, directly after its tags and valid word;
//! [`SetState`] owns the words of one standalone set. Per policy:
//!
//! * Tree-PLRU / Bit-PLRU / partitioned Tree-PLRU — one word (the
//!   8-way trees of the paper need 7 bits; a word keeps every
//!   geometry up to 64 ways representable);
//! * true LRU and FIFO — one clock word followed by `ways` stamp
//!   words;
//! * Random — no words at all (one generator per set lives in
//!   [`ReplPolicy`], seeded from [`set_seed`]).
//!
//! [`ReplPolicy`] holds the policy *logic* plus whatever is shared
//! across sets (Tree-PLRU touch masks and victim table, the Random
//! generators).

use super::{Domain, PolicyKind, WayMask};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Derives the per-set seed for randomized policies.
///
/// Uses `wrapping_mul` so the derivation is identical on every
/// target width (the old expression multiplied in `usize` and could
/// overflow on 32-bit hosts).
#[inline]
pub(crate) fn set_seed(seed: u64, set: u64) -> u64 {
    seed ^ set.wrapping_mul(0x9e37_79b9)
}

/// Precomputed Tree-PLRU root-path update masks: touching way `w`
/// becomes `tree = (tree & !masks[w][0]) | masks[w][1]`. The pair is
/// stored adjacently so one touch reads one cache line.
#[derive(Debug, Clone)]
pub(crate) struct TreeTouch {
    /// `[clear, set]` word pair per way.
    masks: Vec<[u64; 2]>,
}

impl TreeTouch {
    fn new(ways: usize) -> Self {
        let mut masks = vec![[0u64; 2]; ways];
        for (w, m) in masks.iter_mut().enumerate() {
            let mut node = 0usize;
            let mut lo = 0usize;
            let mut size = ways;
            while size > 1 {
                let half = size / 2;
                m[0] |= 1 << node;
                if w < lo + half {
                    // Accessed way in the left subtree: point the
                    // node right.
                    m[1] |= 1 << node;
                    node = 2 * node + 1;
                } else {
                    node = 2 * node + 2;
                    lo += half;
                }
                size = half;
            }
        }
        Self { masks }
    }

    /// Applies the touch of `way` to a tree word.
    #[inline]
    fn apply(&self, tree: u64, way: usize) -> u64 {
        let [clear, set] = self.masks[way];
        (tree & !clear) | set
    }
}

/// Victim of every possible tree state, for small way counts
/// (`ways <= 8` ⇒ at most 128 entries).
fn build_victim_tbl(ways: usize) -> Vec<u8> {
    if ways > 8 {
        return Vec::new();
    }
    let states = 1usize << (ways - 1);
    (0..states as u64)
        .map(|tree| tree_walk(tree, ways) as u8)
        .collect()
}

/// The read-only Tree-PLRU victim walk with every way allowed.
#[inline]
fn tree_walk(tree: u64, ways: usize) -> usize {
    let mut node = 0usize;
    let mut lo = 0usize;
    let mut size = ways;
    while size > 1 {
        let half = size / 2;
        if (tree >> node) & 1 == 1 {
            node = 2 * node + 2;
            lo += half;
        } else {
            node = 2 * node + 1;
        }
        size = half;
    }
    lo
}

/// Replacement-policy logic over per-set state words.
///
/// The state words themselves live in the owning
/// [`crate::storage::SoaStore`] rows and are passed in as `repl`
/// slices; see the module docs for the per-policy word layout.
#[derive(Debug, Clone)]
pub(crate) enum ReplPolicy {
    /// True LRU: `repl = [clock, age(way 0), .., age(way N-1)]`.
    Lru,
    /// Tree-PLRU: `repl = [tree bits]`.
    TreePlru {
        /// Per-way root-path touch masks.
        touch: TreeTouch,
        /// `victim_tbl[tree]` = victim way, for `ways <= 8`
        /// (empty otherwise — the walk is used instead).
        victim_tbl: Vec<u8>,
    },
    /// Bit-PLRU: `repl = [MRU bits]`.
    BitPlru,
    /// FIFO: `repl = [clock, stamp(way 0), .., stamp(way N-1)]`.
    Fifo,
    /// Random: no state words; one generator per set.
    Random {
        /// Per-set generators.
        rngs: Vec<SmallRng>,
    },
    /// DAWG-style partitioned Tree-PLRU: `repl = [packed half
    /// trees]` (primary half in the low 32 bits, secondary in the
    /// high 32).
    PartitionedTreePlru {
        /// Touch masks for one half-tree (both halves share them).
        touch: TreeTouch,
    },
}

impl ReplPolicy {
    /// Builds the policy logic for `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the per-set policies:
    /// `ways` must be in `1..=64`, and the Tree-PLRU variants need a
    /// power of two (the partitioned variant additionally needs
    /// `ways >= 2`).
    pub(crate) fn new(kind: PolicyKind, sets: usize, ways: usize, seed: u64) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        match kind {
            PolicyKind::Lru => ReplPolicy::Lru,
            PolicyKind::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "Tree-PLRU requires a power-of-two way count <= 64, got {ways}"
                );
                ReplPolicy::TreePlru {
                    touch: TreeTouch::new(ways),
                    victim_tbl: build_victim_tbl(ways),
                }
            }
            PolicyKind::BitPlru => ReplPolicy::BitPlru,
            PolicyKind::Fifo => ReplPolicy::Fifo,
            PolicyKind::Random => ReplPolicy::Random {
                rngs: (0..sets)
                    .map(|s| SmallRng::seed_from_u64(set_seed(seed, s as u64)))
                    .collect(),
            },
            PolicyKind::PartitionedTreePlru => {
                assert!(
                    ways >= 2 && ways.is_power_of_two(),
                    "partitioned Tree-PLRU requires a power-of-two way count >= 2, got {ways}"
                );
                ReplPolicy::PartitionedTreePlru {
                    touch: TreeTouch::new(ways / 2),
                }
            }
        }
    }

    /// Words of per-set replacement state this policy keeps in each
    /// storage row.
    pub(crate) fn words_per_set(kind: PolicyKind, ways: usize) -> usize {
        match kind {
            PolicyKind::Lru | PolicyKind::Fifo => 1 + ways,
            PolicyKind::TreePlru | PolicyKind::BitPlru | PolicyKind::PartitionedTreePlru => 1,
            PolicyKind::Random => 0,
        }
    }

    /// Records a hit on `way` (`repl` = this set's state words).
    #[inline]
    pub(crate) fn on_access(
        &self,
        repl: &mut [u64],
        ways: usize,
        full_mask: u64,
        way: usize,
        _domain: Domain,
    ) {
        debug_assert!(way < ways, "way {way} out of range");
        match self {
            ReplPolicy::Lru => {
                repl[0] += 1;
                repl[1 + way] = repl[0];
            }
            ReplPolicy::TreePlru { touch, .. } => {
                repl[0] = touch.apply(repl[0], way);
            }
            ReplPolicy::BitPlru => {
                let mut mru = repl[0] | (1 << way);
                if mru == full_mask {
                    // Generation rollover, exactly as the paper words
                    // it: all MRU-bits reset to 0.
                    mru = 0;
                }
                repl[0] = mru;
            }
            // FIFO state only changes on fills; Random has no state.
            ReplPolicy::Fifo | ReplPolicy::Random { .. } => {}
            ReplPolicy::PartitionedTreePlru { touch } => {
                let half = ways / 2;
                let (shift, local) = if way < half {
                    (0, way)
                } else {
                    (32, way - half)
                };
                let tree = (repl[0] >> shift) & 0xffff_ffff;
                let tree = touch.apply(tree, local);
                repl[0] = (repl[0] & !(0xffff_ffffu64 << shift)) | (tree << shift);
            }
        }
    }

    /// Records that a new line was installed in `way`.
    #[inline]
    pub(crate) fn on_fill(
        &self,
        repl: &mut [u64],
        ways: usize,
        full_mask: u64,
        way: usize,
        domain: Domain,
    ) {
        match self {
            ReplPolicy::Fifo => {
                debug_assert!(way < ways, "way {way} out of range");
                repl[0] += 1;
                repl[1 + way] = repl[0];
            }
            ReplPolicy::Random { .. } => {}
            _ => self.on_access(repl, ways, full_mask, way, domain),
        }
    }

    /// Chooses a victim way with every way allowed — the demand-miss
    /// fast path, skipping all mask handling.
    ///
    /// Equivalent to `victim_among` with a full mask; partitioned
    /// policies still confine the victim to `domain`'s half.
    #[inline]
    pub(crate) fn victim_full(
        &mut self,
        set: usize,
        repl: &[u64],
        ways: usize,
        domain: Domain,
    ) -> usize {
        match self {
            ReplPolicy::Lru | ReplPolicy::Fifo => min_stamp_full(&repl[1..1 + ways]),
            ReplPolicy::TreePlru { victim_tbl, .. } => {
                if victim_tbl.is_empty() {
                    tree_walk(repl[0], ways)
                } else {
                    // One table load for the paper's <= 8-way caches.
                    victim_tbl[repl[0] as usize] as usize
                }
            }
            ReplPolicy::BitPlru => {
                // The rollover invariant guarantees a clear bit.
                (!repl[0] & WayMask::all(ways).bits()).trailing_zeros() as usize
            }
            ReplPolicy::Random { rngs } => rngs[set].gen_range(0..ways),
            ReplPolicy::PartitionedTreePlru { .. } => {
                self.victim_among(set, repl, ways, WayMask::all(ways), domain)
            }
        }
    }

    /// Chooses a victim way from `allowed`.
    ///
    /// # Panics
    ///
    /// Panics if `allowed` contains no way below `ways` — mirroring
    /// [`super::assert_valid_victim_request`].
    #[inline]
    pub(crate) fn victim_among(
        &mut self,
        set: usize,
        repl: &[u64],
        ways: usize,
        allowed: WayMask,
        domain: Domain,
    ) -> usize {
        super::assert_valid_victim_request(ways, allowed);
        let usable = allowed.intersect(WayMask::all(ways));
        match self {
            ReplPolicy::Lru | ReplPolicy::Fifo => min_stamp_way(&repl[1..1 + ways], usable),
            ReplPolicy::TreePlru { .. } => tree_victim(repl[0], ways, usable),
            ReplPolicy::BitPlru => {
                // Lowest allowed way with a clear MRU bit, falling
                // back to the lowest allowed way when every allowed
                // way is marked.
                let clear = !repl[0] & usable.bits();
                if clear != 0 {
                    clear.trailing_zeros() as usize
                } else {
                    usable.first().expect("mask checked non-empty")
                }
            }
            ReplPolicy::Random { rngs } => {
                let k = rngs[set].gen_range(0..usable.count());
                nth_way(usable, k)
            }
            ReplPolicy::PartitionedTreePlru { .. } => {
                let half = ways / 2;
                let own_bits = if domain == Domain::SECONDARY {
                    usable.bits() >> half << half
                } else {
                    usable.bits() & ((1u64 << half) - 1)
                };
                if own_bits == 0 {
                    // Requesting domain has no allowed way: fall back
                    // to the lowest allowed way without consulting
                    // the other domain's tree.
                    return usable.first().expect("mask checked non-empty");
                }
                let (shift, base) = if domain == Domain::SECONDARY {
                    (32, half)
                } else {
                    (0, 0)
                };
                let tree = (repl[0] >> shift) & 0xffff_ffff;
                let local = WayMask::from_bits(own_bits >> base);
                base + tree_victim(tree, half, local)
            }
        }
    }
}

/// Follows the LRU pointers from the root, detouring around subtrees
/// with no allowed way. Read-only: a victim query never changes the
/// tree.
#[inline]
fn tree_victim(tree: u64, ways: usize, allowed: WayMask) -> usize {
    let mask = allowed.bits();
    let mut node = 0usize;
    let mut lo = 0usize;
    let mut size = ways;
    while size > 1 {
        let half = size / 2;
        let left = mask & (((1u64 << half) - 1) << lo);
        let right = mask & (((1u64 << half) - 1) << (lo + half));
        let go_right = match (left != 0, right != 0) {
            (true, true) => (tree >> node) & 1 == 1,
            (false, true) => true,
            (true, false) => false,
            (false, false) => unreachable!("mask checked non-empty"),
        };
        if go_right {
            node = 2 * node + 2;
            lo += half;
        } else {
            node = 2 * node + 1;
        }
        size = half;
    }
    lo
}

/// Way with the smallest `(stamp, way)` key among the allowed ways.
#[inline]
fn min_stamp_way(stamps: &[u64], allowed: WayMask) -> usize {
    let mut m = allowed.bits();
    let mut best_way = usize::MAX;
    let mut best_stamp = u64::MAX;
    while m != 0 {
        let w = m.trailing_zeros() as usize;
        m &= m - 1;
        // Strict `<` keeps the lowest way on ties, because ways are
        // visited in ascending order.
        if stamps[w] < best_stamp {
            best_stamp = stamps[w];
            best_way = w;
        }
    }
    debug_assert_ne!(best_way, usize::MAX, "mask checked non-empty");
    best_way
}

/// Way with the smallest `(stamp, way)` key over a full set slice.
#[inline]
fn min_stamp_full(stamps: &[u64]) -> usize {
    let mut best = 0usize;
    let mut best_val = stamps[0];
    for (w, &s) in stamps.iter().enumerate().skip(1) {
        // Strict `<` keeps the lowest way on ties.
        if s < best_val {
            best_val = s;
            best = w;
        }
    }
    best
}

/// `k`-th lowest way in the mask.
#[inline]
fn nth_way(mask: WayMask, k: usize) -> usize {
    let mut m = mask.bits();
    for _ in 0..k {
        m &= m - 1;
    }
    debug_assert_ne!(m, 0, "nth_way out of range");
    m.trailing_zeros() as usize
}

/// The replacement state of one standalone cache set: the packed
/// policy logic of [`crate::cache::Cache`] plus the set's own state
/// words.
///
/// Experiments that study a single set's replacement state directly
/// — the §IX-B partitioning study of `defense::partition_eval` —
/// drive it with the same updates a cache applies on hits and fills,
/// and snapshot it with `Clone`. For [`PolicyKind::Random`] the seed
/// seeds the set's generator exactly as set 0 of a cache built with
/// that seed.
///
/// ```
/// use cache_sim::replacement::{Domain, PolicyKind, SetState, WayMask};
/// let mut p = SetState::new(PolicyKind::PartitionedTreePlru, 8, 0);
/// let before = p.victim_among(WayMask::all(8), Domain::PRIMARY);
/// // The attacker (secondary domain) hammers its own ways...
/// for w in 4..8 {
///     p.on_access(w, Domain::SECONDARY);
/// }
/// // ...but the victim's next replacement decision is unchanged.
/// assert_eq!(p.victim_among(WayMask::all(8), Domain::PRIMARY), before);
/// ```
#[derive(Debug, Clone)]
pub struct SetState {
    policy: ReplPolicy,
    words: Vec<u64>,
    ways: usize,
}

impl SetState {
    /// Power-on state of policy `kind` for a set of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not in `1..=64`, or if `kind` is a
    /// Tree-PLRU variant and `ways` is not a power of two (at least 2
    /// for the partitioned variant).
    pub fn new(kind: PolicyKind, ways: usize, seed: u64) -> Self {
        Self {
            policy: ReplPolicy::new(kind, 1, ways, seed),
            words: vec![0; ReplPolicy::words_per_set(kind, ways)],
            ways,
        }
    }

    /// Records a hit on `way` by `domain`.
    ///
    /// # Panics
    ///
    /// Panics if `way` is not a way of this set (likewise
    /// [`on_fill`](Self::on_fill)).
    pub fn on_access(&mut self, way: usize, domain: Domain) {
        assert!(way < self.ways, "way {way} out of range");
        let full = WayMask::all(self.ways).bits();
        self.policy
            .on_access(&mut self.words, self.ways, full, way, domain);
    }

    /// Records that `domain` installed a new line in `way`.
    pub fn on_fill(&mut self, way: usize, domain: Domain) {
        assert!(way < self.ways, "way {way} out of range");
        let full = WayMask::all(self.ways).bits();
        self.policy
            .on_fill(&mut self.words, self.ways, full, way, domain);
    }

    /// Chooses a victim way from `allowed` on behalf of `domain`
    /// (draws from the generator under [`PolicyKind::Random`]).
    ///
    /// # Panics
    ///
    /// Panics if `allowed` contains no way of this set.
    pub fn victim_among(&mut self, allowed: WayMask, domain: Domain) -> usize {
        self.policy
            .victim_among(0, &self.words, self.ways, allowed, domain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a `ReplPolicy` with its own state words, like the
    /// storage rows do.
    struct Harness {
        policy: ReplPolicy,
        words: Vec<Vec<u64>>,
        ways: usize,
        full_mask: u64,
    }

    impl Harness {
        fn new(kind: PolicyKind, sets: usize, ways: usize, seed: u64) -> Self {
            Self {
                policy: ReplPolicy::new(kind, sets, ways, seed),
                words: vec![vec![0; ReplPolicy::words_per_set(kind, ways)]; sets],
                ways,
                full_mask: WayMask::all(ways).bits(),
            }
        }

        fn touch(&mut self, set: usize, way: usize, domain: Domain) {
            self.policy
                .on_access(&mut self.words[set], self.ways, self.full_mask, way, domain);
        }

        fn fill(&mut self, set: usize, way: usize, domain: Domain) {
            self.policy
                .on_fill(&mut self.words[set], self.ways, self.full_mask, way, domain);
        }

        fn victim(&mut self, set: usize, mask: WayMask, domain: Domain) -> usize {
            let words = &self.words[set];
            self.policy
                .victim_among(set, words, self.ways, mask, domain)
        }
    }

    #[test]
    fn victim_full_matches_victim_among_full_mask() {
        for kind in PolicyKind::ALL {
            if kind == PolicyKind::Random {
                // The two draw differently-shaped samples from the
                // same stream; covered by the dedicated test below.
                continue;
            }
            let ways = 8;
            let mut h = Harness::new(kind, 1, ways, 3);
            let mut x = 77u64;
            for _ in 0..500 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                h.touch(0, (x >> 40) as usize % ways, Domain::PRIMARY);
                h.fill(0, (x >> 20) as usize % ways, Domain::PRIMARY);
                let via_mask = {
                    let words = &h.words[0];
                    let mut p = h.policy.clone();
                    p.victim_among(0, words, ways, WayMask::all(ways), Domain::PRIMARY)
                };
                let fast = {
                    let words = &h.words[0];
                    h.policy.victim_full(0, words, ways, Domain::PRIMARY)
                };
                assert_eq!(fast, via_mask, "{kind}: fast path diverged");
            }
        }
    }

    #[test]
    fn random_victim_full_draws_like_a_full_mask_victim_among() {
        // The fast path must consume each set's generator exactly
        // like a full-mask `victim_among` so the RNG streams stay
        // aligned (the oracle suite pins `victim_among` to the object
        // `RandomRepl` stream).
        let ways = 8;
        let mut fast = Harness::new(PolicyKind::Random, 2, ways, 9);
        let mut masked = Harness::new(PolicyKind::Random, 2, ways, 9);
        for i in 0..200 {
            let set = i % 2;
            let f = {
                let words = &fast.words[set];
                fast.policy.victim_full(set, words, ways, Domain::PRIMARY)
            };
            let m = masked.victim(set, WayMask::all(ways), Domain::PRIMARY);
            assert_eq!(f, m, "draw {i} diverged");
        }
    }

    #[test]
    #[should_panic(expected = "empty way mask")]
    fn empty_mask_panics() {
        let mut h = Harness::new(PolicyKind::Lru, 1, 8, 0);
        let _ = h.victim(0, WayMask::EMPTY, Domain::PRIMARY);
    }

    #[test]
    fn sixty_four_way_masks_do_not_overflow() {
        let mut h = Harness::new(PolicyKind::BitPlru, 1, 64, 0);
        for w in 0..63 {
            h.touch(0, w, Domain::PRIMARY);
        }
        assert_eq!(h.victim(0, WayMask::all(64), Domain::PRIMARY), 63);
        // 64th access rolls the generation over.
        h.touch(0, 63, Domain::PRIMARY);
        assert_eq!(h.victim(0, WayMask::all(64), Domain::PRIMARY), 0);
    }

    #[test]
    fn words_per_set_layout() {
        assert_eq!(ReplPolicy::words_per_set(PolicyKind::Lru, 8), 9);
        assert_eq!(ReplPolicy::words_per_set(PolicyKind::Fifo, 8), 9);
        assert_eq!(ReplPolicy::words_per_set(PolicyKind::TreePlru, 8), 1);
        assert_eq!(ReplPolicy::words_per_set(PolicyKind::BitPlru, 8), 1);
        assert_eq!(
            ReplPolicy::words_per_set(PolicyKind::PartitionedTreePlru, 8),
            1
        );
        assert_eq!(ReplPolicy::words_per_set(PolicyKind::Random, 8), 0);
    }
}
