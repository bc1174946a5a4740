//! DAWG-style partitioned Tree-PLRU (paper §IX-B).
//!
//! DAWG ("A defense against cache timing attacks in speculative
//! execution processors", MICRO'18) partitions both the cache ways
//! *and the Tree-PLRU state* between protection domains. The paper
//! singles it out as the only secure-cache design it is aware of that
//! partitions the LRU state — which is exactly what stops both of the
//! paper's channels.

use super::{assert_valid_victim_request, Domain, SetReplacement, TreePlru, WayMask};

/// Tree-PLRU state statically split between two protection domains.
///
/// Ways `0 .. ways/2` belong to [`Domain::PRIMARY`], ways
/// `ways/2 .. ways` to [`Domain::SECONDARY`]. Each half keeps an
/// independent Tree-PLRU; an access only updates the half that owns
/// the accessed way, and a victim request from a domain is confined
/// to that domain's ways. There is **no shared bit** (no shared tree
/// root), so one domain's accesses are invisible to the other's
/// replacement decisions — the property the LRU channels violate in
/// ordinary Tree-PLRU.
///
/// ```
/// use cache_sim::replacement::{Domain, WayMask};
/// use oracle::{PartitionedTreePlru, SetReplacement};
/// let mut p = PartitionedTreePlru::new(8);
/// // The attacker (secondary domain) hammers its own ways...
/// for w in 4..8 {
///     p.on_access(w, Domain::SECONDARY);
/// }
/// // ...but the victim's next replacement decision is unchanged.
/// let v = p.victim_among(WayMask::all(8), Domain::PRIMARY);
/// assert!(v < 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedTreePlru {
    halves: [TreePlru; 2],
    ways: usize,
}

impl PartitionedTreePlru {
    /// Creates partitioned state for `ways` ways (half per domain).
    ///
    /// # Panics
    ///
    /// Panics if `ways` is not a power of two of at least 2 (each
    /// half must itself be a valid Tree-PLRU leaf count).
    pub fn new(ways: usize) -> Self {
        assert!(
            ways >= 2 && ways.is_power_of_two() && ways <= 64,
            "partitioned Tree-PLRU requires a power-of-two way count >= 2, got {ways}"
        );
        Self {
            halves: [TreePlru::new(ways / 2), TreePlru::new(ways / 2)],
            ways,
        }
    }

    /// The ways owned by `domain`, as a mask.
    pub fn domain_ways(&self, domain: Domain) -> WayMask {
        let half = self.ways / 2;
        let mut mask = WayMask::EMPTY;
        let (lo, hi) = if domain == Domain::SECONDARY {
            (half, self.ways)
        } else {
            (0, half)
        };
        for w in lo..hi {
            mask = mask.with(w);
        }
        mask
    }

    fn half_of_way(&self, way: usize) -> (usize, usize) {
        let half = self.ways / 2;
        if way < half {
            (0, way)
        } else {
            (1, way - half)
        }
    }
}

impl SetReplacement for PartitionedTreePlru {
    fn ways(&self) -> usize {
        self.ways
    }

    fn on_access(&mut self, way: usize, _domain: Domain) {
        assert!(way < self.ways, "way {way} out of range");
        // State ownership follows the way, which is statically
        // assigned to a domain; cross-domain hits on the other
        // half's ways cannot occur in a correctly partitioned cache,
        // and if forced they still cannot touch the other tree's
        // root path beyond that half.
        let (h, local) = self.half_of_way(way);
        self.halves[h].touch(local);
    }

    fn victim_among(&mut self, allowed: WayMask, domain: Domain) -> usize {
        assert_valid_victim_request(self.ways, allowed);
        let half = self.ways / 2;
        let own = self.domain_ways(domain).intersect(allowed);
        if own.is_empty() {
            // The requesting domain has no allowed way (e.g. all its
            // ways are locked): fall back to any allowed way, lowest
            // first, without consulting the other domain's state.
            return allowed
                .intersect(WayMask::all(self.ways))
                .first()
                .expect("mask checked non-empty");
        }
        let (h, base) = if domain == Domain::SECONDARY {
            (1usize, half)
        } else {
            (0usize, 0)
        };
        // Project the allowed mask into half-local way indices.
        let mut local_mask = WayMask::EMPTY;
        for w in own.iter() {
            local_mask = local_mask.with(w - base);
        }
        base + self.halves[h].peek_victim(local_mask)
    }

    fn reset(&mut self) {
        self.halves[0].reset();
        self.halves[1].reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn domains_are_isolated() {
        let mut p = PartitionedTreePlru::new(8);
        // Establish a primary-domain state.
        p.on_access(0, Domain::PRIMARY);
        p.on_access(1, Domain::PRIMARY);
        let before = p.victim_among(WayMask::all(8), Domain::PRIMARY);
        // Secondary-domain activity...
        for w in 4..8 {
            p.on_access(w, Domain::SECONDARY);
        }
        // ...does not change the primary domain's decision.
        assert_eq!(p.victim_among(WayMask::all(8), Domain::PRIMARY), before);
    }

    #[test]
    fn victims_stay_in_own_half() {
        let mut p = PartitionedTreePlru::new(8);
        assert!(p.victim_among(WayMask::all(8), Domain::PRIMARY) < 4);
        assert!(p.victim_among(WayMask::all(8), Domain::SECONDARY) >= 4);
    }

    #[test]
    fn domain_ways_masks() {
        let p = PartitionedTreePlru::new(8);
        assert_eq!(
            p.domain_ways(Domain::PRIMARY).iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(
            p.domain_ways(Domain::SECONDARY).iter().collect::<Vec<_>>(),
            vec![4, 5, 6, 7]
        );
    }

    #[test]
    fn fallback_when_own_half_fully_excluded() {
        let mut p = PartitionedTreePlru::new(4);
        // Primary owns {0,1}; exclude both.
        let allowed = WayMask::single(2).with(3);
        let v = p.victim_among(allowed, Domain::PRIMARY);
        assert!(allowed.contains(v));
    }

    proptest! {
        /// The secondary domain's access stream never changes the
        /// primary domain's victim — the DAWG security property.
        #[test]
        fn no_cross_domain_leak(
            primary in proptest::collection::vec(0usize..4, 0..32),
            secondary in proptest::collection::vec(4usize..8, 0..32),
        ) {
            let mut quiet = PartitionedTreePlru::new(8);
            let mut noisy = PartitionedTreePlru::new(8);
            for &w in &primary {
                quiet.on_access(w, Domain::PRIMARY);
                noisy.on_access(w, Domain::PRIMARY);
            }
            for &w in &secondary {
                noisy.on_access(w, Domain::SECONDARY);
            }
            prop_assert_eq!(
                quiet.victim_among(WayMask::all(8), Domain::PRIMARY),
                noisy.victim_among(WayMask::all(8), Domain::PRIMARY)
            );
        }
    }
}
