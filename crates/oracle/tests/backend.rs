//! The oracle cache is a first-class [`Backend`]: driven through the
//! trait, it agrees with the flat production cache.

use cache_sim::addr::PhysAddr;
use cache_sim::backend::Backend;
use cache_sim::cache::{AccessOutcome, Cache};
use cache_sim::geometry::CacheGeometry;
use cache_sim::replacement::PolicyKind;
use oracle::RefCache;

fn ops(b: &mut dyn Backend) -> Vec<AccessOutcome> {
    (0..32u64)
        .map(|i| b.access(PhysAddr::new((i % 12) * 0x1000)))
        .collect()
}

#[test]
fn soa_and_reference_agree_through_the_trait() {
    let geom = CacheGeometry::l1d_paper();
    let mut soa = Cache::new(geom, PolicyKind::TreePlru, 9);
    let mut aos = RefCache::new(geom, PolicyKind::TreePlru, 9);
    assert_eq!(ops(&mut soa), ops(&mut aos));
    assert_eq!(Backend::stats(&soa), Backend::stats(&aos));
}
