//! One physical core: cache hierarchy + processes + memory contents.

use cache_sim::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use cache_sim::counters::PerfCounters;
use cache_sim::hierarchy::{CacheHierarchy, HierarchyOutcome};
use cache_sim::profiles::MicroArch;
use cache_sim::replacement::{Domain, PolicyKind};
use std::collections::BTreeMap;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

/// A process's dense page table. VPNs are handed out contiguously
/// from `base_vpn` and never unmapped, so page `base_vpn + i` maps to
/// `frames[i]`.
#[derive(Debug, Clone, Default)]
struct AddressSpace {
    /// First virtual page number of the process.
    base_vpn: u64,
    /// Physical frame of each mapped page, in VPN order.
    frames: Vec<u64>,
    /// Protection domain (partitioned-cache experiments).
    domain: Domain,
}

impl AddressSpace {
    /// The VPN the next mapping gets.
    fn next_vpn(&self) -> u64 {
        self.base_vpn + self.frames.len() as u64
    }
}

/// A single physical core with its cache hierarchy, plus the set of
/// processes sharing it.
///
/// The machine is what both the sender's and the receiver's programs
/// run against; it is deliberately *one* core, matching the paper's
/// threat model (§III: the two parties are co-located on one core,
/// hyper-threaded or time-sliced).
///
/// ```
/// use exec_sim::Machine;
/// use cache_sim::profiles::MicroArch;
/// use cache_sim::replacement::PolicyKind;
/// use cache_sim::hierarchy::HitLevel;
///
/// let mut m = Machine::new(
///     MicroArch::sandy_bridge_e5_2690(),
///     PolicyKind::TreePlru,
///     42,
/// );
/// let p = m.create_process();
/// let va = m.alloc_pages(p, 1);
/// assert_eq!(m.access(p, va).level, HitLevel::Mem);
/// assert_eq!(m.access(p, va).level, HitLevel::L1);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    arch: MicroArch,
    hierarchy: CacheHierarchy,
    spaces: Vec<AddressSpace>,
    counters: Vec<PerfCounters>,
    memory: BTreeMap<u64, u8>,
    next_frame: u64,
}

impl Machine {
    /// Builds a machine for `arch` with the given L1D replacement
    /// policy.
    pub fn new(arch: MicroArch, l1_policy: PolicyKind, seed: u64) -> Self {
        Self {
            arch,
            hierarchy: arch.build_hierarchy(l1_policy, seed),
            spaces: Vec::new(),
            counters: Vec::new(),
            memory: BTreeMap::new(),
            // Frame 0 is reserved so a zero PhysAddr is never handed
            // out (helps catch unmapped accesses in tests).
            next_frame: 1,
        }
    }

    /// The platform this machine models.
    pub fn arch(&self) -> &MicroArch {
        &self.arch
    }

    /// The cache hierarchy (for direct inspection in experiments).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Mutable hierarchy access (experiments use it to attach
    /// prefetchers or inspect replacement state).
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    /// Creates a new process with an empty address space.
    ///
    /// Each process gets a distinct virtual base (an ASLR stand-in):
    /// two processes never share linear addresses by accident, which
    /// matters for the AMD µtag way predictor (§VI-B — the whole
    /// point is that the two parties use *different* linear addresses
    /// for one shared physical line).
    pub fn create_process(&mut self) -> Pid {
        let pid = self.spaces.len() as u64;
        let space = AddressSpace {
            base_vpn: 0x10_000 + pid * 0x3571,
            ..AddressSpace::default()
        };
        self.spaces.push(space);
        self.counters.push(PerfCounters::new());
        Pid(pid as u32)
    }

    /// Assigns `pid` to a protection domain (partitioned-cache
    /// defense experiments; default is [`Domain::PRIMARY`]).
    pub fn set_domain(&mut self, pid: Pid, domain: Domain) {
        self.space_mut(pid).domain = domain;
    }

    /// The protection domain `pid` currently runs in.
    pub fn domain_of(&self, pid: Pid) -> Domain {
        self.space(pid).domain
    }

    /// Allocates `n` fresh private pages and returns the base virtual
    /// address of the region.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not exist or `n == 0`.
    pub fn alloc_pages(&mut self, pid: Pid, n: u64) -> VirtAddr {
        assert!(n > 0, "cannot allocate zero pages");
        let first = self.next_frame;
        self.next_frame += n;
        let space = self.space_mut(pid);
        let vpn = space.next_vpn();
        space.frames.extend(first..first + n);
        VirtAddr::from_page(vpn, 0)
    }

    /// Maps one *shared* page into two processes (the "shared library
    /// data page" of Algorithm 1). Returns the virtual base address
    /// in each process; the virtual addresses differ (each process
    /// picks its own slot) but both map to the same frame.
    pub fn map_shared_page(&mut self, a: Pid, b: Pid) -> (VirtAddr, VirtAddr) {
        let frame = self.next_frame;
        self.next_frame += 1;
        let mut map = |pid| {
            let space = self.space_mut(pid);
            let vpn = space.next_vpn();
            space.frames.push(frame);
            VirtAddr::from_page(vpn, 0)
        };
        (map(a), map(b))
    }

    /// Translates a virtual address. Returns `None` for unmapped
    /// pages.
    ///
    /// O(1): a process's mapped VPNs are exactly `base_vpn ..
    /// base_vpn + frames.len()` (contiguous, never unmapped), so the
    /// lookup is one subtraction and one bounds-checked index.
    pub fn translate(&self, pid: Pid, va: VirtAddr) -> Option<PhysAddr> {
        let space = self.space(pid);
        let index = va.page_number().checked_sub(space.base_vpn)?;
        let frame = *space.frames.get(usize::try_from(index).ok()?)?;
        Some(PhysAddr::from_frame(frame, va.page_offset()))
    }

    /// Performs a demand load by `pid` at `va`.
    ///
    /// # Panics
    ///
    /// Panics if the page is unmapped (programs in these experiments
    /// always allocate before touching; a page fault model would only
    /// add noise unrelated to the paper).
    pub fn access(&mut self, pid: Pid, va: VirtAddr) -> HierarchyOutcome {
        let pa = self
            .translate(pid, va)
            .unwrap_or_else(|| panic!("access to unmapped page by {pid:?} at {va}"));
        let domain = self.space(pid).domain;
        self.hierarchy
            .access(va, pa, &mut self.counters[pid.0 as usize], domain)
    }

    /// `clflush` of the line containing `va` (requires a mapping).
    pub fn flush(&mut self, pid: Pid, va: VirtAddr) {
        if let Some(pa) = self.translate(pid, va) {
            self.hierarchy.flush(pa);
        }
    }

    /// Where `va` would hit right now (read-only; unmapped → `Mem`).
    pub fn probe_level(&self, pid: Pid, va: VirtAddr) -> cache_sim::hierarchy::HitLevel {
        match self.translate(pid, va) {
            Some(pa) => self.hierarchy.probe_level(pa),
            None => cache_sim::hierarchy::HitLevel::Mem,
        }
    }

    /// Reads the byte stored at `va` (0 if never written). Does not
    /// touch the caches — pair with [`Machine::access`] when the
    /// read should be architectural.
    pub fn read_byte(&self, pid: Pid, va: VirtAddr) -> u8 {
        self.translate(pid, va)
            .and_then(|pa| self.memory.get(&pa.raw()).copied())
            .unwrap_or(0)
    }

    /// Writes a byte at `va` (memory contents only; no cache
    /// traffic).
    ///
    /// # Panics
    ///
    /// Panics if the page is unmapped.
    pub fn write_byte(&mut self, pid: Pid, va: VirtAddr, value: u8) {
        let pa = self
            .translate(pid, va)
            .unwrap_or_else(|| panic!("write to unmapped page by {pid:?} at {va}"));
        self.memory.insert(pa.raw(), value);
    }

    /// Writes a byte slice starting at `va`.
    ///
    /// # Panics
    ///
    /// Panics if any touched page is unmapped.
    pub fn write_bytes(&mut self, pid: Pid, va: VirtAddr, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            self.write_byte(pid, va.add(i as u64), b);
        }
    }

    /// Performance counters accumulated by `pid`.
    pub fn counters(&self, pid: Pid) -> &PerfCounters {
        &self.counters[pid.0 as usize]
    }

    /// Mutable counters (schedulers charge cycles/instructions).
    pub fn counters_mut(&mut self, pid: Pid) -> &mut PerfCounters {
        &mut self.counters[pid.0 as usize]
    }

    /// Resets the counters of every process.
    pub fn reset_counters(&mut self) {
        for c in &mut self.counters {
            c.reset();
        }
    }

    /// Number of pages a process must allocate so a region covers
    /// every L1 set once (one page for the paper's geometry).
    pub fn pages_per_l1_span(&self) -> u64 {
        let span = self.hierarchy.l1().geometry().set_stride();
        span.div_ceil(PAGE_SIZE)
    }

    fn space(&self, pid: Pid) -> &AddressSpace {
        &self.spaces[pid.0 as usize]
    }

    fn space_mut(&mut self, pid: Pid) -> &mut AddressSpace {
        &mut self.spaces[pid.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::addr::PAGE_SHIFT;
    use cache_sim::hierarchy::HitLevel;
    use proptest::prelude::*;
    use std::panic::{self, AssertUnwindSafe};

    fn machine() -> Machine {
        Machine::new(MicroArch::sandy_bridge_e5_2690(), PolicyKind::TreePlru, 1)
    }

    #[test]
    fn distinct_processes_get_distinct_frames() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let va_a = m.alloc_pages(a, 1);
        let va_b = m.alloc_pages(b, 1);
        assert_ne!(m.translate(a, va_a), m.translate(b, va_b));
    }

    #[test]
    fn shared_page_aliases_one_frame() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let (va_a, va_b) = m.map_shared_page(a, b);
        assert_eq!(
            m.translate(a, va_a).unwrap().page_number(),
            m.translate(b, va_b).unwrap().page_number()
        );
        // A access by `a` makes `b`'s alias hit in L1 (no way
        // predictor on Intel).
        m.access(a, va_a);
        assert_eq!(m.access(b, va_b).level, HitLevel::L1);
    }

    #[test]
    fn page_offset_survives_translation() {
        let mut m = machine();
        let p = m.create_process();
        let base = m.alloc_pages(p, 1);
        let va = base.add(0x2c0);
        assert_eq!(m.translate(p, va).unwrap().page_offset(), 0x2c0);
    }

    #[test]
    fn counters_are_per_process() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let va = m.alloc_pages(a, 1);
        m.access(a, va);
        assert_eq!(m.counters(a).l1d_accesses, 1);
        assert_eq!(m.counters(b).l1d_accesses, 0);
    }

    #[test]
    fn memory_contents_round_trip() {
        let mut m = machine();
        let p = m.create_process();
        let va = m.alloc_pages(p, 1);
        m.write_bytes(p, va, b"secret");
        assert_eq!(m.read_byte(p, va.add(2)), b'c');
        assert_eq!(m.read_byte(p, va.add(100)), 0);
    }

    #[test]
    fn shared_memory_contents_visible_to_both() {
        let mut m = machine();
        let a = m.create_process();
        let b = m.create_process();
        let (va_a, va_b) = m.map_shared_page(a, b);
        m.write_byte(a, va_a.add(5), 0xab);
        assert_eq!(m.read_byte(b, va_b.add(5)), 0xab);
    }

    #[test]
    fn flush_forces_memory_access() {
        let mut m = machine();
        let p = m.create_process();
        let va = m.alloc_pages(p, 1);
        m.access(p, va);
        m.flush(p, va);
        assert_eq!(m.access(p, va).level, HitLevel::Mem);
    }

    #[test]
    fn unmapped_access_panics() {
        let mut m = machine();
        let p = m.create_process();
        let base = m.alloc_pages(p, 2);
        let unmapped = [
            // Below the process's base.
            VirtAddr::from_page(999, 0),
            // One page past the last mapped page.
            base.add(2 * PAGE_SIZE),
            // The largest representable page number.
            VirtAddr::from_page(u64::MAX >> PAGE_SHIFT, 0),
        ];
        for va in unmapped {
            assert_eq!(m.translate(p, va), None, "{va}");
            let loaded = panic::catch_unwind(AssertUnwindSafe(|| m.clone().access(p, va)));
            let written = panic::catch_unwind(AssertUnwindSafe(|| m.clone().write_byte(p, va, 1)));
            for err in [loaded.unwrap_err(), written.unwrap_err()] {
                let msg = err.downcast_ref::<String>().expect("formatted panic");
                assert!(msg.contains("unmapped"), "{msg}");
            }
        }
    }

    #[test]
    fn l1_span_is_one_page_for_paper_geometry() {
        let m = machine();
        assert_eq!(m.pages_per_l1_span(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of `create_process` / `alloc_pages` /
        /// `map_shared_page` against a `(pid, vpn) → frame` map kept
        /// beside the machine: every mapped page translates to its
        /// frame with the offset intact, and the pages just below and
        /// past each process's range, plus every page of a
        /// neighbouring process's range, stay unmapped.
        #[test]
        fn translate_matches_map_oracle(
            ops in collection::vec((0u8..3, 0u32..=u32::MAX, 0u32..=u32::MAX), 1..60),
            offset in 0u64..PAGE_SIZE,
        ) {
            let mut m = machine();
            let mut pids = vec![m.create_process(), m.create_process()];
            let mut oracle: BTreeMap<(Pid, u64), u64> = BTreeMap::new();
            let mut next_frame = 1;
            for (kind, x, y) in ops {
                let pick = |i: u32| pids[i as usize % pids.len()];
                match kind {
                    0 => pids.push(m.create_process()),
                    1 => {
                        let (p, n) = (pick(x), 1 + u64::from(y % 8));
                        let vpn = m.alloc_pages(p, n).page_number();
                        for i in 0..n {
                            oracle.insert((p, vpn + i), next_frame);
                            next_frame += 1;
                        }
                    }
                    _ => {
                        let (a, b) = (pick(x), pick(y));
                        let (va_a, va_b) = m.map_shared_page(a, b);
                        oracle.insert((a, va_a.page_number()), next_frame);
                        oracle.insert((b, va_b.page_number()), next_frame);
                        next_frame += 1;
                    }
                }
            }
            for (&(p, vpn), &frame) in &oracle {
                prop_assert_eq!(
                    m.translate(p, VirtAddr::from_page(vpn, offset)),
                    Some(PhysAddr::from_frame(frame, offset))
                );
            }
            let range = |p: Pid| {
                let vpns = oracle.range((p, 0)..=(p, u64::MAX)).map(|(&(_, v), _)| v);
                vpns.clone().min().zip(vpns.max())
            };
            for &p in &pids {
                let Some((lo, hi)) = range(p) else { continue };
                for vpn in [lo - 1, hi + 1] {
                    prop_assert_eq!(m.translate(p, VirtAddr::from_page(vpn, offset)), None);
                }
                for &q in pids.iter().filter(|&&q| q != p) {
                    let Some((q_lo, q_hi)) = range(q) else { continue };
                    for vpn in q_lo..=q_hi {
                        prop_assert!(!oracle.contains_key(&(p, vpn)));
                        prop_assert_eq!(m.translate(p, VirtAddr::from_page(vpn, offset)), None);
                    }
                }
            }
        }
    }
}
