//! The output gate: every operation the benchmark times is also
//! checked, by `content_hash64` of its output bytes, against another
//! computation that must produce the same bytes.

use std::collections::HashMap;

/// Counts checked operations and the ones whose output was wrong.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    reference: HashMap<String, u64>,
    failures: Vec<String>,
}

impl Gate {
    /// Records `ops` operations that passed or failed one check.
    pub fn check(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Checks `hash` against the first hash recorded under `key`; the
    /// first sighting becomes the reference.
    pub fn same_as_before(&mut self, key: &str, hash: u64, ops: u64) {
        let expected = *self.reference.entry(key.to_string()).or_insert(hash);
        self.check(ops, hash == expected, || {
            format!("{key}: output hash {hash:016x} differs from the first {expected:016x}")
        });
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_hash_is_the_reference() {
        let mut g = Gate::default();
        g.same_as_before("fig4", 1, 10);
        g.same_as_before("fig4", 1, 10);
        g.same_as_before("fig4", 2, 10);
        g.check(1, false, || "wrong body".into());
        assert_eq!((g.attempted(), g.failed()), (31, 11));
        assert_eq!(g.failures().len(), 2);
    }
}
