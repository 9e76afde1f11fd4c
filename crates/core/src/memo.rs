//! The one memo type behind the scenario layer's caches.
//!
//! Every cache a [`crate::scenario::ScenarioContext`] keeps — whole
//! evaluation results, stage-3 runs, candidate power floors — maps an
//! exact key to a value that is a pure function of that key given the
//! context. [`Memo`] is that map plus its [`Tally`]: one lock,
//! one lookup rule, one hit/miss count, instead of one hand-rolled copy
//! per cache.
//!
//! The lock is never held while a value is computed, so parallel
//! candidate fan-outs contend only on the lookup. Two threads that miss
//! the same key both compute it and both insert; since the value is a
//! pure function of the key, the second insert writes identical bits.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Hit and miss counts of one cache. A named tally also mirrors every
/// count into the telemetry registry (while telemetry is on) under its
/// `hits` / `misses` counter names, so the registry reads exactly what
/// the per-cache tallies add up to; a default tally reports to nothing
/// but its reader.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Registry counters for hits and misses.
    counters: Option<[&'static str; 2]>,
    /// Hits, then misses.
    counts: [AtomicU64; 2],
}

impl Tally {
    /// A tally mirrored into the registry counters `hits` and `misses`.
    pub(crate) fn named(hits: &'static str, misses: &'static str) -> Tally {
        Tally {
            counters: Some([hits, misses]),
            ..Tally::default()
        }
    }

    /// Counts one lookup as `weight` hits or misses.
    pub(crate) fn count(&self, hit: bool, weight: u64) {
        let i = usize::from(!hit);
        self.counts[i].fetch_add(weight, Ordering::Relaxed);
        if let Some(names) = self.counters.filter(|_| eprons_obs::enabled()) {
            eprons_obs::registry().counter(names[i]).add(weight);
        }
    }

    /// Adds `other`'s counts to this tally's own (not to the registry:
    /// `other` mirrored them when it counted them).
    pub(crate) fn absorb(&self, other: &Tally) {
        for (n, m) in self.counts.iter().zip(&other.counts) {
            n.fetch_add(m.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// `(hits, misses)` so far.
    pub(crate) fn get(&self) -> (u64, u64) {
        let [hits, misses] = self.counts.each_ref().map(|n| n.load(Ordering::Relaxed));
        (hits, misses)
    }
}

/// An exact-key memo with its own [`Tally`].
#[derive(Debug)]
pub(crate) struct Memo<K, V> {
    map: Mutex<HashMap<K, V>>,
    tally: Tally,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo counting its lookups on `tally`.
    pub(crate) fn new(tally: Tally) -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
            tally,
        }
    }

    /// The value held under `key`, or `compute`'s value, inserted. Counts
    /// `weight` hits or misses.
    pub(crate) fn get_or_insert(&self, key: K, weight: u64, compute: impl FnOnce() -> V) -> V {
        let hit = self.lock().get(&key).cloned();
        if let Some(v) = hit {
            self.tally.count(true, weight);
            return v;
        }
        let v = compute();
        self.tally.count(false, weight);
        self.lock().insert(key, v.clone());
        v
    }

    /// `f` summed over the entries held.
    pub(crate) fn sum(&self, f: impl Fn(&K, &V) -> usize) -> usize {
        self.lock().iter().map(|(k, v)| f(k, v)).sum()
    }

    /// The memo's hit/miss counts.
    pub(crate) fn tally(&self) -> &Tally {
        &self.tally
    }

    /// The map. A panic can never leave it half-written (nothing runs
    /// under the lock but a lookup or an insert), so a poisoned lock is
    /// still sound to use.
    fn lock(&self) -> MutexGuard<'_, HashMap<K, V>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_lookup_counts_its_weight() {
        let memo: Memo<u8, u32> = Memo::new(Tally::default());
        assert_eq!(memo.get_or_insert(1, 3, || 7), 7);
        assert_eq!(memo.get_or_insert(1, 3, || unreachable!("a hit")), 7);
        assert_eq!(memo.tally().get(), (3, 3), "each lookup counts `weight`");
        assert_eq!(memo.sum(|_, v| *v as usize), 7);
    }
}
