//! A bounded, source-keyed, oldest-out cache: the one compile cache.
//!
//! Compilation here is a pure function of the source text, so a built
//! value can be shared by everything that asks for the same text. Two
//! caches use this type with separate key spaces: the build cache under
//! [`crate::Program::build`] (mini-CL source → compiled unit and its
//! lowerings, see [`crate::program::BuildCache`]) and a serving
//! front end's module cache (Ensemble source → gated module).

use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct Entries<V> {
    by_source: HashMap<Arc<str>, Arc<V>>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<Arc<str>>,
}

/// Source text → built value, at most [`SourceCache::CAPACITY`] entries;
/// inserting past it drops the oldest entry (see module docs).
#[derive(Debug)]
pub struct SourceCache<V> {
    entries: Mutex<Entries<V>>,
    /// Builds this cache has paid for (one per miss).
    builds: AtomicU64,
}

impl<V> Default for SourceCache<V> {
    fn default() -> Self {
        SourceCache {
            entries: Mutex::new(Entries {
                by_source: HashMap::new(),
                order: VecDeque::new(),
            }),
            builds: AtomicU64::new(0),
        }
    }
}

impl<V> SourceCache<V> {
    /// Distinct sources one cache retains. Sized well above the distinct
    /// programs a pool of tenants cycles through, small enough that the
    /// retained values (tens of KB each) never matter next to one
    /// request's device buffers.
    pub const CAPACITY: usize = 64;

    /// The value for `source`, running `build` on a miss. The build runs
    /// outside the lock, so a cold source never stalls other callers'
    /// hits; when two callers race the same cold source both build and
    /// the first insert wins, so both return the one retained value.
    /// A failed build is not retained: the error is re-derived
    /// (identically, `build` being pure) on every attempt.
    pub fn get_or_build<E>(
        &self,
        source: &str,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E> {
        if let Some(hit) = self.entries.lock().by_source.get(source) {
            return Ok(Arc::clone(hit));
        }
        self.builds.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(build()?);
        let mut entries = self.entries.lock();
        if let Some(raced) = entries.by_source.get(source) {
            return Ok(Arc::clone(raced));
        }
        if entries.order.len() == Self::CAPACITY {
            if let Some(oldest) = entries.order.pop_front() {
                entries.by_source.remove(&oldest);
            }
        }
        let key: Arc<str> = Arc::from(source);
        entries.order.push_back(Arc::clone(&key));
        entries.by_source.insert(key, Arc::clone(&value));
        Ok(value)
    }

    /// Builds run so far: one per miss, failed ones included.
    pub fn builds(&self) -> u64 {
        self.builds.load(Ordering::Relaxed)
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.lock().by_source.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(n: usize) -> String {
        format!("source {n}")
    }

    fn ok(cache: &SourceCache<String>, n: usize) -> Arc<String> {
        cache
            .get_or_build(&source(n), || Ok::<_, ()>(source(n)))
            .unwrap()
    }

    #[test]
    fn a_hit_returns_the_same_value_without_building() {
        let cache = SourceCache::default();
        let first = ok(&cache, 1);
        assert!(Arc::ptr_eq(&first, &ok(&cache, 1)));
        assert_eq!((cache.builds(), cache.len()), (1, 1));
    }

    #[test]
    fn a_failed_build_is_not_retained() {
        let cache = SourceCache::<String>::default();
        for _ in 0..2 {
            assert_eq!(cache.get_or_build("bad", || Err("log")), Err("log"));
        }
        assert_eq!((cache.builds(), cache.len()), (2, 0));
    }

    #[test]
    fn the_oldest_entry_goes_at_the_cap() {
        let cache = SourceCache::default();
        let cap = SourceCache::<String>::CAPACITY;
        for n in 0..=cap {
            ok(&cache, n);
        }
        assert_eq!(cache.len(), cap);
        let before = cache.builds();
        ok(&cache, 1);
        ok(&cache, cap);
        assert_eq!(cache.builds(), before, "survivors still hit");
        ok(&cache, 0);
        assert_eq!(cache.builds(), before + 1, "the oldest was evicted");
    }
}
