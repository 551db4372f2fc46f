//! The server-wide compiled-module cache: compile once per distinct
//! program.
//!
//! Tenants overwhelmingly resubmit the same few programs, and the gated
//! front end (lex, parse, lints, proofs, kernel generation) is a pure
//! function of the source text — every session compiles with
//! [`Options::default`] — so a [`Server`](crate::Server) keeps one
//! [`ModuleCache`] and hands it to every session it builds, hedge
//! secondaries included. The key is the exact source; the value carries
//! the proofs, so a hit skips the whole front end and the VM runs the
//! shared module in place.

use ensemble_analysis::{compile_source, CompiledModule, GateError, Options};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Distinct programs one server retains; inserting past it drops the
/// oldest entry. Sized well above the distinct programs a pool of
/// tenants cycles through, small enough that the retained modules (tens
/// of KB each) never matter next to one request's device buffers.
const MAX_MODULES: usize = 64;

#[derive(Default)]
struct Entries {
    by_source: HashMap<Arc<str>, Arc<CompiledModule>>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<Arc<str>>,
}

/// Source text → compiled module, bounded, oldest out (see module docs).
#[derive(Default)]
pub(crate) struct ModuleCache {
    entries: Mutex<Entries>,
    /// Front-end runs this cache has paid for (test-only).
    #[cfg(test)]
    compiles: std::sync::atomic::AtomicU64,
}

/// The analysis-gated front end with the options every session uses.
pub(crate) fn compile(source: &str) -> Result<CompiledModule, GateError> {
    compile_source(source, &Options::default())
}

impl ModuleCache {
    /// The module for `source`, compiling it on a miss. Compilation runs
    /// outside the lock, so a cold program never stalls other tenants'
    /// hits; when two tenants race the same cold source both compile and
    /// the first insert wins. Failed compiles are not retained: the
    /// diagnostics are re-derived (identically) on every attempt.
    pub(crate) fn get_or_compile(&self, source: &str) -> Result<Arc<CompiledModule>, GateError> {
        if let Some(hit) = self.entries.lock().by_source.get(source) {
            return Ok(Arc::clone(hit));
        }
        #[cfg(test)]
        self.compiles
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let module = Arc::new(compile(source)?);
        let mut entries = self.entries.lock();
        if let Some(raced) = entries.by_source.get(source) {
            return Ok(Arc::clone(raced));
        }
        if entries.order.len() == MAX_MODULES {
            if let Some(oldest) = entries.order.pop_front() {
                entries.by_source.remove(&oldest);
            }
        }
        let key: Arc<str> = Arc::from(source);
        entries.order.push_back(Arc::clone(&key));
        entries.by_source.insert(key, Arc::clone(&module));
        Ok(module)
    }
}

#[cfg(test)]
impl ModuleCache {
    pub(crate) fn compiles(&self) -> u64 {
        self.compiles.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.lock().by_source.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A tiny valid program printing `n`; distinct `n` → distinct source.
    pub(crate) fn program(n: usize) -> String {
        format!(
            "type I is interface(out integer output)
             stage main {{
                 actor a presents I {{
                     behaviour {{ printInt({n}); stop; }}
                 }}
                 boot {{ x = new a(); }}
             }}"
        )
    }

    #[test]
    fn a_hit_returns_the_same_module_without_compiling() {
        let cache = ModuleCache::default();
        let first = cache.get_or_compile(&program(1)).unwrap();
        let again = cache.get_or_compile(&program(1)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.compiles(), 1);
        // The cached module is what a direct compile produces.
        assert_eq!(*first, compile(&program(1)).unwrap());
    }

    #[test]
    fn one_byte_of_difference_misses() {
        let cache = ModuleCache::default();
        let src = program(1);
        let a = cache.get_or_compile(&src).unwrap();
        let b = cache.get_or_compile(&format!("{src} ")).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((cache.compiles(), cache.len()), (2, 2));
    }

    #[test]
    fn failures_repeat_their_diagnostics_and_are_not_retained() {
        let cache = ModuleCache::default();
        // `output` is used but never connected: E005 rejects it.
        let bad = program(1).replace("printInt(1);", "send 1 on output;");
        let first = cache.get_or_compile(&bad).unwrap_err().to_string();
        let second = cache.get_or_compile(&bad).unwrap_err().to_string();
        assert!(first.contains("E005"), "{first}");
        assert_eq!(first, second);
        assert_eq!((cache.compiles(), cache.len()), (2, 0));
    }

    #[test]
    fn the_oldest_entry_goes_at_the_cap() {
        let cache = ModuleCache::default();
        for n in 0..MAX_MODULES {
            cache.get_or_compile(&program(n)).unwrap();
        }
        assert_eq!(cache.len(), MAX_MODULES);
        // One more evicts program 0 and nothing else.
        cache.get_or_compile(&program(MAX_MODULES)).unwrap();
        assert_eq!(cache.len(), MAX_MODULES);
        let before = cache.compiles();
        cache.get_or_compile(&program(1)).unwrap();
        cache.get_or_compile(&program(MAX_MODULES)).unwrap();
        assert_eq!(cache.compiles(), before, "survivors still hit");
        cache.get_or_compile(&program(0)).unwrap();
        assert_eq!(cache.compiles(), before + 1, "the oldest was evicted");
    }
}
