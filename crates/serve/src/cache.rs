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
use oclsim::SourceCache;
use std::sync::Arc;

/// Source text → compiled module, bounded at [`SourceCache::CAPACITY`]
/// programs, oldest out. The type is the build cache's own
/// ([`oclsim::BuildCache`]), over a key space of its own.
pub(crate) type ModuleCache = SourceCache<CompiledModule>;

/// The analysis-gated front end with the options every session uses.
pub(crate) fn compile(source: &str) -> Result<CompiledModule, GateError> {
    compile_source(source, &Options::default())
}

/// The module for `source` from `cache`, compiling it on a miss (see
/// [`SourceCache::get_or_build`]: compilation runs outside the lock,
/// racing tenants share the first insert, and failed compiles are not
/// retained).
pub(crate) fn get_or_compile(
    cache: &ModuleCache,
    source: &str,
) -> Result<Arc<CompiledModule>, GateError> {
    cache.get_or_build(source, || compile(source))
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
        let first = get_or_compile(&cache, &program(1)).unwrap();
        let again = get_or_compile(&cache, &program(1)).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(cache.builds(), 1);
        // The cached module is what a direct compile produces.
        assert_eq!(*first, compile(&program(1)).unwrap());
    }

    #[test]
    fn one_byte_of_difference_misses() {
        let cache = ModuleCache::default();
        let src = program(1);
        let a = get_or_compile(&cache, &src).unwrap();
        let b = get_or_compile(&cache, &format!("{src} ")).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((cache.builds(), cache.len()), (2, 2));
    }

    #[test]
    fn failures_repeat_their_diagnostics_and_are_not_retained() {
        let cache = ModuleCache::default();
        // `output` is used but never connected: E005 rejects it.
        let bad = program(1).replace("printInt(1);", "send 1 on output;");
        let first = get_or_compile(&cache, &bad).unwrap_err().to_string();
        let second = get_or_compile(&cache, &bad).unwrap_err().to_string();
        assert!(first.contains("E005"), "{first}");
        assert_eq!(first, second);
        assert_eq!((cache.builds(), cache.len()), (2, 0));
    }

    #[test]
    fn the_oldest_entry_goes_at_the_cap() {
        let cache = ModuleCache::default();
        for n in 0..ModuleCache::CAPACITY {
            get_or_compile(&cache, &program(n)).unwrap();
        }
        assert_eq!(cache.len(), ModuleCache::CAPACITY);
        // One more evicts program 0 and nothing else.
        get_or_compile(&cache, &program(ModuleCache::CAPACITY)).unwrap();
        assert_eq!(cache.len(), ModuleCache::CAPACITY);
        let before = cache.builds();
        get_or_compile(&cache, &program(1)).unwrap();
        get_or_compile(&cache, &program(ModuleCache::CAPACITY)).unwrap();
        assert_eq!(cache.builds(), before, "survivors still hit");
        get_or_compile(&cache, &program(0)).unwrap();
        assert_eq!(cache.builds(), before + 1, "the oldest was evicted");
    }
}
