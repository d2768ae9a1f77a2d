//! The program cache: the front end runs **once** per source and pointer
//! size, the optimisation passes and the lowering once per compile key,
//! and every result is shared immutably across profiles, jobs and worker
//! threads.
//!
//! A compilation depends on exactly three inputs: the source text, the
//! target pointer size (capability size, or machine-word size for the ISO
//! baseline: `cheri_core::ptr_size_for`), and the profile's emulated
//! optimisation effects (`OptFlags` — the §3 transformations are applied
//! as AST/IR passes at compile time). The cache keeps two levels:
//!
//! * the **typed program** (`cheri_core::front_end`: parse and
//!   type-check), or the front end's error message, per (source, pointer
//!   size);
//! * the **compiled program** ([`CachedProgram`]: the typed program after
//!   `opt::optimize`, and its lowered IR) per compile key, i.e. per
//!   (source, pointer size, optimisation fingerprint) — the fields of
//!   [`CompileKey`], with the text in place of its hash.
//!
//! A key without [`OptFlags::o3`] (every `-O0` profile, with or without
//! `@fast`) holds the typed program itself, which `opt::optimize` would
//! not rewrite; an `-O3` key optimises a clone of it. So the `-O0` and `-O3` keys of one
//! source share one front end, every `-O0` CHERI hardware profile shares
//! one compiled program, and a broken source is diagnosed once per pointer
//! size, every key of it reporting the same message. Re-submitting a
//! program the service has already seen costs one lookup.
//!
//! Entries are keyed on the source text itself, so a lookup compares the
//! text: two different programs never share an entry, however their
//! hashes collide. The map hashes the text once per lookup.
//!
//! Concurrency: the map lock is held only for lookup and insert, never
//! while parsing, type-checking, optimising or lowering, so independent
//! programs compile in parallel on different workers. If two workers race
//! to compute the same entry, at either level, the first insert wins and
//! both end up holding the same [`Arc`] — duplicate work, never divergent
//! results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cheri_cap::Capability;
use cheri_core::ir::IrProgram;
use cheri_core::tast::TProgram;
use cheri_core::{opt, OptFlags, Profile};

/// FNV-1a 64-bit content hash. Hermetic and stable within a process, but
/// only 64 bits: different sources can share a hash, so nothing that must
/// tell programs apart may rely on it alone.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Pack the optimisation flags into a key fragment, one bit each. Must
/// cover every `OptFlags` field the compilation reads.
fn opt_fingerprint(o: &OptFlags) -> u64 {
    u64::from(o.o3) | (u64::from(o.register_promote) << 1)
}

/// What makes two (source, profile, capability-model) compilations share
/// a compiled program: same source, same pointer size, same optimisation
/// fingerprint. Everything else about a profile (layout, UB mode,
/// revocation, …) is a *runtime* axis and deliberately not part of the
/// key — that is what makes the cached program reusable across the whole
/// differential profile set.
///
/// This is a digest: it carries the source's hash, not its text, so two
/// sources with equal hashes have equal keys. [`ProgramCache`] keys its
/// entries on the text instead.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CompileKey {
    /// FNV-1a hash of the source text.
    pub src_hash: u64,
    /// Stored-pointer size in bytes under this profile and capability
    /// model (the front end sizes pointer types with it).
    pub ptr_size: u64,
    /// Packed [`OptFlags`] fingerprint.
    pub opt: u64,
}

impl CompileKey {
    /// The key `compile_for::<C>(src, profile)` compiles under.
    #[must_use]
    pub fn for_profile<C: Capability>(src: &str, profile: &Profile) -> Self {
        CompileKey {
            src_hash: fnv1a64(src.as_bytes()),
            ptr_size: cheri_core::ptr_size_for::<C>(profile),
            opt: opt_fingerprint(&profile.opt),
        }
    }
}

/// Everything the cache produces for one compile key: the typed AST
/// (consumed by the interpreter's world setup, the tree engine and the
/// lint executor) and the peephole-optimised bytecode the VM runs.
/// Shared immutably; execution never mutates a compiled program.
#[derive(Debug)]
pub struct CachedProgram {
    /// The typed, profile-optimised AST. Keys whose flags rewrite nothing
    /// share the front end's typed program itself.
    pub tast: Arc<TProgram>,
    /// The lowered + peephole-optimised IR (`cheri_core::ir::lower_for`,
    /// register-promoted first when the profile carries the fast bit),
    /// pre-wrapped in an [`Arc`] for `Interp::with_ir`.
    pub ir: Arc<IrProgram>,
}

/// The front end's result for one (source, pointer size).
type FrontEnd = Result<Arc<TProgram>, String>;

/// A compiled program, or the front-end error that prevented it: errors
/// are cached too, so a batch with 7 profiles over a syntactically broken
/// program diagnoses it once, not 7 times.
type CacheEntry = Result<Arc<CachedProgram>, String>;

/// Everything cached for one source text. A source meets one or two
/// pointer sizes and a few optimisation fingerprints, so both lists stay
/// short and are searched linearly.
#[derive(Default)]
struct Source {
    /// Typed programs by pointer size.
    front: Vec<(u64, FrontEnd)>,
    /// Compiled programs by (pointer size, optimisation fingerprint).
    compiled: Vec<((u64, u64), CacheEntry)>,
}

/// The value stored under `key` in `slots`.
fn find<'a, K: PartialEq, V>(slots: &'a [(K, V)], key: &K) -> Option<&'a V> {
    slots.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Store `value` under `key` unless a racing worker already stored one,
/// and return what is stored: the first insert wins.
fn first_insert<K: PartialEq, V: Clone>(slots: &mut Vec<(K, V)>, key: K, value: V) -> V {
    if let Some(stored) = find(slots, &key) {
        return stored.clone();
    }
    slots.push((key, value.clone()));
    value
}

/// The shared program cache. Cheap to share (`Arc<ProgramCache>`); one
/// instance typically lives as long as the service.
#[derive(Default)]
pub struct ProgramCache {
    map: Mutex<HashMap<Box<str>, Source>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProgramCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// Look up `(src, profile)` under capability model `C`, compiling and
    /// inserting on miss: the front end only if no other key of `src` has
    /// run it for this pointer size, then the optimisation passes and the
    /// lowering. All of it runs *outside* the map lock.
    ///
    /// # Errors
    ///
    /// Returns the front end's human-readable message on parse or type
    /// errors (cached like successes).
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned (a worker panicked while
    /// inserting — unreachable in normal operation).
    pub fn get_or_compile<C: Capability>(
        &self,
        src: &str,
        profile: &Profile,
    ) -> Result<Arc<CachedProgram>, String> {
        let ptr_size = cheri_core::ptr_size_for::<C>(profile);
        let key = (ptr_size, opt_fingerprint(&profile.opt));
        let typed = match self.lookup(src, &key) {
            Ok(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return hit;
            }
            Err(typed) => typed,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let typed = typed.unwrap_or_else(|| {
            let typed = cheri_core::front_end(src, ptr_size).map(Arc::new);
            self.with_source(src, |s| first_insert(&mut s.front, ptr_size, typed))
        });
        let compiled = typed.map(|typed| {
            let tast = if profile.opt.o3 {
                Arc::new(opt::optimize(TProgram::clone(&typed), &profile.opt))
            } else {
                typed
            };
            let ir = Arc::new(cheri_core::ir::lower_for(&tast, &profile.opt));
            Arc::new(CachedProgram { tast, ir })
        });
        self.with_source(src, |s| first_insert(&mut s.compiled, key, compiled))
    }

    /// The map, locked.
    fn map(&self) -> MutexGuard<'_, HashMap<Box<str>, Source>> {
        self.map
            .lock()
            .expect("no worker panics while holding the cache lock")
    }

    /// The compiled program cached for `src` under `key`, or else (`Err`)
    /// the typed program cached for `src` and the key's pointer size.
    fn lookup(&self, src: &str, key: &(u64, u64)) -> Result<CacheEntry, Option<FrontEnd>> {
        self.map().get(src).map_or(Err(None), |source| {
            find(&source.compiled, key)
                .cloned()
                .ok_or_else(|| find(&source.front, &key.0).cloned())
        })
    }

    /// Run `f` on `src`'s entry, created empty if absent, under the lock.
    fn with_source<T>(&self, src: &str, f: impl FnOnce(&mut Source) -> T) -> T {
        let mut map = self.map();
        match map.get_mut(src) {
            Some(source) => f(source),
            None => f(map.entry(src.into()).or_default()),
        }
    }

    /// Number of compile keys currently cached.
    ///
    /// # Panics
    ///
    /// Panics if the cache lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map().values().map(|s| s.compiled.len()).sum()
    }

    /// Is the cache empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits so far. Counters are advisory (racy under concurrent
    /// misses of the same key) — use them for reporting, not gating.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far (advisory, see [`ProgramCache::hits`]).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}
