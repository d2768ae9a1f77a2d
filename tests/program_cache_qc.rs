//! Satellite QC property: the `cheri-serve` program cache is *sound* —
//! executing a cached, `Arc`-shared compilation through a recycled memory
//! arena is indistinguishable from the fresh
//! parse → typecheck → lower → run pipeline, across the 7 compared
//! profiles, the ISO baseline and two fast-mode profiles.
//!
//! The cache key (source × pointer size × optimisation fingerprint)
//! claims everything else about a profile is a runtime axis, and the
//! cache shares one typed program between the keys of a source and
//! pointer size; this property is the claims' test. The profile list
//! gives one source two pointer sizes, `-O0` and `-O3`, and both fast
//! pipelines. It drives random `progen` programs through one long-lived
//! single-worker service (so the same cache entries and the same recycled
//! arena serve every profile and case) and compares each per-profile
//! result field against `cheri_core::run_with` on a fresh world, which
//! lowers fast profiles through the same `lower_for`.
//!
//! Replay a failure: `CHERI_QC_SEED=<seed> cargo test -q cache_qc`.

use std::sync::Arc;

use cheri_bench::progen::generate_traced;
use cheri_c::core::{run_with, Profile};
use cheri_c::serve::{execute_job, fast_variant, JobSpec, Mode, ProgramCache};
use cheri_cap::MorelloCap;
use cheri_mem::CheriMemory;
use cheri_qc::prop::{check, Config};

fn qc_cases() -> u32 {
    std::env::var("CHERI_QC_CORPUS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32)
}

#[test]
fn cache_qc_cached_execution_equals_fresh_pipeline() {
    // One cache and one arena across all cases — by the end of the run
    // the arena has been through hundreds of resets under differing
    // memory configurations and the cache serves mostly hits, which is
    // exactly the long-lived-service state the property must hold in.
    let cache = ProgramCache::new();
    let arena = std::cell::RefCell::new(None::<CheriMemory<MorelloCap>>);
    let cache = &cache;
    let mut profiles = Profile::all_compared();
    profiles.extend([
        Profile::iso_baseline(),
        fast_variant(Profile::cerberus()),
        fast_variant(Profile::clang_morello(true)),
    ]);
    let profiles = &profiles;
    check(
        "cache_qc_cached_equals_fresh",
        Config::cases(qc_cases()),
        |rng| (rng.gen::<u64>() % 100_000, rng.gen_bool(0.5)),
        |&(seed, buggy)| {
            let src = generate_traced(seed, buggy).source();
            let spec = JobSpec {
                id: format!("qc-{seed}"),
                source: Arc::new(src.clone()),
                profiles: profiles.clone(),
                mode: Mode::Run,
            };
            let out = execute_job::<MorelloCap>(cache, &spec, &mut arena.borrow_mut());
            for (profile, po) in spec.profiles.iter().zip(&out.profiles) {
                let fresh = run_with::<MorelloCap>(&src, profile);
                assert_eq!(
                    po.outcome,
                    fresh.outcome.label(),
                    "seed {seed} buggy {buggy} profile {}: cached outcome != fresh",
                    profile.name
                );
                assert_eq!(po.stdout, fresh.stdout, "seed {seed} {}", profile.name);
                assert_eq!(po.stderr, fresh.stderr, "seed {seed} {}", profile.name);
                assert_eq!(
                    po.stats,
                    cheri_c::serve::job::stats_line(&fresh.mem_stats, fresh.unspecified_reads),
                    "seed {seed} buggy {buggy} profile {}: memory statistics differ",
                    profile.name
                );
            }
        },
    );
    assert!(
        cache.hits() > 0,
        "the property must actually exercise cache hits"
    );
}
