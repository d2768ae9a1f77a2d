//! Benchmark and experiment harness for the CHERI C semantics
//! reconstruction.
//!
//! Binaries that regenerate an artefact of the paper's evaluation:
//!
//! * `table1_tests` — Table 1 and the §5 compliance summary;
//! * `fig1_layout` — Figure 1 (the Morello capability bit-field layout);
//! * `appendix_a` — the Appendix A multi-implementation comparison;
//! * `oracle_fuzz` — §7's test-oracle fuzzing over the `progen` corpus.
//!
//! `corpus_manifest` writes that corpus out as `cheri-c --batch`
//! manifests. Every speed figure comes from the `perf` benchmark, its own
//! package under `src/bin/perf` (see `BENCHMARK.json`); the
//! `BENCH_pr*.json` files at the repository root are the records of
//! per-PR timing binaries that it replaced.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod progen;
