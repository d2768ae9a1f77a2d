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
//! manifests, and `bench_pr7`–`bench_pr10` are wall-clock perf gates, each
//! writing a `BENCH_pr*.json` record.
//!
//! Criterion benches (`cargo bench`) characterise the reconstruction:
//! capability encode/decode and representability checks, memory-model
//! load/store throughput (CHERI vs the ISO baseline), and end-to-end
//! interpretation of the paper's §3 example programs.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod progen;

/// Workload sizes shared between benches so results are comparable.
pub const MEM_OPS: usize = 4096;
