//! Re-export of [`std::hint::black_box`].
//!
//! The workspace's one measurement path is the `perf` benchmark package
//! (`crates/bench/src/bin/perf`), which imports `black_box` from here.
//! That package changes only together with the benchmark it defines, so
//! this path stays until such a change imports `std::hint::black_box`
//! directly; then this module can go.

pub use std::hint::black_box;
