//! The engine-equivalence gate: the bytecode VM pinned bit-for-bit
//! against the tree interpreter it replaces.
//!
//! Both engines share the memory model, value conversions, builtins and
//! world setup; only control-flow dispatch differs. This property makes
//! that claim checkable: over the deterministic oracle-fuzz corpus ×
//! every compared profile (plus the Table-1 suite), the two engines must
//! agree exactly on
//!
//! * the outcome label (exit code / UB class / trap kind / error text),
//! * stdout and stderr,
//! * the memory-operation statistics ([`cheri_mem::MemStats`]), and
//! * the full normalized memory-event stream.
//!
//! The one tolerated asymmetry: the 50M step limit is counted
//! per-statement/expression by the tree walker and per-instruction by the
//! VM, so a program that exhausts it may die at different points. If
//! *both* engines report the step-limit error the run is accepted without
//! comparing streams; if only one does, that is a real disagreement.
//!
//! Disagreements are ddmin-shrunk to 1-minimal reproducers and written to
//! `CHERI_ENGINE_REPRO_DIR` (default `target/engine-repros/`) so CI can
//! upload them as artifacts (the `engine-differential` job runs the full
//! 1024 seeds via `CHERI_QC_CORPUS_SEEDS`).

use std::fmt::Write as _;

use cheri_bench::progen::{generate_traced, shrink_program};
use cheri_c::core::{run_traced_with_engine, Engine, Profile};
use cheri_testsuite::all_tests;

mod ops;

/// Compare one program under one profile by the gate's predicate
/// ([`RunResult::engine_disagreement`](cheri_c::core::RunResult::engine_disagreement));
/// `None` means the engines agree. A disagreement comes with the outputs
/// and statistics that differ, and with the first event where the
/// streams part, in normalized coordinates if they part there too.
fn disagreement(src: &str, profile: &Profile) -> Option<String> {
    let (tr, tree_events) = run_traced_with_engine(src, profile, Engine::Tree);
    let (br, byte_events) = run_traced_with_engine(src, profile, Engine::Bytecode);
    let mut msg = tr.engine_disagreement(&tree_events, &br, &byte_events)?;
    if tr.stdout != br.stdout || tr.stderr != br.stderr {
        let _ = write!(
            msg,
            "\noutput: tree=({:?},{:?}) bytecode=({:?},{:?})",
            tr.stdout, tr.stderr, br.stdout, br.stderr
        );
    }
    if tr.mem_stats != br.mem_stats {
        let _ = write!(msg, "\nmem stats: tree={:?} bytecode={:?}", tr.mem_stats, br.mem_stats);
    }
    if let Some(d) = cheri_obs::diff(&tree_events, &byte_events, 3) {
        let _ = write!(msg, "\nnormalized events: {}", cheri_obs::render_diff(&d));
    } else if let Some(at) = tree_events.iter().zip(&byte_events).position(|(a, b)| a != b) {
        let _ = write!(
            msg,
            "\nraw events at #{at}: tree={:?} bytecode={:?}",
            tree_events[at], byte_events[at]
        );
    }
    Some(msg)
}

fn seeds() -> u64 {
    std::env::var("CHERI_QC_CORPUS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(96)
}

fn repro_dir() -> std::path::PathBuf {
    std::env::var("CHERI_ENGINE_REPRO_DIR").map_or_else(
        |_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("target")
                .join("engine-repros")
        },
        std::path::PathBuf::from,
    )
}

/// The headline property: zero disagreements over the corpus × profiles.
#[test]
fn corpus_engines_agree() {
    let n = seeds();
    let profiles = Profile::all_compared();
    let mut failures: Vec<String> = Vec::new();
    let mut checked = 0u64;

    for seed in 0..n {
        for buggy in [false, true] {
            let prog = generate_traced(seed, buggy);
            let src = prog.source();
            for profile in &profiles {
                checked += 1;
                let Some(msg) = disagreement(&src, profile) else {
                    continue;
                };
                let min = shrink_program(&prog, |cand| {
                    disagreement(&cand.source(), profile).is_some()
                });
                let min_src = min.source();
                let min_msg = disagreement(&min_src, profile).unwrap_or_else(|| msg.clone());
                let dir = repro_dir();
                let _ = std::fs::create_dir_all(&dir);
                let fname = format!("seed{seed}-{}-{}.c", u8::from(buggy), profile.name);
                let path = dir.join(&fname);
                let mut file = String::new();
                let _ = writeln!(file, "// engine differential disagreement");
                let _ = writeln!(file, "// profile: {}", profile.name);
                let _ = writeln!(file, "// seed: {seed} (buggy: {buggy})");
                for line in min_msg.lines() {
                    let _ = writeln!(file, "// {line}");
                }
                file.push_str(&min_src);
                let _ = std::fs::write(&path, file);
                failures.push(format!(
                    "seed {seed} buggy={buggy} profile {}: {msg}\n  shrunk repro: {} ({} stmts)",
                    profile.name,
                    path.display(),
                    min.stmts.len()
                ));
            }
        }
    }

    println!("engine differential: {checked} program×profile checks, 2 engines each");
    assert!(
        failures.is_empty(),
        "{} engine disagreement(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every Table-1 test and every operation program agrees between the
/// engines under every compared profile — the curated programs cover the
/// capability/UB behaviours (unions, intrinsics, sub-object bounds,
/// floats, …) the random corpus does not.
#[test]
fn table1_engines_agree() {
    let profiles = Profile::all_compared();
    let mut failures: Vec<String> = Vec::new();
    let ops = ops::programs();
    let table1 = all_tests();
    let programs = table1
        .iter()
        .map(|t| (t.id, t.source))
        .chain(ops.iter().map(|(name, src)| (name.as_str(), src.as_str())));
    for (id, src) in programs {
        for profile in &profiles {
            if let Some(msg) = disagreement(src, profile) {
                failures.push(format!("{id} under {}: {msg}", profile.name));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} Table-1 engine disagreement(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
