//! The fast-mode equivalence gate: register promotion pinned against the
//! default pipeline over the oracle-fuzz corpus, on every compared
//! profile.
//!
//! The fast mode (`--fast`, `OptFlags::register_promote`) elides the
//! entire memory life cycle of provably never-addressed scalar locals, so
//! — unlike the engine-differential gate — it makes **no** claim about
//! the event trace or the memory statistics: promoted locals produce no
//! allocations, loads, stores or kills, and the remaining objects may sit
//! at different addresses. What it *must* preserve, bit-for-bit, is the
//! observable program behaviour:
//!
//! * the outcome label (exit code / UB class / trap kind / error text),
//! * stdout and stderr.
//!
//! The one tolerated asymmetry mirrors the engine gate: promotion removes
//! instructions, so a program that exhausts the step limit may die at a
//! different point; if *both* pipelines report the step-limit error the
//! run is accepted.
//!
//! A second property pins the analysis/rewrite contract itself: a local
//! the escape analysis reports as *not* promotable never appears in any
//! function's promoted list after `lower_fast` (escaping locals are never
//! elided).
//!
//! Disagreements are ddmin-shrunk to 1-minimal reproducers and written to
//! `CHERI_FAST_REPRO_DIR` (default `target/fast-repros/`) so CI can
//! upload them as artifacts (the `fast-mode-differential` job runs the
//! full 1024 seeds via `CHERI_QC_CORPUS_SEEDS`).

use std::fmt::Write as _;

use cheri_bench::progen::{generate_traced, shrink_program};
use cheri_c::core::{compile_for, ir, run, Profile};
use cheri_cap::MorelloCap;
use cheri_testsuite::all_tests;

mod ops;

/// Exit code the CLI would report for an outcome label — the fast mode
/// must not shift it (ISSUE: outcome + stdout + **exit code**).
fn exit_code_of(label: &str) -> u8 {
    label
        .strip_prefix("exit(")
        .and_then(|rest| rest.strip_suffix(')'))
        .and_then(|n| n.parse::<i64>().ok())
        .map_or_else(
            || if label.starts_with("trap") { 139 } else { 1 },
            |c| (c & 0xFF) as u8,
        )
}

/// Compare one program under one profile, default vs fast pipeline;
/// `None` means they agree on everything observable.
fn disagreement(src: &str, profile: &Profile) -> Option<String> {
    let fast_profile = {
        let mut p = profile.clone();
        p.opt = p.opt.fast();
        p
    };
    let dr = run(src, profile);
    let fr = run(src, &fast_profile);
    if dr.outcome.is_step_limit() && fr.outcome.is_step_limit() {
        // Promotion shortens the instruction stream, so a step-limited
        // program may die elsewhere; both hitting the limit is agreement.
        return None;
    }
    let (dl, fl) = (dr.outcome.label(), fr.outcome.label());
    if dl != fl {
        return Some(format!("outcome: default={dl} fast={fl}"));
    }
    if exit_code_of(&dl) != exit_code_of(&fl) {
        return Some(format!(
            "exit code: default={} fast={}",
            exit_code_of(&dl),
            exit_code_of(&fl)
        ));
    }
    if dr.stdout != fr.stdout {
        return Some(format!(
            "stdout: default={:?} fast={:?}",
            dr.stdout, fr.stdout
        ));
    }
    if dr.stderr != fr.stderr {
        return Some(format!(
            "stderr: default={:?} fast={:?}",
            dr.stderr, fr.stderr
        ));
    }
    None
}

/// The analysis/rewrite contract: every local the escape analysis keeps
/// (non-empty why-not reasons) stays out of the promoted list, under
/// every compared profile's optimisation flags.
fn promotion_respects_escape(src: &str, profile: &Profile) -> Option<String> {
    let prog = match compile_for::<MorelloCap>(src, profile) {
        Ok(p) => p,
        Err(_) => return None, // front-end errors are compared elsewhere
    };
    let report = ir::escape::analyze_program(&ir::lower(&prog));
    let fast = ir::lower_fast(&prog);
    for fe in &report.funcs {
        let Some(&fi) = fast.func_index.get(&fe.func) else {
            continue;
        };
        let promoted = &fast.funcs[fi as usize].promoted;
        for l in &fe.locals {
            if !l.promoted && promoted.iter().any(|&(s, _)| s == l.slot) {
                return Some(format!(
                    "{}::{} (slot {}) escapes ({:?}) but was promoted",
                    fe.func, l.name, l.slot, l.reasons
                ));
            }
        }
    }
    None
}

fn seeds() -> u64 {
    std::env::var("CHERI_QC_CORPUS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(96)
}

fn repro_dir() -> std::path::PathBuf {
    std::env::var("CHERI_FAST_REPRO_DIR").map_or_else(
        |_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("target")
                .join("fast-repros")
        },
        std::path::PathBuf::from,
    )
}

/// The headline property: zero observable disagreements over the corpus ×
/// profiles, and no escaping local ever promoted.
#[test]
fn corpus_fast_mode_agrees() {
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
                if let Some(msg) = promotion_respects_escape(&src, profile) {
                    failures.push(format!(
                        "seed {seed} buggy={buggy} profile {}: QC property violated: {msg}",
                        profile.name
                    ));
                }
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
                let _ = writeln!(file, "// fast-mode differential disagreement");
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

    println!("fast-mode differential: {checked} program×profile checks, 2 pipelines each");
    assert!(
        failures.is_empty(),
        "{} fast-mode disagreement(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every Table-1 test and every operation program agrees between the
/// pipelines under every compared profile — the curated programs cover
/// the address-taken/capability behaviours (unions, intrinsics,
/// sub-object bounds) and the float paths the random corpus exercises
/// less or not at all.
#[test]
fn table1_fast_mode_agrees() {
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
            if let Some(msg) = promotion_respects_escape(src, profile) {
                failures.push(format!("{id} under {}: QC property violated: {msg}", profile.name));
            }
            if let Some(msg) = disagreement(src, profile) {
                failures.push(format!("{id} under {}: {msg}", profile.name));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} Table-1 fast-mode disagreement(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
