//! The soundness gate: the static analyzer's verdicts checked against the
//! dynamic semantics over the deterministic oracle-fuzz corpus, on every
//! compared profile.
//!
//! The contract (ISSUE: the headline property of `cheri-lint`):
//!
//! * every `MustUb` program dynamically stops with UB or a trap *of the
//!   predicted class*;
//! * no `Clean` program ever dynamically safety-stops;
//! * when the analysis completed its definite run, the predicted outcome
//!   label matches the interpreter's bit-for-bit (a much stronger
//!   mirror-fidelity check that catches any drift between the two
//!   evaluators).
//!
//! `MayUb` verdicts are unconstrained by the gate; their rate is measured
//! and printed so regressions in precision are visible in CI logs, never
//! silently capped.
//!
//! Disagreements are ddmin-shrunk to 1-minimal reproducers and written to
//! `CHERI_LINT_REPRO_DIR` (default `target/lint-repros/`) so CI can
//! upload them as artifacts.
//!
//! Seed count: `CHERI_QC_CORPUS_SEEDS` (default 96 for local `cargo
//! test`; CI's `lint-soundness` job runs the full 1024).

use std::fmt::Write as _;

use cheri_bench::progen::{generate_traced, shrink_program};
use cheri_core::profile::Profile;
use cheri_core::report::Outcome;
use cheri_core::run;
use cheri_lint::{class_of_trap, class_of_ub, lint, LintMode, Verdict};
use cheri_testsuite::all_tests;

mod ops;

/// Check one program under one profile by the gate's predicate
/// ([`LintReport::soundness_violation`](cheri_lint::LintReport::soundness_violation));
/// `None` means the gate holds.
fn disagreement(src: &str, profile: &Profile) -> Option<String> {
    let outcome = run(src, profile).outcome;
    match lint(src, profile) {
        Ok(report) => report.soundness_violation(&outcome).map(|msg| match outcome {
            Outcome::Ub { ub, .. } => format!("{msg} (dynamic class {})", class_of_ub(ub)),
            Outcome::Trap { kind, .. } => format!("{msg} (dynamic class {})", class_of_trap(kind)),
            _ => msg,
        }),
        Err(e) => Some(format!("lint rejected what run accepted: {e}")),
    }
}

fn seeds() -> u64 {
    std::env::var("CHERI_QC_CORPUS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(96)
}

fn repro_dir() -> std::path::PathBuf {
    std::env::var("CHERI_LINT_REPRO_DIR").map_or_else(
        |_| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("target")
                .join("lint-repros")
        },
        std::path::PathBuf::from,
    )
}

#[test]
fn corpus_soundness_gate() {
    let n = seeds();
    let profiles = Profile::all_compared();
    let mut failures: Vec<String> = Vec::new();
    let mut checked = 0u64;
    let mut by_verdict = [0u64; 3];
    let mut widened = 0u64;

    for seed in 0..n {
        for buggy in [false, true] {
            let prog = generate_traced(seed, buggy);
            let src = prog.source();
            for profile in &profiles {
                checked += 1;
                if let Ok(r) = lint(&src, profile) {
                    by_verdict[match r.overall() {
                        Verdict::Clean => 0,
                        Verdict::MayUb => 1,
                        Verdict::MustUb => 2,
                    }] += 1;
                    if matches!(r.mode, LintMode::Widened(_)) {
                        widened += 1;
                    }
                }
                let Some(msg) = disagreement(&src, profile) else {
                    continue;
                };
                // Shrink to a 1-minimal reproducer that still disagrees
                // under this profile.
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
                let _ = writeln!(file, "// lint soundness disagreement");
                let _ = writeln!(file, "// profile: {}", profile.name);
                let _ = writeln!(file, "// seed: {seed} (buggy: {buggy})");
                let _ = writeln!(file, "// {min_msg}");
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

    let total = checked.max(1);
    println!(
        "lint soundness: {checked} program×profile checks, verdicts: \
         clean {} ({:.1}%), may-ub {} ({:.1}%), must-ub {} ({:.1}%); widened {} ({:.1}%)",
        by_verdict[0],
        100.0 * by_verdict[0] as f64 / total as f64,
        by_verdict[1],
        100.0 * by_verdict[1] as f64 / total as f64,
        by_verdict[2],
        100.0 * by_verdict[2] as f64 / total as f64,
        widened,
        100.0 * widened as f64 / total as f64,
    );
    assert!(
        failures.is_empty(),
        "{} soundness disagreement(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every Table-1 test and operation program (`tests/ops/`) whose
/// dynamic outcome is a safety stop must be flagged (`MustUb` of the
/// right class, or `MayUb`) — no `Clean` misclassification — and definite
/// predictions must match the dynamic label exactly.
#[test]
fn table1_lint_agrees() {
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
        "{} Table-1 lint disagreement(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
