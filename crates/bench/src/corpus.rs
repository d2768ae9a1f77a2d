//! The deterministic oracle-fuzz **corpus**: a fixed block of generator
//! seeds run differentially through every compared implementation profile,
//! with automatic shrinking of any divergence to a minimal reproducing
//! program.
//!
//! This is the paper's §7 claim made executable *in CI*: `cargo test -q`
//! replays the corpus on every run (see `tests/oracle_corpus.rs`), and the
//! `oracle_fuzz` binary drives the same machinery over extended seed
//! ranges. Both report a divergence the same way — as a shrunk minimal
//! program plus a ready-to-paste regression entry for
//! `crates/testsuite/src/regressions.rs`.

use std::fmt::Write as _;

use cheri_core::{run, run_traced, Outcome, Profile};
use cheri_obs::binfmt;

use crate::progen::{generate_traced, shrink_program, TracedProgram};

/// One divergence between the oracle and a profile, with its shrunk
/// reproducer.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Generator seed of the originating program.
    pub seed: u64,
    /// Whether the program came from the bug-injected family.
    pub buggy: bool,
    /// The profile that disagreed.
    pub profile: String,
    /// What the oracle expected (rendered).
    pub expected: String,
    /// What the profile produced (rendered).
    pub got: String,
    /// The minimal program still exhibiting the divergence.
    pub minimal: TracedProgram,
    /// Statement count before shrinking.
    pub original_stmts: usize,
    /// First event-level divergence of the minimal program against the
    /// cerberus reference (normalized addresses); `None` when the event
    /// streams agree and only the final outcome differs.
    pub event_diff: Option<String>,
}

/// Aggregate result of running a seed block.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Well-defined programs checked.
    pub defined: u64,
    /// Buggy programs checked.
    pub buggy: u64,
    /// Profile runs that agreed with the oracle (well-defined family).
    pub agreed: u64,
    /// Profile runs that safety-stopped (buggy family).
    pub stopped: u64,
    /// Profile runs where an injected bug was masked (tolerated).
    pub masked: u64,
}

/// Check one well-defined seed against every profile; shrink any
/// divergence found.
fn check_defined(seed: u64, profiles: &[Profile], stats: &mut CorpusStats) -> Vec<Divergence> {
    let prog = generate_traced(seed, false);
    let want = Outcome::Exit(prog.oracle_exit().expect("well-defined"));
    stats.defined += 1;
    let mut out = Vec::new();
    for p in profiles {
        let r = run(&prog.source(), p);
        if r.outcome == want {
            stats.agreed += 1;
        } else {
            out.push(shrink_divergence(&prog, seed, false, p, &r.outcome));
        }
    }
    out
}

/// Check one bug-injected seed: every profile must either safety-stop or
/// (tolerated) mask the bug — an internal interpreter error is a
/// divergence.
fn check_buggy(seed: u64, profiles: &[Profile], stats: &mut CorpusStats) -> Vec<Divergence> {
    let prog = generate_traced(seed, true);
    stats.buggy += 1;
    let mut out = Vec::new();
    for p in profiles {
        let r = run(&prog.source(), p);
        match r.outcome {
            Outcome::Ub { .. } | Outcome::Trap { .. } => stats.stopped += 1,
            Outcome::Exit(_) | Outcome::Abort | Outcome::AssertFailed(_) => {
                // An injected bug can be masked (e.g. the free() variant
                // under a hardware profile which has no allocator
                // bookkeeping checks); count but don't fail.
                stats.masked += 1;
            }
            Outcome::Error(_) => {
                out.push(shrink_divergence(&prog, seed, true, p, &r.outcome));
            }
        }
    }
    out
}

/// Event-level view of a divergence: run the minimal reproducer under the
/// cerberus reference and the diverging profile, and diff the two typed
/// event streams in allocation-relative coordinates. When the
/// `CHERI_OBS_TRACE_DIR` environment variable is set, both sides' binary
/// (CHOB) traces are also written there — CI uploads them as artifacts on
/// corpus failure so a divergence can be replayed without re-running.
fn event_level_diff(
    seed: u64,
    buggy: bool,
    profile: &Profile,
    minimal: &TracedProgram,
) -> Option<String> {
    let src = minimal.source();
    let (_, oracle_events) = run_traced(&src, &Profile::cerberus());
    let (_, profile_events) = run_traced(&src, profile);
    if let Ok(dir) = std::env::var("CHERI_OBS_TRACE_DIR") {
        let family = if buggy { "buggy" } else { "defined" };
        let stem = format!("seed-{seed}-{family}-{}", profile.name);
        let _ = std::fs::create_dir_all(&dir);
        for (side, events) in [("oracle", &oracle_events), ("profile", &profile_events)] {
            let path = format!("{dir}/{stem}.{side}.chob");
            if let Err(e) = std::fs::write(&path, binfmt::encode_trace(events)) {
                eprintln!("warning: cannot write {path}: {e}");
            }
        }
    }
    cheri_obs::diff(&oracle_events, &profile_events, 3)
        .map(|d| cheri_obs::render_diff(&d))
}

/// Shrink a diverging program to a minimal reproducer under `profile`.
///
/// For the well-defined family, a candidate "still fails" when the profile's
/// outcome differs from the candidate's *recomputed* oracle exit (the
/// trace-replay oracle makes statement deletion sound). For the buggy
/// family, it still fails when the profile reports an internal error.
fn shrink_divergence(
    prog: &TracedProgram,
    seed: u64,
    buggy: bool,
    profile: &Profile,
    got: &Outcome,
) -> Divergence {
    let minimal = shrink_program(prog, |cand| {
        if cand.stmts.is_empty() && cand.arrays.is_empty() {
            return false;
        }
        match cand.oracle_exit() {
            Some(code) => run(&cand.source(), profile).outcome != Outcome::Exit(code),
            // Bug statement still present (buggy family), or — either
            // family — a candidate we can't predict: require the same
            // error class to keep chasing the original defect.
            None => matches!(run(&cand.source(), profile).outcome, Outcome::Error(_)),
        }
    });
    let expected = match prog.oracle_exit() {
        Some(code) => format!("exit {code}"),
        None => "safety stop (no internal error)".to_string(),
    };
    let event_diff = event_level_diff(seed, buggy, profile, &minimal);
    Divergence {
        seed,
        buggy,
        profile: profile.name.clone(),
        expected,
        got: got.to_string(),
        minimal,
        original_stmts: prog.stmts.len(),
        event_diff,
    }
}

/// Run the corpus `[base, base+count)` (both families) over `profiles`.
#[must_use] 
pub fn run_corpus(base: u64, count: u64, profiles: &[Profile]) -> (CorpusStats, Vec<Divergence>) {
    let mut stats = CorpusStats::default();
    let mut divergences = Vec::new();
    for seed in base..base + count {
        divergences.extend(check_defined(seed, profiles, &mut stats));
        divergences.extend(check_buggy(seed, profiles, &mut stats));
    }
    (stats, divergences)
}

/// Render a divergence as a human report plus a ready-to-paste regression
/// entry for `crates/testsuite/src/regressions.rs`.
#[must_use]
pub fn render_divergence(d: &Divergence) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "DIVERGENCE seed={} family={} profile={}",
        d.seed,
        if d.buggy { "buggy" } else { "well-defined" },
        d.profile
    );
    let _ = writeln!(s, "  oracle expected: {}", d.expected);
    let _ = writeln!(s, "  profile produced: {}", d.got);
    let _ = writeln!(
        s,
        "  shrunk {} → {} statements, {} arrays; minimal reproducer:",
        d.original_stmts,
        d.minimal.stmts.len(),
        d.minimal.arrays.len()
    );
    for line in d.minimal.source().lines() {
        let _ = writeln!(s, "    {line}");
    }
    match &d.event_diff {
        Some(diff) => {
            let _ = writeln!(s, "  event-level diff vs cerberus (normalized addresses):");
            for line in diff.lines() {
                let _ = writeln!(s, "    {line}");
            }
        }
        None => {
            let _ = writeln!(
                s,
                "  event streams agree with cerberus; divergence is in the outcome only"
            );
        }
    }
    let _ = writeln!(s, "  replay: cargo run -p cheri-bench --bin oracle_fuzz -- 1 {}", d.seed);
    let _ = writeln!(s, "  ready-to-paste regression (crates/testsuite/src/regressions.rs):");
    let _ = writeln!(s, "    Regression {{");
    let _ = writeln!(s, "        id: \"oracle-fuzz/seed-{}-{}\",", d.seed, d.profile);
    let _ = writeln!(s, "        seed: {},", d.seed);
    let _ = writeln!(s, "        source: r#\"{}\"#,", d.minimal.source());
    let expect = match d.minimal.oracle_exit() {
        Some(code) => format!("Some({code})"),
        None => "None".to_string(),
    };
    let _ = writeln!(s, "        expected_exit: {expect},");
    let _ = writeln!(s, "    }},");
    s
}

/// Render the closing summary line for a corpus run.
#[must_use]
pub fn render_stats(stats: &CorpusStats, n_profiles: usize, n_div: usize) -> String {
    format!(
        "{} defined programs x {} configurations: {}/{} agreed; \
         {} buggy programs: {} safety-stopped, {} masked; {} divergences",
        stats.defined,
        n_profiles,
        stats.agreed,
        stats.defined * n_profiles as u64,
        stats.buggy,
        stats.stopped,
        stats.masked,
        n_div
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_mem::AddressLayout;

    #[test]
    fn small_corpus_is_clean_and_deterministic() {
        let profiles = [Profile::cerberus(), Profile::clang_morello(false)];
        let (s1, d1) = run_corpus(0, 4, &profiles);
        let (s2, d2) = run_corpus(0, 4, &profiles);
        assert!(d1.is_empty(), "{}", render_divergence(&d1[0]));
        assert!(d2.is_empty());
        assert_eq!(s1, s2, "corpus must be deterministic");
        assert_eq!(s1.defined, 4);
        assert_eq!(s1.agreed, 8);
    }

    #[test]
    fn forced_divergence_is_caught_and_shrunk() {
        // Mis-set a profile: a stack region too small for any array forces
        // allocation failures, so well-defined programs can't reach their
        // oracle exit. The corpus must flag it and shrink the reproducer.
        let mut broken = Profile::clang_morello(false);
        broken.name = "clang-morello-O0-broken-stack".into();
        broken.mem.layout = AddressLayout {
            stack_base: 0x1040,
            stack_limit: 0x1000,
            ..AddressLayout::clang_morello()
        };
        let (_, divs) = run_corpus(0, 2, &[broken]);
        assert!(!divs.is_empty(), "tiny stack must diverge");
        let d = &divs[0];
        assert!(d.minimal.stmts.len() <= d.original_stmts);
        let report = render_divergence(d);
        assert!(report.contains("DIVERGENCE seed="), "{report}");
        assert!(report.contains("ready-to-paste"), "{report}");
        // The shrunk program must still reproduce on the broken profile.
        let r = run(&d.minimal.source(), &Profile {
            name: "replay".into(),
            mem: {
                let mut m = Profile::clang_morello(false).mem;
                m.layout = AddressLayout {
                    stack_base: 0x1040,
                    stack_limit: 0x1000,
                    ..AddressLayout::clang_morello()
                };
                m
            },
            ..Profile::clang_morello(false)
        });
        match d.minimal.oracle_exit() {
            Some(code) => assert_ne!(r.outcome, Outcome::Exit(code)),
            None => assert!(matches!(r.outcome, Outcome::Error(_))),
        }
    }
}
