//! The batch referee: every batch mode's output, pinned per job.
//!
//! `tests/golden/batch_referee.txt` holds one line per program: its job
//! id, then the FNV-1a digest ([`fnv1a64`]) of the job's rendered output
//! ([`JobOutput::render`], the text `cheri-c --batch` prints) under each
//! of the five modes, `run`, `lint`, `trace-diff`, `engine-diff` and
//! `lint-check`, all on the `compared` profiles. The programs are the
//! oracle corpus at 1024 seeds (both families, as `corpus_manifest`
//! writes them) and the 94 Table-1 tests. A corpus job's id is the one
//! `cheri-c --batch <dir>/<mode>.txt` prints for it (`<line>:seed<N>-<B>.c`);
//! a Table-1 job's id is the one a manifest listing the tests in suite
//! order, as `<id>.c` with `/` replaced by `_`, would print.
//!
//! A change that should not change behaviour must leave every digest
//! alone. Tier-1 checks the first `CHERI_QC_CORPUS_SEEDS` seeds (default
//! 64) and Table 1; CI checks all 1024 in release. A mismatch lists the
//! mode and id of every differing job and prints the first one's full
//! output. After an intended behaviour change, `CHERI_GOLDEN_BLESS=1
//! cargo test --release --test batch_referee` rewrites the file (always
//! at 1024 seeds), and the change lists every job whose digest moved.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use cheri_bench::progen::generate_traced;
use cheri_c::core::Profile;
use cheri_c::serve::cache::fnv1a64;
use cheri_c::serve::{run_batch, JobOutput, JobSpec, Mode};
use cheri_cap::MorelloCap;
use cheri_testsuite::all_tests;

/// The seeds the golden file covers.
const REFEREE_SEEDS: u64 = 1024;

/// The modes, in the golden file's column order.
const MODES: [Mode; 5] = [
    Mode::Run,
    Mode::Lint,
    Mode::TraceDiff,
    Mode::EngineDiff,
    Mode::LintCheck,
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/batch_referee.txt")
}

fn seeds() -> u64 {
    std::env::var("CHERI_QC_CORPUS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// The referee's programs as `(job id, source)`, in golden-file order:
/// the corpus of the first `seeds` seeds, then Table 1.
fn programs(seeds: u64) -> Vec<(String, Arc<String>)> {
    let mut out = Vec::new();
    for seed in 0..seeds {
        for buggy in [false, true] {
            // Line 1 of each `corpus_manifest` manifest is a comment.
            let line = 2 + 2 * seed + u64::from(buggy);
            let id = format!("{line}:seed{seed}-{}.c", u8::from(buggy));
            out.push((id, Arc::new(generate_traced(seed, buggy).source())));
        }
    }
    for (i, t) in all_tests().iter().enumerate() {
        let id = format!("{}:{}.c", i + 1, t.id.replace('/', "_"));
        out.push((id, Arc::new(t.source.to_string())));
    }
    out
}

/// Every program's rendered output under every mode: `[program][mode]`.
fn outputs(programs: &[(String, Arc<String>)]) -> Vec<Vec<JobOutput>> {
    let mut by_program: Vec<Vec<JobOutput>> = programs.iter().map(|_| Vec::new()).collect();
    for mode in MODES {
        let jobs = programs
            .iter()
            .map(|(id, source)| JobSpec {
                id: id.clone(),
                source: Arc::clone(source),
                profiles: Profile::all_compared(),
                mode,
            })
            .collect();
        for (slot, out) in by_program.iter_mut().zip(run_batch::<MorelloCap>(jobs, 2)) {
            slot.push(out);
        }
    }
    by_program
}

fn digests(outs: &[JobOutput]) -> Vec<u64> {
    outs.iter()
        .map(|o| fnv1a64(o.render().as_bytes()))
        .collect()
}

fn bless() {
    let programs = programs(REFEREE_SEEDS);
    let mut text = String::from(
        "# Batch referee: FNV-1a 64 digests of each job's rendered `cheri-c --batch`\n\
         # output on the compared profiles, one line per program: <job id>, then\n\
         # the digests under run, lint, trace-diff, engine-diff and lint-check.\n\
         # Corpus at 1024 seeds, then Table 1. Bless: CHERI_GOLDEN_BLESS=1.\n",
    );
    for ((id, _), outs) in programs.iter().zip(outputs(&programs)) {
        let _ = write!(text, "{id}");
        for d in digests(&outs) {
            let _ = write!(text, " {d:016x}");
        }
        text.push('\n');
    }
    std::fs::write(golden_path(), text).expect("write golden");
}

/// The golden file as `(job id, digests)` lines, in file order.
fn golden() -> Vec<(String, Vec<u64>)> {
    let path = golden_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut fields = l.split_whitespace();
            let id = fields.next().expect("job id").to_string();
            let digests: Vec<u64> = fields
                .map(|d| u64::from_str_radix(d, 16).expect("hex digest"))
                .collect();
            assert_eq!(digests.len(), MODES.len(), "golden line {l:?}");
            (id, digests)
        })
        .collect()
}

#[test]
fn batch_outputs_match_the_referee() {
    if std::env::var("CHERI_GOLDEN_BLESS").is_ok() {
        bless();
        return;
    }
    let n = seeds();
    assert!(
        n <= REFEREE_SEEDS,
        "the referee covers {REFEREE_SEEDS} seeds, not {n}"
    );
    let golden = golden();
    let table1 = all_tests().len();
    assert_eq!(
        golden.len(),
        2 * REFEREE_SEEDS as usize + table1,
        "the golden file must cover {REFEREE_SEEDS} seeds and Table 1; rebless it"
    );
    let programs = programs(n);
    // The first `2n` corpus lines, then the Table-1 lines at the end.
    let corpus = 2 * n as usize;
    let want = golden[..corpus]
        .iter()
        .chain(&golden[golden.len() - table1..]);
    let mut mismatches = Vec::new();
    for (((id, _), outs), (want_id, want)) in programs.iter().zip(outputs(&programs)).zip(want) {
        assert_eq!(id, want_id, "golden file out of order; rebless it");
        for ((out, got), want) in outs.iter().zip(digests(&outs)).zip(want) {
            if got != *want {
                mismatches.push(out.clone());
            }
        }
    }
    if let Some(first) = mismatches.first() {
        let mut report = format!(
            "{} of {} jobs differ from {}:\n",
            mismatches.len(),
            programs.len() * MODES.len(),
            golden_path().display()
        );
        for out in &mismatches {
            let _ = writeln!(report, "  {} {}", out.mode.label(), out.id);
        }
        let _ = write!(
            report,
            "first differing job ({} {}), full output:\n{}\
             rerun with CHERI_GOLDEN_BLESS=1 if the behaviour change is intentional",
            first.mode.label(),
            first.id,
            first.render()
        );
        panic!("{report}");
    }
}
