//! The fast-IR referee: every promotion decision and its rewrite, pinned
//! per program.
//!
//! `tests/golden/fast_ir_referee.txt` holds one line per program: its id,
//! then the FNV-1a digest ([`fnv1a64`]) of the fast-mode lowering
//! (`ir::lower_fast(&prog).render()`, what `cheri-c --emit-ir --fast`
//! prints last) under `cerberus` and under `clang-morello-O3`. A program
//! the front end rejects is pinned by the digest of `error: <message>`.
//! Each rendered function header ends with `promoted=[slotN:rM, ...]`, so
//! a digest moves when any local's decision moves, and when the rewrite
//! of a promoted local's accesses changes. The programs are the oracle
//! corpus at 1024 seeds (both families, as `corpus_manifest` writes
//! them) and the 94 Table-1 tests; ids are the batch referee's.
//!
//! A change to the front end, lowering, promotion or the peephole passes
//! that should not change the fast pipeline must leave every digest
//! alone. Tier-1 checks the first `CHERI_QC_CORPUS_SEEDS` seeds (default
//! 64) and Table 1; CI checks all 1024 in release. A mismatch lists every
//! differing program and profile and prints the first one's rendering.
//! After an intended change, `CHERI_GOLDEN_BLESS=1 cargo test --release
//! --test fast_ir_referee` rewrites the file (always at 1024 seeds), and
//! the change lists every program whose digest moved.

use std::fmt::Write as _;
use std::path::PathBuf;

use cheri_bench::progen::generate_traced;
use cheri_c::core::{compile_for, ir, Profile};
use cheri_c::serve::cache::fnv1a64;
use cheri_cap::MorelloCap;
use cheri_testsuite::all_tests;

/// The seeds the golden file covers.
const REFEREE_SEEDS: u64 = 1024;

/// The profiles, in the golden file's column order: the reference
/// profile, and the one whose -O3 rewrites reshape the typed program.
fn profiles() -> [Profile; 2] {
    [Profile::cerberus(), Profile::clang_morello(true)]
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fast_ir_referee.txt")
}

fn seeds() -> u64 {
    std::env::var("CHERI_QC_CORPUS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// The referee's programs as `(id, source)`, in golden-file order: the
/// corpus of the first `seeds` seeds, then Table 1.
fn programs(seeds: u64) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for seed in 0..seeds {
        for buggy in [false, true] {
            // Line 1 of each `corpus_manifest` manifest is a comment.
            let line = 2 + 2 * seed + u64::from(buggy);
            let id = format!("{line}:seed{seed}-{}.c", u8::from(buggy));
            out.push((id, generate_traced(seed, buggy).source()));
        }
    }
    for (i, t) in all_tests().iter().enumerate() {
        let id = format!("{}:{}.c", i + 1, t.id.replace('/', "_"));
        out.push((id, t.source.to_string()));
    }
    out
}

/// The fast-mode rendering of `src` under `profile`.
fn fast_ir(src: &str, profile: &Profile) -> String {
    match compile_for::<MorelloCap>(src, profile) {
        Ok(prog) => ir::lower_fast(&prog).render(),
        Err(e) => format!("error: {e}\n"),
    }
}

fn digests(src: &str) -> Vec<u64> {
    profiles()
        .iter()
        .map(|p| fnv1a64(fast_ir(src, p).as_bytes()))
        .collect()
}

fn bless() {
    let mut text = String::from(
        "# Fast-IR referee: FNV-1a 64 digests of `ir::lower_fast(&prog).render()`,\n\
         # one line per program: <id>, then the digests under cerberus and\n\
         # clang-morello-O3. Corpus at 1024 seeds, then Table 1.\n\
         # Bless: CHERI_GOLDEN_BLESS=1.\n",
    );
    for (id, src) in programs(REFEREE_SEEDS) {
        let _ = write!(text, "{id}");
        for d in digests(&src) {
            let _ = write!(text, " {d:016x}");
        }
        text.push('\n');
    }
    std::fs::write(golden_path(), text).expect("write golden");
}

/// The golden file as `(id, digests)` lines, in file order.
fn golden() -> Vec<(String, Vec<u64>)> {
    let path = golden_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let mut fields = l.split_whitespace();
            let id = fields.next().expect("program id").to_string();
            let digests: Vec<u64> = fields
                .map(|d| u64::from_str_radix(d, 16).expect("hex digest"))
                .collect();
            assert_eq!(digests.len(), profiles().len(), "golden line {l:?}");
            (id, digests)
        })
        .collect()
}

#[test]
fn fast_ir_matches_the_referee() {
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
    let profiles = profiles();
    let mut mismatches = Vec::new();
    for ((id, src), (want_id, want)) in programs.iter().zip(want) {
        assert_eq!(id, want_id, "golden file out of order; rebless it");
        for ((profile, got), want) in profiles.iter().zip(digests(src)).zip(want) {
            if got != *want {
                mismatches.push((id, src, profile));
            }
        }
    }
    if let Some(&(id, src, profile)) = mismatches.first() {
        let mut report = format!(
            "{} of {} renderings differ from {}:\n",
            mismatches.len(),
            programs.len() * profiles.len(),
            golden_path().display()
        );
        for (id, _, p) in &mismatches {
            let _ = writeln!(report, "  {} {id}", p.name);
        }
        let _ = write!(
            report,
            "first differing rendering ({} {id}):\n{}\
             rerun with CHERI_GOLDEN_BLESS=1 if the change is intentional",
            profile.name,
            fast_ir(src, profile)
        );
        panic!("{report}");
    }
}
