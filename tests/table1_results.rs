//! The Table-1 results page is a golden: `docs/test-results.md` records the
//! observed outcome of every Table-1 test under every compared
//! configuration, and it must be exactly what the suite renders now.
//!
//! Regenerate after an intentional behaviour change:
//! `CHERI_GOLDEN_BLESS=1 cargo test --test table1_results` (or
//! `cargo run -p cheri-bench --bin table1_tests -- --markdown`).

use std::path::PathBuf;

use cheri_c::core::Profile;
use cheri_testsuite::harness::{render_markdown, run_suite};

#[test]
fn table1_results_page_matches_the_suite() {
    let got = render_markdown(&run_suite(&Profile::all_compared()));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("docs/test-results.md");
    if std::env::var("CHERI_GOLDEN_BLESS").is_ok() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    if got != want {
        let at = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "Table-1 results differ from {} at line {}:\n  got:  {}\n  want: {}\n\
             rerun with CHERI_GOLDEN_BLESS=1 if the behaviour change is intentional",
            path.display(),
            at + 1,
            got.lines().nth(at).unwrap_or("<end>"),
            want.lines().nth(at).unwrap_or("<end>"),
        );
    }
}
