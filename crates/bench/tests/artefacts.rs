//! Golden-file tests for the paper's artefacts: the standard output of
//! `table1_tests` (Table 1 and the §5 summary), `fig1_layout` (Figure 1)
//! and `appendix_a` (Appendix A), each byte for byte against
//! `tests/golden/<binary>.txt`. Each binary must also exit 0.
//!
//! Regenerate after an intended change:
//! `CHERI_GOLDEN_BLESS=1 cargo test -p cheri-bench --test artefacts`.

use std::path::PathBuf;
use std::process::Command;

/// `(binary name, path of the built binary)`.
const ARTEFACTS: [(&str, &str); 3] = [
    ("table1_tests", env!("CARGO_BIN_EXE_table1_tests")),
    ("fig1_layout", env!("CARGO_BIN_EXE_fig1_layout")),
    ("appendix_a", env!("CARGO_BIN_EXE_appendix_a")),
];

#[test]
fn artefacts_match_golden_files() {
    let bless = std::env::var("CHERI_GOLDEN_BLESS").is_ok();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut mismatches = Vec::new();
    for (name, exe) in ARTEFACTS {
        let out = Command::new(exe)
            .output()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(out.status.success(), "{name} exited with {}", out.status);
        let got = String::from_utf8(out.stdout).expect("UTF-8 output");
        let path = dir.join(format!("{name}.txt"));
        if bless {
            std::fs::write(&path, &got).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        if got != want {
            mismatches.push(format!("{name}:\n--- golden\n{want}\n--- got\n{got}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} artefacts differ from their goldens (rerun with CHERI_GOLDEN_BLESS=1 if the change is \
         intended):\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
