//! Golden-file tests for the `--emit-escape` report: one targeted case
//! per reason a local stays in memory.
//!
//! Four cases take the address of a scalar local through a different
//! syntactic route — explicit `&x`, array-to-pointer decay, capability
//! derivation via `(uintptr_t)&x`, passing `&x` to a call — and one
//! compares two addresses; the others keep a `const` local and a struct
//! written through its members. The goldens pin that the escape analysis
//! (a) refuses to promote that local and (b) reports the *specific*
//! blocking reason, in both the text and JSON diagnostic renderings. A
//! positive control rides along so the goldens also pin the promoted
//! shape.
//!
//! Beyond the byte-for-byte golden comparison, each case asserts the
//! expected `escape.kept` line and reason label directly, so a stale
//! blessing cannot silently weaken the property.
//!
//! Regenerate after an intentional format change:
//! `CHERI_GOLDEN_BLESS=1 cargo test --test escape_golden`.

use std::path::PathBuf;

use cheri_c::core::{compile_for, ir, Profile};
use cheri_c::escape_diagnostics;
use cheri_cap::MorelloCap;

/// A `(local, reason-label)` pair the analysis must keep in memory.
type MustKeep = (&'static str, &'static str);

/// `(name, must_keep pairs, source)`.
const CASES: &[(&str, &[MustKeep], &str)] = &[
    (
        "addr_of",
        &[("main::x", "addr-taken")],
        r"
        int main(void) {
          int x = 1;
          int *p = &x;
          *p = 2;
          return x;
        }
    ",
    ),
    // Array-to-pointer decay is an address-taking operation on the
    // array object itself: `p = a` materialises `&a[0]`.
    (
        "array_decay",
        &[("main::a", "addr-taken")],
        r"
        int main(void) {
          int a[3];
          a[0] = 4; a[1] = 5; a[2] = 6;
          int *p = a;
          return p[1];
        }
    ",
    ),
    (
        "cap_derived",
        &[("main::x", "cap-derived")],
        r"
        int main(void) {
          int x = 5;
          uintptr_t u = (uintptr_t)&x;
          return (int)(u & 1);
        }
    ",
    ),
    (
        "call_arg",
        &[("main::x", "addr-passed-to-call")],
        r"
        void bump(int *p) { *p = *p + 1; }
        int main(void) {
          int x = 41;
          bump(&x);
          return x;
        }
    ",
    ),
    // A provenance-aware pointer comparison (§3.6) takes both addresses.
    (
        "addr_compared",
        &[("main::x", "addr-compared"), ("main::y", "addr-compared")],
        r"
        int main(void) {
          int x = 1;
          int y = 2;
          return &x == &y;
        }
    ",
    ),
    // A `const` local's capability is frozen read-only (§3.9), which a
    // register cannot reproduce.
    (
        "const_local",
        &[("main::c", "const-qualified")],
        r"
        int main(void) {
          const int c = 3;
          return c + 1;
        }
    ",
    ),
    // A struct is not one scalar object: a member write shifts into it.
    (
        "struct_member",
        &[("main::s", "not-scalar"), ("main::s", "no-initialiser")],
        r"
        struct pair { int a; int b; };
        int main(void) {
          struct pair s;
          s.a = 1;
          s.b = 2;
          return s.a + s.b;
        }
    ",
    ),
    // Positive control: nothing escapes, everything scalar promotes.
    (
        "all_promoted",
        &[],
        r"
        int main(void) {
          int s = 0;
          for (int i = 0; i < 4; i++) s += i;
          return s;
        }
    ",
    ),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("escape")
}

fn report_for(src: &str) -> cheri_c::core::ir::escape::EscapeReport {
    let prog = compile_for::<MorelloCap>(src, &Profile::cerberus()).expect("case compiles");
    ir::escape::analyze_program(&ir::lower(&prog))
}

#[test]
fn escape_reports_match_golden_files() {
    let bless = std::env::var("CHERI_GOLDEN_BLESS").is_ok();
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut failures = Vec::new();
    for (name, _, src) in CASES {
        let diags = escape_diagnostics(&report_for(src));
        for (ext, got) in [
            ("txt", cheri_c::obs::render_diagnostics_text(&diags)),
            ("json", cheri_c::obs::render_diagnostics_json(&diags)),
        ] {
            let path = dir.join(format!("{name}.{ext}"));
            if bless {
                std::fs::write(&path, &got).expect("write golden");
                continue;
            }
            let want = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
            if got != want {
                failures.push(format!(
                    "{name}.{ext}: report differs from golden\n--- golden\n{want}\n--- got\n{got}"
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden mismatches:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Each address-taking route provably blocks promotion with its specific
/// reason — checked against the analysis itself, independent of the
/// golden bytes.
#[test]
fn each_address_taking_route_blocks_promotion() {
    for (name, must_keep, src) in CASES {
        let report = report_for(src);
        for (qualified, reason) in *must_keep {
            let (func, local) = qualified.split_once("::").expect("func::local");
            let fe = report
                .funcs
                .iter()
                .find(|f| f.func == *func)
                .unwrap_or_else(|| panic!("{name}: no function {func} in report"));
            let l = fe
                .locals
                .iter()
                .find(|l| l.name == *local)
                .unwrap_or_else(|| panic!("{name}: no local {local} in {func}"));
            assert!(
                !l.promoted,
                "{name}: {qualified} must stay in memory, but was promoted"
            );
            assert!(
                l.reasons.iter().any(|r| r.label() == *reason),
                "{name}: {qualified} kept, but without reason {reason}; got {:?}",
                l.reasons.iter().map(|r| r.label()).collect::<Vec<_>>()
            );
        }
        if must_keep.is_empty() {
            // Positive control: every local in main promotes.
            let fe = report.funcs.iter().find(|f| f.func == "main").expect("main");
            assert!(
                !fe.locals.is_empty() && fe.locals.iter().all(|l| l.promoted),
                "{name}: expected all of main's locals promoted, got {:?}",
                fe.locals
                    .iter()
                    .map(|l| (l.name.clone(), l.promoted))
                    .collect::<Vec<_>>()
            );
        }
    }
}
