//! Golden tests for the `--emit-ir` rendering of the lowered bytecode.
//!
//! The dumps under `tests/golden/ir/` pin every stage of the pipeline:
//! `<name>.ir` is the raw lowering (block structure, register
//! allocation, constant pools and the textual format itself),
//! `<name>.opt.ir` is the peephole-optimised form the bytecode engine
//! executes by default, and `<name>.fast.ir` is the register-promoted +
//! peephole form the `--fast` mode executes, so any change to the
//! lowering, the optimiser *or* the escape-analysis promotion shows up
//! as a reviewable diff rather than silently shifting what the VM runs.
//!
//! A property test beside the goldens checks, over the oracle corpus and
//! the Table-1 suite, that optimising already-optimised IR changes
//! nothing.
//!
//! Regenerate after an intentional lowering change:
//! `CHERI_GOLDEN_BLESS=1 cargo test --test ir_golden`.

use std::path::PathBuf;

use cheri_bench::progen::generate_traced;
use cheri_c::core::{compile_for, ir, Profile};
use cheri_cap::MorelloCap;
use cheri_testsuite::all_tests;

/// Three programs chosen to cover the lowering surface: straight-line
/// arithmetic with calls, every loop/branch construct (explicit jumps),
/// and the capability-specific paths (pointer arithmetic, casts,
/// aggregates, string literals, builtins).
const PROGRAMS: &[(&str, &str)] = &[
    (
        "arith_calls",
        r#"
        int add(int a, int b) { return a + b; }
        int main(void) {
          int s = 0;
          s = add(s, 3) * 2 - 1;
          s += add(s, s) % 7;
          return s;
        }
    "#,
    ),
    (
        "control_flow",
        r#"
        int main(void) {
          int s = 0;
          for (int i = 0; i < 8; i++) {
            if (i % 2 == 0) continue;
            s += i;
          }
          while (s > 10) { s -= 3; }
          do { s++; } while (s < 5 && s != 4);
          switch (s) {
            case 4: s = 40; break;
            case 5: s = 50;
            default: s += 1;
          }
          return s ? s : -1;
        }
    "#,
    ),
    (
        "pointers_caps",
        r#"
        #include <stdint.h>
        struct pair { int a; int b; };
        int main(void) {
          int x[4] = {1, 2, 3, 4};
          int *p = &x[1];
          uintptr_t u = (uintptr_t)p;
          int *q = (int *)(u + sizeof(int));
          struct pair pr = {5, 6};
          pr.b = *q + p[1];
          char msg[4] = "hi";
          int n = (int)msg[0];
          return pr.b + n - x[3] - 'h';
        }
    "#,
    ),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("ir")
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Raw,
    Opt,
    Fast,
}

fn render(src: &str, stage: Stage) -> String {
    let profile = Profile::cerberus();
    let prog = compile_for::<MorelloCap>(src, &profile).expect("golden programs compile");
    match stage {
        Stage::Raw => ir::lower(&prog).render(),
        Stage::Opt => ir::lower_opt(&prog).render(),
        Stage::Fast => ir::lower_fast(&prog).render(),
    }
}

#[test]
fn ir_dumps_match_goldens() {
    let bless = std::env::var("CHERI_GOLDEN_BLESS").is_ok();
    let dir = golden_dir();
    let mut failures = Vec::new();
    let cases = PROGRAMS.iter().flat_map(|(name, src)| {
        [
            (format!("{name}.ir"), *src, Stage::Raw),
            (format!("{name}.opt.ir"), *src, Stage::Opt),
            (format!("{name}.fast.ir"), *src, Stage::Fast),
        ]
    });
    for (file, src, stage) in cases {
        let got = render(src, stage);
        let path = dir.join(&file);
        if bless {
            std::fs::create_dir_all(&dir).expect("create golden dir");
            std::fs::write(&path, &got).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        if got != want {
            let at = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or(0);
            failures.push(format!(
                "{file}: IR dump differs from {} (first differing line {}); \
                 rerun with CHERI_GOLDEN_BLESS=1 if the lowering change is intentional",
                path.display(),
                at + 1
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The dump must be deterministic run-to-run (stable pools and function
/// order) — a prerequisite for treating dumps as goldens at all.
#[test]
fn ir_rendering_is_deterministic() {
    for (name, src) in PROGRAMS {
        assert_eq!(render(src, Stage::Raw), render(src, Stage::Raw), "{name} rendered unstably");
        assert_eq!(
            render(src, Stage::Opt),
            render(src, Stage::Opt),
            "{name} optimised render unstable"
        );
        assert_eq!(
            render(src, Stage::Fast),
            render(src, Stage::Fast),
            "{name} fast render unstable"
        );
    }
}

/// The optimised IR is a peephole fixpoint: optimising it again changes
/// nothing, in both pipelines, over the oracle corpus and the Table-1
/// suite. This guards the rounds loop, which must stop only once a round
/// finds nothing to rewrite.
#[test]
fn optimized_ir_is_a_peephole_fixpoint() {
    let profiles = [
        Profile::cerberus(),
        Profile::clang_morello(true),
        Profile::iso_baseline(),
    ];
    let corpus = (0..256u64).flat_map(|seed| {
        [false, true].map(|buggy| {
            (
                format!("seed {seed} buggy={buggy}"),
                generate_traced(seed, buggy).source(),
            )
        })
    });
    let table1 = all_tests()
        .into_iter()
        .map(|t| (t.id.to_string(), t.source.to_string()));
    let mut failures = Vec::new();
    let mut compiled = 0;
    for (name, src) in corpus.chain(table1) {
        for profile in &profiles {
            let Ok(prog) = compile_for::<MorelloCap>(&src, profile) else {
                continue; // front-end errors never reach the optimiser
            };
            compiled += 1;
            for (stage, mut once) in [
                ("opt", ir::lower_opt(&prog)),
                ("fast", ir::lower_fast(&prog)),
            ] {
                let before = once.render();
                ir::peephole::optimize(&mut once);
                if once.render() != before {
                    failures.push(format!("{name} under {} ({stage})", profile.name));
                }
            }
        }
    }
    assert!(compiled > 1500, "only {compiled} programs compiled");
    assert!(
        failures.is_empty(),
        "{} optimised program(s) changed when optimised again:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
