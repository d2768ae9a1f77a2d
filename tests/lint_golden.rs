//! Golden-file tests for the static analyzer's rendered reports.
//!
//! One hand-written program per UB verdict class (plus a sub-object
//! bounds case that is only flagged under the `subobject-safe` profile),
//! and one per way the definite pass can end or annotate a run: the four
//! conversion notes, a late event harvest, both widening limits and a
//! constraint failure. Each is captured in both the text and the JSON
//! rendering. The goldens pin the full report surface: overall verdict,
//! analysis mode, predicted outcome label, the per-class table and every
//! diagnostic line.
//!
//! Regenerate after an intentional format or verdict change:
//! `CHERI_GOLDEN_BLESS=1 cargo test --test lint_golden`.

use std::path::PathBuf;

use cheri_c::core::Profile;
use cheri_c::lint::lint;

/// `(name, profile, source)` — each chosen so the named class, or the
/// named way the definite pass ends, is the report's subject under that
/// profile.
const CASES: &[(&str, &str, &str)] = &[
    (
        "oob",
        "cerberus",
        r#"
        int main(void) {
          int a[2];
          a[2] = 1;
          return 0;
        }
    "#,
    ),
    (
        "oob_subobject",
        "clang-morello-O0-subobject-safe",
        r#"
        struct pair { int fst[2]; int snd; };
        int main(void) {
          struct pair p;
          p.snd = 7;
          int *q = p.fst;
          return q[2];
        }
    "#,
    ),
    (
        "use_after_free",
        "cerberus",
        r#"
        int main(void) {
          int *p = malloc(sizeof(int));
          *p = 5;
          free(p);
          return *p;
        }
    "#,
    ),
    (
        "uninit",
        "cerberus",
        r#"
        int main(void) {
          int x;
          return x;
        }
    "#,
    ),
    (
        "provenance",
        "cerberus",
        r#"
        int main(void) {
          int a = 1;
          int b = 2;
          int *p = &a;
          int *q = &b;
          return p - q;
        }
    "#,
    ),
    (
        "tag_stripped",
        "clang-morello-O0",
        r#"
        int main(void) {
          char a[8];
          char *p = a + 1000000;
          return *p;
        }
    "#,
    ),
    (
        "permission",
        "cerberus",
        r#"
        int main(void) {
          const int x = 1;
          int *p = (int *)&x;
          *p = 2;
          return 0;
        }
    "#,
    ),
    (
        "arithmetic",
        "cerberus",
        r#"
        int main(void) {
          int z = 0;
          return 1 / z;
        }
    "#,
    ),
    (
        "null_deref",
        "clang-morello-O0",
        r#"
        int main(void) {
          int *p = 0;
          return *p;
        }
    "#,
    ),
    (
        "misaligned_store",
        "clang-morello-O0",
        r#"
        int main(void) {
          int x = 7;
          int *a[4];
          a[0] = &x;
          char *b = (char *)a;
          *(int **)(b + 1) = &x;
          return x;
        }
    "#,
    ),
    // The four conversion notes: a pointer cast to a plain integer, a
    // `uintptr_t` narrowed to `int`, a plain integer cast to a pointer,
    // and `uintptr_t` arithmetic that leaves the representable range.
    (
        "conversions",
        "cerberus",
        r#"
        int main(void) {
          int x = 5;
          int *p = &x;
          long l = (long)p;
          uintptr_t u = (uintptr_t)p;
          int i = (int)u;
          long n = 4096;
          int *q = (int *)n;
          uintptr_t w = u + 100000000;
          return (l != 0) + (i != 0) + (q != 0) + (w != u) - 4;
        }
    "#,
    ),
    // Memory events are harvested every 64 steps, so the misaligned store
    // on line 8 is reported at the position the run has reached by then.
    (
        "late_harvest",
        "clang-morello-O0",
        r#"
        int main(void) {
          int x = 7;
          int *a[4];
          a[0] = &x;
          char *b = (char *)a;
          for (int i = 0; i < 10; i++) x = x + 1;
          *(int **)(b + 1) = &x;
          for (int j = 0; j < 10; j++) x = x - 1;
          return x;
        }
    "#,
    ),
    (
        "step_budget",
        "cerberus",
        r#"
        int main(void) {
          int a[4];
          int *p = a;
          int x = 0;
          while (1) { p[x] = x; x = (x + 1) % 4; }
          return x;
        }
    "#,
    ),
    (
        "call_depth",
        "cerberus",
        r#"
        int f(int n) {
          if (n == 0)
            return 0;
          return f(n - 1) + 1;
        }
        int main(void) {
          return f(1000);
        }
    "#,
    ),
    // A constraint failure is not UB: the report stays definite and
    // predicts the interpreter's `error` outcome.
    (
        "constraint_failure",
        "cerberus",
        r#"
        int main(void) {
          char *p = calloc(0x100000000UL, 0x100000000UL);
          return p == 0;
        }
    "#,
    ),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("lint")
}

fn profile_by_name(name: &str) -> Profile {
    match name {
        "cerberus" => Profile::cerberus(),
        "clang-morello-O0" => Profile::clang_morello(false),
        "clang-morello-O0-subobject-safe" => Profile::clang_morello_subobject_safe(),
        other => panic!("unknown golden profile {other}"),
    }
}

#[test]
fn lint_reports_match_golden_files() {
    let bless = std::env::var("CHERI_GOLDEN_BLESS").is_ok();
    let dir = golden_dir();
    if bless {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut failures = Vec::new();
    for (name, profile_name, src) in CASES {
        let profile = profile_by_name(profile_name);
        // The definite pass recurses once per C call and nested
        // expression, and `call_depth` reaches the 256-call limit: more
        // than an unoptimised build fits in a default 2 MiB test thread.
        let report = std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || lint(src, &profile))
            .expect("spawn lint thread")
            .join()
            .expect("lint thread panicked")
            .unwrap_or_else(|e| panic!("{name}: lint failed to compile: {e}"));
        for (ext, got) in [("txt", report.render_text()), ("json", report.render_json())] {
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
