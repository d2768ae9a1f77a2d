//! End-to-end tests: whole C programs through the full pipeline, checking
//! the outcomes the paper's semantics prescribes.

use crate::report::Outcome;
use crate::{run, run_with, CheriotCap, Profile};
use cheri_mem::{TrapKind, Ub};

fn run_ref(src: &str) -> crate::RunResult {
    run(src, &Profile::cerberus())
}

fn expect_exit(src: &str, code: i64) {
    let r = run_ref(src);
    assert_eq!(r.outcome, Outcome::Exit(code), "stdout: {}", r.stdout);
}

fn expect_ub(src: &str, ub: Ub) {
    let r = run_ref(src);
    match r.outcome {
        Outcome::Ub { ub: got, .. } => assert_eq!(got, ub),
        other => panic!("expected UB {ub}, got {other}"),
    }
}

// ── Plumbing ──────────────────────────────────────────────────────────────

#[test]
fn return_arithmetic() {
    expect_exit("int main(void) { return 2 + 3 * 4; }", 14);
}

#[test]
fn locals_and_assignment() {
    expect_exit("int main(void) { int x = 5; x += 2; x *= 3; return x; }", 21);
}

#[test]
fn loops_and_conditionals() {
    expect_exit(
        "int main(void) { int s = 0; for (int i = 1; i <= 10; i++) s += i; \
         if (s == 55) return 1; else return 2; }",
        1,
    );
}

#[test]
fn while_do_break_continue() {
    expect_exit(
        "int main(void) { int i = 0, n = 0; while (1) { i++; if (i > 10) break; \
         if (i % 2) continue; n += i; } do { n++; } while (0); return n; }",
        31,
    );
}

#[test]
fn functions_and_recursion() {
    expect_exit(
        "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n\
         int main(void) { return fib(10); }",
        55,
    );
}

#[test]
fn arrays_and_pointers() {
    expect_exit(
        "int main(void) { int a[5] = {1,2,3,4,5}; int *p = a; int s = 0;\n\
         for (int i = 0; i < 5; i++) s += p[i]; return s; }",
        15,
    );
}

#[test]
fn structs_and_unions() {
    expect_exit(
        "struct point { int x; int y; };\n\
         int main(void) { struct point p; p.x = 3; p.y = 4;\n\
         struct point *q = &p; return q->x * q->y; }",
        12,
    );
}

#[test]
fn globals_initialised() {
    expect_exit(
        "int g = 40; int h[2] = {1, 2};\n\
         int main(void) { return g + h[0] + h[1]; }",
        43,
    );
}

#[test]
fn switch_fallthrough() {
    expect_exit(
        "int main(void) { int r = 0; switch (2) { case 1: r += 1; case 2: r += 2; \
         case 3: r += 3; break; default: r = 100; } return r; }",
        5,
    );
}

#[test]
fn function_pointers() {
    expect_exit(
        "int add(int a, int b) { return a + b; }\n\
         int mul(int a, int b) { return a * b; }\n\
         int apply(int (*f)(int, int), int a, int b) { return f(a, b); }\n\
         int main(void) { int (*g)(int, int) = add; return apply(g, 2, 3) + apply(mul, 2, 3); }",
        11,
    );
}

#[test]
fn string_literals_and_strlen() {
    expect_exit(r#"int main(void) { return (int)strlen("hello"); }"#, 5);
}

#[test]
fn printf_output() {
    let r = run_ref(r#"int main(void) { printf("x=%d y=%s\n", 42, "hi"); return 0; }"#);
    assert_eq!(r.outcome, Outcome::Exit(0));
    assert_eq!(r.stdout, "x=42 y=hi\n");
}

#[test]
fn malloc_free_roundtrip() {
    expect_exit(
        "int main(void) { int *p = malloc(4 * sizeof(int));\n\
         for (int i = 0; i < 4; i++) p[i] = i + 1;\n\
         int s = 0; for (int i = 0; i < 4; i++) s += p[i];\n\
         free(p); return s; }",
        10,
    );
}

// ── §3.1: out-of-bounds access ───────────────────────────────────────────

const S31: &str = r#"
void f(int *p, int i) { int *q = p + i; *q = 42; }
int main(void) { int x=0, y=0; f(&x, 1); return y; }
"#;

#[test]
fn s31_reference_flags_bounds_ub() {
    expect_ub(S31, Ub::CheriBoundsViolation);
}

#[test]
fn s31_hardware_traps() {
    let r = run(S31, &Profile::clang_morello(false));
    match r.outcome {
        Outcome::Trap { kind, .. } => assert_eq!(kind, TrapKind::BoundsViolation),
        other => panic!("expected trap, got {other}"),
    }
}

#[test]
fn s31_baseline_flags_provenance_ub() {
    let r = run(S31, &Profile::iso_baseline());
    match r.outcome {
        Outcome::Ub { ub, .. } => assert_eq!(ub, Ub::AccessOutOfBounds),
        other => panic!("expected ISO UB, got {other}"),
    }
}

// ── §3.2: out-of-bounds construction and representability ───────────────

const S32: &str = r#"
int main(void) {
  int x[2];
  int *p = &x[0];
  int *q = p + 100001;
  q = q - 100000;
  *q = 1;
}
"#;

#[test]
fn s32_reference_flags_construction_ub() {
    expect_ub(S32, Ub::OutOfBoundPtrArithmetic);
}

#[test]
fn s32_hardware_o0_tag_cleared_then_traps() {
    let r = run(S32, &Profile::clang_morello(false));
    match r.outcome {
        Outcome::Trap { kind, .. } => assert_eq!(kind, TrapKind::TagViolation),
        other => panic!("expected tag trap, got {other}"),
    }
}

#[test]
fn s32_hardware_o3_folds_and_succeeds() {
    // Constant folding collapses the transient excursion (§3.2: compilers
    // "can optimise away, but not introduce, non-representability").
    let r = run(S32, &Profile::clang_morello(true));
    assert_eq!(r.outcome, Outcome::Exit(0), "{}", r.outcome);
}

// ── §3.3: (u)intptr_t round trips and ghost state ────────────────────────

const S33: &str = r#"
#include <stdint.h>
void f(int a, int b) {
  int x[2];
  int *p = &x[0];
  uintptr_t i = (uintptr_t)p;
  uintptr_t j = i + a;
  uintptr_t k = j - b;
  int *q = (int*)k;
  *q = 1;
}
int main(void) {
  f(100001*sizeof(int), 100000*sizeof(int));
}
"#;

#[test]
fn s33_reference_ghost_state_makes_access_ub() {
    expect_ub(S33, Ub::CheriUndefinedTag);
}

#[test]
fn s33_hardware_o0_traps_on_cleared_tag() {
    let r = run(S33, &Profile::clang_riscv(false));
    match r.outcome {
        Outcome::Trap { kind, .. } => assert_eq!(kind, TrapKind::TagViolation),
        other => panic!("expected tag trap, got {other}"),
    }
}

#[test]
fn intptr_roundtrip_within_bounds_works_everywhere() {
    let src = r#"
    #include <stdint.h>
    int main(void) {
      int x = 7;
      uintptr_t i = (uintptr_t)&x;
      int *q = (int*)i;
      return *q;
    }"#;
    for p in Profile::all_compared() {
        let r = run(src, &p);
        assert_eq!(r.outcome, Outcome::Exit(7), "profile {}", p.name);
    }
}

// ── §3.4: type punning through a union ───────────────────────────────────

#[test]
fn s34_union_punning() {
    let src = r#"
    #include <stdint.h>
    union ptr { int *ptr; uintptr_t iptr; };
    int main(void) {
      int arr[] = {42, 43};
      union ptr x;
      x.ptr = arr;
      x.iptr += sizeof(int);
      assert(*x.ptr == 43);
      return 0;
    }"#;
    expect_exit(src, 0);
}

// ── §3.5: representation accesses ────────────────────────────────────────

const S35_IDENTITY: &str = r#"
int main(void) {
  int x = 0;
  int *px = &x;
  unsigned char *p = (unsigned char *)&px;
  p[0] = p[0];
  *px = 1;
  return x;
}
"#;

#[test]
fn s35_identity_write_is_undefined_tag_at_o0() {
    expect_ub(S35_IDENTITY, Ub::CheriUndefinedTag);
    let r = run(S35_IDENTITY, &Profile::clang_morello(false));
    assert!(matches!(r.outcome, Outcome::Trap { .. }), "{}", r.outcome);
}

#[test]
fn s35_identity_write_elided_at_o3_succeeds() {
    let r = run(S35_IDENTITY, &Profile::clang_morello(true));
    assert_eq!(r.outcome, Outcome::Exit(1), "{}", r.outcome);
}

const S35_LOOP: &str = r#"
int main(void) {
  int x = 0;
  int *px0 = &x;
  int *px1;
  unsigned char *p0 = (unsigned char *)&px0;
  unsigned char *p1 = (unsigned char *)&px1;
  for (int i = 0; i < sizeof(int*); i++)
    p1[i] = p0[i];
  *px1 = 1;
  return x;
}
"#;

#[test]
fn s35_byte_copy_loop_loses_tag_at_o0() {
    let r = run_ref(S35_LOOP);
    assert!(
        matches!(r.outcome, Outcome::Ub { .. }),
        "expected UB, got {}",
        r.outcome
    );
    let r = run(S35_LOOP, &Profile::gcc_morello(false));
    assert!(matches!(r.outcome, Outcome::Trap { .. }), "{}", r.outcome);
}

#[test]
fn s35_loop_becomes_memcpy_at_o3_and_succeeds() {
    let r = run(S35_LOOP, &Profile::gcc_morello(true));
    assert_eq!(r.outcome, Outcome::Exit(1), "{}", r.outcome);
}

#[test]
fn s35_memcpy_explicitly_preserves_tag() {
    expect_exit(
        "int main(void) {\n\
           int x = 0;\n\
           int *px0 = &x; int *px1;\n\
           memcpy(&px1, &px0, sizeof(int*));\n\
           *px1 = 1;\n\
           return x; }",
        1,
    );
}

// ── §3.6: pointer equality ───────────────────────────────────────────────

#[test]
fn equality_is_address_only_exact_eq_is_not() {
    expect_exit(
        "int main(void) {\n\
           int a[2] = {0, 0};\n\
           int *p = &a[0];\n\
           int *q = cheri_tag_clear(p);\n\
           assert(p == q);                 /* address equality */\n\
           assert(!cheri_is_equal_exact(p, q));\n\
           return 0; }",
        0,
    );
}

// ── §3.7: capability derivation ──────────────────────────────────────────

#[test]
fn s37_array_shift_via_intptr() {
    expect_exit(
        "#include <stdint.h>\n\
         int* array_shift(int *x, int n) {\n\
           intptr_t ip = (intptr_t)x;\n\
           intptr_t ip1 = sizeof(int)*n + ip;\n\
           int *p = (int*)ip1;\n\
           return p;\n\
         }\n\
         int main(void) { int a[2]; a[1] = 9; return *array_shift(a, 1); }",
        9,
    );
}

#[test]
fn s37_derivation_left_for_two_caps() {
    // c0 = a + b derives from a: the result keeps a's bounds and is
    // (non-representably far) untagged, but its address is a+b.
    let src = r#"
    #include <stdint.h>
    int main(void) {
      int x=0, y=0;
      intptr_t a=(intptr_t)&x;
      intptr_t b=(intptr_t)&y;
      intptr_t c0 = a + b;
      assert(!cheri_tag_get(c0) || cheri_base_get(c0) == cheri_base_get(a));
      return 0;
    }"#;
    expect_exit(src, 0);
}

// ── §3.9: const and permissions ──────────────────────────────────────────

#[test]
fn const_object_write_is_rejected() {
    let r = run_ref("int main(void) { const int c = 1; int *p = (int*)&c; *p = 2; return c; }");
    assert!(
        matches!(
            r.outcome,
            Outcome::Ub {
                ub: Ub::CheriInsufficientPermissions | Ub::WriteToReadOnly,
                ..
            }
        ),
        "{}",
        r.outcome
    );
}

#[test]
fn const_cast_roundtrip_keeps_write_permission() {
    // ISO allows casting non-const → const → non-const and writing; the
    // capability is unchanged by the casts (§3.9).
    expect_exit(
        "int main(void) { int x = 1; const int *c = &x; int *p = (int*)c; *p = 5; return x; }",
        5,
    );
}

// ── Temporal safety ──────────────────────────────────────────────────────

#[test]
fn use_after_free_is_ub_in_reference() {
    expect_ub(
        "int main(void) { int *p = malloc(4); *p = 1; free(p); return *p; }",
        Ub::AccessDeadAllocation,
    );
}

#[test]
fn use_after_scope_exit_is_ub() {
    expect_ub(
        "int *f(void) { int x = 3; return &x; }\n\
         int main(void) { int *p = f(); return *p; }",
        Ub::AccessDeadAllocation,
    );
}

// ── Intrinsics ───────────────────────────────────────────────────────────

#[test]
fn intrinsics_basic_fields() {
    expect_exit(
        "int main(void) {\n\
           int a[4] = {0,0,0,0};\n\
           int *p = &a[0];\n\
           assert(cheri_tag_get(p));\n\
           assert(cheri_length_get(p) == 4 * sizeof(int));\n\
           assert(cheri_address_get(p) == cheri_base_get(p));\n\
           int *q = p + 2;\n\
           assert(cheri_offset_get(q) == 2 * sizeof(int));\n\
           return 0; }",
        0,
    );
}

#[test]
fn intrinsics_bounds_narrowing() {
    expect_exit(
        "int main(void) {\n\
           char buf[16];\n\
           char *p = cheri_bounds_set(buf, 8);\n\
           assert(cheri_length_get(p) == 8);\n\
           p[7] = 1;  /* in narrowed bounds */\n\
           return 0; }",
        0,
    );
}

#[test]
fn intrinsics_narrowed_bounds_trap_beyond() {
    let r = run_ref(
        "int main(void) { char buf[16]; char *p = cheri_bounds_set(buf, 8); p[8] = 1; return 0; }",
    );
    match r.outcome {
        Outcome::Ub { ub, .. } => assert_eq!(ub, Ub::CheriBoundsViolation),
        other => panic!("expected bounds UB, got {other}"),
    }
}

#[test]
fn perms_clearing_is_monotone() {
    expect_exit(
        "int main(void) {\n\
           int x = 0; int *p = &x;\n\
           size_t perms = cheri_perms_get(p);\n\
           int *q = cheri_perms_and(p, 0);\n\
           assert(cheri_perms_get(q) == 0);\n\
           assert(perms != 0);\n\
           return 0; }",
        0,
    );
}

#[test]
fn unforgeability_null_derived_has_no_rights() {
    expect_ub(
        "#include <stdint.h>\n\
         int main(void) { int x = 5; uintptr_t a = (uintptr_t)&x;\n\
         long n = (long)a;              /* plain integer */\n\
         int *p = (int*)(uintptr_t)n;   /* rebuilt from integer: untagged */\n\
         return *p; }",
        Ub::CheriInvalidCap,
    );
}

// ── Portability: same program under the CHERIoT-style model ─────────────

#[test]
fn cheriot_model_runs_programs() {
    let src = "int main(void) { int a[3] = {1,2,3}; int *p = a; return p[0] + p[1] + p[2]; }";
    let r = run_with::<CheriotCap>(src, &Profile::cerberus());
    assert_eq!(r.outcome, Outcome::Exit(6), "{}", r.outcome);
    // And bounds violations still stop the program at 32 bits.
    let r = run_with::<CheriotCap>(S31, &Profile::cerberus());
    assert!(matches!(r.outcome, Outcome::Ub { .. }));
}

// ── Output of the print_cap test helper ──────────────────────────────────

#[test]
fn print_cap_appendix_a_format() {
    let r = run_ref(
        "#include <stdint.h>\n\
         int main(void) { int x[2]; intptr_t ip = (intptr_t)&x; print_cap(ip); return 0; }",
    );
    assert_eq!(r.outcome, Outcome::Exit(0));
    assert!(r.stdout.starts_with("(@"), "stdout: {}", r.stdout);
    assert!(r.stdout.contains("[rwRW,0x"), "stdout: {}", r.stdout);
}

// ── §3.8 extension: strict sub-object bounds mode ────────────────────────

#[test]
fn subobject_bounds_narrow_member_pointers() {
    let src = r#"
        struct s { int a; int b; };
        int main(void) {
          struct s v;
          v.a = 1; v.b = 2;
          int *p = &v.a;
          assert(cheri_length_get(p) == sizeof(int));  /* narrowed */
          return *(p + 1);   /* reaching the sibling member faults */
        }
    "#;
    let strict = Profile::clang_morello_subobject_safe();
    let r = run(src, &strict);
    assert!(
        matches!(r.outcome, Outcome::Trap { .. } | Outcome::Ub { .. }),
        "{}",
        r.outcome
    );
    // Default (conservative) mode: the capability spans the allocation and
    // the container-of idiom works — but cheri_length_get differs, so run a
    // version without the narrowed-length assertion.
    let src_default = r#"
        struct s { int a; int b; };
        int main(void) {
          struct s v;
          v.a = 1; v.b = 2;
          int *p = &v.a;
          return *(p + 1);
        }
    "#;
    let r = run(src_default, &Profile::clang_morello(false));
    assert_eq!(r.outcome, Outcome::Exit(2), "{}", r.outcome);
}

#[test]
fn subobject_bounds_narrow_array_members() {
    let src = r#"
        struct msg { char tag[4]; int payload; };
        int main(void) {
          struct msg m;
          m.payload = 99;
          char *p = m.tag;       /* decay of a member array */
          p[3] = 0;              /* in bounds */
          p[4] = 0;              /* beyond the member */
          return 0;
        }
    "#;
    let r = run(src, &Profile::clang_morello_subobject_safe());
    assert!(r.outcome.is_safety_stop(), "{}", r.outcome);
    let r = run(src, &Profile::clang_morello(false));
    assert_eq!(r.outcome, Outcome::Exit(0), "default mode: {}", r.outcome);
}

// ── §5.4/§7 extension: CHERIoT-style revocation ──────────────────────────

#[test]
fn revocation_catches_use_after_free_on_hardware() {
    // Without revocation, hardware misses UAF through a reloaded pointer
    // (§3.11). With the CHERIoT profile, the sweep clears the stored
    // capability's tag at free time and the reload traps.
    let src = r#"
        int main(void) {
          int *p = malloc(sizeof(int));
          *p = 1;
          free(p);
          *p = 2;         /* p reloaded from its stack slot */
          return 0;
        }
    "#;
    let plain_hw = run_with::<CheriotCap>(src, &{
        let mut p = Profile::clang_morello(false);
        p.mem.layout = cheri_c_mem_embedded();
        p
    });
    assert_eq!(plain_hw.outcome, Outcome::Exit(0), "{}", plain_hw.outcome);
    let cheriot = run_with::<CheriotCap>(src, &Profile::cheriot());
    assert!(
        matches!(cheriot.outcome, Outcome::Trap { kind: TrapKind::TagViolation, .. }),
        "{}",
        cheriot.outcome
    );
}

fn cheri_c_mem_embedded() -> cheri_mem::AddressLayout {
    cheri_mem::AddressLayout::embedded32()
}

#[test]
fn revocation_spares_unrelated_capabilities() {
    let src = r#"
        int main(void) {
          int *keep = malloc(sizeof(int));
          int *dead = malloc(sizeof(int));
          *keep = 5;
          free(dead);
          return *keep;    /* untouched by the sweep */
        }
    "#;
    let r = run_with::<CheriotCap>(src, &Profile::cheriot());
    assert_eq!(r.outcome, Outcome::Exit(5), "{}", r.outcome);
}

// ── static locals ────────────────────────────────────────────────────────

#[test]
fn static_locals_persist_across_calls() {
    expect_exit(
        "int counter(void) { static int n = 0; n++; return n; }\n\
         int main(void) { counter(); counter(); return counter(); }",
        3,
    );
}

#[test]
fn static_local_capability_lives_past_the_frame() {
    // A static local has static storage duration: pointers to it stay valid
    // after the function returns (unlike uaf/escaped-stack-pointer).
    expect_exit(
        "int *get(void) { static int cell = 41; return &cell; }\n\
         int main(void) { int *p = get(); *p += 1; return *get(); }",
        42,
    );
}

#[test]
fn static_locals_are_zero_initialised() {
    expect_exit(
        "int f(void) { static int z; static int *zp; return z == 0 && zp == 0; }\n\
         int main(void) { return f(); }",
        1,
    );
}

// ── Floating point (the §4.3 memory interface covers float values) ──────

#[test]
fn float_arithmetic_and_comparison() {
    expect_exit(
        "int main(void) {\n\
           double d = 1.5;\n\
           float f = 2.5f;\n\
           double s = d + f;        /* usual conversions: f widens */\n\
           assert(s == 4.0);\n\
           assert(s > d && d < f);\n\
           assert(-d == -1.5);\n\
           return (int)(s * 2.0);\n\
         }",
        8,
    );
}

#[test]
fn float_int_conversions() {
    expect_exit(
        "int main(void) {\n\
           int n = 7;\n\
           double d = n / 2.0;\n\
           assert(d == 3.5);\n\
           int t = (int)d;          /* truncates toward zero */\n\
           assert(t == 3);\n\
           assert((int)-2.9 == -2);\n\
           return t;\n\
         }",
        3,
    );
}

#[test]
fn float_to_int_overflow_is_ub() {
    expect_ub(
        "int main(void) { double d = 1e20; return (int)d; }",
        Ub::SignedOverflow,
    );
}

#[test]
fn floats_roundtrip_through_memory() {
    expect_exit(
        "struct point { float x; float y; double norm2; };\n\
         int main(void) {\n\
           struct point p;\n\
           p.x = 3.0f; p.y = 4.0f;\n\
           p.norm2 = p.x * p.x + p.y * p.y;\n\
           double a[2] = { p.norm2, 0.5 };\n\
           a[1] += a[0];\n\
           assert(a[1] == 25.5);\n\
           return (int)a[0];\n\
         }",
        25,
    );
}

#[test]
fn float_division_by_zero_is_ieee_not_ub() {
    expect_exit(
        "int main(void) {\n\
           double inf = 1.0 / 0.0;\n\
           double nan = 0.0 / 0.0;\n\
           assert(inf > 1e308);\n\
           assert(!(nan == nan));    /* NaN is not equal to itself */\n\
           return 0;\n\
         }",
        0,
    );
}

#[test]
fn printf_float_formats() {
    let r = run_ref(r#"int main(void) { printf("%f %g\n", 2.5, 0.25f); return 0; }"#);
    assert_eq!(r.outcome, Outcome::Exit(0));
    assert_eq!(r.stdout, "2.500000 0.25\n");
}

#[test]
fn float_compound_assignment() {
    expect_exit(
        "int main(void) {\n\
           double acc = 1.0;\n\
           for (int i = 0; i < 3; i++) acc *= 2.0;\n\
           acc += 0.5; acc -= 0.25; acc /= 0.25;\n\
           assert(acc == 33.0);\n\
           int n = 10;\n\
           n += 2.6;                 /* converts back to int: 12 */\n\
           return n + (int)acc / 11;\n\
         }",
        15,
    );
}

#[test]
fn memcpy_of_float_arrays() {
    expect_exit(
        "int main(void) {\n\
           double src[3] = {1.5, 2.5, 3.5};\n\
           double dst[3];\n\
           memcpy(dst, src, sizeof(src));\n\
           double s = dst[0] + dst[1] + dst[2];\n\
           return (int)s;\n\
         }",
        7,
    );
}

#[test]
fn math_builtins() {
    expect_exit(
        "int main(void) {\n\
           assert(fabs(-2.5) == 2.5);\n\
           assert(sqrt(16.0) == 4.0);\n\
           double h = sqrt(3.0*3.0 + 4.0*4.0);\n\
           return (int)h;\n\
         }",
        5,
    );
}

// ── Additional C semantic corners ────────────────────────────────────────

#[test]
fn multidimensional_arrays() {
    expect_exit(
        "int main(void) {\n\
           int m[3][4];\n\
           for (int i = 0; i < 3; i++)\n\
             for (int j = 0; j < 4; j++)\n\
               m[i][j] = i * 4 + j;\n\
           assert(sizeof(m) == 48);\n\
           assert(m[2][3] == 11);\n\
           int *flat = &m[0][0];\n\
           return flat[7];   /* row-major: m[1][3] */\n\
         }",
        7,
    );
}

#[test]
fn nested_structs_and_copy_assignment() {
    expect_exit(
        "struct inner { int a; int b; };\n\
         struct outer { struct inner i; int *p; };\n\
         int main(void) {\n\
           int x = 5;\n\
           struct outer o1;\n\
           o1.i.a = 1; o1.i.b = 2; o1.p = &x;\n\
           struct outer o2;\n\
           o2 = o1;                /* aggregate copy preserves the capability */\n\
           assert(o2.i.a + o2.i.b == 3);\n\
           *o2.p = 9;              /* copied pointer still tagged */\n\
           return x;\n\
         }",
        9,
    );
}

#[test]
fn array_of_structs() {
    expect_exit(
        "struct kv { int k; int v; };\n\
         int main(void) {\n\
           struct kv table[3] = { {1, 10}, {2, 20}, {3, 30} };\n\
           int s = 0;\n\
           for (int i = 0; i < 3; i++) s += table[i].v;\n\
           struct kv *p = &table[1];\n\
           p++;\n\
           return s + p->k;   /* 60 + 3 */\n\
         }",
        63,
    );
}

#[test]
fn short_circuit_side_effects() {
    expect_exit(
        "int calls = 0;\n\
         int bump(void) { calls++; return 1; }\n\
         int main(void) {\n\
           int a = 0 && bump();\n\
           int b = 1 || bump();\n\
           assert(calls == 0);   /* neither rhs evaluated */\n\
           int c = 1 && bump();\n\
           int d = 0 || bump();\n\
           assert(calls == 2);\n\
           return a + b + c + d;\n\
         }",
        3,
    );
}

#[test]
fn ternary_and_comma() {
    expect_exit(
        "int main(void) {\n\
           int x = 3;\n\
           int *p = x > 2 ? &x : 0;\n\
           int y = (x++, x * 2);\n\
           assert(y == 8);\n\
           return p ? *p : -1;\n\
         }",
        4,
    );
}

#[test]
fn scoping_and_shadowing() {
    expect_exit(
        "int x = 1;\n\
         int main(void) {\n\
           int x = 2;\n\
           {\n\
             int x = 3;\n\
             assert(x == 3);\n\
           }\n\
           assert(x == 2);\n\
           for (int x = 10; x < 11; x++) assert(x == 10);\n\
           return x;\n\
         }",
        2,
    );
}

#[test]
fn switch_inside_loop_with_continue() {
    expect_exit(
        "int main(void) {\n\
           int s = 0;\n\
           for (int i = 0; i < 6; i++) {\n\
             switch (i % 3) {\n\
               case 0: continue;\n\
               case 1: s += 10; break;\n\
               default: s += 1;\n\
             }\n\
           }\n\
           return s;   /* i=1,4 add 10; i=2,5 add 1 */\n\
         }",
        22,
    );
}

#[test]
fn negative_division_and_modulo() {
    expect_exit(
        "int main(void) {\n\
           assert(-7 / 2 == -3);     /* truncation toward zero */\n\
           assert(-7 % 2 == -1);\n\
           assert(7 / -2 == -3);\n\
           assert(7 % -2 == 1);\n\
           return 0;\n\
         }",
        0,
    );
}

#[test]
fn hex_literals_and_long_long() {
    expect_exit(
        "int main(void) {\n\
           unsigned long long big = 0xFFFFFFFFFFFFFFFFull;\n\
           assert(big + 1 == 0);     /* unsigned wraps */\n\
           long long sh = 1ll << 40;\n\
           assert(sh > 0x8000000000);\n\
           return (int)(big & 0x2A);\n\
         }",
        42,
    );
}

#[test]
fn enum_values_in_expressions() {
    expect_exit(
        "enum color { RED, GREEN = 5, BLUE };\n\
         int main(void) {\n\
           enum color c = BLUE;\n\
           assert(RED == 0 && GREEN == 5 && BLUE == 6);\n\
           switch (c) { case BLUE: return GREEN + 1; default: return 0; }\n\
         }",
        6,
    );
}

#[test]
fn typedef_chains() {
    expect_exit(
        "typedef int myint;\n\
         typedef myint *intp;\n\
         typedef struct pair { myint a; myint b; } pair_t;\n\
         int main(void) {\n\
           pair_t p = {20, 22};\n\
           intp pa = &p.a;\n\
           return *pa + p.b;\n\
         }",
        42,
    );
}

#[test]
fn char_arithmetic_and_strings() {
    expect_exit(
        r#"int main(void) {
           char s[6] = "hello";
           int caps = 0;
           for (int i = 0; s[i]; i++) {
             if (s[i] >= 'a' && s[i] <= 'z') caps++;
             s[i] = s[i] - 'a' + 'A';
           }
           assert(strcmp(s, "HELLO") == 0);
           return caps;
         }"#,
        5,
    );
}

#[test]
fn pointer_to_pointer() {
    expect_exit(
        "int main(void) {\n\
           int x = 7;\n\
           int *p = &x;\n\
           int **pp = &p;\n\
           **pp = 9;\n\
           assert(cheri_tag_get(*pp));\n\
           return x;\n\
         }",
        9,
    );
}

#[test]
fn recursion_passing_capabilities() {
    expect_exit(
        "void fill(int *a, int n) {\n\
           if (n == 0) return;\n\
           a[n-1] = n;\n\
           fill(a, n - 1);\n\
         }\n\
         int main(void) {\n\
           int a[10];\n\
           fill(a, 10);\n\
           int s = 0;\n\
           for (int i = 0; i < 10; i++) s += a[i];\n\
           return s;\n\
         }",
        55,
    );
}

#[test]
fn do_while_and_unary_ops() {
    expect_exit(
        "int main(void) {\n\
           int n = 0, i = 5;\n\
           do { n += i--; } while (i > 0);\n\
           assert(n == 15);\n\
           assert(~0 == -1);\n\
           assert(!0 == 1 && !7 == 0);\n\
           return +n - 10;\n\
         }",
        5,
    );
}

// ── Engine-parity regression tests (PR 8 bugfixes) ────────────────────────
//
// Each of these pins a path where the bytecode VM used to diverge from (or
// crash instead of matching) the reference tree engine. They run both
// engines explicitly rather than relying on the generative differential
// test to eventually draw the construct.

/// `main` returning an `unsigned long` above `2^63`: both engines must
/// produce the *same* wrapped process exit value. They used to agree only
/// by coincidence (duplicated `as i64` casts); they now share
/// `interp::exit_code`, so this pins the conversion itself.
#[test]
fn exit_code_conversion_matches_across_engines() {
    use crate::{run_with_engine, Engine, MorelloCap};
    // x = 2^63 (unsigned shift, well-defined), return x + 5 = 2^63 + 5.
    let src = "unsigned long main(void) {\n\
                 unsigned long x = 1;\n\
                 x = x << 63;\n\
                 return x + 5;\n\
               }";
    let profile = Profile::cerberus();
    let tree = run_with_engine::<MorelloCap>(src, &profile, Engine::Tree);
    let vm = run_with_engine::<MorelloCap>(src, &profile, Engine::Bytecode);
    // 2^63 + 5 wraps to i64::MIN + 5 when narrowed to the exit i64.
    assert_eq!(tree.outcome, Outcome::Exit(i64::MIN + 5), "tree engine");
    assert_eq!(vm.outcome, Outcome::Exit(i64::MIN + 5), "bytecode engine");
}

/// A recognised-memcpy loop whose byte count is not an integer value must
/// be a loud `Unsupported` error in *both* engines. The VM used to treat
/// the length as 0 (`unwrap_or(0)`), silently skipping the copy.
#[test]
fn opt_memcpy_non_integer_length_is_loud_in_both_engines() {
    use crate::lex::Pos;
    use crate::tast::{TExpr, TExprKind, TStmt};
    use crate::types::{FloatTy, IntTy, Ty};
    use crate::{Engine, Interp, MorelloCap};

    let profile = Profile::cerberus();
    let mut prog = crate::compile("int main(void) { return 0; }", &profile).unwrap();
    // The source recogniser can only build integer-typed counts, so forge
    // the malformed statement directly: a float-typed byte count.
    let str_ptr = |s: &str| TExpr {
        ty: Ty::ptr(Ty::Int(IntTy::Char)),
        kind: TExprKind::StrLit(s.into()),
        pos: Pos::default(),
        from_noncap: false,
    };
    let bad = TStmt::OptMemcpy {
        dst: str_ptr("dst"),
        src: str_ptr("src"),
        n: TExpr {
            ty: Ty::Float(FloatTy::F64),
            kind: TExprKind::ConstFloat(1.0),
            pos: Pos::default(),
            from_noncap: false,
        },
    };
    prog.funcs.get_mut("main").unwrap().body.insert(0, bad);

    for engine in [Engine::Tree, Engine::Bytecode] {
        let r = Interp::<MorelloCap>::new(&prog, &profile).with_engine(engine).run();
        match &r.outcome {
            Outcome::Error(m) => assert!(
                m.contains("OptMemcpy length is not an integer"),
                "{engine:?}: unexpected message {m:?}"
            ),
            other => panic!("{engine:?}: expected loud error, got {other}"),
        }
    }
}

/// A malformed program — a `PtrCmp` whose operator is not a comparison —
/// must fail the run with a `Stop` error, not `unreachable!`, on either
/// engine: one bad program must not take down a long-lived service.
#[test]
fn malformed_ptr_cmp_op_errors_instead_of_panicking() {
    use crate::ast::BinOp;
    use crate::ir::{self, Inst};
    use crate::lex::Pos;
    use crate::tast::{TExpr, TExprKind, TStmt};
    use crate::types::{IntTy, Ty};
    use crate::{Engine, Interp, MorelloCap};

    let expect_loud = |r: &crate::RunResult, engine: Engine| match &r.outcome {
        Outcome::Error(m) => assert!(
            m.contains("`Add` is not a pointer comparison"),
            "{engine:?}: unexpected message {m:?}"
        ),
        other => panic!("{engine:?}: expected loud error, got {other}"),
    };
    let profile = Profile::cerberus();

    // The VM: hand-built IR comparing two copies of one string literal.
    let prog = crate::compile("int main(void) { return 0; }", &profile).unwrap();
    let mut irp = ir::lower(&prog);
    let sid = ir::StrId(irp.strs.len() as u32);
    irp.strs.push("x".into());
    let tid = ir::TyId(irp.types.len() as u32);
    irp.types.push(Ty::ptr(Ty::Int(IntTy::Char)));
    let mi = irp.main.unwrap() as usize;
    let f = &mut irp.funcs[mi];
    f.code = vec![
        Inst::StrLit { dst: 0, s: sid, ty: tid },
        Inst::StrLit { dst: 1, s: sid, ty: tid },
        // `Add` is not a comparison: no lowering emits this.
        Inst::PtrCmp { dst: 2, op: BinOp::Add, a: 0, b: 1 },
        Inst::RetFall,
    ];
    f.n_regs = 3;
    f.block_pc = vec![0];
    let r = Interp::<MorelloCap>::new(&prog, &profile)
        .with_ir(std::sync::Arc::new(irp))
        .run();
    expect_loud(&r, Engine::Bytecode);

    // The tree engine: the same comparison as a hand-built typed AST.
    let mut prog = prog;
    let lit = || {
        Box::new(TExpr {
            ty: Ty::ptr(Ty::Int(IntTy::Char)),
            kind: TExprKind::StrLit("x".into()),
            pos: Pos::default(),
            from_noncap: false,
        })
    };
    let bad = TStmt::Expr(TExpr {
        ty: Ty::Int(IntTy::Int),
        kind: TExprKind::PtrCmp { op: BinOp::Add, a: lit(), b: lit() },
        pos: Pos::default(),
        from_noncap: false,
    });
    prog.funcs.get_mut("main").unwrap().body.insert(0, bad);
    let r = Interp::<MorelloCap>::new(&prog, &profile)
        .with_engine(Engine::Tree)
        .run();
    expect_loud(&r, Engine::Tree);
}

// ── C strings are bytes ──────────────────────────────────────────────────
//
// `strlen`, `strcpy` and `strcmp` work on the bytes of a C string. They
// used to decode it as UTF-8 first, so a non-ASCII byte became the 3-byte
// U+FFFD: `strlen` over-counted, `strcpy` copied past the source string
// (a false bounds violation) and distinct strings compared equal.

/// A 2-byte string whose first byte is not UTF-8.
const NON_UTF8_STRLEN: &str = r#"
int main(void) {
  char s[3] = {(char)200, 'a', 0};
  char d[3];
  strcpy(d, s);
  printf("%d\n", (int)strlen(d));
  return (int)strlen(s);
}"#;

/// `strcmp` orders bytes as `unsigned char`, on strings that are not UTF-8.
const NON_UTF8_STRCMP: &str = r#"
int main(void) {
  char lo[2] = {(char)200, 0};
  char hi[2] = {(char)201, 0};
  printf("%d %d %d\n", strcmp(lo, hi), strcmp(hi, lo), strcmp(lo, "z"));
  return 0;
}"#;

fn expect_on_every_profile_and_engine(src: &str, stdout: &str, code: i64) {
    use crate::{run_with_engine, Engine, MorelloCap};
    for p in Profile::all_compared() {
        for engine in [Engine::Tree, Engine::Bytecode] {
            let r = run_with_engine::<MorelloCap>(src, &p, engine);
            assert_eq!(r.outcome, Outcome::Exit(code), "{} {engine:?}", p.name);
            assert_eq!(r.stdout, stdout, "{} {engine:?}", p.name);
        }
    }
}

#[test]
fn strlen_and_strcpy_count_bytes_not_utf8() {
    expect_on_every_profile_and_engine(NON_UTF8_STRLEN, "2\n", 2);
}

#[test]
fn strcmp_orders_non_utf8_bytes_as_unsigned_char() {
    expect_on_every_profile_and_engine(NON_UTF8_STRCMP, "-1 1 1\n", 0);
}

// ── Pointer arithmetic that wraps the address space ──────────────────────

/// An index whose byte offset is a non-zero multiple of 2^64 wraps the
/// machine address back onto the object. The ISO rule (§3.2) is about the
/// exact address, so the abstract profiles flag the arithmetic; the
/// hardware profiles compute the wrapped address and read `a[0]`.
#[test]
fn array_index_wrapping_the_address_space_is_out_of_bounds() {
    use crate::{run_with_engine, Engine, MorelloCap};
    let src = "long a[2]; int main(void) { return (int)a[0x4000000000000000]; }";
    for engine in [Engine::Tree, Engine::Bytecode] {
        for p in [Profile::cerberus(), Profile::iso_baseline()] {
            let r = run_with_engine::<MorelloCap>(src, &p, engine);
            match r.outcome {
                Outcome::Ub { ub, .. } => {
                    assert_eq!(ub, Ub::OutOfBoundPtrArithmetic, "{} {engine:?}", p.name);
                }
                other => panic!("{} {engine:?}: expected UB, got {other}", p.name),
            }
        }
        let r = run_with_engine::<MorelloCap>(src, &Profile::clang_morello(false), engine);
        assert_eq!(r.outcome, Outcome::Exit(0), "clang-morello-O0 {engine:?}");
    }
}

// ── Object sizes beyond 64 bits ──────────────────────────────────────────

/// A type whose size does not fit in 64 bits is a front-end error: a
/// local, a `sizeof` operand, a struct and an array completed from its
/// initialiser. Computing such a size used to overflow (a panic in debug
/// builds, a wrapped size such as 0 in release builds).
#[test]
fn types_larger_than_64_bits_are_rejected_by_the_front_end() {
    let p = Profile::cerberus();
    for src in [
        "int main(void) { char big[0x4000000000000000][4]; return 0; }",
        "int main(void) { return (int)sizeof(char[0x4000000000000000][4]); }",
        "struct s { char a[0x8000000000000000]; char b[0x8000000000000000]; };\n\
         int main(void) { struct s *q = 0; return q == 0; }",
        "char big[][0x4000000000000000] = {{0}, {0}, {0}, {0}};\n\
         int main(void) { return 0; }",
    ] {
        match crate::compile(src, &p) {
            Err(e) => assert!(e.contains("is too large"), "{src}: {e}"),
            Ok(_) => panic!("{src}: accepted"),
        }
    }
    // The largest sizes that fit are still computed exactly.
    expect_exit(
        "int main(void) { return (int)(sizeof(char[0x4000000000000000][3]) >> 62); }",
        3,
    );
}

// ── Constant expressions that do not fold ────────────────────────────────

/// A division by zero in an array size (global or local), an enum value or
/// a struct member's array size ends the run as a front-end error under
/// every profile. The parser's folding used to panic on these instead.
#[test]
fn unfoldable_constants_are_front_end_errors() {
    for src in [
        "int a[1/0];\nint main(void) { return 0; }",
        "int main(void) { int a[1/0]; return 0; }",
        "enum { A = 1 % 0 };\nint main(void) { return A; }",
        "struct s { int m[2 / (1 - 1)]; };\nint main(void) { return 0; }",
    ] {
        for p in Profile::all_compared() {
            match run(src, &p).outcome {
                Outcome::Error(m) => assert!(
                    m.starts_with("parse error at 1:") && m.contains("cannot fold"),
                    "{src} under {}: {m}",
                    p.name
                ),
                other => panic!("{src} under {}: {other}", p.name),
            }
        }
    }
}

// ── Types without a size ─────────────────────────────────────────────────

/// Every size the program takes goes through one checked query, so an
/// object, member, `sizeof` operand or pointer-arithmetic element of a
/// type without a size (`void`, a function, an array of unknown length)
/// is a positioned front-end error. Each of these used to panic in
/// `TypeTable::size_of`, in the parser, the type checker, the lowering or
/// the interpreter. GNU `void *` arithmetic stays unsupported.
#[test]
fn types_without_a_size_are_front_end_errors() {
    for src in [
        "int main(void) { void x; return 0; }",
        "void g;\nint main(void) { return 0; }",
        "int f(void x) { return 0; }\nint main(void) { return 0; }",
        "struct s { int n; int a[]; };\nint main(void) { return 0; }",
        "union u { int n; int a[]; };\nint main(void) { return 0; }",
        "int a[sizeof(void)];\nint main(void) { return 0; }",
        "int main(void) { return (int)sizeof(void); }",
        "int main(void) { return (int)sizeof(int[]); }",
        "int main(void) { int (*a)[]; return (int)sizeof(*a); }",
        "int main(void) { void *p = 0; p = p + 1; return 0; }",
        "int main(void) { void *p = 0; p++; return 0; }",
        "int main(void) { void *p = 0; p += 1; return 0; }",
        "int main(void) { void *p = 0; void *q = 0; return (int)(p - q); }",
        "int main(void) { void *a[2]; a[0][0]; return 0; }",
        "int main(void) { int (*a)[]; a++; return 0; }",
        "int g(void) { return 0; }\nint main(void) { g + 1; return 0; }",
        "int main(void) { int (*f)(void) = main; return (int)sizeof(*f); }",
    ] {
        match crate::front_end(src, 16) {
            Err(e) => assert!(
                (e.starts_with("parse error at ") || e.starts_with("type error at "))
                    && e.contains("has no size"),
                "{src}: {e}"
            ),
            Ok(_) => panic!("{src}: accepted"),
        }
    }
}

/// A file-scope object declared more than once is one object (C11
/// 6.9.2): tentative definitions and `extern` declarations name the
/// object the first declaration made, whose initialiser may come later.
/// Two initialisers or two types for one name are front-end errors.
#[test]
fn a_global_declared_twice_is_one_object() {
    use crate::{run_with_engine, Engine, MorelloCap};
    for (src, want) in [
        ("int x = 5;\nint x;\nint main(void) { return x; }", "exit(5)"),
        ("extern int y;\nint y = 7;\nint main(void) { return y; }", "exit(7)"),
        ("int q;\nint main(void) { return q + 3; }\nint q = 4;", "exit(7)"),
    ] {
        for engine in [Engine::Tree, Engine::Bytecode] {
            let r = run_with_engine::<MorelloCap>(src, &Profile::cerberus(), engine);
            assert_eq!(r.outcome.label(), want, "{engine:?}: {src}");
            // `main`, the global, `stderr` and `stdout`.
            assert_eq!(r.mem_stats.allocations, 4, "{engine:?}: {src}");
        }
    }
    for (src, want) in [
        ("int z = 1;\nint z = 2;\nint main(void) { return z; }", "redefinition of `z`"),
        ("int w;\nlong w;\nint main(void) { return 0; }", "conflicting types for `w`"),
        ("int v;\nconst int v = 1;\nint main(void) { return 0; }", "conflicting types for `v`"),
    ] {
        match crate::front_end(src, 16) {
            Err(e) => assert!(e.contains(want), "{src}: {e}"),
            Ok(_) => panic!("{src}: accepted"),
        }
    }
}

/// `*` follows C (6.5p5, 6.2.5p9) in every profile and on every engine: a
/// signed product that does not fit is `SignedOverflow`, also through
/// `*=`, and an unsigned one wraps, even when the exact product is 2^127
/// or more.
#[test]
fn multiplication_overflow_follows_c_on_every_engine() {
    use crate::{run_with_engine, Engine, MorelloCap};
    let ub = "UB:UB036_signed_overflow".to_string();
    let cases = [
        ("int main(void) { int x = 65536; return x * x == 0; }", ub.clone()),
        ("int main(void) { long x = 3037000500; x *= x; return 0; }", ub),
        (
            "int main(void) { unsigned long a = 0xFFFFFFFFFFFFFFFFUL; return a * a == 1 ? 7 : 3; }",
            "exit(7)".to_string(),
        ),
    ];
    for name in ["cerberus", "clang-morello-O0", "clang-morello-O3"] {
        let profile = Profile::all_compared()
            .into_iter()
            .find(|p| p.name == name)
            .expect("compared profile");
        let mut fast = profile.clone();
        fast.opt = fast.opt.fast();
        for (src, want) in &cases {
            for (how, p, engine) in [
                ("tree", &profile, Engine::Tree),
                ("vm", &profile, Engine::Bytecode),
                ("fast", &fast, Engine::Bytecode),
            ] {
                let r = run_with_engine::<MorelloCap>(src, p, engine);
                assert_eq!(&r.outcome.label(), want, "{name} {how}: {src}");
                if let crate::Outcome::Ub { detail, .. } = &r.outcome {
                    assert!(detail.contains("multiplication overflow"), "{detail}");
                }
            }
        }
    }
}

/// `break` needs an enclosing loop or `switch`, and `continue` an
/// enclosing loop (C11 6.8.6.3p1, 6.8.6.2p1): a stray one is a front-end
/// error, not a return. A `continue` in a `switch` in a loop continues the
/// loop, on every engine.
#[test]
fn stray_break_and_continue_are_front_end_errors() {
    use crate::{run_with_engine, Engine, MorelloCap};
    for (src, want) in [
        ("int main(void) { break; return 3; }", "`break` outside a loop or `switch`"),
        (
            "int main(void) { switch (1) { case 1: continue; } return 3; }",
            "`continue` outside a loop",
        ),
    ] {
        match crate::front_end(src, 16) {
            Err(e) => assert!(e.starts_with("type error at ") && e.contains(want), "{src}: {e}"),
            Ok(_) => panic!("{src}: accepted"),
        }
    }
    let src = "int main(void) { int n = 0;\n\
               for (int i = 0; i < 4; i++) { switch (i) { case 1: continue; default: n += i; } }\n\
               return n; }";
    let mut fast = Profile::cerberus();
    fast.opt = fast.opt.fast();
    for (how, p, engine) in [
        ("tree", Profile::cerberus(), Engine::Tree),
        ("vm", Profile::cerberus(), Engine::Bytecode),
        ("fast", fast, Engine::Bytecode),
    ] {
        let r = run_with_engine::<MorelloCap>(src, &p, engine);
        assert_eq!(r.outcome.label(), "exit(5)", "{how}");
    }
}

/// A root-bounded `cheri_ddc_get()` pointer reaches the top of the
/// address space: a store and load that end exactly at 2^64 keep their
/// bytes under every hardware profile, on every engine. Under `cerberus`
/// the pointer's empty provenance stops the first access.
#[test]
fn accesses_that_end_at_the_top_of_the_address_space() {
    use crate::{run_with_engine, Engine, MorelloCap};
    let cases = [
        ("int", "0xFFFFFFFFFFFFFFFCUL", 7),
        ("int", "0xFFFFFFFFFFFFFF00UL", 7),
        ("long", "0xFFFFFFFFFFFFFFF8UL", 5),
    ];
    let profiles = [
        Profile::cerberus(),
        Profile::clang_morello(false),
        Profile::clang_morello(true),
        Profile::cheriot(),
    ];
    for profile in profiles {
        let mut fast = profile.clone();
        fast.opt = fast.opt.fast();
        for (ty, addr, v) in cases {
            let src = format!(
                "int main(void) {{\n  {ty} *p = ({ty} *)cheri_address_set(cheri_ddc_get(), {addr});\n  \
                 *p = {v};\n  return (int)*p;\n}}"
            );
            let want = if profile.mem.abstract_ub {
                "UB:UB_empty_provenance_access".to_string()
            } else {
                format!("exit({v})")
            };
            for (how, p, engine) in [
                ("tree", &profile, Engine::Tree),
                ("vm", &profile, Engine::Bytecode),
                ("fast", &fast, Engine::Bytecode),
            ] {
                let r = run_with_engine::<MorelloCap>(&src, p, engine);
                assert_eq!(r.outcome.label(), want, "{} {how}: {src}", profile.name);
            }
        }
    }
}
