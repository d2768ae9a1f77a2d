//! Trace explorer: run one program under two implementation profiles,
//! capture both typed memory-event streams, and pretty-print where (and
//! whether) they diverge.
//!
//! The paper's §5 comparison reduces each implementation to its final
//! *outcome*; the event streams show the path there. Two profiles place
//! allocations at different addresses, so a raw diff disagrees at the
//! first event — the explorer therefore diffs in *normalized* coordinates
//! (allocation ordinal, offset), where layout differences vanish and only
//! semantic divergences remain.
//!
//! ```sh
//! cargo run --example trace_explorer
//! ```

use cheri_c::core::{run_traced, Profile};
use cheri_c::lint::{lint, LintMode};
use cheri_c::obs::{diff, render, render_diff};

/// The §3.1 one-past write: UB to the reference semantics, a capability
/// bounds trap on emulated hardware — the streams agree event-for-event
/// right up to that verdict.
const S31: &str = r#"
void f(int *p, int i) {
  int *q = p + i;
  *q = 42;
}
int main(void) {
  int x = 0, y = 0;
  f(&x, 1);
  return y;
}
"#;

/// A well-defined program: same normalized stream everywhere, no
/// divergence to report.
const CLEAN: &str = r#"
int main(void) {
  int a[4];
  for (int i = 0; i < 4; i++) a[i] = i * i;
  return a[3] - 9;
}
"#;

/// One-line static verdict for a profile, e.g. `must-ub (out-of-bounds)`.
fn static_verdict(src: &str, profile: &Profile) -> String {
    match lint(src, profile) {
        Err(e) => format!("front-end error: {e}"),
        Ok(report) => {
            let mut s = report.overall().label().to_string();
            if let Some(class) = report.must_class() {
                s.push_str(&format!(" ({class})"));
            }
            if let LintMode::Widened(reason) = &report.mode {
                s.push_str(&format!(" [widened: {reason}]"));
            }
            s
        }
    }
}

fn explore(title: &str, src: &str, left: &Profile, right: &Profile) {
    println!("── {title}: {} vs {} ──", left.name, right.name);
    let (lr, levs) = run_traced(src, left);
    let (rr, revs) = run_traced(src, right);
    println!(
        "  {:<20} {} ({} events)   [static: {}]",
        left.name,
        lr.outcome,
        levs.len(),
        static_verdict(src, left)
    );
    println!(
        "  {:<20} {} ({} events)   [static: {}]",
        right.name,
        rr.outcome,
        revs.len(),
        static_verdict(src, right)
    );
    match diff(&levs, &revs, 3) {
        None => println!("  no divergence: the normalized event streams are identical\n"),
        Some(d) => {
            // The diff reports raw (un-normalized) events; render them with
            // the full renderer so non-legacy events (rep-checks, tag
            // clears, the terminal verdict) are visible too.
            for line in render_diff(&d).lines() {
                println!("  {line}");
            }
            println!();
        }
    }
}

fn main() {
    println!("trace explorer: where do two implementations part ways?\n");

    let cerberus = Profile::cerberus();
    let morello = Profile::clang_morello(false);
    let riscv = Profile::clang_riscv(true);

    explore("§3.1 one-past write", S31, &cerberus, &morello);
    explore("well-defined array sums", CLEAN, &morello, &riscv);

    // The full renderer shows everything the legacy `--trace` text hides:
    // representability checks, tag clears, and the terminal verdict.
    let (_, events) = run_traced(S31, &morello);
    println!("── full event stream, §3.1 under clang-morello-O0 ──");
    for (i, ev) in events.iter().enumerate() {
        println!("  [{i:>2}] {}", render::full_line(ev));
    }
}
