//! `bench_pr8` — trace-preserving capability & IR optimisations.
//!
//! Measures the PR 8 performance work — memoised CHERI-Concentrate bounds
//! decoding inside `CcCap`, the 24 → 8 byte packed `AbsByte`, and the
//! bytecode peephole pass — and writes the comparison to `BENCH_pr8.json`
//! (path = first CLI argument; the PR 7 baseline is read from the second,
//! default `./BENCH_pr7.json`).
//!
//! Workloads (ids deliberately match `bench_pr7` where the workload is
//! identical, so the two JSON files diff cleanly):
//!
//! * `scalar_store_load/cheri_reference` — the `memory_model` scalar
//!   workload (`MEM_OPS` 4-byte stores then loads) on the flat store;
//!   also reported as ns per load/store op, the number EXPERIMENTS.md
//!   tracks across PRs (91 ns → 54 ns → this PR);
//! * `interp_end_to_end/{profile}/{engine}` — whole pipeline on the
//!   malloc-churn + array-sum program, three profiles × both engines;
//! * `dispatch_loop/cerberus/{tree,bytecode-raw,bytecode-peephole}` — the
//!   tight arithmetic loop on a pre-compiled program; the VM runs both
//!   the raw lowering and the peephole-optimised form, isolating what
//!   the pass buys at equal event traces.
//!
//! Gates (CI perf-smoke; exit status non-zero if any fails):
//!
//! 1. scalar ns/op must be **below the 54 ns/op recorded for PR 7** —
//!    the bounds memo and packed `AbsByte` attack exactly this path.
//!    Gated on the per-sample *minimum* (the standard noise-robust
//!    estimator for an absolute-cost bar on shared runners; the median
//!    is reported alongside it). `CHERI_PR8_SCALAR_BUDGET_NS` overrides
//!    the bar — an absolute ns figure is machine-dependent, so CI
//!    runners get a documented wider budget while the committed
//!    `BENCH_pr8.json` records the dev-box figure against the real bar;
//! 2. the peephole-optimised VM must not be slower than the raw VM on
//!    `dispatch_loop` (same-process comparison; min-vs-min within a
//!    noise margin, `CHERI_PR8_PEEPHOLE_MARGIN`, default 5%);
//! 3. when the baseline path (second CLI argument) is a readable
//!    `BENCH_pr7.json`: the bytecode engine's minimum on every
//!    end-to-end workload (and the dispatch loop) must beat the PR 7
//!    recorded minimum — a measurable improvement, not noise. This gate
//!    only means something against the *committed* PR 7 record made on
//!    the same machine as this run: CI regenerates `BENCH_pr7.json`
//!    with the already-optimised code (the capability/`AbsByte` wins
//!    sit in the path both engines share), which would make the ratio
//!    ≈ 1.0 by construction, so CI passes `none` to skip it;
//! 4. when the *record* path (third CLI argument) is a readable
//!    `BENCH_pr8.json`: the same minima must stay within
//!    `CHERI_PR8_RECORD_SLACK` × the committed record (default 3.0 —
//!    the record is made on a dev box, CI runs on shared runners, and
//!    the gate is an order-of-magnitude regression tripwire, not a
//!    same-machine comparison). This is the gate CI actually runs: it
//!    copies the committed `BENCH_pr8.json` aside before regenerating
//!    it, so an e2e perf regression fails CI rather than only a dev-box
//!    rerun (gate 3 was local-only by construction).
//!
//! `CHERI_QC_BENCH_FAST=1` shrinks samples for CI.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::Arc;

use cheri_bench::MEM_OPS;
use cheri_core::ir::{lower, lower_opt, IrProgram};
use cheri_core::{compile_for, Engine, Interp, MorelloCap, Outcome, Profile};
use cheri_mem::{CheriMemory, IntVal, MemConfig};
use cheri_qc::bench::{black_box, Bench, Stats};

/// PR 7's recorded scalar cost on the reference memory model
/// (EXPERIMENTS.md "91 → 54 ns per scalar load/store op"): the bar this
/// PR's capability/`AbsByte` work must clear.
const PR7_SCALAR_NS_PER_OP: f64 = 54.0;

/// Same end-to-end workload as `bench_pr7` (ids must stay comparable).
const CHURN_PROGRAM: &str = r#"
int main(void) {
  long acc = 0;
  for (int i = 0; i < 64; i++) {
    int *p = malloc(128 * sizeof(int));
    for (int j = 0; j < 128; j++) p[j] = j ^ i;
    for (int j = 0; j < 128; j++) acc += p[j];
    free(p);
  }
  return acc > 0 ? 0 : 1;
}"#;

/// Same dispatch workload as `bench_pr7`.
const DISPATCH_PROGRAM: &str = r#"
int main(void) {
  long s = 0;
  for (int i = 0; i < 20000; i++) {
    s += (i * 3) ^ (s & 7);
    s -= i >> 2;
  }
  return s != 0 ? 0 : 1;
}"#;

type Mem = CheriMemory<MorelloCap>;

/// The `memory_model` scalar workload: MEM_OPS 4-byte stores, then loads.
fn store_load_workload(cfg: MemConfig) -> i128 {
    let mut mem = Mem::new(cfg);
    let arr = mem
        .allocate_object("arr", 4 * MEM_OPS as u64, 4, false, None)
        .expect("allocate");
    let mut acc = 0i128;
    for i in 0..MEM_OPS {
        let p = mem.array_shift(&arr, 4, i as i64).expect("shift");
        mem.store_int(&p, 4, &IntVal::Num(i as i128)).expect("store");
    }
    for i in 0..MEM_OPS {
        let p = mem.array_shift(&arr, 4, i as i64).expect("shift");
        acc += mem.load_int(&p, 4, true, false).expect("load").value();
    }
    mem.kill(&arr, false).expect("kill");
    acc
}

fn end_to_end(profile: &Profile, engine: Engine) {
    let r = cheri_core::run_with_engine::<MorelloCap>(CHURN_PROGRAM, profile, engine);
    assert!(
        matches!(r.outcome, Outcome::Exit(0)),
        "end-to-end workload must be well-defined: {:?}",
        r.outcome
    );
}

/// Pull `"key": <number>` out of the flat JSON the bench binaries write,
/// scoped to the object fragment that follows `anchor`.
fn json_number_after(text: &str, anchor: &str, key: &str) -> Option<f64> {
    let at = text.find(anchor)?;
    let rest = &text[at..];
    let k = rest.find(&format!("\"{key}\":"))?;
    let tail = rest[k + key.len() + 3..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr8.json".into());
    let baseline_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_pr7.json".into());
    let fast = std::env::var("CHERI_QC_BENCH_FAST").is_ok();
    let mut c = Bench::new();

    // Scalar microbenchmark (reference model, flat store — the config the
    // 54 ns/op PR 7 figure was recorded under).
    let reference = MemConfig::cheri_reference();
    c.bench_function("scalar_store_load/cheri_reference/flat", |b| {
        b.iter(|| black_box(store_load_workload(reference)));
    });

    let profiles = [
        Profile::cerberus(),
        Profile::clang_morello(false),
        Profile::gcc_morello(true),
    ];
    for (engine_name, engine) in [("tree", Engine::Tree), ("bytecode", Engine::Bytecode)] {
        for profile in &profiles {
            c.bench_function(
                format!("interp_end_to_end/{}/{engine_name}", profile.name),
                |b| b.iter(|| end_to_end(profile, engine)),
            );
        }
    }

    // Dispatch microbenchmark: compile once; the VM runs both IR stages.
    let profile = Profile::cerberus();
    let dispatch_prog =
        compile_for::<MorelloCap>(DISPATCH_PROGRAM, &profile).expect("dispatch program compiles");
    let raw_ir: Arc<IrProgram> = Arc::new(lower(&dispatch_prog));
    let opt_ir: Arc<IrProgram> = Arc::new(lower_opt(&dispatch_prog));
    let run_vm = |ir: &Arc<IrProgram>| {
        let r = Interp::<MorelloCap>::new(&dispatch_prog, &profile)
            .with_ir(Arc::clone(ir))
            .run();
        assert!(matches!(r.outcome, Outcome::Exit(0)));
        black_box(r.mem_stats)
    };
    c.bench_function("dispatch_loop/cerberus/tree", |b| {
        b.iter(|| {
            let r = Interp::<MorelloCap>::new(&dispatch_prog, &profile).run();
            assert!(matches!(r.outcome, Outcome::Exit(0)));
            black_box(r.mem_stats)
        });
    });
    c.bench_function("dispatch_loop/cerberus/bytecode-raw", |b| {
        b.iter(|| run_vm(&raw_ir));
    });
    c.bench_function("dispatch_loop/cerberus/bytecode-peephole", |b| {
        b.iter(|| run_vm(&opt_ir));
    });

    let results: Vec<Stats> = c.results().to_vec();
    let stat = |id: &str, f: fn(&Stats) -> f64| {
        results
            .iter()
            .find(|s| s.id == id)
            .map(f)
            .expect("benchmark ran")
    };
    let median = |id: &str| stat(id, |s| s.median);

    // Gate 1: scalar ns/op below the PR 7 record. The minimum is the
    // noise-robust estimator for an absolute bar (OS jitter only ever
    // adds time); the median is reported next to it.
    let scalar_median_ns_per_op =
        median("scalar_store_load/cheri_reference/flat") / (2 * MEM_OPS) as f64;
    let scalar_ns_per_op =
        stat("scalar_store_load/cheri_reference/flat", |s| s.min) / (2 * MEM_OPS) as f64;
    let scalar_budget: f64 = std::env::var("CHERI_PR8_SCALAR_BUDGET_NS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(PR7_SCALAR_NS_PER_OP);
    let gate1_pass = scalar_ns_per_op < scalar_budget;

    // Gate 2: the peephole must pay for itself on the dispatch loop.
    // Min-vs-min with a small margin: the honest effect (a handful of
    // instructions deleted from a ~30-instruction loop body) is a few
    // percent, below the median jitter of a shared runner; the gate is
    // there to catch the pass making the VM *badly* slower.
    let margin: f64 = std::env::var("CHERI_PR8_PEEPHOLE_MARGIN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.05);
    let raw_ns = stat("dispatch_loop/cerberus/bytecode-raw", |s| s.min);
    let opt_ns = stat("dispatch_loop/cerberus/bytecode-peephole", |s| s.min);
    let gate2_pass = opt_ns <= raw_ns * (1.0 + margin);

    // Gate 3: end-to-end minima beat the PR 7 recorded minima.
    let baseline = std::fs::read_to_string(&baseline_path).ok();
    let e2e_ids: Vec<String> = profiles
        .iter()
        .map(|p| format!("interp_end_to_end/{}/bytecode", p.name))
        .collect();
    let mut vs_pr7: Vec<(String, f64, Option<f64>)> = Vec::new();
    for id in &e2e_ids {
        let now_min = stat(id, |s| s.min);
        let base_min = baseline
            .as_deref()
            .and_then(|t| json_number_after(t, &format!("\"{id}\""), "min_ns"));
        vs_pr7.push((id.clone(), now_min, base_min));
    }
    // The dispatch loop id changed (pr7 had no stage split): compare the
    // peephole VM against pr7's plain bytecode dispatch number.
    let dispatch_base = baseline
        .as_deref()
        .and_then(|t| json_number_after(t, "\"dispatch_loop/cerberus/bytecode\"", "min_ns"));
    vs_pr7.push((
        "dispatch_loop/cerberus/bytecode-peephole".into(),
        stat("dispatch_loop/cerberus/bytecode-peephole", |s| s.min),
        dispatch_base,
    ));
    let gate3_skipped = baseline.is_none();
    let gate3_pass =
        gate3_skipped || vs_pr7.iter().all(|(_, now, base)| base.is_none_or(|b| *now < b));

    // Gate 4: regression tripwire against the *committed* PR 8 record
    // (third CLI argument). Unlike gate 3 this one runs in CI: the
    // workflow copies the committed BENCH_pr8.json aside before this
    // binary overwrites it, and a wide slack absorbs the dev-box →
    // shared-runner machine gap while still catching order-of-magnitude
    // regressions on the measured end-to-end paths.
    let record_path = std::env::args().nth(3).unwrap_or_else(|| "none".into());
    let record = std::fs::read_to_string(&record_path).ok();
    let record_slack: f64 = std::env::var("CHERI_PR8_RECORD_SLACK")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    let record_ids: Vec<String> = e2e_ids
        .iter()
        .cloned()
        .chain(["dispatch_loop/cerberus/bytecode-peephole".to_string()])
        .collect();
    let mut vs_record: Vec<(String, f64, Option<f64>)> = Vec::new();
    for id in &record_ids {
        let now_min = stat(id, |s| s.min);
        let rec_min = record
            .as_deref()
            .and_then(|t| json_number_after(t, &format!("\"{id}\""), "min_ns"));
        vs_record.push((id.clone(), now_min, rec_min));
    }
    let gate4_skipped = record.is_none();
    let gate4_pass = gate4_skipped
        || vs_record
            .iter()
            .all(|(_, now, rec)| rec.is_none_or(|r| *now <= r * record_slack));

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"BENCH_pr8\",");
    let _ = writeln!(json, "  \"fast_mode\": {fast},");
    json.push_str("  \"results\": [\n");
    for (i, s) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"iters_per_sample\": {}}}{}",
            s.id,
            s.median,
            s.mean,
            s.min,
            s.iters_per_sample,
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"vs_pr7_min_ratio\": {{{}}},",
        vs_pr7
            .iter()
            .map(|(id, now, base)| format!(
                "\"{id}\": {}",
                base.map_or_else(|| "null".into(), |b| format!("{:.3}", now / b))
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    json.push_str("  \"gates\": {\n");
    let _ = writeln!(
        json,
        "    \"scalar_below_pr7\": {{\"min_ns_per_op\": {scalar_ns_per_op:.1}, \"median_ns_per_op\": {scalar_median_ns_per_op:.1}, \"pr7_ns_per_op\": {PR7_SCALAR_NS_PER_OP}, \"budget_ns_per_op\": {scalar_budget}, \"pass\": {gate1_pass}}},",
    );
    let _ = writeln!(
        json,
        "    \"peephole_not_slower\": {{\"raw_min_ns\": {raw_ns:.1}, \"peephole_min_ns\": {opt_ns:.1}, \"speedup\": {:.3}, \"margin\": {margin}, \"pass\": {gate2_pass}}},",
        raw_ns / opt_ns
    );
    let _ = writeln!(
        json,
        "    \"e2e_beats_pr7_min\": {{\"skipped\": {gate3_skipped}, \"pass\": {gate3_pass}}},"
    );
    let _ = writeln!(
        json,
        "    \"e2e_within_record\": {{\"skipped\": {gate4_skipped}, \"slack\": {record_slack}, \"pass\": {gate4_pass}}}"
    );
    json.push_str("  }\n}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_pr8.json");
    println!("\nwrote {out_path}");
    println!(
        "gate scalar: min {scalar_ns_per_op:.1} ns/op (median {scalar_median_ns_per_op:.1}) vs budget {scalar_budget} (PR7 record {PR7_SCALAR_NS_PER_OP}) — {}",
        if gate1_pass { "PASS" } else { "FAIL" }
    );
    println!(
        "gate peephole: raw min {raw_ns:.0} ns, peephole min {opt_ns:.0} ns ({:.3}x, margin {margin}) — {}",
        raw_ns / opt_ns,
        if gate2_pass { "PASS" } else { "FAIL" }
    );
    if gate3_skipped {
        println!("gate e2e vs PR7: SKIPPED (no {baseline_path})");
    } else {
        for (id, now, base) in &vs_pr7 {
            match base {
                Some(b) => println!(
                    "  {id}: {:.1} ms vs PR7 {:.1} ms ({:.3}x)",
                    now / 1e6,
                    b / 1e6,
                    now / b
                ),
                None => println!("  {id}: no PR7 baseline entry"),
            }
        }
        println!("gate e2e vs PR7: {}", if gate3_pass { "PASS" } else { "FAIL" });
    }
    if gate4_skipped {
        println!("gate e2e vs committed record: SKIPPED (no {record_path})");
    } else {
        for (id, now, rec) in &vs_record {
            match rec {
                Some(r) => println!(
                    "  {id}: {:.1} ms vs record {:.1} ms (budget {:.1} ms)",
                    now / 1e6,
                    r / 1e6,
                    r * record_slack / 1e6
                ),
                None => println!("  {id}: no record entry"),
            }
        }
        println!(
            "gate e2e vs committed record (slack {record_slack}x): {}",
            if gate4_pass { "PASS" } else { "FAIL" }
        );
    }
    if !(gate1_pass && gate2_pass && gate3_pass && gate4_pass) {
        std::process::exit(1);
    }
}
