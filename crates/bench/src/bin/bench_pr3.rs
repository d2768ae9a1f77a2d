//! `bench_pr3` — the per-allocation byte store's microbenchmarks.
//!
//! Times the memory model's storage paths — per-allocation `Vec<AbsByte>`
//! buffers plus packed capability-slot bitsets behind a sorted interval
//! index — and writes the results to `BENCH_pr3.json` (path = first CLI
//! argument, default `./BENCH_pr3.json`). Row ids keep their `/flat`
//! suffix from when a second store was timed beside this one, because
//! `bench_pr4` reads `interp_end_to_end/cerberus/flat` from this file.
//!
//! Workloads:
//!
//! * `scalar_store_load` — the `memory_model` bench workload (`MEM_OPS`
//!   4-byte stores then loads), reference and hardware profiles;
//! * `memcpy` — capability-preserving 4 KiB copies;
//! * `revocation_sweep` — CHERI hardware profile with revocation on free:
//!   32 heap regions full of cross-pointers, all freed (each free sweeps
//!   memory for overlapping capabilities);
//! * `interp_end_to_end` — a whole C program (malloc churn + array sums)
//!   through parse → typecheck → interpret under the cerberus profile.
//!
//! There is no timing gate; the binary fails only if a workload's sanity
//! check does. `CHERI_QC_BENCH_FAST=1` shrinks samples for CI.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use cheri_bench::MEM_OPS;
use cheri_core::{Outcome, Profile};
use cheri_mem::{AddressLayout, CheriMemory, IntVal, MemConfig, MemStats};
use cheri_qc::bench::{black_box, Bench};

type Mem = CheriMemory<cheri_core::MorelloCap>;

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

/// Capability-preserving 4 KiB memcpy between two heap buffers.
fn memcpy_workload(cfg: MemConfig) -> i128 {
    let n = MEM_OPS as u64;
    let mut mem = Mem::new(cfg);
    let src = mem.allocate_region(n, 16).expect("src");
    let dst = mem.allocate_region(n, 16).expect("dst");
    mem.memset(&src, 0xA5, n).expect("memset");
    for _ in 0..8 {
        mem.memcpy(&dst, &src, n).expect("memcpy");
        mem.memcpy(&src, &dst, n).expect("memcpy back");
    }
    mem.load_int(&dst, 4, false, false).expect("readback").value()
}

/// Revocation churn: 32 heap regions full of capabilities to each other,
/// then freed one by one — every free sweeps memory for overlapping
/// capabilities (§7 temporal-safety extension).
fn revocation_workload(cfg: MemConfig) -> u64 {
    let mut mem = Mem::new(cfg);
    let regions: Vec<_> = (0..32)
        .map(|_| mem.allocate_region(256, 16).expect("region"))
        .collect();
    for (i, r) in regions.iter().enumerate() {
        for j in 0..16i64 {
            let p = mem.array_shift(r, 16, j).expect("shift");
            let target = &regions[(i + j as usize) % regions.len()];
            mem.store_ptr(&p, target).expect("store cap");
        }
    }
    for r in &regions {
        mem.kill(r, true).expect("free");
    }
    mem.stats.revoked_caps
}

const CHURN_PROGRAM: &str = r#"
int main(void) {
  int acc = 0;
  for (int i = 0; i < 40; i++) {
    int *p = malloc(64 * sizeof(int));
    for (int j = 0; j < 64; j++) p[j] = j;
    for (int j = 0; j < 64; j++) acc += p[j];
    free(p);
  }
  return acc == 40 * 2016 ? 0 : 1;
}"#;

/// Whole-pipeline run under the cerberus profile; returns the memory-model
/// counters so the JSON records the workload size.
fn interp_workload() -> MemStats {
    let r = cheri_core::run(CHURN_PROGRAM, &Profile::cerberus());
    assert!(
        matches!(r.outcome, Outcome::Exit(0)),
        "end-to-end workload must be well-defined: {:?}",
        r.outcome
    );
    r.mem_stats
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr3.json".into());
    let fast = std::env::var("CHERI_QC_BENCH_FAST").is_ok();
    let mut c = Bench::new();

    let reference = MemConfig::cheri_reference();
    let hardware = MemConfig::cheri_hardware(AddressLayout::clang_morello());
    let mut revoking = hardware;
    revoking.revocation = true;
    c.bench_function("scalar_store_load/cheri_reference/flat", |b| {
        b.iter(|| black_box(store_load_workload(reference)));
    });
    c.bench_function("scalar_store_load/cheri_hardware/flat", |b| {
        b.iter(|| black_box(store_load_workload(hardware)));
    });
    c.bench_function("memcpy_4k/cheri_reference/flat", |b| {
        b.iter(|| black_box(memcpy_workload(reference)));
    });
    c.bench_function("revocation_sweep/cheri_hardware/flat", |b| {
        b.iter(|| black_box(revocation_workload(revoking)));
    });
    c.bench_function("interp_end_to_end/cerberus/flat", |b| {
        b.iter(|| black_box(interp_workload()));
    });

    // Sanity checks: the sweep really revokes, and the stats plumbing
    // reports the run's operation counts.
    assert!(
        revocation_workload(revoking) > 0,
        "revocation workload must clear tags"
    );
    let stats = interp_workload();
    assert!(stats.loads > 0 && stats.stores > 0 && stats.allocations > 0);

    let results = c.results();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"BENCH_pr3\",");
    let _ = writeln!(json, "  \"mem_ops\": {MEM_OPS},");
    let _ = writeln!(json, "  \"fast_mode\": {fast},");
    let _ = writeln!(
        json,
        "  \"interp_workload_stats\": {{\"loads\": {}, \"stores\": {}, \"allocations\": {}}},",
        stats.loads, stats.stores, stats.allocations
    );
    json.push_str("  \"results\": [\n");
    for (i, s) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"iters_per_sample\": {}}}{}",
            json_escape(&s.id),
            s.median,
            s.mean,
            s.min,
            s.iters_per_sample,
            if i + 1 == results.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write BENCH_pr3.json");
    println!("\nwrote {out_path}");
}
