//! `perf` — the end-to-end and per-layer benchmark of the CHERI C
//! semantics, driven through `cheri_serve::Service`.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/perf/Cargo.toml -- \
//!     --workload <fuzz-cold|table1-warm|kernels|ci-gates> --seed <u64> \
//!     [--seconds <n>] [--trace <0|1>] [--out <dir>]
//! ```
//!
//! One run measures one workload. Its inputs come from `--seed` alone.
//! The run repeats rounds until `--seconds` have passed; each round times
//! the speed reference (`speed.rs`), sets up a fresh service (and, for the
//! warm workloads, compiles every program into its cache), then drives the
//! workload through it in a closed loop with one job in flight per worker.
//! Every output is checked against an independent reference. Set-up time
//! throughput and heap peak are medians over rounds, latency percentiles
//! are taken over every job of the run, and the wall-clock figures are
//! scaled to the reference speed.
//!
//! With `--trace 1` the run instead reports per-layer metrics: the service
//! figures of untraced rounds for half the time, then a single-threaded
//! traced run of one round's jobs, one stage at a time (see `layers.rs`),
//! whose spans are written to `<out>/trace.jsonl` (default `target/perf`).
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit status is 0 when every check passed, 1 when one failed and 2
//! on a usage error. README.md describes every workload and metric.

mod alloc;
mod check;
mod layers;
mod speed;
mod trace;
mod workload;

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cheri_core::MorelloCap;
use cheri_serve::{ProgramCache, Service};

use crate::layers::{unit_costs, Pipeline};
use crate::workload::{Kind, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

type C = MorelloCap;

const USAGE: &str = "usage: perf --workload <fuzz-cold|table1-warm|kernels|ci-gates> --seed <u64> \
                     [--seconds <n>] [--trace <0|1>] [--out <dir>]";

/// The largest share of the traced per-job time that may fall outside
/// every layer span.
const MAX_UNATTRIBUTED: f64 = 0.05;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from("target/perf");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                };
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

/// One round: fresh set-up, then the whole workload in a closed loop.
struct Round {
    /// The speed reference's duration just before the round.
    reference: Duration,
    setup: Duration,
    wall: Duration,
    /// Submit → in-order delivery, per job, in ns.
    latency_ns: Vec<u64>,
    /// The service's own `exec_ns`, per job.
    exec_ns: Vec<u64>,
    peak_bytes: usize,
    hits: u64,
    misses: u64,
    failures: Vec<String>,
    /// Outcome strings of every job, when kept for the traced run.
    kept: Vec<Vec<String>>,
}

/// Compile every (program, profile) pair of `wl` into `cache` on
/// `workers` threads.
fn warm(cache: &ProgramCache, wl: &Workload, workers: usize) {
    let mut seen = HashSet::new();
    let pairs: Vec<_> = wl
        .jobs
        .iter()
        .flat_map(|j| j.spec.profiles.iter().map(move |p| (&j.spec.source, p)))
        .filter(|(src, p)| seen.insert((Arc::as_ptr(src), p.name.as_str())))
        .collect();
    std::thread::scope(|s| {
        for w in 0..workers {
            let pairs = &pairs;
            s.spawn(move || {
                for (src, p) in pairs.iter().skip(w).step_by(workers) {
                    let _ = cache.get_or_compile::<C>(src, p);
                }
            });
        }
    });
}

fn run_round(wl: &Workload, workers: usize, keep: bool) -> Round {
    let reference = speed::measure(workers);
    alloc::reset_peak();
    // The heap the round adds: the inputs and earlier rounds' leftovers
    // are not the round's (and a finished thread's unpublished count is
    // lost, so the absolute figure drifts).
    let base = alloc::peak_bytes();
    let t0 = Instant::now();
    let cache = Arc::new(ProgramCache::new());
    if wl.warm {
        warm(&cache, wl, workers);
    }
    let mut svc = Service::<C>::with_cache(workers, Arc::clone(&cache));
    let setup = t0.elapsed();
    let (hits0, misses0) = (cache.hits(), cache.misses());

    let jobs = &wl.jobs;
    let mut submitted = Vec::with_capacity(jobs.len());
    let mut latency_ns = Vec::with_capacity(jobs.len());
    let mut exec_ns = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    let mut kept = Vec::new();
    let start = Instant::now();
    for job in jobs.iter().take(workers) {
        submitted.push(Instant::now());
        svc.submit(job.spec.clone());
    }
    let mut done = 0;
    while let Some(out) = svc.next_output() {
        latency_ns.push(u64::try_from(submitted[done].elapsed().as_nanos()).unwrap_or(u64::MAX));
        if let Some(next) = jobs.get(submitted.len()) {
            submitted.push(Instant::now());
            svc.submit(next.spec.clone());
        }
        exec_ns.push(out.exec_ns);
        if let Err(e) = check::check_job(&jobs[done], &out) {
            failures.push(e);
        }
        if keep {
            kept.push(out.profiles.iter().map(|p| p.outcome.clone()).collect());
        }
        done += 1;
    }
    let wall = start.elapsed();
    let (hits, misses) = (cache.hits() - hits0, cache.misses() - misses0);
    drop(svc);
    Round {
        reference,
        setup,
        wall,
        latency_ns,
        exec_ns,
        peak_bytes: alloc::peak_bytes().saturating_sub(base),
        hits,
        misses,
        failures,
        kept,
    }
}

/// Rounds until `budget` has passed (at least one); the first keeps its
/// outcome strings if `keep`.
fn run_rounds(wl: &Workload, workers: usize, budget: Duration, keep: bool) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = vec![run_round(wl, workers, keep)];
    while start.elapsed() < budget {
        rounds.push(run_round(wl, workers, false));
    }
    eprintln!(
        "perf: {} rounds of {} jobs in {:.2} s",
        rounds.len(),
        wl.jobs.len(),
        start.elapsed().as_secs_f64()
    );
    rounds
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    }
}

/// Nearest-rank percentile of unsorted samples.
fn percentile(v: &[u64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s.get(rank.saturating_sub(1)).map_or(0.0, |&x| x as f64)
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// How much slower than the reference speed the machine ran: the median
/// over rounds of the speed reference's duration, over [`speed::REFERENCE`].
fn slowdown(rounds: &[Round]) -> f64 {
    median(rounds.iter().map(|r| r.reference.as_secs_f64()).collect())
        / speed::REFERENCE.as_secs_f64()
}

fn end_to_end(rounds: &[Round]) -> Report {
    let med = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let mut r = Report {
        metrics: Vec::new(),
        attempted: rounds.iter().map(|r| r.latency_ns.len()).sum(),
        failures: rounds.iter().flat_map(|r| r.failures.clone()).collect(),
    };
    // Wall-clock figures are reported at the reference speed (see speed.rs).
    let slow = slowdown(rounds);
    let latency: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.latency_ns.iter().copied())
        .collect();
    let jobs_per_s = med(&|r| r.latency_ns.len() as f64 / r.wall.as_secs_f64());
    let (p50, p99) = (
        percentile(&latency, 50.0) / 1e6,
        percentile(&latency, 99.0) / 1e6,
    );
    eprintln!(
        "perf: slowdown {slow:.3} vs the reference speed; as measured: {jobs_per_s:.1} jobs/s, \
         p50 {p50:.4} ms, p99 {p99:.4} ms"
    );
    r.metric("setup_s", med(&|r| r.setup.as_secs_f64()) / slow, "s");
    r.metric("jobs_per_s", jobs_per_s * slow, "jobs/s");
    r.metric("job_p50_ms", p50 / slow, "ms");
    r.metric("job_p99_ms", p99 / slow, "ms");
    r.metric(
        "peak_heap_mb",
        med(&|r| r.peak_bytes as f64 / f64::from(1 << 20)),
        "MiB",
    );
    r
}

#[allow(clippy::too_many_lines)]
fn per_layer(wl: &Workload, workers: usize, args: &Args) -> Report {
    let rounds = run_rounds(
        wl,
        workers,
        Duration::from_secs_f64(args.seconds / 2.0),
        true,
    );
    let med = |f: &dyn Fn(&Round) -> f64| median(rounds.iter().map(f).collect());
    let mut r = Report {
        metrics: Vec::new(),
        attempted: rounds.iter().map(|r| r.latency_ns.len()).sum::<usize>() + wl.jobs.len(),
        failures: rounds.iter().flat_map(|r| r.failures.clone()).collect(),
    };

    // The traced run, single-threaded, after the service has shut down.
    let mut pipe = Pipeline::default();
    if wl.warm {
        pipe.warm(&wl.jobs.iter().map(|j| &j.spec).collect::<Vec<_>>());
    }
    for (j, job) in wl.jobs.iter().enumerate() {
        let got = pipe.run_job(u32::try_from(j).expect("job index fits u32"), &job.spec);
        if got != rounds[0].kept[j] {
            r.failures.push(format!(
                "traced job {j}: stage-by-stage outcomes {got:?} differ from execute_job's {:?}",
                rounds[0].kept[j]
            ));
        }
    }
    let units = unit_costs(args.seed);
    let spans = pipe.rec.spans();
    if let Err(e) = std::fs::create_dir_all(&args.out)
        .and_then(|()| trace::write_jsonl(&args.out.join("trace.jsonl"), spans))
    {
        r.failures.push(format!(
            "cannot write {}/trace.jsonl: {e}",
            args.out.display()
        ));
    }

    let costs = trace::self_costs(spans);
    let agg = trace::by_name(spans);
    let c = &pipe.counts;
    let n = c.jobs as f64;
    let ns = |name: &str| agg.get(name).map_or(0.0, |(_, s)| s.ns as f64);
    let allocs = |name: &str| agg.get(name).map_or(0.0, |(_, s)| s.allocs as f64);
    let count = |name: &str| agg.get(name).map_or(0.0, |(k, _)| *k as f64);
    let us_per_job = |name: &str| ns(name) / n / 1e3;

    // Attribution: inside the job spans, everything but glue is a layer.
    let (mut job_ns, mut glue_ns) = (0.0, 0.0);
    for (s, c) in spans.iter().zip(&costs) {
        if s.name == "job" {
            job_ns += (s.end_ns - s.start_ns) as f64;
            glue_ns += c.ns as f64;
        }
    }
    let unattributed = ratio(glue_ns, job_ns);
    if unattributed > MAX_UNATTRIBUTED {
        r.failures.push(format!(
            "{:.1}% of the traced job time is outside every layer span (limit {:.0}%)",
            unattributed * 100.0,
            MAX_UNATTRIBUTED * 100.0
        ));
    }

    let lex = ns("core.lex");
    r.metric("core.lex.us_per_job", lex / n / 1e3, "us");
    r.metric("core.lex.ns_per_token", ratio(lex, c.tokens as f64), "ns");
    r.metric(
        "core.parse.us_per_job",
        (ns("core.parse") - lex) / n / 1e3,
        "us",
    );
    r.metric("core.typeck.us_per_job", us_per_job("core.typeck"), "us");
    r.metric("core.opt.us_per_job", us_per_job("core.opt"), "us");
    let fe_allocs = allocs("core.parse") + allocs("core.typeck") + allocs("core.opt");
    r.metric("frontend.heap_allocs_per_job", fe_allocs / n, "count");
    r.metric("ir.lower.us_per_job", us_per_job("ir.lower"), "us");
    r.metric(
        "ir.lower.insts_per_job",
        c.lowered_insts as f64 / n,
        "count",
    );
    r.metric("ir.peephole.us_per_job", us_per_job("ir.peephole"), "us");
    r.metric(
        "ir.peephole.removed_frac",
        1.0 - ratio(c.optimised_insts as f64, c.lowered_insts as f64),
        "ratio",
    );
    r.metric("ir.promote.us_per_job", us_per_job("ir.promote"), "us");

    let vm = ns("exec.vm");
    let mem_ops = (c.loads + c.stores) as f64;
    r.metric("exec.vm.us_per_job", vm / n / 1e3, "us");
    r.metric(
        "exec.vm.heap_allocs_per_job",
        allocs("exec.vm") / n,
        "count",
    );
    r.metric("exec.vm.ns_per_mem_op", ratio(vm, mem_ops), "ns");
    r.metric("exec.tree.us_per_job", us_per_job("exec.tree"), "us");
    r.metric("exec.tree_vs_vm", ratio(ns("exec.tree"), vm), "ratio");

    r.metric("mem.loads_per_job", c.loads as f64 / n, "count");
    r.metric("mem.stores_per_job", c.stores as f64 / n, "count");
    r.metric("mem.allocs_per_job", c.allocations as f64 / n, "count");
    r.metric(
        "mem.memcpy_bytes_per_job",
        c.memcpy_bytes as f64 / n,
        "bytes",
    );
    r.metric("mem.rep_checks_per_job", c.rep_checks as f64 / n, "count");
    r.metric("mem.tag_clears_per_job", c.tag_clears as f64 / n, "count");
    r.metric("mem.scalar_load_store_ns", units.scalar_load_store, "ns");
    r.metric("mem.cap_load_store_ns", units.cap_load_store, "ns");
    r.metric("mem.alloc_free_ns", units.alloc_free, "ns");
    r.metric("cap.set_bounds_ns", units.set_bounds, "ns");
    let est = mem_ops.mul_add(
        units.scalar_load_store,
        c.allocations as f64 * units.alloc_free,
    );
    r.metric("mem.est_share", ratio(est, vm), "ratio");

    r.metric("obs.events_per_job", c.events as f64 / n, "count");
    r.metric("obs.diff.us_per_job", us_per_job("obs.diff"), "us");
    r.metric("lint.us_per_job", us_per_job("lint"), "us");

    r.metric(
        "serve.cache.hit_ratio",
        med(&|r| ratio(r.hits as f64, (r.hits + r.misses) as f64)),
        "ratio",
    );
    r.metric(
        "serve.cache.lookup_us",
        ratio(ns("serve.cache"), count("serve.cache")) / 1e3,
        "us",
    );
    r.metric(
        "serve.queue_wait_ms_p50",
        med(&|r| {
            let waits: Vec<u64> = r
                .latency_ns
                .iter()
                .zip(&r.exec_ns)
                .map(|(l, e)| l.saturating_sub(*e))
                .collect();
            percentile(&waits, 50.0) / 1e6
        }),
        "ms",
    );
    r.metric(
        "serve.busy_frac",
        med(&|r| {
            r.exec_ns.iter().sum::<u64>() as f64 / (r.wall.as_nanos() as f64 * workers as f64)
        }),
        "ratio",
    );
    let untraced: u64 = rounds[0].exec_ns.iter().sum();
    r.metric(
        "trace.overhead_frac",
        ratio(job_ns, untraced as f64) - 1.0,
        "ratio",
    );
    r.metric("trace.unattributed_frac", unattributed, "ratio");
    r.metric("bench.slowdown", slowdown(&rounds), "ratio");
    r
}

fn json(report: &Report) -> String {
    let mut metrics = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failures.len()
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let wl = args.workload.build(args.seed);
    eprintln!(
        "perf: {} seed {} — {} jobs per round, {workers} workers, {} s{}",
        args.workload.name(),
        args.seed,
        wl.jobs.len(),
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    let report = if args.trace {
        per_layer(&wl, workers, &args)
    } else {
        end_to_end(&run_rounds(
            &wl,
            workers,
            Duration::from_secs_f64(args.seconds),
            false,
        ))
    };
    for (name, value, unit) in &report.metrics {
        eprintln!("  {name:<32} {value:>16.6} {unit}");
    }
    for f in report.failures.iter().take(10) {
        eprintln!("FAIL {f}");
    }
    println!("{}", json(&report));
    if !report.failures.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ci_gates, fuzz_cold, kernels, table1_warm};

    /// Every workload, at a tiny size, through the real service,
    /// the reference checks and the traced pipeline.
    #[test]
    fn every_workload_runs_clean_at_tiny_size() {
        for (name, wl) in [
            ("fuzz-cold", fuzz_cold(5, 6)),
            ("table1-warm", table1_warm(5, 1)),
            ("kernels", kernels(5, 1, Some(2))),
            ("ci-gates", ci_gates(5, 6, 2)),
        ] {
            let round = run_round(&wl, 2, true);
            assert_eq!(round.latency_ns.len(), wl.jobs.len());
            assert!(round.failures.is_empty(), "{name}: {:?}", round.failures);
            assert!(round.hits + round.misses > 0, "{name}");
            let mut pipe = Pipeline::default();
            for (j, job) in wl.jobs.iter().enumerate() {
                assert_eq!(
                    pipe.run_job(j as u32, &job.spec),
                    round.kept[j],
                    "{name} job {j}"
                );
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload kernels --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Kind::Kernels, 9, 3.0, true)
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload kernels").is_err());
        assert!(args("--workload kernels --seed 1 --trace 2").is_err());
        assert!(args("--workload kernels --seed 1 --seconds").is_err());
    }
}
