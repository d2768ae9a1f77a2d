//! `cheri-c` — command-line interface to the executable CHERI C semantics.
//!
//! ```text
#![doc = include_str!("usage.txt")]
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use cheri_c::core::{compile_for, run_with_engine, Engine, Interp, Outcome, Profile};
use cheri_c::lint::{lint_with, LintMode};
use cheri_c::serve::{self, profile_by_name, Service, PROFILE_NAMES};
use cheri_cap::{Capability, CheriotCap, MorelloCap};
use cheri_mem::{MemEvent, MemStats, TagClearReason};
use cheri_obs::{binfmt, render};

/// The `--help` text (also the module documentation above).
const USAGE: &str = include_str!("usage.txt");

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Text,
    Full,
    Json,
    Bin,
}

/// The capability model (`--arch`); `main` picks the `Capability` type
/// from it once.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Arch {
    Morello,
    Cheriot,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LintFormat {
    Text,
    Json,
}

struct Options {
    file: Option<String>,
    profile: String,
    arch: Arch,
    all: bool,
    trace: bool,
    trace_format: TraceFormat,
    trace_out: Option<String>,
    trace_diff: bool,
    stats: bool,
    list: bool,
    lint: bool,
    lint_format: LintFormat,
    engine: Engine,
    emit_ir: bool,
    emit_escape: bool,
    escape_format: LintFormat,
    fast: bool,
    batch: Option<String>,
    serve: bool,
    jobs: Option<usize>,
}

/// Every flag the CLI accepts, for "did you mean" suggestions.
const KNOWN_FLAGS: &[&str] = &[
    "--profile",
    "-p",
    "--arch",
    "--all",
    "--trace",
    "--trace-format",
    "--trace-out",
    "--trace-diff",
    "--lint",
    "--lint-format",
    "--engine",
    "--emit-ir",
    "--emit-escape",
    "--escape-format",
    "--fast",
    "--stats",
    "--list-profiles",
    "--batch",
    "--serve",
    "--jobs",
    "-j",
    "--help",
    "-h",
];

/// Levenshtein edit distance, for near-miss flag suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The closest known flag, if it is close enough to be a plausible typo.
fn suggest_flag(unknown: &str) -> Option<&'static str> {
    KNOWN_FLAGS
        .iter()
        .map(|&f| (edit_distance(unknown, f), f))
        .min()
        .filter(|&(d, _)| d <= 3)
        .map(|(_, f)| f)
}

/// Parse a `--jobs` value: a positive count, or `max` for every core.
fn parse_jobs(v: &str) -> Result<usize, String> {
    if v == "max" {
        return Ok(default_jobs());
    }
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("--jobs needs a positive count or max, got {v}")),
    }
}

/// The default worker count: one per available core.
fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        file: None,
        profile: "cerberus".into(),
        arch: Arch::Morello,
        all: false,
        trace: false,
        trace_format: TraceFormat::Text,
        trace_out: None,
        trace_diff: false,
        stats: false,
        list: false,
        lint: false,
        lint_format: LintFormat::Text,
        engine: Engine::default(),
        emit_ir: false,
        emit_escape: false,
        escape_format: LintFormat::Text,
        fast: false,
        batch: None,
        serve: false,
        jobs: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--profile" | "-p" => {
                o.profile = args.next().ok_or("--profile needs a value")?;
            }
            "--arch" => {
                let v = args.next().ok_or("--arch needs a value")?;
                o.arch = match v.as_str() {
                    "morello" => Arch::Morello,
                    "cheriot" => Arch::Cheriot,
                    other => {
                        return Err(format!(
                            "unknown arch {other} (expected morello or cheriot)"
                        ))
                    }
                };
            }
            "--all" => o.all = true,
            "--trace" => o.trace = true,
            "--trace-format" => {
                let v = args.next().ok_or("--trace-format needs a value")?;
                o.trace_format = match v.as_str() {
                    "text" => TraceFormat::Text,
                    "full" => TraceFormat::Full,
                    "json" => TraceFormat::Json,
                    "bin" => TraceFormat::Bin,
                    other => {
                        return Err(format!(
                            "unknown trace format {other} (expected text, full, json or bin)"
                        ))
                    }
                };
                o.trace = true;
            }
            "--trace-out" => {
                o.trace_out = Some(args.next().ok_or("--trace-out needs a value")?);
            }
            "--trace-diff" => o.trace_diff = true,
            "--lint" => o.lint = true,
            "--lint-format" => {
                let v = args.next().ok_or("--lint-format needs a value")?;
                o.lint_format = match v.as_str() {
                    "text" => LintFormat::Text,
                    "json" => LintFormat::Json,
                    other => {
                        return Err(format!(
                            "unknown lint format {other} (expected text or json)"
                        ))
                    }
                };
                o.lint = true;
            }
            "--engine" => {
                let v = args.next().ok_or("--engine needs a value")?;
                o.engine = match v.as_str() {
                    "tree" => Engine::Tree,
                    "bytecode" => Engine::Bytecode,
                    other => {
                        return Err(format!(
                            "unknown engine {other} (expected tree or bytecode)"
                        ))
                    }
                };
            }
            "--emit-ir" => o.emit_ir = true,
            "--emit-escape" => o.emit_escape = true,
            "--escape-format" => {
                let v = args.next().ok_or("--escape-format needs a value")?;
                o.escape_format = match v.as_str() {
                    "text" => LintFormat::Text,
                    "json" => LintFormat::Json,
                    other => {
                        return Err(format!(
                            "unknown escape format {other} (expected text or json)"
                        ))
                    }
                };
                o.emit_escape = true;
            }
            "--fast" => o.fast = true,
            "--batch" => {
                o.batch = Some(args.next().ok_or("--batch needs a manifest file")?);
            }
            "--serve" => o.serve = true,
            "--jobs" | "-j" => {
                let v = args.next().ok_or("--jobs needs a value (a count, or max)")?;
                o.jobs = Some(parse_jobs(&v)?);
            }
            "--stats" => o.stats = true,
            "--list-profiles" => o.list = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            f if !f.starts_with('-') => o.file = Some(f.to_string()),
            other => {
                return Err(match suggest_flag(other) {
                    Some(s) => format!("unknown option {other} (did you mean {s}? try --help)"),
                    None => format!("unknown option {other} (try --help)"),
                })
            }
        }
    }
    if o.trace_format == TraceFormat::Bin && o.trace_out.is_none() {
        return Err("--trace-format bin needs --trace-out FILE (binary traces are not printed)"
            .to_string());
    }
    if o.trace_diff && !o.all {
        return Err("--trace-diff needs --all (it compares profiles)".to_string());
    }
    if o.serve && o.batch.is_some() {
        return Err("--serve and --batch are mutually exclusive".to_string());
    }
    if (o.serve || o.batch.is_some()) && o.file.is_some() {
        return Err(
            "--serve/--batch name their programs per job line, not as an argument".to_string(),
        );
    }
    Ok(o)
}

/// Print the memory trace to stderr in the selected format. The `text`
/// format (and its event count) is byte-identical to the historical
/// `--trace` output.
fn print_trace(events: &[MemEvent], format: TraceFormat) {
    let lines: Vec<String> = match format {
        TraceFormat::Text => render::legacy_lines(events),
        TraceFormat::Full => events.iter().map(render::full_line).collect(),
        TraceFormat::Json => events.iter().map(render::json_line).collect(),
        TraceFormat::Bin => return, // written via --trace-out only
    };
    eprintln!("── memory trace ({} events) ──", lines.len());
    for line in &lines {
        eprintln!("  {line}");
    }
}

fn print_stats(profile: &Profile, unspecified_reads: u32, s: &MemStats) {
    eprintln!(
        "(run under {}; unspecified reads: {})",
        profile.name, unspecified_reads
    );
    eprintln!(
        "  loads={} stores={} allocations={} frees={}",
        s.loads, s.stores, s.allocations, s.frees
    );
    eprintln!(
        "  representability_checks={} padding_bytes={} revoked_caps={}",
        s.representability_checks, s.padding_bytes, s.revoked_caps
    );
    eprintln!(
        "  memcpy_bytes={} tag_clears={} (noncap-write={} memcpy={} misaligned-store={} revoked={})",
        s.memcpy_bytes,
        s.tag_clears,
        s.tag_clears_by_reason[TagClearReason::NonCapWrite.code() as usize],
        s.tag_clears_by_reason[TagClearReason::Memcpy.code() as usize],
        s.tag_clears_by_reason[TagClearReason::MisalignedStore.code() as usize],
        s.tag_clears_by_reason[TagClearReason::Revoked.code() as usize],
    );
}

/// Write a binary (CHOB) trace; with `--all` the profile name is appended
/// to the file name so each profile gets its own trace.
fn write_binary_trace(path: &str, profile: &Profile, all: bool, events: &[MemEvent]) {
    let path = if all {
        format!("{path}.{}", profile.name)
    } else {
        path.to_string()
    };
    if let Err(e) = std::fs::write(&path, binfmt::encode_trace(events)) {
        eprintln!("error: cannot write trace to {path}: {e}");
    }
}

fn exec<C: Capability>(
    src: &str,
    profile: &Profile,
    opts: &Options,
) -> (Outcome, Option<Vec<MemEvent>>) {
    let want_events = opts.trace || opts.trace_out.is_some() || opts.trace_diff;
    if want_events || opts.stats {
        let prog = match compile_for::<C>(src, profile) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return (Outcome::Error(e), None);
            }
        };
        let it = Interp::<C>::new(&prog, profile).with_engine(opts.engine);
        let (r, events) = it.run_with_events();
        print!("{}", r.stdout);
        eprint!("{}", r.stderr);
        if opts.trace {
            print_trace(&events, opts.trace_format);
        }
        if let Some(path) = &opts.trace_out {
            write_binary_trace(path, profile, opts.all, &events);
        }
        if opts.stats {
            print_stats(profile, r.unspecified_reads, &r.mem_stats);
        }
        (r.outcome, Some(events))
    } else {
        let r = run_with_engine::<C>(src, profile, opts.engine);
        print!("{}", r.stdout);
        eprint!("{}", r.stderr);
        (r.outcome, None)
    }
}

/// Run the batch (`--batch <manifest>`) and serve (`--serve`, jobs on
/// stdin) front ends over a [`Service`] worker pool. Outputs stream in
/// submission order; the exit code is 1 if any job hit a front-end or
/// internal error (UB/trap outcomes and step-limit stops are *results*,
/// not errors), else 0.
fn run_service_mode<C: Capability + Send + 'static>(opts: &Options) -> ExitCode {
    let workers = opts.jobs.unwrap_or_else(default_jobs);
    let mut svc = Service::<C>::new(workers);
    let mut errors = false;
    if let Some(manifest) = &opts.batch {
        let jobs = match serve::load_manifest(manifest) {
            Ok(jobs) => jobs,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        for out in svc.run_batch(jobs) {
            errors |= out.has_error();
            print!("{}", out.render());
        }
    } else {
        let stdin = std::io::stdin();
        let mut lineno = 0u64;
        for line in std::io::BufRead::lines(stdin.lock()) {
            let line = match line {
                Ok(line) => line,
                Err(e) => {
                    eprintln!("error: stdin: {e}");
                    errors = true;
                    break;
                }
            };
            lineno += 1;
            match serve::parse_job_line(&line, &lineno.to_string(), None) {
                Ok(Some(job)) => {
                    svc.submit(job);
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!("error: stdin:{lineno}: {e}");
                    errors = true;
                }
            }
            // Stream whatever is ready, in submission order.
            while let Some(out) = svc.try_next_output() {
                errors |= out.has_error();
                print!("{}", out.render());
                let _ = std::io::stdout().flush();
            }
        }
        while let Some(out) = svc.next_output() {
            errors |= out.has_error();
            print!("{}", out.render());
            let _ = std::io::stdout().flush();
        }
    }
    if opts.stats {
        eprintln!(
            "(service: {} workers; cache: {} programs, {} hits, {} misses)",
            workers,
            svc.cache().len(),
            svc.cache().hits(),
            svc.cache().misses(),
        );
    }
    if errors {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Run the static analyzer over every selected profile and print the
/// reports. Exit code is the worst verdict across profiles: 0 clean,
/// 3 may-UB, 4 must-UB (2 on front-end errors).
fn run_lint<C: Capability>(src: &str, profiles: &[Profile], opts: &Options) -> ExitCode {
    let mut worst = 0u8;
    for p in profiles {
        if profiles.len() > 1 {
            println!("── {} ──", p.name);
        }
        match lint_with::<C>(src, p) {
            Ok(r) => {
                match opts.lint_format {
                    LintFormat::Text => print!("{}", r.render_text()),
                    LintFormat::Json => print!("{}", r.render_json()),
                }
                worst = worst.max(r.exit_code() as u8);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::from(worst)
}

/// `--emit-ir`: pretty-print the lowered bytecode program (constant
/// pools, then per-function labelled blocks) with stable formatting, so
/// lowering changes show up as reviewable diffs (`tests/golden/ir/`).
/// Prints both stages: the raw lowering, then the peephole-optimised
/// form the bytecode engine actually executes. With `--fast` a third
/// stage follows: the register-promoted + peephole-optimised form the
/// fast mode executes (`tests/golden/ir/*.fast.ir`).
fn emit_ir<C: Capability>(src: &str, profile: &Profile, opts: &Options) -> ExitCode {
    match compile_for::<C>(src, profile) {
        Ok(p) => {
            println!(";; raw (as lowered)");
            print!("{}", cheri_c::core::ir::lower(&p).render());
            println!("\n;; optimized (peephole; executed by --engine bytecode)");
            print!("{}", cheri_c::core::ir::lower_opt(&p).render());
            if opts.fast {
                println!("\n;; fast (escape-promoted + peephole; executed with --fast)");
                print!("{}", cheri_c::core::ir::lower_fast(&p).render());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--emit-escape`: run the fast mode's escape analysis and print one
/// diagnostic per local — `note escape.promoted` for locals the analysis
/// proved never-addressed, `may escape.kept` (with the why-not reasons)
/// for locals that stay in memory. Rendered through the shared
/// `cheri-obs` diagnostic vocabulary, text or JSON (`--escape-format`).
fn emit_escape<C: Capability>(src: &str, profile: &Profile, opts: &Options) -> ExitCode {
    match compile_for::<C>(src, profile) {
        Ok(p) => {
            let report = cheri_c::core::ir::escape::analyze_program(&cheri_c::core::ir::lower(&p));
            let diags = cheri_c::escape_diagnostics(&report);
            match opts.escape_format {
                LintFormat::Text => print!("{}", cheri_obs::render_diagnostics_text(&diags)),
                LintFormat::Json => print!("{}", cheri_obs::render_diagnostics_json(&diags)),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// One-line lint verdict shown next to the dynamic outcome in `--all`
/// comparison tables.
fn lint_summary<C: Capability>(src: &str, profile: &Profile) -> String {
    match lint_with::<C>(src, profile) {
        Ok(r) => {
            let mode = match r.mode {
                LintMode::Definite => "",
                LintMode::Widened(_) => " (widened)",
            };
            format!("{}{mode}", r.overall())
        }
        Err(_) => "n/a".to_string(),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.list {
        for p in PROFILE_NAMES {
            println!("{p}");
        }
        return ExitCode::SUCCESS;
    }
    match opts.arch {
        Arch::Morello => run::<MorelloCap>(&opts),
        Arch::Cheriot => run::<CheriotCap>(&opts),
    }
}

/// Everything after argument parsing, under the capability model `C`.
fn run<C: Capability + Send + 'static>(opts: &Options) -> ExitCode {
    if opts.serve || opts.batch.is_some() {
        return run_service_mode::<C>(opts);
    }
    let Some(file) = &opts.file else {
        eprintln!("error: no input file (try --help)");
        return ExitCode::from(2);
    };
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut profiles: Vec<Profile> = if opts.all {
        let mut v = Profile::all_compared();
        v.push(Profile::iso_baseline());
        v
    } else {
        match profile_by_name(&opts.profile) {
            Some(p) => vec![p],
            None => {
                eprintln!(
                    "error: unknown profile {} (see --list-profiles)",
                    opts.profile
                );
                return ExitCode::from(2);
            }
        }
    };
    if opts.fast {
        for p in &mut profiles {
            p.opt = p.opt.fast();
        }
    }
    if opts.lint {
        return run_lint::<C>(&src, &profiles, opts);
    }
    if opts.emit_ir {
        return emit_ir::<C>(&src, &profiles[0], opts);
    }
    if opts.emit_escape {
        return emit_escape::<C>(&src, &profiles[0], opts);
    }
    let mut last = Outcome::Exit(0);
    let mut runs: Vec<(String, Vec<MemEvent>)> = Vec::new();
    for p in &profiles {
        if profiles.len() > 1 {
            println!("── {} ──", p.name);
        }
        let (outcome, events) = exec::<C>(&src, p, opts);
        last = outcome;
        if profiles.len() > 1 {
            println!("→ {last}   [lint: {}]", lint_summary::<C>(&src, p));
        }
        if opts.trace_diff {
            if let Some(events) = events {
                runs.push((p.name.clone(), events));
            }
        }
    }
    if opts.trace_diff {
        print!("{}", cheri_obs::render_profile_diffs(&runs));
    }
    match last {
        Outcome::Exit(c) => ExitCode::from((c & 0xFF) as u8),
        other => {
            eprintln!("{other}");
            ExitCode::from(if matches!(other, Outcome::Trap { .. }) {
                139
            } else {
                1
            })
        }
    }
}
