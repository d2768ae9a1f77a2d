//! Job and result types, plus the line-based batch manifest format.
//!
//! A manifest is plain text, one job per line (blank lines and `#`
//! comments ignored):
//!
//! ```text
//! <mode> <profiles> <file.c>
//! ```
//!
//! * `<mode>` — `run`, `lint`, `trace-diff`, `engine-diff` (run both
//!   engines and flag any divergence), or `lint-check` (run the dynamic
//!   semantics and flag any lint-soundness violation);
//! * `<profiles>` — `all` (the compared set plus the ISO baseline, like
//!   the CLI's `--all`), `compared` (the 7-profile differential set), or
//!   a comma-separated list of profile names; any spec or name may carry
//!   an `@fast` suffix selecting the register-promoting fast mode (a
//!   distinct compile-cache key);
//! * `<file.c>` — the program: the rest of the line, so the name may
//!   contain spaces, resolved relative to the manifest (or to the working
//!   directory for jobs streamed over `--serve` stdin).
//!
//! Fields are separated by any run of whitespace.
//!
//! Example:
//!
//! ```text
//! # cross-profile differential over the §3.1 example
//! trace-diff compared examples/one_past.c
//! run cerberus,cheriot examples/intro.c
//! lint all examples/intro.c
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use cheri_core::Profile;
use cheri_mem::MemStats;

/// What a job does with its program × profile-set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Execute under each profile (default engine, no tracing).
    Run,
    /// Statically analyze under each profile (`cheri-lint`).
    Lint,
    /// Execute under each profile with event tracing and report the first
    /// divergence of every profile's stream against the first profile's,
    /// in normalized coordinates.
    TraceDiff,
    /// Execute under each profile on *both* engines (tree and bytecode)
    /// and compare outcome, output, memory statistics and event streams;
    /// any mismatch becomes an `engine-divergence: …` outcome (an error,
    /// so a sharded CI sweep fails the batch).
    EngineDiff,
    /// Execute under each profile and check the static analyzer's verdict
    /// against the dynamic outcome (the lint soundness gate); any
    /// violation becomes a `lint-unsound: …` outcome.
    LintCheck,
}

impl Mode {
    /// Stable lower-case label (also the manifest keyword).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Lint => "lint",
            Mode::TraceDiff => "trace-diff",
            Mode::EngineDiff => "engine-diff",
            Mode::LintCheck => "lint-check",
        }
    }

    /// Parse a manifest keyword.
    #[must_use]
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "run" => Some(Mode::Run),
            "lint" => Some(Mode::Lint),
            "trace-diff" | "tracediff" => Some(Mode::TraceDiff),
            "engine-diff" | "enginediff" => Some(Mode::EngineDiff),
            "lint-check" | "lintcheck" => Some(Mode::LintCheck),
            _ => None,
        }
    }
}

/// One unit of service work: a program, the profiles to run it under, and
/// a mode. Sources are `Arc`-shared so a corpus-sized batch over one
/// program set does not copy text per job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Caller-chosen identifier, echoed in the output (manifest jobs use
    /// `<line>:<file>`).
    pub id: String,
    /// The C source text.
    pub source: Arc<String>,
    /// Profiles to execute/analyze under, in output order.
    pub profiles: Vec<Profile>,
    /// What to do.
    pub mode: Mode,
}

/// The per-profile slice of a job's result. All fields are deterministic
/// functions of (source, profile, mode) — the batch determinism gate
/// compares them byte-for-byte across worker counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileOutcome {
    /// Profile name.
    pub profile: String,
    /// Outcome label (`exit(0)`, `UB:…`, `trap:…`, `error: …`). For lint
    /// jobs, the overall verdict label.
    pub outcome: String,
    /// Captured stdout (empty for lint).
    pub stdout: String,
    /// Captured stderr (empty for lint).
    pub stderr: String,
    /// Deterministic one-line memory-statistics summary (run/trace-diff).
    pub stats: String,
    /// Rendered lint report (lint mode only).
    pub lint: Option<String>,
    /// Event count of the traced run (trace-diff mode only).
    pub events: Option<usize>,
}

/// A completed job. [`JobOutput::render`] is the deterministic text the
/// CLI prints; `exec_ns` is wall-clock and deliberately *not* rendered.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The job's identifier.
    pub id: String,
    /// The job's mode.
    pub mode: Mode,
    /// Per-profile results, in the order of [`JobSpec::profiles`].
    pub profiles: Vec<ProfileOutcome>,
    /// Trace-diff report (trace-diff mode only).
    pub trace_diff: Option<String>,
    /// Wall-clock execution time of this job on its worker, in
    /// nanoseconds. Scheduling-dependent: excluded from [`render`] and
    /// from every determinism comparison. (The `perf` benchmark reads it
    /// for its per-job latency figures.)
    ///
    /// [`render`]: JobOutput::render
    pub exec_ns: u64,
}

/// The compact deterministic statistics line of a [`ProfileOutcome`].
#[must_use]
pub fn stats_line(s: &MemStats, unspecified_reads: u32) -> String {
    format!(
        "loads={} stores={} allocations={} frees={} memcpy_bytes={} tag_clears={} revoked_caps={} unspecified_reads={}",
        s.loads,
        s.stores,
        s.allocations,
        s.frees,
        s.memcpy_bytes,
        s.tag_clears,
        s.revoked_caps,
        unspecified_reads,
    )
}

/// How a profile's outcome reads when the run's step budget stopped it
/// (the rendering of an [`cheri_core::Outcome`] whose
/// [`is_step_limit`](cheri_core::Outcome::is_step_limit) holds).
pub(crate) const STEP_LIMITED: &str = "error: step limit exceeded";

impl JobOutput {
    /// Did any profile end in a front-end or internal error — or fail one
    /// of the checking modes' gates (`engine-diff`, `lint-check`)? Gate
    /// failures are errors so a sharded CI sweep fails the whole batch. A
    /// run its step budget stopped is a result, not an error: the budget
    /// is how a job that never ends still ends, and `engine-diff` counts
    /// two step-limited engines as agreeing.
    #[must_use]
    pub fn has_error(&self) -> bool {
        self.profiles.iter().any(|p| {
            (p.outcome.starts_with("error") && p.outcome != STEP_LIMITED)
                || p.outcome.starts_with("engine-divergence")
                || p.outcome.starts_with("lint-unsound")
        })
    }

    /// The deterministic rendering the batch/serve front ends print: a
    /// job header, then one block per profile, then (trace-diff mode) the
    /// cross-profile divergence report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== job {} [{}] ===", self.id, self.mode.label());
        for p in &self.profiles {
            let _ = writeln!(out, "── {} ──", p.profile);
            out.push_str(&p.stdout);
            if !p.stdout.is_empty() && !p.stdout.ends_with('\n') {
                out.push('\n');
            }
            out.push_str(&p.stderr);
            if !p.stderr.is_empty() && !p.stderr.ends_with('\n') {
                out.push('\n');
            }
            if let Some(lint) = &p.lint {
                out.push_str(lint);
            }
            let _ = writeln!(out, "→ {}", p.outcome);
            if !p.stats.is_empty() {
                let _ = writeln!(out, "  {}", p.stats);
            }
            if let Some(n) = p.events {
                let _ = writeln!(out, "  events={n}");
            }
        }
        if let Some(diff) = &self.trace_diff {
            out.push_str(diff);
        }
        out
    }
}

/// The profile names the manifest (and the CLI) resolves.
pub const PROFILE_NAMES: &[&str] = &[
    "cerberus",
    "iso-baseline",
    "cheriot",
    "clang-morello-O0",
    "clang-morello-O3",
    "clang-riscv-O0",
    "clang-riscv-O3",
    "gcc-morello-O0",
    "gcc-morello-O3",
    "clang-morello-O0-subobject-safe",
];

/// Resolve a profile by its [`PROFILE_NAMES`] name.
#[must_use]
pub fn profile_by_name(name: &str) -> Option<Profile> {
    Some(match name {
        "cerberus" => Profile::cerberus(),
        "iso-baseline" => Profile::iso_baseline(),
        "cheriot" => Profile::cheriot(),
        "clang-morello-O0" => Profile::clang_morello(false),
        "clang-morello-O3" => Profile::clang_morello(true),
        "clang-riscv-O0" => Profile::clang_riscv(false),
        "clang-riscv-O3" => Profile::clang_riscv(true),
        "gcc-morello-O0" => Profile::gcc_morello(false),
        "gcc-morello-O3" => Profile::gcc_morello(true),
        "clang-morello-O0-subobject-safe" => Profile::clang_morello_subobject_safe(),
        _ => return None,
    })
}

/// Switch a profile into the register-promoting fast mode. The name gains
/// an `@fast` suffix so outputs (and humans) can tell the two apart; the
/// opt-flag bit makes it a distinct compile-cache key.
#[must_use]
pub fn fast_variant(mut p: Profile) -> Profile {
    p.opt = p.opt.fast();
    p.name.push_str("@fast");
    p
}

/// Resolve a manifest profile spec: `all`, `compared`, or a
/// comma-separated name list. The spec — or any individual name — may
/// carry an `@fast` suffix selecting the fast mode (see [`fast_variant`]).
///
/// # Errors
///
/// Returns a message naming the first unknown profile.
pub fn profiles_from_spec(spec: &str) -> Result<Vec<Profile>, String> {
    let (spec, all_fast) = match spec.strip_suffix("@fast") {
        Some(base) if base == "all" || base == "compared" => (base, true),
        _ => (spec, false),
    };
    let mut v = match spec {
        "all" => {
            let mut v = Profile::all_compared();
            v.push(Profile::iso_baseline());
            v
        }
        "compared" => Profile::all_compared(),
        list => list
            .split(',')
            .map(|name| {
                let (base, fast) = match name.strip_suffix("@fast") {
                    Some(base) => (base, true),
                    None => (name, false),
                };
                profile_by_name(base)
                    .map(|p| if fast { fast_variant(p) } else { p })
                    .ok_or_else(|| format!("unknown profile {name} (see --list-profiles)"))
            })
            .collect::<Result<Vec<Profile>, String>>()?,
    };
    if all_fast {
        v = v.into_iter().map(fast_variant).collect();
    }
    Ok(v)
}

/// Parse one manifest/stdin line into a job, reading the named file
/// relative to `base_dir` (`None` = as given). Returns `Ok(None)` for
/// blank lines and comments.
///
/// # Errors
///
/// Returns a message on malformed lines, unknown modes/profiles, and
/// unreadable files.
pub fn parse_job_line(
    line: &str,
    id: &str,
    base_dir: Option<&std::path::Path>,
) -> Result<Option<JobSpec>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    // Mode and profiles are the first two whitespace-separated fields;
    // the file is the rest of the line, so its name may contain spaces.
    let fields = line
        .split_once(char::is_whitespace)
        .and_then(|(mode, rest)| {
            let (profiles, file) = rest.trim_start().split_once(char::is_whitespace)?;
            Some((mode, profiles, file.trim_start()))
        });
    let Some((mode, profiles, file)) = fields else {
        return Err(format!(
            "malformed job line {line:?} \
             (expected: <run|lint|trace-diff|engine-diff|lint-check> <profiles> <file.c>)"
        ));
    };
    let mode = Mode::parse(mode).ok_or_else(|| {
        format!("unknown mode {mode} (expected run, lint, trace-diff, engine-diff or lint-check)")
    })?;
    let profiles = profiles_from_spec(profiles)?;
    let path = match base_dir {
        Some(dir) => dir.join(file),
        None => std::path::PathBuf::from(file),
    };
    let source = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(Some(JobSpec {
        id: format!("{id}:{file}"),
        source: Arc::new(source),
        profiles,
        mode,
    }))
}

/// Load a batch manifest: one job per line, files resolved relative to
/// the manifest's directory. Job ids are `<line-number>:<file>`.
///
/// # Errors
///
/// Returns a message on an unreadable manifest or any malformed line.
pub fn load_manifest(path: &str) -> Result<Vec<JobSpec>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let base = std::path::Path::new(path).parent().map(std::path::Path::to_path_buf);
    let mut jobs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let id = (i + 1).to_string();
        if let Some(job) = parse_job_line(line, &id, base.as_deref())
            .map_err(|e| format!("{path}:{}: {e}", i + 1))?
        {
            jobs.push(job);
        }
    }
    Ok(jobs)
}
