//! The long-lived engine: a `std::thread` worker pool executing
//! [`JobSpec`]s against the shared [`ProgramCache`], with per-worker
//! arena-reset memory and deterministic, submission-ordered collection.
//!
//! Data flow:
//!
//! ```text
//!  submit ──► job queue (mpsc, shared by workers) ──► worker 0..N-1
//!                                                      │ compile? → cache
//!                                                      │ run: arena-reset CheriMemory
//!                                                      ▼
//!  next_output ◄── reorder buffer ◄── result channel (idx, JobOutput)
//! ```
//!
//! Workers pull from one queue (work stealing by contention: an idle
//! worker takes the next job, so a long job never blocks the queue behind
//! it), and each keeps a single [`CheriMemory`] arena that is *reset* —
//! not reallocated — between runs. Results carry their submission index;
//! the collector re-orders them in a `BTreeMap` buffer, so consumers see
//! exactly the order jobs were submitted in, whatever the worker count or
//! scheduling. Per-job outputs are pure functions of their spec, which
//! makes whole-batch output byte-identical across worker counts — the
//! determinism gate of `tests/batch_determinism.rs`.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

use cheri_cap::Capability;
use cheri_core::{Engine, Interp, Outcome, Profile};
use cheri_lint::lint_program_with;
use cheri_mem::{CheriMemory, MemEvent};

use crate::cache::ProgramCache;
use crate::job::{stats_line, JobOutput, JobSpec, Mode, ProfileOutcome};

/// Outcome rendering that keeps the detail of internal errors (the plain
/// label collapses every `Error` to `"error"`).
pub(crate) fn outcome_string(o: &Outcome) -> String {
    match o {
        Outcome::Error(m) => format!("error: {m}"),
        other => other.label(),
    }
}

/// `profile`'s outcome when the job did not run under it.
fn not_run(profile: &Profile, outcome: String) -> ProfileOutcome {
    ProfileOutcome {
        profile: profile.name.clone(),
        outcome,
        stdout: String::new(),
        stderr: String::new(),
        stats: String::new(),
        lint: None,
        events: None,
    }
}

/// Execute one job against `cache`, reusing (and updating) the worker's
/// memory `arena`. Pure with respect to the spec: identical specs produce
/// identical outputs whichever worker runs them, whatever state the arena
/// carries.
pub fn execute_job<C: Capability>(
    cache: &ProgramCache,
    spec: &JobSpec,
    arena: &mut Option<CheriMemory<C>>,
) -> JobOutput {
    let start = Instant::now();
    let mut profiles = Vec::with_capacity(spec.profiles.len());
    let mut traced: Vec<(String, Vec<MemEvent>)> = Vec::new();
    for p in &spec.profiles {
        let unit = match cache.get_or_compile::<C>(&spec.source, p) {
            Ok(unit) => unit,
            Err(e) => {
                profiles.push(not_run(p, format!("error: {e}")));
                continue;
            }
        };
        match spec.mode {
            Mode::Run => {
                let mut interp =
                    Interp::<C>::new(&unit.tast, p).with_ir(Arc::clone(&unit.ir));
                if let Some(mem) = arena.take() {
                    interp = interp.with_recycled_memory(mem);
                }
                let (r, mem) = interp.run_recycling();
                *arena = Some(mem);
                profiles.push(ProfileOutcome {
                    profile: p.name.clone(),
                    outcome: outcome_string(&r.outcome),
                    stats: stats_line(&r.mem_stats, r.unspecified_reads),
                    stdout: r.stdout,
                    stderr: r.stderr,
                    lint: None,
                    events: None,
                });
            }
            Mode::TraceDiff => {
                let mut interp =
                    Interp::<C>::new(&unit.tast, p).with_ir(Arc::clone(&unit.ir));
                if let Some(mem) = arena.take() {
                    interp = interp.with_recycled_memory(mem);
                }
                let (r, events, mem) = interp.run_with_events_recycling();
                *arena = Some(mem);
                profiles.push(ProfileOutcome {
                    profile: p.name.clone(),
                    outcome: outcome_string(&r.outcome),
                    stats: stats_line(&r.mem_stats, r.unspecified_reads),
                    stdout: r.stdout,
                    stderr: r.stderr,
                    lint: None,
                    events: Some(events.len()),
                });
                traced.push((p.name.clone(), events));
            }
            Mode::Lint => {
                let report = lint_program_with::<C>(&unit.tast, p);
                profiles.push(ProfileOutcome {
                    profile: p.name.clone(),
                    outcome: report.overall().label().to_string(),
                    stdout: String::new(),
                    stderr: String::new(),
                    stats: String::new(),
                    lint: Some(report.render_text()),
                    events: None,
                });
            }
            Mode::EngineDiff => {
                let mut tree = Interp::<C>::new(&unit.tast, p).with_engine(Engine::Tree);
                if let Some(mem) = arena.take() {
                    tree = tree.with_recycled_memory(mem);
                }
                let (tr, tree_events, mem) = tree.run_with_events_recycling();
                let byte = Interp::<C>::new(&unit.tast, p)
                    .with_ir(Arc::clone(&unit.ir))
                    .with_recycled_memory(mem);
                let (br, byte_events, mem) = byte.run_with_events_recycling();
                *arena = Some(mem);
                let outcome = match tr.engine_disagreement(&tree_events, &br, &byte_events) {
                    Some(d) => format!("engine-divergence: {d}"),
                    None => outcome_string(&br.outcome),
                };
                profiles.push(ProfileOutcome {
                    profile: p.name.clone(),
                    outcome,
                    stats: stats_line(&br.mem_stats, br.unspecified_reads),
                    stdout: br.stdout,
                    stderr: br.stderr,
                    lint: None,
                    events: Some(byte_events.len()),
                });
            }
            Mode::LintCheck => {
                let mut interp =
                    Interp::<C>::new(&unit.tast, p).with_ir(Arc::clone(&unit.ir));
                if let Some(mem) = arena.take() {
                    interp = interp.with_recycled_memory(mem);
                }
                let (r, mem) = interp.run_recycling();
                *arena = Some(mem);
                let report = lint_program_with::<C>(&unit.tast, p);
                let outcome = match report.soundness_violation(&r.outcome) {
                    Some(m) => format!("lint-unsound: {m}"),
                    None => outcome_string(&r.outcome),
                };
                profiles.push(ProfileOutcome {
                    profile: p.name.clone(),
                    outcome,
                    stats: stats_line(&r.mem_stats, r.unspecified_reads),
                    stdout: r.stdout,
                    stderr: r.stderr,
                    lint: Some(report.render_text()),
                    events: None,
                });
            }
        }
    }
    let trace_diff = (spec.mode == Mode::TraceDiff)
        .then(|| cheri_obs::render_profile_diffs(&traced));
    JobOutput {
        id: spec.id.clone(),
        mode: spec.mode,
        profiles,
        trace_diff,
        exec_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

/// Run job `spec` through `run` on the worker's `arena`, so that a panic
/// ends the job and not the worker: every profile of the job then reads
/// `error: internal error: <panic message>`, and the arena, which the
/// panic may have left half-updated, is dropped.
pub(crate) fn guarded<C: Capability>(
    spec: &JobSpec,
    arena: &mut Option<CheriMemory<C>>,
    run: impl FnOnce(&mut Option<CheriMemory<C>>) -> JobOutput,
) -> JobOutput {
    let start = Instant::now();
    let payload = match panic::catch_unwind(AssertUnwindSafe(|| run(arena))) {
        Ok(out) => return out,
        Err(payload) => payload,
    };
    *arena = None;
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic");
    let outcome = format!("error: internal error: {message}");
    JobOutput {
        id: spec.id.clone(),
        mode: spec.mode,
        profiles: spec
            .profiles
            .iter()
            .map(|p| not_run(p, outcome.clone()))
            .collect(),
        trace_diff: None,
        exec_ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
    }
}

/// The worker loop: claim the next job, execute it under [`guarded`],
/// send the indexed result. Ends when the job queue closes (service drop)
/// or the result channel closes (collector dropped early).
fn worker_loop<C: Capability>(
    cache: &ProgramCache,
    jobs: &Mutex<mpsc::Receiver<(u64, JobSpec)>>,
    results: &mpsc::Sender<(u64, JobOutput)>,
) {
    let mut arena: Option<CheriMemory<C>> = None;
    loop {
        // Hold the queue lock only for the blocking receive, not the job.
        let claimed = jobs.lock().unwrap().recv();
        let Ok((idx, spec)) = claimed else { break };
        let out = guarded(&spec, &mut arena, |arena| {
            execute_job::<C>(cache, &spec, arena)
        });
        if results.send((idx, out)).is_err() {
            break;
        }
    }
}

/// The long-lived batched execution service: submit [`JobSpec`]s, receive
/// [`JobOutput`]s in submission order.
///
/// ```
/// use std::sync::Arc;
/// use cheri_core::{MorelloCap, Profile};
/// use cheri_serve::{JobSpec, Mode, Service};
///
/// let mut svc = Service::<MorelloCap>::new(2);
/// let job = JobSpec {
///     id: "demo".into(),
///     source: Arc::new("int main(void) { return 7; }".into()),
///     profiles: vec![Profile::cerberus()],
///     mode: Mode::Run,
/// };
/// let outputs = svc.run_batch(vec![job]);
/// assert_eq!(outputs[0].profiles[0].outcome, "exit(7)");
/// ```
pub struct Service<C: Capability + Send + 'static> {
    /// `Some` while the service accepts jobs; dropped on shutdown so the
    /// queue closes and workers exit.
    job_tx: Option<mpsc::Sender<(u64, JobSpec)>>,
    res_rx: mpsc::Receiver<(u64, JobOutput)>,
    workers: Vec<thread::JoinHandle<()>>,
    cache: Arc<ProgramCache>,
    submitted: u64,
    emitted: u64,
    reorder: BTreeMap<u64, JobOutput>,
    _cap: PhantomData<C>,
}

impl<C: Capability + Send + 'static> Service<C> {
    /// Start a service with `workers` threads (clamped to ≥ 1) and a
    /// fresh program cache.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Service::with_cache(workers, Arc::new(ProgramCache::new()))
    }

    /// Start a service over an existing (possibly pre-warmed) cache.
    #[must_use]
    pub fn with_cache(workers: usize, cache: Arc<ProgramCache>) -> Self {
        let workers = workers.max(1);
        let (job_tx, job_rx) = mpsc::channel::<(u64, JobSpec)>();
        let (res_tx, res_rx) = mpsc::channel::<(u64, JobOutput)>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let handles = (0..workers)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let job_rx = Arc::clone(&job_rx);
                let res_tx = res_tx.clone();
                thread::spawn(move || worker_loop::<C>(&cache, &job_rx, &res_tx))
            })
            .collect();
        Service {
            job_tx: Some(job_tx),
            res_rx,
            workers: handles,
            cache,
            submitted: 0,
            emitted: 0,
            reorder: BTreeMap::new(),
            _cap: PhantomData,
        }
    }

    /// The shared program cache (e.g. for hit/miss reporting).
    #[must_use]
    pub fn cache(&self) -> &Arc<ProgramCache> {
        &self.cache
    }

    /// Number of submitted jobs whose outputs have not been emitted yet.
    #[must_use]
    pub fn pending(&self) -> u64 {
        self.submitted - self.emitted
    }

    /// Submit a job; returns its submission index. Never blocks.
    ///
    /// # Panics
    ///
    /// Panics if the worker pool has died.
    pub fn submit(&mut self, spec: JobSpec) -> u64 {
        let idx = self.submitted;
        self.job_tx
            .as_ref()
            .expect("service accepts jobs until dropped")
            .send((idx, spec))
            .expect("worker pool alive");
        self.submitted += 1;
        idx
    }

    /// Block until the next output *in submission order* is available;
    /// `None` when every submitted job has been emitted.
    ///
    /// # Panics
    ///
    /// Panics if the worker pool died with results still pending.
    pub fn next_output(&mut self) -> Option<JobOutput> {
        if self.emitted == self.submitted {
            return None;
        }
        while !self.reorder.contains_key(&self.emitted) {
            let (idx, out) = self
                .res_rx
                .recv()
                .expect("worker pool alive while jobs pending");
            self.reorder.insert(idx, out);
        }
        let out = self.reorder.remove(&self.emitted);
        self.emitted += 1;
        out
    }

    /// Non-blocking variant of [`Service::next_output`]: drain whatever
    /// results have arrived and return the next in-order output if it is
    /// among them. `None` means "not ready yet" (or nothing pending).
    pub fn try_next_output(&mut self) -> Option<JobOutput> {
        if self.emitted == self.submitted {
            return None;
        }
        while let Ok((idx, out)) = self.res_rx.try_recv() {
            self.reorder.insert(idx, out);
        }
        let out = self.reorder.remove(&self.emitted)?;
        self.emitted += 1;
        Some(out)
    }

    /// Submit a whole batch and collect every output, in order.
    pub fn run_batch(&mut self, jobs: Vec<JobSpec>) -> Vec<JobOutput> {
        let mut expect = 0usize;
        for job in jobs {
            self.submit(job);
            expect += 1;
        }
        let mut out = Vec::with_capacity(expect);
        while let Some(o) = self.next_output() {
            out.push(o);
        }
        out
    }
}

impl<C: Capability + Send + 'static> Drop for Service<C> {
    fn drop(&mut self) {
        // Close the queue; workers drain remaining jobs and exit.
        drop(self.job_tx.take());
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One-shot convenience: run `jobs` over a fresh `workers`-thread service
/// and return the ordered outputs.
#[must_use]
pub fn run_batch<C: Capability + Send + 'static>(
    jobs: Vec<JobSpec>,
    workers: usize,
) -> Vec<JobOutput> {
    Service::<C>::new(workers).run_batch(jobs)
}
