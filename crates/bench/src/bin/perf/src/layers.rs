//! The traced run: the job pipeline called one stage at a time, each call
//! wrapped in a span, plus timed loops over the memory model's and the
//! capability model's public calls.
//!
//! The stages run in the order `ProgramCache::get_or_compile` and
//! `execute_job` run them. A job's own pipeline goes under a `job` span.
//! Layers the job's mode does not call are timed afterwards under a
//! `probe` span on the same programs, so every layer is measured on every
//! workload: the standalone lexer (the parser lexes internally), register
//! promotion of a fresh lowering, the tree engine, the lint analyser, and
//! event emission with cross-profile diffing.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cheri_cap::{Capability, MorelloCap};
use cheri_core::ir::{lower, peephole, promote, IrProgram};
use cheri_core::tast::TProgram;
use cheri_core::types::TargetLayout;
use cheri_core::{lex, opt, parse, typeck, Engine, Interp, Outcome, Profile, RunResult};
use cheri_lint::lint_program_with;
use cheri_mem::{CheriMemory, IntVal, MemConfig, MemEvent};
use cheri_qc::bench::black_box;
use cheri_serve::{CompileKey, JobSpec, Mode};

use crate::trace::Recorder;

type C = MorelloCap;

/// What the front end and lowering produce for one compile key.
struct Unit {
    tast: TProgram,
    ir: Arc<IrProgram>,
}

/// Work counts of the traced run.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Jobs traced.
    pub jobs: u64,
    /// Programs compiled (cache misses).
    pub compiles: u64,
    /// Tokens lexed by the standalone lexer.
    pub tokens: u64,
    /// Instructions after lowering.
    pub lowered_insts: u64,
    /// Instructions after peephole optimisation.
    pub optimised_insts: u64,
    /// Scalar loads of the jobs' VM runs.
    pub loads: u64,
    /// Scalar stores of the jobs' VM runs.
    pub stores: u64,
    /// Allocations of the jobs' VM runs.
    pub allocations: u64,
    /// `memcpy` bytes of the jobs' VM runs.
    pub memcpy_bytes: u64,
    /// Representability checks of the jobs' VM runs.
    pub rep_checks: u64,
    /// Capability tag clears of the jobs' VM runs.
    pub tag_clears: u64,
    /// Memory events emitted by the VM, one event stream per profile.
    pub events: u64,
}

/// Compiles waiting for their probes: the source to lex, and the typed
/// program to re-lower and promote when the profile did not promote.
struct Pending {
    source: Arc<String>,
    unpromoted: Option<Arc<Unit>>,
}

/// The stage-by-stage pipeline and its recorder.
#[derive(Default)]
pub struct Pipeline {
    /// The spans recorded so far.
    pub rec: Recorder,
    /// Work counts so far.
    pub counts: Counts,
    units: HashMap<CompileKey, Result<Arc<Unit>, String>>,
    arena: Option<CheriMemory<C>>,
    pending: Vec<Pending>,
}

/// `execute_job`'s outcome rendering.
fn outcome_string(o: &Outcome) -> String {
    match o {
        Outcome::Error(m) => format!("error: {m}"),
        other => other.label(),
    }
}

impl Pipeline {
    /// Compile every program of `jobs` outside any job, as a warm cache
    /// would have before the traffic started.
    pub fn warm(&mut self, jobs: &[&JobSpec]) {
        self.rec.root(None, "setup");
        for spec in jobs {
            for p in &spec.profiles {
                let _ = self.unit(&spec.source, p);
            }
        }
        self.rec.exit();
        self.probe_compiles(None);
    }

    /// Look `(source, profile)` up, compiling on a miss.
    fn unit(&mut self, source: &Arc<String>, p: &Profile) -> Result<Arc<Unit>, String> {
        let (key, hit) = self.rec.span("serve.cache", || {
            let key = CompileKey::for_profile::<C>(source, p);
            (key, self.units.get(&key).cloned())
        });
        if let Some(hit) = hit {
            return hit;
        }
        let unit = self.compile(source, p, key.ptr_size).map(Arc::new);
        if let Ok(u) = &unit {
            self.pending.push(Pending {
                source: Arc::clone(source),
                unpromoted: (!p.opt.register_promote).then(|| Arc::clone(u)),
            });
        }
        self.units.insert(key, unit.clone());
        unit
    }

    /// `compile_for` followed by `lower_for`, one span per stage.
    fn compile(&mut self, source: &str, p: &Profile, ptr_size: u64) -> Result<Unit, String> {
        self.counts.compiles += 1;
        let layout = TargetLayout { ptr_size };
        let parsed = self
            .rec
            .span("core.parse", || parse::parse(source, layout))
            .map_err(|e| e.to_string())?;
        let checked = self
            .rec
            .span("core.typeck", || typeck::check(parsed))
            .map_err(|e| e.to_string())?;
        let tast = self.rec.span("core.opt", || opt::optimize(checked, &p.opt));
        let mut ir = self.rec.span("ir.lower", || lower(&tast));
        self.counts.lowered_insts += ir.code_len() as u64;
        if p.opt.register_promote {
            self.rec.span("ir.promote", || promote::promote(&mut ir));
        }
        self.rec.span("ir.peephole", || peephole::optimize(&mut ir));
        self.counts.optimised_insts += ir.code_len() as u64;
        Ok(Unit {
            tast,
            ir: Arc::new(ir),
        })
    }

    /// One run of `unit` under `p` on the recycled arena, as a span.
    fn exec(
        &mut self,
        name: &'static str,
        unit: &Unit,
        p: &Profile,
        engine: Engine,
        events: bool,
    ) -> (RunResult, Vec<MemEvent>) {
        let arena = self.arena.take();
        let (r, ev, mem) = self.rec.span(name, || {
            let mut interp = Interp::<C>::new(&unit.tast, p);
            interp = match engine {
                Engine::Bytecode => interp.with_ir(Arc::clone(&unit.ir)),
                Engine::Tree => interp.with_engine(Engine::Tree),
            };
            if let Some(mem) = arena {
                interp = interp.with_recycled_memory(mem);
            }
            if events {
                interp.run_with_events_recycling()
            } else {
                let (r, mem) = interp.run_recycling();
                (r, Vec::new(), mem)
            }
        });
        self.arena = Some(mem);
        (r, ev)
    }

    /// The job's VM run; its memory statistics feed the `mem.*` counts.
    fn vm(&mut self, unit: &Unit, p: &Profile, events: bool) -> (RunResult, Vec<MemEvent>) {
        let (r, ev) = self.exec("exec.vm", unit, p, Engine::Bytecode, events);
        let s = &r.mem_stats;
        let c = &mut self.counts;
        c.loads += s.loads;
        c.stores += s.stores;
        c.allocations += s.allocations;
        c.memcpy_bytes += s.memcpy_bytes;
        c.rep_checks += s.representability_checks;
        c.tag_clears += s.tag_clears;
        c.events += ev.len() as u64;
        (r, ev)
    }

    /// Run job `j` stage by stage; returns its outcome strings, which must
    /// equal `execute_job`'s. The checking modes' verdicts (an engine
    /// divergence, an unsound lint) already fail the job's check on the
    /// service's output, so here those modes only pay for their stages.
    pub fn run_job(&mut self, j: u32, spec: &JobSpec) -> Vec<String> {
        self.counts.jobs += 1;
        self.rec.root(Some(j), "job");
        let mut outcomes = Vec::with_capacity(spec.profiles.len());
        let mut units = Vec::with_capacity(spec.profiles.len());
        let mut streams: Vec<(String, Vec<MemEvent>)> = Vec::new();
        for p in &spec.profiles {
            let unit = match self.unit(&spec.source, p) {
                Ok(u) => u,
                Err(e) => {
                    outcomes.push(format!("error: {e}"));
                    continue;
                }
            };
            let outcome = match spec.mode {
                Mode::Run => outcome_string(&self.vm(&unit, p, false).0.outcome),
                Mode::TraceDiff => {
                    let (r, ev) = self.vm(&unit, p, true);
                    streams.push((p.name.clone(), ev));
                    outcome_string(&r.outcome)
                }
                Mode::EngineDiff => {
                    self.exec("exec.tree", &unit, p, Engine::Tree, true);
                    let (r, ev) = self.vm(&unit, p, true);
                    streams.push((p.name.clone(), ev));
                    outcome_string(&r.outcome)
                }
                Mode::LintCheck => {
                    let (r, _) = self.vm(&unit, p, false);
                    self.rec
                        .span("lint", || lint_program_with::<C>(&unit.tast, p));
                    outcome_string(&r.outcome)
                }
                Mode::Lint => {
                    let report = self
                        .rec
                        .span("lint", || lint_program_with::<C>(&unit.tast, p));
                    report.overall().label().to_string()
                }
            };
            outcomes.push(outcome);
            units.push((p, unit));
        }
        if spec.mode == Mode::TraceDiff {
            self.rec
                .span("obs.diff", || cheri_obs::render_profile_diffs(&streams));
        }
        self.rec.exit();
        self.probe_compiles(Some(j));
        self.probe_job(j, spec.mode, &units, streams);
        outcomes
    }

    /// Probes of the compiles since the last call: the standalone lexer,
    /// and promotion of a fresh lowering where the profile did not promote.
    fn probe_compiles(&mut self, job: Option<u32>) {
        if self.pending.is_empty() {
            return;
        }
        self.rec.root(job, "probe");
        for Pending { source, unpromoted } in std::mem::take(&mut self.pending) {
            let tokens = self.rec.span("core.lex", || lex::lex(&source));
            self.counts.tokens += tokens.map_or(0, |t| t.len() as u64);
            if let Some(unit) = unpromoted {
                let mut ir = self.rec.span("probe.lower", || lower(&unit.tast));
                self.rec.span("ir.promote", || promote::promote(&mut ir));
            }
        }
        self.rec.exit();
    }

    /// Probes of the layers `mode` does not call, on the job's programs.
    fn probe_job(
        &mut self,
        j: u32,
        mode: Mode,
        units: &[(&Profile, Arc<Unit>)],
        mut streams: Vec<(String, Vec<MemEvent>)>,
    ) {
        self.rec.root(Some(j), "probe");
        if mode != Mode::EngineDiff {
            // Like for like with the job's VM runs: events on only where
            // the job ran the VM with events.
            for (p, unit) in units {
                self.exec("exec.tree", unit, p, Engine::Tree, mode == Mode::TraceDiff);
            }
        }
        if !matches!(mode, Mode::LintCheck | Mode::Lint) {
            for (p, unit) in units {
                self.rec
                    .span("lint", || lint_program_with::<C>(&unit.tast, p));
            }
        }
        if mode != Mode::TraceDiff {
            if streams.is_empty() {
                for (p, unit) in units {
                    let (_, ev) = self.exec("probe.vm_events", unit, p, Engine::Bytecode, true);
                    self.counts.events += ev.len() as u64;
                    streams.push((p.name.clone(), ev));
                }
            }
            self.rec
                .span("obs.diff", || cheri_obs::render_profile_diffs(&streams));
        }
        self.rec.exit();
    }
}

/// Median ns per operation of `f`, which performs `ops` operations, over
/// `samples` timed calls.
fn unit_cost(samples: usize, ops: u64, mut f: impl FnMut()) -> f64 {
    f();
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[ns.len() / 2]
}

/// Unit costs of the memory and capability models' public calls, in ns.
#[derive(Clone, Copy, Debug)]
pub struct UnitCosts {
    /// One scalar `int` store or load through `CheriMemory`.
    pub scalar_load_store: f64,
    /// One capability store or load through `CheriMemory`.
    pub cap_load_store: f64,
    /// One `malloc`-style allocation plus its `free`.
    pub alloc_free: f64,
    /// One `Capability::with_bounds` (CHERI Concentrate compression).
    pub set_bounds: f64,
}

/// Time the unit operations on the reference memory configuration.
#[must_use]
pub fn unit_costs(seed: u64) -> UnitCosts {
    const N: u64 = 4096;
    const SAMPLES: usize = 15;
    let mut mem = CheriMemory::<C>::new(MemConfig::cheri_reference());
    let ints = mem
        .allocate_object("ints", 4 * N, 4, false, None)
        .expect("allocate ints");
    let slots: Vec<_> = (0..N as i64)
        .map(|i| mem.array_shift(&ints, 4, i).expect("in bounds"))
        .collect();
    let scalar_load_store = unit_cost(SAMPLES, 2 * N, || {
        for (i, p) in slots.iter().enumerate() {
            mem.store_int(p, 4, &IntVal::Num(i as i128)).expect("store");
        }
        for p in &slots {
            black_box(mem.load_int(p, 4, true, false).expect("load"));
        }
    });
    let target = mem
        .allocate_object("x", 4, 4, false, Some(&[0; 4]))
        .expect("allocate x");
    let caps = mem
        .allocate_object("caps", 16 * N, 16, false, None)
        .expect("allocate caps");
    let cap_slots: Vec<_> = (0..N as i64)
        .map(|i| mem.array_shift(&caps, 16, i).expect("in bounds"))
        .collect();
    let cap_load_store = unit_cost(SAMPLES, 2 * N, || {
        for p in &cap_slots {
            mem.store_ptr(p, &target).expect("store");
        }
        for p in &cap_slots {
            black_box(mem.load_ptr(p).expect("load"));
        }
    });
    let alloc_free = unit_cost(SAMPLES, 256, || {
        for i in 0..256u64 {
            let p = mem.allocate_region(16 + (i % 32) * 8, 16).expect("malloc");
            mem.kill(&p, true).expect("free");
        }
    });
    let mut rng = cheri_qc::Rng::seed_from_u64(seed);
    let regions: Vec<(u64, u64)> = (0..N)
        .map(|_| {
            let len = 1u64 << rng.gen_range(0u32..40);
            (
                rng.gen::<u64>() & 0xFFFF_FFFF_FFFF,
                len + rng.gen_range(0..len.max(2)),
            )
        })
        .collect();
    let root = C::root();
    let set_bounds = unit_cost(SAMPLES, N, || {
        for &(base, len) in &regions {
            black_box(root.with_bounds(base, len));
        }
    });
    UnitCosts {
        scalar_load_store,
        cap_load_store,
        alloc_free,
        set_bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_serve::{execute_job, ProgramCache};

    use crate::workload::fuzz_cold;

    #[test]
    fn stage_by_stage_outcomes_equal_execute_job() {
        let w = fuzz_cold(11, 16);
        let cache = ProgramCache::new();
        let mut arena = None;
        let mut pipe = Pipeline::default();
        for (i, job) in w.jobs.iter().enumerate() {
            for mode in [
                Mode::Run,
                Mode::EngineDiff,
                Mode::LintCheck,
                Mode::TraceDiff,
            ] {
                let spec = JobSpec {
                    mode,
                    ..job.spec.clone()
                };
                let want: Vec<String> = execute_job::<C>(&cache, &spec, &mut arena)
                    .profiles
                    .into_iter()
                    .map(|p| p.outcome)
                    .collect();
                assert_eq!(want.len(), 7);
                assert_eq!(
                    pipe.run_job(i as u32, &spec),
                    want,
                    "program {i} in {}",
                    mode.label()
                );
            }
        }
        assert_eq!(pipe.counts.jobs, 64);
        // Two compile keys per program (-O0 and -O3), each compiled once.
        assert_eq!(pipe.counts.compiles, 32);
    }
}
