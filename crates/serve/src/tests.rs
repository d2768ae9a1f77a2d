//! Unit tests: cache keying/sharing, manifest parsing, service ordering
//! and determinism on small batches. (The corpus-scale determinism and
//! cache-soundness gates live in `tests/batch_determinism.rs` and
//! `tests/program_cache_qc.rs` at the workspace root.)

use std::sync::Arc;

use cheri_core::{CheriotCap, MorelloCap, Outcome, Profile, RunResult};
use cheri_mem::{CheriMemory, MemEvent, MemStats};

use crate::cache::{CompileKey, ProgramCache};
use crate::job::{
    fast_variant, parse_job_line, profiles_from_spec, JobOutput, JobSpec, Mode, ProfileOutcome,
};
use crate::service::{execute_job, guarded, outcome_string, run_batch, Service};

fn job(id: &str, src: &str, profiles: Vec<Profile>, mode: Mode) -> JobSpec {
    JobSpec {
        id: id.into(),
        source: Arc::new(src.into()),
        profiles,
        mode,
    }
}

const OK_PROGRAM: &str = "int main(void) { int x = 40; return x + 2; }";
const UB_PROGRAM: &str = "int main(void) { int a[2]; a[2] = 1; return 0; }";

#[test]
fn cache_shares_across_equal_keys_and_profiles() {
    let cache = ProgramCache::new();
    // cerberus and clang-morello-O0 differ only in runtime axes: one key.
    let a = cache
        .get_or_compile::<MorelloCap>(OK_PROGRAM, &Profile::cerberus())
        .unwrap();
    let b = cache
        .get_or_compile::<MorelloCap>(OK_PROGRAM, &Profile::clang_morello(false))
        .unwrap();
    assert!(Arc::ptr_eq(&a, &b), "O0 profiles share one compilation");
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 1);
    // -O3 changes the optimisation fingerprint: a second entry.
    let c = cache
        .get_or_compile::<MorelloCap>(OK_PROGRAM, &Profile::clang_morello(true))
        .unwrap();
    assert!(!Arc::ptr_eq(&a, &c));
    assert_eq!(cache.len(), 2);
    // The ISO baseline changes the pointer size: a third entry.
    cache
        .get_or_compile::<MorelloCap>(OK_PROGRAM, &Profile::iso_baseline())
        .unwrap();
    assert_eq!(cache.len(), 3);
}

#[test]
fn compile_key_distinguishes_capability_models() {
    let p = Profile::cerberus();
    let morello = CompileKey::for_profile::<MorelloCap>(OK_PROGRAM, &p);
    let cheriot = CompileKey::for_profile::<CheriotCap>(OK_PROGRAM, &p);
    assert_ne!(morello, cheriot, "capability size is part of the key");
}

#[test]
fn cache_caches_front_end_errors() {
    let cache = ProgramCache::new();
    let e1 = cache
        .get_or_compile::<MorelloCap>("int main(void) {", &Profile::cerberus())
        .unwrap_err();
    let e2 = cache
        .get_or_compile::<MorelloCap>("int main(void) {", &Profile::cerberus())
        .unwrap_err();
    assert_eq!(e1, e2);
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.hits(), 1);
}

#[test]
fn colliding_sources_keep_their_own_compilations() {
    // The FNV-1a state is equal after these two string literals, so the
    // sources share a hash (and would with any common suffix). Run alone
    // they exit '8' and '2'; a cache keyed on the hash alone would run
    // whichever it compiled first for both.
    let a = r#"int main(void) { const char *s = "83150c83c4bdbedb"; return s[0]; }"#;
    let b = r#"int main(void) { const char *s = "281ef3cd6bf0e9f9"; return s[0]; }"#;
    let p = Profile::cerberus();
    assert_eq!(
        CompileKey::for_profile::<MorelloCap>(a, &p),
        CompileKey::for_profile::<MorelloCap>(b, &p),
        "the pair must collide for this test to mean anything"
    );
    let cache = ProgramCache::new();
    let mut arena = None;
    for (src, want) in [(a, "exit(56)"), (b, "exit(50)")] {
        let out = execute_job::<MorelloCap>(
            &cache,
            &job("c", src, Profile::all_compared(), Mode::Run),
            &mut arena,
        );
        for po in &out.profiles {
            assert_eq!(po.outcome, want, "{}: {src}", po.profile);
        }
    }
}

#[test]
fn keys_that_rewrite_nothing_share_the_typed_program() {
    let cache = ProgramCache::new();
    let unit = |p: &Profile| cache.get_or_compile::<MorelloCap>(OK_PROGRAM, p).unwrap();
    let o0 = unit(&Profile::cerberus());
    let o0_fast = unit(&fast_variant(Profile::cerberus()));
    let o3 = unit(&Profile::clang_morello(true));
    let iso = unit(&Profile::iso_baseline());
    assert!(!Arc::ptr_eq(&o0, &o0_fast), "the fast bit is its own key");
    assert!(
        Arc::ptr_eq(&o0.tast, &o0_fast.tast),
        "-O0 keys hold the front end's typed program itself"
    );
    assert!(
        !Arc::ptr_eq(&o3.tast, &o0.tast),
        "-O3 optimises its own clone"
    );
    assert!(
        !Arc::ptr_eq(&iso.tast, &o0.tast),
        "another pointer size, another front end"
    );
    assert!(!Arc::ptr_eq(&iso.tast, &o3.tast));
    assert_eq!(cache.len(), 4);
}

#[test]
fn front_end_errors_match_compile_for_under_every_profile() {
    let lex_error = "int main(void) { return 1 @ 2; }";
    let parse_error = "int main(void) {";
    let type_error = "int main(void) { return undeclared; }";
    assert!(cheri_core::lex::lex(lex_error).is_err());
    assert!(cheri_core::lex::lex(parse_error).is_ok());
    assert!(
        cheri_core::parse::parse(type_error, cheri_core::types::TargetLayout::default()).is_ok()
    );

    let profiles = profiles_from_spec("all").unwrap();
    let cache = ProgramCache::new();
    let mut arena = None;
    for src in [lex_error, parse_error, type_error] {
        let out = execute_job::<MorelloCap>(
            &cache,
            &job("e", src, profiles.clone(), Mode::Run),
            &mut arena,
        );
        for (p, po) in profiles.iter().zip(&out.profiles) {
            let m = cheri_core::compile_for::<MorelloCap>(src, p).unwrap_err();
            assert_eq!(po.outcome, format!("error: {m}"), "{}: {src}", p.name);
        }
    }
}

#[test]
fn batch_outputs_preserve_submission_order() {
    // Jobs with observably different results, submitted in a known order;
    // 4 workers over 1 core guarantees out-of-order completion is at
    // least possible — outputs must still come back in submission order.
    let sources = [
        "int main(void) { return 3; }",
        "int main(void) { return 1; }",
        UB_PROGRAM,
        "int main(void) { return 2; }",
    ];
    let jobs: Vec<JobSpec> = sources
        .iter()
        .enumerate()
        .map(|(i, s)| job(&format!("j{i}"), s, vec![Profile::cerberus()], Mode::Run))
        .collect();
    let out = run_batch::<MorelloCap>(jobs, 4);
    assert_eq!(out.len(), 4);
    assert_eq!(out[0].id, "j0");
    assert_eq!(out[0].profiles[0].outcome, "exit(3)");
    assert_eq!(out[1].profiles[0].outcome, "exit(1)");
    assert!(out[2].profiles[0].outcome.starts_with("UB:"));
    assert_eq!(out[3].profiles[0].outcome, "exit(2)");
}

/// On a single worker, a job whose array size divides by zero and then a
/// good job both come back rendered. The parser used to panic on that
/// constant, which killed the only worker and left the batch waiting for
/// ever, so the batch runs on a helper thread under a deadline.
#[test]
fn one_worker_batch_survives_an_unfoldable_constant() {
    let jobs = vec![
        job(
            "bad",
            "int a[1/0];\nint main(void) { return 0; }",
            vec![Profile::cerberus()],
            Mode::Run,
        ),
        job("good", OK_PROGRAM, vec![Profile::cerberus()], Mode::Run),
    ];
    let (tx, rx) = std::sync::mpsc::channel();
    let batch = std::thread::spawn(move || {
        let out = run_batch::<MorelloCap>(jobs, 1);
        let rendered: Vec<String> = out.iter().map(crate::job::JobOutput::render).collect();
        let _ = tx.send(rendered);
    });
    let rendered = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("the batch finishes within 30 s");
    batch.join().expect("the batch thread exits cleanly");
    assert_eq!(
        rendered[0],
        "=== job bad [run] ===\n── cerberus ──\n\
         → error: parse error at 1:7: cannot fold `1 / 0` to a constant\n"
    );
    assert!(
        rendered[1].starts_with("=== job good [run] ===\n── cerberus ──\n→ exit(42)\n"),
        "{}",
        rendered[1]
    );
}

/// A job that panics ends in an internal error under each of its
/// profiles, so the batch exits 1; the worker drops its arena, which the
/// panic may have left half-updated, and runs the next job as usual.
#[test]
fn a_panicking_job_is_an_internal_error_and_the_worker_carries_on() {
    let cache = ProgramCache::new();
    let spec = job(
        "j",
        OK_PROGRAM,
        vec![Profile::cerberus(), Profile::clang_morello(true)],
        Mode::Run,
    );
    let mut arena: Option<CheriMemory<MorelloCap>> = None;
    let run = |arena: &mut Option<CheriMemory<MorelloCap>>| {
        guarded(&spec, arena, |a| execute_job(&cache, &spec, a))
    };
    run(&mut arena);
    assert!(arena.is_some(), "a run leaves the worker an arena");

    let out = guarded(&spec, &mut arena, |_| panic!("slot {} out of range", 3));
    assert!(arena.is_none(), "the interrupted run's arena is dropped");
    assert!(out.has_error());
    assert_eq!(out.id, "j");
    let names: Vec<&str> = out.profiles.iter().map(|p| p.profile.as_str()).collect();
    assert_eq!(names, ["cerberus", "clang-morello-O3"]);
    for p in &out.profiles {
        assert_eq!(p.outcome, "error: internal error: slot 3 out of range");
        assert!(p.stdout.is_empty() && p.stats.is_empty() && p.events.is_none());
    }

    let out = run(&mut arena);
    assert!(!out.has_error());
    assert!(out.profiles.iter().all(|p| p.outcome == "exit(42)"));
    assert!(arena.is_some());
}

/// `void *` arithmetic and a flexible array member come back as front-end
/// errors, and the good jobs around them still run, at one worker and at
/// two. Both used to panic in `TypeTable::size_of` and kill their worker,
/// which lost the whole batch; a batch with one live worker left would
/// wait for ever, hence the deadline.
#[test]
fn batch_survives_types_without_a_size() {
    for workers in [1, 2] {
        let cerberus = || vec![Profile::cerberus()];
        let jobs = vec![
            job("ok1", OK_PROGRAM, cerberus(), Mode::Run),
            job(
                "void-arith",
                "int main(void) { void *p = 0; p = p + 1; return 0; }",
                cerberus(),
                Mode::Run,
            ),
            job(
                "flexible-array",
                "struct s { int n; int a[]; };\nint main(void) { return 0; }",
                cerberus(),
                Mode::Run,
            ),
            job("ok2", OK_PROGRAM, cerberus(), Mode::Run),
        ];
        let (tx, rx) = std::sync::mpsc::channel();
        let batch = std::thread::spawn(move || {
            let out = run_batch::<MorelloCap>(jobs, workers);
            let rendered: Vec<String> = out.iter().map(crate::job::JobOutput::render).collect();
            let _ = tx.send(rendered);
        });
        let rendered = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("the batch at {workers} worker(s) ends within 30 s: {e}"));
        batch.join().expect("the batch thread exits cleanly");
        assert_eq!(
            rendered[1],
            "=== job void-arith [run] ===\n── cerberus ──\n\
             → error: type error at 1:35: type `void` has no size\n"
        );
        assert_eq!(
            rendered[2],
            "=== job flexible-array [run] ===\n── cerberus ──\n\
             → error: parse error at 1:29: struct `s` member `a`: type `int[]` has no size\n"
        );
        for (i, id) in [(0, "ok1"), (3, "ok2")] {
            let head = format!("=== job {id} [run] ===\n── cerberus ──\n→ exit(42)\n");
            assert!(rendered[i].starts_with(&head), "{}", rendered[i]);
        }
    }
}

/// The tree engine counts steps per AST node and the VM per instruction,
/// so two runs that both exhaust the step budget stop at different points
/// with different output, statistics and events. `engine-diff` must count
/// them as agreeing; a step limit on one side only is a disagreement.
#[test]
fn engine_diff_accepts_two_step_limited_runs() {
    let result = |outcome: Outcome, stdout: &str, loads: u64| RunResult {
        outcome,
        stdout: stdout.into(),
        stderr: String::new(),
        unspecified_reads: 0,
        mem_stats: MemStats { loads, ..MemStats::default() },
    };
    let limited = || Outcome::Error("step limit exceeded".into());
    let tree = result(limited(), "...", 30);
    let vm = result(limited(), "..", 20);
    let tree_events = [MemEvent::Store { addr: 16, size: 4 }];
    assert_eq!(tree.engine_disagreement(&tree_events, &vm, &[]), None);

    // The job passes its gate and does not fail the batch.
    let job = JobOutput {
        id: "loop".into(),
        mode: Mode::EngineDiff,
        profiles: vec![ProfileOutcome {
            profile: "cerberus".into(),
            outcome: outcome_string(&vm.outcome),
            stdout: vm.stdout.clone(),
            stderr: String::new(),
            stats: String::new(),
            lint: None,
            events: None,
        }],
        trace_diff: None,
        exec_ns: 0,
    };
    assert!(vm.outcome.is_step_limit());
    assert!(!job.has_error(), "{}", job.render());

    let exited = result(Outcome::Exit(0), "..", 20);
    assert!(tree.engine_disagreement(&tree_events, &exited, &[]).is_some());
    let other_error = result(Outcome::Error("call depth exceeded".into()), "..", 20);
    assert!(tree.engine_disagreement(&tree_events, &other_error, &[]).is_some());
}

#[test]
fn worker_counts_agree_byte_for_byte() {
    let mk = || {
        (0..12)
            .map(|i| {
                let src = format!("int main(void) {{ int x = {i}; return x * 2; }}");
                job(
                    &format!("job-{i}"),
                    &src,
                    Profile::all_compared(),
                    if i % 3 == 0 { Mode::TraceDiff } else { Mode::Run },
                )
            })
            .collect::<Vec<_>>()
    };
    let render = |outs: Vec<crate::job::JobOutput>| {
        outs.iter().map(crate::job::JobOutput::render).collect::<Vec<_>>()
    };
    let one = render(run_batch::<MorelloCap>(mk(), 1));
    let four = render(run_batch::<MorelloCap>(mk(), 4));
    assert_eq!(one, four, "worker count must not change any output byte");
}

#[test]
fn lint_mode_reports_verdicts() {
    let out = run_batch::<MorelloCap>(
        vec![job("l", UB_PROGRAM, vec![Profile::cerberus()], Mode::Lint)],
        2,
    );
    assert_eq!(out[0].profiles[0].outcome, "must-ub");
    let lint = out[0].profiles[0].lint.as_deref().unwrap();
    assert!(lint.contains("out-of-bounds"), "{lint}");
}

#[test]
fn trace_diff_mode_reports_divergence() {
    // §3.1-style one-past write: UB under cerberus, trap on hardware —
    // the event streams diverge at the terminal event.
    let src = r#"
        void f(int *p, int i) { int *q = p + i; *q = 42; }
        int main(void) { int x=0, y=0; f(&x, 1); return y; }
    "#;
    let profiles = vec![Profile::cerberus(), Profile::clang_morello(false)];
    let out = run_batch::<MorelloCap>(vec![job("d", src, profiles, Mode::TraceDiff)], 2);
    let diff = out[0].trace_diff.as_deref().unwrap();
    assert!(diff.contains("diverges from cerberus"), "{diff}");
    assert!(out[0].profiles.iter().all(|p| p.events.is_some()));
}

#[test]
fn streaming_interface_emits_in_order() {
    let mut svc = Service::<MorelloCap>::new(3);
    for i in 0..6 {
        let src = format!("int main(void) {{ return {i}; }}");
        svc.submit(job(&format!("s{i}"), &src, vec![Profile::cerberus()], Mode::Run));
    }
    let mut seen = Vec::new();
    while let Some(o) = svc.next_output() {
        seen.push(o.profiles[0].outcome.clone());
    }
    assert_eq!(seen, ["exit(0)", "exit(1)", "exit(2)", "exit(3)", "exit(4)", "exit(5)"]);
    assert_eq!(svc.pending(), 0);
    // The service stays alive for more submissions.
    svc.submit(job("again", OK_PROGRAM, vec![Profile::cerberus()], Mode::Run));
    assert_eq!(svc.next_output().unwrap().profiles[0].outcome, "exit(42)");
}

#[test]
fn manifest_lines_parse_and_reject() {
    assert!(parse_job_line("", "1", None).unwrap().is_none());
    assert!(parse_job_line("# comment", "1", None).unwrap().is_none());
    assert!(parse_job_line("run cerberus", "1", None).is_err());
    assert!(parse_job_line("fly cerberus x.c", "1", None)
        .unwrap_err()
        .contains("unknown mode"));
    assert!(parse_job_line("run warp9 x.c", "1", None)
        .unwrap_err()
        .contains("unknown profile"));
    assert_eq!(profiles_from_spec("all").unwrap().len(), 8);
    assert_eq!(profiles_from_spec("compared").unwrap().len(), 7);
    assert_eq!(
        profiles_from_spec("cerberus,cheriot").unwrap()[1].name,
        "cheriot"
    );

    // Round-trip through a real manifest file.
    let dir = std::env::temp_dir().join("cheri-serve-manifest-test");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("p.c"), OK_PROGRAM).unwrap();
    std::fs::write(
        dir.join("jobs.txt"),
        "# demo\nrun cerberus p.c\nlint compared p.c\nlint  compared   p.c\n",
    )
    .unwrap();
    let jobs = crate::job::load_manifest(dir.join("jobs.txt").to_str().unwrap()).unwrap();
    assert_eq!(jobs.len(), 3);
    assert_eq!(jobs[0].id, "2:p.c");
    assert_eq!(jobs[0].mode, Mode::Run);
    assert_eq!(jobs[1].mode, Mode::Lint);
    assert_eq!(jobs[1].profiles.len(), 7);
    // Repeated spaces between fields separate them like single ones.
    assert_eq!(jobs[2].id, "4:p.c");
    assert_eq!(jobs[2].mode, Mode::Lint);
    assert_eq!(jobs[2].profiles.len(), 7);
}

#[test]
fn arena_reuse_is_observably_identical() {
    // One worker, many jobs with different profiles (different memory
    // configurations): every job through the recycled arena must match a
    // fresh single-shot run exactly.
    let sources = [OK_PROGRAM, UB_PROGRAM, OK_PROGRAM];
    let mut jobs = Vec::new();
    for (i, s) in sources.iter().enumerate() {
        let mut profs = Profile::all_compared();
        profs.push(Profile::iso_baseline());
        jobs.push(job(&format!("a{i}"), s, profs, Mode::Run));
    }
    let out = run_batch::<MorelloCap>(jobs, 1);
    for (o, src) in out.iter().zip(sources.iter()) {
        for po in &o.profiles {
            let p = crate::job::profile_by_name(&po.profile).unwrap();
            let fresh = cheri_core::run_with::<MorelloCap>(src, &p);
            assert_eq!(po.outcome, fresh.outcome.label(), "{}/{}", o.id, po.profile);
            assert_eq!(po.stdout, fresh.stdout);
            assert_eq!(
                po.stats,
                crate::job::stats_line(&fresh.mem_stats, fresh.unspecified_reads)
            );
        }
    }
}
