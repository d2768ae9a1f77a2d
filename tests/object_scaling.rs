//! The scaling gate: a C object costs the same however many objects the
//! run created before it.
//!
//! Three loops each create one C object per iteration: a block-scoped
//! local, a call's parameter, and a `malloc`ed block that is freed again.
//! Each runs at `R` and `2R` iterations under `cerberus`, on the VM and on
//! the tree engine, and the longer run must take less than three times as
//! long as the shorter one. Constant cost per object gives about 2; an
//! index insert that moved every older entry gave 4.1–4.7.
//!
//! It times wall clock, so it runs only when asked for, in release, where
//! the memory model's share of the time shows (unoptimised interpretation
//! hides it):
//!
//! ```sh
//! cargo test --release --test object_scaling -- --ignored
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use cheri_c::core::{compile_for, ir, Engine, Interp, Outcome, Profile};
use cheri_cap::MorelloCap;

/// Iterations of the shorter run.
const R: u32 = 50_000;

/// Timed runs per size; the fastest counts.
const RUNS: usize = 3;

const BLOCK_LOCAL: &str = "
int main(void) {
  long acc = 0;
  int r;
  for (r = 0; r < ROUNDS; r++) { int t = r * 3; acc += t; }
  return (int)(acc % 101);
}";

const CALL: &str = "
int f(int a) { return a + 1; }
int main(void) {
  long acc = 0;
  int r;
  for (r = 0; r < ROUNDS; r++) acc += f(r);
  return (int)(acc % 101);
}";

const MALLOC: &str = "
int main(void) {
  int r;
  for (r = 0; r < ROUNDS; r++) { char *p = malloc(16); p[0] = 1; free(p); }
  return 0;
}";

/// The fastest of [`RUNS`] runs of `src` at `rounds` iterations.
fn fastest(src: &str, rounds: u32, engine: Engine) -> Duration {
    let profile = Profile::cerberus();
    let src = src.replace("ROUNDS", &rounds.to_string());
    let prog = compile_for::<MorelloCap>(&src, &profile).expect("program compiles");
    let lowered = Arc::new(ir::lower_for(&prog, &profile.opt));
    (0..RUNS)
        .map(|_| {
            let interp = Interp::<MorelloCap>::new(&prog, &profile);
            let interp = match engine {
                Engine::Tree => interp.with_engine(Engine::Tree),
                Engine::Bytecode => interp.with_ir(Arc::clone(&lowered)),
            };
            let start = Instant::now();
            let r = interp.run();
            let took = start.elapsed();
            assert!(
                matches!(r.outcome, Outcome::Exit(_)),
                "{src}: {}",
                r.outcome
            );
            took
        })
        .min()
        .expect("at least one run")
}

#[test]
#[ignore = "a wall-clock gate: run it in release with --ignored"]
fn objects_cost_the_same_however_many_came_before() {
    for (name, src) in [
        ("block-local", BLOCK_LOCAL),
        ("call", CALL),
        ("malloc", MALLOC),
    ] {
        for engine in [Engine::Bytecode, Engine::Tree] {
            let short = fastest(src, R, engine);
            let long = fastest(src, 2 * R, engine);
            let ratio = long.as_secs_f64() / short.as_secs_f64();
            println!(
                "{name} ({engine:?}): {short:?} at {R}, {long:?} at {}, ratio {ratio:.2}",
                2 * R
            );
            assert!(
                ratio < 3.0,
                "{name} ({engine:?}): {} iterations took {ratio:.2} times as long as {R}",
                2 * R
            );
        }
    }
}
