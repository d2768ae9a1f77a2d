//! The allocation gate: once a program is lowered, the bytecode VM runs its
//! loops without touching the host heap.
//!
//! Runtime values are plain data (a pointer is its provenance and
//! capability, with no C type attached), call and builtin arguments go
//! through a reused buffer, C-string builtins read into a reused byte
//! buffer, `memset` writes without a staging buffer and `memcmp` compares
//! in a reused one. So a loop that allocates no C objects must cost the
//! same number of host allocations whatever its trip count. Each program below runs at
//! `R` and `2R` outer iterations under `cerberus`, its fast mode and
//! `clang-morello-O0`; a per-thread counting allocator (local to this test
//! binary) counts the allocations made by the run alone, after parsing and
//! lowering, and the two counts must be equal.
//!
//! Every local is declared at the top of `main`: a declaration inside a
//! loop body allocates a fresh C object (and its host storage) per
//! iteration, which is the memory model's business, not the VM's.
//!
//! A second gate covers loops that do create C objects, a block-scoped
//! local and a call with two parameters. From `R` to `2R` iterations, the
//! tree engine's extra host allocations must not exceed the VM's: both
//! engines find a local by the number the type checker gave it, so
//! neither allocates to name one. And a C object costs its byte buffer
//! and nothing for its name, so the VM's extra iterations may cost at
//! most 1.25 host allocations each for the local (its buffer, plus the
//! amortised growth of the memory's tables) and 5.25 for the call (the
//! frame's vectors and the two parameters' buffers).
//!
//! A third gate covers the `-O3` pass, which edits the typed program in
//! place: on a left-nested sum `x + x + … + x`, where nothing folds, it
//! makes as many host allocations at `N` terms as at `2N`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use cheri_c::core::{
    compile_for, front_end, ir, opt, ptr_size_for, Engine, Interp, OptFlags, Outcome, Profile,
};
use cheri_cap::MorelloCap;

/// The system allocator, counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // An allocator must not panic; a const-initialised cell without a
    // destructor is always accessible, so the result can be ignored.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's obligations pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs_so_far() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Outer iterations of the shorter run.
const R: u32 = 40;

/// A `switch` dispatch loop over a local opcode array.
const DISPATCH: &str = "
int main(void) {
  int ops[8] = {0, 1, 2, 3, 4, 1, 0, 2};
  long acc = 7;
  int r;
  int pc;
  for (r = 0; r < ROUNDS; r++) {
    for (pc = 0; pc < 8; pc++) {
      switch (ops[pc]) {
        case 0: acc = acc + pc + r; break;
        case 1: acc = acc ^ (acc >> 3); break;
        case 2: acc = acc * 5 + 1; break;
        case 3: acc = acc - pc * 7; break;
        default: acc = acc + 11; break;
      }
      acc = acc & 16777215;
    }
  }
  return (int)(acc % 101);
}";

/// Sums through `cheri_bounds_set` sub-bounds of a local array.
const BOUNDS: &str = "
int main(void) {
  int buf[64];
  int *q;
  int i;
  int r;
  int j;
  long acc = 0;
  for (i = 0; i < 64; i++) buf[i] = (i * 7) % 31;
  for (r = 0; r < ROUNDS; r++) {
    q = cheri_bounds_set(buf + r % 8, (1 + r % 5) * sizeof(int));
    for (j = 0; j < 1 + r % 5; j++) acc += q[j];
    acc += cheri_length_get(q);
  }
  return (int)(acc % 101);
}";

/// `memcpy` of an array of capabilities, then loads through the copy.
const CAP_COPY: &str = "
int main(void) {
  int data[16];
  int *src[16];
  int *dst[16];
  int *t;
  int i;
  int r;
  long acc = 0;
  for (i = 0; i < 16; i++) data[i] = (i * 13 + 5) % 50;
  for (i = 0; i < 16; i++) src[i] = &data[(i * 5 + 3) % 16];
  for (r = 0; r < ROUNDS; r++) {
    memcpy(dst, src, sizeof(src));
    for (i = 0; i < 16; i++) acc += *dst[i];
    t = src[0];
    for (i = 0; i < 15; i++) src[i] = src[i + 1];
    src[15] = t;
  }
  return (int)(acc % 101);
}";

/// Walks a linked list threaded through a local array of nodes.
const LIST: &str = "
struct node { int val; struct node *next; };
int main(void) {
  struct node nodes[16];
  struct node *head = NULL;
  struct node *p;
  int i;
  int r;
  long acc = 0;
  for (i = 0; i < 16; i++) {
    nodes[i].val = i * 3 + 1;
    nodes[i].next = head;
    head = &nodes[i];
  }
  for (r = 0; r < ROUNDS; r++)
    for (p = head; p != NULL; p = p->next) acc += p->val;
  return (int)(acc % 101);
}";

/// `strcpy`/`strlen`/`strcmp` over string literals.
const STRINGS: &str = r#"
int main(void) {
  char a[32];
  char b[32];
  const char *words[4] = {"alpha", "be", "gammadelta", "epsilon"};
  long acc = 0;
  int r;
  int c;
  for (r = 0; r < ROUNDS; r++) {
    strcpy(a, words[r % 4]);
    strcpy(b, words[(r + 1) % 4]);
    acc += strlen(a) * 3 + strlen(b);
    c = strcmp(a, b);
    acc += c < 0 ? 1 : (c > 0 ? 2 : 3);
    a[0] = 'a' + r % 26;
    acc += a[0];
  }
  return (int)(acc % 101);
}"#;

/// Two `memset`s and a `memcmp` per round.
const MEMOPS: &str = "
int main(void) {
  char a[48];
  char b[48];
  long acc = 0;
  int r;
  int c;
  for (r = 0; r < ROUNDS; r++) {
    memset(a, 'a' + r % 7, sizeof(a));
    memset(b, 'a' + r % 5, 40);
    c = memcmp(a, b, 40);
    acc += c < 0 ? 1 : (c > 0 ? 2 : 3);
  }
  return (int)(acc % 101);
}";

/// A block-scoped local, allocated afresh in every iteration.
const BLOCK_LOCAL: &str = "
int main(void) {
  long acc = 0;
  int r;
  for (r = 0; r < ROUNDS; r++) { int t = r * 3; acc += t; }
  return (int)(acc % 101);
}";

/// A call with two parameters in every iteration.
const CALL: &str = "
int add(int a, int b) { return a + b; }
int main(void) {
  long acc = 0;
  int r;
  for (r = 0; r < ROUNDS; r++) acc = add((int)(acc % 1000), r);
  return (int)(acc % 101);
}";

const PROGRAMS: [(&str, &str); 6] = [
    ("dispatch", DISPATCH),
    ("bounds", BOUNDS),
    ("cap-copy", CAP_COPY),
    ("list", LIST),
    ("strings", STRINGS),
    ("memops", MEMOPS),
];

fn profiles() -> Vec<Profile> {
    let mut fast = Profile::cerberus();
    fast.opt = fast.opt.fast();
    fast.name = "cerberus@fast".into();
    vec![Profile::cerberus(), fast, Profile::clang_morello(false)]
}

/// Host allocations made by one run of `src` at `rounds` outer
/// iterations on each engine, VM first, with its outcome. Parsing and
/// lowering happen before the count starts; the engines' outcomes must
/// agree.
fn run_allocs(src: &str, rounds: u32, profile: &Profile) -> ([u64; 2], Outcome) {
    let src = src.replace("ROUNDS", &rounds.to_string());
    let prog = compile_for::<MorelloCap>(&src, profile).expect("program compiles");
    let lowered = Arc::new(ir::lower_for(&prog, &profile.opt));
    let before = allocs_so_far();
    let vm = Interp::<MorelloCap>::new(&prog, profile)
        .with_ir(lowered)
        .run();
    let vm_allocs = allocs_so_far() - before;
    let before = allocs_so_far();
    let tree = Interp::<MorelloCap>::new(&prog, profile)
        .with_engine(Engine::Tree)
        .run();
    let tree_allocs = allocs_so_far() - before;
    assert_eq!(vm.outcome, tree.outcome, "engines disagree on\n{src}");
    ([vm_allocs, tree_allocs], vm.outcome)
}

#[test]
fn vm_loops_do_not_allocate_per_iteration() {
    for profile in profiles() {
        for (name, src) in PROGRAMS {
            // Warm up: one-time lazily initialised state is not per-run.
            run_allocs(src, R, &profile);
            let ([short, _], outcome) = run_allocs(src, R, &profile);
            assert!(
                matches!(outcome, Outcome::Exit(_)),
                "{name} on {}: {outcome}",
                profile.name
            );
            let ([long, _], _) = run_allocs(src, 2 * R, &profile);
            assert_eq!(
                long,
                short,
                "{name} on {}: {short} host allocations at {R} iterations, {long} at {}",
                profile.name,
                2 * R
            );
        }
    }
}

#[test]
fn tree_engine_allocates_no_more_per_iteration_than_the_vm() {
    for profile in [Profile::cerberus(), Profile::clang_morello(false)] {
        for (name, src, bound) in [("block-local", BLOCK_LOCAL, 1.25), ("call", CALL, 5.25)] {
            // Warm up, as above.
            run_allocs(src, R, &profile);
            let ([vm_short, tree_short], outcome) = run_allocs(src, R, &profile);
            assert!(
                matches!(outcome, Outcome::Exit(_)),
                "{name} on {}: {outcome}",
                profile.name
            );
            let ([vm_long, tree_long], _) = run_allocs(src, 2 * R, &profile);
            let (vm_extra, tree_extra) = (vm_long - vm_short, tree_long - tree_short);
            assert!(
                tree_extra <= vm_extra,
                "{name} on {}: {R} more iterations cost the tree engine {tree_extra} host \
                 allocations and the VM {vm_extra}",
                profile.name
            );
            let per_iteration = vm_extra as f64 / f64::from(R);
            assert!(
                per_iteration <= bound,
                "{name} on {}: {per_iteration} host allocations per iteration, more than {bound}",
                profile.name
            );
        }
    }
}

/// Host allocations `opt::optimize` makes on an `-O3` sum of `terms`
/// terms. The front end recurses once per term, so unoptimised builds
/// run it on a large stack.
fn o3_sum_allocs(terms: usize) -> u64 {
    let sum = vec!["x"; terms].join(" + ");
    let src = format!("int main(void) {{ int x = 1; return {sum}; }}");
    let ptr_size = ptr_size_for::<MorelloCap>(&Profile::clang_morello(true));
    let count = move || {
        let prog = front_end(&src, ptr_size).expect("program compiles");
        let before = allocs_so_far();
        let optimized = opt::optimize(prog, &OptFlags::o3());
        let allocs = allocs_so_far() - before;
        drop(optimized);
        allocs
    };
    std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(count)
        .expect("spawn the compile thread")
        .join()
        .expect("the compile thread ends")
}

#[test]
fn o3_pass_allocates_nothing_per_term() {
    const N: usize = 200;
    let [short, long] = [N, 2 * N].map(o3_sum_allocs);
    assert_eq!(
        long,
        short,
        "opt::optimize: {short} host allocations on a {N}-term sum, {long} on {}",
        2 * N
    );
}
