//! The operation programs: the `*.c` files next to this module, small
//! programs over the C operations whose one body both engines and both
//! VM forms share (`Interp` in `crates/core/src/interp.rs`): casts and
//! f32 rounding, integer `*` (signed overflow, unsigned wrap), integer
//! and floating compound assignment, `++`/`--`, pointer arithmetic and
//! comparison, indirect calls and string initialisers; and memory
//! accesses both through an object's own pointer and through a pointer
//! derived from `cheri_ddc_get()` (`ddc_access.c`). The engine,
//! fast-mode and lint-soundness gates run them all. Neither the progen
//! corpus nor Table 1 has a float, so these are the gates' only float
//! inputs. Each program stops at its first UB, so each UB case has a
//! program of its own.

/// Every operation program as `(file name, source)`, sorted by name.
pub fn programs() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/ops");
    let mut progs: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("tests/ops is readable")
        .map(|entry| entry.expect("tests/ops entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "c"))
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).expect("operation program"))
        })
        .collect();
    progs.sort();
    assert!(!progs.is_empty(), "no operation programs in {}", dir.display());
    progs
}
