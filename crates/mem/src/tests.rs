//! Integration tests of the memory object model against the paper's rules.

use cheri_cap::{Capability, GhostState, MorelloCap};

use crate::{
    AddressLayout, AllocClass, CheriMemory, IntVal, MemConfig, MemError, Provenance, PtrVal,
    TrapKind, Ub,
};

type Mem = CheriMemory<MorelloCap>;

fn reference() -> Mem {
    Mem::new(MemConfig::cheri_reference())
}

fn hardware() -> Mem {
    Mem::new(MemConfig::cheri_hardware(AddressLayout::clang_morello()))
}

fn baseline() -> Mem {
    crate::new_baseline::<MorelloCap>()
}

fn expect_ub<T: std::fmt::Debug>(r: Result<T, MemError>, ub: Ub) {
    match r {
        Err(MemError::Ub(got, _)) => assert_eq!(got, ub),
        other => panic!("expected UB {ub}, got {other:?}"),
    }
}

fn expect_trap<T: std::fmt::Debug>(r: Result<T, MemError>, kind: TrapKind) {
    match r {
        Err(MemError::Trap(got, _)) => assert_eq!(got, kind),
        other => panic!("expected trap {kind}, got {other:?}"),
    }
}

// ── Basic allocation, load, store ────────────────────────────────────────

#[test]
fn roundtrip_int() {
    let mut m = reference();
    let p = m.allocate_object("x", 4, 4, false, None).unwrap();
    m.store_int(&p, 4, &IntVal::Num(-7)).unwrap();
    assert_eq!(m.load_int(&p, 4, true, false).unwrap().value(), -7);
    assert_eq!(m.load_int(&p, 4, false, false).unwrap().value(), 0xFFFF_FFF9);
}

#[test]
fn fresh_allocation_capability_matches_footprint() {
    let mut m = reference();
    let p = m.allocate_object("x", 8, 8, false, None).unwrap();
    assert!(p.cap.tag());
    assert_eq!(p.cap.bounds().base, p.addr());
    assert_eq!(p.cap.bounds().length(), 8);
    assert!(matches!(p.prov, Provenance::Alloc(_)));
}

#[test]
fn uninitialised_read_is_ub() {
    let mut m = reference();
    let p = m.allocate_object("x", 4, 4, false, None).unwrap();
    expect_ub(m.load_int(&p, 4, true, false), Ub::UninitialisedRead);
}

#[test]
fn readonly_object_rejects_store() {
    let mut m = reference();
    let p = m.allocate_object("c", 4, 4, true, Some(&[1, 0, 0, 0])).unwrap();
    assert_eq!(m.load_int(&p, 4, true, false).unwrap().value(), 1);
    // §3.9: the capability lacks write permission, so this is flagged by the
    // capability check before the allocation check.
    let e = m.store_int(&p, 4, &IntVal::Num(2)).unwrap_err();
    assert!(matches!(
        e,
        MemError::Ub(Ub::CheriInsufficientPermissions | Ub::WriteToReadOnly, _)
    ));
}

#[test]
fn stack_allocations_grow_down_heap_up() {
    let mut m = reference();
    let a = m.allocate_object("a", 4, 4, false, None).unwrap();
    let b = m.allocate_object("b", 4, 4, false, None).unwrap();
    assert!(b.addr() < a.addr());
    let ha = m.allocate_region(16, 16).unwrap();
    let hb = m.allocate_region(16, 16).unwrap();
    assert!(hb.addr() > ha.addr());
}

// ── The §3.1 example: one-past write traps / is UB ───────────────────────

#[test]
fn one_past_write_is_bounds_violation() {
    let mut m = reference();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let q = m.array_shift(&x, 4, 1).unwrap(); // legal construction
    expect_ub(m.store_int(&q, 4, &IntVal::Num(42)), Ub::CheriBoundsViolation);
}

#[test]
fn one_past_write_traps_on_hardware() {
    let mut m = hardware();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let q = m.array_shift(&x, 4, 1).unwrap();
    expect_trap(m.store_int(&q, 4, &IntVal::Num(42)), TrapKind::BoundsViolation);
}

#[test]
fn baseline_detects_oob_via_provenance_only() {
    let mut m = baseline();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let q = m.array_shift(&x, 4, 1).unwrap();
    expect_ub(m.store_int(&q, 4, &IntVal::Num(42)), Ub::AccessOutOfBounds);
}

// ── §3.2: out-of-bounds construction ─────────────────────────────────────

#[test]
fn far_oob_construction_is_ub_in_reference() {
    let mut m = reference();
    let x = m.allocate_object("x", 8, 4, false, Some(&[0; 8])).unwrap();
    expect_ub(m.array_shift(&x, 4, 100_001), Ub::OutOfBoundPtrArithmetic);
}

#[test]
fn far_oob_construction_clears_tag_on_hardware() {
    let mut m = hardware();
    let x = m.allocate_object("x", 8, 4, false, Some(&[0; 8])).unwrap();
    let q = m.array_shift(&x, 4, 100_001).unwrap(); // no abstract UB
    assert!(!q.cap.tag(), "non-representable construction clears the tag");
    assert_eq!(q.addr(), x.addr().wrapping_add(400_004));
    // ... and coming back into range does not restore it.
    let back = m.array_shift(&q, 4, -100_000).unwrap();
    assert!(!back.cap.tag());
    expect_trap(m.store_int(&back, 4, &IntVal::Num(1)), TrapKind::TagViolation);
}

// ── Temporal safety (§3.11, use-after-free) ──────────────────────────────

#[test]
fn use_after_free_is_ub() {
    let mut m = reference();
    let p = m.allocate_region(16, 16).unwrap();
    m.store_int(&p, 4, &IntVal::Num(3)).unwrap();
    m.kill(&p, true).unwrap();
    expect_ub(m.load_int(&p, 4, true, false), Ub::AccessDeadAllocation);
}

#[test]
fn double_free_is_ub() {
    let mut m = reference();
    let p = m.allocate_region(16, 16).unwrap();
    m.kill(&p, true).unwrap();
    expect_ub(m.kill(&p, true), Ub::DoubleFree);
}

#[test]
fn free_of_interior_pointer_is_ub() {
    let mut m = reference();
    let p = m.allocate_region(16, 16).unwrap();
    let q = m.array_shift(&p, 1, 4).unwrap();
    expect_ub(m.kill(&q, true), Ub::FreeInvalidPointer);
}

#[test]
fn free_null_is_noop() {
    let mut m = reference();
    m.kill(&PtrVal::null(), true).unwrap();
}

#[test]
fn hardware_mode_misses_use_after_free_when_memory_reused() {
    // §3.11: "in the absence of a capability revocation mechanism ... one
    // could have a pointer to a heap object that has been killed and another
    // pointer to a newly allocated object at the same address".
    let mut m = hardware();
    let p = m.allocate_region(16, 16).unwrap();
    m.kill(&p, true).unwrap();
    // The capability is still tagged and in bounds; hardware cannot object
    // (our bump allocator does not reuse, so give it fresh backing bytes).
    let e = m.store_int(&p, 4, &IntVal::Num(9));
    assert!(e.is_ok(), "hardware cannot detect temporal violations: {e:?}");
}

// ── Pointer/integer casts (§3.3) and PNVI-ae-udi ─────────────────────────

#[test]
fn intptr_roundtrip_preserves_capability() {
    let mut m = reference();
    let p = m.allocate_object("x", 8, 8, false, Some(&[0; 8])).unwrap();
    let iv = m.cast_ptr_to_int(&p, true, false, 16);
    assert!(iv.is_cap());
    assert_eq!(iv.value(), i128::from(p.addr()));
    let q = m.cast_int_to_ptr(&iv);
    assert_eq!(q.cap, p.cap);
    assert_eq!(q.prov, p.prov);
    m.store_int(&q, 4, &IntVal::Num(5)).unwrap();
}

#[test]
fn ptr_to_int_cast_exposes_allocation() {
    let mut m = reference();
    let p = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let id = p.prov.alloc_id().unwrap();
    assert!(!m.allocation(id).expect("allocation exists").exposed);
    let _ = m.cast_ptr_to_int(&p, false, true, 8);
    assert!(m.allocation(id).expect("allocation exists").exposed);
}

#[test]
fn int_to_ptr_attaches_provenance_of_exposed_allocation() {
    let mut m = reference();
    let p = m.allocate_object("x", 4, 4, false, Some(&[7, 0, 0, 0])).unwrap();
    let addr = p.addr();
    let iv = m.cast_ptr_to_int(&p, false, false, 8); // expose, lose the cap
    assert_eq!(iv, IntVal::Num(i128::from(addr)));
    let q = m.cast_int_to_ptr(&iv);
    assert_eq!(q.prov, p.prov, "PNVI-ae lookup recovers the provenance");
    // But the capability is null-derived: usable in the baseline sense only.
    assert!(!q.cap.tag());
    expect_ub(m.load_int(&q, 4, true, false), Ub::CheriInvalidCap);
}

#[test]
fn int_to_ptr_without_expose_gets_empty_provenance() {
    let mut m = reference();
    let p = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let q = m.cast_int_to_ptr(&IntVal::Num(i128::from(p.addr())));
    assert!(q.prov.is_empty());
}

#[test]
fn baseline_int_to_ptr_roundtrip_works() {
    // In the baseline model the same cast chain yields a *usable* pointer —
    // this is the PNVI-ae-udi of §2.3 without capabilities.
    let mut m = baseline();
    let p = m.allocate_object("x", 4, 4, false, Some(&[7, 0, 0, 0])).unwrap();
    let iv = m.cast_ptr_to_int(&p, false, false, 8);
    let q = m.cast_int_to_ptr(&iv);
    assert_eq!(m.load_int(&q, 4, true, false).unwrap().value(), 7);
}

#[test]
fn ambiguous_one_past_cast_creates_iota() {
    let mut m = reference();
    // Two adjacent heap allocations: one-past of `a` may equal base of `b`.
    let a = m.allocate_region(16, 16).unwrap();
    let b = m.allocate_region(16, 16).unwrap();
    if a.addr() + 16 != b.addr() {
        return; // representability padding separated them; nothing to test
    }
    let _ = m.cast_ptr_to_int(&a, false, false, 8);
    let _ = m.cast_ptr_to_int(&b, false, false, 8);
    let q = m.cast_int_to_ptr(&IntVal::Num(i128::from(b.addr())));
    assert!(matches!(q.prov, Provenance::Iota(_)));
}

// ── Capability representation accesses (§3.5) ────────────────────────────

#[test]
fn byte_write_to_stored_capability_makes_tag_unspecified() {
    let mut m = reference();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let px = m.allocate_object("px", 16, 16, false, None).unwrap();
    m.store_ptr(&px, &x).unwrap();
    assert!(m.cap_meta_at(px.addr()).tag);
    // p[0] = p[0]: read a representation byte, write it back.
    let b = m.load_int(&px, 1, false, false).unwrap();
    m.store_int(&px, 1, &b).unwrap();
    let meta = m.cap_meta_at(px.addr());
    assert!(meta.ghost.tag_unspecified, "ghost bit set, tag not cleared");
    assert!(meta.tag, "abstract machine keeps the tag itself");
    // Loading yields a capability with unspecified tag; using it is UB.
    let loaded = m.load_ptr(&px).unwrap();
    assert!(loaded.cap.ghost().tag_unspecified);
    expect_ub(m.store_int(&loaded, 4, &IntVal::Num(1)), Ub::CheriUndefinedTag);
}

#[test]
fn byte_write_clears_tag_on_hardware() {
    let mut m = hardware();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let px = m.allocate_object("px", 16, 16, false, None).unwrap();
    m.store_ptr(&px, &x).unwrap();
    let b = m.load_int(&px, 1, false, false).unwrap();
    m.store_int(&px, 1, &b).unwrap();
    let meta = m.cap_meta_at(px.addr());
    assert!(!meta.tag, "hardware deterministically clears the tag");
    let loaded = m.load_ptr(&px).unwrap();
    expect_trap(m.store_int(&loaded, 4, &IntVal::Num(1)), TrapKind::TagViolation);
}

#[test]
fn bytewise_copy_of_pointer_loses_tag_but_keeps_provenance_bytes() {
    // The §3.5 for-loop example: copying a pointer byte-by-byte. In the
    // abstract machine the destination tag is unset (no capability store
    // ever happened there), so using the copy is UB.
    let mut m = reference();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let p0 = m.allocate_object("px0", 16, 16, false, None).unwrap();
    let p1 = m.allocate_object("px1", 16, 16, false, None).unwrap();
    m.store_ptr(&p0, &x).unwrap();
    for i in 0..16 {
        let src = m.array_shift(&p0, 1, i).unwrap();
        let dst = m.array_shift(&p1, 1, i).unwrap();
        let b = m.load_int(&src, 1, false, false).unwrap();
        m.store_int(&dst, 1, &b).unwrap();
    }
    let copied = m.load_ptr(&p1).unwrap();
    assert!(!copied.cap.tag());
    let e = m.store_int(&copied, 4, &IntVal::Num(1));
    assert!(e.is_err());
}

#[test]
fn memcpy_preserves_capability() {
    // ... whereas memcpy uses capability-sized accesses and preserves tags.
    let mut m = reference();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let p0 = m.allocate_object("px0", 16, 16, false, None).unwrap();
    let p1 = m.allocate_object("px1", 16, 16, false, None).unwrap();
    m.store_ptr(&p0, &x).unwrap();
    m.memcpy(&p1, &p0, 16).unwrap();
    let copied = m.load_ptr(&p1).unwrap();
    assert!(copied.cap.tag());
    assert_eq!(copied.prov, x.prov);
    m.store_int(&copied, 4, &IntVal::Num(1)).unwrap();
}

#[test]
fn partial_memcpy_of_capability_invalidates() {
    let mut m = reference();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let p0 = m.allocate_object("px0", 16, 16, false, None).unwrap();
    let p1 = m.allocate_object("px1", 16, 16, false, None).unwrap();
    m.store_ptr(&p0, &x).unwrap();
    m.memcpy(&p1, &p0, 8).unwrap(); // half a capability
    let e = m.load_ptr(&p1);
    assert!(e.is_err(), "half-initialised pointer read: {e:?}");
}

#[test]
fn memset_invalidates_stored_capability() {
    let mut m = reference();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let px = m.allocate_object("px", 16, 16, false, None).unwrap();
    m.store_ptr(&px, &x).unwrap();
    m.memset(&px, 0, 16).unwrap();
    let p = m.load_ptr(&px).unwrap();
    assert!(p.cap.ghost().tag_unspecified || !p.cap.tag());
}

// ── Pointer comparison and subtraction ───────────────────────────────────

#[test]
fn ptr_diff_same_allocation() {
    let mut m = reference();
    let a = m.allocate_object("arr", 40, 4, false, Some(&[0; 40])).unwrap();
    let p = m.array_shift(&a, 4, 7).unwrap();
    assert_eq!(m.ptr_diff(&p, &a, 4).unwrap(), 7);
}

#[test]
fn ptr_diff_different_provenance_is_ub() {
    let mut m = reference();
    let a = m.allocate_object("a", 4, 4, false, None).unwrap();
    let b = m.allocate_object("b", 4, 4, false, None).unwrap();
    expect_ub(m.ptr_diff(&a, &b, 4), Ub::PtrDiffDifferentProvenance);
}

#[test]
fn equality_is_address_only() {
    // §3.6: == compares addresses, ignoring metadata.
    let mut m = reference();
    let a = m.allocate_object("a", 8, 8, false, Some(&[0; 8])).unwrap();
    let narrowed = PtrVal::new(a.prov, a.cap.with_bounds(a.addr(), 4));
    let untagged = PtrVal::new(a.prov, a.cap.clear_tag());
    assert!(m.ptr_eq(&a, &narrowed));
    assert!(m.ptr_eq(&a, &untagged));
    assert!(!a.cap.exact_eq(&narrowed.cap), "exact equality distinguishes");
}

#[test]
fn relational_compare_different_provenance_is_ub() {
    let mut m = reference();
    let a = m.allocate_object("a", 4, 4, false, None).unwrap();
    let b = m.allocate_object("b", 4, 4, false, None).unwrap();
    expect_ub(m.ptr_rel_cmp(&a, &b), Ub::RelationalCompareDifferentProvenance);
    assert!(m.ptr_rel_cmp(&a, &a).is_ok());
}

// ── realloc ──────────────────────────────────────────────────────────────

#[test]
fn realloc_copies_and_frees() {
    let mut m = reference();
    let p = m.allocate_region(8, 8).unwrap();
    m.store_int(&p, 4, &IntVal::Num(99)).unwrap();
    let q = m.reallocate(&p, 32).unwrap();
    assert_eq!(m.load_int(&q, 4, true, false).unwrap().value(), 99);
    expect_ub(m.load_int(&p, 4, true, false), Ub::AccessDeadAllocation);
}

#[test]
fn realloc_null_is_malloc() {
    let mut m = reference();
    let q = m.reallocate(&PtrVal::null(), 8).unwrap();
    m.store_int(&q, 4, &IntVal::Num(1)).unwrap();
}

// ── Allocator layout profiles (Appendix A mechanism) ─────────────────────

#[test]
fn layout_controls_stack_addresses() {
    let mut cer = reference();
    let mut gcc = Mem::new(MemConfig::cheri_hardware(AddressLayout::gcc_morello()));
    let a = cer.allocate_object("x", 8, 8, false, None).unwrap();
    let b = gcc.allocate_object("x", 8, 8, false, None).unwrap();
    assert!(a.addr() > 0x8000_0000, "cerberus stack above INT_MAX");
    assert!(b.addr() < 0x8000_0000, "gcc stack below INT_MAX");
}

#[test]
fn representability_padding_for_large_allocations() {
    let mut m = reference();
    // Large enough that bounds need rounding: check base/size got padded so
    // the handed-out capability is exact.
    let size = (1u64 << 20) + 3;
    let p = m.allocate_region(size, 16).unwrap();
    assert!(p.cap.tag());
    assert_eq!(p.cap.bounds().base, p.addr(), "base is exactly aligned");
    assert!(p.cap.bounds().length() >= size, "bounds cover the request");
    assert_eq!(
        p.cap.bounds().length(),
        MorelloCap::representable_length(size),
        "bounds are padded to the representable length"
    );
    assert!(m.stats.padding_bytes > 0);
}

// ── Function allocations ─────────────────────────────────────────────────

#[test]
fn function_pointers_are_executable_not_writable() {
    let mut m = reference();
    let f = m
        .allocate_kind("f", 1, 1, AllocClass::Function, true, Some(&[0]))
        .unwrap();
    assert!(f.cap.perms().contains(cheri_cap::Perms::EXECUTE));
    assert!(!f.cap.perms().contains(cheri_cap::Perms::STORE));
    assert!(m.store_int(&f, 1, &IntVal::Num(0)).is_err());
}

// ── Ghost-state arithmetic values (§3.3 option (c)) ──────────────────────

#[test]
fn ghosted_value_store_load_roundtrips_but_access_is_ub() {
    // §3.3: values with ghost state may be stored and loaded (memcpy of
    // them must not be UB), but accessing memory via them is UB.
    let mut m = reference();
    let x = m.allocate_object("x", 8, 8, false, Some(&[0; 8])).unwrap();
    let slot = m.allocate_object("ip", 16, 16, false, None).unwrap();
    let ghosted = PtrVal::new(
        x.prov,
        x.cap
            .with_address(0x7fff_0000)
            .with_ghost(GhostState::UNSPECIFIED),
    );
    m.store_ptr(&slot, &ghosted).unwrap();
    let back = m.load_ptr(&slot).unwrap();
    assert!(back.cap.ghost().tag_unspecified);
    expect_ub(m.load_int(&back, 4, true, false), Ub::CheriUndefinedTag);
}

// ── Overlapping copies and iota resolution ───────────────────────────────

#[test]
fn overlapping_memcpy_is_memmove_safe() {
    // copy_bytes_raw snapshots the source first, so overlapping ranges
    // behave like memmove.
    let mut m = reference();
    let a = m.allocate_object("buf", 16, 1, false, Some(&[1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0])).unwrap();
    let dst = m.array_shift(&a, 1, 4).unwrap();
    m.memcpy(&dst, &a, 8).unwrap();
    // buf[4..12] == old buf[0..8]
    for (i, want) in [1u8, 2, 3, 4, 5, 6, 7, 8].iter().enumerate() {
        let p = m.array_shift(&a, 1, 4 + i as i64).unwrap();
        assert_eq!(m.load_int(&p, 1, false, false).unwrap().value(), i128::from(*want));
    }
}

#[test]
fn iota_resolves_on_first_use_and_stays_resolved() {
    let mut m = reference();
    let a = m.allocate_region(16, 16).unwrap();
    let b = m.allocate_region(16, 16).unwrap();
    if a.addr() + 16 != b.addr() {
        return; // no adjacency, nothing to disambiguate
    }
    m.store_int(&b, 4, &IntVal::Num(5)).unwrap();
    let _ = m.cast_ptr_to_int(&a, false, false, 8);
    let _ = m.cast_ptr_to_int(&b, false, false, 8);
    let amb = m.cast_int_to_ptr(&IntVal::Num(i128::from(b.addr())));
    assert!(matches!(amb.prov, Provenance::Iota(_)));
    // First access inside b's footprint resolves the iota to b…
    let with_cap = PtrVal::new(amb.prov, b.cap);
    assert_eq!(m.load_int(&with_cap, 4, true, false).unwrap().value(), 5);
    // …after which an access that only fits a is a provenance violation.
    let back_into_a = PtrVal::new(amb.prov, a.cap.with_address(a.addr()));
    expect_ub(m.load_int(&back_into_a, 4, true, false), Ub::AccessOutOfBounds);
}

// ── Revocation sweep: bounds-overlap, not base-membership (§7 + §3.2) ────

#[test]
fn revocation_sweeps_padded_capability_whose_base_escapes_the_freed_range() {
    use cheri_cap::{CcCap, CheriotProfile};
    type Cap = CcCap<CheriotProfile>;

    let mut m = CheriMemory::<Cap>::new(MemConfig::cheriot());
    // Shift the heap cursor so the victim's base is *not* aligned to the
    // CHERI-Concentrate granule of the capability crafted below.
    let _pad = m.allocate_region(16, 16).unwrap();
    let v = m.allocate_region(16, 16).unwrap();

    // Craft a tagged capability into `v` whose representability padding
    // pushed the decoded base BELOW the allocation base: exactly the shape
    // that escaped the old `base ∈ [lo, hi)` revocation filter.
    let mut escape: Option<Cap> = None;
    'search: for off in [4u64, 8, 12] {
        let mut len = 32u64;
        while len <= 1 << 24 {
            let c = Cap::root().with_bounds(v.addr() + off, len);
            if c.tag() && c.bounds().base < v.addr() {
                escape = Some(c);
                break 'search;
            }
            len *= 2;
        }
    }
    let escape = escape.expect("some length forces downward base padding");
    let b = escape.bounds();
    assert!(
        b.base < v.addr(),
        "premise: padding pushed the decoded base below the allocation"
    );
    assert!(
        b.top > u128::from(v.addr()),
        "premise: the footprint still overlaps the allocation"
    );

    let slot = m.allocate_object("slot", 8, 8, false, None).unwrap();
    m.store_ptr(&slot, &PtrVal::new(v.prov, escape)).unwrap();
    assert!(m.cap_meta_at(slot.addr()).tag);

    m.kill(&v, true).unwrap();
    assert!(
        !m.cap_meta_at(slot.addr()).tag,
        "overlap-based revocation must catch the padded capability"
    );
    assert!(m.stats.revoked_caps >= 1);

    // End to end: reloading and using the revoked pointer traps.
    let loaded = m.load_ptr(&slot).unwrap();
    assert!(!loaded.cap.tag());
    expect_trap(m.store_int(&loaded, 4, &IntVal::Num(1)), TrapKind::TagViolation);
}

#[test]
fn revocation_still_sweeps_exact_capability_to_freed_region() {
    use cheri_cap::{CcCap, CheriotProfile};
    type Cap = CcCap<CheriotProfile>;

    let mut m = CheriMemory::<Cap>::new(MemConfig::cheriot());
    let v = m.allocate_region(16, 16).unwrap();
    let slot = m.allocate_object("slot", 8, 8, false, None).unwrap();
    m.store_ptr(&slot, &v).unwrap();
    m.kill(&v, true).unwrap();
    assert!(!m.cap_meta_at(slot.addr()).tag);
    assert_eq!(m.stats.revoked_caps, 1);
    let loaded = m.load_ptr(&slot).unwrap();
    expect_trap(m.load_int(&loaded, 4, true, false), TrapKind::TagViolation);
}

#[test]
fn revocation_spares_capabilities_to_other_allocations() {
    use cheri_cap::{CcCap, CheriotProfile};
    type Cap = CcCap<CheriotProfile>;

    let mut m = CheriMemory::<Cap>::new(MemConfig::cheriot());
    let keep = m.allocate_region(16, 16).unwrap();
    let v = m.allocate_region(16, 16).unwrap();
    let slot = m.allocate_object("slot", 8, 8, false, None).unwrap();
    m.store_ptr(&slot, &keep).unwrap();
    m.kill(&v, true).unwrap();
    assert!(
        m.cap_meta_at(slot.addr()).tag,
        "capability to a live allocation must survive the sweep"
    );
    assert_eq!(m.stats.revoked_caps, 0);
}

// ── memcmp: abstract UB vs hardware stale-byte reads ─────────────────────

#[test]
fn memcmp_of_uninitialised_memory_diverges_by_profile() {
    // Abstract machine (cerberus): comparing uninitialised bytes is UB.
    let mut r = reference();
    let a = r.allocate_object("a", 8, 8, false, None).unwrap();
    let b = r.allocate_object("b", 8, 8, false, Some(&[0; 8])).unwrap();
    expect_ub(r.memcmp(&a, &b, 8), Ub::UninitialisedRead);

    // Hardware emulation: real memory has no "uninitialised" state; the
    // stale concrete bytes (deterministically 0 in our never-reused RAM)
    // are compared, matching the kill() stale-byte behaviour.
    let mut h = hardware();
    let a = h.allocate_object("a", 8, 8, false, None).unwrap();
    let b = h.allocate_object("b", 8, 8, false, Some(&[0; 8])).unwrap();
    assert_eq!(h.memcmp(&a, &b, 8).unwrap(), 0);
    let c = h
        .allocate_object("c", 8, 8, false, Some(&[1, 0, 0, 0, 0, 0, 0, 0]))
        .unwrap();
    assert_eq!(h.memcmp(&a, &c, 8).unwrap(), -1);
    assert_eq!(h.memcmp(&c, &a, 8).unwrap(), 1);
}

// ── ptr_diff: zero-sized element type is a loud failure ──────────────────

#[test]
fn ptr_diff_with_zero_sized_element_fails_loudly() {
    let mut m = reference();
    let a = m.allocate_object("arr", 16, 4, false, Some(&[0; 16])).unwrap();
    let p = m.array_shift(&a, 4, 2).unwrap();
    assert!(matches!(m.ptr_diff(&p, &a, 0), Err(MemError::Fail(_))));
    // Not gated on abstract_ub: an interpreter bug is loud in every profile.
    let mut h = hardware();
    let a = h.allocate_object("arr", 16, 4, false, Some(&[0; 16])).unwrap();
    assert!(matches!(h.ptr_diff(&a, &a, 0), Err(MemError::Fail(_))));
}

// ── memcpy tag transfer: misalignment, partial slots, overlap (§3.5) ─────

#[test]
fn misaligned_memcpy_does_not_transfer_tags() {
    let mut m = reference();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let p0 = m.allocate_object("src", 16, 16, false, None).unwrap();
    let p1 = m.allocate_object("dst", 32, 16, false, Some(&[0; 32])).unwrap();
    m.store_ptr(&p0, &x).unwrap();
    let dst = m.array_shift(&p1, 1, 4).unwrap();
    m.memcpy(&dst, &p0, 16).unwrap();
    // src % CAP_BYTES != dst % CAP_BYTES: no slot can move as one unit.
    assert!(!m.cap_meta_at(p1.addr()).tag);
    assert!(!m.cap_meta_at(p1.addr() + 16).tag);
    assert_eq!(m.tagged_caps_in_memory(), 1, "only the source tag survives");
}

#[test]
fn memcpy_partial_trailing_slot_does_not_transfer_tag() {
    let mut m = reference();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let b0 = m.allocate_object("src", 32, 16, false, Some(&[0; 32])).unwrap();
    let b1 = m.allocate_object("dst", 32, 16, false, Some(&[0; 32])).unwrap();
    let hi0 = m.array_shift(&b0, 1, 16).unwrap();
    m.store_ptr(&hi0, &x).unwrap(); // capability in the second slot of b0
    m.memcpy(&b1, &b0, 24).unwrap(); // slot 0 fully copied, slot 1 partially
    assert!(m.cap_meta_at(b0.addr() + 16).tag, "source stays tagged");
    assert!(
        !m.cap_meta_at(b1.addr() + 16).tag,
        "a partially copied slot must not carry the tag"
    );
    let hi1 = m.array_shift(&b1, 1, 16).unwrap();
    let loaded = m.load_ptr(&hi1).unwrap();
    assert!(!loaded.cap.tag());
}

#[test]
fn overlapping_forward_memcpy_moves_tag_with_the_bytes() {
    let mut m = reference();
    let x = m.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let buf = m.allocate_object("buf", 48, 16, false, Some(&[0; 48])).unwrap();
    m.store_ptr(&buf, &x).unwrap(); // capability at offset 0
    let fwd = m.array_shift(&buf, 1, 16).unwrap();
    m.memcpy(&fwd, &buf, 32).unwrap(); // [0,32) -> [16,48), overlapping
    // The slot below the destination range is untouched, and the capability
    // arrives intact at offset 16 (bytes are snapshotted first: memmove).
    assert!(m.cap_meta_at(buf.addr()).tag);
    assert!(m.cap_meta_at(buf.addr() + 16).tag);
    let at16 = m.load_ptr(&fwd).unwrap();
    assert!(at16.cap.tag());
    assert!(at16.cap.ghost().is_clean());
    m.store_int(&at16, 4, &IntVal::Num(7)).unwrap(); // still usable
}

#[test]
fn overlapping_backward_memcpy_invalidates_the_moved_tag() {
    // dst < src with overlap: the destination-range invalidation hits the
    // source slot *before* the tag transfer, so the moved capability comes
    // out ghost-invalidated (abstract) or untagged (hardware). This pins
    // that order so a change to the store cannot silently alter it.
    let mut r = reference();
    let x = r.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let buf = r.allocate_object("buf", 48, 16, false, Some(&[0; 48])).unwrap();
    let mid = r.array_shift(&buf, 1, 16).unwrap();
    r.store_ptr(&mid, &x).unwrap(); // capability at offset 16
    r.memcpy(&buf, &mid, 32).unwrap(); // [16,48) -> [0,32), overlapping
    let meta = r.cap_meta_at(buf.addr());
    assert!(meta.tag && meta.ghost.tag_unspecified);
    let loaded = r.load_ptr(&buf).unwrap();
    expect_ub(r.store_int(&loaded, 4, &IntVal::Num(1)), Ub::CheriUndefinedTag);

    let mut h = hardware();
    let x = h.allocate_object("x", 4, 4, false, Some(&[0; 4])).unwrap();
    let buf = h.allocate_object("buf", 48, 16, false, Some(&[0; 48])).unwrap();
    let mid = h.array_shift(&buf, 1, 16).unwrap();
    h.store_ptr(&mid, &x).unwrap();
    h.memcpy(&buf, &mid, 32).unwrap();
    assert!(!h.cap_meta_at(buf.addr()).tag, "hardware cleared the tag");
}

// ── The spill: bytes outside every reserved footprint ────────────────────

/// Without representability padding, CHERI-Concentrate rounds the bounds of
/// a 0x4321-byte allocation up to +0x4340 (§3.2), past its reserved
/// footprint, so checked accesses reach the gap behind it. This pins what
/// the store does there: the spill keeps those bytes and capability slots,
/// and an allocation placed over spilled bytes reads its own fresh buffer.
#[test]
fn unpadded_bounds_reach_the_spill() {
    let mut cfg = MemConfig::cheri_hardware(AddressLayout::clang_morello());
    cfg.pad_for_representability = false;
    let mut m = Mem::new(cfg);
    let p = m.allocate_region(0x4321, 16).unwrap();
    let top = p.cap.bounds().top - u128::from(p.addr());
    assert_eq!((m.allocations()[0].reserved_size, top), (0x4321, 0x4340));
    let at = |m: &mut Mem, off: i64| m.array_shift(&p, 1, off).unwrap();

    // A store wholly in the gap reads back.
    let gap = at(&mut m, 0x4325);
    m.store_int(&gap, 1, &IntVal::Num(77)).unwrap();
    assert_eq!(m.load_int(&gap, 1, false, false).unwrap().value(), 77);
    // One access across the reserved end: an allocation step, then a gap.
    let across = at(&mut m, 0x431f);
    m.store_int(&across, 4, &IntVal::Num(0x0403_0201)).unwrap();
    assert_eq!(
        m.load_int(&across, 4, false, false).unwrap().value(),
        0x0403_0201
    );

    // A byte spilled at +0x4334 is shadowed once the next heap allocation
    // lands on +0x4330: reads there see that allocation's fresh buffer,
    // while the gap below it keeps its byte.
    let shadowed = at(&mut m, 0x4334);
    m.store_int(&shadowed, 1, &IntVal::Num(77)).unwrap();
    let next = m.allocate_region(16, 16).unwrap();
    assert_eq!(next.addr(), p.addr() + 0x4330);
    expect_ub(
        m.load_int(&shadowed, 1, false, false),
        Ub::UninitialisedRead,
    );
    assert_eq!(m.load_int(&gap, 1, false, false).unwrap().value(), 77);

    // A capability in the slot at +0x4320, whose last 15 bytes are in the
    // gap: its metadata lives in the spill, keeps its tag and is counted.
    let slot = at(&mut m, 0x4320);
    let x = m
        .allocate_object("x", 16, 16, false, Some(&[0; 16]))
        .unwrap();
    m.store_ptr(&slot, &x).unwrap();
    assert!(m.cap_meta_at(slot.addr()).tag);
    assert_eq!(m.tagged_caps_in_memory(), 1);
    let back = m.load_ptr(&slot).unwrap();
    assert!(back.cap.tag() && back.cap.exact_eq(&x.cap));
    assert_eq!(back.prov, x.prov);
}

/// A root-bounded pointer with empty provenance (what `cheri_ddc_get()`
/// yields) reaches the last bytes of the address space under a hardware
/// profile: a `memcpy` of a tagged capability into the last slot keeps
/// its tag, and a one-byte store that ends at 2^64 invalidates it.
#[test]
fn the_spill_reaches_the_top_of_the_address_space() {
    let mut m = hardware();
    let top = |addr: u64| PtrVal::new(Provenance::Empty, MorelloCap::root().with_address(addr));
    let x = m
        .allocate_object("x", 16, 16, false, Some(&[0; 16]))
        .unwrap();
    let cell = m.allocate_object("cell", 16, 16, false, None).unwrap();
    m.store_ptr(&cell, &x).unwrap();
    let slot = top(u64::MAX - 15);
    m.memcpy(&slot, &cell, 16).unwrap();
    assert!(m.cap_meta_at(slot.addr()).tag);
    assert_eq!(m.memcmp(&slot, &cell, 16).unwrap(), 0);
    let back = m.load_ptr(&slot).unwrap();
    assert!(back.cap.tag() && back.cap.exact_eq(&x.cap));
    m.store_int(&top(u64::MAX), 1, &IntVal::Num(1)).unwrap();
    assert!(!m.cap_meta_at(slot.addr()).tag);
    assert_eq!(
        m.load_int(&top(u64::MAX), 1, false, false).unwrap().value(),
        1
    );
    assert_eq!(m.stats.tag_clears, 1);
}
