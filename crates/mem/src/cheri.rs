//! The CHERI C memory object model (§4.3 of the paper).
//!
//! The state is the paper's `mem_state ≜ A × S × M` with `M ≜ B × C`:
//! allocations, PNVI-ae-udi provenance bookkeeping, the byte store `B` of
//! [`AbsByte`]s, and the capability-metadata dictionary `C`. All operations
//! are methods on [`CheriMemory`] returning [`MemResult`] — the Rust
//! rendering of the paper's `memM` state-and-error monad.
//!
//! `B` and `C` are rendered as one store: a contiguous `Vec<AbsByte>`
//! buffer plus a packed capability-slot bitset per allocation, and a
//! sparse *spill* for the addresses between the pairwise disjoint reserved
//! footprints (see [`CheriMemory`]'s `spill` field). An access reaches its
//! allocation through the pointer's provenance, which the access check
//! resolves anyway; a sorted interval index over the reserved footprints
//! serves the accesses provenance does not place (see "Byte-level
//! helpers" below).
//!
//! The same type also serves as the *baseline* ISO C PNVI-ae-udi concrete
//! model (§2.3) when constructed with `capabilities = false`, and as the
//! hardware-emulation model for the implementation-comparison profiles when
//! constructed with `abstract_ub = false` (capability traps only, no
//! abstract UB detection) — see [`MemConfig`].

use std::collections::BTreeMap;

use cheri_cap::{Capability, GhostState, Perms};

/// Largest scalar access (bytes) served from a stack buffer on the
/// load/store hot path; covers every capability representation
/// (`C::CAP_BYTES` is at most 16). Larger windows fall back to a heap
/// `Vec`.
const SCALAR_BUF: usize = 16;
use cheri_obs::{
    AllocClass, MemEvent, Name, SinkHandle, TagClearReason, VecSink, TAG_CLEAR_REASONS,
};

use crate::absbyte::{recover_provenance, AbsByte};
use crate::allocation::Allocation;
use crate::capmeta::{CapMeta, CapSlotBits, SlotMeta, TagInvalidation};
use crate::index::{Footprint, Index};
use crate::layout::AddressLayout;
use crate::provenance::{AllocId, IotaId, IotaState, Provenance};
use crate::ub::{MemError, MemResult, TrapKind, Ub};
use crate::value::{IntVal, PtrVal};

/// Configuration of a memory-model instance.
#[derive(Clone, Copy, Debug)]
pub struct MemConfig {
    /// `true`: the CHERI C model (pointers are capabilities, architectural
    /// checks on every access). `false`: the baseline PNVI-ae-udi concrete
    /// model with machine-word pointers.
    pub capabilities: bool,
    /// `true`: abstract-machine semantics — provenance/liveness/ISO checks
    /// are performed and failures are reported as UB. `false`: hardware
    /// emulation — only the architectural capability checks run, failing
    /// with [`MemError::Trap`].
    pub abstract_ub: bool,
    /// How non-capability writes invalidate overlapping capabilities.
    pub tag_invalidation: TagInvalidation,
    /// Allocator address layout.
    pub layout: AddressLayout,
    /// Pad and align allocations so their capabilities are exactly
    /// representable (§3.2: "allocators need to use additional padding
    /// and/or alignment").
    pub pad_for_representability: bool,
    /// Capability revocation on free (§5.4/§7: CHERIoT-style temporal
    /// safety / Cornucopia): ending a heap allocation's lifetime sweeps
    /// memory and clears the tag of every stored capability whose bounds
    /// overlap the freed region, so even the hardware-only profiles
    /// catch use-after-free through reloaded pointers.
    pub revocation: bool,
}

impl MemConfig {
    /// The reference (Cerberus-like) CHERI C abstract machine.
    #[must_use]
    pub fn cheri_reference() -> Self {
        MemConfig {
            capabilities: true,
            abstract_ub: true,
            tag_invalidation: TagInvalidation::Ghost,
            layout: AddressLayout::cerberus(),
            pad_for_representability: true,
            revocation: false,
        }
    }

    /// A CHERI hardware implementation (capability traps, no abstract UB),
    /// with the given allocator layout.
    #[must_use]
    pub fn cheri_hardware(layout: AddressLayout) -> Self {
        MemConfig {
            capabilities: true,
            abstract_ub: false,
            tag_invalidation: TagInvalidation::Clear,
            layout,
            pad_for_representability: true,
            revocation: false,
        }
    }

    /// A CHERIoT-style configuration: hardware checking plus revocation on
    /// free (§5.4: "CHERIoT provides additional temporal guarantees").
    #[must_use]
    pub fn cheriot() -> Self {
        MemConfig {
            capabilities: true,
            abstract_ub: false,
            tag_invalidation: TagInvalidation::Clear,
            layout: AddressLayout::embedded32(),
            pad_for_representability: true,
            revocation: true,
        }
    }

    /// The baseline ISO C concrete model (PNVI-ae-udi, no capabilities).
    #[must_use]
    pub fn iso_baseline() -> Self {
        MemConfig {
            capabilities: false,
            abstract_ub: true,
            tag_invalidation: TagInvalidation::Ghost,
            layout: AddressLayout::cerberus(),
            pad_for_representability: false,
            revocation: false,
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::cheri_reference()
    }
}

/// Operation counters, for the benchmark harness and `cheri-c --stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Number of scalar loads performed.
    pub loads: u64,
    /// Number of scalar stores performed.
    pub stores: u64,
    /// Number of allocations created.
    pub allocations: u64,
    /// Number of capability-representability checks performed.
    pub representability_checks: u64,
    /// Bytes wasted to representability padding (§3.2).
    pub padding_bytes: u64,
    /// Number of stored capabilities whose tag a revocation sweep cleared
    /// (§7 temporal-safety extension).
    pub revoked_caps: u64,
    /// Number of allocation lifetime ends (scope exits and `free`).
    pub frees: u64,
    /// Total bytes moved by `memcpy`/`memmove`.
    pub memcpy_bytes: u64,
    /// Total capability slots whose tag was cleared or marked unspecified
    /// (sum over all reasons, including revocation).
    pub tag_clears: u64,
    /// `tag_clears` broken down by [`TagClearReason`], indexed by
    /// `TagClearReason::code()`.
    pub tag_clears_by_reason: [u64; TAG_CLEAR_REASONS],
}

/// Which kind of access a check is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Access {
    Load,
    Store,
}

/// The position of allocation `id` in `CheriMemory::allocations`: IDs
/// are dense from 1, so it is `id - 1`.
#[inline]
fn pos(id: AllocId) -> usize {
    (id.0 - 1) as usize
}

/// Does `a`'s reserved footprint hold `[addr, addr + size)`?
#[inline]
fn reserved_holds(a: &Allocation, addr: u64, size: u64) -> bool {
    addr >= a.base && size <= a.reserved_size && addr - a.base <= a.reserved_size - size
}

/// One step of a [`walk`]: the `len` bytes from `at` bytes into the walked
/// range lie in one allocation's buffer, or in a gap between reserved
/// footprints when `alloc` is `None`. `alloc` is `(i, off)`: position `i`
/// in `CheriMemory::allocations` and offset `off` into its buffer.
#[derive(Clone, Copy)]
struct Step {
    at: usize,
    len: usize,
    alloc: Option<(usize, usize)>,
}

/// The one walk over the interval index: `[addr, addr + n)` as allocation
/// segments and gaps, in address order, at one lookup per step. A gap
/// ends at the next allocation of any region. It borrows only the index,
/// so its caller may write the allocation buffers and the spill it
/// visits. It counts bytes, not addresses: a range may end at 2^64.
#[inline]
fn walk(index: &Index, addr: u64, n: usize) -> impl Iterator<Item = Step> + '_ {
    let mut at = 0;
    std::iter::from_fn(move || {
        if at >= n {
            return None;
        }
        let cur = addr + at as u64;
        let left = (n - at) as u64;
        let (len, alloc) = match index.find(cur) {
            Some(f) => (
                (f.end - cur).min(left),
                Some((pos(f.id), (cur - f.base) as usize)),
            ),
            None => (
                index.next_base(cur).map_or(left, |b| (b - cur).min(left)),
                None,
            ),
        };
        let step = Step {
            at,
            len: len as usize,
            alloc,
        };
        at += len as usize;
        Some(step)
    })
}

/// What a write puts into `B`.
#[derive(Clone, Copy)]
enum Bytes<'a> {
    /// Abstract bytes verbatim (provenance and copy indices intact).
    Abs(&'a [AbsByte]),
    /// Plain data bytes.
    Data(&'a [u8]),
    /// `n` copies of one plain data byte (`memset`).
    Fill(u8, usize),
}

impl Bytes<'_> {
    #[inline]
    fn len(self) -> usize {
        match self {
            Bytes::Abs(b) => b.len(),
            Bytes::Data(b) => b.len(),
            Bytes::Fill(_, n) => n,
        }
    }

    /// Byte `i`.
    #[inline]
    fn get(self, i: usize) -> AbsByte {
        match self {
            Bytes::Abs(b) => b[i],
            Bytes::Data(b) => AbsByte::data(b[i]),
            Bytes::Fill(v, _) => AbsByte::data(v),
        }
    }

    /// Bytes `at..at + dst.len()`, into `dst`.
    #[inline]
    fn put(self, at: usize, dst: &mut [AbsByte]) {
        match self {
            Bytes::Abs(b) => dst.copy_from_slice(&b[at..at + dst.len()]),
            Bytes::Data(b) => {
                for (d, v) in dst.iter_mut().zip(&b[at..]) {
                    *d = AbsByte::data(*v);
                }
            }
            Bytes::Fill(v, _) => dst.fill(AbsByte::data(v)),
        }
    }
}

/// Put bytes `at..at + len` of `bytes` into allocation `a`'s buffer at
/// offset `off`. With `invalidate`, this is a non-capability write
/// (§4.3): it also invalidates every `cb`-byte capability slot of `a` the
/// bytes touch, and returns how many of them were tagged or had a ghost
/// bit set.
#[inline]
fn put_segment(
    a: &mut Allocation,
    off: usize,
    bytes: Bytes<'_>,
    at: usize,
    len: usize,
    invalidate: Option<(TagInvalidation, u64)>,
) -> usize {
    bytes.put(at, &mut a.buf[off..off + len]);
    let Some((mode, cb)) = invalidate else {
        return 0;
    };
    let lo = (a.base + off as u64) & !(cb - 1);
    let hi = a.base + (off + len) as u64;
    a.invalidate_slots(lo, hi, cb, mode)
}

/// `memcmp` over two read-back ranges of equal length; see
/// [`CheriMemory::memcmp`].
fn compare_bytes(a: &[AbsByte], b: &[AbsByte], abstract_ub: bool) -> MemResult<i32> {
    for (x, y) in a.iter().zip(b) {
        let (x, y) = if abstract_ub {
            match (x.value(), y.value()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(MemError::ub(
                        Ub::UninitialisedRead,
                        "memcmp of uninitialised bytes",
                    ))
                }
            }
        } else {
            (x.concrete(), y.concrete())
        };
        if x != y {
            return Ok(if x < y { -1 } else { 1 });
        }
    }
    Ok(0)
}

/// The memory object model.
///
/// # Example
///
/// ```
/// use cheri_cap::MorelloCap;
/// use cheri_mem::{CheriMemory, MemConfig, IntVal};
///
/// let mut mem = CheriMemory::<MorelloCap>::new(MemConfig::cheri_reference());
/// let p = mem.allocate_object("x", 4, 4, false, None).unwrap();
/// mem.store_int(&p, 4, &IntVal::Num(42)).unwrap();
/// assert_eq!(mem.load_int(&p, 4, true, false).unwrap().value(), 42);
///
/// // One-past construction is fine; accessing through it is UB.
/// let q = mem.array_shift(&p, 4, 1).unwrap();
/// assert!(mem.load_int(&q, 4, true, false).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct CheriMemory<C: Capability> {
    cfg: MemConfig,
    /// Every allocation ever created, in ID order. IDs are dense (a
    /// counter starting at 1, never reused) and dead allocations are kept
    /// for diagnostics, so the "map" is a plain vector indexed by
    /// `id - 1` — O(1) resolution on the access hot path.
    allocations: Vec<Allocation>,
    next_alloc: u64,
    iotas: BTreeMap<IotaId, IotaState>,
    next_iota: u64,
    /// Interval index over *reserved* allocation footprints, one
    /// append-only run per region (see [`Index`]): a new allocation is a
    /// push, and a lookup a binary search in one run. It serves the byte
    /// and capability-slot traffic that provenance does not place in an
    /// allocation, and the integer-to-pointer provenance lookup.
    index: Index,
    /// The bytes of `B` that lie *outside* every allocation's reserved
    /// footprint. Two kinds of pointer reach them. Under every hardware
    /// profile, a pointer derived from `cheri_ddc_get()` carries root
    /// bounds and empty provenance, so it can access any address. And
    /// with `pad_for_representability` off, CHERI-Concentrate rounds an
    /// allocation's bounds up past its footprint (§3.2), so a checked
    /// access may land in the gap. The spill keeps `B` total there, so
    /// what such a store wrote reads back. Nothing bounds its size. An
    /// allocation placed over spilled bytes later reads its own fresh
    /// (uninitialised) buffer instead.
    spill: BTreeMap<u64, AbsByte>,
    /// The `C` entries for slots whose footprint is not fully inside one
    /// allocation's reserved footprint (reached the same way as `spill`).
    spill_caps: CapMeta,
    stack_ptr: u64,
    heap_ptr: u64,
    globals_ptr: u64,
    /// Operation counters.
    pub stats: MemStats,
    /// Event-sink slot: when empty, emitting costs one branch and events
    /// are never constructed (`cheri-obs`' zero-cost-when-off contract).
    sink: SinkHandle,
    /// Allocation byte buffers harvested by [`CheriMemory::reset`] and
    /// reused by subsequent allocations, so a long-lived instance (one
    /// batch-service worker) stops paying a heap allocation per program
    /// object. Buffer identity is not observable: a recycled buffer is
    /// cleared and refilled with `UNINIT` exactly like a fresh one.
    recycle: Vec<Vec<AbsByte>>,
    /// The bytes a `memcpy` is moving or a `memcmp` is comparing, reused
    /// across calls so that neither allocates.
    scratch: Vec<AbsByte>,
    _cap: std::marker::PhantomData<C>,
}

/// Cap on the number of byte buffers [`CheriMemory::reset`] keeps for
/// reuse; beyond it, buffers are dropped like in a single-shot run.
const RECYCLE_POOL_CAP: usize = 256;

impl<C: Capability> CheriMemory<C> {
    /// Create an empty memory with the given configuration.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        CheriMemory {
            cfg,
            allocations: Vec::new(),
            // Allocation IDs start above the IDs the runtime start-up would
            // consume in Cerberus; cosmetic only.
            next_alloc: 1,
            iotas: BTreeMap::new(),
            next_iota: 0,
            index: Index::new(),
            spill: BTreeMap::new(),
            spill_caps: CapMeta::new(),
            stack_ptr: cfg.layout.stack_base,
            heap_ptr: cfg.layout.heap_base,
            globals_ptr: cfg.layout.globals_base,
            stats: MemStats::default(),
            sink: SinkHandle::none(),
            recycle: Vec::new(),
            scratch: Vec::new(),
            _cap: std::marker::PhantomData,
        }
    }

    /// Reset this instance to the pristine state of [`CheriMemory::new`]
    /// under `cfg` — same observable behaviour, but the allocation byte
    /// buffers of the previous run are kept (capacity-preserving) and
    /// reused by future allocations. A long-lived caller executing many
    /// programs (the `cheri-serve` batch workers) resets one arena per
    /// worker instead of reallocating a world per job.
    ///
    /// Any installed event sink is removed (and dropped): a recycled
    /// memory must not leak one job's trace into the next.
    pub fn reset(&mut self, cfg: MemConfig) {
        for a in &mut self.allocations {
            let buf = std::mem::take(&mut a.buf);
            if buf.capacity() > 0 && self.recycle.len() < RECYCLE_POOL_CAP {
                self.recycle.push(buf);
            }
        }
        self.allocations.clear();
        self.next_alloc = 1;
        self.iotas.clear();
        self.next_iota = 0;
        self.index.clear();
        self.spill.clear();
        self.spill_caps = CapMeta::new();
        self.cfg = cfg;
        self.stack_ptr = cfg.layout.stack_base;
        self.heap_ptr = cfg.layout.heap_base;
        self.globals_ptr = cfg.layout.globals_base;
        self.stats = MemStats::default();
        self.sink = SinkHandle::none();
    }

    /// A zeroed (`UNINIT`-filled) byte buffer of length `len`, drawn from
    /// the recycle pool when a buffer with enough capacity is available.
    fn uninit_buf(&mut self, len: usize) -> Vec<AbsByte> {
        if let Some(i) = self.recycle.iter().position(|b| b.capacity() >= len) {
            let mut buf = self.recycle.swap_remove(i);
            buf.clear();
            buf.resize(len, AbsByte::UNINIT);
            return buf;
        }
        vec![AbsByte::UNINIT; len]
    }

    /// Enable memory-event tracing: every observable action is recorded as
    /// a typed [`MemEvent`] in a [`VecSink`]. Supports using the executable
    /// semantics as a test oracle (§7 of the paper).
    pub fn enable_trace(&mut self) {
        self.sink.install(Box::new(VecSink::new()));
    }

    /// Take the recorded trace rendered as the legacy text lines (the
    /// historical `--trace` format, byte for byte), leaving tracing
    /// enabled. Empty if no [`VecSink`] is installed.
    pub fn take_trace(&mut self) -> Vec<String> {
        cheri_obs::render::legacy_lines(&self.take_events())
    }

    /// Take the recorded typed events, leaving tracing enabled. Empty if
    /// no [`VecSink`] is installed.
    pub fn take_events(&mut self) -> Vec<MemEvent> {
        match self.sink.downcast_mut::<VecSink>() {
            Some(v) => std::mem::take(&mut v.events),
            None => Vec::new(),
        }
    }

    /// Is an event sink installed?
    #[must_use]
    pub fn sink_active(&self) -> bool {
        self.sink.is_active()
    }

    /// Emit an event into the installed sink, if any. The closure runs only
    /// when a sink is installed — this is the zero-cost-when-off path.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> MemEvent) {
        self.sink.emit_with(f);
    }

    /// The configuration this instance runs with.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Size in bytes of a stored pointer in this model (capability size, or
    /// machine-word size for the baseline model).
    #[must_use]
    pub fn pointer_bytes(&self) -> usize {
        if self.cfg.capabilities {
            C::CAP_BYTES
        } else {
            (C::ADDR_BITS / 8) as usize
        }
    }

    // ── Allocation ───────────────────────────────────────────────────────

    fn fresh_alloc_id(&mut self) -> AllocId {
        let id = AllocId(self.next_alloc);
        self.next_alloc += 1;
        id
    }

    /// Allocation lookup by ID (IDs index the dense vector at `id - 1`).
    #[inline]
    fn alloc_ref(&self, id: AllocId) -> Option<&Allocation> {
        self.allocations.get(id.0.checked_sub(1)? as usize)
    }

    /// Mutable counterpart of [`CheriMemory::alloc_ref`].
    #[inline]
    fn alloc_mut(&mut self, id: AllocId) -> Option<&mut Allocation> {
        self.allocations.get_mut(id.0.checked_sub(1)? as usize)
    }

    /// Compute the address for a new allocation of `size` bytes with
    /// `align` alignment in the region for `kind`.
    fn place(&mut self, size: u64, align: u64, kind: AllocClass) -> MemResult<u64> {
        let align = align.max(1);
        match kind {
            AllocClass::Auto => {
                let base = self
                    .stack_ptr
                    .checked_sub(size)
                    .map(|a| a & !(align - 1))
                    .ok_or_else(|| MemError::Fail("stack exhausted".into()))?;
                if base < self.cfg.layout.stack_limit {
                    return Err(MemError::Fail("stack exhausted".into()));
                }
                self.stack_ptr = base;
                Ok(base)
            }
            AllocClass::Heap => {
                let base = (self.heap_ptr + align - 1) & !(align - 1);
                let end = base
                    .checked_add(size)
                    .ok_or_else(|| MemError::Fail("heap exhausted".into()))?;
                if end > self.cfg.layout.heap_limit {
                    return Err(MemError::Fail("heap exhausted".into()));
                }
                self.heap_ptr = end;
                Ok(base)
            }
            AllocClass::Static | AllocClass::Function | AllocClass::StringLiteral => {
                let base = (self.globals_ptr + align - 1) & !(align - 1);
                let end = base
                    .checked_add(size)
                    .ok_or_else(|| MemError::Fail("globals exhausted".into()))?;
                if end > self.cfg.layout.globals_limit {
                    return Err(MemError::Fail("globals region exhausted".into()));
                }
                self.globals_ptr = end;
                Ok(base)
            }
        }
    }

    /// Derive the capability handed out for a fresh allocation: bounds
    /// narrowed to the footprint, data permissions (read-only for `const`
    /// objects, §3.9; execute for functions).
    fn allocation_cap(&self, base: u64, size: u64, kind: AllocClass, readonly: bool) -> C {
        if !self.cfg.capabilities {
            // Baseline model: pointers are plain addresses; keep a root
            // capability around purely as the address carrier.
            return C::root().with_address(base);
        }
        let perms = match kind {
            AllocClass::Function => Perms::code(),
            AllocClass::StringLiteral => Perms::data_readonly(),
            _ if readonly => Perms::data_readonly(),
            _ => Perms::data(),
        };
        C::root()
            .with_bounds(base, size)
            .with_perms_and(perms)
            .with_address(base)
    }

    /// Allocate an object (local or global variable, function, or string
    /// literal) and return a pointer to it. `init` optionally provides the
    /// initial byte contents; otherwise the object is uninitialised.
    ///
    /// # Errors
    ///
    /// Fails (not UB) when the address space region is exhausted.
    pub fn allocate_object(
        &mut self,
        prefix: &str,
        size: u64,
        align: u64,
        readonly: bool,
        init: Option<&[u8]>,
    ) -> MemResult<PtrVal<C>> {
        self.allocate_kind(prefix, size, align, AllocClass::Auto, readonly, init)
    }

    /// Allocate with an explicit [`AllocClass`].
    ///
    /// # Errors
    ///
    /// Fails (not UB) when the address space region is exhausted.
    pub fn allocate_kind(
        &mut self,
        prefix: &str,
        size: u64,
        align: u64,
        kind: AllocClass,
        readonly: bool,
        init: Option<&[u8]>,
    ) -> MemResult<PtrVal<C>> {
        let (align, reserved) = if self.cfg.capabilities && self.cfg.pad_for_representability {
            let mask = C::representable_alignment_mask(size);
            let repr_align = (!mask).wrapping_add(1).max(1);
            let reserved = C::representable_length(size).max(size.max(1));
            self.stats.padding_bytes += reserved - size;
            self.emit(|| MemEvent::RepCheck {
                size,
                reserved,
                padded: reserved != size,
            });
            (align.max(repr_align), reserved)
        } else {
            (align, size.max(1))
        };
        let base = self.place(reserved, align, kind)?;
        let id = self.fresh_alloc_id();
        let cb = C::CAP_BYTES as u64;
        // First capability-aligned address at or above `base`.
        let first_slot = (base.wrapping_add(cb - 1)) & !(cb - 1);
        let n_slots = Allocation::slot_count(base, reserved, first_slot, cb);
        let mut buf = self.uninit_buf(reserved as usize);
        if let Some(init) = init {
            debug_assert_eq!(init.len() as u64, size);
            for (o, b) in buf.iter_mut().zip(init) {
                *o = AbsByte::data(*b);
            }
        }
        debug_assert_eq!(self.allocations.len() as u64 + 1, id.0);
        self.allocations.push(
            Allocation {
                id,
                base,
                size,
                reserved_size: reserved,
                align,
                kind,
                alive: true,
                exposed: false,
                readonly: readonly || kind.inherently_readonly(),
                prefix: Name::new(prefix),
                buf,
                slots: CapSlotBits::new(n_slots),
                first_slot,
            },
        );
        self.index.push(
            kind,
            Footprint {
                base,
                end: base + reserved,
                id,
            },
        );
        self.stats.allocations += 1;
        self.emit(|| MemEvent::Alloc {
            id: id.0,
            base,
            size,
            kind,
            name: Name::new(prefix),
        });
        let cap = self.allocation_cap(base, size, kind, readonly);
        Ok(PtrVal::new(Provenance::Alloc(id), cap))
    }

    /// `malloc`: allocate a dynamic region.
    ///
    /// # Errors
    ///
    /// Fails (not UB) when the heap is exhausted.
    pub fn allocate_region(&mut self, size: u64, align: u64) -> MemResult<PtrVal<C>> {
        self.allocate_kind("malloc", size, align.max(16), AllocClass::Heap, false, None)
    }

    /// End the lifetime of an allocation. `dynamic` selects `free` semantics
    /// (heap region, pointer must be the start) vs. automatic end-of-scope.
    ///
    /// # Errors
    ///
    /// UB per ISO C: freeing an invalid pointer, double free, freeing a
    /// pointer that is not the start of a heap allocation.
    pub fn kill(&mut self, p: &PtrVal<C>, dynamic: bool) -> MemResult<()> {
        if dynamic && p.is_null() {
            return Ok(()); // free(NULL) is a no-op
        }
        let id = match self.resolve_prov(&p.prov, p.addr(), 0)? {
            Some(id) => id,
            None => {
                return Err(MemError::ub(
                    Ub::FreeInvalidPointer,
                    format!("no provenance for {:#x}", p.addr()),
                ))
            }
        };
        let alloc = self
            .alloc_ref(id)
            .ok_or_else(|| MemError::ub(Ub::FreeInvalidPointer, "unknown allocation"))?;
        if !alloc.alive {
            return Err(MemError::ub(
                Ub::DoubleFree,
                format!("{} ({})", id, alloc.prefix),
            ));
        }
        if dynamic {
            if alloc.kind != AllocClass::Heap || p.addr() != alloc.base {
                return Err(MemError::ub(
                    Ub::FreeInvalidPointer,
                    format!("{:#x} is not the start of a heap allocation", p.addr()),
                ));
            }
            if self.cfg.capabilities && !p.cap.tag() {
                return Err(self.cap_fail(
                    Ub::CheriInvalidCap,
                    TrapKind::TagViolation,
                    "free via untagged capability",
                ));
            }
        }
        let (base, end) = (alloc.base, alloc.base + alloc.reserved_size);
        self.stats.frees += 1;
        self.emit(|| MemEvent::Free {
            id: id.0,
            base,
            end,
            dynamic,
        });
        // Field-indexing (not `alloc_mut`) keeps the borrow on
        // `self.allocations` alone so `self.cfg`/`self.spill_caps` stay usable.
        let alloc = &mut self.allocations[pos(id)];
        alloc.alive = false;
        if self.cfg.abstract_ub {
            // Abstract machine: the contents become indeterminate when the
            // lifetime ends.
            alloc.buf.fill(AbsByte::UNINIT);
            alloc.slots.clear_all();
            // A slot whose footprint crosses the reserved end lives in the
            // spill; forget it with the rest of the allocation's slots.
            self.spill_caps.clear_range(base, end);
        }
        // Hardware emulation keeps the stale bytes: freed memory reads back
        // its old contents until reused — which is exactly the §3.11
        // temporal-safety gap the test suite demonstrates.
        if self.cfg.revocation && dynamic {
            // Heap revocation (Cornucopia revokes heap capabilities).
            self.revoke_range(base, end);
        }
        Ok(())
    }

    /// Revocation sweep (§7 temporal-safety extension): clear the tag of
    /// every capability stored anywhere in memory whose decoded bounds
    /// *overlap* `[lo, hi)`. This models a Cornucopia/CHERIoT-style revoker;
    /// capabilities held only in registers are swept at the next epoch on
    /// real systems — here every C object lives in memory, so the sweep is
    /// complete.
    ///
    /// The overlap test — not "decoded base inside the freed range" — is
    /// essential: CHERI-Concentrate representability padding (§3.2) can
    /// round a derived capability's base *below* the freed allocation's
    /// base, and a capability spanning several objects starts before the
    /// freed one. Either way its footprint still covers freed memory, so a
    /// base-membership test would let it escape the sweep and stay usable
    /// after `free`.
    fn revoke_range(&mut self, lo: u64, hi: u64) {
        let cleared = self.revoke_range_sweep(lo, hi);
        if cleared > 0 {
            self.stats.revoked_caps += cleared;
            self.stats.tag_clears += cleared;
            self.stats.tag_clears_by_reason[TagClearReason::Revoked.code() as usize] += cleared;
        }
        self.emit(|| MemEvent::Revoke {
            base: lo,
            end: hi,
            cleared,
        });
    }

    /// The sweep itself; returns the number of tags it cleared.
    fn revoke_range_sweep(&mut self, lo: u64, hi: u64) -> u64 {
        let cb = C::CAP_BYTES;
        // Does the tagged capability stored as `bytes` overlap `[lo, hi)`?
        let revokes = |bytes: &[AbsByte]| {
            let mut raw = [0u8; SCALAR_BUF];
            for (r, b) in raw.iter_mut().zip(bytes) {
                *r = b.concrete();
            }
            C::decode(&raw[..cb], true).is_some_and(|cap| {
                let b = cap.bounds();
                b.base < hi && b.top > u128::from(lo)
            })
        };
        let untag = |m: SlotMeta| SlotMeta {
            tag: false,
            ghost: m.ghost,
        };
        let mut cleared = 0;
        // Only tagged slots are visited, per allocation.
        for a in &mut self.allocations {
            let slot0 = a.first_slot.wrapping_sub(a.base) as usize;
            let hits: Vec<usize> = a
                .slots
                .tagged_indices()
                .filter(|k| revokes(&a.buf[slot0 + k * cb..][..cb]))
                .collect();
            cleared += hits.len() as u64;
            for k in hits {
                a.slots.set(k, untag(a.slots.get(k)));
            }
        }
        // Capabilities stored outside every allocation footprint (spill).
        for slot in self.spill_caps.tagged_addrs() {
            let mut bytes = [AbsByte::UNINIT; SCALAR_BUF];
            self.read_bytes_into(None, slot, &mut bytes[..cb]);
            if revokes(&bytes[..cb]) {
                cleared += 1;
                self.spill_caps.set(slot, untag(self.spill_caps.get(slot)));
            }
        }
        cleared
    }

    /// `realloc`: allocate a new region, copy contents, free the old one.
    ///
    /// # Errors
    ///
    /// UB on an invalid old pointer; fails when the heap is exhausted.
    pub fn reallocate(&mut self, old: &PtrVal<C>, new_size: u64) -> MemResult<PtrVal<C>> {
        if old.is_null() {
            return self.allocate_region(new_size, 16);
        }
        let id = self
            .resolve_prov(&old.prov, old.addr(), 0)?
            .ok_or_else(|| MemError::ub(Ub::FreeInvalidPointer, "realloc of unknown pointer"))?;
        let (old_base, old_size, alive, kind) = {
            let a = self.alloc_ref(id).expect("indexed allocation");
            (a.base, a.size, a.alive, a.kind)
        };
        if !alive {
            return Err(MemError::ub(Ub::DoubleFree, "realloc of freed pointer"));
        }
        if kind != AllocClass::Heap || old.addr() != old_base {
            return Err(MemError::ub(
                Ub::FreeInvalidPointer,
                "realloc of a non-heap pointer",
            ));
        }
        let new = self.allocate_region(new_size, 16)?;
        let n = old_size.min(new_size);
        // Both ranges lie inside their allocations' requested footprints.
        let new_pos = self.allocations.len() - 1;
        self.copy_bytes_raw(Some(pos(id)), old_base, Some(new_pos), new.addr(), n);
        self.kill(old, true)?;
        Ok(new)
    }

    // ── Provenance ───────────────────────────────────────────────────────

    /// Mark the allocation identified by `prov` as exposed (PNVI-ae).
    pub fn expose(&mut self, prov: Provenance) {
        if let Provenance::Alloc(id) = prov {
            if let Some(a) = self.alloc_mut(id) {
                a.exposed = true;
            }
        }
    }

    /// Resolve a provenance to an allocation ID, resolving iotas against the
    /// access footprint `[addr, addr+size)` (PNVI-ae-udi user
    /// disambiguation).
    fn resolve_prov(
        &mut self,
        prov: &Provenance,
        addr: u64,
        size: u64,
    ) -> MemResult<Option<AllocId>> {
        match *prov {
            Provenance::Empty => Ok(None),
            Provenance::Alloc(id) => Ok(Some(id)),
            Provenance::Iota(iota) => {
                let state = *self
                    .iotas
                    .get(&iota)
                    .ok_or_else(|| MemError::Fail(format!("unknown iota {iota}")))?;
                match state {
                    IotaState::Resolved(id) => Ok(Some(id)),
                    IotaState::Ambiguous(a, b) => {
                        let fits = |id: AllocId, this: &Self| {
                            this.alloc_ref(id)
                                .is_some_and(|al| al.alive && al.contains_range(addr, size.max(1)))
                        };
                        let in_a = fits(a, self);
                        let in_b = fits(b, self);
                        let chosen = match (in_a, in_b) {
                            (true, false) => a,
                            (false, true) => b,
                            _ => {
                                return Err(MemError::ub(
                                    Ub::AmbiguousProvenance,
                                    format!("iota {iota} unresolvable at {addr:#x}"),
                                ))
                            }
                        };
                        self.iotas.insert(iota, IotaState::Resolved(chosen));
                        Ok(Some(chosen))
                    }
                }
            }
        }
    }

    /// PNVI-ae-udi integer-to-pointer provenance lookup: find the exposed,
    /// live allocation(s) whose footprint (or one-past point) contains
    /// `addr`.
    ///
    /// Resolved through the interval index instead of a linear scan: any
    /// allocation with `addr ∈ [base, end())` or `addr == end()` also has
    /// `addr` or `addr - 1` inside its *reserved* footprint (requested size
    /// ≤ reserved size, and an `end() == addr` match with `size > 0` covers
    /// `addr - 1`; a zero-sized allocation covers `addr` itself since at
    /// least one byte is always reserved). So the only candidates are the
    /// two index hits, examined in ascending ID order exactly like the old
    /// full scan.
    fn lookup_provenance(&mut self, addr: u64) -> Provenance {
        let mut cand = [
            addr.checked_sub(1)
                .and_then(|a| self.index.find(a))
                .map(|f| f.id),
            self.index.find(addr).map(|f| f.id),
        ];
        if cand[0] == cand[1] {
            cand[0] = None;
        }
        let mut ids: Vec<AllocId> = cand.into_iter().flatten().collect();
        ids.sort_unstable();
        let mut inside: Option<AllocId> = None;
        let mut one_past: Option<AllocId> = None;
        for id in ids {
            let a = self.alloc_ref(id).expect("indexed allocation");
            if !a.alive || !a.exposed {
                continue;
            }
            if addr >= a.base && addr < a.end() {
                inside = Some(id);
            } else if addr == a.end() {
                one_past = Some(id);
            }
        }
        match (inside, one_past) {
            (Some(i), None) => Provenance::Alloc(i),
            (None, Some(p)) => Provenance::Alloc(p),
            (Some(i), Some(p)) => {
                // The address is both one-past allocation `p` and the start
                // of allocation `i`: defer the choice (udi).
                let iota = IotaId(self.next_iota);
                self.next_iota += 1;
                self.iotas.insert(iota, IotaState::Ambiguous(p, i));
                Provenance::Iota(iota)
            }
            (None, None) => Provenance::Empty,
        }
    }

    // ── Access checking (the bounds_check of §4.3) ───────────────────────

    fn cap_fail(&self, ub: Ub, trap: TrapKind, ctx: &str) -> MemError {
        if self.cfg.abstract_ub {
            MemError::ub(ub, ctx)
        } else {
            MemError::trap(trap, ctx)
        }
    }

    /// The full access check: architectural capability checks (tag, ghost
    /// tag, seal, permissions, bounds — the (1†) clauses) followed by the
    /// abstract-machine provenance checks (the (1f)/(1g) clauses).
    ///
    /// On success, returns the position in `allocations` of the allocation
    /// the access lies in, when the provenance settles it: under the
    /// abstract profiles, the live allocation just resolved and checked;
    /// under the hardware profiles, the live allocation a
    /// [`Provenance::Alloc`] names, if its reserved footprint holds the
    /// access. Reserved footprints are pairwise disjoint and never reused,
    /// so that is the allocation the index finds for every byte. `None`
    /// leaves the bytes to [`walk`]: an empty or unresolved-iota
    /// provenance, a dead allocation's stale bytes (whatever the index
    /// holds at those addresses is what a hardware load sees), or a range
    /// that leaves the named allocation's footprint.
    fn check_access(
        &mut self,
        p: &PtrVal<C>,
        size: u64,
        access: Access,
    ) -> MemResult<Option<usize>> {
        let addr = p.addr();
        if self.cfg.capabilities {
            let c = &p.cap;
            if p.is_null() || (addr == 0 && !c.tag()) {
                return Err(MemError::ub(Ub::NullDereference, "null capability"));
            }
            if c.ghost().tag_unspecified {
                return Err(MemError::ub(
                    Ub::CheriUndefinedTag,
                    "capability tag is unspecified in ghost state",
                ));
            }
            if !c.tag() {
                return Err(self.cap_fail(
                    Ub::CheriInvalidCap,
                    TrapKind::TagViolation,
                    "capability tag cleared",
                ));
            }
            if c.is_sealed() {
                return Err(self.cap_fail(
                    Ub::CheriInvalidCap,
                    TrapKind::TagViolation,
                    "capability is sealed",
                ));
            }
            let need = match access {
                Access::Load => Perms::LOAD,
                Access::Store => Perms::STORE,
            };
            if !c.perms().contains(need) {
                return Err(self.cap_fail(
                    Ub::CheriInsufficientPermissions,
                    TrapKind::PermissionViolation,
                    "missing load/store permission",
                ));
            }
            if !c.bounds().contains_range(addr, size) {
                return Err(self.cap_fail(
                    Ub::CheriBoundsViolation,
                    TrapKind::BoundsViolation,
                    &format!("access [{:#x},+{}) outside bounds {}", addr, size, c.bounds()),
                ));
            }
        } else if addr == 0 {
            return Err(MemError::ub(Ub::NullDereference, "null pointer"));
        }
        if self.cfg.abstract_ub {
            let id = self.resolve_prov(&p.prov, addr, size)?.ok_or_else(|| {
                MemError::ub(
                    Ub::EmptyProvenanceAccess,
                    format!("access via empty-provenance pointer {addr:#x}"),
                )
            })?;
            let a = self
                .alloc_ref(id)
                .ok_or_else(|| MemError::Fail(format!("unknown allocation {id}")))?;
            if !a.alive {
                return Err(MemError::ub(
                    Ub::AccessDeadAllocation,
                    format!("{} ({})", id, a.prefix),
                ));
            }
            if !a.contains_range(addr, size) {
                return Err(MemError::ub(
                    Ub::AccessOutOfBounds,
                    format!(
                        "[{:#x},+{}) outside {} [{:#x},+{})",
                        addr, size, id, a.base, a.size
                    ),
                ));
            }
            if access == Access::Store && !a.writable() {
                return Err(MemError::ub(
                    Ub::WriteToReadOnly,
                    format!("{} ({})", id, a.prefix),
                ));
            }
            return Ok(Some(pos(id)));
        }
        Ok(p.prov
            .alloc_id()
            .filter(|&id| {
                self.alloc_ref(id)
                    .is_some_and(|a| a.alive && reserved_holds(a, addr, size))
            })
            .map(pos))
    }

    // ── Byte-level helpers (the B and C maps) ────────────────────────────
    //
    // An access reaches its allocation through the pointer's provenance:
    // `check_access` returns the position of the allocation it placed the
    // access in (`alloc` below), and the helpers index that allocation's
    // buffer and slot bits directly, so a capability access resolves its
    // allocation once. Debug builds check every such access against the
    // interval index. Without a position the bytes take the one [`walk`]
    // over the index: each step is a run of bytes inside one allocation's
    // buffer or a gap between reserved footprints, which the spill serves.
    // That serves pointers with empty or unresolved provenance under the
    // hardware profiles (`cheri_ddc_get()` and integer-to-pointer casts), a
    // dead allocation's stale bytes, and unpadded bounds (see `spill`).

    /// Does the index agree that allocation `i` holds the first and the
    /// last byte of `[addr, addr + len)`? The direct path asserts it in
    /// debug builds, so every debug test run compares it with the walk.
    fn index_agrees(&self, i: usize, addr: u64, len: usize) -> bool {
        let id = self.allocations[i].id;
        let holds = |b: u64| self.index.find(b).is_some_and(|f| f.id == id);
        len == 0 || (holds(addr) && holds(addr + (len as u64 - 1)))
    }

    /// Read `out.len()` bytes of `B` starting at `addr` into a
    /// caller-provided buffer: the scalar load path passes a stack buffer,
    /// which keeps `Vec` allocations off the per-access hot path. `alloc`
    /// is the allocation `check_access` placed the bytes in, if any.
    fn read_bytes_into(&self, alloc: Option<usize>, addr: u64, out: &mut [AbsByte]) {
        if let Some(i) = alloc {
            debug_assert!(self.index_agrees(i, addr, out.len()));
            let off = (addr - self.allocations[i].base) as usize;
            out.copy_from_slice(&self.allocations[i].buf[off..off + out.len()]);
            return;
        }
        for s in walk(&self.index, addr, out.len()) {
            let out = &mut out[s.at..s.at + s.len];
            match s.alloc {
                Some((a, off)) => out.copy_from_slice(&self.allocations[a].buf[off..off + s.len]),
                None => {
                    out.fill(AbsByte::UNINIT);
                    let lo = addr + s.at as u64;
                    // Inclusive: the gap may end at 2^64.
                    for (k, b) in self.spill.range(lo..=lo + (s.len as u64 - 1)) {
                        out[(k - lo) as usize] = *b;
                    }
                }
            }
        }
    }

    /// Write `bytes` into `B` starting at `addr`, in the allocation at
    /// position `alloc` when `check_access` placed them there. Without a
    /// `reason`, `C` is left alone. With one, this is a non-capability
    /// write (§4.3): the same pass invalidates every capability slot the
    /// bytes touch, counting affected slots as
    /// [`CapMeta::invalidate_range`] does, and `reason` attributes the
    /// clears in the stats histogram and the emitted event.
    fn write_bytes(
        &mut self,
        alloc: Option<usize>,
        addr: u64,
        bytes: Bytes<'_>,
        reason: Option<TagClearReason>,
    ) {
        let n = bytes.len();
        let cb = C::CAP_BYTES as u64;
        let mode = self.cfg.tag_invalidation;
        let invalidate = reason.map(|_| (mode, cb));
        let mut affected = 0;
        if let Some(i) = alloc {
            debug_assert!(self.index_agrees(i, addr, n));
            let a = &mut self.allocations[i];
            let off = (addr - a.base) as usize;
            affected += put_segment(a, off, bytes, 0, n, invalidate);
        } else {
            for s in walk(&self.index, addr, n) {
                match s.alloc {
                    // A slot inside an allocation that the bytes overlap
                    // lies in one the walk visits.
                    Some((a, off)) => {
                        let a = &mut self.allocations[a];
                        affected += put_segment(a, off, bytes, s.at, s.len, invalidate);
                    }
                    None => {
                        for i in s.at..s.at + s.len {
                            self.spill.insert(addr + i as u64, bytes.get(i));
                        }
                    }
                }
            }
        }
        let Some(reason) = reason else { return };
        if n > 0 && !self.spill_caps.is_empty() {
            // From the first slot the bytes touch: a range that ends at
            // 2^64 saturates to `u64::MAX`, which still lies beyond that
            // slot's start.
            let lo = addr & !(cb - 1);
            let hi = addr.saturating_add(n as u64);
            affected += self.spill_caps.invalidate_range(lo, hi, cb, mode);
        }
        if affected > 0 {
            self.stats.tag_clears += affected as u64;
            self.stats.tag_clears_by_reason[reason.code() as usize] += affected as u64;
            self.emit(|| MemEvent::CapTagClear {
                addr,
                count: affected as u64,
                reason,
            });
        }
    }

    /// Where the `C` entry of the capability-aligned slot at `addr` lives:
    /// `Some((i, k))` for slot `k` of the allocation at position `i`, or
    /// `None` for the spill. `alloc` is the allocation `check_access`
    /// placed the access that covers the slot in; without one, the index
    /// finds the allocation that holds `addr`.
    fn slot_at(&self, alloc: Option<usize>, addr: u64) -> Option<(usize, usize)> {
        let cb = C::CAP_BYTES as u64;
        let i = match alloc {
            Some(i) => {
                debug_assert!(self.index_agrees(i, addr, C::CAP_BYTES));
                i
            }
            None => pos(self.index.find(addr)?.id),
        };
        Some((i, self.allocations[i].slot_index(addr, cb)?))
    }

    /// Capability-slot metadata at aligned address `addr` (see
    /// [`CheriMemory::slot_at`] for `alloc`).
    fn slot_get(&self, alloc: Option<usize>, addr: u64) -> SlotMeta {
        match self.slot_at(alloc, addr) {
            Some((i, k)) => self.allocations[i].slots.get(k),
            None => self.spill_caps.get(addr),
        }
    }

    /// Record capability-slot metadata at aligned address `addr` (see
    /// [`CheriMemory::slot_at`] for `alloc`).
    fn slot_set(&mut self, alloc: Option<usize>, addr: u64, meta: SlotMeta) {
        match self.slot_at(alloc, addr) {
            Some((i, k)) => self.allocations[i].slots.set(k, meta),
            None => self.spill_caps.set(addr, meta),
        }
    }

    /// A non-capability write (§4.3): store the bytes, then invalidate
    /// every capability slot they touch.
    fn store_data(&mut self, alloc: Option<usize>, addr: u64, bytes: Bytes<'_>) {
        self.write_bytes(alloc, addr, bytes, Some(TagClearReason::NonCapWrite));
        self.stats.stores += 1;
    }

    /// Raw byte copy without checks (`memcpy` and `realloc`) of the `n`
    /// bytes at `src` to `dst`; `src_alloc` and `dst_alloc` place each
    /// range as `check_access` did.
    fn copy_bytes_raw(
        &mut self,
        src_alloc: Option<usize>,
        src: u64,
        dst_alloc: Option<usize>,
        dst: u64,
        n: u64,
    ) {
        let mut bytes = std::mem::take(&mut self.scratch);
        bytes.clear();
        bytes.resize(n as usize, AbsByte::UNINIT);
        self.read_bytes_into(src_alloc, src, &mut bytes);
        // The copy is a (possibly partial) representation write to the
        // destination: any capability whose slot it touches is invalidated…
        self.write_bytes(
            dst_alloc,
            dst,
            Bytes::Abs(&bytes),
            Some(TagClearReason::Memcpy),
        );
        self.scratch = bytes;
        let cb = C::CAP_BYTES as u64;
        // …and then capability-aligned, fully-copied slots get the source
        // metadata transferred (§3.5: memcpy uses capability-sized accesses
        // where possible, preserving tags). The loop counts offsets, not
        // addresses: either range may end at 2^64.
        if src % cb == dst % cb {
            let mut off = src.wrapping_neg() % cb;
            while off + cb <= n {
                let meta = self.slot_get(src_alloc, src + off);
                self.slot_set(dst_alloc, dst + off, meta);
                off += cb;
            }
        }
    }

    /// The `expose(A, I_tainted)` step of the load rule: loading pointer
    /// bytes at an integer type exposes the allocations those bytes point
    /// into (clause (2g) of §4.3).
    fn expose_tainted(&mut self, bytes: &[AbsByte]) {
        for id in bytes.iter().filter_map(|b| b.prov().alloc_id()) {
            if let Some(a) = self.alloc_mut(id) {
                if a.alive {
                    a.exposed = true;
                }
            }
        }
    }

    // ── Scalar loads and stores ──────────────────────────────────────────

    /// Load an integer of `size` bytes. `want_intptr` selects the
    /// `(u)intptr_t` behaviour: a capability value is reconstructed from the
    /// stored representation and metadata (§4.3).
    ///
    /// # Errors
    ///
    /// All the UBs of the load rule: capability and provenance check
    /// failures, and uninitialised reads.
    pub fn load_int(
        &mut self,
        p: &PtrVal<C>,
        size: u64,
        signed: bool,
        want_intptr: bool,
    ) -> MemResult<IntVal<C>> {
        let alloc = self.check_access(p, size, Access::Load)?;
        let addr = p.addr();
        let mut stack = [AbsByte::UNINIT; SCALAR_BUF];
        let mut heap: Vec<AbsByte>;
        let bytes: &[AbsByte] = if size as usize <= SCALAR_BUF {
            let window = &mut stack[..size as usize];
            self.read_bytes_into(alloc, addr, window);
            window
        } else {
            heap = vec![AbsByte::UNINIT; size as usize];
            self.read_bytes_into(alloc, addr, &mut heap);
            &heap
        };
        if bytes.iter().any(|b| !b.is_init()) {
            if bytes.iter().any(super::absbyte::AbsByte::is_init) && want_intptr {
                // Partially-initialised capability representation: a trap
                // representation (§4.2, UB012).
                return Err(MemError::ub(
                    Ub::LvalueReadTrapRepresentation,
                    "partially initialised capability representation",
                ));
            }
            return Err(MemError::ub(
                Ub::UninitialisedRead,
                format!("read of uninitialised memory at {addr:#x}"),
            ));
        }
        self.stats.loads += 1;
        self.emit(|| MemEvent::Load {
            addr,
            size,
            intptr: want_intptr,
        });
        if want_intptr && self.cfg.capabilities && size == C::CAP_BYTES as u64 {
            let mut raw = [0u8; SCALAR_BUF];
            for (r, b) in raw.iter_mut().zip(bytes) {
                *r = b.concrete();
            }
            let raw = &raw[..size as usize];
            let prov = recover_provenance(bytes);
            let (cap, ghost_extra) = if addr.is_multiple_of(C::CAP_BYTES as u64) {
                let meta = self.slot_get(alloc, addr);
                let cap = C::decode(raw, meta.tag)
                    .ok_or_else(|| MemError::Fail("capability decode".into()))?;
                (cap.with_ghost(meta.ghost), GhostState::CLEAN)
            } else {
                let cap = C::decode(raw, false)
                    .ok_or_else(|| MemError::Fail("capability decode".into()))?;
                (cap, GhostState::CLEAN)
            };
            let cap = cap.with_ghost(cap.ghost().join(ghost_extra));
            return Ok(IntVal::Cap {
                signed,
                cap,
                prov,
            });
        }
        // Plain integer: examining these bytes exposes any pointer
        // representations they belong to (PNVI-ae).
        self.expose_tainted(bytes);
        let mut v: i128 = 0;
        for (i, b) in bytes.iter().enumerate() {
            v |= i128::from(b.concrete()) << (8 * i);
        }
        if signed && size < 16 {
            let shift = 128 - 8 * size as u32;
            v = (v << shift) >> shift;
        }
        Ok(IntVal::Num(v))
    }

    /// Store an integer of `size` bytes.
    ///
    /// # Errors
    ///
    /// Capability/provenance check failures as for loads, plus
    /// [`Ub::WriteToReadOnly`].
    pub fn store_int(&mut self, p: &PtrVal<C>, size: u64, v: &IntVal<C>) -> MemResult<()> {
        let alloc = self.check_access(p, size, Access::Store)?;
        let addr = p.addr();
        self.emit(|| MemEvent::Store { addr, size });
        match v {
            IntVal::Cap { cap, prov, .. }
                if self.cfg.capabilities && size == C::CAP_BYTES as u64 =>
            {
                self.store_cap_bytes(alloc, addr, cap, *prov);
                Ok(())
            }
            _ => {
                let n = v.value();
                if size as usize <= SCALAR_BUF {
                    let mut data = [0u8; SCALAR_BUF];
                    for (i, d) in data[..size as usize].iter_mut().enumerate() {
                        *d = (n >> (8 * i)) as u8;
                    }
                    self.store_data(alloc, addr, Bytes::Data(&data[..size as usize]));
                } else {
                    let data: Vec<u8> = (0..size).map(|i| (n >> (8 * i)) as u8).collect();
                    self.store_data(alloc, addr, Bytes::Data(&data));
                }
                Ok(())
            }
        }
    }

    /// Load a pointer value (the §4.3 load rule at pointer type).
    ///
    /// # Errors
    ///
    /// As for [`CheriMemory::load_int`].
    pub fn load_ptr(&mut self, p: &PtrVal<C>) -> MemResult<PtrVal<C>> {
        let size = self.pointer_bytes() as u64;
        let alloc = self.check_access(p, size, Access::Load)?;
        let addr = p.addr();
        let mut stack = [AbsByte::UNINIT; SCALAR_BUF];
        let bytes = &mut stack[..size as usize];
        self.read_bytes_into(alloc, addr, bytes);
        if bytes.iter().any(|b| !b.is_init()) {
            if bytes.iter().any(super::absbyte::AbsByte::is_init) {
                return Err(MemError::ub(
                    Ub::LvalueReadTrapRepresentation,
                    "partially initialised pointer representation",
                ));
            }
            return Err(MemError::ub(
                Ub::UninitialisedRead,
                format!("read of uninitialised pointer at {addr:#x}"),
            ));
        }
        self.stats.loads += 1;
        let mut raw = [0u8; SCALAR_BUF];
        for (r, b) in raw.iter_mut().zip(bytes.iter()) {
            *r = b.concrete();
        }
        let raw = &raw[..size as usize];
        let prov = recover_provenance(bytes);
        if self.cfg.capabilities {
            let (tag, ghost) = if addr.is_multiple_of(C::CAP_BYTES as u64) {
                let meta = self.slot_get(alloc, addr);
                (meta.tag, meta.ghost)
            } else {
                (false, GhostState::CLEAN)
            };
            let cap = C::decode(raw, tag)
                .ok_or_else(|| MemError::Fail("capability decode".into()))?
                .with_ghost(ghost);
            Ok(PtrVal::new(prov, cap))
        } else {
            let mut a: u64 = 0;
            for (i, b) in raw.iter().enumerate() {
                a |= u64::from(*b) << (8 * i);
            }
            Ok(PtrVal::new(prov, C::root().with_address(a)))
        }
    }

    /// Store a pointer value.
    ///
    /// # Errors
    ///
    /// As for [`CheriMemory::store_int`].
    pub fn store_ptr(&mut self, p: &PtrVal<C>, v: &PtrVal<C>) -> MemResult<()> {
        let size = self.pointer_bytes() as u64;
        let alloc = self.check_access(p, size, Access::Store)?;
        if self.cfg.capabilities {
            self.store_cap_bytes(alloc, p.addr(), &v.cap, v.prov);
        } else {
            let a = v.addr();
            let addr = p.addr();
            let mut abs = [AbsByte::UNINIT; SCALAR_BUF];
            for (i, o) in abs[..size as usize].iter_mut().enumerate() {
                *o = AbsByte::pointer(v.prov, (a >> (8 * i)) as u8, i as u8);
            }
            self.write_bytes(alloc, addr, Bytes::Abs(&abs[..size as usize]), None);
            self.stats.stores += 1;
        }
        Ok(())
    }

    fn store_cap_bytes(&mut self, alloc: Option<usize>, addr: u64, cap: &C, prov: Provenance) {
        let mut buf = [0u8; SCALAR_BUF];
        let enc = &mut buf[..C::CAP_BYTES];
        cap.encode_into(enc);
        let cb = C::CAP_BYTES as u64;
        let mut abs = [AbsByte::UNINIT; SCALAR_BUF];
        for (i, o) in abs[..enc.len()].iter_mut().enumerate() {
            *o = AbsByte::pointer(prov, enc[i], i as u8);
        }
        let aligned = addr.is_multiple_of(cb);
        // A misaligned capability store cannot represent the tag.
        let reason = (!aligned).then_some(TagClearReason::MisalignedStore);
        self.write_bytes(alloc, addr, Bytes::Abs(&abs[..enc.len()]), reason);
        if aligned {
            self.slot_set(
                alloc,
                addr,
                SlotMeta {
                    tag: cap.tag(),
                    ghost: cap.ghost(),
                },
            );
        }
        self.stats.stores += 1;
    }

    // ── memcpy / memset / memcmp ─────────────────────────────────────────

    /// `memcpy` / `memmove`: copies bytes *and* capability metadata for
    /// capability-aligned chunks, as CHERI C requires (§3.5: "memcpy must be
    /// implemented with capability-sized and aligned accesses where
    /// possible, to preserve pointers").
    ///
    /// # Errors
    ///
    /// Access-check failures on either range.
    pub fn memcpy(&mut self, dst: &PtrVal<C>, src: &PtrVal<C>, n: u64) -> MemResult<()> {
        if n == 0 {
            return Ok(());
        }
        let src_alloc = self.check_access(src, n, Access::Load)?;
        let dst_alloc = self.check_access(dst, n, Access::Store)?;
        let (s_addr, d_addr) = (src.addr(), dst.addr());
        self.stats.memcpy_bytes += n;
        self.emit(|| MemEvent::Memcpy {
            dst: d_addr,
            src: s_addr,
            n,
        });
        self.copy_bytes_raw(src_alloc, s_addr, dst_alloc, d_addr, n);
        Ok(())
    }

    /// `memset`.
    ///
    /// # Errors
    ///
    /// Access-check failures on the range.
    pub fn memset(&mut self, dst: &PtrVal<C>, byte: u8, n: u64) -> MemResult<()> {
        if n == 0 {
            return Ok(());
        }
        let alloc = self.check_access(dst, n, Access::Store)?;
        self.store_data(alloc, dst.addr(), Bytes::Fill(byte, n as usize));
        Ok(())
    }

    /// `memcmp`.
    ///
    /// # Errors
    ///
    /// Access-check failures; in abstract-machine mode, UB on comparing
    /// uninitialised bytes. The hardware-emulation profiles instead compare
    /// the stale concrete bytes (real memory has no "uninitialised" state —
    /// the same behaviour [`CheriMemory::kill`] documents for freed memory).
    pub fn memcmp(&mut self, a: &PtrVal<C>, b: &PtrVal<C>, n: u64) -> MemResult<i32> {
        if n == 0 {
            return Ok(0);
        }
        let a_alloc = self.check_access(a, n, Access::Load)?;
        let b_alloc = self.check_access(b, n, Access::Load)?;
        let mut bytes = std::mem::take(&mut self.scratch);
        bytes.clear();
        bytes.resize(2 * n as usize, AbsByte::UNINIT);
        let (ba, bb) = bytes.split_at_mut(n as usize);
        self.read_bytes_into(a_alloc, a.addr(), ba);
        self.read_bytes_into(b_alloc, b.addr(), bb);
        let order = compare_bytes(ba, bb, self.cfg.abstract_ub);
        self.scratch = bytes;
        order
    }

    // ── Pointer arithmetic and comparison ────────────────────────────────

    /// Pointer + integer (array indexing). Applies the ISO rule (§3.2
    /// option (a)): in abstract mode, constructing a pointer below the
    /// allocation or more than one past it is UB. The capability address is
    /// updated either way, with hardware tag-clearing on
    /// non-representability.
    ///
    /// # Errors
    ///
    /// [`Ub::OutOfBoundPtrArithmetic`] in abstract mode.
    pub fn array_shift(&mut self, p: &PtrVal<C>, elem: u64, index: i64) -> MemResult<PtrVal<C>> {
        let delta = i128::from(elem) * i128::from(index);
        // `delta` lies in (-2^127, 2^127 - 2^64], so the exact address
        // cannot overflow. The machine address wraps; the ISO rule is
        // checked on the exact one, so an offset that is a non-zero
        // multiple of 2^64 bytes does not land back on the object.
        let exact = i128::from(p.addr()) + delta;
        let new_addr = exact as u64;
        if self.cfg.abstract_ub {
            if let Some(id) = self.resolve_prov(&p.prov, p.addr(), 0)? {
                let a = self.alloc_ref(id).expect("indexed allocation");
                let inside = a.contains_or_one_past(new_addr);
                if !inside || i128::from(new_addr) != exact {
                    let detail = if inside {
                        format!("an offset of {delta} bytes wraps around to {new_addr:#x}")
                    } else {
                        format!("{:#x} is outside [{:#x},{:#x}]", new_addr, a.base, a.end())
                    };
                    return Err(MemError::ub(Ub::OutOfBoundPtrArithmetic, detail));
                }
            }
        }
        self.stats.representability_checks += 1;
        let cap = p.cap.with_address(new_addr);
        self.emit(|| MemEvent::CapDerive {
            from: p.addr(),
            to: new_addr,
            tag_cleared: p.cap.tag() && !cap.tag(),
        });
        Ok(PtrVal::new(p.prov, cap))
    }

    /// Pointer + byte offset for struct member access; stays within the
    /// object by construction, so no arithmetic UB check is needed.
    #[must_use]
    pub fn member_shift(&self, p: &PtrVal<C>, offset: u64) -> PtrVal<C> {
        PtrVal::new(p.prov, p.cap.with_address(p.addr().wrapping_add(offset)))
    }

    /// Pointer subtraction, in units of `elem` bytes.
    ///
    /// # Errors
    ///
    /// UB when the provenances differ (§3.11 check (2)). A zero-sized
    /// element type is a hard [`MemError::Fail`]: it cannot arise from
    /// well-typed C, so reaching it is an interpreter bug we want loud,
    /// not masked by silently dividing by 1.
    pub fn ptr_diff(&mut self, a: &PtrVal<C>, b: &PtrVal<C>, elem: u64) -> MemResult<i64> {
        if self.cfg.abstract_ub {
            let ia = self.resolve_prov(&a.prov, a.addr(), 0)?;
            let ib = self.resolve_prov(&b.prov, b.addr(), 0)?;
            if ia.is_none() || ia != ib {
                return Err(MemError::ub(
                    Ub::PtrDiffDifferentProvenance,
                    format!("{} vs {}", a.prov, b.prov),
                ));
            }
        }
        if elem == 0 {
            return Err(MemError::Fail(
                "pointer subtraction with zero-sized element type".into(),
            ));
        }
        let d = (a.addr() as i128 - b.addr() as i128) / elem as i128;
        Ok(d as i64)
    }

    /// Relational comparison (`<` etc.). Returns `Ordering` by address.
    ///
    /// # Errors
    ///
    /// UB when provenances differ, in abstract mode (ISO 6.5.8p5).
    pub fn ptr_rel_cmp(
        &mut self,
        a: &PtrVal<C>,
        b: &PtrVal<C>,
    ) -> MemResult<std::cmp::Ordering> {
        if self.cfg.abstract_ub {
            let ia = self.resolve_prov(&a.prov, a.addr(), 0)?;
            let ib = self.resolve_prov(&b.prov, b.addr(), 0)?;
            if ia.is_none() || ia != ib {
                return Err(MemError::ub(
                    Ub::RelationalCompareDifferentProvenance,
                    format!("{} vs {}", a.prov, b.prov),
                ));
            }
        }
        Ok(a.addr().cmp(&b.addr()))
    }

    /// Pointer equality: address-only (§3.6 option (3)) — never UB, and
    /// deliberately ignores tags, bounds and permissions.
    #[must_use]
    pub fn ptr_eq(&self, a: &PtrVal<C>, b: &PtrVal<C>) -> bool {
        a.addr() == b.addr()
    }

    // ── Pointer/integer conversions (§3.3, PNVI-ae-udi) ──────────────────

    /// Cast pointer → integer. For `(u)intptr_t` targets the capability is
    /// preserved (§3.4); for narrower integer types the address is
    /// truncated. Either way the allocation is marked exposed (PNVI-ae).
    pub fn cast_ptr_to_int(
        &mut self,
        p: &PtrVal<C>,
        to_intptr: bool,
        signed: bool,
        size: u64,
    ) -> IntVal<C> {
        self.expose(p.prov);
        if to_intptr {
            IntVal::Cap {
                signed,
                cap: p.cap.clone(),
                prov: p.prov,
            }
        } else {
            let mut v = i128::from(p.addr());
            if size < 16 {
                let shift = 128 - 8 * size as u32;
                v = if signed {
                    (v << shift) >> shift
                } else {
                    ((v << shift) as u128 >> shift) as i128
                };
            }
            IntVal::Num(v)
        }
    }

    /// Cast integer → pointer. A capability-carrying value keeps its
    /// capability (round-trip, §3.3); provenance is the carried one when
    /// still valid, otherwise the PNVI-ae-udi exposed-allocation lookup.
    /// A pure numeric value yields an untagged null-derived capability.
    pub fn cast_int_to_ptr(&mut self, v: &IntVal<C>) -> PtrVal<C> {
        match v {
            IntVal::Num(0) => PtrVal::null(),
            IntVal::Num(n) => {
                let addr = *n as u64;
                let prov = self.lookup_provenance(addr);
                PtrVal::new(prov, C::null().with_address(addr))
            }
            IntVal::Cap { cap, prov, .. } => {
                let addr = cap.address();
                let live = prov
                    .alloc_id()
                    .and_then(|id| self.alloc_ref(id))
                    .is_some_and(|a| a.alive && a.contains_or_one_past(addr));
                let prov = if live { *prov } else { self.lookup_provenance(addr) };
                PtrVal::new(prov, cap.clone())
            }
        }
    }

    /// Mark an allocation read-only after initialisation and return a
    /// read-only capability to it. Used for `const` objects (§3.9): the
    /// interpreter allocates writable, runs the initialiser, then freezes.
    ///
    /// # Errors
    ///
    /// Fails if the pointer has no resolvable provenance.
    pub fn freeze_readonly(&mut self, p: &PtrVal<C>) -> MemResult<PtrVal<C>> {
        let id = self
            .resolve_prov(&p.prov, p.addr(), 0)?
            .ok_or_else(|| MemError::Fail("freeze of unknown allocation".into()))?;
        if let Some(a) = self.alloc_mut(id) {
            a.readonly = true;
        }
        let cap = if self.cfg.capabilities {
            p.cap.with_perms_and(Perms::data_readonly())
        } else {
            p.cap.clone()
        };
        Ok(PtrVal::new(p.prov, cap))
    }

    // ── Introspection ────────────────────────────────────────────────────

    /// The allocation map (diagnostics and tests).
    #[must_use]
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// A single allocation by ID (diagnostics and tests).
    #[must_use]
    pub fn allocation(&self, id: AllocId) -> Option<&Allocation> {
        self.alloc_ref(id)
    }

    /// Number of tagged capabilities currently in memory.
    #[must_use]
    pub fn tagged_caps_in_memory(&self) -> usize {
        self.allocations
            .iter()
            .map(|a| a.slots.tagged_count())
            .sum::<usize>()
            + self.spill_caps.tagged_count()
    }

    /// Direct access to the capability metadata of an aligned slot (tests).
    #[must_use]
    pub fn cap_meta_at(&self, addr: u64) -> SlotMeta {
        self.slot_get(None, addr)
    }
}
