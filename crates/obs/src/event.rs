//! The typed memory-event vocabulary.
//!
//! One [`MemEvent`] per observable action of the memory object model (§4.3's
//! `memM` operations). The variants deliberately store *raw machine words*
//! (`u64` addresses, allocation ids as plain integers) rather than model
//! types, so the crate stays a leaf dependency and events are trivially
//! serialisable. `docs/SEMANTICS.md` maps each variant to the paper section
//! whose semantics it observes.

use std::fmt;

/// Maximum identifier length stored inline in a [`Name`] without a heap
/// allocation. 22 bytes + length + discriminant keeps `Name` at 24 bytes,
/// and covers every identifier the front end produces in practice.
pub const NAME_INLINE_LEN: usize = 22;

/// A small-string-optimised owned name (allocation prefix, symbol).
///
/// Emitting an event must not allocate on the hot path: names up to
/// [`NAME_INLINE_LEN`] bytes are stored inline; longer ones fall back to a
/// boxed string (rare — C identifiers are short).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Name {
    /// Inline storage: `buf[..len]` is valid UTF-8.
    Inline {
        /// Number of meaningful bytes in `buf`.
        len: u8,
        /// Inline byte storage.
        buf: [u8; NAME_INLINE_LEN],
    },
    /// Heap fallback for names longer than [`NAME_INLINE_LEN`] bytes.
    Heap(Box<str>),
}

impl Name {
    /// Build a name, inlining when it fits.
    #[must_use]
    pub fn new(s: &str) -> Name {
        if s.len() <= NAME_INLINE_LEN {
            let mut buf = [0u8; NAME_INLINE_LEN];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            Name::Inline {
                len: s.len() as u8,
                buf,
            }
        } else {
            Name::Heap(s.into())
        }
    }

    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        match self {
            Name::Inline { len, buf } => {
                std::str::from_utf8(&buf[..*len as usize]).expect("Name holds UTF-8")
            }
            Name::Heap(s) => s,
        }
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// The storage class of an allocation: how `cheri-mem` created it.
///
/// The `Debug` names must stay exactly `Auto`/`Static`/`Heap`/`Function`/
/// `StringLiteral`: the legacy text renderer prints them with `{:?}` and the
/// golden trace tests pin those bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AllocClass {
    /// Block-scope (stack) object.
    Auto,
    /// Static-storage-duration object.
    Static,
    /// `malloc`-family object.
    Heap,
    /// Function "allocation" backing a function pointer.
    Function,
    /// String literal object.
    StringLiteral,
}

/// Every [`AllocClass`], in code order.
pub const ALL_ALLOC_CLASSES: &[AllocClass] = &[
    AllocClass::Auto,
    AllocClass::Static,
    AllocClass::Heap,
    AllocClass::Function,
    AllocClass::StringLiteral,
];

impl AllocClass {
    /// Stable binary-format code.
    #[must_use]
    pub fn code(self) -> u8 {
        ALL_ALLOC_CLASSES.iter().position(|k| *k == self).expect("in list") as u8
    }

    /// Inverse of [`AllocClass::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<AllocClass> {
        ALL_ALLOC_CLASSES.get(code as usize).copied()
    }

    /// Is this allocation read-only whatever its object's qualifiers?
    #[inline]
    #[must_use]
    pub fn inherently_readonly(self) -> bool {
        matches!(self, AllocClass::Function | AllocClass::StringLiteral)
    }
}

/// Why a stored capability's tag was cleared (or marked unspecified).
///
/// The paper's §3.5/§4.3 treat every representation-touching write the same
/// way; the *reason* histogram exists because allocator and revocation
/// studies (e.g. "Picking a CHERI Allocator") need to know which mechanism
/// is responsible for tag loss.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TagClearReason {
    /// A non-capability data write overlapped the capability's footprint
    /// (§4.3: tags for the range become unspecified/cleared).
    NonCapWrite,
    /// A byte-wise `memcpy` overwrote the slot (tags do not transfer through
    /// partial or misaligned copies).
    Memcpy,
    /// A capability store at a non-capability-aligned address.
    MisalignedStore,
    /// A revocation sweep cleared the tag (§3.8 temporal safety).
    Revoked,
}

/// Every [`TagClearReason`], in code order. The array length is also the
/// size of the per-reason histogram in the metrics registry.
pub const ALL_TAG_CLEAR_REASONS: &[TagClearReason] = &[
    TagClearReason::NonCapWrite,
    TagClearReason::Memcpy,
    TagClearReason::MisalignedStore,
    TagClearReason::Revoked,
];

/// Number of [`TagClearReason`] variants (histogram width).
pub const TAG_CLEAR_REASONS: usize = ALL_TAG_CLEAR_REASONS.len();

impl TagClearReason {
    /// Stable binary-format code (and histogram index).
    #[must_use]
    pub fn code(self) -> u8 {
        ALL_TAG_CLEAR_REASONS.iter().position(|r| *r == self).expect("in list") as u8
    }

    /// Inverse of [`TagClearReason::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<TagClearReason> {
        ALL_TAG_CLEAR_REASONS.get(code as usize).copied()
    }

    /// Short lower-case label used by renderers and `--stats`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TagClearReason::NonCapWrite => "noncap-write",
            TagClearReason::Memcpy => "memcpy",
            TagClearReason::MisalignedStore => "misaligned-store",
            TagClearReason::Revoked => "revoked",
        }
    }
}

/// One observable action of the memory object model.
///
/// The first five variants are exactly the actions the legacy `--trace`
/// string log recorded; the rest extend coverage to capability metadata and
/// run termination. Field meanings follow `cheri-mem`'s operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemEvent {
    /// An allocation was created (`allocate_object`/`allocate_region`).
    Alloc {
        /// Allocation id (the `@n` ordinal).
        id: u64,
        /// Base address chosen by the layout policy.
        base: u64,
        /// Requested (unpadded) size in bytes.
        size: u64,
        /// Storage class.
        kind: AllocClass,
        /// Declared name / prefix of the allocation.
        name: Name,
    },
    /// An allocation's lifetime ended (`kill`).
    Free {
        /// Allocation id.
        id: u64,
        /// Base address.
        base: u64,
        /// One past the end of the *reserved* (possibly padded) footprint.
        end: u64,
        /// Was this a dynamic (`free()`) deallocation, as opposed to a
        /// scope exit?
        dynamic: bool,
    },
    /// A scalar integer load (`load_int`).
    Load {
        /// Address read.
        addr: u64,
        /// Access size in bytes.
        size: u64,
        /// Was the destination type `(u)intptr_t` (capability-carrying)?
        intptr: bool,
    },
    /// A scalar store (`store_int`).
    Store {
        /// Address written.
        addr: u64,
        /// Access size in bytes.
        size: u64,
    },
    /// A `memcpy` (`dst <- src`, `n` bytes).
    Memcpy {
        /// Destination address.
        dst: u64,
        /// Source address.
        src: u64,
        /// Byte count.
        n: u64,
    },
    /// A new capability value was derived from an existing one by pointer
    /// arithmetic (§3.3 `array_shift`): the representability check may clear
    /// the tag on a non-representable result.
    CapDerive {
        /// Address of the source capability value.
        from: u64,
        /// Address of the derived capability value.
        to: u64,
        /// Did the derivation clear the tag (non-representable result)?
        tag_cleared: bool,
    },
    /// Stored capability tags were cleared or marked unspecified.
    CapTagClear {
        /// Lowest address of the affected range.
        addr: u64,
        /// Number of capability slots affected.
        count: u64,
        /// Which mechanism cleared them.
        reason: TagClearReason,
    },
    /// A representability (bounds-compression) check at allocation time
    /// (§2.1 / §3.7): `reserved >= size` when padding was applied.
    RepCheck {
        /// Requested size.
        size: u64,
        /// Reserved (possibly padded) size.
        reserved: u64,
        /// Did the check pad the allocation?
        padded: bool,
    },
    /// A revocation sweep over a freed region (§3.8).
    Revoke {
        /// Base of the swept region.
        base: u64,
        /// One past the end of the swept region.
        end: u64,
        /// Number of capabilities revoked by the sweep.
        cleared: u64,
    },
    /// The abstract machine detected undefined behaviour and stopped.
    Ub(crate::Ub),
    /// The emulated hardware raised a capability exception and stopped.
    Trap(crate::TrapKind),
    /// The program exited normally with this status.
    Exit(i64),
}

/// The discriminant of a [`MemEvent`], used as the binary-format tag byte
/// and as the index into per-kind counters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EventKind {
    /// [`MemEvent::Alloc`]
    Alloc,
    /// [`MemEvent::Free`]
    Free,
    /// [`MemEvent::Load`]
    Load,
    /// [`MemEvent::Store`]
    Store,
    /// [`MemEvent::Memcpy`]
    Memcpy,
    /// [`MemEvent::CapDerive`]
    CapDerive,
    /// [`MemEvent::CapTagClear`]
    CapTagClear,
    /// [`MemEvent::RepCheck`]
    RepCheck,
    /// [`MemEvent::Revoke`]
    Revoke,
    /// [`MemEvent::Ub`]
    Ub,
    /// [`MemEvent::Trap`]
    Trap,
    /// [`MemEvent::Exit`]
    Exit,
}

/// Every [`EventKind`], in tag-byte order.
pub const ALL_EVENT_KINDS: &[EventKind] = &[
    EventKind::Alloc,
    EventKind::Free,
    EventKind::Load,
    EventKind::Store,
    EventKind::Memcpy,
    EventKind::CapDerive,
    EventKind::CapTagClear,
    EventKind::RepCheck,
    EventKind::Revoke,
    EventKind::Ub,
    EventKind::Trap,
    EventKind::Exit,
];

/// Number of event kinds (width of per-kind counter arrays).
pub const EVENT_KINDS: usize = ALL_EVENT_KINDS.len();

impl EventKind {
    /// Stable binary-format tag byte (and counter index).
    #[must_use]
    pub fn code(self) -> u8 {
        ALL_EVENT_KINDS.iter().position(|k| *k == self).expect("in list") as u8
    }

    /// Inverse of [`EventKind::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<EventKind> {
        ALL_EVENT_KINDS.get(code as usize).copied()
    }

    /// Short lower-case label used by renderers and `--stats`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Alloc => "alloc",
            EventKind::Free => "free",
            EventKind::Load => "load",
            EventKind::Store => "store",
            EventKind::Memcpy => "memcpy",
            EventKind::CapDerive => "cap-derive",
            EventKind::CapTagClear => "cap-tag-clear",
            EventKind::RepCheck => "rep-check",
            EventKind::Revoke => "revoke",
            EventKind::Ub => "ub",
            EventKind::Trap => "trap",
            EventKind::Exit => "exit",
        }
    }
}

impl MemEvent {
    /// This event's discriminant.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            MemEvent::Alloc { .. } => EventKind::Alloc,
            MemEvent::Free { .. } => EventKind::Free,
            MemEvent::Load { .. } => EventKind::Load,
            MemEvent::Store { .. } => EventKind::Store,
            MemEvent::Memcpy { .. } => EventKind::Memcpy,
            MemEvent::CapDerive { .. } => EventKind::CapDerive,
            MemEvent::CapTagClear { .. } => EventKind::CapTagClear,
            MemEvent::RepCheck { .. } => EventKind::RepCheck,
            MemEvent::Revoke { .. } => EventKind::Revoke,
            MemEvent::Ub(_) => EventKind::Ub,
            MemEvent::Trap(_) => EventKind::Trap,
            MemEvent::Exit(_) => EventKind::Exit,
        }
    }

    /// Is this one of the five actions the legacy string trace recorded?
    #[must_use]
    pub fn is_legacy(&self) -> bool {
        matches!(
            self.kind(),
            EventKind::Alloc
                | EventKind::Free
                | EventKind::Load
                | EventKind::Store
                | EventKind::Memcpy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_inlines_short_strings() {
        let n = Name::new("main");
        assert!(matches!(n, Name::Inline { .. }));
        assert_eq!(n.as_str(), "main");
        assert_eq!(n.to_string(), "main");
        let exactly = "a".repeat(NAME_INLINE_LEN);
        assert!(matches!(Name::new(&exactly), Name::Inline { .. }));
        let long = "a".repeat(NAME_INLINE_LEN + 1);
        let n = Name::new(&long);
        assert!(matches!(n, Name::Heap(_)));
        assert_eq!(n.as_str(), long);
    }

    #[test]
    fn name_is_small() {
        assert!(std::mem::size_of::<Name>() <= 24);
    }

    #[test]
    fn alloc_class_debug_matches_legacy_alloc_kind() {
        // Pinned: the legacy trace prints the class with `{:?}`.
        let names: Vec<String> = ALL_ALLOC_CLASSES.iter().map(|k| format!("{k:?}")).collect();
        assert_eq!(names, ["Auto", "Static", "Heap", "Function", "StringLiteral"]);
    }

    #[test]
    fn codes_roundtrip() {
        for k in ALL_EVENT_KINDS {
            assert_eq!(EventKind::from_code(k.code()), Some(*k));
        }
        for k in ALL_ALLOC_CLASSES {
            assert_eq!(AllocClass::from_code(k.code()), Some(*k));
        }
        for r in ALL_TAG_CLEAR_REASONS {
            assert_eq!(TagClearReason::from_code(r.code()), Some(*r));
        }
        assert_eq!(EventKind::from_code(EVENT_KINDS as u8), None);
    }

    #[test]
    fn kind_covers_every_variant() {
        let evs = [
            MemEvent::Alloc {
                id: 1,
                base: 0x1000,
                size: 4,
                kind: AllocClass::Auto,
                name: Name::new("x"),
            },
            MemEvent::Exit(0),
        ];
        assert_eq!(evs[0].kind(), EventKind::Alloc);
        assert!(evs[0].is_legacy());
        assert!(!evs[1].is_legacy());
    }
}
