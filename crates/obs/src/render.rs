//! Event-stream renderers: legacy text, full text, and JSON lines.
//!
//! [`legacy_line`] is contractually byte-identical to the strings the
//! pre-`cheri-obs` `Vec<String>` trace produced (pinned by the repo's
//! `tests/trace_golden.rs` golden files): it renders exactly the five
//! event kinds the old trace recorded and nothing else. [`full_line`]
//! renders every kind; [`json_line`] emits one JSON object per event for
//! machine consumption.

use std::fmt::Write as _;

use crate::event::MemEvent;

/// Render one event the way the legacy string trace did; `None` for event
/// kinds the legacy trace did not record.
#[must_use]
pub fn legacy_line(ev: &MemEvent) -> Option<String> {
    Some(match ev {
        MemEvent::Alloc {
            id,
            base,
            size,
            kind,
            name,
        } => format!("create @{id} '{name}' [{base:#x},+{size}) {kind:?}"),
        MemEvent::Free {
            id,
            base,
            end,
            dynamic,
        } => format!("kill @{id} [{base:#x},{end:#x}) dynamic={dynamic}"),
        MemEvent::Load { addr, size, intptr } => {
            format!("load {addr:#x} size={size} intptr={intptr}")
        }
        MemEvent::Store { addr, size } => format!("store {addr:#x} size={size}"),
        MemEvent::Memcpy { dst, src, n } => format!("memcpy {dst:#x} <- {src:#x} n={n}"),
        _ => return None,
    })
}

/// Render an event stream as the legacy trace lines (non-legacy events are
/// skipped, preserving the old trace's exact line sequence).
#[must_use]
pub fn legacy_lines(events: &[MemEvent]) -> Vec<String> {
    events.iter().filter_map(legacy_line).collect()
}

/// Render one event in the full text format: legacy kinds keep their legacy
/// rendering; the new kinds get one line each in the same terse style.
#[must_use]
pub fn full_line(ev: &MemEvent) -> String {
    if let Some(line) = legacy_line(ev) {
        return line;
    }
    match ev {
        MemEvent::CapDerive {
            from,
            to,
            tag_cleared,
        } => format!("cap-derive {from:#x} -> {to:#x} tag_cleared={tag_cleared}"),
        MemEvent::CapTagClear {
            addr,
            count,
            reason,
        } => format!("cap-tag-clear {addr:#x} slots={count} reason={}", reason.label()),
        MemEvent::RepCheck {
            size,
            reserved,
            padded,
        } => format!("rep-check size={size} reserved={reserved} padded={padded}"),
        MemEvent::Revoke { base, end, cleared } => {
            format!("revoke [{base:#x},{end:#x}) cleared={cleared}")
        }
        MemEvent::Ub(ub) => format!("ub {ub}"),
        MemEvent::Trap(t) => format!("trap {t}"),
        MemEvent::Exit(status) => format!("exit {status}"),
        _ => unreachable!("legacy kinds handled above"),
    }
}

/// Escape a string for inclusion in a JSON string literal, appending it
/// to `out`.
pub fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render one event as a single-line JSON object with a `"kind"` field.
#[must_use]
pub fn json_line(ev: &MemEvent) -> String {
    let mut s = String::with_capacity(64);
    let _ = write!(s, "{{\"kind\":\"{}\"", ev.kind().label());
    match ev {
        MemEvent::Alloc {
            id,
            base,
            size,
            kind,
            name,
        } => {
            let _ = write!(s, ",\"id\":{id},\"base\":{base},\"size\":{size},\"class\":\"{kind:?}\",\"name\":\"");
            json_escape(name.as_str(), &mut s);
            s.push('"');
        }
        MemEvent::Free {
            id,
            base,
            end,
            dynamic,
        } => {
            let _ = write!(s, ",\"id\":{id},\"base\":{base},\"end\":{end},\"dynamic\":{dynamic}");
        }
        MemEvent::Load { addr, size, intptr } => {
            let _ = write!(s, ",\"addr\":{addr},\"size\":{size},\"intptr\":{intptr}");
        }
        MemEvent::Store { addr, size } => {
            let _ = write!(s, ",\"addr\":{addr},\"size\":{size}");
        }
        MemEvent::Memcpy { dst, src, n } => {
            let _ = write!(s, ",\"dst\":{dst},\"src\":{src},\"n\":{n}");
        }
        MemEvent::CapDerive {
            from,
            to,
            tag_cleared,
        } => {
            let _ = write!(s, ",\"from\":{from},\"to\":{to},\"tag_cleared\":{tag_cleared}");
        }
        MemEvent::CapTagClear {
            addr,
            count,
            reason,
        } => {
            let _ = write!(
                s,
                ",\"addr\":{addr},\"count\":{count},\"reason\":\"{}\"",
                reason.label()
            );
        }
        MemEvent::RepCheck {
            size,
            reserved,
            padded,
        } => {
            let _ = write!(s, ",\"size\":{size},\"reserved\":{reserved},\"padded\":{padded}");
        }
        MemEvent::Revoke { base, end, cleared } => {
            let _ = write!(s, ",\"base\":{base},\"end\":{end},\"cleared\":{cleared}");
        }
        MemEvent::Ub(ub) => {
            let _ = write!(s, ",\"ub\":\"{}\"", ub.name());
        }
        MemEvent::Trap(t) => {
            let _ = write!(s, ",\"trap\":\"{t:?}\"");
        }
        MemEvent::Exit(status) => {
            let _ = write!(s, ",\"status\":{status}");
        }
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AllocClass, Name, TagClearReason};
    use crate::kinds::{TrapKind, Ub};

    #[test]
    fn legacy_lines_match_the_old_format_strings() {
        // These strings are the old `format!` calls from `CheriMemory`,
        // byte for byte (also pinned end-to-end by tests/trace_golden.rs).
        let alloc = MemEvent::Alloc {
            id: 1,
            base: 0x10000,
            size: 1,
            kind: AllocClass::Function,
            name: Name::new("main"),
        };
        assert_eq!(
            legacy_line(&alloc).unwrap(),
            "create @1 'main' [0x10000,+1) Function"
        );
        let free = MemEvent::Free {
            id: 3,
            base: 0xffffeff8,
            end: 0xfffff000,
            dynamic: false,
        };
        assert_eq!(
            legacy_line(&free).unwrap(),
            "kill @3 [0xffffeff8,0xfffff000) dynamic=false"
        );
        let load = MemEvent::Load {
            addr: 0xffffeff8,
            size: 4,
            intptr: false,
        };
        assert_eq!(
            legacy_line(&load).unwrap(),
            "load 0xffffeff8 size=4 intptr=false"
        );
        let store = MemEvent::Store {
            addr: 0xffffeffc,
            size: 4,
        };
        assert_eq!(legacy_line(&store).unwrap(), "store 0xffffeffc size=4");
        let memcpy = MemEvent::Memcpy {
            dst: 0x20000,
            src: 0x10000,
            n: 32,
        };
        assert_eq!(
            legacy_line(&memcpy).unwrap(),
            "memcpy 0x20000 <- 0x10000 n=32"
        );
        assert_eq!(legacy_line(&MemEvent::Exit(0)), None);
    }

    #[test]
    fn full_line_covers_every_kind() {
        let evs = [
            MemEvent::CapDerive {
                from: 0x10,
                to: 0x20,
                tag_cleared: true,
            },
            MemEvent::CapTagClear {
                addr: 0x10,
                count: 2,
                reason: TagClearReason::Revoked,
            },
            MemEvent::RepCheck {
                size: 3,
                reserved: 8,
                padded: true,
            },
            MemEvent::Revoke {
                base: 0x10,
                end: 0x20,
                cleared: 1,
            },
            MemEvent::Ub(Ub::DoubleFree),
            MemEvent::Trap(TrapKind::BoundsViolation),
            MemEvent::Exit(7),
        ];
        let lines: Vec<String> = evs.iter().map(full_line).collect();
        assert_eq!(lines[0], "cap-derive 0x10 -> 0x20 tag_cleared=true");
        assert_eq!(lines[1], "cap-tag-clear 0x10 slots=2 reason=revoked");
        assert_eq!(lines[2], "rep-check size=3 reserved=8 padded=true");
        assert_eq!(lines[3], "revoke [0x10,0x20) cleared=1");
        assert_eq!(lines[4], "ub UB_double_free");
        assert_eq!(lines[5], "trap capability bounds fault");
        assert_eq!(lines[6], "exit 7");
    }

    #[test]
    fn json_lines_are_well_formed() {
        let ev = MemEvent::Alloc {
            id: 2,
            base: 4096,
            size: 16,
            kind: AllocClass::Heap,
            name: Name::new("p\"q"),
        };
        assert_eq!(
            json_line(&ev),
            "{\"kind\":\"alloc\",\"id\":2,\"base\":4096,\"size\":16,\"class\":\"Heap\",\"name\":\"p\\\"q\"}"
        );
        assert_eq!(
            json_line(&MemEvent::Exit(-1)),
            "{\"kind\":\"exit\",\"status\":-1}"
        );
    }
}
