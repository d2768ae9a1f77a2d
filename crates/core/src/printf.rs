//! `printf`'s conversion specifications (C11 7.21.6.1), shared by
//! `printf` and `fprintf` on every engine.
//!
//! [`Spec::parse`] reads the flags (`- + space # 0`), the field width and
//! precision (`*` takes an `int` argument) and the length modifiers
//! (`hh h l ll z j t`) after a `%`. The interpreter fetches each
//! conversion's argument and renders it with [`Spec::int`],
//! [`Spec::float`] or [`Spec::pad`]. An integer argument is read at its
//! own width after the integer promotions, signed for `d`/`i` and
//! unsigned for `o u x X`; `hh` and `h` narrow it further, and the other
//! modifiers change nothing, since an argument already carries its width.

use crate::types::IntTy;

/// The widest field width or precision a conversion may ask for, in
/// bytes: a wider field would make the host allocate it.
pub const MAX_FIELD: usize = 1 << 16;

/// One conversion specification, without its conversion character.
#[derive(Debug, Default)]
pub struct Spec {
    /// `-`: left-justify within the field.
    left: bool,
    /// `+`: a signed conversion always has a sign.
    plus: bool,
    /// ` `: a signed conversion without a sign gets a space.
    space: bool,
    /// `#`: the alternative form.
    alt: bool,
    /// `0`: pad a number with leading zeros.
    zero: bool,
    /// The minimum field width, in bytes.
    width: usize,
    /// The precision, if given.
    pub prec: Option<usize>,
    /// `hh` or `h`: the width the argument is narrowed to, in bits.
    bits: Option<u32>,
}

impl Spec {
    /// Parse the specification that starts at `fmt[*at]`, just after its
    /// `%`, leaving `*at` on the conversion character. `star` yields the
    /// `int` argument of a `*` width or precision.
    pub fn parse(fmt: &[u8], at: &mut usize, mut star: impl FnMut() -> i128) -> Spec {
        let mut s = Spec::default();
        while let Some(&c) = fmt.get(*at) {
            match c {
                b'-' => s.left = true,
                b'+' => s.plus = true,
                b' ' => s.space = true,
                b'#' => s.alt = true,
                b'0' => s.zero = true,
                _ => break,
            }
            *at += 1;
        }
        if fmt.get(*at) == Some(&b'*') {
            *at += 1;
            // A negative width is a `-` flag and a positive width.
            let w = star() as i32;
            s.left |= w < 0;
            s.width = w.unsigned_abs() as usize;
        } else {
            s.width = digits(fmt, at);
        }
        if fmt.get(*at) == Some(&b'.') {
            *at += 1;
            s.prec = if fmt.get(*at) == Some(&b'*') {
                *at += 1;
                // A negative precision is taken as if it were omitted.
                usize::try_from(star() as i32).ok()
            } else {
                Some(digits(fmt, at))
            };
        }
        let rest = &fmt[*at..];
        let (bits, skip) = if rest.starts_with(b"hh") {
            (Some(8), 2)
        } else if rest.starts_with(b"ll") {
            (None, 2)
        } else {
            match rest.first() {
                Some(b'h') => (Some(16), 1),
                Some(b'l' | b'z' | b'j' | b't') => (None, 1),
                _ => (None, 0),
            }
        };
        s.bits = bits;
        *at += skip;
        s
    }

    /// The widest of the field width and the precision.
    pub fn field(&self) -> usize {
        self.width.max(self.prec.unwrap_or(0))
    }

    /// `v`, an argument of type `ity` (`None` for a non-integer), as the
    /// conversion reads it: at the argument's promoted width or the
    /// modifier's narrower one, as a signed or unsigned value.
    fn read_int(&self, v: i128, ity: Option<IntTy>, signed: bool) -> i128 {
        let own = ity.map_or(32, |t| t.value_bits().max(32));
        let as_ty = match (self.bits.unwrap_or(own), signed) {
            (8, true) => IntTy::SChar,
            (8, false) => IntTy::UChar,
            (16, true) => IntTy::Short,
            (16, false) => IntTy::UShort,
            (32, true) => IntTy::Int,
            (32, false) => IntTy::UInt,
            (_, true) => IntTy::Long,
            (_, false) => IntTy::ULong,
        };
        as_ty.wrap(v)
    }

    /// Append `prefix` (a sign or `0x`) and `body`, together `len` bytes
    /// of C output, padded to the field width: on the right for `-`, with
    /// zeros after the prefix when `zeros` holds, else with spaces first.
    pub fn pad(&self, out: &mut String, prefix: &str, body: &str, len: usize, zeros: bool) {
        let fill = self.width.saturating_sub(len);
        if self.left {
            out.push_str(prefix);
            out.push_str(body);
            out.extend(std::iter::repeat_n(' ', fill));
        } else if zeros {
            out.push_str(prefix);
            out.extend(std::iter::repeat_n('0', fill));
            out.push_str(body);
        } else {
            out.extend(std::iter::repeat_n(' ', fill));
            out.push_str(prefix);
            out.push_str(body);
        }
    }

    /// Append `v`, an argument of type `ity` (`None` for a non-integer),
    /// under the integer conversion `conv` (`d i o u x X`).
    pub fn int(&self, out: &mut String, conv: u8, v: i128, ity: Option<IntTy>) {
        let signed = matches!(conv, b'd' | b'i');
        let v = self.read_int(v, ity, signed);
        let mag = v.unsigned_abs();
        let mut body = match conv {
            b'o' => format!("{mag:o}"),
            b'x' => format!("{mag:x}"),
            b'X' => format!("{mag:X}"),
            _ => mag.to_string(),
        };
        if let Some(p) = self.prec {
            if p == 0 && mag == 0 {
                body.clear();
            }
            if body.len() < p {
                body.insert_str(0, &"0".repeat(p - body.len()));
            }
        }
        if conv == b'o' && self.alt && !body.starts_with('0') {
            body.insert(0, '0');
        }
        let prefix = match conv {
            _ if v < 0 => "-",
            _ if signed && self.plus => "+",
            _ if signed && self.space => " ",
            b'x' if self.alt && mag != 0 => "0x",
            b'X' if self.alt && mag != 0 => "0X",
            _ => "",
        };
        let zeros = self.zero && self.prec.is_none();
        self.pad(out, prefix, &body, prefix.len() + body.len(), zeros);
    }

    /// Append `f` under the floating conversion `conv` (`f F e E g G`).
    pub fn float(&self, out: &mut String, conv: u8, f: f64) {
        let upper = conv.is_ascii_uppercase();
        let sign = if f.is_sign_negative() {
            "-"
        } else if self.plus {
            "+"
        } else if self.space {
            " "
        } else {
            ""
        };
        if !f.is_finite() {
            let body = match (f.is_nan(), upper) {
                (true, false) => "nan",
                (true, true) => "NAN",
                (false, false) => "inf",
                (false, true) => "INF",
            };
            self.pad(out, sign, body, sign.len() + body.len(), false);
            return;
        }
        let a = f.abs();
        let prec = self.prec.unwrap_or(6);
        let body = match conv {
            b'f' | b'F' => self.fixed(a, prec),
            b'e' | b'E' => self.sci(a, prec, upper),
            _ => {
                // `g`: the style of `e` at precision P - 1 decides, by its
                // exponent X, between `f` and `e`; trailing zeros go.
                let p = prec.max(1);
                let x = exponent(&format!("{:.*e}", p - 1, a));
                let mut body = if x >= -4 && x < p as i32 {
                    self.fixed(a, (p as i32 - 1 - x) as usize)
                } else {
                    self.sci(a, p - 1, upper)
                };
                if !self.alt && body.contains('.') {
                    let cut = body.find(['e', 'E']).unwrap_or(body.len());
                    let kept = body[..cut]
                        .trim_end_matches('0')
                        .trim_end_matches('.')
                        .len();
                    body.replace_range(kept..cut, "");
                }
                body
            }
        };
        self.pad(out, sign, &body, sign.len() + body.len(), self.zero);
    }

    /// The `f` style of the magnitude `a`.
    fn fixed(&self, a: f64, prec: usize) -> String {
        let mut s = format!("{a:.prec$}");
        if self.alt && prec == 0 {
            s.push('.');
        }
        s
    }

    /// The `e` style of the magnitude `a`: an exponent of at least two
    /// digits, with its sign.
    fn sci(&self, a: f64, prec: usize, upper: bool) -> String {
        let s = format!("{a:.prec$e}");
        let (mant, _) = s.split_once('e').expect("exponent form");
        let x = exponent(&s);
        let dot = if self.alt && prec == 0 { "." } else { "" };
        let e = if upper { 'E' } else { 'e' };
        let sign = if x < 0 { '-' } else { '+' };
        format!("{mant}{dot}{e}{sign}{:02}", x.unsigned_abs())
    }
}

/// The decimal number at `fmt[*at..]`, saturating, and advance past it.
fn digits(fmt: &[u8], at: &mut usize) -> usize {
    let mut n = 0usize;
    while let Some(d) = fmt.get(*at).filter(|c| c.is_ascii_digit()) {
        n = n.saturating_mul(10).saturating_add(usize::from(d - b'0'));
        *at += 1;
    }
    n
}

/// The exponent of Rust's `{:e}` rendering of a finite number.
fn exponent(s: &str) -> i32 {
    s.split_once('e')
        .and_then(|(_, x)| x.parse().ok())
        .expect("exponent form")
}
