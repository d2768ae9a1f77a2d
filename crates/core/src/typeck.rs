//! Type checking and elaboration.
//!
//! Lowers the untyped AST to the typed IR, implementing:
//!
//! * integer promotions and the usual arithmetic conversions with the CHERI
//!   C rank rule (§3.7: `(u)intptr_t` outrank all standard integer types, so
//!   mixed arithmetic lands at the capability-carrying type);
//! * explicit capability derivation annotation on binary operations (§4.4):
//!   the result derives from the operand that was *not* converted from a
//!   non-capability type, ties to the left;
//! * explicit casts for every implicit conversion, array decay, and
//!   lvalue-to-rvalue conversion;
//! * the intrinsics' polymorphic type derivation (§4.5): `cheri_*`
//!   intrinsics accept any capability-carrying type and may return "the same
//!   type as argument 0".

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::ast::{self, BinOp, Expr, ExprKind, Init, Item, Stmt, StmtKind, UnOp};
use crate::lex::Pos;
use crate::parse::Parsed;
use crate::tast::*;
use crate::types::{FloatTy, IntTy, Ty, TypeTable};

/// Type error.
#[derive(Clone, Debug)]
pub struct TypeError {
    /// What went wrong.
    pub msg: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for TypeError {}

type TResult<T> = Result<T, TypeError>;

/// Signature of a declared function.
#[derive(Clone, Debug)]
struct FuncSig {
    ret: Ty,
    params: Vec<Ty>,
    variadic: bool,
    defined: bool,
}

/// Type-check a parsed translation unit.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered.
pub fn check(parsed: Parsed) -> TResult<TProgram> {
    let mut ck = Checker {
        types: parsed.types,
        globals: HashMap::new(),
        funcs: HashMap::new(),
        scopes: Vec::new(),
        counter: 0,
        ret_ty: Ty::Void,
        func: String::new(),
        locals: Vec::new(),
        static_base: 0,
        static_locals: Vec::new(),
        loops: 0,
        breakables: 0,
    };
    ck.program(parsed.program, parsed.static_locals)
}

/// Name resolution happens here and nowhere else: every variable
/// reference leaves the checker as a numbered [`TExprKind::LvLocal`] or
/// [`TExprKind::LvGlobal`]. The scopes map each name to that lvalue and
/// the object's type.
struct Checker {
    types: TypeTable,
    /// File-scope objects: declared globals and undeclared stream handles.
    globals: HashMap<String, (TExprKind, Ty)>,
    funcs: HashMap<String, FuncSig>,
    scopes: Vec<HashMap<String, (TExprKind, Ty)>>,
    counter: u64,
    ret_ty: Ty,
    /// The function being checked, and its locals table so far.
    func: String,
    locals: Vec<TLocal>,
    /// The number of declared globals, which take the first [`GlobalId`]s:
    /// the id of the first hoisted `static` local.
    static_base: u32,
    /// `static` locals hoisted to static storage (unique names).
    static_locals: Vec<TGlobal>,
    /// How many loops, and how many loops or `switch`es, enclose the
    /// statement being checked: `continue` needs a loop, `break` either.
    loops: u32,
    breakables: u32,
}

fn err<T>(pos: Pos, msg: impl Into<String>) -> TResult<T> {
    Err(TypeError {
        msg: msg.into(),
        pos,
    })
}

/// Look up the builtin for a name, honouring common aliases.
fn builtin_by_name(name: &str) -> Option<Builtin> {
    use Builtin::*;
    Some(match name {
        "printf" => Printf,
        "fprintf" => Fprintf,
        "assert" => Assert,
        "abort" => Abort,
        "exit" => Exit,
        "malloc" => Malloc,
        "calloc" => Calloc,
        "free" => Free,
        "realloc" => Realloc,
        "memcpy" => Memcpy,
        "memmove" => Memmove,
        "memset" => Memset,
        "memcmp" => Memcmp,
        "strlen" => Strlen,
        "strcmp" => Strcmp,
        "strcpy" => Strcpy,
        "print_cap" | "__print_cap" => PrintCap,
        "fabs" | "fabsf" => Fabs,
        "sqrt" | "sqrtf" => Sqrt,
        "cheri_tag_get" | "__builtin_cheri_tag_get" => CheriTagGet,
        "cheri_tag_clear" | "__builtin_cheri_tag_clear" => CheriTagClear,
        "cheri_is_valid" => CheriIsValid,
        "cheri_address_get" | "__builtin_cheri_address_get" => CheriAddressGet,
        "cheri_address_set" | "__builtin_cheri_address_set" => CheriAddressSet,
        "cheri_base_get" | "__builtin_cheri_base_get" => CheriBaseGet,
        "cheri_length_get" | "__builtin_cheri_length_get" => CheriLengthGet,
        "cheri_offset_get" | "__builtin_cheri_offset_get" => CheriOffsetGet,
        "cheri_offset_set" | "__builtin_cheri_offset_set" => CheriOffsetSet,
        "cheri_perms_get" | "__builtin_cheri_perms_get" => CheriPermsGet,
        "cheri_perms_and" | "__builtin_cheri_perms_and" => CheriPermsAnd,
        "cheri_bounds_set" | "__builtin_cheri_bounds_set" => CheriBoundsSet,
        "cheri_bounds_set_exact" => CheriBoundsSetExact,
        "cheri_is_equal_exact" => CheriIsEqualExact,
        "cheri_is_subset" => CheriIsSubset,
        "cheri_representable_length" => CheriReprLength,
        "cheri_representable_alignment_mask" => CheriReprAlignMask,
        "cheri_sentry_create" => CheriSentryCreate,
        "cheri_seal" => CheriSeal,
        "cheri_unseal" => CheriUnseal,
        "cheri_is_sealed" => CheriIsSealed,
        "cheri_type_get" => CheriTypeGet,
        "cheri_flags_get" => CheriFlagsGet,
        "cheri_flags_set" => CheriFlagsSet,
        "cheri_ddc_get" => CheriDdcGet,
        "cheri_pcc_get" => CheriPccGet,
        _ => return None,
    })
}

impl Checker {
    fn unique(&mut self, name: &str) -> String {
        self.counter += 1;
        format!("{name}#{}", self.counter)
    }

    // ── Program structure ────────────────────────────────────────────────

    fn program(&mut self, prog: ast::Program, static_locals: u32) -> TResult<TProgram> {
        // First pass: record signatures and global types so forward
        // references work. A file-scope object declared again is the
        // object its first declaration made (C11 6.9.2), at the same type.
        for item in &prog.items {
            match item {
                Item::Func(f) => {
                    let sig = FuncSig {
                        ret: f.ret.clone(),
                        params: f.params.iter().map(|p| p.ty.clone()).collect(),
                        variadic: f.variadic,
                        defined: f.body.is_some(),
                    };
                    match self.funcs.get(&f.name) {
                        Some(old) if old.defined && f.body.is_some() => {
                            return err(f.pos, format!("redefinition of `{}`", f.name))
                        }
                        Some(old) if old.defined => {}
                        _ => {
                            self.funcs.insert(f.name.clone(), sig);
                        }
                    }
                }
                Item::Global(g) => {
                    let ty = self.complete_decl_ty(&g.ty, g.init.as_ref(), g.pos)?;
                    match self.globals.get(&g.name) {
                        Some((_, first)) if *first != ty => {
                            return err(g.pos, format!("conflicting types for `{}`", g.name))
                        }
                        Some(_) => {}
                        None => {
                            let id = GlobalId(self.static_base);
                            self.static_base += 1;
                            self.globals.insert(g.name.clone(), (TExprKind::LvGlobal(id), ty));
                        }
                    }
                }
            }
        }
        // Predefined stream globals so `fprintf(stderr, ...)` type-checks;
        // they are numbered after the hoisted `static` locals.
        let mut streams = Vec::new();
        for stream in ["stderr", "stdout"] {
            if !self.globals.contains_key(stream) {
                let id = GlobalId(self.static_base + static_locals + streams.len() as u32);
                self.globals
                    .insert(stream.to_string(), (TExprKind::LvGlobal(id), Ty::ptr(Ty::Void)));
                streams.push(stream);
            }
        }
        let mut globals: Vec<TGlobal> = Vec::new();
        let mut funcs = BTreeMap::new();
        for item in prog.items {
            match item {
                Item::Global(g) => {
                    let (kind, ty) = self.globals[&g.name].clone();
                    let init = match g.init {
                        Some(init) => Some(self.init(&ty, init, g.pos)?),
                        None => None,
                    };
                    // First declarations arrive in `GlobalId` order, so a
                    // name whose id is already in `globals` is redeclared.
                    let first = match kind {
                        TExprKind::LvGlobal(id) if (id.0 as usize) < globals.len() => {
                            &mut globals[id.0 as usize]
                        }
                        _ => {
                            globals.push(TGlobal {
                                name: g.name,
                                ty,
                                is_const: g.is_const,
                                init,
                                pos: g.pos,
                                func: None,
                            });
                            continue;
                        }
                    };
                    if first.is_const != g.is_const {
                        return err(g.pos, format!("conflicting types for `{}`", g.name));
                    }
                    if init.is_some() {
                        if first.init.is_some() {
                            return err(g.pos, format!("redefinition of `{}`", g.name));
                        }
                        first.init = init;
                    }
                }
                Item::Func(f) => {
                    if let Some(body) = f.body {
                        let tf = self.function(&f.name, f.ret, f.params, f.variadic, body, f.pos)?;
                        funcs.insert(f.name.clone(), Box::new(tf));
                    }
                }
            }
        }
        if !funcs.contains_key("main") {
            return err(Pos::default(), "no `main` function defined");
        }
        // Hoisted `static` locals get static storage, initialised at
        // start-up like any other global.
        globals.append(&mut self.static_locals);
        Ok(TProgram {
            types: std::mem::take(&mut self.types),
            globals,
            streams,
            funcs,
        })
    }

    /// Complete an object type from its initialiser (unsized arrays). The
    /// result has a size.
    fn complete_decl_ty(&self, ty: &Ty, init: Option<&Init>, pos: Pos) -> TResult<Ty> {
        let ty = match ty {
            Ty::Array(elem, None) => {
                let n = match init {
                    Some(Init::List(items)) => items.len() as u64,
                    Some(Init::Expr(Expr {
                        kind: ExprKind::StrLit(s),
                        ..
                    })) => s.len() as u64 + 1,
                    _ => return err(pos, "unsized array needs an initialiser"),
                };
                Ty::Array(elem.clone(), Some(n))
            }
            _ => ty.clone(),
        };
        self.size(&ty, pos)?;
        Ok(ty)
    }

    /// The size of `ty`, which the program takes at `pos`: an error if
    /// `ty` has none.
    fn size(&self, ty: &Ty, pos: Pos) -> TResult<u64> {
        self.types
            .object_size(ty)
            .map_err(|msg| TypeError { msg, pos })
    }

    fn function(
        &mut self,
        name: &str,
        ret: Ty,
        params: Vec<ast::Param>,
        variadic: bool,
        body: Vec<Stmt>,
        pos: Pos,
    ) -> TResult<TFunc> {
        self.scopes.push(HashMap::new());
        self.func = name.to_string();
        for p in params {
            let mut ty = p.ty;
            if let Ty::Array(elem, _) = ty {
                ty = Ty::ptr(*elem);
            }
            self.size(&ty, pos)?;
            self.declare_local(p.name, ty);
        }
        let n_params = self.locals.len();
        self.ret_ty = ret.clone();
        let body = self.block(body)?;
        self.scopes.pop();
        Ok(TFunc {
            name: name.to_string(),
            ret,
            locals: std::mem::take(&mut self.locals).into_boxed_slice(),
            n_params,
            variadic,
            body,
            pos,
        })
    }

    /// Bring the local object `name` into the innermost scope as the next
    /// entry of the function's locals table.
    fn declare_local(&mut self, name: String, ty: Ty) -> LocalId {
        let id = LocalId(self.locals.len() as u32);
        let unique = self.unique(&name);
        self.scopes
            .last_mut()
            .expect("scope")
            .insert(name, (TExprKind::LvLocal(id), ty.clone()));
        self.locals.push(TLocal { name: unique, ty });
        id
    }

    // ── Statements ───────────────────────────────────────────────────────

    fn block(&mut self, stmts: Vec<Stmt>) -> TResult<Vec<TStmt>> {
        stmts.into_iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: Stmt) -> TResult<TStmt> {
        let pos = s.pos;
        Ok(match s.kind {
            StmtKind::Decl(d) => {
                let ty = self.complete_decl_ty(&d.ty, d.init.as_ref(), d.pos)?;
                let init = match d.init {
                    Some(i) => Some(self.init(&ty, i, d.pos)?),
                    None => None,
                };
                if d.is_static {
                    // Static local: static storage duration; the scope maps
                    // the name to the hoisted global.
                    let unique = self.unique(&d.name);
                    let id = GlobalId(self.static_base + self.static_locals.len() as u32);
                    self.scopes
                        .last_mut()
                        .expect("scope")
                        .insert(d.name, (TExprKind::LvGlobal(id), ty.clone()));
                    self.static_locals.push(TGlobal {
                        name: unique,
                        ty,
                        is_const: d.is_const,
                        init,
                        pos,
                        func: Some(self.func.clone()),
                    });
                    return Ok(TStmt::Empty);
                }
                TStmt::Decl {
                    local: self.declare_local(d.name, ty),
                    is_const: d.is_const,
                    init,
                    pos,
                }
            }
            StmtKind::Expr(e) => {
                let te = self.expr_any(e)?;
                TStmt::Expr(te)
            }
            StmtKind::Block(body) => {
                self.scopes.push(HashMap::new());
                let b = self.block(body)?;
                self.scopes.pop();
                TStmt::Block(b)
            }
            StmtKind::DeclGroup(decls) => TStmt::Block(self.block(decls)?),
            StmtKind::If(c, t, e) => {
                let c = self.scalar_test(c)?;
                let t = Box::new(self.stmt(*t)?);
                let e = match e {
                    Some(e) => Some(Box::new(self.stmt(*e)?)),
                    None => None,
                };
                TStmt::If(c, t, e)
            }
            StmtKind::While(c, b) => {
                let c = self.scalar_test(c)?;
                TStmt::While(c, Box::new(self.loop_body(*b)?))
            }
            StmtKind::DoWhile(b, c) => {
                let b = Box::new(self.loop_body(*b)?);
                let c = self.scalar_test(c)?;
                TStmt::DoWhile(b, c)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let init = match init {
                    Some(s) => Some(Box::new(self.stmt(*s)?)),
                    None => None,
                };
                let cond = match cond {
                    Some(c) => Some(self.scalar_test(c)?),
                    None => None,
                };
                let step = match step {
                    Some(e) => Some(self.expr_any(e)?),
                    None => None,
                };
                let body = Box::new(self.loop_body(*body)?);
                self.scopes.pop();
                TStmt::For {
                    init,
                    cond,
                    step,
                    body,
                }
            }
            StmtKind::Switch(scrut, cases) => {
                let scrut = self.rvalue(scrut)?;
                let scrut = self.promote(scrut);
                let mut tcases = Vec::new();
                for c in cases {
                    let v = match c.value {
                        Some(e) => {
                            let te = self.rvalue(e)?;
                            match fold_const(&te) {
                                Some(v) => Some(v),
                                None => return err(pos, "case label is not constant"),
                            }
                        }
                        None => None,
                    };
                    self.scopes.push(HashMap::new());
                    self.breakables += 1;
                    let body = self.block(c.body);
                    self.breakables -= 1;
                    self.scopes.pop();
                    tcases.push((v, body?));
                }
                TStmt::Switch(scrut, tcases)
            }
            StmtKind::Return(e) => {
                let e = match e {
                    Some(e) => {
                        let te = self.rvalue(e)?;
                        let ret = self.ret_ty.clone();
                        Some(self.convert(te, &ret, false)?)
                    }
                    None => None,
                };
                TStmt::Return(e)
            }
            // C11 6.8.6.3p1 and 6.8.6.2p1.
            StmtKind::Break if self.breakables == 0 => {
                return err(pos, "`break` outside a loop or `switch`");
            }
            StmtKind::Continue if self.loops == 0 => {
                return err(pos, "`continue` outside a loop");
            }
            StmtKind::Break => TStmt::Break,
            StmtKind::Continue => TStmt::Continue,
            StmtKind::Empty => TStmt::Empty,
        })
    }

    /// Check a loop body, where `break` and `continue` may appear.
    fn loop_body(&mut self, body: Stmt) -> TResult<TStmt> {
        self.loops += 1;
        self.breakables += 1;
        let body = self.stmt(body);
        self.loops -= 1;
        self.breakables -= 1;
        body
    }

    fn init(&mut self, ty: &Ty, init: Init, pos: Pos) -> TResult<TInit> {
        match (ty, init) {
            (Ty::Array(elem, _), Init::Expr(e)) if is_char(elem) => match e.kind {
                ExprKind::StrLit(s) => Ok(TInit::Str(s)),
                _ => err(pos, "char array initialiser must be a string literal"),
            },
            (_, Init::Expr(e)) => {
                let te = self.rvalue(e)?;
                Ok(TInit::Scalar(self.convert(te, ty, false)?))
            }
            (Ty::Array(elem, len), Init::List(items)) => {
                if let Some(len) = len {
                    if items.len() as u64 > *len {
                        return err(pos, "too many array initialisers");
                    }
                }
                let items = items
                    .into_iter()
                    .map(|i| self.init(elem, i, pos))
                    .collect::<TResult<Vec<_>>>()?;
                Ok(TInit::List(items))
            }
            (Ty::Struct(id), Init::List(items)) => {
                let fields: Vec<Ty> = self.types.structs[id.0]
                    .fields
                    .iter()
                    .map(|f| f.ty.clone())
                    .collect();
                if items.len() > fields.len() {
                    return err(pos, "too many struct initialisers");
                }
                let items = items
                    .into_iter()
                    .zip(fields.iter())
                    .map(|(i, fty)| self.init(fty, i, pos))
                    .collect::<TResult<Vec<_>>>()?;
                Ok(TInit::List(items))
            }
            (Ty::Union(id), Init::List(mut items)) => {
                if items.len() != 1 {
                    return err(pos, "union initialiser must have exactly one element");
                }
                let fty = self.types.structs[id.0].fields[0].ty.clone();
                let i = self.init(&fty, items.remove(0), pos)?;
                Ok(TInit::List(vec![i]))
            }
            _ => err(pos, format!("invalid initialiser for type {ty}")),
        }
    }

    // ── Expressions ──────────────────────────────────────────────────────

    /// Typecheck in any-value position (result may be discarded).
    fn expr_any(&mut self, e: Expr) -> TResult<TExpr> {
        self.rvalue(e)
    }

    /// Typecheck to a condition (scalar, used for truth tests).
    fn scalar_test(&mut self, e: Expr) -> TResult<TExpr> {
        let pos = e.pos;
        let te = self.rvalue(e)?;
        // A function designator tests as a (non-null) pointer.
        let te = self.decay_func(te);
        if !te.ty.is_scalar() {
            return err(pos, format!("expected scalar condition, got {}", te.ty));
        }
        Ok(te)
    }

    /// Typecheck and apply lvalue-to-rvalue / decay conversions.
    fn rvalue(&mut self, e: Expr) -> TResult<TExpr> {
        let te = self.expr(e)?;
        Ok(self.coerce_rvalue(te))
    }

    fn coerce_rvalue(&mut self, te: TExpr) -> TExpr {
        let pos = te.pos;
        match (&te.ty, te.is_lvalue()) {
            (Ty::Array(elem, _), true) => {
                let ty = Ty::ptr((**elem).clone());
                TExpr {
                    ty,
                    pos,
                    from_noncap: false,
                    kind: TExprKind::Decay(Box::new(te)),
                }
            }
            // `*f` designates the function `f` points to; its value is `f`.
            (Ty::Func { .. }, true) => self.decay_func(te),
            (Ty::Func { .. }, false) => te, // function designators stay; calls/decay handle them
            (_, true) => TExpr {
                ty: te.ty.clone(),
                pos,
                from_noncap: false,
                kind: TExprKind::Load(Box::new(te)),
            },
            _ => te,
        }
    }

    fn lvalue(&mut self, e: Expr) -> TResult<TExpr> {
        let pos = e.pos;
        let te = self.expr(e)?;
        // A function designator such as `*f` names no object.
        if !te.is_lvalue() || matches!(te.ty, Ty::Func { .. }) {
            return err(pos, "expected an lvalue");
        }
        Ok(te)
    }

    fn lookup_var(&self, name: &str) -> Option<&(TExprKind, Ty)> {
        self.scopes
            .iter()
            .rev()
            .find_map(|scope| scope.get(name))
            .or_else(|| self.globals.get(name))
    }

    fn expr(&mut self, e: Expr) -> TResult<TExpr> {
        let pos = e.pos;
        match e.kind {
            ExprKind::IntLit {
                value,
                unsigned,
                long,
            } => {
                // Literal typing: first of int/long/long long that fits,
                // with unsignedness from the suffix (or forced for large
                // hex literals).
                let v = value as i128;
                let ity = match (unsigned, long) {
                    (false, false) => {
                        if IntTy::Int.fits(v) {
                            IntTy::Int
                        } else if IntTy::Long.fits(v) {
                            IntTy::Long
                        } else {
                            IntTy::ULong
                        }
                    }
                    (true, false) => {
                        if IntTy::UInt.fits(v) {
                            IntTy::UInt
                        } else {
                            IntTy::ULong
                        }
                    }
                    (false, true) => {
                        if IntTy::Long.fits(v) {
                            IntTy::Long
                        } else {
                            IntTy::ULong
                        }
                    }
                    (true, true) => IntTy::ULong,
                };
                Ok(const_int(ity, ity.wrap(v), pos))
            }
            ExprKind::FloatLit { value, single } => Ok(TExpr {
                ty: Ty::Float(if single { FloatTy::F32 } else { FloatTy::F64 }),
                kind: TExprKind::ConstFloat(value),
                pos,
                from_noncap: true,
            }),
            ExprKind::CharLit(c) => Ok(const_int(IntTy::Int, i128::from(c), pos)),
            ExprKind::StrLit(s) => Ok(TExpr {
                ty: Ty::Ptr {
                    pointee: Box::new(Ty::Int(IntTy::Char)),
                    const_pointee: true,
                },
                kind: TExprKind::StrLit(s),
                pos,
                from_noncap: false,
            }),
            ExprKind::Ident(name) => {
                if let Some((kind, ty)) = self.lookup_var(&name) {
                    return Ok(TExpr {
                        ty: ty.clone(),
                        kind: kind.clone(),
                        pos,
                        from_noncap: false,
                    });
                }
                if let Some(sig) = self.funcs.get(&name) {
                    let ty = Ty::Func {
                        ret: Box::new(sig.ret.clone()),
                        params: sig.params.clone(),
                        variadic: sig.variadic,
                    };
                    return Ok(TExpr {
                        ty,
                        kind: TExprKind::FuncAddr(name),
                        pos,
                        from_noncap: false,
                    });
                }
                err(pos, format!("unknown identifier `{name}`"))
            }
            ExprKind::Binary(op, l, r) => self.binary(op, *l, *r, pos),
            ExprKind::Unary(op, a) => self.unary(op, *a, pos),
            ExprKind::Assign { op, lhs, rhs } => self.assign(op, *lhs, *rhs, pos),
            ExprKind::IncDec { inc, prefix, arg } => {
                let lv = self.lvalue(*arg)?;
                let (ty, elem) = match &lv.ty {
                    Ty::Int(_) => (lv.ty.clone(), 0),
                    Ty::Ptr { pointee, .. } => (lv.ty.clone(), self.size(pointee, pos)?),
                    t => return err(pos, format!("cannot increment value of type {t}")),
                };
                Ok(TExpr {
                    ty,
                    kind: TExprKind::IncDec {
                        lv: Box::new(lv),
                        inc,
                        prefix,
                        elem,
                    },
                    pos,
                    from_noncap: false,
                })
            }
            ExprKind::Call { callee, args } => self.call(*callee, args, pos),
            ExprKind::Index(base, idx) => {
                let base = self.rvalue(*base)?;
                let idx = self.rvalue(*idx)?;
                let (pointee, elem) = match &base.ty {
                    Ty::Ptr { pointee, .. } => ((**pointee).clone(), self.size(pointee, pos)?),
                    t => return err(pos, format!("cannot index value of type {t}")),
                };
                let idx = self.promote(idx);
                if idx.int_ty().is_none() {
                    return err(pos, "array index must be an integer");
                }
                let ptr = TExpr {
                    ty: base.ty.clone(),
                    kind: TExprKind::PtrAdd {
                        ptr: Box::new(base),
                        idx: Box::new(idx),
                        elem,
                        neg: false,
                    },
                    pos,
                    from_noncap: false,
                };
                Ok(TExpr {
                    ty: pointee,
                    kind: TExprKind::LvDeref(Box::new(ptr)),
                    pos,
                    from_noncap: false,
                })
            }
            ExprKind::Member(base, field) => {
                let base = self.lvalue(*base)?;
                let id = match &base.ty {
                    Ty::Struct(id) | Ty::Union(id) => *id,
                    t => return err(pos, format!("member access on non-aggregate type {t}")),
                };
                let f = self
                    .types
                    .field(id, &field)
                    .cloned()
                    .ok_or_else(|| TypeError {
                        msg: format!("no field `{field}`"),
                        pos,
                    })?;
                Ok(TExpr {
                    ty: f.ty,
                    kind: TExprKind::LvMember(Box::new(base), f.offset),
                    pos,
                    from_noncap: false,
                })
            }
            ExprKind::Arrow(base, field) => {
                let base = self.rvalue(*base)?;
                let id = match &base.ty {
                    Ty::Ptr { pointee, .. } => match &**pointee {
                        Ty::Struct(id) | Ty::Union(id) => *id,
                        t => return err(pos, format!("`->` on pointer to {t}")),
                    },
                    t => return err(pos, format!("`->` on non-pointer type {t}")),
                };
                let f = self
                    .types
                    .field(id, &field)
                    .cloned()
                    .ok_or_else(|| TypeError {
                        msg: format!("no field `{field}`"),
                        pos,
                    })?;
                let deref = TExpr {
                    ty: match &base.ty {
                        Ty::Ptr { pointee, .. } => (**pointee).clone(),
                        _ => unreachable!("checked above"),
                    },
                    kind: TExprKind::LvDeref(Box::new(base)),
                    pos,
                    from_noncap: false,
                };
                Ok(TExpr {
                    ty: f.ty,
                    kind: TExprKind::LvMember(Box::new(deref), f.offset),
                    pos,
                    from_noncap: false,
                })
            }
            ExprKind::Deref(p) => {
                let p = self.rvalue(*p)?;
                match p.ty.clone() {
                    // Through a function pointer this is a function
                    // designator, so `sizeof` sees the function type.
                    Ty::Ptr { pointee, .. } => Ok(TExpr {
                        ty: *pointee,
                        kind: TExprKind::LvDeref(Box::new(p)),
                        pos,
                        from_noncap: false,
                    }),
                    Ty::Func { .. } => Ok(p),
                    t => err(pos, format!("cannot dereference value of type {t}")),
                }
            }
            ExprKind::AddrOf(a) => {
                let a = self.expr(*a)?;
                match (&a.ty, &a.kind) {
                    (Ty::Func { .. }, _) => Ok(self.decay_func(a)),
                    (_, _) if a.is_lvalue() => {
                        let ty = Ty::ptr(a.ty.clone());
                        Ok(TExpr {
                            ty,
                            kind: TExprKind::AddrOf(Box::new(a)),
                            pos,
                            from_noncap: false,
                        })
                    }
                    _ => err(pos, "cannot take the address of this expression"),
                }
            }
            ExprKind::Cast(to, arg) => {
                let arg = self.rvalue(*arg)?;
                self.convert(arg, &to, true)
            }
            ExprKind::SizeofTy(t) => Ok(const_int(IntTy::ULong, self.size(&t, pos)?.into(), pos)),
            ExprKind::SizeofExpr(arg) => {
                let a = self.expr(*arg)?;
                Ok(const_int(IntTy::ULong, self.size(&a.ty, pos)?.into(), pos))
            }
            ExprKind::AlignofTy(t) => {
                Ok(const_int(IntTy::ULong, self.types.align_of(&t) as i128, pos))
            }
            ExprKind::Cond(c, t, f) => {
                let c = self.scalar_test(*c)?;
                let t = self.rvalue(*t)?;
                let f = self.rvalue(*f)?;
                // Result type: usual conversions for ints; common pointer
                // type for pointers (left biased).
                let (t, f, ty) = if let (Some(lt), Some(rt)) = (t.int_ty(), f.int_ty()) {
                    let common = usual_arith_ty(lt, rt);
                    let t = self.convert(t, &Ty::Int(common), false)?;
                    let f = self.convert(f, &Ty::Int(common), false)?;
                    let ty = Ty::Int(common);
                    (t, f, ty)
                } else {
                    let ty = t.ty.clone();
                    let f = self.convert(f, &ty, false)?;
                    (t, f, ty)
                };
                Ok(TExpr {
                    ty,
                    kind: TExprKind::Cond {
                        c: Box::new(c),
                        t: Box::new(t),
                        f: Box::new(f),
                    },
                    pos,
                    from_noncap: false,
                })
            }
            ExprKind::Comma(a, b) => {
                let a = self.expr_any(*a)?;
                let b = self.rvalue(*b)?;
                let ty = b.ty.clone();
                Ok(TExpr {
                    ty,
                    kind: TExprKind::Comma(Box::new(a), Box::new(b)),
                    pos,
                    from_noncap: false,
                })
            }
        }
    }

    /// A function designator decays to a pointer to the function (C11
    /// 6.3.2.1p4); any other expression is returned as it is.
    fn decay_func(&mut self, f: TExpr) -> TExpr {
        if !matches!(f.ty, Ty::Func { .. }) {
            return f;
        }
        if let TExprKind::LvDeref(p) = f.kind {
            return *p; // `*f` decays back to `f`
        }
        let pos = f.pos;
        let ty = Ty::ptr(f.ty.clone());
        TExpr {
            ty,
            kind: f.kind,
            pos,
            from_noncap: false,
        }
    }

    /// Integer promotion: types ranking below `int` promote to `int`.
    fn promote(&mut self, e: TExpr) -> TExpr {
        if let Some(it) = e.int_ty() {
            if it.rank() < IntTy::Int.rank() {
                return self
                    .convert(e, &Ty::int(), false)
                    .expect("int promotion cannot fail");
            }
        }
        e
    }

    fn binary(&mut self, op: BinOp, l: Expr, r: Expr, pos: Pos) -> TResult<TExpr> {
        if matches!(op, BinOp::LogAnd | BinOp::LogOr) {
            let l = self.scalar_test(l)?;
            let r = self.scalar_test(r)?;
            return Ok(TExpr {
                ty: Ty::int(),
                kind: TExprKind::Logical {
                    and: op == BinOp::LogAnd,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                },
                pos,
                from_noncap: false,
            });
        }
        let l = self.rvalue(l)?;
        let r = self.rvalue(r)?;
        let l = self.decay_func(l);
        let r = self.decay_func(r);

        if op.is_comparison() {
            return self.comparison(op, l, r, pos);
        }
        match (op, l.ty.is_ptr(), r.ty.is_ptr()) {
            (BinOp::Add | BinOp::Sub, true, false) => {
                let elem = self.size(l.ty.pointee().expect("pointer"), pos)?;
                let idx = self.promote(r);
                if idx.int_ty().is_none() {
                    return err(pos, "pointer arithmetic needs an integer operand");
                }
                let ty = l.ty.clone();
                Ok(TExpr {
                    ty,
                    kind: TExprKind::PtrAdd {
                        ptr: Box::new(l),
                        idx: Box::new(idx),
                        elem,
                        neg: op == BinOp::Sub,
                    },
                    pos,
                    from_noncap: false,
                })
            }
            (BinOp::Add, false, true) => {
                let elem = self.size(r.ty.pointee().expect("pointer"), pos)?;
                let idx = self.promote(l);
                let ty = r.ty.clone();
                Ok(TExpr {
                    ty,
                    kind: TExprKind::PtrAdd {
                        ptr: Box::new(r),
                        idx: Box::new(idx),
                        elem,
                        neg: false,
                    },
                    pos,
                    from_noncap: false,
                })
            }
            (BinOp::Sub, true, true) => {
                let elem = self.size(l.ty.pointee().expect("pointer"), pos)?;
                Ok(TExpr {
                    ty: Ty::Int(IntTy::Long),
                    kind: TExprKind::PtrDiff {
                        a: Box::new(l),
                        b: Box::new(r),
                        elem,
                    },
                    pos,
                    from_noncap: false,
                })
            }
            _ if l.ty.as_float().is_some() || r.ty.as_float().is_some() => {
                if !matches!(
                    op,
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div
                ) {
                    return err(pos, format!("invalid floating-point operator {op:?}"));
                }
                let common = float_common(&l.ty, &r.ty)
                    .ok_or_else(|| TypeError {
                        msg: format!("invalid operands: {} and {}", l.ty, r.ty),
                        pos,
                    })?;
                let l = self.convert(l, &Ty::Float(common), false)?;
                let r = self.convert(r, &Ty::Float(common), false)?;
                Ok(TExpr {
                    ty: Ty::Float(common),
                    kind: TExprKind::Binary {
                        op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                        derive: DeriveFrom::Left,
                    },
                    pos,
                    from_noncap: true,
                })
            }
            _ => {
                let (lt, rt) = match (l.int_ty(), r.int_ty()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        return err(
                            pos,
                            format!("invalid operands to binary op: {} and {}", l.ty, r.ty),
                        )
                    }
                };
                // Shifts take the promoted left type; everything else uses
                // the usual arithmetic conversions.
                if matches!(op, BinOp::Shl | BinOp::Shr) {
                    let l = self.promote(l);
                    let r = self.promote(r);
                    let ty = l.ty.clone();
                    return Ok(TExpr {
                        ty,
                        kind: TExprKind::Binary {
                            op,
                            lhs: Box::new(l),
                            rhs: Box::new(r),
                            derive: DeriveFrom::Left,
                        },
                        pos,
                        from_noncap: false,
                    });
                }
                let common = usual_arith_ty(lt, rt);
                let l = self.convert(l, &Ty::Int(common), false)?;
                let r = self.convert(r, &Ty::Int(common), false)?;
                let derive = derive_from(&l, &r);
                Ok(TExpr {
                    ty: Ty::Int(common),
                    kind: TExprKind::Binary {
                        op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                        derive,
                    },
                    pos,
                    from_noncap: false,
                })
            }
        }
    }

    fn comparison(&mut self, op: BinOp, l: TExpr, r: TExpr, pos: Pos) -> TResult<TExpr> {
        match (l.ty.is_ptr(), r.ty.is_ptr()) {
            (true, true) => Ok(TExpr {
                ty: Ty::int(),
                kind: TExprKind::PtrCmp {
                    op,
                    a: Box::new(l),
                    b: Box::new(r),
                },
                pos,
                from_noncap: false,
            }),
            (true, false) => {
                let ty = l.ty.clone();
                let r = self.convert(r, &ty, false)?;
                Ok(TExpr {
                    ty: Ty::int(),
                    kind: TExprKind::PtrCmp {
                        op,
                        a: Box::new(l),
                        b: Box::new(r),
                    },
                    pos,
                    from_noncap: false,
                })
            }
            (false, true) => {
                let ty = r.ty.clone();
                let l = self.convert(l, &ty, false)?;
                Ok(TExpr {
                    ty: Ty::int(),
                    kind: TExprKind::PtrCmp {
                        op,
                        a: Box::new(l),
                        b: Box::new(r),
                    },
                    pos,
                    from_noncap: false,
                })
            }
            (false, false) if l.ty.as_float().is_some() || r.ty.as_float().is_some() => {
                let common = float_common(&l.ty, &r.ty)
                    .ok_or_else(|| TypeError {
                        msg: "invalid comparison operands".into(),
                        pos,
                    })?;
                let l = self.convert(l, &Ty::Float(common), false)?;
                let r = self.convert(r, &Ty::Float(common), false)?;
                Ok(TExpr {
                    ty: Ty::int(),
                    kind: TExprKind::Binary {
                        op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                        derive: DeriveFrom::Left,
                    },
                    pos,
                    from_noncap: false,
                })
            }
            (false, false) => {
                let (lt, rt) = match (l.int_ty(), r.int_ty()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return err(pos, "invalid comparison operands"),
                };
                let common = usual_arith_ty(lt, rt);
                let l = self.convert(l, &Ty::Int(common), false)?;
                let r = self.convert(r, &Ty::Int(common), false)?;
                Ok(TExpr {
                    ty: Ty::int(),
                    kind: TExprKind::Binary {
                        op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                        derive: DeriveFrom::Left,
                    },
                    pos,
                    from_noncap: false,
                })
            }
        }
    }

    fn unary(&mut self, op: UnOp, a: Expr, pos: Pos) -> TResult<TExpr> {
        let a = self.rvalue(a)?;
        match op {
            UnOp::LogNot => {
                let a = self.decay_func(a);
                if !a.ty.is_scalar() {
                    return err(pos, "`!` needs a scalar operand");
                }
                Ok(TExpr {
                    ty: Ty::int(),
                    kind: TExprKind::Unary(op, Box::new(a)),
                    pos,
                    from_noncap: false,
                })
            }
            UnOp::Neg | UnOp::Plus if a.ty.as_float().is_some() => {
                let ty = a.ty.clone();
                Ok(TExpr {
                    ty,
                    kind: TExprKind::Unary(op, Box::new(a)),
                    pos,
                    from_noncap: true,
                })
            }
            _ => {
                let a = self.promote(a);
                if a.int_ty().is_none() {
                    return err(pos, "unary arithmetic needs an integer operand");
                }
                let ty = a.ty.clone();
                Ok(TExpr {
                    ty,
                    kind: TExprKind::Unary(op, Box::new(a)),
                    pos,
                    from_noncap: false,
                })
            }
        }
    }

    fn assign(&mut self, op: Option<BinOp>, lhs: Expr, rhs: Expr, pos: Pos) -> TResult<TExpr> {
        let lv = self.lvalue(lhs)?;
        let rhs = self.rvalue(rhs)?;
        match op {
            None => {
                let rhs = self.convert(rhs, &lv.ty, false)?;
                Ok(TExpr {
                    ty: lv.ty.clone(),
                    kind: TExprKind::Assign {
                        lv: Box::new(lv),
                        rhs: Box::new(rhs),
                    },
                    pos,
                    from_noncap: false,
                })
            }
            Some(op) => {
                if let Ty::Ptr { pointee, .. } = &lv.ty {
                    if !matches!(op, BinOp::Add | BinOp::Sub) {
                        return err(pos, "invalid compound assignment on pointer");
                    }
                    let elem = self.size(pointee, pos)?;
                    let idx = self.promote(rhs);
                    return Ok(TExpr {
                        ty: lv.ty.clone(),
                        kind: TExprKind::PtrAssignAdd {
                            lv: Box::new(lv),
                            idx: Box::new(idx),
                            elem,
                            neg: op == BinOp::Sub,
                        },
                        pos,
                        from_noncap: false,
                    });
                }
                if lv.ty.as_float().is_some() || rhs.ty.as_float().is_some() {
                    if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) {
                        return err(pos, "invalid floating-point compound assignment");
                    }
                    let common = float_common(&lv.ty, &rhs.ty)
                        .ok_or_else(|| TypeError {
                            msg: "invalid compound assignment operands".into(),
                            pos,
                        })?;
                    let rhs = self.convert(rhs, &Ty::Float(common), false)?;
                    return Ok(TExpr {
                        ty: lv.ty.clone(),
                        kind: TExprKind::AssignOp {
                            lv: Box::new(lv),
                            op,
                            rhs: Box::new(rhs),
                            common: Ty::Float(common),
                            derive: DeriveFrom::Left,
                        },
                        pos,
                        from_noncap: true,
                    });
                }
                let lt = match lv.int_ty() {
                    Some(t) => t,
                    None => return err(pos, "invalid compound assignment target"),
                };
                let rt = match rhs.int_ty() {
                    Some(t) => t,
                    None => return err(pos, "invalid compound assignment operand"),
                };
                let common = if matches!(op, BinOp::Shl | BinOp::Shr) {
                    // Shift: performed at the (promoted) left type.
                    if lt.rank() < IntTy::Int.rank() {
                        IntTy::Int
                    } else {
                        lt
                    }
                } else {
                    usual_arith_ty(lt, rt)
                };
                let rhs = self.convert(rhs, &Ty::Int(common), false)?;
                // Derivation: the loaded left value is genuine iff the
                // target type carries a capability.
                let derive = if lt.is_capability() || !common.is_capability() {
                    DeriveFrom::Left
                } else if !rhs.from_noncap {
                    DeriveFrom::Right
                } else {
                    DeriveFrom::Left
                };
                Ok(TExpr {
                    ty: lv.ty.clone(),
                    kind: TExprKind::AssignOp {
                        lv: Box::new(lv),
                        op,
                        rhs: Box::new(rhs),
                        common: Ty::Int(common),
                        derive,
                    },
                    pos,
                    from_noncap: false,
                })
            }
        }
    }

    fn call(&mut self, callee: Expr, args: Vec<Expr>, pos: Pos) -> TResult<TExpr> {
        // Builtins and intrinsics are matched by name first, unless shadowed
        // by a user-defined function.
        if let ExprKind::Ident(name) = &callee.kind {
            if !self.funcs.contains_key(name) && self.lookup_var(name).is_none() {
                if let Some(b) = builtin_by_name(name) {
                    return self.builtin_call(b, args, pos);
                }
                return err(pos, format!("unknown function `{name}`"));
            }
            if let Some(sig) = self.funcs.get(name).cloned() {
                let targs = self.convert_args(&sig.params, sig.variadic, args, pos)?;
                return Ok(TExpr {
                    ty: sig.ret,
                    kind: TExprKind::Call {
                        callee: Callee::Direct(name.clone()),
                        args: targs,
                    },
                    pos,
                    from_noncap: false,
                });
            }
        }
        // Indirect call through a function pointer.
        let f = self.rvalue(callee)?;
        let fty = match &f.ty {
            Ty::Ptr { pointee, .. } => (**pointee).clone(),
            t @ Ty::Func { .. } => t.clone(),
            t => return err(pos, format!("called object has type {t}")),
        };
        let (ret, params, variadic) = match fty {
            Ty::Func {
                ret,
                params,
                variadic,
            } => (*ret, params, variadic),
            t => return err(pos, format!("called object has non-function type {t}")),
        };
        let targs = self.convert_args(&params, variadic, args, pos)?;
        Ok(TExpr {
            ty: ret,
            kind: TExprKind::Call {
                callee: Callee::Indirect(Box::new(f)),
                args: targs,
            },
            pos,
            from_noncap: false,
        })
    }

    fn convert_args(
        &mut self,
        params: &[Ty],
        variadic: bool,
        args: Vec<Expr>,
        pos: Pos,
    ) -> TResult<Vec<TExpr>> {
        if args.len() < params.len() || (args.len() > params.len() && !variadic) {
            return err(
                pos,
                format!("expected {} argument(s), got {}", params.len(), args.len()),
            );
        }
        let mut out = Vec::new();
        for (i, a) in args.into_iter().enumerate() {
            let ta = self.rvalue(a)?;
            let ta = if let Some(p) = params.get(i) {
                self.convert(ta, &p.clone(), false)?
            } else {
                // Default argument promotions for variadic positions
                // (float promotes to double).
                let ta = self.decay_func(ta);
                let ta = if ta.ty == Ty::Float(FloatTy::F32) {
                    self.convert(ta, &Ty::Float(FloatTy::F64), false)?
                } else {
                    ta
                };
                self.promote(ta)
            };
            out.push(ta);
        }
        Ok(out)
    }

    /// Convert each argument at `positions` that is not a pointer to
    /// `void *`, as a user function's `void *` parameter would: a null
    /// pointer constant or a capability-carrying integer passes (so
    /// `free(0)` and `realloc(0, n)` are C11 7.22.3.3p2 and 7.22.3.5p3),
    /// any other value is an error. Pointer arguments stay as they are.
    fn pointer_args(&mut self, targs: &mut Vec<TExpr>, positions: &[usize]) -> TResult<()> {
        for &i in positions {
            if !targs[i].ty.is_ptr() {
                let a = targs.remove(i);
                targs.insert(i, self.convert(a, &Ty::ptr(Ty::Void), false)?);
            }
        }
        Ok(())
    }

    fn builtin_call(&mut self, b: Builtin, args: Vec<Expr>, pos: Pos) -> TResult<TExpr> {
        use Builtin::*;
        let mut targs = Vec::new();
        for a in args {
            let ta = self.rvalue(a)?;
            let ta = self.decay_func(ta);
            targs.push(ta);
        }
        let need = |n: usize| -> TResult<()> {
            if targs.len() == n {
                Ok(())
            } else {
                err(pos, format!("builtin expects {n} argument(s), got {}", targs.len()))
            }
        };
        let is_capty = |e: &TExpr| e.ty.is_capability_carrying();
        // §4.5: intrinsics are polymorphic in the capability type they
        // accept; the return type may depend on the argument type.
        let ret: Ty = match b {
            Printf => {
                if targs.is_empty() {
                    return err(pos, "printf needs a format string");
                }
                Ty::int()
            }
            Fprintf => {
                if targs.len() < 2 {
                    return err(pos, "fprintf needs a stream and a format string");
                }
                Ty::int()
            }
            Assert => {
                need(1)?;
                Ty::Void
            }
            Abort => {
                need(0)?;
                Ty::Void
            }
            Exit => {
                need(1)?;
                let a = targs.remove(0);
                targs.push(self.convert(a, &Ty::int(), false)?);
                Ty::Void
            }
            Malloc => {
                need(1)?;
                let a = targs.remove(0);
                targs.push(self.convert(a, &Ty::Int(IntTy::ULong), false)?);
                Ty::ptr(Ty::Void)
            }
            Calloc => {
                need(2)?;
                let args2: Vec<TExpr> = std::mem::take(&mut targs);
                for a in args2 {
                    targs.push(self.convert(a, &Ty::Int(IntTy::ULong), false)?);
                }
                Ty::ptr(Ty::Void)
            }
            Free => {
                need(1)?;
                self.pointer_args(&mut targs, &[0])?;
                Ty::Void
            }
            Realloc => {
                need(2)?;
                self.pointer_args(&mut targs, &[0])?;
                let n = targs.pop().expect("two args");
                targs.push(self.convert(n, &Ty::Int(IntTy::ULong), false)?);
                Ty::ptr(Ty::Void)
            }
            Memcpy | Memmove => {
                need(3)?;
                self.pointer_args(&mut targs, &[0, 1])?;
                let n = targs.pop().expect("three args");
                targs.push(self.convert(n, &Ty::Int(IntTy::ULong), false)?);
                Ty::ptr(Ty::Void)
            }
            Memset => {
                need(3)?;
                self.pointer_args(&mut targs, &[0])?;
                let n = targs.pop().expect("three args");
                targs.push(self.convert(n, &Ty::Int(IntTy::ULong), false)?);
                Ty::ptr(Ty::Void)
            }
            Memcmp => {
                need(3)?;
                self.pointer_args(&mut targs, &[0, 1])?;
                let n = targs.pop().expect("three args");
                targs.push(self.convert(n, &Ty::Int(IntTy::ULong), false)?);
                Ty::int()
            }
            Strlen => {
                need(1)?;
                self.pointer_args(&mut targs, &[0])?;
                Ty::Int(IntTy::ULong)
            }
            Strcmp => {
                need(2)?;
                self.pointer_args(&mut targs, &[0, 1])?;
                Ty::int()
            }
            Strcpy => {
                need(2)?;
                self.pointer_args(&mut targs, &[0, 1])?;
                Ty::ptr(Ty::Int(IntTy::Char))
            }
            PrintCap => {
                need(1)?;
                if !is_capty(&targs[0]) {
                    return err(pos, "print_cap expects a capability-carrying value");
                }
                Ty::Void
            }
            Fabs | Sqrt => {
                need(1)?;
                let a = targs.remove(0);
                targs.push(self.convert(a, &Ty::Float(FloatTy::F64), false)?);
                Ty::Float(FloatTy::F64)
            }
            CheriTagGet | CheriIsValid | CheriIsSealed => {
                need(1)?;
                if !is_capty(&targs[0]) {
                    return err(pos, "intrinsic expects a capability-carrying value");
                }
                Ty::Int(IntTy::Bool)
            }
            CheriTagClear | CheriSentryCreate => {
                need(1)?;
                if !is_capty(&targs[0]) {
                    return err(pos, "intrinsic expects a capability-carrying value");
                }
                targs[0].ty.clone()
            }
            CheriAddressGet | CheriBaseGet => {
                need(1)?;
                if !is_capty(&targs[0]) {
                    return err(pos, "intrinsic expects a capability-carrying value");
                }
                Ty::Int(IntTy::PtrAddr)
            }
            CheriLengthGet | CheriOffsetGet | CheriPermsGet => {
                need(1)?;
                if !is_capty(&targs[0]) {
                    return err(pos, "intrinsic expects a capability-carrying value");
                }
                Ty::Int(IntTy::ULong)
            }
            CheriTypeGet => {
                need(1)?;
                if !is_capty(&targs[0]) {
                    return err(pos, "intrinsic expects a capability-carrying value");
                }
                Ty::Int(IntTy::Long)
            }
            CheriFlagsGet => {
                need(1)?;
                if !is_capty(&targs[0]) {
                    return err(pos, "intrinsic expects a capability-carrying value");
                }
                Ty::Int(IntTy::ULong)
            }
            CheriAddressSet | CheriOffsetSet | CheriPermsAnd | CheriBoundsSet
            | CheriBoundsSetExact | CheriFlagsSet => {
                need(2)?;
                if !is_capty(&targs[0]) {
                    return err(pos, "intrinsic expects a capability-carrying value");
                }
                let n = targs.pop().expect("two args");
                targs.push(self.convert(n, &Ty::Int(IntTy::ULong), false)?);
                targs[0].ty.clone()
            }
            CheriIsEqualExact | CheriIsSubset => {
                need(2)?;
                if !is_capty(&targs[0]) || !is_capty(&targs[1]) {
                    return err(pos, "intrinsic expects capability-carrying values");
                }
                Ty::Int(IntTy::Bool)
            }
            CheriReprLength | CheriReprAlignMask => {
                need(1)?;
                let n = targs.pop().expect("one arg");
                targs.push(self.convert(n, &Ty::Int(IntTy::ULong), false)?);
                Ty::Int(IntTy::ULong)
            }
            CheriSeal | CheriUnseal => {
                need(2)?;
                if !is_capty(&targs[0]) || !is_capty(&targs[1]) {
                    return err(pos, "intrinsic expects capability-carrying values");
                }
                targs[0].ty.clone()
            }
            CheriDdcGet | CheriPccGet => {
                need(0)?;
                Ty::ptr(Ty::Void)
            }
        };
        Ok(TExpr {
            ty: ret,
            kind: TExprKind::Call {
                callee: Callee::Builtin(b),
                args: targs,
            },
            pos,
            from_noncap: false,
        })
    }

    /// Insert a conversion from `e` to `to`. `explicit` marks source-level
    /// casts (slightly laxer checking).
    fn convert(&mut self, e: TExpr, to: &Ty, explicit: bool) -> TResult<TExpr> {
        let pos = e.pos;
        if e.ty == *to {
            return Ok(e);
        }
        let e = self.decay_func(e);
        if e.ty == *to {
            return Ok(e);
        }
        let kind = match (&e.ty, to) {
            (_, Ty::Void) => CastKind::ToVoid,
            (Ty::Int(_) | Ty::Ptr { .. } | Ty::Float(_), Ty::Int(IntTy::Bool)) => CastKind::ToBool,
            (Ty::Int(_), Ty::Float(_)) => CastKind::IntToFloat,
            (Ty::Float(_), Ty::Int(_)) => CastKind::FloatToInt,
            (Ty::Float(_), Ty::Float(_)) => CastKind::FloatToFloat,
            (Ty::Int(_), Ty::Int(_)) => CastKind::IntToInt,
            (Ty::Ptr { .. }, Ty::Int(_)) => {
                if !explicit {
                    return err(pos, format!("implicit conversion from {} to {to}", e.ty));
                }
                CastKind::PtrToInt
            }
            (Ty::Int(_), Ty::Ptr { .. }) => {
                // Implicitly, only for null pointer constants and
                // capability-carrying integers.
                let is_null_const = matches!(e.kind, TExprKind::ConstInt(0));
                let from_cap = e.ty.is_capability_carrying();
                if !explicit && !is_null_const && !from_cap {
                    return err(pos, format!("implicit conversion from {} to {to}", e.ty));
                }
                CastKind::IntToPtr
            }
            (Ty::Ptr { .. }, Ty::Ptr { .. }) => CastKind::PtrToPtr,
            (f, t) => return err(pos, format!("cannot convert {f} to {t}")),
        };
        // §3.7: mark values produced by conversion from a non-capability
        // type; they lose the capability-derivation tie-break.
        let from_noncap = match kind {
            CastKind::IntToInt | CastKind::IntToPtr => {
                if e.ty.is_capability_carrying() {
                    e.from_noncap
                } else {
                    true
                }
            }
            CastKind::PtrToInt | CastKind::PtrToPtr => e.from_noncap,
            CastKind::ToBool
            | CastKind::ToVoid
            | CastKind::IntToFloat
            | CastKind::FloatToInt
            | CastKind::FloatToFloat => true,
        };
        Ok(TExpr {
            ty: to.clone(),
            kind: TExprKind::Cast {
                kind,
                arg: Box::new(e),
            },
            pos,
            from_noncap,
        })
    }
}

/// The common floating-point type of two operands (either of which may be
/// an integer): `double` wins over `float`.
fn float_common(a: &Ty, b: &Ty) -> Option<FloatTy> {
    match (a, b) {
        (Ty::Float(FloatTy::F64), Ty::Float(_) | Ty::Int(_))
        | (Ty::Float(_) | Ty::Int(_), Ty::Float(FloatTy::F64)) => Some(FloatTy::F64),
        (Ty::Float(FloatTy::F32), Ty::Float(_) | Ty::Int(_))
        | (Ty::Int(_), Ty::Float(FloatTy::F32)) => Some(FloatTy::F32),
        _ => None,
    }
}

/// The usual arithmetic conversions on integer types, with the CHERI C rank
/// rule (§3.7).
#[must_use]
pub fn usual_arith_ty(l: IntTy, r: IntTy) -> IntTy {
    // Integer promotion first.
    let p = |t: IntTy| if t.rank() < IntTy::Int.rank() { IntTy::Int } else { t };
    let (l, r) = (p(l), p(r));
    if l == r {
        return l;
    }
    if l.signed() == r.signed() {
        return if l.rank() >= r.rank() { l } else { r };
    }
    let (s, u) = if l.signed() { (l, r) } else { (r, l) };
    if u.rank() >= s.rank() {
        u
    } else if s.value_bits() > u.value_bits() {
        s
    } else {
        s.to_unsigned()
    }
}

/// §4.4 derivation choice on two already-converted operands.
fn derive_from(l: &TExpr, r: &TExpr) -> DeriveFrom {
    if !l.from_noncap {
        DeriveFrom::Left
    } else if !r.from_noncap {
        DeriveFrom::Right
    } else {
        DeriveFrom::Left
    }
}

fn const_int(ity: IntTy, v: i128, pos: Pos) -> TExpr {
    TExpr {
        ty: Ty::Int(ity),
        kind: TExprKind::ConstInt(v),
        pos,
        from_noncap: false,
    }
}

fn is_char(t: &Ty) -> bool {
    matches!(
        t,
        Ty::Int(IntTy::Char | IntTy::SChar | IntTy::UChar)
    )
}

/// Fold a typed expression to a constant, when possible (case labels).
fn fold_const(e: &TExpr) -> Option<i128> {
    fold_node(e, fold_const)
}

/// The constant `e` folds to, given what each of its operands folds to
/// by `operand`: [`fold_const`] recurses, and the `-O3` pass, which
/// folds bottom-up, looks one level down.
pub(crate) fn fold_node(e: &TExpr, operand: fn(&TExpr) -> Option<i128>) -> Option<i128> {
    match &e.kind {
        TExprKind::ConstInt(v) => Some(*v),
        TExprKind::Unary(op @ (UnOp::Neg | UnOp::BitNot), a) => op.fold(operand(a)?),
        TExprKind::Cast {
            kind: CastKind::IntToInt,
            arg,
        } => {
            let v = operand(arg)?;
            e.ty.as_int().map(|it| it.wrap(v))
        }
        TExprKind::Binary { op, lhs, rhs, .. } => {
            let v = op.fold(operand(lhs)?, operand(rhs)?)?;
            e.ty.as_int().map(|it| it.wrap(v))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::types::TargetLayout;

    fn check_src(src: &str) -> TProgram {
        let p = parse(src, TargetLayout::default()).expect("parse");
        check(p).expect("typecheck")
    }

    fn check_err(src: &str) -> TypeError {
        let p = parse(src, TargetLayout::default()).expect("parse");
        check(p).expect_err("expected type error")
    }

    #[test]
    fn usual_arith_follows_cheri_ranks() {
        assert_eq!(usual_arith_ty(IntTy::Int, IntTy::IntPtr), IntTy::IntPtr);
        assert_eq!(usual_arith_ty(IntTy::ULong, IntTy::IntPtr), IntTy::UIntPtr);
        assert_eq!(usual_arith_ty(IntTy::IntPtr, IntTy::UIntPtr), IntTy::UIntPtr);
        assert_eq!(usual_arith_ty(IntTy::Char, IntTy::Short), IntTy::Int);
        assert_eq!(usual_arith_ty(IntTy::UInt, IntTy::Long), IntTy::Long);
        assert_eq!(usual_arith_ty(IntTy::ULong, IntTy::Long), IntTy::ULong);
    }

    #[test]
    fn simple_program_checks() {
        let p = check_src("int main(void) { int x = 1; return x + 1; }");
        assert!(p.funcs.contains_key("main"));
    }

    #[test]
    fn derivation_picks_the_capability_side() {
        // Find the Binary node for the addition.
        fn find_binary(s: &[TStmt]) -> Option<DeriveFrom> {
            for st in s {
                if let TStmt::Decl {
                    init: Some(TInit::Scalar(e)),
                    ..
                } = st
                {
                    if let TExprKind::Binary { derive, .. } = &e.kind {
                        return Some(*derive);
                    }
                    if let TExprKind::Cast { arg, .. } = &e.kind {
                        if let TExprKind::Binary { derive, .. } = &arg.kind {
                            return Some(*derive);
                        }
                    }
                }
            }
            None
        }
        // §3.7 array_shift: size_t * n + intptr → result derives from the
        // intptr operand (Right), not the converted size_t product.
        let p = check_src(
            "int* array_shift(int *x, int n) {\n\
               intptr_t ip = (intptr_t)x;\n\
               intptr_t ip1 = sizeof(int)*n + ip;\n\
               return (int*)ip1;\n\
             }\n\
             int main(void) { int a[2]; return *array_shift(a, 1) == a[1]; }",
        );
        let f = &p.funcs["array_shift"];
        assert_eq!(find_binary(&f.body), Some(DeriveFrom::Right));
    }

    #[test]
    fn intptr_plus_intptr_derives_left() {
        let p = check_src(
            "int main(void) { int x=0, y=0;\n\
             intptr_t a=(intptr_t)&x; intptr_t b=(intptr_t)&y;\n\
             intptr_t c0 = a + b; return (int)(c0-a-b); }",
        );
        let f = &p.funcs["main"];
        let mut found = None;
        for st in &f.body {
            if let TStmt::Decl {
                local,
                init: Some(TInit::Scalar(e)),
                ..
            } = st
            {
                if f.locals[local.0 as usize].name.starts_with("c0") {
                    if let TExprKind::Binary { derive, .. } = &e.kind {
                        found = Some(*derive);
                    }
                }
            }
        }
        assert_eq!(found, Some(DeriveFrom::Left));
    }

    #[test]
    fn implicit_ptr_int_conversion_rejected() {
        let e = check_err("int main(void) { int *p; long x = p; return 0; }");
        assert!(e.msg.contains("implicit conversion"));
    }

    #[test]
    fn null_constant_converts_implicitly() {
        check_src("int main(void) { int *p = 0; return p == NULL; }");
    }

    #[test]
    fn intrinsic_polymorphic_return_type() {
        let p = check_src(
            "int main(void) { int x; int *p = &x;\n\
             int *q = cheri_tag_clear(p);\n\
             uintptr_t i = (uintptr_t)p;\n\
             uintptr_t j = cheri_address_set(i, 42);\n\
             return cheri_tag_get(q) + (int)j; }",
        );
        let _ = &p.funcs["main"];
    }

    #[test]
    fn intrinsic_rejects_non_capability() {
        let e = check_err("int main(void) { return cheri_tag_get(3); }");
        assert!(e.msg.contains("capability"));
    }

    #[test]
    fn unknown_identifier_reported() {
        let e = check_err("int main(void) { return nope; }");
        assert!(e.msg.contains("nope"));
    }

    #[test]
    fn switch_case_labels_fold() {
        check_src(
            "int main(void) { int x = 2; switch (x) { case 1 + 1: return 0; default: return 1; } }",
        );
    }

    #[test]
    fn variadic_user_functions_unsupported_but_builtins_work() {
        check_src(r#"int main(void) { printf("%d\n", 42); return 0; }"#);
    }

    #[test]
    fn sizeof_types() {
        let p = check_src(
            "int main(void) { return (int)(sizeof(int*) + sizeof(uintptr_t) + sizeof(int)); }",
        );
        let f = &p.funcs["main"];
        // 16 + 16 + 4 folded at runtime; just ensure it type-checked.
        assert_eq!(f.ret, Ty::int());
    }
}
