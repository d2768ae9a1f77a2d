//! Untyped abstract syntax for the CHERI C subset.
//!
//! The parser produces this; the type checker (`typeck`) lowers it to the
//! typed form the interpreter executes, inserting implicit conversions and
//! making capability derivation explicit (§4.4 of the paper).

use std::cmp::Ordering;

use crate::lex::Pos;
use crate::types::Ty;

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `&`
    And,
    /// `|`
    Or,
    /// `^`
    Xor,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit)
    LogAnd,
    /// `||` (short-circuit)
    LogOr,
}

impl BinOp {
    /// The operator as C spells it.
    #[must_use]
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::LogAnd => "&&",
            BinOp::LogOr => "||",
        }
    }

    /// Is this a comparison operator (result type `int`)?
    #[must_use]
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Is this a relational (ordering) comparison?
    #[must_use]
    pub fn is_relational(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
    }

    /// Does comparison `self` hold between operands ordered `ord`
    /// (`None`: unordered, as a NaN is)? The one truth table of the six
    /// comparison operators, for integers, floats and pointers alike;
    /// `None` if `self` is not a comparison.
    #[must_use]
    #[inline]
    pub fn compare(self, ord: Option<Ordering>) -> Option<bool> {
        Some(match self {
            BinOp::Eq => ord == Some(Ordering::Equal),
            BinOp::Ne => ord != Some(Ordering::Equal),
            BinOp::Lt => ord == Some(Ordering::Less),
            BinOp::Le => matches!(ord, Some(Ordering::Less | Ordering::Equal)),
            BinOp::Gt => ord == Some(Ordering::Greater),
            BinOp::Ge => matches!(ord, Some(Ordering::Greater | Ordering::Equal)),
            _ => return None,
        })
    }

    /// `a op b` over `i128`: the one constant-folding rule, shared by the
    /// parser (array sizes, enum values) and the type checker. `None` on
    /// division or remainder by zero, a shift amount outside `0..128`, an
    /// overflow, and for the comparison and logical operators, which are
    /// not folded.
    #[must_use]
    pub fn fold(self, a: i128, b: i128) -> Option<i128> {
        match self {
            BinOp::Add => a.checked_add(b),
            BinOp::Sub => a.checked_sub(b),
            BinOp::Mul => a.checked_mul(b),
            BinOp::Div => a.checked_div(b),
            BinOp::Rem => a.checked_rem(b),
            BinOp::And => Some(a & b),
            BinOp::Or => Some(a | b),
            BinOp::Xor => Some(a ^ b),
            BinOp::Shl => a.checked_shl(u32::try_from(b).ok()?),
            BinOp::Shr => a.checked_shr(u32::try_from(b).ok()?),
            _ => None,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `+`
    Plus,
    /// `~`
    BitNot,
    /// `!`
    LogNot,
}

impl UnOp {
    /// `op a` under the rule of [`BinOp::fold`]: `None` when `-a`
    /// overflows, and for `+` and `!`, which are not folded.
    #[must_use]
    pub fn fold(self, a: i128) -> Option<i128> {
        match self {
            UnOp::Neg => a.checked_neg(),
            UnOp::BitNot => Some(!a),
            UnOp::Plus | UnOp::LogNot => None,
        }
    }
}

/// An expression.
#[derive(Clone, Debug)]
pub struct Expr {
    /// Node kind.
    pub kind: ExprKind,
    /// Source position.
    pub pos: Pos,
}

/// Expression kinds.
#[derive(Clone, Debug)]
pub enum ExprKind {
    /// Integer literal; `ty_hint` is the literal's C type per suffix rules.
    IntLit {
        /// The value.
        value: u128,
        /// `U` suffix.
        unsigned: bool,
        /// `L` suffix.
        long: bool,
    },
    /// Floating-point literal.
    FloatLit {
        /// The value.
        value: f64,
        /// `f` suffix (type `float`).
        single: bool,
    },
    /// Character literal (type `int`).
    CharLit(i64),
    /// String literal.
    StrLit(String),
    /// Identifier.
    Ident(String),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Assignment, possibly compound (`op` is `None` for plain `=`).
    Assign {
        /// Compound operator, if any.
        op: Option<BinOp>,
        /// Target lvalue.
        lhs: Box<Expr>,
        /// Source value.
        rhs: Box<Expr>,
    },
    /// Pre/post increment/decrement.
    IncDec {
        /// `+1` or `-1`.
        inc: bool,
        /// Prefix (`++x`) vs postfix (`x++`).
        prefix: bool,
        /// The lvalue.
        arg: Box<Expr>,
    },
    /// Function call.
    Call {
        /// Callee expression (identifier or function pointer).
        callee: Box<Expr>,
        /// The arguments.
        args: Vec<Expr>,
    },
    /// Array subscript `a[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Member access `s.f`.
    Member(Box<Expr>, String),
    /// Member access through pointer `p->f`.
    Arrow(Box<Expr>, String),
    /// Dereference `*p`.
    Deref(Box<Expr>),
    /// Address-of `&x`.
    AddrOf(Box<Expr>),
    /// Cast `(T)e`.
    Cast(Ty, Box<Expr>),
    /// `sizeof(type)`.
    SizeofTy(Ty),
    /// `sizeof expr`.
    SizeofExpr(Box<Expr>),
    /// `_Alignof(type)`.
    AlignofTy(Ty),
    /// Conditional `c ? a : b`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Comma `a, b`.
    Comma(Box<Expr>, Box<Expr>),
}

/// An initialiser.
#[derive(Clone, Debug)]
pub enum Init {
    /// A scalar expression.
    Expr(Expr),
    /// A brace-enclosed list (arrays, structs).
    List(Vec<Init>),
}

/// A statement.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// Node kind.
    pub kind: StmtKind,
    /// Source position.
    pub pos: Pos,
}

/// Statement kinds.
#[derive(Clone, Debug)]
pub enum StmtKind {
    /// Local declaration.
    Decl(Decl),
    /// Expression statement.
    Expr(Expr),
    /// Block `{ ... }`.
    Block(Vec<Stmt>),
    /// A multi-declarator declaration statement (`int a, b;`): the
    /// declarations share the enclosing scope, unlike a block.
    DeclGroup(Vec<Stmt>),
    /// `if` / `else`.
    If(Expr, Box<Stmt>, Option<Box<Stmt>>),
    /// `while`.
    While(Expr, Box<Stmt>),
    /// `do ... while`.
    DoWhile(Box<Stmt>, Expr),
    /// `for`.
    For {
        /// Init clause (declaration or expression).
        init: Option<Box<Stmt>>,
        /// Condition.
        cond: Option<Expr>,
        /// Step expression.
        step: Option<Expr>,
        /// Body.
        body: Box<Stmt>,
    },
    /// `switch`.
    Switch(Expr, Vec<SwitchCase>),
    /// `return`.
    Return(Option<Expr>),
    /// `break`.
    Break,
    /// `continue`.
    Continue,
    /// Empty statement.
    Empty,
}

/// One `case`/`default` arm of a `switch`.
#[derive(Clone, Debug)]
pub struct SwitchCase {
    /// `None` for `default`.
    pub value: Option<Expr>,
    /// Statements until the next label.
    pub body: Vec<Stmt>,
}

/// A variable declaration (local or global).
#[derive(Clone, Debug)]
pub struct Decl {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Ty,
    /// `const`-qualified (the object is read-only, §3.9).
    pub is_const: bool,
    /// Declared `static` (static storage duration for locals).
    pub is_static: bool,
    /// Initialiser.
    pub init: Option<Init>,
    /// Position.
    pub pos: Pos,
}

/// A function parameter.
#[derive(Clone, Debug)]
pub struct Param {
    /// Name (empty for unnamed prototype parameters).
    pub name: String,
    /// Type (arrays already decayed to pointers).
    pub ty: Ty,
}

/// A function definition or declaration.
#[derive(Clone, Debug)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: Ty,
    /// Parameters.
    pub params: Vec<Param>,
    /// Variadic (`...`).
    pub variadic: bool,
    /// Body; `None` for a prototype.
    pub body: Option<Vec<Stmt>>,
    /// Position.
    pub pos: Pos,
}

/// A top-level item.
#[derive(Clone, Debug)]
pub enum Item {
    /// Global variable.
    Global(Decl),
    /// Function definition or prototype.
    Func(FuncDef),
}

/// A translation unit.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}
