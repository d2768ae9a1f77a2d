//! Pretty-printer for the untyped AST.
//!
//! Emits compilable C from a parsed [`Program`]. Used for debugging,
//! for minimising fuzzer findings, and — in the test suite — to check
//! front-end self-consistency: `parse ∘ print ∘ parse ≡ parse` (printing a
//! parse and re-parsing it reaches a fixpoint).

use crate::ast::*;
use crate::types::{IntTy, StructId, Ty, TypeTable};

/// Render a full translation unit back to C.
#[must_use]
pub fn print_program(prog: &Program, types: &TypeTable) -> String {
    let mut p = Printer {
        out: String::new(),
        indent: 0,
        types,
        printed_structs: Vec::new(),
    };
    // Struct/union definitions first, so member types resolve on re-parse.
    for (i, layout) in types.structs.iter().enumerate() {
        p.struct_def(StructId(i), layout.is_union);
    }
    for item in &prog.items {
        match item {
            Item::Global(d) => p.global(d),
            Item::Func(f) => p.func(f),
        }
    }
    p.out
}

struct Printer<'t> {
    out: String,
    indent: usize,
    types: &'t TypeTable,
    printed_structs: Vec<StructId>,
}

impl Printer<'_> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn struct_def(&mut self, id: StructId, is_union: bool) {
        if self.printed_structs.contains(&id) {
            return;
        }
        self.printed_structs.push(id);
        let layout = &self.types.structs[id.0];
        if layout.name == "<anon>" || layout.fields.is_empty() && layout.size <= 1 {
            return; // anonymous or reserved-only: printed inline or unused
        }
        let kw = if is_union { "union" } else { "struct" };
        self.line(&format!("{kw} {} {{", layout.name));
        self.indent += 1;
        for f in &layout.fields {
            let decl = declare(&f.ty, &f.name, self.types);
            self.line(&format!("{decl};"));
        }
        self.indent -= 1;
        self.line("};");
    }

    fn global(&mut self, d: &Decl) {
        let mut s = String::new();
        if d.is_const {
            s.push_str("const ");
        }
        s.push_str(&declare(&d.ty, &d.name, self.types));
        if let Some(init) = &d.init {
            s.push_str(" = ");
            s.push_str(&print_init(init, self.types));
        }
        s.push(';');
        self.line(&s);
    }

    fn func(&mut self, f: &FuncDef) {
        // Build the declarator `name(params)` first, then thread it through
        // `declare` so return types that need nesting (pointer-to-function)
        // come out as e.g. `int (*pick(int which))(int)`.
        let mut decl = format!("{}(", f.name);
        if f.params.is_empty() && !f.variadic {
            decl.push_str("void");
        }
        for (i, p) in f.params.iter().enumerate() {
            if i > 0 {
                decl.push_str(", ");
            }
            let name = if p.name.is_empty() {
                format!("arg{i}")
            } else {
                p.name.clone()
            };
            decl.push_str(&declare(&p.ty, &name, self.types));
        }
        if f.variadic {
            decl.push_str(", ...");
        }
        decl.push(')');
        let sig = declare(&f.ret, &decl, self.types);
        match &f.body {
            None => self.line(&format!("{sig};")),
            Some(body) => {
                self.line(&format!("{sig} {{"));
                self.indent += 1;
                for s in body {
                    self.stmt(s);
                }
                self.indent -= 1;
                self.line("}");
            }
        }
    }

    /// Print a statement as a brace-wrapped body without double-wrapping
    /// bodies that are already blocks.
    fn body_stmts<'a>(&mut self, s: &'a Stmt) -> &'a [Stmt] {
        match &s.kind {
            StmtKind::Block(b) => b,
            _ => std::slice::from_ref(s),
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl(d) => {
                let mut line = String::new();
                if d.is_static {
                    line.push_str("static ");
                }
                if d.is_const {
                    line.push_str("const ");
                }
                line.push_str(&declare(&d.ty, &d.name, self.types));
                if let Some(init) = &d.init {
                    line.push_str(" = ");
                    line.push_str(&print_init(init, self.types));
                }
                line.push(';');
                self.line(&line);
            }
            StmtKind::Expr(e) => {
                let e = print_expr(e, self.types);
                self.line(&format!("{e};"));
            }
            StmtKind::Block(body) => {
                self.line("{");
                self.indent += 1;
                for s in body {
                    self.stmt(s);
                }
                self.indent -= 1;
                self.line("}");
            }
            // Multi-declarator groups share the enclosing scope: print the
            // declarations bare, not as a block.
            StmtKind::DeclGroup(body) => {
                for s in body {
                    self.stmt(s);
                }
            }
            StmtKind::If(c, t, e) => {
                self.line(&format!("if ({}) {{", print_expr(c, self.types)));
                self.indent += 1;
                for st in self.body_stmts(t).to_vec() {
                    self.stmt(&st);
                }
                self.indent -= 1;
                match e {
                    Some(e) => {
                        self.line("} else {");
                        self.indent += 1;
                        for st in self.body_stmts(e).to_vec() {
                            self.stmt(&st);
                        }
                        self.indent -= 1;
                        self.line("}");
                    }
                    None => self.line("}"),
                }
            }
            StmtKind::While(c, b) => {
                self.line(&format!("while ({}) {{", print_expr(c, self.types)));
                self.indent += 1;
                for st in self.body_stmts(b).to_vec() {
                    self.stmt(&st);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::DoWhile(b, c) => {
                self.line("do {");
                self.indent += 1;
                for st in self.body_stmts(b).to_vec() {
                    self.stmt(&st);
                }
                self.indent -= 1;
                self.line(&format!("}} while ({});", print_expr(c, self.types)));
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut head = String::from("for (");
                match init {
                    Some(s) => match &s.kind {
                        StmtKind::Decl(d) => {
                            head.push_str(&declare(&d.ty, &d.name, self.types));
                            if let Some(i) = &d.init {
                                head.push_str(" = ");
                                head.push_str(&print_init(i, self.types));
                            }
                            head.push(';');
                        }
                        StmtKind::Expr(e) => {
                            head.push_str(&print_expr(e, self.types));
                            head.push(';');
                        }
                        _ => head.push(';'),
                    },
                    None => head.push(';'),
                }
                head.push(' ');
                if let Some(c) = cond {
                    head.push_str(&print_expr(c, self.types));
                }
                head.push_str("; ");
                if let Some(s) = step {
                    head.push_str(&print_expr(s, self.types));
                }
                head.push_str(") {");
                self.line(&head);
                self.indent += 1;
                for st in self.body_stmts(body).to_vec() {
                    self.stmt(&st);
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Switch(scrut, cases) => {
                self.line(&format!("switch ({}) {{", print_expr(scrut, self.types)));
                self.indent += 1;
                for c in cases {
                    match &c.value {
                        Some(v) => self.line(&format!("case {}:", print_expr(v, self.types))),
                        None => self.line("default:"),
                    }
                    self.indent += 1;
                    for s in &c.body {
                        self.stmt(s);
                    }
                    self.indent -= 1;
                }
                self.indent -= 1;
                self.line("}");
            }
            StmtKind::Return(None) => self.line("return;"),
            StmtKind::Return(Some(e)) => {
                let e = print_expr(e, self.types);
                self.line(&format!("return {e};"));
            }
            StmtKind::Break => self.line("break;"),
            StmtKind::Continue => self.line("continue;"),
            StmtKind::Empty => self.line(";"),
        }
    }
}

fn print_init(init: &Init, types: &TypeTable) -> String {
    match init {
        Init::Expr(e) => print_expr(e, types),
        Init::List(items) => {
            let inner: Vec<String> = items.iter().map(|i| print_init(i, types)).collect();
            format!("{{ {} }}", inner.join(", "))
        }
    }
}

/// Render a declaration of `name` at type `ty` (inside-out declarator
/// construction, the reverse of parsing).
fn declare(ty: &Ty, name: &str, types: &TypeTable) -> String {
    fn go(ty: &Ty, inner: &str, types: &TypeTable) -> String {
        match ty {
            Ty::Void => format!("void {inner}").trim_end().to_string(),
            Ty::Int(i) => format!("{} {inner}", int_name(*i)).trim_end().to_string(),
            Ty::Float(t) => format!("{t} {inner}").trim_end().to_string(),
            Ty::Ptr {
                pointee,
                const_pointee,
            } => {
                let star = format!("*{inner}");
                let needs_parens = matches!(**pointee, Ty::Array(..) | Ty::Func { .. });
                let inner = if needs_parens {
                    format!("({star})")
                } else {
                    star
                };
                let base = go(pointee, &inner, types);
                if *const_pointee {
                    // const applies to the pointee: prefix the base type.
                    format!("const {base}")
                } else {
                    base
                }
            }
            Ty::Array(elem, len) => {
                let dim = match len {
                    Some(n) => format!("{inner}[{n}]"),
                    None => format!("{inner}[]"),
                };
                go(elem, &dim, types)
            }
            Ty::Struct(id) => format!("struct {} {inner}", types.structs[id.0].name)
                .trim_end()
                .to_string(),
            Ty::Union(id) => format!("union {} {inner}", types.structs[id.0].name)
                .trim_end()
                .to_string(),
            Ty::Func {
                ret,
                params,
                variadic,
            } => {
                let mut plist: Vec<String> =
                    params.iter().map(|p| declare(p, "", types)).collect();
                if *variadic {
                    plist.push("...".into());
                }
                let plist = if plist.is_empty() {
                    "void".to_string()
                } else {
                    plist.join(", ")
                };
                go(ret, &format!("{inner}({plist})"), types)
            }
        }
    }
    go(ty, name, types)
}

fn int_name(i: IntTy) -> &'static str {
    match i {
        IntTy::Bool => "_Bool",
        IntTy::Char => "char",
        IntTy::SChar => "signed char",
        IntTy::UChar => "unsigned char",
        IntTy::Short => "short",
        IntTy::UShort => "unsigned short",
        IntTy::Int => "int",
        IntTy::UInt => "unsigned int",
        IntTy::Long => "long",
        IntTy::ULong => "unsigned long",
        IntTy::LongLong => "long long",
        IntTy::ULongLong => "unsigned long long",
        IntTy::IntPtr => "intptr_t",
        IntTy::UIntPtr => "uintptr_t",
        IntTy::PtrAddr => "ptraddr_t",
    }
}

pub(crate) fn bin_op_str(op: BinOp) -> &'static str {
    match op {
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

/// Render an expression. Everything compound is parenthesised, which keeps
/// the printer simple and precedence-correct by construction.
#[must_use]
pub fn print_expr(e: &Expr, types: &TypeTable) -> String {
    match &e.kind {
        ExprKind::IntLit {
            value,
            unsigned,
            long,
        } => {
            let mut s = value.to_string();
            if *unsigned {
                s.push('u');
            }
            if *long {
                s.push('l');
            }
            s
        }
        ExprKind::FloatLit { value, single } => {
            let mut s = format!("{value:?}");
            if !s.contains('.') && !s.contains('e') {
                s.push_str(".0");
            }
            if *single {
                s.push('f');
            }
            s
        }
        ExprKind::CharLit(c) => format!("{c}"),
        ExprKind::StrLit(s) => format!("{s:?}").replace("\\u{0}", "\\0"),
        ExprKind::Ident(n) => n.clone(),
        ExprKind::Binary(op, a, b) => format!(
            "({} {} {})",
            print_expr(a, types),
            bin_op_str(*op),
            print_expr(b, types)
        ),
        ExprKind::Unary(op, a) => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Plus => "+",
                UnOp::BitNot => "~",
                UnOp::LogNot => "!",
            };
            format!("({sym}{})", print_expr(a, types))
        }
        ExprKind::Assign { op, lhs, rhs } => {
            let sym = match op {
                None => "=".to_string(),
                Some(op) => format!("{}=", bin_op_str(*op)),
            };
            format!(
                "({} {sym} {})",
                print_expr(lhs, types),
                print_expr(rhs, types)
            )
        }
        ExprKind::IncDec { inc, prefix, arg } => {
            let sym = if *inc { "++" } else { "--" };
            if *prefix {
                format!("({sym}{})", print_expr(arg, types))
            } else {
                format!("({}{sym})", print_expr(arg, types))
            }
        }
        ExprKind::Call { callee, args } => {
            let args: Vec<String> = args.iter().map(|a| print_expr(a, types)).collect();
            format!("{}({})", print_expr(callee, types), args.join(", "))
        }
        ExprKind::Index(a, i) => {
            format!("{}[{}]", print_expr(a, types), print_expr(i, types))
        }
        ExprKind::Member(a, f) => format!("{}.{f}", print_expr(a, types)),
        ExprKind::Arrow(a, f) => format!("{}->{f}", print_expr(a, types)),
        ExprKind::Deref(a) => format!("(*{})", print_expr(a, types)),
        ExprKind::AddrOf(a) => format!("(&{})", print_expr(a, types)),
        ExprKind::Cast(t, a) => format!("(({}){})", declare(t, "", types), print_expr(a, types)),
        ExprKind::SizeofTy(t) => format!("sizeof({})", declare(t, "", types)),
        ExprKind::SizeofExpr(a) => format!("sizeof({})", print_expr(a, types)),
        ExprKind::AlignofTy(t) => format!("_Alignof({})", declare(t, "", types)),
        ExprKind::Cond(c, t, f) => format!(
            "({} ? {} : {})",
            print_expr(c, types),
            print_expr(t, types),
            print_expr(f, types)
        ),
        ExprKind::Comma(a, b) => {
            format!("({}, {})", print_expr(a, types), print_expr(b, types))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::types::TargetLayout;

    fn roundtrip(src: &str) -> (String, String) {
        let p1 = parse(src, TargetLayout::default()).expect("parse 1");
        let printed1 = print_program(&p1.program, &p1.types);
        let p2 = parse(&printed1, TargetLayout::default())
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed1}"));
        let printed2 = print_program(&p2.program, &p2.types);
        (printed1, printed2)
    }

    #[test]
    fn print_reparse_reaches_fixpoint() {
        let (a, b) = roundtrip(
            "#include <stdint.h>\n\
             struct node { int value; struct node *next; };\n\
             int sum(struct node *head) {\n\
               int s = 0;\n\
               for (struct node *p = head; p != 0; p = p->next) s += p->value;\n\
               return s;\n\
             }\n\
             int main(void) {\n\
               struct node a, b;\n\
               a.value = 1; a.next = &b;\n\
               b.value = 2; b.next = 0;\n\
               uintptr_t u = (uintptr_t)&a;\n\
               return sum((struct node *)u);\n\
             }",
        );
        assert_eq!(a, b, "printer is not idempotent");
    }

    #[test]
    fn printed_programs_behave_identically() {
        use crate::{run, Profile};
        let sources = [
            "int main(void) { int a[3] = {1,2,3}; int s = 0; \
             for (int i = 0; i < 3; i++) s += a[i]; return s; }",
            "#include <stdint.h>\n\
             int main(void) { int x = 9; uintptr_t u = (uintptr_t)&x; \
             int *q = (int*)u; return *q; }",
            "int f(int n) { return n <= 1 ? 1 : n * f(n - 1); }\n\
             int main(void) { return f(5) % 97; }",
            "int main(void) { char *p = malloc(8); p[7] = 3; int r = p[7]; free(p); return r; }",
        ];
        for src in sources {
            let p = parse(src, TargetLayout::default()).expect("parse");
            let printed = print_program(&p.program, &p.types);
            let orig = run(src, &Profile::cerberus());
            let reprinted = run(&printed, &Profile::cerberus());
            assert_eq!(
                orig.outcome, reprinted.outcome,
                "behaviour changed by printing:\n{printed}"
            );
        }
    }

    #[test]
    fn suite_sources_print_and_reparse() {
        // Every test of the 94-suite must survive a print→reparse cycle.
        // (Behavioural equality is covered by the sample above; here we
        // check the front end never chokes on its own output.)
        for t in cheri_testsuite_sources() {
            let p = match parse(t, TargetLayout::default()) {
                Ok(p) => p,
                Err(e) => panic!("suite source failed to parse: {e}"),
            };
            let printed = print_program(&p.program, &p.types);
            parse(&printed, TargetLayout::default())
                .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        }
    }

    /// A few representative suite-like sources (the real suite lives in a
    /// downstream crate; depending on it here would be a cycle).
    fn cheri_testsuite_sources() -> Vec<&'static str> {
        vec![
            r#"
            #include <stdint.h>
            union ptr { int *ptr; uintptr_t iptr; };
            int main(void) {
              int arr[] = {42, 43};
              union ptr x;
              x.ptr = arr;
              x.iptr += sizeof(int);
              assert(*x.ptr == 43);
              return 0;
            }"#,
            r#"
            int zero(void) { return 0; }
            int one(void) { return 1; }
            int main(void) {
              int (*table[2])(void) = { zero, one };
              return table[0]() + table[1]();
            }"#,
            r#"
            int main(void) {
              char buf[16];
              char *p = cheri_bounds_set(buf, 8);
              p[7] = 1;
              return cheri_length_get(p) == 8;
            }"#,
        ]
    }
}
