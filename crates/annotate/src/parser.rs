//! Recursive-descent parser for the annotation language.

use crate::ast::*;

/// Parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the error.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Punct(char),
    Arrow,    // ->
    FatArrow, // =>
    At,       // @
    Star,     // *
    Underscore,
}

struct Lexer {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

fn lex(src: &str) -> Result<Lexer, ParseError> {
    let mut toks = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line_no = lineno + 1;
        let line = line.split("//").next().unwrap_or("");
        let mut chars = line.chars().peekable();
        while let Some(&c) = chars.peek() {
            let tok = match c {
                c if c.is_whitespace() => {
                    chars.next();
                    continue;
                }
                // An identifier; a lone underscore is the missing split type.
                c if c.is_alphabetic() || c == '_' => {
                    let mut s = String::new();
                    while let Some(c) = chars.next_if(|c| c.is_alphanumeric() || *c == '_') {
                        s.push(c);
                    }
                    if s == "_" {
                        Tok::Underscore
                    } else {
                        Tok::Ident(s)
                    }
                }
                '-' | '=' => {
                    chars.next();
                    if chars.next_if_eq(&'>').is_none() {
                        return Err(ParseError {
                            line: line_no,
                            message: format!("expected '{c}>' after '{c}'"),
                        });
                    }
                    if c == '-' {
                        Tok::Arrow
                    } else {
                        Tok::FatArrow
                    }
                }
                '@' | '*' | '(' | ')' | ',' | ':' | ';' | '.' => {
                    chars.next();
                    match c {
                        '@' => Tok::At,
                        '*' => Tok::Star,
                        _ => Tok::Punct(c),
                    }
                }
                other => {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("unexpected character {other:?}"),
                    })
                }
            };
            toks.push((line_no, tok));
        }
    }
    Ok(Lexer { toks, pos: 0 })
}

impl Lexer {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(l, _)| *l)
            .unwrap_or(0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next() {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => Err(self.err(format!("expected {c:?}, got {other:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, got {other:?}"))),
        }
    }
}

/// Parse an annotation file.
pub fn parse(src: &str) -> Result<AnnotationFile, ParseError> {
    let mut lx = lex(src)?;
    let mut out = AnnotationFile::default();
    while let Some(tok) = lx.peek().cloned() {
        match tok {
            Tok::Ident(kw) if kw == "splittype" => {
                lx.next();
                out.split_types.push(parse_splittype(&mut lx)?);
            }
            Tok::At => {
                lx.next();
                out.functions.extend(parse_splittable(&mut lx)?);
            }
            Tok::Ident(_) => {
                // `Name(args) => (exprs);` — a constructor declaration.
                out.constructors.push(parse_constructor(&mut lx)?);
            }
            other => return Err(lx.err(format!("unexpected token {other:?}"))),
        }
    }
    Ok(out)
}

fn parse_splittype(lx: &mut Lexer) -> Result<SplitTypeDecl, ParseError> {
    let line = lx.line();
    let name = lx.expect_ident()?;
    lx.expect_punct('(')?;
    let params = parse_ident_list(lx)?;
    lx.expect_punct(';')?;
    Ok(SplitTypeDecl { line, name, params })
}

fn parse_constructor(lx: &mut Lexer) -> Result<ConstructorDecl, ParseError> {
    let line = lx.line();
    let name = lx.expect_ident()?;
    lx.expect_punct('(')?;
    let args = parse_ident_list(lx)?;
    match lx.next() {
        Some(Tok::FatArrow) => {}
        other => return Err(lx.err(format!("expected '=>', got {other:?}"))),
    }
    lx.expect_punct('(')?;
    let mut exprs = Vec::new();
    let mut current = String::new();
    loop {
        match lx.next() {
            Some(Tok::Punct(')')) => {
                if !current.is_empty() {
                    exprs.push(current);
                }
                break;
            }
            Some(Tok::Punct(',')) => {
                exprs.push(std::mem::take(&mut current));
            }
            Some(Tok::Ident(s)) => {
                if !current.is_empty() {
                    current.push('.');
                }
                current.push_str(&s);
            }
            Some(Tok::Punct('.')) => {}
            other => return Err(lx.err(format!("unexpected token in constructor: {other:?}"))),
        }
    }
    lx.expect_punct(';')?;
    Ok(ConstructorDecl {
        line,
        name,
        args,
        exprs,
    })
}

fn parse_ident_list(lx: &mut Lexer) -> Result<Vec<String>, ParseError> {
    let mut out = Vec::new();
    loop {
        match lx.next() {
            Some(Tok::Punct(')')) => break,
            Some(Tok::Ident(s)) => {
                out.push(s);
                match lx.peek() {
                    Some(Tok::Punct(',')) => {
                        lx.next();
                    }
                    Some(Tok::Punct(')')) => {}
                    other => return Err(lx.err(format!("expected ',' or ')', got {other:?}"))),
                }
            }
            other => return Err(lx.err(format!("expected identifier, got {other:?}"))),
        }
    }
    Ok(out)
}

fn parse_type_expr(lx: &mut Lexer) -> Result<TypeExpr, ParseError> {
    match lx.next() {
        Some(Tok::Underscore) => Ok(TypeExpr::Missing),
        Some(Tok::Ident(name)) if name == "unknown" => Ok(TypeExpr::Unknown),
        Some(Tok::Ident(name)) => {
            if let Some(Tok::Punct('(')) = lx.peek() {
                lx.next();
                let ctor_args = parse_ident_list(lx)?;
                Ok(TypeExpr::Concrete { name, ctor_args })
            } else if name
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
                && name.len() <= 2
            {
                Ok(TypeExpr::Generic(name))
            } else {
                // A bare split type name: no constructor args.
                Ok(TypeExpr::Concrete {
                    name,
                    ctor_args: Vec::new(),
                })
            }
        }
        other => Err(lx.err(format!("expected split type, got {other:?}"))),
    }
}

/// Parse `splittable(...) [-> ret] fn-decl;+` — "one or more functions"
/// may share an SA (Listing 3).
fn parse_splittable(lx: &mut Lexer) -> Result<Vec<AnnotatedFn>, ParseError> {
    let line = lx.line();
    match lx.next() {
        Some(Tok::Ident(kw)) if kw == "splittable" => {}
        other => return Err(lx.err(format!("expected 'splittable' after '@', got {other:?}"))),
    }
    lx.expect_punct('(')?;
    let mut args = Vec::new();
    loop {
        match lx.peek() {
            Some(Tok::Punct(')')) => {
                lx.next();
                break;
            }
            _ => {
                let line = lx.line();
                let mut mutable = false;
                let mut name = lx.expect_ident()?;
                if name == "mut" {
                    mutable = true;
                    name = lx.expect_ident()?;
                }
                lx.expect_punct(':')?;
                let ty = parse_type_expr(lx)?;
                args.push(ArgAnnotation {
                    line,
                    mutable,
                    name,
                    ty,
                });
                if let Some(Tok::Punct(',')) = lx.peek() {
                    lx.next();
                }
            }
        }
    }
    let ret = if let Some(Tok::Arrow) = lx.peek() {
        lx.next();
        Some(parse_type_expr(lx)?)
    } else {
        None
    };

    // One or more C function declarations, while what follows parses
    // as one.
    let mut fns = vec![parse_c_decl(lx, line, &args, &ret)?];
    while matches!(lx.peek(), Some(Tok::Ident(kw)) if kw != "splittype") {
        let save = lx.pos;
        match parse_c_decl(lx, line, &args, &ret) {
            Ok(f) => fns.push(f),
            Err(_) => {
                lx.pos = save;
                break;
            }
        }
    }
    Ok(fns)
}

fn parse_c_decl(
    lx: &mut Lexer,
    line: usize,
    args: &[ArgAnnotation],
    ret: &Option<TypeExpr>,
) -> Result<AnnotatedFn, ParseError> {
    let c_ret = lx.expect_ident()?;
    let name = lx.expect_ident()?;
    lx.expect_punct('(')?;
    let mut params = Vec::new();
    loop {
        match lx.peek() {
            Some(Tok::Punct(')')) => {
                lx.next();
                break;
            }
            _ => {
                let mut ctype = lx.expect_ident()?;
                // Allow multi-word types and pointers: `unsigned long`,
                // `double *`.
                loop {
                    match lx.peek() {
                        Some(Tok::Star) => {
                            lx.next();
                            ctype.push('*');
                        }
                        Some(Tok::Ident(_)) => {
                            // The last identifier before ',' or ')' is
                            // the parameter name.
                            let word = lx.expect_ident()?;
                            match lx.peek() {
                                Some(Tok::Punct(',')) | Some(Tok::Punct(')')) => {
                                    params.push(CParam {
                                        ctype: ctype.clone(),
                                        name: word,
                                    });
                                    break;
                                }
                                _ => {
                                    ctype.push(' ');
                                    ctype.push_str(&word);
                                }
                            }
                        }
                        other => {
                            return Err(
                                lx.err(format!("unexpected token in parameter list: {other:?}"))
                            )
                        }
                    }
                }
                if let Some(Tok::Punct(',')) = lx.peek() {
                    lx.next();
                }
            }
        }
    }
    lx.expect_punct(';')?;

    // Every annotated argument must appear in the declaration.
    for a in args {
        if !params.iter().any(|p| p.name == a.name) {
            return Err(lx.err(format!(
                "annotated argument {:?} not found in declaration of {name}",
                a.name
            )));
        }
    }
    Ok(AnnotatedFn {
        line,
        args: args.to_vec(),
        ret: ret.clone(),
        c_ret,
        name,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING_2: &str = r#"
        // SAs for two functions in Intel MKL (Listing 2).
        @splittable(
            size: SizeSplit(size), a: ArraySplit(size),
            mut out: ArraySplit(size))
        void vdLog1p(long size, double *a, double *out);

        @splittable(
            size: SizeSplit(size), a: ArraySplit(size),
            b: ArraySplit(size), mut out: ArraySplit(size))
        void vdAdd(long size, double *a, double *b, double *out);
    "#;

    #[test]
    fn parses_listing_2() {
        let f = parse(LISTING_2).unwrap();
        assert_eq!(f.functions.len(), 2);
        let log1p = &f.functions[0];
        assert_eq!(log1p.name, "vdLog1p");
        assert_eq!(log1p.args.len(), 3);
        assert!(!log1p.args[0].mutable);
        assert!(log1p.args[2].mutable);
        assert_eq!(
            log1p.args[1].ty,
            TypeExpr::Concrete {
                name: "ArraySplit".into(),
                ctor_args: vec!["size".into()]
            }
        );
        assert_eq!(log1p.params.len(), 3);
        assert_eq!(log1p.params[1].ctype, "double*");
        let add = &f.functions[1];
        assert_eq!(add.name, "vdAdd");
        assert_eq!(add.args.len(), 4);
    }

    #[test]
    fn parses_split_types_and_constructors() {
        let src = r#"
            splittype MatrixSplit(int, int, int);
            MatrixSplit(m, axis) => (m.rows, m.cols, axis);
        "#;
        let f = parse(src).unwrap();
        assert_eq!(f.split_types.len(), 1);
        assert_eq!(f.split_types[0].name, "MatrixSplit");
        assert_eq!(f.split_types[0].params.len(), 3);
        let c = &f.constructors[0];
        assert_eq!(c.args, vec!["m", "axis"]);
        assert_eq!(c.exprs, vec!["m.rows", "m.cols", "axis"]);
    }

    #[test]
    fn parses_generics_unknown_and_ret() {
        // Listing 4's Ex. 2 and Ex. 4.
        let src = r#"
            @splittable(left: S, right: S) -> S
            matrix add(matrix left, matrix right);

            @splittable(m: S) -> unknown
            matrix filterZeroedRows(matrix m);
        "#;
        let f = parse(src).unwrap();
        assert_eq!(f.functions.len(), 2);
        assert_eq!(f.functions[0].args[0].ty, TypeExpr::Generic("S".into()));
        assert_eq!(f.functions[0].ret, Some(TypeExpr::Generic("S".into())));
        assert_eq!(f.functions[1].ret, Some(TypeExpr::Unknown));
    }

    #[test]
    fn parses_missing_and_mut() {
        // Listing 4's Ex. 1.
        let src = r#"
            @splittable(mut m: MatrixSplit(m, axis), axis: _)
            void normalizeMatrixAxis(matrix m, int axis);
        "#;
        let f = parse(src).unwrap();
        let g = &f.functions[0];
        assert!(g.args[0].mutable);
        assert_eq!(g.args[1].ty, TypeExpr::Missing);
        assert_eq!(
            g.args[0].ty,
            TypeExpr::Concrete {
                name: "MatrixSplit".into(),
                ctor_args: vec!["m".into(), "axis".into()]
            }
        );
    }

    #[test]
    fn rejects_annotation_for_undeclared_argument() {
        let src = r#"
            @splittable(bogus: _)
            void f(int x);
        "#;
        let e = parse(src).unwrap_err();
        assert!(e.message.contains("bogus"), "{e}");
    }

    #[test]
    fn reports_line_numbers() {
        let src = "splittype Broken(int;\n";
        let e = parse(src).unwrap_err();
        assert_eq!(e.line, 1);
    }
}
