//! Recursive-descent parser for the Python subset.
//!
//! Node kinds mirror the CPython `ast` module, which the paper's PIGEON
//! tool used for Python: `Module`, `FunctionDef`, `Assign`, `Name`,
//! `Attribute`, `Call`, `Compare==`, `BinOp+`, and so on. Store contexts
//! get dedicated terminal kinds (`NameStore`, `NameParam`, `NameFunc`,
//! `NameClass`) so paths distinguish binding sites from uses.

use crate::lexer::{is_keyword, tokenize, LexError, Token, TokenKind};
use pigeon_ast::{Ast, TreeNode, MAX_DEPTH};
use std::fmt;

/// An error produced while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset the error occurred at.
    pub offset: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            offset: e.offset,
        }
    }
}

/// Parses a Python module into a PIGEON AST rooted at `Module`.
///
/// # Errors
///
/// Returns [`ParseError`] on input outside the supported subset.
///
/// ```
/// # fn main() -> Result<(), pigeon_python::ParseError> {
/// let ast = pigeon_python::parse("retcode = process.returncode\n")?;
/// assert_eq!(
///     pigeon_ast::sexp(&ast),
///     "(Module (Assign (NameStore retcode) (Attribute (Name process) \
///      (AttrName returncode))))"
/// );
/// # Ok(())
/// # }
/// ```
pub fn parse(source: &str) -> Result<Ast, ParseError> {
    let tokens = tokenize(source)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut stmts = Vec::new();
    while !p.at_eof() {
        stmts.push(p.statement()?);
    }
    let ast = TreeNode::inner("Module", stmts).into_ast();
    // Loops build left-nested chains (`a + b + …`, `a.b.…`) without
    // recursing, so the finished tree's height is checked as well.
    if ast.height() > MAX_DEPTH {
        return Err(ParseError {
            message: too_deep(),
            offset: 0,
        });
    }
    Ok(ast)
}

fn too_deep() -> String {
    format!("nesting deeper than {MAX_DEPTH} levels")
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// How many guarded productions are open; see [`Parser::nested`].
    depth: usize,
}

type PResult = Result<TreeNode, ParseError>;

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn at(&self, text: &str) -> bool {
        let t = self.peek();
        matches!(t.kind, TokenKind::Ident | TokenKind::Punct) && t.text == text
    }

    fn at_kind(&self, kind: TokenKind) -> bool {
        self.peek().kind == kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, text: &str) -> bool {
        if self.at(text) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kind(&mut self, kind: TokenKind) -> bool {
        if self.at_kind(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, text: &str) -> Result<Token, ParseError> {
        if self.at(text) {
            Ok(self.bump())
        } else {
            Err(self.error(&format!("expected `{text}`, found `{}`", self.describe())))
        }
    }

    fn expect_kind(&mut self, kind: TokenKind) -> Result<Token, ParseError> {
        if self.at_kind(kind) {
            Ok(self.bump())
        } else {
            Err(self.error(&format!("expected {kind:?}, found `{}`", self.describe())))
        }
    }

    fn describe(&self) -> String {
        let t = self.peek();
        match t.kind {
            TokenKind::Newline => "<newline>".into(),
            TokenKind::Indent => "<indent>".into(),
            TokenKind::Dedent => "<dedent>".into(),
            TokenKind::Eof => "<eof>".into(),
            _ => t.text.clone(),
        }
    }

    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_owned(),
            offset: self.peek().offset,
        }
    }

    /// Runs one guarded production a level deeper, failing once more
    /// than [`MAX_DEPTH`] are open. Every recursive cycle in the grammar
    /// passes through a guarded production, so the parser's own stack
    /// depth is bounded whatever the input.
    fn nested(&mut self, production: fn(&mut Self) -> PResult) -> PResult {
        if self.depth >= MAX_DEPTH {
            return Err(self.error(&too_deep()));
        }
        self.depth += 1;
        let result = production(self);
        self.depth -= 1;
        result
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let t = self.peek();
        if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
            Ok(self.bump().text)
        } else {
            Err(self.error(&format!("expected identifier, found `{}`", self.describe())))
        }
    }

    // ---- statements -----------------------------------------------------

    /// An indented block after `:`, or a simple statement on the same line.
    fn suite(&mut self) -> Result<Vec<TreeNode>, ParseError> {
        self.expect(":")?;
        if self.eat_kind(TokenKind::Newline) {
            self.expect_kind(TokenKind::Indent)?;
            let mut stmts = Vec::new();
            while !self.at_kind(TokenKind::Dedent) && !self.at_eof() {
                stmts.push(self.statement()?);
            }
            self.expect_kind(TokenKind::Dedent)?;
            Ok(stmts)
        } else {
            let s = self.simple_statement()?;
            self.eat_kind(TokenKind::Newline);
            Ok(vec![s])
        }
    }

    fn statement(&mut self) -> PResult {
        self.nested(Self::statement_level)
    }

    fn statement_level(&mut self) -> PResult {
        // Decorators are accepted and skipped.
        while self.at("@") {
            self.bump();
            let _ = self.expression()?;
            self.expect_kind(TokenKind::Newline)?;
        }
        if self.at("def") {
            return self.function_def();
        }
        if self.at("class") {
            return self.class_def();
        }
        if self.at("if") {
            return self.if_statement();
        }
        if self.at("while") {
            self.bump();
            let cond = self.expression()?;
            let mut children = vec![cond];
            children.extend(self.suite()?);
            return Ok(TreeNode::inner("While", children));
        }
        if self.at("for") {
            self.bump();
            let target = self.target()?;
            self.expect("in")?;
            let iter = self.expression()?;
            let mut children = vec![target, iter];
            children.extend(self.suite()?);
            return Ok(TreeNode::inner("For", children));
        }
        if self.at("with") {
            self.bump();
            let ctx = self.expression()?;
            let mut children = vec![ctx];
            if self.eat("as") {
                children.push(TreeNode::leaf("NameStore", self.ident()?.as_str()));
            }
            children.extend(self.suite()?);
            return Ok(TreeNode::inner("With", children));
        }
        if self.at("try") {
            return self.try_statement();
        }
        let s = self.simple_statement()?;
        self.eat_kind(TokenKind::Newline);
        Ok(s)
    }

    fn function_def(&mut self) -> PResult {
        self.expect("def")?;
        let name = self.ident()?;
        let mut children = vec![TreeNode::leaf("NameFunc", name.as_str())];
        self.expect("(")?;
        while !self.at(")") {
            let p = self.ident()?;
            let mut param = TreeNode::leaf("NameParam", p.as_str());
            if self.eat("=") {
                let default = self.expression()?;
                param = TreeNode::inner("DefaultParam", vec![param, default]);
            }
            children.push(param);
            if !self.eat(",") {
                break;
            }
        }
        self.expect(")")?;
        children.extend(self.suite()?);
        Ok(TreeNode::inner("FunctionDef", children))
    }

    fn class_def(&mut self) -> PResult {
        self.expect("class")?;
        let name = self.ident()?;
        let mut children = vec![TreeNode::leaf("NameClass", name.as_str())];
        if self.eat("(") {
            while !self.at(")") {
                children.push(TreeNode::inner("Base", vec![self.expression()?]));
                if !self.eat(",") {
                    break;
                }
            }
            self.expect(")")?;
        }
        children.extend(self.suite()?);
        Ok(TreeNode::inner("ClassDef", children))
    }

    fn if_statement(&mut self) -> PResult {
        self.nested(Self::if_statement_level)
    }

    fn if_statement_level(&mut self) -> PResult {
        // `elif` chains nest as If inside the previous orelse, as in the
        // CPython ast.
        self.bump(); // if / elif
        let cond = self.expression()?;
        let mut children = vec![cond];
        children.extend(self.suite()?);
        if self.at("elif") {
            let nested = self.if_statement()?;
            children.push(TreeNode::inner("OrElse", vec![nested]));
        } else if self.eat("else") {
            let body = self.suite()?;
            children.push(TreeNode::inner("OrElse", body));
        }
        Ok(TreeNode::inner("If", children))
    }

    fn try_statement(&mut self) -> PResult {
        self.expect("try")?;
        let body = self.suite()?;
        let mut children = vec![TreeNode::inner("Body", body)];
        while self.at("except") {
            self.bump();
            let mut h = Vec::new();
            if !self.at(":") {
                h.push(TreeNode::inner("ExceptType", vec![self.expression()?]));
                if self.eat("as") {
                    h.push(TreeNode::leaf("NameStore", self.ident()?.as_str()));
                }
            }
            h.extend(self.suite()?);
            children.push(TreeNode::inner("ExceptHandler", h));
        }
        if self.eat("finally") {
            children.push(TreeNode::inner("Finally", self.suite()?));
        }
        if children.len() == 1 {
            return Err(self.error("try requires except or finally"));
        }
        Ok(TreeNode::inner("Try", children))
    }

    fn simple_statement(&mut self) -> PResult {
        if self.eat("return") {
            let mut children = Vec::new();
            if !self.at_kind(TokenKind::Newline) && !self.at_eof() {
                children.push(self.expr_or_tuple()?);
            }
            return Ok(TreeNode::inner("Return", children));
        }
        if self.eat("pass") {
            return Ok(TreeNode::nullary("Pass"));
        }
        if self.eat("break") {
            return Ok(TreeNode::nullary("Break"));
        }
        if self.eat("continue") {
            return Ok(TreeNode::nullary("Continue"));
        }
        if self.eat("raise") {
            let mut children = Vec::new();
            if !self.at_kind(TokenKind::Newline) && !self.at_eof() {
                children.push(self.expression()?);
            }
            return Ok(TreeNode::inner("Raise", children));
        }
        if self.at("import") || self.at("from") {
            return self.import_statement();
        }
        if self.eat("global") {
            let mut names = vec![TreeNode::leaf("Name", self.ident()?.as_str())];
            while self.eat(",") {
                names.push(TreeNode::leaf("Name", self.ident()?.as_str()));
            }
            return Ok(TreeNode::inner("Global", names));
        }
        if self.eat("del") {
            let e = self.expression()?;
            return Ok(TreeNode::inner("Delete", vec![e]));
        }
        // Assignment, augmented assignment, or bare expression.
        let first = self.expr_or_tuple()?;
        for op in ["+=", "-=", "*=", "/=", "%="] {
            if self.at(op) {
                self.bump();
                let value = self.expr_or_tuple()?;
                return Ok(TreeNode::inner(
                    format!("AugAssign{op}").as_str(),
                    vec![to_store(first), value],
                ));
            }
        }
        if self.at("=") {
            let mut targets = vec![first];
            while self.eat("=") {
                targets.push(self.expr_or_tuple()?);
            }
            let value = targets.pop().expect("at least the RHS");
            let mut children: Vec<TreeNode> = targets.into_iter().map(to_store).collect();
            children.push(value);
            return Ok(TreeNode::inner("Assign", children));
        }
        Ok(TreeNode::inner("Expr", vec![first]))
    }

    fn import_statement(&mut self) -> PResult {
        if self.eat("from") {
            let module = self.dotted_name()?;
            self.expect("import")?;
            let mut children = vec![TreeNode::leaf("ModuleName", module.as_str())];
            loop {
                let n = self.ident()?;
                children.push(TreeNode::leaf("Name", n.as_str()));
                if !self.eat(",") {
                    break;
                }
            }
            return Ok(TreeNode::inner("ImportFrom", children));
        }
        self.expect("import")?;
        let mut children = Vec::new();
        loop {
            let n = self.dotted_name()?;
            children.push(TreeNode::leaf("ModuleName", n.as_str()));
            if self.eat("as") {
                children.push(TreeNode::leaf("NameStore", self.ident()?.as_str()));
            }
            if !self.eat(",") {
                break;
            }
        }
        Ok(TreeNode::inner("Import", children))
    }

    fn dotted_name(&mut self) -> Result<String, ParseError> {
        let mut name = self.ident()?;
        while self.at(".") {
            self.bump();
            name.push('.');
            name.push_str(&self.ident()?);
        }
        Ok(name)
    }

    /// A `for` target: a name or a tuple of names.
    fn target(&mut self) -> PResult {
        let first = TreeNode::leaf("NameStore", self.ident()?.as_str());
        if !self.at(",") {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(",") {
            parts.push(TreeNode::leaf("NameStore", self.ident()?.as_str()));
        }
        Ok(TreeNode::inner("TupleStore", parts))
    }

    // ---- expressions ----------------------------------------------------

    /// An expression, or a tuple when followed by commas:
    /// `o, e = p.communicate()`.
    fn expr_or_tuple(&mut self) -> PResult {
        let first = self.expression()?;
        if !self.at(",") {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.eat(",") {
            if self.at_kind(TokenKind::Newline) || self.at("=") || self.at(")") {
                break;
            }
            parts.push(self.expression()?);
        }
        Ok(TreeNode::inner("Tuple", parts))
    }

    fn expression(&mut self) -> PResult {
        self.nested(Self::expression_level)
    }

    fn expression_level(&mut self) -> PResult {
        self.ternary()
    }

    fn ternary(&mut self) -> PResult {
        let body = self.or_expr()?;
        if self.at("if") {
            self.bump();
            let cond = self.or_expr()?;
            self.expect("else")?;
            let orelse = self.expression()?;
            return Ok(TreeNode::inner("IfExp", vec![cond, body, orelse]));
        }
        Ok(body)
    }

    fn or_expr(&mut self) -> PResult {
        let mut lhs = self.and_expr()?;
        while self.at("or") {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = TreeNode::inner("BoolOpOr", vec![lhs, rhs]);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult {
        let mut lhs = self.not_expr()?;
        while self.at("and") {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = TreeNode::inner("BoolOpAnd", vec![lhs, rhs]);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> PResult {
        self.nested(Self::not_expr_level)
    }

    fn not_expr_level(&mut self) -> PResult {
        if self.at("not") {
            self.bump();
            let operand = self.not_expr()?;
            return Ok(TreeNode::inner("UnaryOpNot", vec![operand]));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> PResult {
        let mut lhs = self.arith(0)?;
        loop {
            let op = ["==", "!=", "<", ">", "<=", ">="]
                .iter()
                .find(|op| self.at(op))
                .copied();
            if let Some(op) = op {
                self.bump();
                let rhs = self.arith(0)?;
                lhs = TreeNode::inner(format!("Compare{op}").as_str(), vec![lhs, rhs]);
                continue;
            }
            if self.at("in") {
                self.bump();
                let rhs = self.arith(0)?;
                lhs = TreeNode::inner("CompareIn", vec![lhs, rhs]);
                continue;
            }
            if self.at("not") {
                self.bump();
                self.expect("in")?;
                let rhs = self.arith(0)?;
                lhs = TreeNode::inner("CompareNotIn", vec![lhs, rhs]);
                continue;
            }
            if self.at("is") {
                self.bump();
                let negated = self.eat("not");
                let rhs = self.arith(0)?;
                let kind = if negated { "CompareIsNot" } else { "CompareIs" };
                lhs = TreeNode::inner(kind, vec![lhs, rhs]);
                continue;
            }
            return Ok(lhs);
        }
    }

    const ARITH_TIERS: [&'static [&'static str]; 2] = [&["+", "-"], &["*", "/", "//", "%"]];

    fn arith(&mut self, tier: usize) -> PResult {
        if tier >= Self::ARITH_TIERS.len() {
            return self.unary();
        }
        let mut lhs = self.arith(tier + 1)?;
        loop {
            let op = Self::ARITH_TIERS[tier]
                .iter()
                .find(|op| self.at(op))
                .copied();
            match op {
                Some(op) => {
                    self.bump();
                    let rhs = self.arith(tier + 1)?;
                    lhs = TreeNode::inner(format!("BinOp{op}").as_str(), vec![lhs, rhs]);
                }
                None => return Ok(lhs),
            }
        }
    }

    fn unary(&mut self) -> PResult {
        self.nested(Self::unary_level)
    }

    fn unary_level(&mut self) -> PResult {
        if self.at("-") || self.at("+") || self.at("~") {
            let op = self.bump().text;
            let operand = self.unary()?;
            return Ok(TreeNode::inner(
                format!("UnaryOp{op}").as_str(),
                vec![operand],
            ));
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult {
        let mut e = self.primary()?;
        loop {
            if self.at(".") {
                self.bump();
                // Attribute names admit keywords rarely; identifiers only.
                let name = self.ident()?;
                e = TreeNode::inner(
                    "Attribute",
                    vec![e, TreeNode::leaf("AttrName", name.as_str())],
                );
            } else if self.at("(") {
                self.bump();
                let mut children = vec![e];
                while !self.at(")") {
                    if self.peek().kind == TokenKind::Ident
                        && !is_keyword(&self.peek().text)
                        && self.tokens[self.pos + 1].text == "="
                        && self.tokens[self.pos + 1].kind == TokenKind::Punct
                        && self.tokens[self.pos + 2].text != "="
                    {
                        // Keyword argument: `shell=True`.
                        let kw = self.ident()?;
                        self.expect("=")?;
                        let value = self.expression()?;
                        children.push(TreeNode::inner(
                            "Keyword",
                            vec![TreeNode::leaf("KeywordName", kw.as_str()), value],
                        ));
                    } else {
                        children.push(self.expression()?);
                    }
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect(")")?;
                e = TreeNode::inner("Call", children);
            } else if self.at("[") {
                self.bump();
                let index = self.subscript_index()?;
                self.expect("]")?;
                e = TreeNode::inner("Subscript", vec![e, index]);
            } else {
                return Ok(e);
            }
        }
    }

    fn subscript_index(&mut self) -> PResult {
        // Slices: `a[1:2]`, `a[:n]`, `a[i:]`.
        let lower = if self.at(":") {
            None
        } else {
            Some(self.expression()?)
        };
        if self.eat(":") {
            let upper = if self.at("]") {
                None
            } else {
                Some(self.expression()?)
            };
            let mut children = Vec::new();
            if let Some(l) = lower {
                children.push(TreeNode::inner("Lower", vec![l]));
            }
            if let Some(u) = upper {
                children.push(TreeNode::inner("Upper", vec![u]));
            }
            return Ok(TreeNode::inner("Slice", children));
        }
        lower.ok_or_else(|| self.error("empty subscript"))
    }

    fn primary(&mut self) -> PResult {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::Number => {
                self.bump();
                Ok(TreeNode::leaf("Num", t.text.as_str()))
            }
            TokenKind::String => {
                self.bump();
                Ok(TreeNode::leaf("Str", t.text.as_str()))
            }
            TokenKind::Ident => match t.text.as_str() {
                "True" | "False" | "None" => {
                    self.bump();
                    Ok(TreeNode::leaf("NameConstant", t.text.as_str()))
                }
                "lambda" => {
                    self.bump();
                    let mut children = Vec::new();
                    while !self.at(":") {
                        children.push(TreeNode::leaf("NameParam", self.ident()?.as_str()));
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.expect(":")?;
                    children.push(self.expression()?);
                    Ok(TreeNode::inner("Lambda", children))
                }
                _ if is_keyword(&t.text) => {
                    Err(self.error(&format!("unexpected keyword `{}`", t.text)))
                }
                _ => {
                    self.bump();
                    Ok(TreeNode::leaf("Name", t.text.as_str()))
                }
            },
            TokenKind::Punct => match t.text.as_str() {
                "(" => {
                    self.bump();
                    if self.eat(")") {
                        return Ok(TreeNode::nullary("Tuple"));
                    }
                    let e = self.expr_or_tuple()?;
                    self.expect(")")?;
                    Ok(e)
                }
                "[" => {
                    self.bump();
                    let mut items = Vec::new();
                    while !self.at("]") {
                        items.push(self.expression()?);
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.expect("]")?;
                    Ok(TreeNode::inner("List", items))
                }
                "{" => {
                    self.bump();
                    let mut items = Vec::new();
                    while !self.at("}") {
                        let key = self.expression()?;
                        self.expect(":")?;
                        let value = self.expression()?;
                        items.push(TreeNode::inner("DictItem", vec![key, value]));
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.expect("}")?;
                    Ok(TreeNode::inner("Dict", items))
                }
                _ => Err(self.error(&format!("unexpected token `{}`", self.describe()))),
            },
            _ => Err(self.error(&format!("unexpected token `{}`", self.describe()))),
        }
    }
}

/// Rewrites load-context names to store context in assignment targets,
/// mirroring the CPython ast's `ctx` field.
fn to_store(mut node: TreeNode) -> TreeNode {
    let name_kind = pigeon_ast::Kind::new("Name");
    let tuple_kind = pigeon_ast::Kind::new("Tuple");
    if node.kind == name_kind {
        if let Some(v) = node.value {
            return TreeNode::leaf("NameStore", v.as_str());
        }
    }
    if node.kind == tuple_kind {
        let children = std::mem::take(&mut node.children)
            .into_iter()
            .map(to_store)
            .collect();
        return TreeNode::inner("TupleStore", children);
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_ast::sexp;

    fn s(src: &str) -> String {
        sexp(&parse(src).unwrap())
    }

    #[test]
    fn assignment_and_attribute() {
        assert_eq!(
            s("r = p.returncode\n"),
            "(Module (Assign (NameStore r) (Attribute (Name p) (AttrName returncode))))"
        );
    }

    #[test]
    fn tuple_unpacking_fig7() {
        // `o, e = p.communicate()` from the paper's Fig. 7.
        assert_eq!(
            s("o, e = p.communicate()\n"),
            "(Module (Assign (TupleStore (NameStore o) (NameStore e)) (Call (Attribute \
             (Name p) (AttrName communicate)))))"
        );
    }

    #[test]
    fn fig7_function_shape() {
        let src = "def sh3(c):\n    p = Popen(c, stdout=PIPE, shell=True)\n    r = \
                   p.returncode\n    if r:\n        raise CalledProcessError(r, c)\n    \
                   else:\n        return c\n";
        let text = s(src);
        assert!(text.starts_with("(Module (FunctionDef (NameFunc sh3) (NameParam c)"));
        assert!(text.contains("(Keyword (KeywordName stdout) (Name PIPE))"));
        assert!(text.contains("(Keyword (KeywordName shell) (NameConstant True))"));
        assert!(text.contains("(Raise (Call (Name CalledProcessError) (Name r) (Name c)))"));
        assert!(text.contains("(OrElse (Return (Name c)))"));
    }

    #[test]
    fn elif_nests_in_orelse() {
        let src = "if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n";
        let text = s(src);
        assert!(text.contains("(OrElse (If (Name b)"));
        assert!(text.contains("(OrElse (Assign (NameStore x) (Num 3)))"));
    }

    #[test]
    fn for_loop_with_tuple_target() {
        assert_eq!(
            s("for k, v in items:\n    f(k, v)\n"),
            "(Module (For (TupleStore (NameStore k) (NameStore v)) (Name items) (Expr \
             (Call (Name f) (Name k) (Name v)))))"
        );
    }

    #[test]
    fn while_and_augassign() {
        assert_eq!(
            s("while n > 0:\n    total += n\n    n -= 1\n"),
            "(Module (While (Compare> (Name n) (Num 0)) (AugAssign+= (NameStore total) \
             (Name n)) (AugAssign-= (NameStore n) (Num 1))))"
        );
    }

    #[test]
    fn boolean_operators_and_not() {
        assert_eq!(
            s("ok = a and not b or c\n"),
            "(Module (Assign (NameStore ok) (BoolOpOr (BoolOpAnd (Name a) (UnaryOpNot \
             (Name b))) (Name c))))"
        );
    }

    #[test]
    fn comparisons_in_is() {
        let text = s("x = a in xs\ny = b is None\nz = c is not None\nw = d not in xs\n");
        assert!(text.contains("(CompareIn (Name a) (Name xs))"));
        assert!(text.contains("(CompareIs (Name b) (NameConstant None))"));
        assert!(text.contains("(CompareIsNot (Name c) (NameConstant None))"));
        assert!(text.contains("(CompareNotIn (Name d) (Name xs))"));
    }

    #[test]
    fn class_def_with_base_and_methods() {
        let src = "class Handler(Base):\n    def handle(self, request):\n        \
                   return request\n";
        assert_eq!(
            s(src),
            "(Module (ClassDef (NameClass Handler) (Base (Name Base)) (FunctionDef \
             (NameFunc handle) (NameParam self) (NameParam request) (Return (Name \
             request)))))"
        );
    }

    #[test]
    fn try_except_finally() {
        let src = "try:\n    f()\nexcept IOError as e:\n    g(e)\nfinally:\n    h()\n";
        assert_eq!(
            s(src),
            "(Module (Try (Body (Expr (Call (Name f)))) (ExceptHandler (ExceptType (Name \
             IOError)) (NameStore e) (Expr (Call (Name g) (Name e)))) (Finally (Expr \
             (Call (Name h))))))"
        );
    }

    #[test]
    fn with_statement() {
        assert_eq!(
            s("with open(path) as f:\n    data = f.read()\n"),
            "(Module (With (Call (Name open) (Name path)) (NameStore f) (Assign \
             (NameStore data) (Call (Attribute (Name f) (AttrName read))))))"
        );
    }

    #[test]
    fn subscripts_and_slices() {
        let text = s("x = a[0]\ny = a[1:n]\nz = a[:n]\n");
        assert!(text.contains("(Subscript (Name a) (Num 0))"));
        assert!(text.contains("(Subscript (Name a) (Slice (Lower (Num 1)) (Upper (Name n))))"));
        assert!(text.contains("(Subscript (Name a) (Slice (Upper (Name n))))"));
    }

    #[test]
    fn list_dict_literals_and_ifexp() {
        let text = s("xs = [1, 2]\nd = {'a': 1}\nm = x if ok else y\n");
        assert!(text.contains("(List (Num 1) (Num 2))"));
        assert!(text.contains("(DictItem (Str a) (Num 1))"));
        assert!(text.contains("(IfExp (Name ok) (Name x) (Name y))"));
    }

    #[test]
    fn imports() {
        let text = s("import os, sys\nfrom subprocess import Popen, PIPE\n");
        assert!(text.contains("(Import (ModuleName os) (ModuleName sys))"));
        assert!(text.contains("(ImportFrom (ModuleName subprocess) (Name Popen) (Name PIPE))"));
    }

    #[test]
    fn lambda_and_return_tuple() {
        let text = s("f = lambda x: x + 1\ndef g():\n    return a, b\n");
        assert!(text.contains("(Lambda (NameParam x) (BinOp+ (Name x) (Num 1)))"));
        assert!(text.contains("(Return (Tuple (Name a) (Name b)))"));
    }

    #[test]
    fn decorators_are_skipped() {
        let text = s("@staticmethod\ndef f():\n    pass\n");
        assert!(text.contains("(FunctionDef (NameFunc f) (Pass))"));
    }

    #[test]
    fn errors_carry_positions() {
        assert!(parse("def f(:\n").is_err());
        assert!(parse("x = \n").is_err());
        assert!(parse("if x\n    y = 1\n").is_err());
    }

    #[test]
    fn invariants_hold() {
        let ast = parse(
            "def count(values, target):\n    c = 0\n    for v in values:\n        if v == \
             target:\n            c += 1\n    return c\n",
        )
        .unwrap();
        ast.check_invariants().unwrap();
    }
}
