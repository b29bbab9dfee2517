//! Recursive-descent parser for the JavaScript subset.
//!
//! Node kinds follow UglifyJS (the parser the paper used for JavaScript):
//! `SymbolRef` for identifier references, `SymbolVar` for declared names,
//! `Assign=` / `Binary==` / `UnaryPrefix!` with the operator folded into
//! the kind, `Sub` for computed member access, `Dot` for named member
//! access, and so on. See the crate docs for the full kind inventory.

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

/// Parses a JavaScript compilation unit into a PIGEON AST rooted at
/// `Toplevel`.
///
/// # Errors
///
/// Returns [`ParseError`] on any input outside the supported subset.
///
/// ```
/// # fn main() -> Result<(), pigeon_js::ParseError> {
/// let ast = pigeon_js::parse("var done = false;")?;
/// assert_eq!(pigeon_ast::sexp(&ast),
///     "(Toplevel (Var (VarDef (SymbolVar done) (False false))))");
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
    let ast = TreeNode::inner("Toplevel", stmts).into_ast();
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

    fn peek_at(&self, n: usize) -> &Token {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i]
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    fn at(&self, text: &str) -> bool {
        let t = self.peek();
        t.kind != TokenKind::Eof && t.kind != TokenKind::String && t.text == text
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

    fn expect(&mut self, text: &str) -> Result<Token, ParseError> {
        if self.at(text) {
            Ok(self.bump())
        } else {
            Err(self.error(&format!("expected `{text}`, found `{}`", self.peek().text)))
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
            Err(self.error(&format!("expected identifier, found `{}`", t.text)))
        }
    }

    // ---- statements -----------------------------------------------------

    /// Splices a parsed body into `children`: a braced block's statements
    /// are appended directly, matching the UglifyJS AST the paper draws
    /// (Fig. 1b shows `While ↓ If` with no Block node in between).
    fn splice_body(mut body: TreeNode, children: &mut Vec<TreeNode>) {
        if body.kind == pigeon_ast::Kind::new("Block") && body.value.is_none() {
            children.append(&mut body.children);
        } else {
            children.push(body);
        }
    }

    fn statement(&mut self) -> PResult {
        self.nested(Self::statement_level)
    }

    fn statement_level(&mut self) -> PResult {
        if self.at("var") || self.at("let") || self.at("const") {
            let s = self.var_statement()?;
            self.eat(";");
            return Ok(s);
        }
        if self.at("function") {
            return self.function(true);
        }
        if self.at("if") {
            return self.if_statement();
        }
        if self.at("while") {
            self.bump();
            self.expect("(")?;
            let cond = self.expression()?;
            self.expect(")")?;
            let body = self.statement()?;
            let mut children = vec![cond];
            Self::splice_body(body, &mut children);
            return Ok(TreeNode::inner("While", children));
        }
        if self.at("do") {
            self.bump();
            let body = self.statement()?;
            self.expect("while")?;
            self.expect("(")?;
            let cond = self.expression()?;
            self.expect(")")?;
            self.eat(";");
            return Ok(TreeNode::inner("Do", vec![body, cond]));
        }
        if self.at("for") {
            return self.for_statement();
        }
        if self.at("return") {
            self.bump();
            let mut children = Vec::new();
            if !self.at(";") && !self.at("}") && !self.at_eof() {
                children.push(self.expression()?);
            }
            self.eat(";");
            return Ok(TreeNode::inner("Return", children));
        }
        if self.at("break") {
            self.bump();
            self.eat(";");
            return Ok(TreeNode::nullary("Break"));
        }
        if self.at("continue") {
            self.bump();
            self.eat(";");
            return Ok(TreeNode::nullary("Continue"));
        }
        if self.at("throw") {
            self.bump();
            let e = self.expression()?;
            self.eat(";");
            return Ok(TreeNode::inner("Throw", vec![e]));
        }
        if self.at("switch") {
            return self.switch_statement();
        }
        if self.at("try") {
            return self.try_statement();
        }
        if self.at("{") {
            return self.block();
        }
        // Expression statement: the expression node itself is the
        // statement, as in the paper's UglifyJS-style figures.
        let e = self.expression()?;
        self.eat(";");
        Ok(e)
    }

    fn var_statement(&mut self) -> PResult {
        let kw = self.bump().text;
        let kind = match kw.as_str() {
            "var" => "Var",
            "let" => "Let",
            _ => "Const",
        };
        let mut defs = Vec::new();
        loop {
            let name = self.ident()?;
            let mut def = vec![TreeNode::leaf("SymbolVar", name.as_str())];
            if self.eat("=") {
                def.push(self.assignment()?);
            }
            defs.push(TreeNode::inner("VarDef", def));
            if !self.eat(",") {
                break;
            }
        }
        Ok(TreeNode::inner(kind, defs))
    }

    fn function(&mut self, is_decl: bool) -> PResult {
        self.expect("function")?;
        let mut children = Vec::new();
        let kind = if is_decl { "Defun" } else { "Function" };
        if self.peek().kind == TokenKind::Ident && !is_keyword(&self.peek().text) {
            let name = self.ident()?;
            let name_kind = if is_decl {
                "SymbolDefun"
            } else {
                "SymbolLambda"
            };
            children.push(TreeNode::leaf(name_kind, name.as_str()));
        } else if is_decl {
            return Err(self.error("function declaration requires a name"));
        }
        self.expect("(")?;
        while !self.at(")") {
            let arg = self.ident()?;
            children.push(TreeNode::leaf("SymbolFunarg", arg.as_str()));
            if !self.eat(",") {
                break;
            }
        }
        self.expect(")")?;
        self.expect("{")?;
        while !self.at("}") {
            children.push(self.statement()?);
        }
        self.expect("}")?;
        Ok(TreeNode::inner(kind, children))
    }

    fn if_statement(&mut self) -> PResult {
        self.expect("if")?;
        self.expect("(")?;
        let cond = self.expression()?;
        self.expect(")")?;
        let then = self.statement()?;
        let mut children = vec![cond];
        Self::splice_body(then, &mut children);
        if self.eat("else") {
            let mut alt = Vec::new();
            Self::splice_body(self.statement()?, &mut alt);
            children.push(TreeNode::inner("Else", alt));
        }
        Ok(TreeNode::inner("If", children))
    }

    fn for_statement(&mut self) -> PResult {
        self.expect("for")?;
        self.expect("(")?;
        // Distinguish for-in / for-of from the classic three-clause form.
        let decl_kw = self.at("var") || self.at("let") || self.at("const");
        let in_or_of = {
            let step = if decl_kw { 2 } else { 1 };
            let t = self.peek_at(step);
            t.kind == TokenKind::Ident && (t.text == "in" || t.text == "of")
        };
        if in_or_of {
            let binding = if decl_kw {
                self.bump();
                TreeNode::inner(
                    "VarDef",
                    vec![TreeNode::leaf("SymbolVar", self.ident()?.as_str())],
                )
            } else {
                TreeNode::leaf("SymbolRef", self.ident()?.as_str())
            };
            let kind = if self.eat("in") {
                "ForIn"
            } else {
                self.expect("of")?;
                "ForOf"
            };
            let object = self.expression()?;
            self.expect(")")?;
            let body = self.statement()?;
            let mut children = vec![binding, object];
            Self::splice_body(body, &mut children);
            return Ok(TreeNode::inner(kind, children));
        }
        let mut children = Vec::new();
        if !self.at(";") {
            if decl_kw {
                children.push(self.var_statement()?);
            } else {
                children.push(self.expression()?);
            }
        }
        self.expect(";")?;
        if !self.at(";") {
            children.push(self.expression()?);
        }
        self.expect(";")?;
        if !self.at(")") {
            children.push(self.expression()?);
        }
        self.expect(")")?;
        let body = self.statement()?;
        Self::splice_body(body, &mut children);
        Ok(TreeNode::inner("For", children))
    }

    fn switch_statement(&mut self) -> PResult {
        self.expect("switch")?;
        self.expect("(")?;
        let scrutinee = self.expression()?;
        self.expect(")")?;
        self.expect("{")?;
        let mut children = vec![scrutinee];
        while !self.at("}") {
            if self.eat("case") {
                let value = self.expression()?;
                self.expect(":")?;
                let mut body = vec![value];
                while !self.at("case") && !self.at("default") && !self.at("}") {
                    body.push(self.statement()?);
                }
                children.push(TreeNode::inner("Case", body));
            } else {
                self.expect("default")?;
                self.expect(":")?;
                let mut body = Vec::new();
                while !self.at("case") && !self.at("default") && !self.at("}") {
                    body.push(self.statement()?);
                }
                children.push(TreeNode::inner("Default", body));
            }
        }
        self.expect("}")?;
        Ok(TreeNode::inner("Switch", children))
    }

    fn try_statement(&mut self) -> PResult {
        self.expect("try")?;
        let mut children = vec![self.block()?];
        if self.eat("catch") {
            let mut catch = Vec::new();
            if self.eat("(") {
                catch.push(TreeNode::leaf("SymbolCatch", self.ident()?.as_str()));
                self.expect(")")?;
            }
            catch.push(self.block()?);
            children.push(TreeNode::inner("Catch", catch));
        }
        if self.eat("finally") {
            children.push(TreeNode::inner("Finally", vec![self.block()?]));
        }
        if children.len() == 1 {
            return Err(self.error("try requires catch or finally"));
        }
        Ok(TreeNode::inner("Try", children))
    }

    fn block(&mut self) -> PResult {
        self.expect("{")?;
        let mut stmts = Vec::new();
        while !self.at("}") {
            stmts.push(self.statement()?);
        }
        self.expect("}")?;
        Ok(TreeNode::inner("Block", stmts))
    }

    // ---- expressions ----------------------------------------------------

    fn expression(&mut self) -> PResult {
        let mut e = self.assignment()?;
        // Comma operator: fold into a Seq node.
        if self.at(",") {
            let mut parts = vec![e];
            while self.eat(",") {
                parts.push(self.assignment()?);
            }
            e = TreeNode::inner("Seq", parts);
        }
        Ok(e)
    }

    fn assignment(&mut self) -> PResult {
        self.nested(Self::assignment_level)
    }

    fn assignment_level(&mut self) -> PResult {
        let lhs = self.conditional()?;
        for op in ["=", "+=", "-=", "*=", "/=", "%="] {
            if self.at(op) {
                self.bump();
                let rhs = self.assignment()?;
                return Ok(TreeNode::inner(
                    format!("Assign{op}").as_str(),
                    vec![lhs, rhs],
                ));
            }
        }
        Ok(lhs)
    }

    fn conditional(&mut self) -> PResult {
        let cond = self.binary(0)?;
        if self.eat("?") {
            let then = self.assignment()?;
            self.expect(":")?;
            let alt = self.assignment()?;
            return Ok(TreeNode::inner("Conditional", vec![cond, then, alt]));
        }
        Ok(cond)
    }

    /// Binary operator tiers, loosest first.
    const BINARY_TIERS: [&'static [&'static str]; 6] = [
        &["||"],
        &["&&"],
        &["==", "!=", "===", "!=="],
        &["<", ">", "<=", ">=", "in", "instanceof"],
        &["+", "-"],
        &["*", "/", "%"],
    ];

    fn binary(&mut self, tier: usize) -> PResult {
        if tier >= Self::BINARY_TIERS.len() {
            return self.unary();
        }
        let mut lhs = self.binary(tier + 1)?;
        loop {
            let op = Self::BINARY_TIERS[tier]
                .iter()
                .find(|op| self.at(op))
                .copied();
            match op {
                Some(op) => {
                    self.bump();
                    let rhs = self.binary(tier + 1)?;
                    lhs = TreeNode::inner(format!("Binary{op}").as_str(), vec![lhs, rhs]);
                }
                None => return Ok(lhs),
            }
        }
    }

    fn unary(&mut self) -> PResult {
        self.nested(Self::unary_level)
    }

    fn unary_level(&mut self) -> PResult {
        for op in ["!", "-", "+", "~", "typeof", "delete", "++", "--"] {
            if self.at(op) {
                self.bump();
                let operand = self.unary()?;
                return Ok(TreeNode::inner(
                    format!("UnaryPrefix{op}").as_str(),
                    vec![operand],
                ));
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> PResult {
        let mut e = self.call_member()?;
        for op in ["++", "--"] {
            if self.at(op) {
                self.bump();
                e = TreeNode::inner(format!("UnaryPostfix{op}").as_str(), vec![e]);
            }
        }
        Ok(e)
    }

    fn call_member(&mut self) -> PResult {
        let mut e = if self.at("new") {
            self.bump();
            let callee = self.primary()?;
            let mut children = vec![callee];
            if self.eat("(") {
                while !self.at(")") {
                    children.push(self.assignment()?);
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect(")")?;
            }
            TreeNode::inner("New", children)
        } else {
            self.primary()?
        };
        loop {
            if self.eat(".") {
                let prop = self.property_name()?;
                e = TreeNode::inner("Dot", vec![e, TreeNode::leaf("Property", prop.as_str())]);
            } else if self.eat("[") {
                let index = self.expression()?;
                self.expect("]")?;
                e = TreeNode::inner("Sub", vec![e, index]);
            } else if self.eat("(") {
                let mut children = vec![e];
                while !self.at(")") {
                    children.push(self.assignment()?);
                    if !self.eat(",") {
                        break;
                    }
                }
                self.expect(")")?;
                e = TreeNode::inner("Call", children);
            } else {
                return Ok(e);
            }
        }
    }

    fn property_name(&mut self) -> Result<String, ParseError> {
        let t = self.peek();
        if t.kind == TokenKind::Ident {
            // Property positions admit keywords (`x.in` is legal enough
            // for the subset).
            Ok(self.bump().text)
        } else {
            Err(self.error(&format!("expected property name, found `{}`", t.text)))
        }
    }

    /// Whether the parenthesis at the current position opens an arrow
    /// function's parameter list.
    fn paren_starts_arrow(&self) -> bool {
        debug_assert!(self.at("("));
        let mut depth = 0usize;
        let mut i = self.pos;
        loop {
            let t = &self.tokens[i];
            match t.kind {
                TokenKind::Eof => return false,
                TokenKind::Punct if t.text == "(" => depth += 1,
                TokenKind::Punct if t.text == ")" => {
                    depth -= 1;
                    if depth == 0 {
                        let next = &self.tokens[(i + 1).min(self.tokens.len() - 1)];
                        return next.kind == TokenKind::Punct && next.text == "=>";
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }

    fn arrow_body(&mut self, mut params: Vec<TreeNode>) -> PResult {
        self.expect("=>")?;
        if self.at("{") {
            params.push(self.block()?);
        } else {
            params.push(self.assignment()?);
        }
        Ok(TreeNode::inner("Arrow", params))
    }

    fn primary(&mut self) -> PResult {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::Number => {
                self.bump();
                Ok(TreeNode::leaf("Number", t.text.as_str()))
            }
            TokenKind::String => {
                self.bump();
                Ok(TreeNode::leaf("String", t.text.as_str()))
            }
            TokenKind::Ident => match t.text.as_str() {
                "true" => {
                    self.bump();
                    Ok(TreeNode::leaf("True", "true"))
                }
                "false" => {
                    self.bump();
                    Ok(TreeNode::leaf("False", "false"))
                }
                "null" => {
                    self.bump();
                    Ok(TreeNode::leaf("Null", "null"))
                }
                "this" => {
                    self.bump();
                    Ok(TreeNode::leaf("This", "this"))
                }
                "function" => self.function(false),
                _ if is_keyword(&t.text) => {
                    Err(self.error(&format!("unexpected keyword `{}`", t.text)))
                }
                _ => {
                    // Single-parameter arrow: `x => body`.
                    if self.peek_at(1).text == "=>" && self.peek_at(1).kind == TokenKind::Punct {
                        let p = self.ident()?;
                        return self.arrow_body(vec![TreeNode::leaf("SymbolFunarg", p.as_str())]);
                    }
                    self.bump();
                    Ok(TreeNode::leaf("SymbolRef", t.text.as_str()))
                }
            },
            TokenKind::Punct => match t.text.as_str() {
                "(" => {
                    if self.paren_starts_arrow() {
                        self.bump();
                        let mut params = Vec::new();
                        while !self.at(")") {
                            let p = self.ident()?;
                            params.push(TreeNode::leaf("SymbolFunarg", p.as_str()));
                            if !self.eat(",") {
                                break;
                            }
                        }
                        self.expect(")")?;
                        return self.arrow_body(params);
                    }
                    self.bump();
                    let e = self.expression()?;
                    self.expect(")")?;
                    Ok(e)
                }
                "[" => {
                    self.bump();
                    let mut items = Vec::new();
                    while !self.at("]") {
                        items.push(self.assignment()?);
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.expect("]")?;
                    Ok(TreeNode::inner("Array", items))
                }
                "{" => {
                    self.bump();
                    let mut props = Vec::new();
                    while !self.at("}") {
                        let key = self.property_key()?;
                        self.expect(":")?;
                        let value = self.assignment()?;
                        props.push(TreeNode::inner(
                            "ObjectKeyVal",
                            vec![TreeNode::leaf("Key", key.as_str()), value],
                        ));
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.expect("}")?;
                    Ok(TreeNode::inner("Object", props))
                }
                _ => Err(self.error(&format!("unexpected token `{}`", t.text))),
            },
            TokenKind::Eof => Err(self.error("unexpected end of input")),
        }
    }

    fn property_key(&mut self) -> Result<String, ParseError> {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::Ident | TokenKind::Number | TokenKind::String => {
                self.bump();
                Ok(t.text)
            }
            _ => Err(self.error(&format!("expected property key, found `{}`", t.text))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_ast::sexp;

    fn s(src: &str) -> String {
        sexp(&parse(src).unwrap())
    }

    #[test]
    fn example_4_5_statement() {
        // `var item = array[i];` — the paper's Fig. 4.
        assert_eq!(
            s("var item = array[i];"),
            "(Toplevel (Var (VarDef (SymbolVar item) (Sub (SymbolRef array) (SymbolRef i)))))"
        );
    }

    #[test]
    fn fig1_program_shape() {
        let src = "while (!d) { if (someCondition()) { d = true; } }";
        assert_eq!(
            s(src),
            "(Toplevel (While (UnaryPrefix! (SymbolRef d)) (If (Call (SymbolRef \
             someCondition)) (Assign= (SymbolRef d) (True true)))))"
        );
    }

    #[test]
    fn fig5_multi_declaration() {
        assert_eq!(
            s("var a, b, c, d;"),
            "(Toplevel (Var (VarDef (SymbolVar a)) (VarDef (SymbolVar b)) (VarDef (SymbolVar \
             c)) (VarDef (SymbolVar d))))"
        );
    }

    #[test]
    fn operator_precedence() {
        assert_eq!(
            s("x = a + b * c;"),
            "(Toplevel (Assign= (SymbolRef x) (Binary+ (SymbolRef a) \
             (Binary* (SymbolRef b) (SymbolRef c)))))"
        );
    }

    #[test]
    fn logical_and_equality_tiers() {
        assert_eq!(
            s("ok = a === 1 && b < 2 || c;"),
            "(Toplevel (Assign= (SymbolRef ok) (Binary|| (Binary&& \
             (Binary=== (SymbolRef a) (Number 1)) (Binary< (SymbolRef b) (Number 2))) \
             (SymbolRef c))))"
        );
    }

    #[test]
    fn function_declaration_fig8() {
        let src = "function f(a, b, c) { b.open('GET', a, false); b.send(c); }";
        assert_eq!(
            s(src),
            "(Toplevel (Defun (SymbolDefun f) (SymbolFunarg a) (SymbolFunarg b) (SymbolFunarg \
             c) (Call (Dot (SymbolRef b) (Property open)) (String GET) \
             (SymbolRef a) (False false)) (Call (Dot (SymbolRef b) \
             (Property send)) (SymbolRef c))))"
        );
    }

    #[test]
    fn classic_for_loop() {
        let src = "for (var i = 0; i < n; i++) { total += i; }";
        assert_eq!(
            s(src),
            "(Toplevel (For (Var (VarDef (SymbolVar i) (Number 0))) (Binary< (SymbolRef i) \
             (SymbolRef n)) (UnaryPostfix++ (SymbolRef i)) (Assign+= \
             (SymbolRef total) (SymbolRef i))))"
        );
    }

    #[test]
    fn for_in_and_for_of() {
        assert_eq!(
            s("for (var k in obj) { f(k); }"),
            "(Toplevel (ForIn (VarDef (SymbolVar k)) (SymbolRef obj) (Call \
             (SymbolRef f) (SymbolRef k))))"
        );
        assert_eq!(
            s("for (const v of items) g(v);"),
            "(Toplevel (ForOf (VarDef (SymbolVar v)) (SymbolRef items) (Call \
             (SymbolRef g) (SymbolRef v))))"
        );
    }

    #[test]
    fn arrow_functions() {
        assert_eq!(
            s("cb = x => x + 1;"),
            "(Toplevel (Assign= (SymbolRef cb) (Arrow (SymbolFunarg x) \
             (Binary+ (SymbolRef x) (Number 1)))))"
        );
        assert_eq!(
            s("cb = (a, b) => { return a; };"),
            "(Toplevel (Assign= (SymbolRef cb) (Arrow (SymbolFunarg a) \
             (SymbolFunarg b) (Block (Return (SymbolRef a))))))"
        );
    }

    #[test]
    fn object_and_array_literals() {
        assert_eq!(
            s("var o = { a: 1, b: [2, 3] };"),
            "(Toplevel (Var (VarDef (SymbolVar o) (Object (ObjectKeyVal (Key a) (Number 1)) \
             (ObjectKeyVal (Key b) (Array (Number 2) (Number 3)))))))"
        );
    }

    #[test]
    fn try_catch_finally() {
        assert_eq!(
            s("try { f(); } catch (e) { g(e); } finally { h(); }"),
            "(Toplevel (Try (Block (Call (SymbolRef f))) (Catch \
             (SymbolCatch e) (Block (Call (SymbolRef g) (SymbolRef e)))) \
             (Finally (Block (Call (SymbolRef h))))))"
        );
    }

    #[test]
    fn switch_cases() {
        assert_eq!(
            s("switch (x) { case 1: f(); break; default: g(); }"),
            "(Toplevel (Switch (SymbolRef x) (Case (Number 1) (Call \
             (SymbolRef f)) (Break)) (Default (Call (SymbolRef g)))))"
        );
    }

    #[test]
    fn conditional_and_new() {
        assert_eq!(
            s("var r = p ? new Foo(1) : null;"),
            "(Toplevel (Var (VarDef (SymbolVar r) (Conditional (SymbolRef p) (New (SymbolRef \
             Foo) (Number 1)) (Null null)))))"
        );
    }

    #[test]
    fn do_while_and_throw() {
        assert_eq!(
            s("do { i--; } while (i > 0);"),
            "(Toplevel (Do (Block (UnaryPostfix-- (SymbolRef i))) (Binary> \
             (SymbolRef i) (Number 0))))"
        );
        assert_eq!(
            s("throw new Error('bad');"),
            "(Toplevel (Throw (New (SymbolRef Error) (String bad))))"
        );
    }

    #[test]
    fn function_expression_value() {
        assert_eq!(
            s("var f = function (x) { return x; };"),
            "(Toplevel (Var (VarDef (SymbolVar f) (Function (SymbolFunarg x) (Return \
             (SymbolRef x))))))"
        );
    }

    #[test]
    fn parse_errors_carry_position() {
        let err = parse("var = 3;").unwrap_err();
        assert!(err.message.contains("expected identifier"));
        assert_eq!(err.offset, 4);
        assert!(parse("if (").is_err());
        assert!(parse("x +").is_err());
        assert!(parse("try { }").is_err());
    }

    #[test]
    fn invariants_hold_on_parsed_trees() {
        let ast = parse(
            "function count(values, target) { var c = 0; for (var i = 0; i < values.length; \
             i++) { if (values[i] === target) { c++; } } return c; }",
        )
        .unwrap();
        ast.check_invariants().unwrap();
        assert!(ast.leaves().len() > 10);
    }
}
