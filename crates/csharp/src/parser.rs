//! Recursive-descent parser for the C# subset.
//!
//! Node kinds are Roslyn-flavoured: `CompilationUnit`,
//! `NamespaceDeclaration`, `ClassDeclaration`, `MethodDeclaration`,
//! `LocalDeclarationStatement` → `VariableDeclaration` →
//! `VariableDeclarator` → `EqualsValueClause`, and invocations wrap
//! arguments in `ArgumentList` → `Argument`. These extra wrapper layers
//! make C# paths slightly longer than Java's for the same surface code —
//! the paper notes exactly this ("the C# AST is slightly more elaborate
//! than the one we used for Java", §5.5), which is why C#'s best
//! `max_width` is 4 where Java's is 3.

use crate::lexer::{is_keyword, tokenize, LexError, Token, TokenKind, PREDEFINED_TYPES};
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

/// Parses a C# compilation unit into a PIGEON AST rooted at
/// `CompilationUnit`.
///
/// # Errors
///
/// Returns [`ParseError`] on input outside the supported subset.
///
/// ```
/// # fn main() -> Result<(), pigeon_csharp::ParseError> {
/// let ast = pigeon_csharp::parse("class A { int x; }")?;
/// assert!(pigeon_ast::sexp(&ast).contains("ClassDeclaration"));
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
    let mut children = Vec::new();
    while p.at("using") {
        p.bump();
        let name = p.qualified_name()?;
        p.expect(";")?;
        children.push(TreeNode::inner(
            "UsingDirective",
            vec![TreeNode::leaf("Name", name.as_str())],
        ));
    }
    while !p.at_eof() {
        if p.at("namespace") {
            p.bump();
            let name = p.qualified_name()?;
            let mut ns = vec![TreeNode::leaf("Name", name.as_str())];
            p.expect("{")?;
            while !p.at("}") {
                ns.push(p.type_decl()?);
            }
            p.expect("}")?;
            children.push(TreeNode::inner("NamespaceDeclaration", ns));
        } else {
            children.push(p.type_decl()?);
        }
    }
    let ast = TreeNode::inner("CompilationUnit", children).into_ast();
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
        matches!(t.kind, TokenKind::Ident | TokenKind::Punct) && t.text == text
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

    fn qualified_name(&mut self) -> Result<String, ParseError> {
        let mut name = self.ident()?;
        while self.at(".") {
            self.bump();
            name.push('.');
            name.push_str(&self.ident()?);
        }
        Ok(name)
    }

    fn skip_attributes(&mut self) {
        while self.at("[") {
            let mut depth = 0usize;
            loop {
                if self.at("[") {
                    depth += 1;
                } else if self.at("]") {
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        break;
                    }
                    continue;
                } else if self.at_eof() {
                    break;
                }
                self.bump();
            }
        }
    }

    fn modifiers(&mut self) -> Vec<TreeNode> {
        let mut mods = Vec::new();
        loop {
            self.skip_attributes();
            let t = self.peek();
            if t.kind == TokenKind::Ident
                && matches!(
                    t.text.as_str(),
                    "public"
                        | "private"
                        | "protected"
                        | "internal"
                        | "static"
                        | "readonly"
                        | "sealed"
                        | "abstract"
                        | "override"
                        | "virtual"
                )
            {
                let m = self.bump().text;
                mods.push(TreeNode::leaf("Modifier", m.as_str()));
            } else {
                return mods;
            }
        }
    }

    // ---- declarations ---------------------------------------------------

    fn type_decl(&mut self) -> PResult {
        let mut children = self.modifiers();
        let kind = if self.eat("interface") {
            "InterfaceDeclaration"
        } else if self.eat("struct") {
            "StructDeclaration"
        } else {
            self.expect("class")?;
            "ClassDeclaration"
        };
        let name = self.ident()?;
        children.push(TreeNode::leaf("Identifier", name.as_str()));
        if self.eat(":") {
            let mut bases = vec![self.type_node()?];
            while self.eat(",") {
                bases.push(self.type_node()?);
            }
            children.push(TreeNode::inner("BaseList", bases));
        }
        self.expect("{")?;
        while !self.at("}") {
            children.push(self.member(&name)?);
        }
        self.expect("}")?;
        Ok(TreeNode::inner(kind, children))
    }

    fn member(&mut self, class_name: &str) -> PResult {
        let mut children = self.modifiers();
        // Constructor: `ClassName (`.
        if self.peek().text == class_name && self.peek_at(1).text == "(" {
            let name = self.ident()?;
            children.push(TreeNode::leaf("Identifier", name.as_str()));
            children.push(self.parameter_list()?);
            children.push(self.block()?);
            return Ok(TreeNode::inner("ConstructorDeclaration", children));
        }
        let ty = self.type_node()?;
        let name = self.ident()?;
        if self.at("(") {
            children.push(ty);
            children.push(TreeNode::leaf("Identifier", name.as_str()));
            children.push(self.parameter_list()?);
            if self.eat(";") {
                // Interface/abstract method.
            } else if self.at("=>") {
                // Expression-bodied member.
                self.bump();
                let e = self.expression()?;
                self.expect(";")?;
                children.push(TreeNode::inner("ArrowExpressionClause", vec![e]));
            } else {
                children.push(self.block()?);
            }
            return Ok(TreeNode::inner("MethodDeclaration", children));
        }
        if self.at("{") {
            // Property with accessor list.
            children.push(ty);
            children.push(TreeNode::leaf("Identifier", name.as_str()));
            self.bump();
            let mut accessors = Vec::new();
            while !self.at("}") {
                let acc = self.ident()?;
                let kind = match acc.as_str() {
                    "get" => "GetAccessor",
                    "set" => "SetAccessor",
                    other => return Err(self.error(&format!("unknown accessor `{other}`"))),
                };
                if self.at("{") {
                    accessors.push(TreeNode::inner(kind, vec![self.block()?]));
                } else {
                    self.expect(";")?;
                    accessors.push(TreeNode::nullary(kind));
                }
            }
            self.expect("}")?;
            children.push(TreeNode::inner("AccessorList", accessors));
            if self.eat("=") {
                let init = self.expression()?;
                children.push(TreeNode::inner("EqualsValueClause", vec![init]));
                self.expect(";")?;
            }
            return Ok(TreeNode::inner("PropertyDeclaration", children));
        }
        // Field declaration.
        children.push(ty);
        let mut decl = vec![TreeNode::leaf("Identifier", name.as_str())];
        if self.eat("=") {
            decl.push(TreeNode::inner(
                "EqualsValueClause",
                vec![self.expression()?],
            ));
        }
        let mut declarators = vec![TreeNode::inner("VariableDeclarator", decl)];
        while self.eat(",") {
            let n = self.ident()?;
            let mut d = vec![TreeNode::leaf("Identifier", n.as_str())];
            if self.eat("=") {
                d.push(TreeNode::inner(
                    "EqualsValueClause",
                    vec![self.expression()?],
                ));
            }
            declarators.push(TreeNode::inner("VariableDeclarator", d));
        }
        self.expect(";")?;
        children.extend(declarators);
        Ok(TreeNode::inner("FieldDeclaration", children))
    }

    fn parameter_list(&mut self) -> PResult {
        self.expect("(")?;
        let mut params = Vec::new();
        while !self.at(")") {
            self.eat("out");
            self.eat("ref");
            let ty = self.type_node()?;
            let name = self.ident()?;
            params.push(TreeNode::inner(
                "Parameter",
                vec![ty, TreeNode::leaf("Identifier", name.as_str())],
            ));
            if !self.eat(",") {
                break;
            }
        }
        self.expect(")")?;
        Ok(TreeNode::inner("ParameterList", params))
    }

    // ---- types ----------------------------------------------------------

    fn type_node(&mut self) -> PResult {
        self.nested(Self::type_node_level)
    }

    fn type_node_level(&mut self) -> PResult {
        let mut base = self.base_type_node()?;
        loop {
            if self.at("[") && self.peek_at(1).text == "]" {
                self.bump();
                self.expect("]")?;
                base = TreeNode::inner("ArrayType", vec![base]);
            } else if self.at("?") {
                self.bump();
                base = TreeNode::inner("NullableType", vec![base]);
            } else {
                return Ok(base);
            }
        }
    }

    fn base_type_node(&mut self) -> PResult {
        let t = self.peek().clone();
        if t.kind == TokenKind::Ident && PREDEFINED_TYPES.contains(&t.text.as_str()) {
            self.bump();
            return Ok(TreeNode::leaf("PredefinedType", t.text.as_str()));
        }
        let name = self.qualified_name()?;
        if self.at("<") {
            self.bump();
            let mut args = Vec::new();
            if !self.at(">") {
                args.push(self.type_node()?);
                while self.eat(",") {
                    args.push(self.type_node()?);
                }
            }
            self.expect(">")?;
            return Ok(TreeNode::inner(
                "GenericName",
                vec![
                    TreeNode::leaf("TypeName", name.as_str()),
                    TreeNode::inner("TypeArgumentList", args),
                ],
            ));
        }
        Ok(TreeNode::leaf("TypeName", name.as_str()))
    }

    fn try_decl_head(&mut self) -> Option<(TreeNode, String)> {
        let save = self.pos;
        let ty = match self.type_node() {
            Ok(t) => t,
            Err(_) => {
                self.pos = save;
                return None;
            }
        };
        match self.ident() {
            Ok(name) if self.at("=") || self.at(";") || self.at(",") || self.at("in") => {
                Some((ty, name))
            }
            _ => {
                self.pos = save;
                None
            }
        }
    }

    // ---- statements -----------------------------------------------------

    fn block(&mut self) -> PResult {
        self.expect("{")?;
        let mut stmts = Vec::new();
        while !self.at("}") {
            stmts.push(self.statement()?);
        }
        self.expect("}")?;
        Ok(TreeNode::inner("Block", stmts))
    }

    fn statement(&mut self) -> PResult {
        self.nested(Self::statement_level)
    }

    fn statement_level(&mut self) -> PResult {
        if self.at("{") {
            return self.block();
        }
        if self.at("if") {
            self.bump();
            self.expect("(")?;
            let cond = self.expression()?;
            self.expect(")")?;
            let then = self.statement()?;
            let mut children = vec![cond, then];
            if self.eat("else") {
                children.push(self.statement()?);
            }
            return Ok(TreeNode::inner("IfStatement", children));
        }
        if self.at("while") {
            self.bump();
            self.expect("(")?;
            let cond = self.expression()?;
            self.expect(")")?;
            let body = self.statement()?;
            return Ok(TreeNode::inner("WhileStatement", vec![cond, body]));
        }
        if self.at("do") {
            self.bump();
            let body = self.statement()?;
            self.expect("while")?;
            self.expect("(")?;
            let cond = self.expression()?;
            self.expect(")")?;
            self.expect(";")?;
            return Ok(TreeNode::inner("DoStatement", vec![body, cond]));
        }
        if self.at("for") {
            return self.for_statement();
        }
        if self.at("foreach") {
            self.bump();
            self.expect("(")?;
            let ty = self.type_node()?;
            let name = self.ident()?;
            self.expect("in")?;
            let iterable = self.expression()?;
            self.expect(")")?;
            let body = self.statement()?;
            return Ok(TreeNode::inner(
                "ForEachStatement",
                vec![
                    ty,
                    TreeNode::leaf("Identifier", name.as_str()),
                    iterable,
                    body,
                ],
            ));
        }
        if self.at("return") {
            self.bump();
            let mut children = Vec::new();
            if !self.at(";") {
                children.push(self.expression()?);
            }
            self.expect(";")?;
            return Ok(TreeNode::inner("ReturnStatement", children));
        }
        if self.at("break") {
            self.bump();
            self.expect(";")?;
            return Ok(TreeNode::nullary("BreakStatement"));
        }
        if self.at("continue") {
            self.bump();
            self.expect(";")?;
            return Ok(TreeNode::nullary("ContinueStatement"));
        }
        if self.at("throw") {
            self.bump();
            let e = self.expression()?;
            self.expect(";")?;
            return Ok(TreeNode::inner("ThrowStatement", vec![e]));
        }
        if self.at("try") {
            return self.try_statement();
        }
        if self.at("switch") {
            return self.switch_statement();
        }
        if let Some((ty, name)) = self.try_decl_head() {
            let mut decl = vec![TreeNode::leaf("Identifier", name.as_str())];
            if self.eat("=") {
                decl.push(TreeNode::inner(
                    "EqualsValueClause",
                    vec![self.expression()?],
                ));
            }
            let mut declarators = vec![TreeNode::inner("VariableDeclarator", decl)];
            while self.eat(",") {
                let n = self.ident()?;
                let mut d = vec![TreeNode::leaf("Identifier", n.as_str())];
                if self.eat("=") {
                    d.push(TreeNode::inner(
                        "EqualsValueClause",
                        vec![self.expression()?],
                    ));
                }
                declarators.push(TreeNode::inner("VariableDeclarator", d));
            }
            self.expect(";")?;
            let mut vd = vec![ty];
            vd.extend(declarators);
            return Ok(TreeNode::inner(
                "LocalDeclarationStatement",
                vec![TreeNode::inner("VariableDeclaration", vd)],
            ));
        }
        let e = self.expression()?;
        self.expect(";")?;
        Ok(TreeNode::inner("ExpressionStatement", vec![e]))
    }

    fn for_statement(&mut self) -> PResult {
        self.expect("for")?;
        self.expect("(")?;
        let mut children = Vec::new();
        if !self.at(";") {
            if let Some((ty, name)) = self.try_decl_head() {
                let mut decl = vec![TreeNode::leaf("Identifier", name.as_str())];
                if self.eat("=") {
                    decl.push(TreeNode::inner(
                        "EqualsValueClause",
                        vec![self.expression()?],
                    ));
                }
                children.push(TreeNode::inner(
                    "VariableDeclaration",
                    vec![ty, TreeNode::inner("VariableDeclarator", decl)],
                ));
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
        children.push(self.statement()?);
        Ok(TreeNode::inner("ForStatement", children))
    }

    fn try_statement(&mut self) -> PResult {
        self.expect("try")?;
        let mut children = vec![self.block()?];
        while self.at("catch") {
            self.bump();
            let mut c = Vec::new();
            if self.eat("(") {
                let ty = self.type_node()?;
                c.push(ty);
                if !self.at(")") {
                    c.push(TreeNode::leaf("Identifier", self.ident()?.as_str()));
                }
                self.expect(")")?;
            }
            c.push(self.block()?);
            children.push(TreeNode::inner("CatchClause", c));
        }
        if self.eat("finally") {
            children.push(TreeNode::inner("FinallyClause", vec![self.block()?]));
        }
        if children.len() == 1 {
            return Err(self.error("try requires catch or finally"));
        }
        Ok(TreeNode::inner("TryStatement", children))
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
                let v = self.expression()?;
                self.expect(":")?;
                let mut body = vec![v];
                while !self.at("case") && !self.at("default") && !self.at("}") {
                    body.push(self.statement()?);
                }
                children.push(TreeNode::inner("CaseSwitchLabel", body));
            } else {
                self.expect("default")?;
                self.expect(":")?;
                let mut body = Vec::new();
                while !self.at("case") && !self.at("default") && !self.at("}") {
                    body.push(self.statement()?);
                }
                children.push(TreeNode::inner("DefaultSwitchLabel", body));
            }
        }
        self.expect("}")?;
        Ok(TreeNode::inner("SwitchStatement", children))
    }

    // ---- expressions ----------------------------------------------------

    fn expression(&mut self) -> PResult {
        self.nested(Self::expression_level)
    }

    fn expression_level(&mut self) -> PResult {
        let lhs = self.conditional()?;
        for op in ["=", "+=", "-=", "*=", "/=", "%="] {
            if self.at(op) {
                self.bump();
                let rhs = self.expression()?;
                return Ok(TreeNode::inner(
                    format!("AssignmentExpression{op}").as_str(),
                    vec![lhs, rhs],
                ));
            }
        }
        Ok(lhs)
    }

    fn conditional(&mut self) -> PResult {
        let cond = self.coalesce()?;
        if self.eat("?") {
            let then = self.expression()?;
            self.expect(":")?;
            let alt = self.expression()?;
            return Ok(TreeNode::inner(
                "ConditionalExpression",
                vec![cond, then, alt],
            ));
        }
        Ok(cond)
    }

    fn coalesce(&mut self) -> PResult {
        self.nested(Self::coalesce_level)
    }

    fn coalesce_level(&mut self) -> PResult {
        let lhs = self.binary(0)?;
        if self.at("??") {
            self.bump();
            let rhs = self.coalesce()?;
            return Ok(TreeNode::inner("CoalesceExpression", vec![lhs, rhs]));
        }
        Ok(lhs)
    }

    const BINARY_TIERS: [&'static [&'static str]; 6] = [
        &["||"],
        &["&&"],
        &["==", "!="],
        &["<", ">", "<=", ">=", "is", "as"],
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
                Some("is") => {
                    self.bump();
                    let ty = self.type_node()?;
                    lhs = TreeNode::inner("IsExpression", vec![lhs, ty]);
                }
                Some("as") => {
                    self.bump();
                    let ty = self.type_node()?;
                    lhs = TreeNode::inner("AsExpression", vec![lhs, ty]);
                }
                Some(op) => {
                    self.bump();
                    let rhs = self.binary(tier + 1)?;
                    lhs = TreeNode::inner(format!("BinaryExpression{op}").as_str(), vec![lhs, rhs]);
                }
                None => return Ok(lhs),
            }
        }
    }

    fn unary(&mut self) -> PResult {
        self.nested(Self::unary_level)
    }

    fn unary_level(&mut self) -> PResult {
        for op in ["!", "-", "+", "++", "--"] {
            if self.at(op) {
                self.bump();
                let operand = self.unary()?;
                return Ok(TreeNode::inner(
                    format!("PrefixUnaryExpression{op}").as_str(),
                    vec![operand],
                ));
            }
        }
        self.postfix()
    }

    fn argument_list(&mut self) -> PResult {
        self.expect("(")?;
        let mut args = Vec::new();
        while !self.at(")") {
            self.eat("out");
            self.eat("ref");
            args.push(TreeNode::inner("Argument", vec![self.expression()?]));
            if !self.eat(",") {
                break;
            }
        }
        self.expect(")")?;
        Ok(TreeNode::inner("ArgumentList", args))
    }

    fn postfix(&mut self) -> PResult {
        let mut e = self.primary()?;
        loop {
            if self.at(".") {
                self.bump();
                let name = self.ident()?;
                e = TreeNode::inner(
                    "SimpleMemberAccessExpression",
                    vec![e, TreeNode::leaf("IdentifierName", name.as_str())],
                );
            } else if self.at("(") {
                let args = self.argument_list()?;
                e = TreeNode::inner("InvocationExpression", vec![e, args]);
            } else if self.at("[") {
                self.bump();
                let idx = self.expression()?;
                self.expect("]")?;
                e = TreeNode::inner(
                    "ElementAccessExpression",
                    vec![e, TreeNode::inner("BracketedArgumentList", vec![idx])],
                );
            } else if self.at("++") || self.at("--") {
                let op = self.bump().text;
                e = TreeNode::inner(format!("PostfixUnaryExpression{op}").as_str(), vec![e]);
            } else {
                return Ok(e);
            }
        }
    }

    fn primary(&mut self) -> PResult {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::Number => {
                self.bump();
                Ok(TreeNode::leaf("NumericLiteral", t.text.as_str()))
            }
            TokenKind::String => {
                self.bump();
                Ok(TreeNode::leaf("StringLiteral", t.text.as_str()))
            }
            TokenKind::Char => {
                self.bump();
                Ok(TreeNode::leaf("CharacterLiteral", t.text.as_str()))
            }
            TokenKind::Ident => match t.text.as_str() {
                "true" => {
                    self.bump();
                    Ok(TreeNode::leaf("TrueLiteral", "true"))
                }
                "false" => {
                    self.bump();
                    Ok(TreeNode::leaf("FalseLiteral", "false"))
                }
                "null" => {
                    self.bump();
                    Ok(TreeNode::leaf("NullLiteral", "null"))
                }
                "this" => {
                    self.bump();
                    Ok(TreeNode::leaf("ThisExpression", "this"))
                }
                "base" => {
                    self.bump();
                    Ok(TreeNode::leaf("BaseExpression", "base"))
                }
                "new" => {
                    self.bump();
                    let ty = self.base_type_node()?;
                    if self.at("[") {
                        self.bump();
                        let size = self.expression()?;
                        self.expect("]")?;
                        return Ok(TreeNode::inner("ArrayCreationExpression", vec![ty, size]));
                    }
                    let args = self.argument_list()?;
                    Ok(TreeNode::inner("ObjectCreationExpression", vec![ty, args]))
                }
                _ if is_keyword(&t.text) => {
                    Err(self.error(&format!("unexpected keyword `{}`", t.text)))
                }
                _ => {
                    // Simple lambda: `x => expr`.
                    if self.peek_at(1).text == "=>" && self.peek_at(1).kind == TokenKind::Punct {
                        let p = self.ident()?;
                        self.expect("=>")?;
                        let body = if self.at("{") {
                            self.block()?
                        } else {
                            self.expression()?
                        };
                        return Ok(TreeNode::inner(
                            "SimpleLambdaExpression",
                            vec![
                                TreeNode::inner(
                                    "Parameter",
                                    vec![TreeNode::leaf("Identifier", p.as_str())],
                                ),
                                body,
                            ],
                        ));
                    }
                    self.bump();
                    Ok(TreeNode::leaf("IdentifierName", t.text.as_str()))
                }
            },
            TokenKind::Punct if t.text == "(" => {
                if self.paren_starts_lambda() {
                    self.bump();
                    let mut params = Vec::new();
                    while !self.at(")") {
                        let p = self.ident()?;
                        params.push(TreeNode::inner(
                            "Parameter",
                            vec![TreeNode::leaf("Identifier", p.as_str())],
                        ));
                        if !self.eat(",") {
                            break;
                        }
                    }
                    self.expect(")")?;
                    self.expect("=>")?;
                    let body = if self.at("{") {
                        self.block()?
                    } else {
                        self.expression()?
                    };
                    params.push(body);
                    return Ok(TreeNode::inner("ParenthesizedLambdaExpression", params));
                }
                self.bump();
                let e = self.expression()?;
                self.expect(")")?;
                Ok(e)
            }
            _ => Err(self.error(&format!("unexpected token `{}`", t.text))),
        }
    }

    fn paren_starts_lambda(&self) -> bool {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeon_ast::sexp;

    fn s(src: &str) -> String {
        sexp(&parse(src).unwrap())
    }

    #[test]
    fn locals_wrap_in_equals_value_clause() {
        let text = s("class A { void F() { int count = 0; } }");
        assert!(text.contains(
            "(LocalDeclarationStatement (VariableDeclaration (PredefinedType int) \
             (VariableDeclarator (Identifier count) (EqualsValueClause (NumericLiteral \
             0)))))"
        ));
    }

    #[test]
    fn invocations_wrap_arguments() {
        let text = s("class A { void F(HttpClient client) { client.Execute(request, 2); } }");
        assert!(text.contains(
            "(InvocationExpression (SimpleMemberAccessExpression (IdentifierName client) \
             (IdentifierName Execute)) (ArgumentList (Argument (IdentifierName request)) \
             (Argument (NumericLiteral 2))))"
        ));
    }

    #[test]
    fn namespaces_and_usings() {
        let text = s("using System; namespace App.Core { class A { } }");
        assert!(text.contains("(UsingDirective (Name System))"));
        assert!(text.contains(
            "(NamespaceDeclaration (Name App.Core) (ClassDeclaration \
                               (Identifier A)))"
        ));
    }

    #[test]
    fn var_declarations() {
        let text = s("class A { void F() { var items = GetItems(); } }");
        assert!(text.contains(
            "(VariableDeclaration (TypeName var) (VariableDeclarator \
                               (Identifier items)"
        ));
    }

    #[test]
    fn foreach_loop() {
        let text = s(
            "class A { void F(List<int> values) { foreach (var v in values) { \
                      Use(v); } } }",
        );
        assert!(text
            .contains("(ForEachStatement (TypeName var) (Identifier v) (IdentifierName values)"));
    }

    #[test]
    fn properties_with_accessors() {
        let text = s("class A { public int Count { get; set; } }");
        assert!(text.contains(
            "(PropertyDeclaration (Modifier public) (PredefinedType int) \
                               (Identifier Count) (AccessorList (GetAccessor) \
                               (SetAccessor)))"
        ));
    }

    #[test]
    fn while_done_loop_matches_paper_shape() {
        let text = s(
            "class A { void F() { bool done = false; while (!done) { if (Check()) \
                      { done = true; } } } }",
        );
        assert!(text.contains(
            "(WhileStatement (PrefixUnaryExpression! (IdentifierName \
                               done))"
        ));
        assert!(text.contains(
            "(AssignmentExpression= (IdentifierName done) (TrueLiteral \
                               true))"
        ));
    }

    #[test]
    fn lambdas() {
        let text = s("class A { void F() { var f = x => x + 1; var g = (a, b) => a; } }");
        assert!(text.contains(
            "(SimpleLambdaExpression (Parameter (Identifier x)) \
                               (BinaryExpression+ (IdentifierName x) (NumericLiteral 1)))"
        ));
        assert!(text.contains(
            "(ParenthesizedLambdaExpression (Parameter (Identifier a)) \
                               (Parameter (Identifier b)) (IdentifierName a))"
        ));
    }

    #[test]
    fn generics_nullable_and_arrays() {
        let text = s("class A { Dictionary<string, List<int>> map; int? maybe; int[] xs; }");
        assert!(text.contains(
            "(GenericName (TypeName Dictionary) (TypeArgumentList \
                               (PredefinedType string) (GenericName (TypeName List) \
                               (TypeArgumentList (PredefinedType int)))))"
        ));
        assert!(text.contains("(NullableType (PredefinedType int))"));
        assert!(text.contains("(ArrayType (PredefinedType int))"));
    }

    #[test]
    fn try_catch_throw() {
        let text = s(
            "class A { void F() { try { G(); } catch (IOException e) { throw \
                      new AppException(e); } } }",
        );
        assert!(text.contains("(CatchClause (TypeName IOException) (Identifier e)"));
        assert!(text.contains(
            "(ThrowStatement (ObjectCreationExpression (TypeName \
                               AppException) (ArgumentList (Argument (IdentifierName \
                               e)))))"
        ));
    }

    #[test]
    fn expression_bodied_method() {
        let text = s("class A { int Twice(int x) => x * 2; }");
        assert!(text.contains(
            "(ArrowExpressionClause (BinaryExpression* (IdentifierName \
                               x) (NumericLiteral 2)))"
        ));
    }

    #[test]
    fn is_as_and_coalesce() {
        let text = s(
            "class A { void F(object o) { var s = o as string ?? Fallback(); \
                      if (o is string) { } } }",
        );
        assert!(text.contains(
            "(CoalesceExpression (AsExpression (IdentifierName o) \
                               (PredefinedType string))"
        ));
        assert!(text.contains("(IsExpression (IdentifierName o) (PredefinedType string))"));
    }

    #[test]
    fn classic_for_and_element_access() {
        let text = s(
            "class A { int Sum(int[] xs) { int total = 0; for (int i = 0; i < 10; \
                      i++) { total += xs[i]; } return total; } }",
        );
        assert!(text.contains(
            "(ForStatement (VariableDeclaration (PredefinedType int) \
                               (VariableDeclarator (Identifier i) (EqualsValueClause \
                               (NumericLiteral 0))))"
        ));
        assert!(text.contains(
            "(ElementAccessExpression (IdentifierName xs) \
                               (BracketedArgumentList (IdentifierName i)))"
        ));
    }

    #[test]
    fn switch_statement() {
        let text = s(
            "class A { int F(int x) { switch (x) { case 1: return 1; default: \
                      return 0; } } }",
        );
        assert!(text.contains(
            "(SwitchStatement (IdentifierName x) (CaseSwitchLabel \
                               (NumericLiteral 1) (ReturnStatement (NumericLiteral 1))) \
                               (DefaultSwitchLabel (ReturnStatement (NumericLiteral 0))))"
        ));
    }

    #[test]
    fn errors_carry_positions() {
        assert!(parse("class { }").is_err());
        assert!(parse("class A { void F() { if } }").is_err());
        assert!(parse("class A { int X { wrong; } }").is_err());
    }

    #[test]
    fn invariants_hold() {
        let ast =
            parse("namespace N { class Counter { int count; public void Add() { count++; } } }")
                .unwrap();
        ast.check_invariants().unwrap();
    }
}
