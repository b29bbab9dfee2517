//! By-value tree construction.
//!
//! Recursive-descent parsers with operator-precedence climbing produce
//! subtrees bottom-up (the left operand exists before its parent binary
//! node), which does not fit the event-ordered [`AstBuilder`]. [`TreeNode`]
//! is a plain owned tree that such parsers assemble freely and then lower
//! into an [`Ast`] arena in one pass.

use crate::symbol::{Kind, Symbol};
use crate::tree::{Ast, AstBuilder};

/// An owned, freely composable AST node, lowered to an [`Ast`] with
/// [`TreeNode::into_ast`].
///
/// ```
/// use pigeon_ast::TreeNode;
/// let tree = TreeNode::inner("Assign=", vec![
///     TreeNode::leaf("SymbolRef", "d"),
///     TreeNode::leaf("True", "true"),
/// ]);
/// let ast = tree.into_ast();
/// assert_eq!(ast.leaves().len(), 2);
/// assert_eq!(ast.kind(ast.root()).as_str(), "Assign=");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// The node's grammar symbol.
    pub kind: Kind,
    /// The terminal value; `Some` makes this node a leaf.
    pub value: Option<Symbol>,
    /// Child subtrees (must be empty when `value` is `Some`).
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    /// A nonterminal with the given children.
    pub fn inner(kind: impl Into<Kind>, children: Vec<TreeNode>) -> Self {
        TreeNode {
            kind: kind.into(),
            value: None,
            children,
        }
    }

    /// A childless terminal carrying `value`.
    pub fn leaf(kind: impl Into<Kind>, value: impl Into<Symbol>) -> Self {
        TreeNode {
            kind: kind.into(),
            value: Some(value.into()),
            children: Vec::new(),
        }
    }

    /// A childless nonterminal (e.g. `Break`).
    pub fn nullary(kind: impl Into<Kind>) -> Self {
        TreeNode {
            kind: kind.into(),
            value: None,
            children: Vec::new(),
        }
    }

    /// Appends a child and returns `self`, for fluent construction.
    pub fn with_child(mut self, child: TreeNode) -> Self {
        debug_assert!(self.value.is_none(), "terminals cannot have children");
        self.children.push(child);
        self
    }

    /// Lowers this tree into an arena [`Ast`] rooted at this node.
    ///
    /// Lowering walks an explicit stack, not the call stack, so any depth
    /// of left-nested operator chain lowers without recursion.
    ///
    /// # Panics
    ///
    /// Panics if a node carries both a value and children.
    pub fn into_ast(mut self) -> Ast {
        assert!(
            self.value.is_none() || self.children.is_empty(),
            "terminals cannot have children"
        );
        let mut b = AstBuilder::new(self.kind);
        // One child iterator per open nonterminal; the root's is at the
        // bottom, so popping any other closes its node.
        let mut open = vec![std::mem::take(&mut self.children).into_iter()];
        while let Some(siblings) = open.last_mut() {
            let Some(mut node) = siblings.next() else {
                open.pop();
                if !open.is_empty() {
                    b.finish_node();
                }
                continue;
            };
            match node.value.take() {
                Some(v) => {
                    assert!(node.children.is_empty(), "terminals cannot have children");
                    b.token(node.kind, v);
                }
                None => {
                    b.start_node(node.kind);
                    open.push(std::mem::take(&mut node.children).into_iter());
                }
            }
        }
        b.finish()
    }
}

impl Drop for TreeNode {
    /// Takes the subtree apart on an explicit stack. The derived drop
    /// recurses once per level, and a parser's loop-built chains (`a+b+…`,
    /// `a.b.…`) are as deep as they are long — a partial tree dropped on
    /// a parse error must not overflow the stack either.
    fn drop(&mut self) {
        let mut pending = std::mem::take(&mut self.children);
        while let Some(mut node) = pending.pop() {
            pending.append(&mut node.children);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::print::sexp;

    #[test]
    fn lowering_preserves_shape() {
        let t = TreeNode::inner(
            "While",
            vec![
                TreeNode::inner("UnaryPrefix!", vec![TreeNode::leaf("SymbolRef", "d")]),
                TreeNode::nullary("Block"),
            ],
        );
        let ast = t.into_ast();
        ast.check_invariants().unwrap();
        assert_eq!(sexp(&ast), "(While (UnaryPrefix! (SymbolRef d)) (Block))");
    }

    /// A loop-built operator chain is as deep as it is long; lowering and
    /// dropping one must not recurse per level (a test thread's stack is
    /// 2 MiB, far short of 200 000 frames).
    #[test]
    fn deep_chains_lower_and_drop_without_recursing() {
        let chain = |n: usize| {
            let mut node = TreeNode::leaf("SymbolRef", "a");
            for _ in 0..n {
                node = TreeNode::inner("Binary+", vec![node]);
            }
            node
        };
        let ast = chain(200_000).into_ast();
        assert_eq!(ast.height(), 200_000);
        drop(chain(200_000));
    }

    #[test]
    fn with_child_appends_in_order() {
        let t = TreeNode::inner("Call", vec![])
            .with_child(TreeNode::leaf("SymbolRef", "f"))
            .with_child(TreeNode::leaf("Number", "1"));
        assert_eq!(t.children.len(), 2);
        let ast = t.into_ast();
        assert_eq!(
            ast.leaves()
                .iter()
                .map(|&l| ast.value(l).unwrap().as_str())
                .collect::<Vec<_>>(),
            ["f", "1"]
        );
    }

    #[test]
    #[should_panic(expected = "terminals cannot have children")]
    fn terminal_with_children_panics_on_lowering() {
        let bad = TreeNode {
            kind: Kind::new("X"),
            value: Some(Symbol::new("v")),
            children: vec![TreeNode::nullary("Y")],
        };
        let _ = TreeNode::inner("Root", vec![bad]).into_ast();
    }
}
