"""Recursive-descent parser for the Jedd mini-language.

The expression grammar follows the paper's Figure 5, embedded in Java's
operator precedence: ``|`` binds loosest, then ``&``, then ``-``, then
the join/compose operators, then the cast-like attribute-manipulation
(replace) operators, then primaries.  ``x{a1,a2} >< y{b1,b2}`` is left
associative, as in the original LALR(1) grammar.
"""

from __future__ import annotations

from typing import List, Optional

from repro.jedd import ast
from repro.jedd.ast import Position
from repro.jedd.lexer import Token, tokenize

__all__ = ["ParseError", "parse_program", "parse_expression"]


class ParseError(Exception):
    """Raised with a position-bearing message on syntax errors."""


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self.tokens = tokens
        self.i = 0

    # -- token plumbing -------------------------------------------------

    # ``tokens`` ends with ``eof`` and ``advance`` never passes it, so
    # ``tokens[i]`` is always a token.

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def at(self, kind: str) -> bool:
        return self.tokens[self.i].kind == kind

    def at_keyword(self, word: str) -> bool:
        tok = self.tokens[self.i]
        return tok.kind == "keyword" and tok.text == word

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r} but found {tok.text!r} at {tok.pos}"
            )
        if kind != "eof":
            self.i += 1
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if not (tok.kind == "keyword" and tok.text == word):
            raise ParseError(
                f"expected {word!r} but found {tok.text!r} at {tok.pos}"
            )
        return self.advance()

    # -- program structure ----------------------------------------------

    def program(self) -> ast.Program:
        decls: List[object] = []
        while not self.at("eof"):
            decls.append(self.declaration())
        return ast.Program(decls)

    def declaration(self) -> object:
        if self.at_keyword("domain"):
            pos = self.advance().pos
            name = self.expect("ident").text
            size = int(self.expect("int").text)
            self.expect(";")
            return ast.DomainDecl(name, size, pos)
        if self.at_keyword("attribute"):
            pos = self.advance().pos
            name = self.expect("ident").text
            self.expect(":")
            domain = self.expect("ident").text
            self.expect(";")
            return ast.AttributeDecl(name, domain, pos)
        if self.at_keyword("physdom"):
            pos = self.advance().pos
            name = self.expect("ident").text
            bits = int(self.expect("int").text)
            self.expect(";")
            return ast.PhysDomDecl(name, bits, pos)
        if self.at_keyword("def"):
            return self.func_decl()
        if self.at("<"):
            return self.var_decl()
        tok = self.peek()
        raise ParseError(
            f"expected a declaration but found {tok.text!r} at {tok.pos}"
        )

    def relation_type(self) -> ast.RelationType:
        start = self.expect("<")
        specs = [self.attr_spec()]
        while self.at(","):
            self.advance()
            specs.append(self.attr_spec())
        self.expect(">")
        return ast.RelationType(specs, start.pos)

    def attr_spec(self) -> ast.AttrSpec:
        tok = self.expect("ident")
        physdom = None
        if self.at(":"):
            self.advance()
            physdom = self.expect("ident").text
        return ast.AttrSpec(tok.text, physdom, tok.pos)

    def var_decl(self) -> ast.VarDecl:
        rel_type = self.relation_type()
        name_tok = self.expect("ident")
        init = None
        if self.at("="):
            self.advance()
            init = self.expression()
        self.expect(";")
        return ast.VarDecl(rel_type, name_tok.text, init, name_tok.pos)

    def func_decl(self) -> ast.FuncDecl:
        pos = self.expect_keyword("def").pos
        name = self.expect("ident").text
        self.expect("(")
        params: List[ast.Param] = []
        if not self.at(")"):
            params.append(self.param())
            while self.at(","):
                self.advance()
                params.append(self.param())
        self.expect(")")
        body = self.block()
        return ast.FuncDecl(name, params, body, pos)

    def param(self) -> ast.Param:
        rel_type = self.relation_type()
        name_tok = self.expect("ident")
        return ast.Param(rel_type, name_tok.text, name_tok.pos)

    # -- statements -------------------------------------------------------

    def block(self) -> ast.Block:
        start = self.expect("{")
        stmts: List[object] = []
        while not self.at("}"):
            stmts.append(self.statement())
        self.expect("}")
        return ast.Block(stmts, start.pos)

    def statement(self) -> object:
        if self.at("<"):
            return self.var_decl()
        if self.at_keyword("if"):
            pos = self.advance().pos
            self.expect("(")
            cond = self.comparison()
            self.expect(")")
            then_block = self.block()
            else_block = None
            if self.at_keyword("else"):
                self.advance()
                else_block = self.block()
            return ast.IfStmt(cond, then_block, else_block, pos)
        if self.at_keyword("while"):
            pos = self.advance().pos
            self.expect("(")
            cond = self.comparison()
            self.expect(")")
            return ast.WhileStmt(cond, self.block(), pos)
        if self.at_keyword("do"):
            pos = self.advance().pos
            body = self.block()
            self.expect_keyword("while")
            self.expect("(")
            cond = self.comparison()
            self.expect(")")
            self.expect(";")
            return ast.DoWhileStmt(body, cond, pos)
        if self.at_keyword("return"):
            pos = self.advance().pos
            self.expect(";")
            return ast.ReturnStmt(pos)
        if self.at_keyword("print"):
            pos = self.advance().pos
            self.expect("(")
            expr = self.expression()
            self.expect(")")
            self.expect(";")
            return ast.PrintStmt(expr, pos)
        if self.at_keyword("free"):
            pos = self.advance().pos
            name = self.expect("ident").text
            self.expect(";")
            return ast.FreeStmt(name, pos)
        if self.at_keyword("fix"):
            pos = self.advance().pos
            self.expect("{")
            body: List[ast.AssignStmt] = []
            while not self.at("}"):
                stmt = self.statement()
                if not isinstance(stmt, ast.AssignStmt):
                    raise ParseError(
                        "fix block allows only assignment statements, "
                        f"found {type(stmt).__name__} at "
                        f"{getattr(stmt, 'pos', pos)}"
                    )
                body.append(stmt)
            self.expect("}")
            if not body:
                raise ParseError(f"empty fix block at {pos}")
            return ast.FixStmt(body, pos)
        if self.at("ident"):
            if self.peek(1).kind in ("=", "|=", "&=", "-="):
                name_tok = self.advance()
                op = self.advance().text
                value = self.expression()
                self.expect(";")
                return ast.AssignStmt(name_tok.text, op, value, name_tok.pos)
            if self.peek(1).kind == "(":
                name_tok = self.advance()
                self.advance()  # "("
                args: List[ast.Expr] = []
                if not self.at(")"):
                    args.append(self.expression())
                    while self.at(","):
                        self.advance()
                        args.append(self.expression())
                self.expect(")")
                self.expect(";")
                return ast.CallStmt(name_tok.text, args, name_tok.pos)
        tok = self.peek()
        raise ParseError(
            f"expected a statement but found {tok.text!r} at {tok.pos}"
        )

    # -- expressions ------------------------------------------------------

    def comparison(self) -> ast.Compare:
        left = self.expression()
        tok = self.peek()
        if tok.kind not in ("==", "!="):
            raise ParseError(
                f"expected '==' or '!=' but found {tok.text!r} at {tok.pos}"
            )
        self.advance()
        right = self.expression()
        return ast.Compare(tok.kind, left, right, tok.pos)

    def expression(self) -> ast.Expr:
        return self.union_expr()

    def union_expr(self) -> ast.Expr:
        left = self.intersect_expr()
        while self.at("|"):
            pos = self.advance().pos
            right = self.intersect_expr()
            left = ast.SetOp("|", left, right, pos)
        return left

    def intersect_expr(self) -> ast.Expr:
        left = self.diff_expr()
        while self.at("&"):
            pos = self.advance().pos
            right = self.diff_expr()
            left = ast.SetOp("&", left, right, pos)
        return left

    def diff_expr(self) -> ast.Expr:
        left = self.join_expr()
        while self.at("-"):
            pos = self.advance().pos
            right = self.join_expr()
            left = ast.SetOp("-", left, right, pos)
        return left

    def join_expr(self) -> ast.Expr:
        left = self.replace_expr()
        while self.at("{"):
            pos = self.peek().pos
            left_attrs = self.attr_list()
            op_tok = self.peek()
            if op_tok.kind not in ("><", "<>"):
                raise ParseError(
                    f"expected '><' or '<>' but found {op_tok.text!r} "
                    f"at {op_tok.pos}"
                )
            self.advance()
            right = self.replace_expr()
            right_attrs = self.attr_list()
            left = ast.JoinOp(
                left, left_attrs, op_tok.kind, right, right_attrs, pos
            )
        return left

    def attr_list(self) -> List[str]:
        self.expect("{")
        names = [self.expect("ident").text]
        while self.at(","):
            self.advance()
            names.append(self.expect("ident").text)
        self.expect("}")
        return names

    def replace_expr(self) -> ast.Expr:
        # Cast-like: "(" IDENT "=>" ... ")" operand.  Distinguished from a
        # parenthesized expression by two-token lookahead.
        if self.at("(") and self.peek(1).kind == "ident" and self.peek(
            2
        ).kind == "=>":
            pos = self.advance().pos  # "("
            replacements = [self.replacement()]
            while self.at(","):
                self.advance()
                replacements.append(self.replacement())
            self.expect(")")
            operand = self.replace_expr()
            return ast.ReplaceOp(replacements, operand, pos)
        return self.primary()

    def replacement(self) -> ast.Replacement:
        src = self.expect("ident")
        self.expect("=>")
        targets: List[str] = []
        while self.at("ident"):
            targets.append(self.advance().text)
            if len(targets) == 2:
                break
        if len(targets) > 2:
            raise ParseError(
                f"too many replacement targets at {src.pos}"
            )
        return ast.Replacement(src.text, targets, src.pos)

    def primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "relconst":
            self.advance()
            return ast.ConstRel(tok.text == "1B", tok.pos)
        if tok.kind == "keyword" and tok.text == "new":
            return self.new_literal()
        if tok.kind == "ident":
            # Contextual aggregate: "count"/"sum"/... are not reserved
            # words; they start an aggregate only when followed by a
            # token that can begin an expression (so a variable named
            # ``count`` still works everywhere a lone identifier can).
            if tok.text in ast.AGGREGATE_OPS and self._starts_expression(
                self.peek(1)
            ):
                return self.aggregate_expr()
            self.advance()
            return ast.VarRef(tok.text, tok.pos)
        if tok.kind == "(":
            self.advance()
            expr = self.expression()
            self.expect(")")
            return expr
        raise ParseError(
            f"expected an expression but found {tok.text!r} at {tok.pos}"
        )

    @staticmethod
    def _starts_expression(tok: Token) -> bool:
        return tok.kind in ("ident", "relconst", "(") or (
            tok.kind == "keyword" and tok.text == "new"
        )

    def aggregate_expr(self) -> ast.AggregateOp:
        """``AGGOP replace_expr ["." ident] ["group" "by" ident,...]``.

        ``group`` and ``by`` are contextual identifiers, not keywords,
        so attributes may still carry those names."""
        agg_tok = self.advance()
        operand = self.replace_expr()
        attr = None
        if self.at("."):
            self.advance()
            attr = self.expect("ident").text
        group_by: List[str] = []
        if (
            self.at("ident")
            and self.peek().text == "group"
            and self.peek(1).kind == "ident"
            and self.peek(1).text == "by"
        ):
            self.advance()  # "group"
            self.advance()  # "by"
            group_by.append(self.expect("ident").text)
            while self.at(","):
                self.advance()
                group_by.append(self.expect("ident").text)
        return ast.AggregateOp(
            agg_tok.text, operand, attr, group_by, agg_tok.pos
        )

    def new_literal(self) -> ast.NewRel:
        pos = self.expect_keyword("new").pos
        self.expect("{")
        pieces = [self.new_piece()]
        while self.at(","):
            self.advance()
            pieces.append(self.new_piece())
        self.expect("}")
        return ast.NewRel(pieces, pos)

    def new_piece(self) -> ast.NewPiece:
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            value, is_string = tok.text, True
        elif tok.kind == "ident":
            self.advance()
            value, is_string = tok.text, False
        else:
            raise ParseError(
                f"expected an object expression but found {tok.text!r} "
                f"at {tok.pos}"
            )
        self.expect("=>")
        attr = self.expect("ident").text
        physdom = None
        if self.at(":"):
            self.advance()
            physdom = self.expect("ident").text
        return ast.NewPiece(value, is_string, attr, physdom, tok.pos)


def parse_program(source: str) -> ast.Program:
    """Parse a whole Jedd program."""
    return _Parser(tokenize(source)).program()


def parse_expression(source: str) -> ast.Expr:
    """Parse a single relational expression (used in tests)."""
    parser = _Parser(tokenize(source))
    expr = parser.expression()
    parser.expect("eof")
    return expr
