"""Machine programs: signatures, terms, rules, parsing, printing.

Surface syntax
--------------

A program file has an optional header followed by one rule::

    # comment
    signature:
      input E/2
      dynamic c/0
      dynamic m/1 relational
    space: 2 1

    rule:
    if not(Halt) then
      par
        forall v in Atoms do m(v) := true enddo
        Halt := true
      endpar
    endif

Header lines declare input relation names (static, over atoms) and
dynamic function names.  Halt/0 (relational) and Output/0 are always
part of the signature and need not be declared.  The optional
``space:`` line lists polynomial coefficients c0 c1 ... cd and is kept
verbatim on the Program for the run layer.

Terms::

    term     := operand | operand '=' operand | operand 'in' operand
    operand  := IDENT | IDENT '(' term, ... ')' | '0' | '1'
              | '{' '}' | '{' term, ... '}'
              | '{' term '|' IDENT 'in' term [',' term] '}'
              | '(' term ')'

Identifiers resolve against the background names (true, false, and, or,
not, Atoms, Union, TheUnique, Pair, plus '=' and 'in' spelled infix and
'{}' for the empty set), then against the declared signature; anything
else is a variable.  '0' and '1' abbreviate false and true.  A set
display {t1, ..., tk} is sugar for Pair/Union applications; a
comprehension {h | v in s, g} keeps its own node and binds v, which
must not occur free in s.

Rules::

    rule := 'skip'
          | NAME ['(' term, ... ')'] ':=' term
          | 'if' term 'then' rule ['else' rule] 'endif'
          | 'forall' IDENT 'in' term 'do' rule 'enddo'
          | 'par' rule ... rule 'endpar'

'par' is sugar: the parser rewrites a k-way block into a forall over
the encoded index set {1, ..., k} whose body selects the branch by
index, so downstream passes only ever see the four core rule forms.
The rule of a program must be closed.

Walking the tree
----------------

`nodes` is the one generic walk: every term and rule of a tree in
preorder, on an explicit stack.  `term_contains_dynamic`, `validate` and
`pfp.rule_variable_names` read it.  Three walks stay hand-written,
because a plain preorder cannot say what they need: `free_vars` and
`subst_term` follow binder scope, and `pfp._collect_assignments` keeps
the path of guards and binders down to each assignment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# -- background signature ---------------------------------------------------

BACKGROUND_ARITY: dict[str, int] = {
    "true": 0,
    "false": 0,
    "emptyset": 0,
    "Atoms": 0,
    "and": 2,
    "or": 2,
    "not": 1,
    "=": 2,
    "in": 2,
    "Union": 1,
    "TheUnique": 1,
    "Pair": 2,
}

KEYWORDS = {
    "skip", "if", "then", "else", "endif",
    "forall", "in", "do", "enddo", "par", "endpar",
}

RESERVED_HEADER = {"signature", "rule", "space", "input", "dynamic", "relational"}


class ProgramError(Exception):
    """Syntax or validation failure, with a source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.message = message
        self.line = line
        self.col = col
        where = f" (line {line}, col {col})" if line is not None else ""
        super().__init__(message + where)


@dataclass(frozen=True)
class Diagnostic:
    message: str
    line: int | None = None
    col: int | None = None

    def __str__(self):
        where = f"line {self.line}: " if self.line is not None else ""
        return where + self.message


# -- signature ---------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """Input relation names and dynamic function names of a machine.

    Halt/0 (relational) and Output/0 are always present.  Input names
    denote static relations over atoms; dynamic names denote updatable
    functions, relational ones restricted to the values 0 and 1.
    """

    inputs: tuple[tuple[str, int], ...] = ()
    dynamics: tuple[tuple[str, int, bool], ...] = (("Output", 0, False), ("Halt", 0, True))

    def input_arity(self, name: str) -> int | None:
        for n, a in self.inputs:
            if n == name:
                return a
        return None

    def dynamic_info(self, name: str) -> tuple[int, bool] | None:
        for n, a, rel in self.dynamics:
            if n == name:
                return a, rel
        return None

    def arity(self, name: str) -> int | None:
        """The arity of a background, input or dynamic name, else None."""
        arity = BACKGROUND_ARITY.get(name)
        if arity is None:
            arity = self.input_arity(name)
        if arity is None:
            info = self.dynamic_info(name)
            arity = None if info is None else info[0]
        return arity

    def is_input(self, name: str) -> bool:
        return self.input_arity(name) is not None

    def is_dynamic(self, name: str) -> bool:
        return self.dynamic_info(name) is not None

    def dynamic_names(self) -> tuple[str, ...]:
        return tuple(n for n, _, _ in self.dynamics)


def make_signature(inputs=(), dynamics=()) -> Signature:
    """Build a signature, forcing Halt and Output to be present."""
    dyn: list[tuple[str, int, bool]] = []
    have = set()
    for name, arity, rel in dynamics:
        if name in have:
            raise ProgramError(f"duplicate dynamic name {name!r}")
        have.add(name)
        dyn.append((name, arity, rel))
    if "Output" not in have:
        dyn.append(("Output", 0, False))
    if "Halt" not in have:
        dyn.append(("Halt", 0, True))
    seen_in = set()
    for name, _ in inputs:
        if name in seen_in or name in have:
            raise ProgramError(f"duplicate name {name!r} in signature")
        seen_in.add(name)
    return Signature(tuple(inputs), tuple(dyn))


# -- AST ----------------------------------------------------------------------

Span = tuple[int, int]


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Variable(Term):
    name: str
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Apply(Term):
    name: str
    args: tuple[Term, ...] = ()
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Comprehension(Term):
    """{ head | var in source, guard } -- var must not be free in source."""

    head: Term
    var: str
    source: Term
    guard: Term  # defaults to the true term when omitted
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Rule:
    pass


@dataclass(frozen=True)
class Skip(Rule):
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Assign(Rule):
    name: str
    args: tuple[Term, ...]
    value: Term
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class If(Rule):
    cond: Term
    then_rule: Rule
    else_rule: Rule
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Forall(Rule):
    var: str
    source: Term
    body: Rule
    span: Span | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Program:
    signature: Signature
    rule: Rule
    space_coeffs: tuple[int, ...] | None = None


TRUE_TERM = Apply("true")
FALSE_TERM = Apply("false")


# -- walking the tree -----------------------------------------------------------


def _children(node) -> tuple:
    """The direct subterms and subrules of a node, in field order."""
    if isinstance(node, Apply):
        return node.args
    if isinstance(node, (Variable, Skip)):
        return ()
    if isinstance(node, Comprehension):
        return node.head, node.source, node.guard
    if isinstance(node, Assign):
        return (*node.args, node.value)
    if isinstance(node, If):
        return node.cond, node.then_rule, node.else_rule
    if isinstance(node, Forall):
        return node.source, node.body
    raise TypeError(f"not a term or rule: {node!r}")


def nodes(node):
    """Every term and rule of node's tree, node included, in preorder: a
    node comes before its children, and children come in field order.
    Walks an explicit stack, so deep trees need no recursion."""
    stack = [node]
    while stack:
        node = stack.pop()
        children = _children(node)
        yield node
        if children:  # most nodes are leaves; skipping their push keeps extraction fast
            stack.extend(reversed(children))


# -- free variables ------------------------------------------------------------


def free_vars(node) -> frozenset[str]:
    """Free variables of a term or rule."""
    if isinstance(node, Variable):
        return frozenset((node.name,))
    if isinstance(node, Apply):
        out: frozenset[str] = frozenset()
        for a in node.args:
            out |= free_vars(a)
        return out
    if isinstance(node, Comprehension):
        inner = free_vars(node.head) | free_vars(node.source) | free_vars(node.guard)
        return inner - {node.var}
    if isinstance(node, Skip):
        return frozenset()
    if isinstance(node, Assign):
        out = free_vars(node.value)
        for a in node.args:
            out |= free_vars(a)
        return out
    if isinstance(node, If):
        return free_vars(node.cond) | free_vars(node.then_rule) | free_vars(node.else_rule)
    if isinstance(node, Forall):
        return (free_vars(node.source) | free_vars(node.body)) - {node.var}
    raise TypeError(f"not a term or rule: {node!r}")


def term_contains_dynamic(term: Term, sig: Signature) -> bool:
    for t in nodes(term):
        if isinstance(t, Apply) and sig.is_dynamic(t.name):
            return True
    return False


def subst_term(term: Term, mapping: dict[str, Term]) -> Term:
    """Capture-avoiding substitution of variables by terms.

    All generated replacement variables are fresh by construction, so a
    binder whose name is being substituted simply shadows it.
    """
    if isinstance(term, Variable):
        return mapping.get(term.name, term)
    if isinstance(term, Apply):
        return Apply(term.name, tuple(subst_term(a, mapping) for a in term.args), term.span)
    if isinstance(term, Comprehension):
        inner = {k: v for k, v in mapping.items() if k != term.var}
        return Comprehension(
            subst_term(term.head, inner),
            term.var,
            subst_term(term.source, inner),
            subst_term(term.guard, inner),
            term.span,
        )
    raise TypeError(f"not a term: {term!r}")


# -- set display / numeral encoding ---------------------------------------------


def set_display(terms: list[Term], span: Span | None = None) -> Term:
    """Encode {t1, ..., tk} with Pair and Union applications."""
    k = len(terms)
    if k == 0:
        return Apply("emptyset", (), span)
    if k == 1:
        return Apply("Pair", (terms[0], terms[0]), span)
    if k == 2:
        return Apply("Pair", (terms[0], terms[1]), span)
    half = k // 2
    left = set_display(terms[:half], span)
    right = set_display(terms[half:], span)
    return Apply("Union", (Apply("Pair", (left, right), span),), span)


def numeral(j: int) -> Term:
    """The j-th set-theoretic numeral: 0 is {}, j+1 is {0, ..., j}."""
    if j == 0:
        return FALSE_TERM
    if j == 1:
        return TRUE_TERM
    return set_display([numeral(i) for i in range(j)])


# -- tokenizer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<assign>:=)
      | (?P<op>[(){},|=])
      | (?P<num>[0-9]+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'ident', 'num', 'op', 'assign', 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str, start_line: int = 1) -> list[_Tok]:
    toks = []
    line, col = start_line, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ProgramError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            toks.append(_Tok(kind, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


# -- parser ------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[_Tok], sig: Signature):
        self.toks = toks
        self.pos = 0
        self.sig = sig
        self._par_count = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str, tok: _Tok | None = None):
        tok = tok or self.peek()
        raise ProgramError(msg, tok.line, tok.col)

    def at(self, kind: str, text: str | None = None) -> bool:
        """Whether the next token has this kind and, if given, this text."""
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        if not self.at(kind, text):
            want = text or kind
            self.fail(f"expected {want!r}, found {self.peek().text or 'end of input'!r}")
        return self.next()

    def fresh_par_var(self) -> str:
        v = f"_par{self._par_count}"
        self._par_count += 1
        return v

    # terms

    def parse_term(self) -> Term:
        left = self.parse_operand()
        if not (self.at("op", "=") or self.at("ident", "in")):
            return left
        t = self.next()
        out = Apply(t.text, (left, self.parse_operand()), (t.line, t.col))
        if self.at("op", "=") or self.at("ident", "in"):
            self.fail("comparisons do not chain; parenthesize")
        return out

    def parse_operand(self) -> Term:
        t = self.peek()
        if t.kind == "num":
            self.next()
            if t.text == "0":
                return Apply("false", (), (t.line, t.col))
            if t.text == "1":
                return Apply("true", (), (t.line, t.col))
            self.fail("only the numerals 0 and 1 are terms", t)
        if self.at("op", "("):
            self.next()
            inner = self.parse_term()
            self.expect("op", ")")
            return inner
        if self.at("op", "{"):
            return self.parse_braces()
        if t.kind == "ident":
            if t.text in KEYWORDS:
                self.fail(f"keyword {t.text!r} cannot start a term", t)
            self.next()
            span = (t.line, t.col)
            name = t.text
            arglist = self.parse_args()
            has_parens = arglist is not None
            args = arglist or ()
            if self.sig.arity(name) is not None:
                return Apply(name, args, span)
            if has_parens or not (name[0].islower() or name[0] == "_"):
                return Apply(name, args, span)  # unknown symbol; validate reports it
            return Variable(name, span)
        self.fail(f"expected a term, found {t.text or 'end of input'!r}")

    def parse_args(self) -> tuple[Term, ...] | None:
        """A parenthesized, comma-separated list of terms, or None when no
        '(' comes next."""
        if not self.at("op", "("):
            return None
        self.next()
        args = []
        if not self.at("op", ")"):
            args.append(self.parse_term())
            while self.at("op", ","):
                self.next()
                args.append(self.parse_term())
        self.expect("op", ")")
        return tuple(args)

    def parse_braces(self) -> Term:
        opener = self.expect("op", "{")
        span = (opener.line, opener.col)
        if self.at("op", "}"):
            self.next()
            return Apply("emptyset", (), span)
        first = self.parse_term()
        if self.at("op", "|"):
            self.next()
            var_tok = self.expect("ident")
            self._check_binder(var_tok)
            self.expect("ident", "in")
            source = self.parse_term()
            guard: Term = Apply("true", (), span)
            if self.at("op", ","):
                self.next()
                guard = self.parse_term()
            self.expect("op", "}")
            return Comprehension(first, var_tok.text, source, guard, span)
        elems = [first]
        while self.at("op", ","):
            self.next()
            elems.append(self.parse_term())
        self.expect("op", "}")
        return set_display(elems, span)

    def _check_binder(self, tok: _Tok):
        name = tok.text
        if name in KEYWORDS:
            self.fail(f"keyword {name!r} cannot be a bound variable", tok)
        if self.sig.arity(name) is not None:
            self.fail(f"bound variable {name!r} shadows a declared name", tok)

    # rules

    def parse_rule(self) -> Rule:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected a rule, found {t.text or 'end of input'!r}")
        if t.text == "skip":
            self.next()
            return Skip((t.line, t.col))
        if t.text == "if":
            self.next()
            cond = self.parse_term()
            self.expect("ident", "then")
            then_rule = self.parse_rule()
            else_rule: Rule = Skip((t.line, t.col))
            if self.at("ident", "else"):
                self.next()
                else_rule = self.parse_rule()
            self.expect("ident", "endif")
            return If(cond, then_rule, else_rule, (t.line, t.col))
        if t.text == "forall":
            self.next()
            var_tok = self.expect("ident")
            self._check_binder(var_tok)
            self.expect("ident", "in")
            source = self.parse_term()
            self.expect("ident", "do")
            body = self.parse_rule()
            self.expect("ident", "enddo")
            return Forall(var_tok.text, source, body, (t.line, t.col))
        if t.text == "par":
            self.next()
            branches = [self.parse_rule()]
            while not self.at("ident", "endpar"):
                if self.at("eof"):
                    self.fail("unterminated 'par' block")
                branches.append(self.parse_rule())
            self.next()
            return self.desugar_par(branches, (t.line, t.col))
        if t.text in KEYWORDS:
            self.fail(f"unexpected keyword {t.text!r}", t)
        # assignment
        self.next()
        span = (t.line, t.col)
        args = self.parse_args() or ()
        self.expect("assign")
        value = self.parse_term()
        return Assign(t.text, args, value, span)

    def desugar_par(self, branches: list[Rule], span: Span) -> Rule:
        """Rewrite a parallel block as a forall over the index numerals."""
        k = len(branches)
        if k == 1:
            return branches[0]
        v = self.fresh_par_var()
        source = set_display([numeral(j) for j in range(1, k + 1)], span)
        body: Rule = If(Apply("=", (Variable(v), numeral(k)), span), branches[-1], Skip(span), span)
        for j in range(k - 1, 0, -1):
            body = If(Apply("=", (Variable(v), numeral(j)), span), branches[j - 1], body, span)
        return Forall(v, source, body, span)


# -- header ----------------------------------------------------------------------

_HEADER_DECL_RE = re.compile(
    r"^(input|dynamic)\s+([A-Za-z][A-Za-z0-9_]*)\s*/\s*([0-9]+)\s*(relational)?$"
)


def _split_sections(text: str):
    """Split file text into header declarations and the rule body."""
    lines = text.split("\n")
    header: list[tuple[int, str]] = []
    rule_start: int | None = None
    for idx, raw in enumerate(lines):
        stripped = raw.split("#", 1)[0].strip()
        if stripped == "rule:":
            rule_start = idx
            break
        if stripped:
            header.append((idx + 1, stripped))
    if rule_start is None:
        raise ProgramError("missing 'rule:' section")
    body = "\n".join(lines[rule_start + 1:])
    return header, body, rule_start + 2


def _parse_header(header: list[tuple[int, str]]):
    inputs: list[tuple[str, int]] = []
    dynamics: list[tuple[str, int, bool]] = []
    space: tuple[int, ...] | None = None
    for line_no, line in header:
        if line == "signature:":
            continue
        if line.startswith("space:"):
            if space is not None:
                raise ProgramError("duplicate 'space:' line", line_no, 1)
            rest = line[len("space:"):].split()
            try:
                space = tuple(int(c) for c in rest)
            except ValueError:
                raise ProgramError("space coefficients must be integers", line_no, 1)
            if not space:
                raise ProgramError("'space:' needs at least one coefficient", line_no, 1)
            continue
        m = _HEADER_DECL_RE.match(line)
        if not m:
            raise ProgramError(f"cannot parse header line {line!r}", line_no, 1)
        kind, name, arity, rel = m.groups()
        if name in BACKGROUND_ARITY or name in KEYWORDS or name in RESERVED_HEADER:
            raise ProgramError(f"name {name!r} is reserved", line_no, 1)
        if kind == "input":
            if rel:
                raise ProgramError("input names are relations already", line_no, 1)
            inputs.append((name, int(arity)))
        else:
            dynamics.append((name, int(arity), bool(rel)))
    for name, arity, rel in dynamics:
        if name == "Halt" and (arity != 0 or not rel):
            raise ProgramError("Halt must be declared as Halt/0 relational")
        if name == "Output" and arity != 0:
            raise ProgramError("Output must be nullary")
    return make_signature(inputs, dynamics), space


# -- validation ---------------------------------------------------------------------


def validate(program: Program) -> list[Diagnostic]:
    """Static checks; empty list means the program is well-formed.

    Covers closedness of the main rule, arity and symbol resolution,
    assignment targets, and binder side conditions.  Whether a value
    assigned to a relational name is Boolean depends on run-time state
    and is enforced by the evaluator instead.
    """
    sig = program.signature
    diags: list[Diagnostic] = []

    def report(node, message: str):
        line, col = getattr(node, "span", None) or (0, 0)
        diags.append(Diagnostic(message, line, col))

    def check(node):
        if isinstance(node, Assign) and sig.is_input(node.name):
            report(node, f"cannot assign to input name {node.name!r}: "
                         "input relations are read-only")
        elif isinstance(node, Assign) and node.name in BACKGROUND_ARITY:
            report(node, f"cannot assign to background name {node.name!r}")
        elif isinstance(node, (Apply, Assign)):
            expected = sig.arity(node.name)
            if expected is None:
                report(node, f"unknown symbol {node.name!r}")
            elif expected != len(node.args):
                report(node, f"{node.name!r} expects {expected} argument(s), got {len(node.args)}")
        elif isinstance(node, (Comprehension, Forall)) and node.var in free_vars(node.source):
            binder = "comprehension variable" if isinstance(node, Comprehension) else "bound variable"
            report(node, f"{binder} {node.var!r} occurs free in its source")

    for node in nodes(program.rule):
        check(node)
    loose = free_vars(program.rule)
    if loose:
        names = ", ".join(sorted(loose))
        diags.append(Diagnostic(f"program rule is not closed; free: {names}"))
    return diags


# -- entry points ----------------------------------------------------------------------


def parse_program(text: str) -> Program:
    """Parse and validate a program file; raises ProgramError on any defect."""
    header, body, body_line = _split_sections(text)
    sig, space = _parse_header(header)
    toks = _tokenize(body, start_line=body_line)
    parser = _Parser(toks, sig)
    rule = parser.parse_rule()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ProgramError(
            f"trailing input after rule: {trailing.text!r}", trailing.line, trailing.col)
    program = Program(sig, rule, space)
    diags = validate(program)
    if diags:
        first = diags[0]
        raise ProgramError(first.message, first.line, first.col)
    return program


# -- printing ---------------------------------------------------------------------------


def term_to_text(term: Term) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Apply):
        if term.name in ("=", "in"):
            lhs, rhs = (_operand_text(a) for a in term.args)
            op = term.name
            return f"{lhs} {op} {rhs}"
        if term.name == "emptyset":
            return "{}"
        if not term.args:
            return term.name
        return f"{term.name}(" + ", ".join(term_to_text(a) for a in term.args) + ")"
    if isinstance(term, Comprehension):
        body = f"{term_to_text(term.head)} | {term.var} in {term_to_text(term.source)}"
        if term.guard != TRUE_TERM:
            body += f", {term_to_text(term.guard)}"
        return "{" + body + "}"
    raise TypeError(f"not a term: {term!r}")


def _operand_text(term: Term) -> str:
    text = term_to_text(term)
    if isinstance(term, Apply) and term.name in ("=", "in"):
        return f"({text})"
    return text


def rule_to_text(rule: Rule, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(rule, Skip):
        return pad + "skip"
    if isinstance(rule, Assign):
        args = ""
        if rule.args:
            args = "(" + ", ".join(term_to_text(a) for a in rule.args) + ")"
        return f"{pad}{rule.name}{args} := {term_to_text(rule.value)}"
    if isinstance(rule, If):
        out = f"{pad}if {term_to_text(rule.cond)} then\n"
        out += rule_to_text(rule.then_rule, indent + 1) + "\n"
        if rule.else_rule != Skip():
            out += pad + "else\n"
            out += rule_to_text(rule.else_rule, indent + 1) + "\n"
        out += pad + "endif"
        return out
    if isinstance(rule, Forall):
        out = f"{pad}forall {rule.var} in {term_to_text(rule.source)} do\n"
        out += rule_to_text(rule.body, indent + 1) + "\n"
        out += pad + "enddo"
        return out
    raise TypeError(f"not a rule: {rule!r}")


def pretty_print(program: Program) -> str:
    """Render a program back to file text; reparsing yields an equal AST."""
    lines = []
    sig = program.signature
    decls = []
    for name, arity in sig.inputs:
        decls.append(f"input {name}/{arity}")
    for name, arity, rel in sig.dynamics:
        if name == "Halt":
            continue
        if name == "Output" and not rel:
            continue
        suffix = " relational" if rel else ""
        decls.append(f"dynamic {name}/{arity}{suffix}")
    if decls:
        lines.append("signature:")
        lines.extend("  " + d for d in decls)
    if program.space_coeffs is not None:
        lines.append("space: " + " ".join(str(c) for c in program.space_coeffs))
    if lines:
        lines.append("")
    lines.append("rule:")
    lines.append(rule_to_text(program.rule))
    return "\n".join(lines) + "\n"
