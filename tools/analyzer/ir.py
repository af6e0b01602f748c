"""Normalized mini-AST the analyzer's parser produces.

The checkers in checkers.py consume this IR only — they never look at
source text — so the parser in parse.py is the one place that knows
C++ syntax. The IR is deliberately small: scopes,
declarations, statements, calls and lambda captures are the complete
vocabulary the pin-escape / lock-order / status-drop / WAL-order
properties need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Token:
    kind: str  # 'id' | 'num' | 'punct'
    text: str
    line: int

    def __repr__(self) -> str:  # compact dumps while debugging
        return f"{self.text}@{self.line}"


@dataclass
class Scope:
    """A lexical scope. Variables declared in a scope die at its end in
    reverse declaration order; `ordinal` gives the declaration position
    used to compare lifetimes inside one scope."""

    id: int
    parent: Optional["Scope"]
    depth: int
    kind: str = "block"  # 'function' | 'block' | 'loop' | 'lambda'
    vars: dict = field(default_factory=dict)  # name -> VarInfo

    def lookup(self, name: str):
        s = self
        while s is not None:
            if name in s.vars:
                return s.vars[name]
            s = s.parent
        return None

    def is_ancestor_of(self, other: "Scope") -> bool:
        s = other.parent
        while s is not None:
            if s is self:
                return True
            s = s.parent
        return False


@dataclass
class VarInfo:
    name: str
    vtype: str  # normalized type spelling, e.g. 'const char *'
    line: int
    scope: Scope
    ordinal: int  # declaration order within the scope


@dataclass
class Call:
    """One call site. `recv` is the receiver expression's trailing
    identifier chain ('' for free calls): `pool_->FetchPage(x)` has
    name='FetchPage', recv='pool_'; `shard.mu.Lock()` has name='Lock',
    recv='shard.mu'."""

    name: str
    recv: str
    args: list  # list[list[Token]] — top-level comma-split argument tokens
    line: int
    qualifier: str = ""  # 'ns::Class' for qualified calls like pack::Pack


@dataclass
class Lambda:
    captures: list  # raw capture items, e.g. ['&', 'x', '=', 'this']
    body: "Stmt"  # a 'block' Stmt
    line: int
    # How the lambda expression is used at its site:
    #   'invoked'  immediately called:  [&]{...}()
    #   'arg'      passed as a call argument (callee uses it in place)
    #   'stored'   bound to a variable / member / container / returned
    usage: str = "arg"
    # Trailing return type spelling ('-> Status') when present.
    ret_hint: str = ""


@dataclass
class Stmt:
    """One statement. kind:
    'block'   children = statements
    'if'      cond tokens in `tokens` (incl. C++17 init), arms = [then, else?]
    'loop'    header tokens in `tokens`, arms = [body]
    'switch'  subject in `tokens`, arms = [case-branch blocks]
    'return'  expression tokens in `tokens`
    'decl'    name/vtype set, initializer tokens in `tokens`
    'expr'    expression tokens in `tokens`
    'try'     arms = [try-block, handler blocks...]
    """

    kind: str
    line: int
    tokens: list = field(default_factory=list)
    name: str = ""
    vtype: str = ""
    arms: list = field(default_factory=list)  # list[Stmt] ('block's)
    children: list = field(default_factory=list)  # for kind == 'block'
    calls: list = field(default_factory=list)  # Calls in `tokens`
    lambdas: list = field(default_factory=list)
    scope: Optional[Scope] = None
    # decl only: True when produced by PICTDB_ASSIGN_OR_RETURN (the
    # macro consumes the error path itself).
    from_assign_macro: bool = False


@dataclass
class Function:
    """A parsed function/method definition."""

    name: str  # unqualified, e.g. 'FetchPageImpl' or 'operator()'
    cls: str  # enclosing class ('' for free functions), e.g. 'BufferPool'
    namespace: str  # e.g. 'pictdb::storage'
    ret_type: str
    params: list  # list[VarInfo]
    body: Stmt  # 'block'
    line: int
    file: str

    @property
    def key(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass
class ClassInfo:
    name: str  # possibly nested, e.g. 'BufferPool::Shard'
    namespace: str
    members: dict = field(default_factory=dict)  # name -> type string
    # Declared (not necessarily defined here) methods: name -> ret type.
    method_ret: dict = field(default_factory=dict)
    file: str = ""
    line: int = 0


@dataclass
class TranslationUnit:
    file: str
    functions: list = field(default_factory=list)
    classes: dict = field(default_factory=dict)  # name -> ClassInfo


class Model:
    """Whole-program view: every parsed TU merged, with the lookup
    tables the interprocedural passes need."""

    def __init__(self):
        self.units: list[TranslationUnit] = []
        self.classes: dict[str, ClassInfo] = {}
        self.functions: list[Function] = []
        # name -> [Function]: unqualified-name index for call resolution.
        self.by_name: dict[str, list[Function]] = {}
        # 'Class::name' -> Function
        self.by_key: dict[str, Function] = {}

    def add_unit(self, unit: TranslationUnit):
        self.units.append(unit)
        for name, cls in unit.classes.items():
            existing = self.classes.get(name)
            if existing is None:
                self.classes[name] = cls
            else:
                existing.members.update(cls.members)
                existing.method_ret.update(cls.method_ret)
        for fn in unit.functions:
            self.functions.append(fn)
            self.by_name.setdefault(fn.name, []).append(fn)
            self.by_key.setdefault(fn.key, fn)

    def member_type(self, cls: str, member: str) -> str:
        """Type of `member` looked up on `cls` or any of its nested
        structs (a bare member reference inside a method may refer to a
        field of the enclosing class)."""
        info = self.classes.get(cls)
        if info is not None and member in info.members:
            return info.members[member]
        return ""


def base_type(spelling: str) -> str:
    """Last type component with wrappers stripped:
    'std::optional<rtree::RTree>' -> 'RTree',
    'storage::BufferPool *' -> 'BufferPool', 'const char *' -> 'char'."""
    t = spelling.strip()
    quals = ("static", "virtual", "inline", "explicit", "constexpr",
             "friend", "mutable", "const")
    words = t.split()
    while words and words[0] in quals:
        words = words[1:]
    t = " ".join(words)
    changed = True
    while changed:
        changed = False
        for wrap in ("std::optional", "std::unique_ptr", "std::shared_ptr",
                     "optional", "unique_ptr", "shared_ptr"):
            if t.startswith(wrap + "<") and t.endswith(">"):
                t = t[len(wrap) + 1:-1].strip()
                changed = True
    t = t.replace("*", " ").replace("&", " ").strip()
    t = t.replace("const ", " ").replace(" const", " ").strip()
    if "<" in t:
        t = t[: t.index("<")]
    return t.split("::")[-1].strip()


def is_pointerish(spelling: str) -> bool:
    """Does this declared type alias the storage it was derived from
    (rather than copying it)? Pointers, references, spans, string_views
    and the SoA lane view all qualify."""
    t = spelling.strip()
    if "*" in t or "&" in t:
        return True
    base = base_type(t)
    return base in ("span", "RectSoa", "string_view", "Slice")
