"""The four semantic checkers over the ir.Model (DESIGN.md §15).

PIN-ESCAPE   pointers/spans derived from a PageGuard/SoaNode must not
             outlive the guard: no return, no assignment to a variable
             whose scope outlives the guard, no stored-lambda capture,
             no insertion into an outer container.
LOCK-ORDER   the whole-program lock acquisition graph (RAII wrappers +
             explicit Lock/Unlock, interprocedural via per-function
             acquire summaries) must be consistent with the numbered
             hierarchy in the lock hierarchy file: while holding a lock
             of level L you may only acquire strictly greater levels.
STATUS-DROP  Status/StatusOr results discarded via (void) casts without
             a justification comment, bare call statements, invoked
             lambdas, or locals overwritten/never read.
WAL-ORDER    inside the configured write-path files, every mutating
             call on an RTree receiver must be sequentially dominated by
             a Wal append on the same path.

Every finding is (file, line, RULE, message).
"""

from __future__ import annotations

import re

from ir import Call, Function, Lambda, Model, Scope, Stmt, base_type, \
    is_pointerish

# ---------------------------------------------------------------------------
# shared configuration

GUARD_TYPES = {"PageGuard"}
OWNER_TYPES = {"SoaNode"}
DERIVERS = {"data", "mutable_data", "rects"}
# Callees whose function-object argument outlives the call site.
STORING_CALLEES = {"Submit", "TrySubmit",
                   "SetCommitHook", "set_commit_hook", "push_back",
                   "emplace_back", "insert", "emplace", "assign"}
CONTAINER_INSERTERS = {"push_back", "emplace_back", "insert", "emplace",
                       "assign", "push"}

STATUS_TYPES = {"Status", "StatusOr"}
CONSUME_MACROS = {"PICTDB_RETURN_IF_ERROR", "PICTDB_ASSIGN_OR_RETURN",
                  "PICTDB_CHECK", "PICTDB_CHECK_OK", "EXPECT_TRUE",
                  "ASSERT_TRUE", "EXPECT_OK", "ASSERT_OK"}

RAII_LOCKS = {"MutexLock": "exclusive", "WriterMutexLock": "exclusive",
              "ReaderMutexLock": "shared"}
LOCK_CLASSES = {"Mutex", "SharedMutex"}
ACQUIRE_METHODS = {"Lock": "exclusive", "LockShared": "shared"}
RELEASE_METHODS = {"Unlock", "UnlockShared"}
NONBLOCKING_METHODS = {"TryLock"}
# Classes whose own bodies are the lock implementation — never analyzed.
LOCK_IMPL_CLASSES = {"Mutex", "SharedMutex", "MutexLock", "WriterMutexLock",
                     "ReaderMutexLock", "CondVar"}

# Functions that replay/recover from the log or bulk-build outside it:
# their RTree mutations are exempt from WAL-ORDER by construction.
WAL_EXEMPT_RE = re.compile(r"Replay|Recover|BulkLoad|Scrub|Repack")
WAL_MUTATORS = {"Insert", "Delete", "Update"}
WAL_MUTATOR_RECV = {"RTree"}
WAL_APPENDERS = {"Append"}
WAL_APPENDER_RECV = {"Wal"}


class Hierarchy:
    """Parsed lock hierarchy file: numbered levels + accessor mappings.

    Line formats (# comments allowed):
        level <N> <Class::member>
        accessor <Class::Method> -> <Class::member>
    """

    def __init__(self):
        self.levels = {}  # lock id -> int
        self.accessors = {}  # 'Class::Method' -> lock id

    @staticmethod
    def load(path: str) -> "Hierarchy":
        h = Hierarchy()
        with open(path, "r", encoding="utf-8") as f:
            for raw in f:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                if parts[0] == "level" and len(parts) >= 3:
                    h.levels[parts[2]] = int(parts[1])
                elif parts[0] == "accessor" and len(parts) >= 4 \
                        and parts[2] == "->":
                    h.accessors[parts[1]] = parts[3]
        return h


# ---------------------------------------------------------------------------
# model helpers


class Resolver:
    """Type/receiver/call-target resolution shared by the checkers."""

    def __init__(self, model: Model):
        self.model = model
        self._class_by_suffix = {}
        for name in model.classes:
            last = name.split("::")[-1]
            self._class_by_suffix.setdefault(last, name)

    def find_class(self, base: str, ctx_cls: str = ""):
        if not base:
            return None
        if base in self.model.classes:
            return self.model.classes[base]
        if ctx_cls:
            # a bare name inside a method prefers the enclosing class's
            # nested type ('Shard' in BufferPool -> BufferPool::Shard)
            ctx = self.find_class(ctx_cls)
            if ctx is not None:
                nested = self.model.classes.get(f"{ctx.name}::{base}")
                if nested is not None:
                    return nested
        full = self._class_by_suffix.get(base)
        return self.model.classes.get(full) if full else None

    def chain_type(self, fn: Function, scope: Scope, chain: str):
        """Resolve 'shard.mu' / 'tree_' / 'pool_' to (owner_class_name,
        member_name, type_spelling). owner/member are '' for plain
        locals. Returns None when any hop is unknown."""
        if not chain:
            return None
        parts = chain.split(".")
        first, rest = parts[0], parts[1:]
        owner, member, vtype = "", "", ""
        v = scope.lookup(first) if scope is not None else None
        if v is not None:
            vtype = v.vtype
        elif first == "this":
            cls = self.find_class(fn.cls)
            if cls is None:
                return None
            vtype = cls.name
        else:
            cls = self.find_class(fn.cls)
            if cls is not None and first in cls.members:
                owner, member = cls.name, first
                vtype = cls.members[first]
            else:
                return None
        for part in rest:
            cls = self.find_class(base_type(vtype), ctx_cls=fn.cls)
            if cls is None or part not in cls.members:
                return None
            owner, member = cls.name, part
            vtype = cls.members[part]
        return (owner, member, vtype)

    def callee(self, fn: Function, scope: Scope, call: Call):
        """Best-effort call-target resolution -> list[Function]."""
        name = call.name
        if name not in self.model.by_name:
            return []
        if call.qualifier:
            return list(self.model.by_name[name])
        if call.recv:
            info = self.chain_type(fn, scope, call.recv)
            if info is not None:
                base = base_type(info[2])
                target = self.model.by_key.get(f"{base}::{name}")
                if target is not None:
                    return [target]
                if self.find_class(base) is not None:
                    # the receiver class is known but has no definition
                    # of this method here — virtual dispatch through a
                    # base interface (or an out-of-repo body): union
                    # every method definition with this name.
                    return [f for f in self.model.by_name[name] if f.cls]
                return []
            return []
        # unqualified: same class first, then unique free function
        if fn.cls:
            target = self.model.by_key.get(f"{fn.cls}::{name}")
            if target is not None:
                return [target]
        frees = [f for f in self.model.by_name[name] if not f.cls]
        return frees[:1]

    def call_ret_type(self, fn: Function, scope: Scope, call: Call) -> str:
        """Return-type spelling of a call, '' if unknown."""
        if call.recv:
            info = self.chain_type(fn, scope, call.recv)
            if info is not None:
                cls = self.find_class(base_type(info[2]))
                if cls is not None and call.name in cls.method_ret:
                    return cls.method_ret[call.name]
        targets = self.callee(fn, scope, call)
        if targets:
            return targets[0].ret_type
        if fn.cls and not call.recv:
            cls = self.find_class(fn.cls)
            if cls is not None and call.name in cls.method_ret:
                return cls.method_ret[call.name]
        return ""


def iter_arms(stmt: Stmt):
    """(pre_stmts, branch_blocks) for a compound statement: non-block
    arms (if/for init statements) execute unconditionally first."""
    pre, branches = [], []
    for arm in stmt.arms:
        if arm is None:
            continue
        if arm.kind == "block":
            branches.append(arm)
        else:
            pre.append(arm)
    return pre, branches


def walk_stmts(root: Stmt):
    stack = [root]
    while stack:
        s = stack.pop()
        yield s
        stack.extend(s.children)
        stack.extend(a for a in s.arms if a is not None)
        for lam in s.lambdas:
            stack.append(lam.body)


def stmt_ids(stmt: Stmt):
    for t in stmt.tokens:
        if t.kind == "id":
            yield t


# ---------------------------------------------------------------------------
# PIN-ESCAPE


class PinEscape:
    RULE = "PIN-ESCAPE"

    def __init__(self, resolver: Resolver):
        self.r = resolver

    def check(self, fn: Function):
        findings = []
        # varinfo id -> the guard/owner VarInfo it aliases
        sources = {}
        derived = {}
        self._walk(fn, fn.body, sources, derived, findings)
        return findings

    # -- helpers

    def _is_source_decl(self, vtype: str) -> bool:
        return base_type(vtype) in (GUARD_TYPES | OWNER_TYPES)

    def _derivation_source(self, stmt, scope, sources, derived):
        """Does this token stream derive a raw view from a source?
        Returns the source VarInfo or None. Derivation = `src.data()` /
        `src.rects()` chain, or mention of an already-derived var."""
        toks = stmt.tokens
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            v = scope.lookup(t.text)
            if v is None:
                continue
            if id(v) in derived:
                return derived[id(v)]
            if id(v) in sources:
                nxt = toks[i + 1].text if i + 1 < len(toks) else ""
                nxt2 = toks[i + 2].text if i + 2 < len(toks) else ""
                if nxt in (".", "->") and nxt2 in DERIVERS:
                    return v
        return None

    def _mentions(self, toks, scope, sources, derived, deriving_only):
        """Names of guard/derived vars referenced in `toks`. With
        deriving_only, a source var counts only via a DERIVERS call."""
        hits = []
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            v = scope.lookup(t.text)
            if v is None:
                continue
            if id(v) in derived:
                hits.append((t, v, derived[id(v)]))
            elif id(v) in sources:
                nxt = toks[i + 1].text if i + 1 < len(toks) else ""
                nxt2 = toks[i + 2].text if i + 2 < len(toks) else ""
                if not deriving_only or (nxt in (".", "->")
                                         and nxt2 in DERIVERS):
                    hits.append((t, v, v))
        return hits

    def _ret_pointerish(self, fn: Function) -> bool:
        """Is the function's return type an aliasing view once the
        StatusOr wrapper is peeled off?"""
        t = fn.ret_type.strip()
        m = re.match(r"^(?:\w+::)*StatusOr<(.+)>$", t)
        if m:
            t = m.group(1)
        return is_pointerish(t)

    def _outlives(self, target, source) -> bool:
        """Does variable `target` outlive `source`? True when target's
        scope is an ancestor of source's, or same scope with an earlier
        declaration (destroyed later)."""
        if target.scope is source.scope:
            return target.ordinal < source.ordinal
        return target.scope.is_ancestor_of(source.scope)

    def _walk(self, fn, block, sources, derived, findings):
        for stmt in block.children:
            scope = stmt.scope or block.scope
            if stmt.kind == "decl":
                if self._is_source_decl(stmt.vtype):
                    v = scope.lookup(stmt.name)
                    if v is not None:
                        sources[id(v)] = v
                elif is_pointerish(stmt.vtype):
                    src = self._derivation_source(stmt, scope, sources,
                                                  derived)
                    if src is not None:
                        v = scope.lookup(stmt.name)
                        if v is not None:
                            derived[id(v)] = src
            elif stmt.kind == "expr":
                self._check_assign(fn, stmt, scope, sources, derived,
                                   findings)
            elif stmt.kind == "return" and self._ret_pointerish(fn):
                # a value-typed return copies out of the page (fine);
                # only a pointerish return aliases it past the unpin.
                for (tok, v, src) in self._mentions(
                        stmt.tokens, scope, sources, derived,
                        deriving_only=True):
                    findings.append((fn.file, tok.line, self.RULE,
                                     f"'{tok.text}' derived from pinned "
                                     f"page data is returned from "
                                     f"'{fn.name}' and outlives its guard"))
            self._check_calls(fn, stmt, scope, sources, derived, findings)
            self._check_lambdas(fn, stmt, scope, sources, derived, findings)
            # recurse
            if stmt.kind == "block":
                self._walk(fn, stmt, sources, derived, findings)
            else:
                pre, branches = iter_arms(stmt)
                for p in pre:
                    fake = Stmt("block", p.line, scope=p.scope or scope)
                    fake.children.append(p)
                    self._walk(fn, fake, sources, derived, findings)
                for b in branches:
                    self._walk(fn, b, sources, derived, findings)
            for lam in stmt.lambdas:
                self._walk(fn, lam.body, sources, derived, findings)

    def _check_assign(self, fn, stmt, scope, sources, derived, findings):
        toks = stmt.tokens
        if len(toks) < 3 or toks[0].kind != "id" or toks[1].text != "=":
            return
        rhs = Stmt("expr", stmt.line, tokens=toks[2:], scope=scope)
        src = self._derivation_source(rhs, scope, sources, derived)
        if src is None:
            return
        target = scope.lookup(toks[0].text)
        if target is None:
            # unknown name: a pointerish class member assignment escapes
            cls = self.r.find_class(fn.cls)
            if cls is not None and \
                    is_pointerish(cls.members.get(toks[0].text, "")):
                findings.append((fn.file, stmt.line, self.RULE,
                                 f"pinned page pointer stored into member "
                                 f"'{toks[0].text}' outlives guard "
                                 f"'{src.name}'"))
            return
        # copying a VALUE computed from page bytes (PageId, Key, ...)
        # does not alias the page; only pointerish targets escape.
        if not is_pointerish(target.vtype) and \
                base_type(target.vtype) != "auto":
            return
        if self._outlives(target, src):
            findings.append((fn.file, stmt.line, self.RULE,
                             f"'{target.name}' outlives guard "
                             f"'{src.name}' but is assigned a pointer "
                             f"into its pinned page"))
        else:
            derived[id(target)] = src

    def _check_calls(self, fn, stmt, scope, sources, derived, findings):
        for call in stmt.calls:
            if call.name not in CONTAINER_INSERTERS:
                continue
            if not call.recv:
                continue
            recv_var = scope.lookup(call.recv.split(".")[0])
            for arg in call.args:
                arg_stmt = Stmt("expr", call.line, tokens=arg, scope=scope)
                src = self._derivation_source(arg_stmt, scope, sources,
                                              derived)
                if src is None:
                    continue
                escapes = False
                if recv_var is None:
                    # member container or out-param style pointer recv
                    escapes = True
                elif self._outlives(recv_var, src):
                    escapes = True
                if escapes:
                    findings.append(
                        (fn.file, call.line, self.RULE,
                         f"pointer into page pinned by '{src.name}' "
                         f"inserted into container '{call.recv}' that "
                         f"outlives the guard"))

    def _check_lambdas(self, fn, stmt, scope, sources, derived, findings):
        stored_arg = any(c.name in STORING_CALLEES for c in stmt.calls)
        for lam in stmt.lambdas:
            if lam.usage == "invoked":
                continue
            if lam.usage == "arg" and not stored_arg:
                continue
            # which sources does the body (or capture list) touch?
            touched = set()
            for s in walk_stmts(lam.body):
                for t in stmt_ids(s):
                    v = scope.lookup(t.text)
                    if v is not None and (id(v) in sources
                                          or id(v) in derived):
                        touched.add(v.name)
            for cap in lam.captures:
                v = scope.lookup(cap)
                if v is not None and (id(v) in sources or id(v) in derived):
                    touched.add(v.name)
            for name in sorted(touched):
                findings.append(
                    (fn.file, lam.line, self.RULE,
                     f"stored lambda captures '{name}' whose pinned page "
                     f"may be unpinned before the lambda runs"))


# ---------------------------------------------------------------------------
# LOCK-ORDER


class LockOrder:
    RULE = "LOCK-ORDER"

    def __init__(self, resolver: Resolver, hierarchy: Hierarchy):
        self.r = resolver
        self.h = hierarchy
        self.summaries = {}  # fn key -> set of lock ids it may acquire

    def lock_id(self, fn, scope, chain: str):
        """'shard.mu' within fn -> 'BufferPool::Shard::mu'."""
        info = self.r.chain_type(fn, scope, chain)
        if info is None:
            return None
        owner, member, vtype = info
        if base_type(vtype) not in LOCK_CLASSES:
            return None
        if not owner:  # a plain local lock: identify by function
            return f"{fn.key}::{chain}"
        return f"{owner}::{member}"

    def accessor_lock(self, fn, scope, call: Call):
        """pool_->LatchFor(g) -> the mapped lock id, if configured."""
        if not self.h.accessors:
            return None
        key = None
        if call.recv:
            info = self.r.chain_type(fn, scope, call.recv)
            if info is not None:
                key = f"{base_type(info[2])}::{call.name}"
        elif fn.cls:
            key = f"{fn.cls}::{call.name}"
        return self.h.accessors.get(key) if key else None

    # -- per-statement lock events ------------------------------------

    def _events(self, fn, stmt, scope):
        """Yield ('acquire'|'release'|'acquire_raii', lock_id, line)
        for the statement's own tokens."""
        if stmt.kind == "decl" and base_type(stmt.vtype) in RAII_LOCKS:
            lid = None
            for call in stmt.calls:
                lid = self.accessor_lock(fn, scope, call)
                if lid:
                    break
            if lid is None:
                chain = "".join(
                    t.text if t.kind == "id" else "." for t in stmt.tokens
                    if t.kind == "id" or t.text in (".", "->")).strip(".")
                chain = chain.replace("..", ".")
                lid = self.lock_id(fn, scope, chain)
            if lid is not None:
                yield ("acquire_raii", lid, stmt.line)
            return
        for call in stmt.calls:
            if call.name in ACQUIRE_METHODS or call.name in RELEASE_METHODS:
                lid = self.lock_id(fn, scope, call.recv)
                if lid is None:
                    continue
                if call.name in ACQUIRE_METHODS:
                    yield ("acquire", lid, call.line)
                else:
                    yield ("release", lid, call.line)

    # -- interprocedural summaries ------------------------------------

    def _local_info(self, fn):
        """(acquired lock ids, callee Function keys) for one function."""
        acquired = set()
        callees = set()
        for stmt in walk_stmts(fn.body):
            scope = stmt.scope or fn.body.scope
            for (kind, lid, _line) in self._events(fn, stmt, scope):
                if kind.startswith("acquire"):
                    acquired.add(lid)
            for call in stmt.calls:
                if call.name in ACQUIRE_METHODS or \
                        call.name in RELEASE_METHODS or \
                        call.name in NONBLOCKING_METHODS:
                    continue
                for target in self.r.callee(fn, scope, call):
                    if target.cls in LOCK_IMPL_CLASSES:
                        continue
                    callees.add(target.key)
        return acquired, callees

    def build_summaries(self, functions):
        local = {}
        calls = {}
        for fn in functions:
            if fn.cls in LOCK_IMPL_CLASSES:
                continue
            acq, callees = self._local_info(fn)
            key = fn.key
            local[key] = local.get(key, set()) | acq
            calls[key] = calls.get(key, set()) | callees
        summaries = {k: set(v) for k, v in local.items()}
        changed = True
        while changed:
            changed = False
            for k in summaries:
                for c in calls.get(k, ()):
                    extra = summaries.get(c, set()) - summaries[k]
                    if extra:
                        summaries[k] |= extra
                        changed = True
        self.summaries = summaries

    # -- the check ----------------------------------------------------

    def check(self, fn: Function):
        if fn.cls in LOCK_IMPL_CLASSES:
            return []
        findings = []
        self._walk(fn, fn.body, [], findings)
        return findings

    def _edge(self, fn, held, lock_id, line, findings, via=""):
        for h in held:
            if h == lock_id:
                findings.append(
                    (fn.file, line, self.RULE,
                     f"'{lock_id}' acquired while already held "
                     f"(self-deadlock){via}"))
                continue
            lh = self.h.levels.get(h)
            ln = self.h.levels.get(lock_id)
            if lh is None or ln is None:
                missing = lock_id if ln is None else h
                findings.append(
                    (fn.file, line, self.RULE,
                     f"lock '{missing}' is not in the hierarchy file "
                     f"(nesting '{h}' -> '{lock_id}'){via}"))
                continue
            if ln <= lh:
                findings.append(
                    (fn.file, line, self.RULE,
                     f"acquiring '{lock_id}' (level {ln}) while holding "
                     f"'{h}' (level {lh}) inverts the lock "
                     f"hierarchy{via}"))

    def _walk(self, fn, block, held, findings):
        """held: list of lock ids (outermost first). Returns the held
        list at block exit (RAII locks from this block released)."""
        raii_here = []
        for stmt in block.children:
            scope = stmt.scope or block.scope
            for (kind, lid, line) in self._events(fn, stmt, scope):
                if kind == "release":
                    if lid in held:
                        held.remove(lid)
                    continue
                self._edge(fn, held, lid, line, findings)
                held.append(lid)
                if kind == "acquire_raii":
                    raii_here.append(lid)
            # callee-transitive edges
            for call in stmt.calls:
                if call.name in ACQUIRE_METHODS or \
                        call.name in RELEASE_METHODS or \
                        call.name in NONBLOCKING_METHODS:
                    continue
                if not held:
                    continue
                for target in self.r.callee(fn, scope, call):
                    for lid in sorted(self.summaries.get(target.key, ())):
                        self._edge(fn, held, lid, call.line, findings,
                                   via=f" (via call to '{target.key}')")
            for lam in stmt.lambdas:
                sub_held = list(held) if lam.usage == "invoked" else []
                self._walk(fn, lam.body, sub_held, findings)
            if stmt.kind == "block":
                self._walk(fn, stmt, held, findings)
            elif stmt.arms:
                pre, branches = iter_arms(stmt)
                for p in pre:
                    fake = Stmt("block", p.line, scope=p.scope or scope)
                    fake.children.append(p)
                    self._walk(fn, fake, held, findings)
                for b in branches:
                    self._walk(fn, b, list(held), findings)
        for lid in raii_here:
            if lid in held:
                held.remove(lid)
        return held


# ---------------------------------------------------------------------------
# STATUS-DROP


class StatusDrop:
    RULE = "STATUS-DROP"

    def __init__(self, resolver: Resolver, raw_lines):
        self.r = resolver
        self.raw = raw_lines  # file -> list[str]

    def _is_status_type(self, spelling: str) -> bool:
        if not spelling:
            return False
        if base_type(spelling) in STATUS_TYPES:
            return True
        return spelling.split("<")[0].split("::")[-1].strip() in STATUS_TYPES

    def _call_is_status(self, fn, scope, call) -> bool:
        return self._is_status_type(self.r.call_ret_type(fn, scope, call))

    def _has_justification(self, fn, line) -> bool:
        lines = self.raw.get(fn.file)
        if not lines or not 1 <= line <= len(lines):
            return False
        text = lines[line - 1]
        return "//" in text and text.split("//", 1)[1].strip() != ""

    def check(self, fn: Function):
        findings = []
        self._walk(fn, fn.body, findings)
        return findings

    def _final_call(self, stmt):
        """The call whose result is the statement's value. Calls are
        recorded in token order, so the first one is the outermost for
        `Fn(Nested(...))` shapes; nested status factories passed as
        arguments must not be attributed the statement's value."""
        if not stmt.calls or not stmt.tokens:
            return None
        if stmt.tokens[-1].text != ")":
            return None
        return stmt.calls[0]

    def _walk(self, fn, block, findings):
        # straight-line overwritten-before-read tracking for this block
        pending = {}  # var name -> line of the unread status assignment

        def read_all(stmt):
            for t in stmt_ids(stmt):
                pending.pop(t.text, None)

        for stmt in block.children:
            scope = stmt.scope or block.scope
            toks = stmt.tokens
            if stmt.kind == "expr" and toks:
                # (void)Call(...)
                if len(toks) > 3 and toks[0].text == "(" \
                        and toks[1].text == "void" and toks[2].text == ")":
                    call = self._final_call(stmt)
                    if call is not None and \
                            self._call_is_status(fn, scope, call) and \
                            not self._has_justification(fn, stmt.line):
                        findings.append(
                            (fn.file, stmt.line, self.RULE,
                             f"status from '{call.name}' discarded via "
                             f"(void) with no justification comment"))
                    read_all(stmt)
                    continue
                # bare status-returning call statement
                first = toks[0]
                if first.kind == "id" and first.text not in CONSUME_MACROS \
                        and "=" not in [t.text for t in toks]:
                    call = self._final_call(stmt)
                    if call is not None and call.name not in CONSUME_MACROS \
                            and self._call_is_status(fn, scope, call):
                        findings.append(
                            (fn.file, stmt.line, self.RULE,
                             f"result of status-returning call "
                             f"'{call.name}' is silently dropped"))
                # immediately-invoked lambda whose Status result is unused
                for lam in stmt.lambdas:
                    if lam.usage == "invoked" and \
                            self._is_status_type(lam.ret_hint) and \
                            "=" not in [t.text for t in toks[:1]] and \
                            toks[0].text in ("[",):
                        findings.append(
                            (fn.file, lam.line, self.RULE,
                             "status returned by immediately-invoked "
                             "lambda is discarded"))
            # ---- overwrite-before-read bookkeeping ----
            if stmt.kind == "decl":
                if self._is_status_type(stmt.vtype):
                    # initializer reads other statuses
                    read_all(stmt)
                    if stmt.tokens and not stmt.from_assign_macro:
                        pending[stmt.name] = stmt.line
                else:
                    read_all(stmt)
            elif stmt.kind == "expr" and len(toks) >= 2 \
                    and toks[0].kind == "id" and toks[1].text == "=":
                name = toks[0].text
                v = scope.lookup(name)
                was = pending.get(name)
                # RHS may read statuses (including this one)
                read_all(Stmt("expr", stmt.line, tokens=toks[2:]))
                if v is not None and self._is_status_type(v.vtype):
                    if was is not None:
                        findings.append(
                            (fn.file, stmt.line, self.RULE,
                             f"status in '{name}' (assigned at line "
                             f"{was}) is overwritten before being read"))
                    pending[name] = stmt.line
            else:
                read_all(stmt)
            # any branching / lambda kills straight-line certainty
            if stmt.arms or stmt.lambdas or stmt.kind == "block":
                for s in self._sub_stmts(stmt):
                    for t in stmt_ids(s):
                        pending.pop(t.text, None)
                pending.clear()
            # recurse — pre statements (if/for init) keep the PARENT
            # scope on their wrapper block: their own scope is the
            # condition scope, which the condition itself reads, so the
            # never-examined end-of-block check must not claim them.
            if stmt.kind == "block":
                self._walk(fn, stmt, findings)
            else:
                pre, branches = iter_arms(stmt)
                for p in pre:
                    fake = Stmt("block", p.line, scope=block.scope)
                    fake.children.append(p)
                    self._walk(fn, fake, findings)
                for b in branches:
                    self._walk(fn, b, findings)
            for lam in stmt.lambdas:
                self._walk(fn, lam.body, findings)
        # a status assigned and never read before its block ends
        for name, line in sorted(pending.items(), key=lambda kv: kv[1]):
            v = block.scope.lookup(name) if block.scope else None
            if v is not None and v.scope is block.scope:
                findings.append(
                    (fn.file, line, self.RULE,
                     f"status stored in '{name}' is never examined"))

    def _sub_stmts(self, stmt):
        out = []
        for a in stmt.arms:
            if a is not None:
                out.extend(walk_stmts(a))
        for lam in stmt.lambdas:
            out.extend(walk_stmts(lam.body))
        return out


# ---------------------------------------------------------------------------
# WAL-ORDER


class WalOrder:
    RULE = "WAL-ORDER"

    def __init__(self, resolver: Resolver, scope_substrings):
        self.r = resolver
        self.scope_subs = scope_substrings
        self.appending_fns = set()  # keys of functions that append

    def in_scope(self, fn: Function) -> bool:
        path = fn.file.replace("\\", "/")
        return any(sub in path for sub in self.scope_subs)

    def _is_appender(self, fn, scope, call) -> bool:
        if call.name in WAL_APPENDERS:
            info = self.r.chain_type(fn, scope, call.recv) if call.recv \
                else None
            if info is not None and base_type(info[2]) in WAL_APPENDER_RECV:
                return True
            if call.recv and "wal" in call.recv.lower():
                return True
        # calls into a function known to append unconditionally
        for target in self.r.callee(fn, scope, call):
            if target.key in self.appending_fns:
                return True
        return False

    def _is_mutator(self, fn, scope, call) -> bool:
        if call.name not in WAL_MUTATORS or not call.recv:
            return False
        info = self.r.chain_type(fn, scope, call.recv)
        if info is None:
            return False
        return base_type(info[2]) in WAL_MUTATOR_RECV

    def build_appender_set(self, functions):
        """Functions whose top-level straight line contains an append —
        calls to them count as appends. Fixpoint for wrappers."""
        changed = True
        while changed:
            changed = False
            for fn in functions:
                if fn.key in self.appending_fns:
                    continue
                if self._top_level_appends(fn):
                    self.appending_fns.add(fn.key)
                    changed = True

    def _top_level_appends(self, fn) -> bool:
        for stmt in fn.body.children:
            scope = stmt.scope or fn.body.scope
            for call in stmt.calls:
                if self._is_appender(fn, scope, call):
                    return True
            # an append in an if-init / condition runs unconditionally
            pre, _branches = iter_arms(stmt)
            for p in pre:
                for call in p.calls:
                    if self._is_appender(fn, p.scope or scope, call):
                        return True
        return False

    def check(self, fn: Function):
        if not self.in_scope(fn) or WAL_EXEMPT_RE.search(fn.name):
            return []
        findings = []
        self._walk(fn, fn.body, False, findings)
        return findings

    def _walk(self, fn, block, appended, findings):
        for stmt in block.children:
            scope = stmt.scope or block.scope
            # mutations in this statement's own expression
            if not appended:
                for call in stmt.calls:
                    if self._is_mutator(fn, scope, call):
                        findings.append(
                            (fn.file, call.line, self.RULE,
                             f"tree mutation '{call.recv}->{call.name}' "
                             f"is not dominated by a WAL append in "
                             f"'{fn.name}'"))
            # does this statement append (condition/init included)?
            stmt_appends = any(self._is_appender(fn, scope, c)
                               for c in stmt.calls)
            pre, branches = iter_arms(stmt)
            pre_appends = False
            for p in pre:
                fake = Stmt("block", p.line, scope=p.scope or scope)
                fake.children.append(p)
                if self._walk(fn, fake, appended, findings):
                    pre_appends = True
            branch_flag = appended or stmt_appends or pre_appends
            if stmt.kind == "block":
                self._walk(fn, stmt, appended, findings)
            else:
                for b in branches:
                    self._walk(fn, b, branch_flag, findings)
            for lam in stmt.lambdas:
                self._walk(fn, lam.body, branch_flag, findings)
            if stmt_appends or pre_appends:
                appended = True
        return appended


# ---------------------------------------------------------------------------
# driver


def run_checkers(model: Model, raw_lines, hierarchy: Hierarchy,
                 wal_scope, checks=None):
    """Run the selected checkers; returns [(file, line, RULE, msg)]."""
    resolver = Resolver(model)
    enabled = checks or {"pin", "lock", "status", "wal"}
    findings = []

    lock = None
    if "lock" in enabled:
        lock = LockOrder(resolver, hierarchy or Hierarchy())
        lock.build_summaries(model.functions)
    wal = None
    if "wal" in enabled:
        wal = WalOrder(resolver, wal_scope)
        wal.build_appender_set(model.functions)
    pin = PinEscape(resolver) if "pin" in enabled else None
    status = StatusDrop(resolver, raw_lines) if "status" in enabled else None

    for fn in model.functions:
        for checker in (pin, lock, status, wal):
            if checker is not None:
                findings.extend(checker.check(fn))
    findings.sort(key=lambda f: (f[0], f[1], f[2]))
    # dedupe (interprocedural edges can repeat across branches)
    seen = set()
    out = []
    for f in findings:
        k = (f[0], f[1], f[2], f[3])
        if k not in seen:
            seen.add(k)
            out.append(f)
    return out
