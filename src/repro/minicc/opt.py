"""Intraprocedural IR optimizer — the ``-O2`` analog.

Passes, in sweep order (up to four sweeps, until one changes nothing):

* store-to-load forwarding through non-address-taken locals, within a
  basic block;
* constant folding and algebraic simplification (``x*8`` → shift,
  ``x+0`` → copy, compile-time evaluation of constant operands);
* immediate forming: binary ops whose second operand is a small constant
  become :class:`ir.BinImm` (the Alpha operate-literal form);
* copy propagation over single-definition moves;
* dead code elimination (pure definitions with no uses; call results
  that are never read become void calls);
* dead-store elimination: stores to locals nothing reads;
* branch simplification: constant conditions, jump-to-next threading,
  unreachable-code and dead-label removal.

All passes preserve the IR's linear-interval liveness invariant (see
:mod:`repro.minicc.ir`): they only delete instructions or substitute a
use by an older, still-live value.
"""

from __future__ import annotations

from repro.minicc import ir

_MASK = (1 << 64) - 1


def _to_signed(value: int) -> int:
    value &= _MASK
    return value - (1 << 64) if value >> 63 else value


def _fold_bin(op: str, a: int, b: int) -> int | None:
    """Evaluate an IR binary op over two 64-bit signed values."""
    if op == "add":
        return _to_signed(a + b)
    if op == "sub":
        return _to_signed(a - b)
    if op == "mul":
        return _to_signed(a * b)
    if op == "s8add":
        return _to_signed(a * 8 + b)
    if op == "div":
        if b == 0:
            return None
        quotient = abs(a) // abs(b)
        return _to_signed(-quotient if (a < 0) != (b < 0) else quotient)
    if op == "rem":
        if b == 0:
            return None
        return _to_signed(a - b * _fold_bin("div", a, b))
    if op == "and":
        return _to_signed(a & b)
    if op == "or":
        return _to_signed(a | b)
    if op == "xor":
        return _to_signed(a ^ b)
    if op == "sll":
        return _to_signed((a & _MASK) << (b & 63))
    if op == "srl":
        return _to_signed((a & _MASK) >> (b & 63))
    if op == "sra":
        return _to_signed(_to_signed(a) >> (b & 63))
    if op == "cmpeq":
        return int(a == b)
    if op == "cmplt":
        return int(a < b)
    if op == "cmple":
        return int(a <= b)
    if op == "cmpult":
        return int((a & _MASK) < (b & _MASK))
    if op == "cmpule":
        return int((a & _MASK) <= (b & _MASK))
    return None


def _fold_un(op: str, a: int) -> int:
    if op == "neg":
        return _to_signed(-a)
    if op == "not":
        return _to_signed(~a)
    return int(a == 0)  # lognot


_COMMUTATIVE = frozenset(["add", "mul", "and", "or", "xor", "cmpeq"])


def optimize_function(func: ir.IRFunc) -> None:
    """Run the optimization pipeline on one function, in place."""
    for _ in range(4):
        # The next three passes swap an instruction for one with the same
        # ``dst`` or rewrite uses, so one count of definitions serves all.
        def_count = _def_counts(func.body)
        changed = _forward_locals(func, def_count)
        changed |= _fold_and_simplify(func, def_count)
        changed |= _propagate_copies(func, def_count)
        changed |= _eliminate_dead_code(func)
        changed |= _eliminate_dead_stores(func)
        changed |= _simplify_branches(func)
        if not changed:
            break


def optimize_module(module: ir.IRModule) -> None:
    """Optimize every function of the module."""
    for func in module.functions:
        optimize_function(func)


# -- constant folding ----------------------------------------------------------


def _def_counts(body: list[ir.Instr]) -> dict[int, int]:
    """How many instructions define each vreg."""
    counts: dict[int, int] = {}
    defs_of = ir.defs_of
    for instr in body:
        for dst in defs_of(instr):
            counts[dst] = counts.get(dst, 0) + 1
    return counts


def _fold_and_simplify(func: ir.IRFunc, def_count: dict[int, int]) -> bool:
    # Single-definition constant vregs and their values.
    constants = {
        instr.dst: instr.value
        for instr in func.body
        if type(instr) is ir.Const and def_count.get(instr.dst) == 1
    }
    changed = False
    body = func.body
    for index, instr in enumerate(body):
        kind = type(instr)
        if kind is ir.Bin:
            a = constants.get(instr.a)
            b = constants.get(instr.b)
            if a is not None and b is not None:
                value = _fold_bin(instr.op, a, b)
                if value is not None:
                    body[index] = ir.Const(instr.line, instr.dst, value)
                    changed = True
                    continue
            if a is not None and instr.op in _COMMUTATIVE:
                instr.a, instr.b = instr.b, instr.a
                a, b = b, a
                changed = True
            replacement = _simplify_with_const_rhs(instr, b)
            if replacement is not None:
                body[index] = replacement
                changed = True
        elif kind is ir.BinImm:
            a = constants.get(instr.a)
            if a is not None:
                value = _fold_bin(instr.op, a, instr.imm)
                if value is not None:
                    body[index] = ir.Const(instr.line, instr.dst, value)
                    changed = True
        elif kind is ir.Un:
            a = constants.get(instr.src)
            if a is not None:
                body[index] = ir.Const(instr.line, instr.dst, _fold_un(instr.op, a))
                changed = True
            elif instr.op == "lognot":
                body[index] = ir.BinImm(instr.line, "cmpeq", instr.dst, instr.src, 0)
                changed = True
        elif kind is ir.CJump:
            cond = constants.get(instr.cond)
            if cond is not None:
                target = instr.if_true if cond else instr.if_false
                body[index] = ir.Jump(instr.line, target)
                changed = True
    return changed


def _simplify_with_const_rhs(instr: ir.Bin, b: int | None) -> ir.Instr | None:
    """Rewrite ``a op const`` into cheaper forms."""
    if b is None:
        return None
    op = instr.op
    if b == 0 and op in ("add", "sub", "or", "xor", "sll", "srl", "sra"):
        return ir.Mov(instr.line, instr.dst, instr.a)
    if b == 0 and op in ("mul", "and"):
        return ir.Const(instr.line, instr.dst, 0)
    if b == 1 and op in ("mul", "div"):
        return ir.Mov(instr.line, instr.dst, instr.a)
    if op == "mul" and b > 1 and (b & (b - 1)) == 0:
        return ir.BinImm(instr.line, "sll", instr.dst, instr.a, b.bit_length() - 1)
    if 0 <= b <= 255 and op not in ("div", "rem"):
        return ir.BinImm(instr.line, op, instr.dst, instr.a, b)
    if op == "sub" and -255 <= b < 0:
        return ir.BinImm(instr.line, "add", instr.dst, instr.a, -b)
    if op == "add" and -255 <= b < 0:
        return ir.BinImm(instr.line, "sub", instr.dst, instr.a, -b)
    return None


# -- store-load forwarding through locals -----------------------------------------


def _forward_locals(func: ir.IRFunc, def_count: dict[int, int]) -> bool:
    """Within a basic block, a LoadLocal after a StoreLocal of the same
    (non-address-taken) local becomes a copy of the stored value.

    Safe because non-address-taken scalars cannot alias memory stores or
    be modified by calls, and tracking resets at labels so no value is
    forwarded across a join or around a back edge (preserving the IR's
    linear-interval liveness invariant).
    """
    addr_taken = {
        index for index, local in enumerate(func.locals) if local.addr_taken
    }
    known: dict[int, int] = {}  # local index -> vreg holding its value
    changed = False
    for position, instr in enumerate(func.body):
        kind = type(instr)
        if kind is ir.Label:
            known.clear()
        elif kind is ir.StoreLocal:
            if instr.local in addr_taken:
                continue
            if def_count.get(instr.src) == 1:
                known[instr.local] = instr.src
            else:
                known.pop(instr.local, None)
        elif kind is ir.LoadLocal:
            source = known.get(instr.local)
            if source is not None and source != instr.dst:
                func.body[position] = ir.Mov(instr.line, instr.dst, source)
                changed = True
    return changed


def _eliminate_dead_stores(func: ir.IRFunc) -> bool:
    """Drop stores to locals that are never read or address-taken."""
    read = {
        instr.local
        for instr in func.body
        if type(instr) is ir.LoadLocal or type(instr) is ir.AddrLocal
    }
    for index, local in enumerate(func.locals):
        if local.addr_taken:
            read.add(index)
    before = len(func.body)
    func.body = [
        instr
        for instr in func.body
        if not (type(instr) is ir.StoreLocal and instr.local not in read)
    ]
    return len(func.body) != before


# -- copy propagation -----------------------------------------------------------


def _propagate_copies(func: ir.IRFunc, def_count: dict[int, int]) -> bool:
    mapping: dict[int, int] = {}
    for instr in func.body:
        if (
            type(instr) is ir.Mov
            and def_count.get(instr.dst) == 1
            and def_count.get(instr.src, 0) == 1
        ):
            source = mapping.get(instr.src, instr.src)
            mapping[instr.dst] = source
    if not mapping:
        return False

    changed = False
    for instr in func.body:
        rewrite = _REWRITE_USES.get(type(instr))
        if rewrite is not None and rewrite(instr, mapping):
            changed = True
    return changed


def _field_rewriter(*fields: str):
    """Rewrite the named vreg fields through a mapping (None stays None)."""

    def rewrite(instr: ir.Instr, mapping: dict[int, int]) -> bool:
        changed = False
        for name in fields:
            reg = getattr(instr, name)
            new = mapping.get(reg, reg)
            if new != reg:
                setattr(instr, name, new)
                changed = True
        return changed

    return rewrite


def _rewrite_args(instr: ir.Call | ir.CallPtr, mapping: dict[int, int]) -> bool:
    args = [mapping.get(reg, reg) for reg in instr.args]
    if args == instr.args:
        return False
    instr.args = args
    return True


_rewrite_func = _field_rewriter("func")

#: Per IR type, the rewrite of its uses; types without uses are absent.
_REWRITE_USES = {
    ir.Mov: _field_rewriter("src"),
    ir.StoreLocal: _field_rewriter("src"),
    ir.Load: _field_rewriter("base"),
    ir.Store: _field_rewriter("src", "base"),
    ir.Un: _field_rewriter("src"),
    ir.Bin: _field_rewriter("a", "b"),
    ir.BinImm: _field_rewriter("a"),
    ir.Call: _rewrite_args,
    ir.CallPtr: lambda instr, mapping: (
        _rewrite_func(instr, mapping) | _rewrite_args(instr, mapping)
    ),
    ir.Pal: _field_rewriter("arg"),
    ir.CJump: _field_rewriter("cond"),
    ir.JumpTable: _field_rewriter("index"),
    ir.Ret: _field_rewriter("src"),
}


# -- dead code elimination ---------------------------------------------------------


_PURE = frozenset(
    [
        ir.Const,
        ir.Mov,
        ir.AddrGlobal,
        ir.AddrLocal,
        ir.LoadLocal,
        ir.Load,
        ir.Un,
        ir.Bin,
        ir.BinImm,
    ]
)
_CALLS = frozenset([ir.Call, ir.CallPtr, ir.Pal])


def _eliminate_dead_code(func: ir.IRFunc) -> bool:
    """Drop pure definitions that nothing reads, and make calls whose
    result nothing reads void.

    One backward pass over use counts reaches the fixpoint: every use
    of a vreg follows its definitions (the linear-interval invariant),
    so when the walk reaches a definition, each of its uses is either
    counted or already removed with its instruction.
    """
    uses_of = ir.uses_of
    use_count: dict[int, int] = {}
    for instr in func.body:
        for reg in uses_of(instr):
            use_count[reg] = use_count.get(reg, 0) + 1
    kept: list[ir.Instr] = []
    changed = False
    for instr in reversed(func.body):
        kind = type(instr)
        if kind in _PURE:
            if not use_count.get(instr.dst):
                for reg in uses_of(instr):
                    use_count[reg] -= 1
                changed = True
                continue
        elif kind in _CALLS and instr.dst is not None and not use_count.get(instr.dst):
            instr.dst = None
            changed = True
        kept.append(instr)
    if changed:
        kept.reverse()
        func.body = kept
    return changed


# -- branch simplification -----------------------------------------------------------


#: Per control-transfer IR type, the labels it may branch to; control
#: never falls through any of them.
_TARGETS = {
    ir.Jump: lambda instr: (instr.target,),
    ir.CJump: lambda instr: (instr.if_true, instr.if_false),
    ir.JumpTable: lambda instr: instr.labels,
    ir.Ret: lambda instr: (),
}


def _reachable_indices(body: list[ir.Instr]) -> set[int]:
    """Indices of instructions reachable from the function entry.

    Reachability must follow the control-flow graph, not adjacency: a
    folded branch can leave whole label-reached blocks orphaned, and
    any instruction surviving in such a block may use a vreg whose
    (also unreachable) definition dead-code elimination already
    removed — which codegen would then reject.
    """
    starts = {
        instr.name: index
        for index, instr in enumerate(body)
        if type(instr) is ir.Label
    }
    reachable: set[int] = set()
    work = [0]
    while work:
        index = work.pop()
        while index < len(body) and index not in reachable:
            reachable.add(index)
            instr = body[index]
            targets = _TARGETS.get(type(instr))
            if targets is not None:
                for target in targets(instr):
                    if target in starts:
                        work.append(starts[target])
                break
            index += 1
    return reachable


def _simplify_branches(func: ir.IRFunc) -> bool:
    changed = False
    body = func.body

    # Remove unreachable code, by control-flow reachability from entry.
    alive = _reachable_indices(body)
    if len(alive) != len(body):
        body = [instr for index, instr in enumerate(body) if index in alive]
        changed = True

    # Thread jumps to labels that immediately jump elsewhere, and drop
    # jumps to the very next label.
    label_next: dict[str, ir.Instr | None] = {}
    for index, instr in enumerate(body):
        if type(instr) is ir.Label:
            follow = index + 1
            while follow < len(body) and type(body[follow]) is ir.Label:
                follow += 1
            label_next[instr.name] = body[follow] if follow < len(body) else None

    def resolve(target: str, depth: int = 0) -> str:
        follower = label_next.get(target)
        if depth < 8 and type(follower) is ir.Jump:
            return resolve(follower.target, depth + 1)
        return target

    for instr in body:
        kind = type(instr)
        if kind is ir.Jump:
            new_target = resolve(instr.target)
            changed |= new_target != instr.target
            instr.target = new_target
        elif kind is ir.CJump:
            new_true, new_false = resolve(instr.if_true), resolve(instr.if_false)
            changed |= (new_true, new_false) != (instr.if_true, instr.if_false)
            instr.if_true, instr.if_false = new_true, new_false
        elif kind is ir.JumpTable:
            new_labels = [resolve(label) for label in instr.labels]
            changed |= new_labels != instr.labels
            instr.labels = new_labels

    cleaned: list[ir.Instr] = []
    for index, instr in enumerate(body):
        if type(instr) is ir.Jump:
            follow = index + 1
            is_next = False
            while follow < len(body) and type(body[follow]) is ir.Label:
                if body[follow].name == instr.target:
                    is_next = True
                    break
                follow += 1
            if is_next:
                changed = True
                continue
        cleaned.append(instr)
    body = cleaned

    # Drop labels nothing references.
    used_labels: set[str] = set()
    for instr in body:
        targets = _TARGETS.get(type(instr))
        if targets is not None:
            used_labels.update(targets(instr))
    final = [
        instr
        for instr in body
        if not (type(instr) is ir.Label and instr.name not in used_labels)
    ]
    changed |= len(final) != len(body)
    func.body = final
    return changed
