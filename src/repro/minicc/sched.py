"""Basic-block list scheduler for the dual-issue pipeline.

Used twice, mirroring the paper: at compile time on freshly generated
code, and by OM-full's optional link-time rescheduling pass (the paper
notes OM's scheduler is "very similar to the scheduler used by the
assembler").

A side effect the paper highlights: scheduling routinely moves the
GP-establishing ``ldah``/``lda`` pair away from its logical position at
procedure entry (independent prologue instructions have longer critical
paths and are preferred), which later prevents OM-simple from
retargeting BSRs past the GP setup — only OM-full, which can move code,
restores them.

Block boundaries: control-transfer instructions end a block; *target*
labels begin one.  Marker labels (procedure entries, call return
points) always coincide with a block start and stay there; the
instructions after them are free to move, which is exactly how GP-reset
pairs drift away from their base points.
"""

from __future__ import annotations

from repro.isa.registers import Reg
from repro.isa.timing import OP_FACTS
from repro.minicc.mcode import MInstr, MItem, MLabel, MProc

_ZERO = Reg.ZERO.value


def schedule_proc(proc: MProc) -> None:
    """Schedule every basic block of the procedure, in place."""
    proc.items = schedule_items(proc.items)


def schedule_items(items: list[MItem]) -> list[MItem]:
    """Return the item list with each basic block list-scheduled."""
    out: list[MItem] = []
    block: list[MInstr] = []
    for item in items:
        if item.__class__ is MLabel:
            # Target labels begin a block; marker labels pin to a
            # block start.
            if block:
                out += _schedule_block(block, [])
                block = []
            out.append(item)
        elif item.instr.is_control:
            # A control instruction ends its block and is pinned last.
            out += _schedule_block(block, [item])
            block = []
        else:
            block.append(item)
    if block:
        out += _schedule_block(block, [])
    return out


def _schedule_block(body: list[MInstr], tail: list[MInstr]) -> list[MInstr]:
    if len(body) <= 1:
        return body + tail
    order = _list_schedule(body)
    return [body[i] for i in order] + tail


def _build_dag(
    body: list[MInstr],
) -> tuple[list[list[tuple[int, int]]], list[int], list[int], list[str]]:
    """The block's dependence DAG over instruction indices:
    ``(succs, npreds, latency, pipe)``, where ``succs[i]`` lists
    ``(successor, edge latency)``.  Every fact comes from the ISA's
    :data:`~repro.isa.timing.OP_FACTS`."""
    n = len(body)
    succs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    npreds = [0] * n
    latency = [0] * n
    pipe = [""] * n
    last_def: dict[int, int] = {}
    uses_since_def: dict[int, list[int]] = {}
    last_store: int | None = None
    mem_reads_since_store: list[int] = []

    for index, item in enumerate(body):
        instr = item.instr
        facts = OP_FACTS[instr.op.name]
        latency[index] = facts.latency
        pipe[index] = facts.pipe
        for operand in facts.reads if instr.lit is None else facts.reads_lit:
            reg = getattr(instr, operand) if operand.__class__ is str else operand
            if reg == _ZERO:
                continue
            src = last_def.get(reg)
            if src is not None:  # RAW
                succs[src].append((index, latency[src]))
                npreds[index] += 1
            users = uses_since_def.get(reg)
            if users is None:
                uses_since_def[reg] = [index]
            else:
                users.append(index)
        for operand in facts.writes:
            reg = getattr(instr, operand) if operand.__class__ is str else operand
            if reg == _ZERO:
                continue
            src = last_def.get(reg)
            if src is not None:  # WAW
                succs[src].append((index, 1))
                npreds[index] += 1
            for user in uses_since_def.get(reg, ()):  # WAR
                if user != index:
                    succs[user].append((index, 0))
                    npreds[index] += 1
            last_def[reg] = index
            uses_since_def[reg] = []
        if facts.is_store:
            if last_store is not None:
                succs[last_store].append((index, 1))
                npreds[index] += 1
            for reader in mem_reads_since_store:
                succs[reader].append((index, 0))
                npreds[index] += 1
            last_store = index
            mem_reads_since_store = []
        elif facts.is_load:
            if last_store is not None:
                succs[last_store].append((index, 1))
                npreds[index] += 1
            mem_reads_since_store.append(index)
    return succs, npreds, latency, pipe


def _priorities(succs: list[list[tuple[int, int]]], latency: list[int]) -> list[int]:
    """Priority = critical-path length to the end of the block."""
    priority = [0] * len(succs)
    for index in range(len(succs) - 1, -1, -1):
        best = 0
        for succ, edge_latency in succs[index]:
            path = priority[succ] + (edge_latency if edge_latency > 1 else 1)
            if path > best:
                best = path
        priority[index] = best + latency[index] - 1
    return priority


def _list_schedule(body: list[MInstr]) -> list[int]:
    """Cycle-by-cycle dual-issue list scheduling; returns issue order.

    Each cycle issues the ready instruction of highest priority, lowest
    index first (stability), then the best one in another issue pipe.
    """
    succs, npreds, latency, pipe = _build_dag(body)
    priority = _priorities(succs, latency)
    n = len(body)
    ready_at = [0] * n
    ready = [index for index in range(n) if npreds[index] == 0]
    order: list[int] = []
    cycle = 0

    def pick(busy: str | None) -> int:
        best = -1
        for index in ready:
            if ready_at[index] <= cycle and pipe[index] != busy and (
                best < 0
                or priority[index] > priority[best]
                or (priority[index] == priority[best] and index < best)
            ):
                best = index
        return best

    while len(order) < n:
        first = pick(None)
        if first < 0:
            # Nothing ready this cycle: jump to the next ready time.
            cycle = min(ready_at[index] for index in ready)
            continue
        ready.remove(first)
        issued = [first]
        second = pick(pipe[first])
        if second >= 0:
            ready.remove(second)
            issued.append(second)
        for index in issued:
            order.append(index)
            for succ, edge_latency in succs[index]:
                npreds[succ] -= 1
                earliest = cycle + (edge_latency if edge_latency > 1 else 1)
                if earliest > ready_at[succ]:
                    ready_at[succ] = earliest
                if npreds[succ] == 0:
                    ready.append(succ)
        cycle += 1
    return order
