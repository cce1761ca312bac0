"""Seeded MiniC program generators for differential fuzzing.

Two generators live here:

* :class:`ProgramGen` — the original two-module generator the
  differential test has always used (kept verbatim; tests import it
  from here);
* :class:`RichProgramGen` — the fuzzing workhorse: multi-module
  programs exercising cross-module globals, arrays and pointer
  parameters, bounded recursion, dense ``switch`` dispatch (jump-table
  shapes), and common-symbol sorting edge cases (uninitialized arrays
  whose byte sizes straddle the 16-bit GAT displacement window).

Every generated program is guaranteed to terminate.  ``for`` loops use
constant bounds and reserved counters the statement generator never
assigns; ``while`` loops and recursion draw from a shared global fuel
counter (``__fuel``) that every iteration decrements — once it hits
zero, loops break and recursion bottoms out.  Fuel is an ordinary
cross-module global, so the termination discipline itself exercises
GP-relative addressing.

Generation is a pure function of ``(seed, GenConfig)``: the same pair
always yields byte-identical sources, which is what makes corpus
entries replayable.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

from repro.isa.ranges import GP_WINDOW

#: Reserved loop counters, one per nesting depth; the statement
#: generator never assigns them, so constant-bound loops always finish.
_COUNTERS = ("i", "j", "k")

#: Bytes per MiniC ``int`` (the 64-bit architecture of the paper).
WORD = 8

#: The words from GP to the end of its window, the size around which
#: big commons straddle it.
_WINDOW_WORDS = (GP_WINDOW.hi + 1) // WORD


class ProgramGen:
    """Generates a two-module program from a seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.depth = 0

    def expr(self, depth: int = 0) -> str:
        rng = self.rng
        if depth > 2 or rng.random() < 0.35:
            return rng.choice(
                [
                    str(rng.randint(-100, 100)),
                    str(rng.randint(-(2**40), 2**40)),
                    "ga",
                    "gb",
                    "arr[%d]" % rng.randint(0, 7),
                    "x",
                    "y",
                ]
            )
        op = rng.choice(["+", "-", "*", "&", "|", "^", "<", "<=", "==", "!="])
        if rng.random() < 0.15:
            # Guarded division: denominator forced odd (nonzero).
            return f"(({self.expr(depth + 1)}) / (({self.expr(depth + 1)}) | 1))"
        if rng.random() < 0.1:
            return f"(({self.expr(depth + 1)}) %% (({self.expr(depth + 1)}) | 1))".replace("%%", "%")
        if rng.random() < 0.15:
            shift = rng.randint(0, 8)
            direction = rng.choice(["<<", ">>"])
            return f"(({self.expr(depth + 1)}) {direction} {shift})"
        if rng.random() < 0.2:
            return f"twist({self.expr(depth + 1)})"
        return f"(({self.expr(depth + 1)}) {op} ({self.expr(depth + 1)}))"

    def stmt(self, depth: int = 0) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.35:
            target = rng.choice(["ga", "gb", "x", "y", f"arr[{rng.randint(0, 7)}]"])
            op = rng.choice(["=", "+=", "-=", "^="])
            return f"{target} {op} {self.expr()};"
        if roll < 0.5:
            return f"__putint({self.expr()});"
        if roll < 0.7 and depth < 2:
            body = " ".join(self.stmt(depth + 1) for __ in range(rng.randint(1, 3)))
            other = (
                f" else {{ {self.stmt(depth + 1)} }}" if rng.random() < 0.5 else ""
            )
            return f"if ({self.expr()}) {{ {body} }}{other}"
        if roll < 0.85 and depth < 2:
            bound = rng.randint(1, 6)
            var = ["i", "j", "k"][depth]  # distinct per depth: nested
            # loops sharing a counter would never terminate
            body = " ".join(self.stmt(depth + 1) for __ in range(rng.randint(1, 2)))
            return f"for ({var} = 0; {var} < {bound}; {var}++) {{ {body} }}"
        return f"y = twist({self.expr()});"

    def module_pair(self) -> tuple[str, str]:
        rng = self.rng
        body = " ".join(self.stmt() for __ in range(rng.randint(3, 7)))
        main = f"""
        int ga;
        int gb = {rng.randint(-50, 50)};
        int arr[8];
        extern int twist(int v);
        int main() {{
            int x = {rng.randint(-10, 10)};
            int y = 1;
            int i;
            int j;
            int k;
            {body}
            __putint(ga); __putint(gb); __putint(x); __putint(y);
            for (i = 0; i < 8; i++) {{ __putint(arr[i]); }}
            return 0;
        }}
        """
        helper = f"""
        int tcount;
        int twist(int v) {{
            tcount = tcount + 1;
            return (v ^ {rng.randint(1, 99)}) + (v >> 3) - tcount;
        }}
        """
        return main, helper


# -- the rich generator --------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Feature mix of one generated program (the mutation space)."""

    modules: int = 3  # translation units, main lives in the first
    stmts: int = 6  # top-level statements in main's body
    helpers: int = 2  # helper functions per non-main module
    max_depth: int = 2  # statement/expression nesting bound
    fuel: int = 400  # shared budget for while loops and recursion
    recursion: bool = True  # bounded-depth self-recursive helpers
    switches: bool = True  # dense switch dispatch (jump tables)
    pointers: bool = True  # int* parameters walked over arrays
    while_loops: bool = True  # fuel-guarded while loops
    big_commons: bool = False  # commons straddling the GAT window
    dead_procs: bool = True  # never-called helpers (GC fodder)
    #: Which frontend(s) the program exercises: "minic" (the historical
    #: default — old corpus metadata deserializes to it), "decaf", or
    #: "mixed" (a Decaf program whose last module is a MiniC kernel
    #: unit, linked cross-language).  Mutation never flips language, so
    #: a corpus seed's descendants stay in its frontend's feature space.
    language: str = "minic"

    def mutated(self, rng: random.Random) -> GenConfig:
        """A neighbor in the feature space: one knob nudged."""
        knob = rng.choice(
            [
                "modules",
                "stmts",
                "helpers",
                "fuel",
                "recursion",
                "switches",
                "pointers",
                "while_loops",
                "big_commons",
                "dead_procs",
            ]
        )
        if knob == "modules":
            return dataclasses.replace(self, modules=rng.randint(2, 4))
        if knob == "stmts":
            return dataclasses.replace(self, stmts=rng.randint(3, 10))
        if knob == "helpers":
            return dataclasses.replace(self, helpers=rng.randint(1, 3))
        if knob == "fuel":
            return dataclasses.replace(self, fuel=rng.choice([50, 200, 400, 800]))
        return dataclasses.replace(self, **{knob: not getattr(self, knob)})


def random_config(
    rng: random.Random, languages: tuple[str, ...] = ("minic",)
) -> GenConfig:
    """A fresh feature mix (used when no corpus seed is being mutated).

    ``languages`` is the campaign's frontend palette; the language draw
    only consumes randomness when there is an actual choice, so
    single-language campaigns keep the historical rng stream.
    """
    config = GenConfig(
        modules=rng.randint(2, 4),
        stmts=rng.randint(3, 9),
        helpers=rng.randint(1, 3),
        fuel=rng.choice([50, 200, 400, 800]),
        recursion=rng.random() < 0.8,
        switches=rng.random() < 0.8,
        pointers=rng.random() < 0.8,
        while_loops=rng.random() < 0.7,
        big_commons=rng.random() < 0.5,
        dead_procs=rng.random() < 0.7,
    )
    if len(languages) > 1:
        return dataclasses.replace(config, language=rng.choice(list(languages)))
    if languages[0] != "minic":
        return dataclasses.replace(config, language=languages[0])
    return config


@dataclass(frozen=True)
class GeneratedProgram:
    """A multi-module MiniC program plus the recipe that made it."""

    seed: int
    config: GenConfig
    modules: tuple[tuple[str, str], ...]  # (filename, source)

    @property
    def sources(self) -> tuple[str, ...]:
        return tuple(text for __, text in self.modules)


@dataclass(frozen=True)
class _Global:
    name: str
    module: int
    size: int | None  # None: scalar; else array element count
    init: int | None  # None: common (uninitialized)


@dataclass(frozen=True)
class _Helper:
    name: str
    module: int
    kind: str  # "expr" | "walker" | "recursive" | "switch" | "dead"
    order: int  # helpers may only call strictly smaller orders


class RichProgramGen:
    """Grammar-based generator for the fuzzing campaign."""

    def __init__(self, seed: int, config: GenConfig | None = None):
        self.seed = seed
        self.config = config or GenConfig()
        self.rng = random.Random(seed)

    # -- planning -------------------------------------------------------------

    def _plan(self) -> None:
        rng, cfg = self.rng, self.config
        nmods = max(2, min(int(cfg.modules), 4))
        self.nmods = nmods

        self.globals: list[_Global] = []
        for m in range(nmods):
            self.globals.append(_Global(f"g{m}_0", m, None, None))
            self.globals.append(
                _Global(f"g{m}_1", m, None, rng.randint(-60, 60))
            )
            self.globals.append(
                _Global(f"a{m}_0", m, rng.choice([8, 16, 32]), None)
            )
        if cfg.big_commons:
            home = nmods - 1
            # One array whose byte size lands right on the 16-bit
            # displacement window, plus mid-size commons so the sorted
            # placement crosses the boundary inside the run of arrays.
            straddle = rng.randint(_WINDOW_WORDS - 6, _WINDOW_WORDS + 6)
            self.globals.append(_Global(f"big{home}_0", home, straddle, None))
            self.globals.append(
                _Global(f"big{home}_1", home, rng.randint(256, 1024), None)
            )

        self.helpers: list[_Helper] = []
        order = 0
        kinds = ["expr"]
        if cfg.pointers:
            kinds.append("walker")
        if cfg.recursion:
            kinds.append("recursive")
        if cfg.switches:
            kinds.append("switch")
        for m in range(1, nmods):
            for j in range(max(1, int(cfg.helpers))):
                kind = kinds[(order + j) % len(kinds)] if j else rng.choice(kinds)
                self.helpers.append(_Helper(f"h{m}_{j}", m, kind, order))
                order += 1
        if cfg.dead_procs:
            m = rng.randrange(1, nmods)
            self.helpers.append(_Helper(f"dead{m}_0", m, "dead", order))

        self.scalars = [g for g in self.globals if g.size is None]
        self.arrays = [g for g in self.globals if g.size is not None]
        self.callable = [h for h in self.helpers if h.kind != "dead"]

    # -- expressions ----------------------------------------------------------

    def _array_read(self, g: _Global, ctx: dict, depth: int) -> str:
        rng = self.rng
        if rng.random() < 0.5:
            return f"{g.name}[{rng.randint(0, g.size - 1)}]"
        mask = (1 << (g.size.bit_length() - 1)) - 1
        return f"{g.name}[({self._expr(ctx, depth + 1)}) & {mask}]"

    def _leaf(self, ctx: dict, depth: int) -> str:
        rng = self.rng
        choices = [
            lambda: str(rng.randint(-100, 100)),
            lambda: str(rng.randint(-(2**40), 2**40)),
            lambda: rng.choice([g.name for g in self.scalars]),
            lambda: "__fuel",
        ]
        if ctx["locals"]:
            choices.append(lambda: rng.choice(ctx["locals"]))
        if self.arrays:
            choices.append(
                lambda: self._array_read(rng.choice(self.arrays), ctx, depth)
            )
        return rng.choice(choices)()

    def _call(self, helper: _Helper, ctx: dict, depth: int) -> str:
        rng = self.rng
        if helper.kind == "walker":
            g = rng.choice(self.arrays)
            count = rng.randint(1, min(g.size, 16))
            return f"{helper.name}({g.name}, {count})"
        if helper.kind == "recursive":
            return f"{helper.name}({rng.randint(0, 6)}, {self._expr(ctx, depth + 1)})"
        if helper.kind == "switch":
            return f"{helper.name}({self._expr(ctx, depth + 1)})"
        return f"{helper.name}({self._expr(ctx, depth + 1)}, {self._expr(ctx, depth + 1)})"

    def _expr(self, ctx: dict, depth: int = 0) -> str:
        rng = self.rng
        if depth >= self.config.max_depth + 1 or rng.random() < 0.3:
            return self._leaf(ctx, depth)
        roll = rng.random()
        if roll < 0.08:
            return f"(({self._expr(ctx, depth + 1)}) / (({self._expr(ctx, depth + 1)}) | 1))"
        if roll < 0.14:
            return f"(({self._expr(ctx, depth + 1)}) % (({self._expr(ctx, depth + 1)}) | 1))"
        if roll < 0.24:
            shift = rng.randint(0, 9)
            direction = rng.choice(["<<", ">>"])
            return f"(({self._expr(ctx, depth + 1)}) {direction} {shift})"
        if roll < 0.3:
            op = rng.choice(["-", "~", "!"])
            return f"({op}({self._expr(ctx, depth + 1)}))"
        callables = [h for h in self.callable if h.order < ctx["max_order"]]
        if roll < 0.45 and callables:
            return self._call(rng.choice(callables), ctx, depth)
        op = rng.choice(["+", "-", "*", "&", "|", "^", "<", "<=", "==", "!=", ">"])
        return f"(({self._expr(ctx, depth + 1)}) {op} ({self._expr(ctx, depth + 1)}))"

    # -- statements -----------------------------------------------------------

    def _assign_target(self, ctx: dict) -> str:
        rng = self.rng
        pool = [g.name for g in self.scalars if g.name != "__fuel"]
        pool += [v for v in ctx["locals"] if v not in _COUNTERS]
        target = rng.choice(pool + [None])
        if target is not None:
            return target
        g = rng.choice(self.arrays)
        mask = (1 << (g.size.bit_length() - 1)) - 1
        return f"{g.name}[({self._expr(ctx, 1)}) & {mask}]"

    def _stmt(self, ctx: dict, depth: int = 0) -> str:
        rng, cfg = self.rng, self.config
        roll = rng.random()
        if roll < 0.3:
            op = rng.choice(["=", "+=", "-=", "^="])
            return f"{self._assign_target(ctx)} {op} {self._expr(ctx)};"
        if roll < 0.42 and ctx["putint"]:
            return f"__putint({self._expr(ctx)});"
        if roll < 0.52:
            callables = [h for h in self.callable if h.order < ctx["max_order"]]
            if callables:
                acc = ctx["acc"]
                return f"{acc} ^= {self._call(rng.choice(callables), ctx, 0)};"
        if roll < 0.68 and depth < cfg.max_depth:
            body = " ".join(
                self._stmt(ctx, depth + 1) for __ in range(rng.randint(1, 2))
            )
            other = (
                f" else {{ {self._stmt(ctx, depth + 1)} }}"
                if rng.random() < 0.5
                else ""
            )
            return f"if ({self._expr(ctx)}) {{ {body} }}{other}"
        if roll < 0.8 and depth < min(cfg.max_depth, len(_COUNTERS)):
            var = _COUNTERS[depth]
            bound = rng.randint(1, 6)
            body = " ".join(
                self._stmt(ctx, depth + 1) for __ in range(rng.randint(1, 2))
            )
            return f"for ({var} = 0; {var} < {bound}; {var}++) {{ {body} }}"
        if roll < 0.88 and cfg.while_loops and depth < cfg.max_depth:
            # Fuel-guarded: terminates no matter what the condition does.
            body = self._stmt(ctx, depth + 1)
            return (
                f"while ({self._expr(ctx)}) {{ "
                f"if (__fuel <= 0) {{ break; }} __fuel = __fuel - 1; {body} }}"
            )
        if cfg.switches and depth < cfg.max_depth and rng.random() < 0.5:
            cases = " ".join(
                f"case {v}: {self._stmt(ctx, depth + 1)} break;"
                for v in range(rng.randint(3, 6))
            )
            return (
                f"switch (({self._expr(ctx)}) & 7) {{ {cases} "
                f"default: {self._stmt(ctx, depth + 1)} }}"
            )
        return f"{ctx['acc']} ^= {self._expr(ctx)};"

    # -- function bodies ------------------------------------------------------

    def _counter_decls(self) -> list[str]:
        return [f"int {var} = 0;" for var in _COUNTERS]

    def _helper_lines(self, helper: _Helper) -> list[str]:
        rng = self.rng
        ctx = {
            "locals": [],
            "acc": "r",
            "max_order": helper.order,
            "putint": False,
        }
        if helper.kind == "walker":
            step = rng.choice(["+", "^"])
            return [
                f"int {helper.name}(int *p, int n) {{",
                "    int r = 0;",
                "    int i = 0;",
                f"    for (i = 0; i < n; i++) {{ r = (r {step} p[i]) + {rng.randint(1, 9)}; }}",
                "    return r;",
                "}",
            ]
        if helper.kind == "recursive":
            ctx["locals"] = ["d", "v"]
            return [
                f"int {helper.name}(int d, int v) {{",
                "    if (d <= 0) { return v; }",
                "    if (__fuel <= 0) { return v; }",
                "    __fuel = __fuel - 1;",
                f"    return {helper.name}(d - 1, {self._expr(ctx)});",
                "}",
            ]
        if helper.kind == "switch":
            ctx["locals"] = ["x"]
            ncases = rng.randint(4, 8)
            lines = [
                f"int {helper.name}(int x) {{",
                "    int r = 0;",
                f"    switch (x & {(1 << (ncases - 1).bit_length()) - 1}) {{",
            ]
            for v in range(ncases):
                lines.append(f"    case {v}: r = {self._expr(ctx)}; break;")
            lines.append(f"    default: r = {self._expr(ctx)};")
            lines.append("    }")
            lines.append("    return r;")
            lines.append("}")
            return lines
        # "expr" and "dead" helpers: parameters plus a couple of
        # statements over the globals.
        ctx["locals"] = ["a", "b", "r"]
        lines = [f"int {helper.name}(int a, int b) {{", "    int r = 0;"]
        lines += [f"    {d}" for d in self._counter_decls()]
        for __ in range(rng.randint(1, 2)):
            lines.append(f"    {self._stmt(ctx)}")
        lines.append(f"    return (r ^ {self._expr(ctx)});")
        lines.append("}")
        return lines

    def _main_lines(self) -> list[str]:
        rng, cfg = self.rng, self.config
        ctx = {
            "locals": ["x", "y", "t"],
            "acc": "t",
            "max_order": len(self.helpers) + 1,
            "putint": True,
        }
        lines = [
            "int main() {",
            f"    int x = {rng.randint(-10, 10)};",
            f"    int y = {rng.randint(1, 20)};",
            "    int t = 0;",
        ]
        lines += [f"    {d}" for d in self._counter_decls()]
        for __ in range(max(1, int(cfg.stmts))):
            lines.append(f"    {self._stmt(ctx)}")
        # The dump: every observable, one line per statement so the
        # reducer can drop irrelevant observations.
        for g in self.scalars:
            lines.append(f"    __putint({g.name});")
        for g in self.arrays:
            lines.append(
                f"    for (i = 0; i < {g.size}; i++) {{ t = (t + ({g.name}[i] ^ (i + 1))); }} __putint(t);"
            )
        lines.append("    __putint(x);")
        lines.append("    __putint(y);")
        lines.append("    __putint(__fuel);")
        lines.append("    return 0;")
        lines.append("}")
        return lines

    # -- assembly -------------------------------------------------------------

    def _extern_lines(self, module: int) -> list[str]:
        lines = []
        if module != 0:
            lines.append("extern int __fuel;")
        for g in self.globals:
            if g.module == module:
                continue
            if g.size is None:
                lines.append(f"extern int {g.name};")
            else:
                lines.append(f"extern int {g.name}[{g.size}];")
        for h in self.helpers:
            if h.module == module or h.kind == "dead":
                continue
            sig = {
                "walker": "int *p, int n",
                "recursive": "int d, int v",
                "switch": "int x",
            }.get(h.kind, "int a, int b")
            lines.append(f"extern int {h.name}({sig});")
        return lines

    def _global_lines(self, module: int) -> list[str]:
        lines = []
        if module == 0:
            lines.append(f"int __fuel = {max(1, int(self.config.fuel))};")
        for g in self.globals:
            if g.module != module:
                continue
            if g.size is not None:
                lines.append(f"int {g.name}[{g.size}];")
            elif g.init is None:
                lines.append(f"int {g.name};")
            else:
                lines.append(f"int {g.name} = {g.init};")
        return lines

    def generate(self) -> GeneratedProgram:
        self._plan()
        # Bodies are generated in a fixed order (helpers by module and
        # index, then main) so the rng stream — and thus the program —
        # is a pure function of (seed, config).
        helper_lines: dict[str, list[str]] = {}
        for helper in self.helpers:
            helper_lines[helper.name] = self._helper_lines(helper)
        main_lines = self._main_lines()

        modules: list[tuple[str, str]] = []
        for m in range(self.nmods):
            lines = [f"/* fuzz seed={self.seed} module=m{m} */"]
            lines += self._extern_lines(m)
            lines += self._global_lines(m)
            for helper in self.helpers:
                if helper.module == m:
                    lines.append("")
                    lines += helper_lines[helper.name]
            if m == 0:
                lines.append("")
                lines += main_lines
            modules.append((f"m{m}.mc", "\n".join(lines) + "\n"))
        return GeneratedProgram(self.seed, self.config, tuple(modules))


# -- the Decaf generator -------------------------------------------------------


@dataclass(frozen=True)
class _Class:
    """One planned Decaf class: its home module and exact shape.

    ``own_methods`` is the declaration-order member list of the
    *definition*; extern shape imports in other modules must mirror it
    verbatim (sema compares shapes structurally), so the plan is the
    single source of truth for both spellings.
    """

    name: str
    base: str | None
    module: int
    fields: tuple[str, ...]
    own_methods: tuple[tuple[str, int, int], ...]  # (name, slot, nparams)


class RichDecafGen:
    """Grammar-based Decaf generator: hierarchies, overrides, dispatch.

    The OO counterpart of :class:`RichProgramGen`.  Each program plans a
    single-inheritance class chain whose definitions are spread across
    modules (so subclassing itself crosses translation units via
    ``extern class`` shape imports), overrides inherited vtable slots,
    and drives every call through dynamic dispatch — the
    function-pointer-dense shape that stresses OM's conservative
    address-calculation analysis hardest.

    Termination is structural rather than fueled: ``for`` loops use
    constant bounds and reserved counters the statement generator never
    assigns, and the callable graph is a DAG by construction — a vtable
    slot's implementation (any override of it) may only invoke slots
    strictly below its own, top-level helpers only call methods and
    strictly earlier helpers, kernels are leaves, and ``main`` sits on
    top.  Dispatch can pick any override of a slot at runtime, but every
    override obeys the same slot bound, so no cycle exists.

    With ``config.language == "mixed"`` the last module is a MiniC
    kernel unit: Decaf code calls MiniC kernels through extern
    prototypes and both sides read and write each other's globals, so
    the GAT, lituse relaxation, and WPO partitioning all see one
    address space built by two frontends.
    """

    def __init__(self, seed: int, config: GenConfig | None = None):
        self.seed = seed
        self.config = config or GenConfig(language="decaf")
        self.rng = random.Random(seed)
        self.mixed = self.config.language == "mixed"

    # -- planning -------------------------------------------------------------

    def _plan(self) -> None:
        rng, cfg = self.rng, self.config
        nmods = max(2, min(int(cfg.modules), 4))
        self.nmods = nmods
        # In mixed mode the last module slot is the MiniC kernel unit.
        self.ndecaf = nmods - 1 if self.mixed else nmods

        depth = rng.randint(2, 3)
        base_methods = rng.randint(2, 3)
        self.slot_sigs: list[int] = [
            rng.randint(1, 2) for __ in range(base_methods + depth - 1)
        ]

        self.classes: list[_Class] = []
        for k in range(depth):
            if self.ndecaf > 1:
                home = 1 + (k % (self.ndecaf - 1))
            else:
                home = 0
            fields = tuple(
                f"f{k}_{i}" for i in range(rng.randint(1, 2))
            )
            if k == 0:
                own = tuple(
                    (f"m{j}", j, self.slot_sigs[j]) for j in range(base_methods)
                )
            else:
                # One override of an existing slot plus one new slot.
                nslots = base_methods + k - 1
                over = rng.randrange(nslots)
                over_name = f"m{over}" if over < base_methods else f"n{over - base_methods + 1}"
                new_slot = base_methods + k - 1
                own = (
                    (over_name, over, self.slot_sigs[over]),
                    (f"n{k}", new_slot, self.slot_sigs[new_slot]),
                )
            self.classes.append(
                _Class(f"C{k}", f"C{k - 1}" if k else None, home, fields, own)
            )
        self.nslots = base_methods + depth - 1

        #: All fields visible on an instance of class k (inherited first).
        self.all_fields: list[tuple[str, ...]] = []
        inherited: tuple[str, ...] = ()
        for cls in self.classes:
            inherited = inherited + cls.fields
            self.all_fields.append(inherited)

        #: Slot names in slot order (override keeps the original name).
        self.slot_names = [f"m{j}" for j in range(base_methods)] + [
            f"n{k}" for k in range(1, depth)
        ]

        self.globals: list[_Global] = []
        for m in range(self.ndecaf):
            self.globals.append(_Global(f"dg{m}_0", m, None, None))
            self.globals.append(_Global(f"dg{m}_1", m, None, rng.randint(-60, 60)))
            self.globals.append(_Global(f"da{m}_0", m, rng.choice([8, 16]), None))
        if cfg.big_commons:
            home = self.ndecaf - 1
            straddle = rng.randint(_WINDOW_WORDS - 6, _WINDOW_WORDS + 6)
            self.globals.append(_Global(f"dbig{home}_0", home, straddle, None))
            self.globals.append(
                _Global(f"dbig{home}_1", home, rng.randint(256, 1024), None)
            )
        if self.mixed:
            # Defined on the Decaf side, read and written by the kernels.
            self.globals.append(_Global("dsh_0", 0, None, rng.randint(1, 40)))

        self.helpers: list[_Helper] = []
        order = 0
        for m in range(1, self.ndecaf):
            for j in range(max(1, int(cfg.helpers))):
                self.helpers.append(_Helper(f"dh{m}_{j}", m, "expr", order))
                order += 1
        if cfg.dead_procs and self.ndecaf > 0:
            m = rng.randrange(self.ndecaf)
            self.helpers.append(_Helper(f"ddead{m}_0", m, "dead", order))

        self.kernels = ["kq0", "kq1"] if self.mixed else []
        self.scalars = [g for g in self.globals if g.size is None]
        self.arrays = [g for g in self.globals if g.size is not None]
        self.callable = [h for h in self.helpers if h.kind != "dead"]

    def _class_of(self, name: str) -> _Class:
        return self.classes[int(name[1:])]

    # -- expressions ----------------------------------------------------------

    def _safe_index(self, size: int, ctx: dict, depth: int) -> str:
        rng = self.rng
        if rng.random() < 0.5:
            return str(rng.randint(0, size - 1))
        # Decaf has no bitwise mask; fold into range the portable way.
        return f"(((({self._expr(ctx, depth + 1)}) % {size}) + {size}) % {size})"

    def _array_read(self, g: _Global, ctx: dict, depth: int) -> str:
        return f"{g.name}[{self._safe_index(g.size, ctx, depth)}]"

    def _mix_scalars(self) -> list[str]:
        return ["mixg_0", "mixg_1"] if self.mixed else []

    def _leaf(self, ctx: dict, depth: int) -> str:
        rng = self.rng
        choices = [
            lambda: str(rng.randint(-100, 100)),
            lambda: str(rng.randint(-(2**40), 2**40)),
            lambda: rng.choice(
                [g.name for g in self.scalars] + self._mix_scalars()
            ),
        ]
        if ctx["locals"]:
            choices.append(lambda: rng.choice(ctx["locals"]))
        if ctx["fields"]:
            choices.append(lambda: rng.choice(ctx["fields"]))
        if self.arrays:
            choices.append(
                lambda: self._array_read(rng.choice(self.arrays), ctx, depth)
            )
        return rng.choice(choices)()

    def _method_call(
        self, receiver: str, slot: int, ctx: dict, depth: int
    ) -> str:
        args = ", ".join(
            self._expr(ctx, depth + 1) for __ in range(self.slot_sigs[slot])
        )
        name = self.slot_names[slot]
        return f"{receiver}.{name}({args})" if receiver else f"{name}({args})"

    def _call(self, ctx: dict, depth: int) -> str | None:
        """A DAG-respecting call, or None when nothing is callable here."""
        rng = self.rng
        options = []
        if self.kernels:
            options.append(
                lambda: f"{rng.choice(self.kernels)}"
                f"({self._expr(ctx, depth + 1)}, {self._expr(ctx, depth + 1)})"
            )
        max_slot = ctx["max_slot"]
        if ctx["this_slots"] and max_slot > 0:
            options.append(
                lambda: self._method_call(
                    rng.choice(["this", ""]), rng.randrange(max_slot), ctx, depth
                )
            )
        for obj, cls_name in ctx["objs"]:
            nslots = len(self._visible_slots(cls_name))
            callable_slots = min(nslots, max_slot)
            if callable_slots > 0:
                options.append(
                    lambda o=obj, n=callable_slots: self._method_call(
                        o, rng.randrange(n), ctx, depth
                    )
                )
        helpers = [h for h in self.callable if h.order < ctx["max_order"]]
        if helpers:
            options.append(
                lambda: f"{rng.choice(helpers).name}"
                f"({self._expr(ctx, depth + 1)}, {self._expr(ctx, depth + 1)})"
            )
        if not options:
            return None
        return rng.choice(options)()

    def _visible_slots(self, cls_name: str) -> list[str]:
        k = int(cls_name[1:])
        return self.slot_names[: len(self.slot_sigs) - (len(self.classes) - 1 - k)]

    def _expr(self, ctx: dict, depth: int = 0) -> str:
        rng = self.rng
        if depth >= self.config.max_depth + 1 or rng.random() < 0.3:
            return self._leaf(ctx, depth)
        roll = rng.random()
        if roll < 0.08:
            return f"(({self._expr(ctx, depth + 1)}) / {rng.choice([3, 5, 7])})"
        if roll < 0.16:
            return f"(({self._expr(ctx, depth + 1)}) % {rng.choice([9, 13, 17])})"
        if roll < 0.24:
            op = rng.choice(["-", "!"])
            return f"({op}({self._expr(ctx, depth + 1)}))"
        if roll < 0.44:
            call = self._call(ctx, depth)
            if call is not None:
                return call
        op = rng.choice(["+", "-", "*", "<", "<=", "==", "!=", ">", ">="])
        return f"(({self._expr(ctx, depth + 1)}) {op} ({self._expr(ctx, depth + 1)}))"

    # -- statements -----------------------------------------------------------

    def _assign_target(self, ctx: dict) -> str:
        rng = self.rng
        pool = [g.name for g in self.scalars] + self._mix_scalars()
        pool += [v for v in ctx["locals"] if v not in _COUNTERS]
        pool += list(ctx["fields"])
        for obj, cls_name in ctx["objs"]:
            k = int(cls_name[1:])
            pool += [f"{obj}.{f}" for f in self.all_fields[k]]
        target = rng.choice(pool + [None])
        if target is not None:
            return target
        g = rng.choice(self.arrays)
        return f"{g.name}[{self._safe_index(g.size, ctx, 1)}]"

    def _stmt(self, ctx: dict, depth: int = 0) -> str:
        rng, cfg = self.rng, self.config
        roll = rng.random()
        if roll < 0.3:
            target = self._assign_target(ctx)
            if rng.random() < 0.4:
                return f"{target} = ({target} + ({self._expr(ctx)}));"
            return f"{target} = {self._expr(ctx)};"
        if roll < 0.42 and ctx["putint"]:
            return f"print({self._expr(ctx)});"
        if roll < 0.54:
            call = self._call(ctx, 0)
            if call is not None:
                acc = ctx["acc"]
                return f"{acc} = ({acc} * 3 + {call});"
        if roll < 0.7 and depth < cfg.max_depth:
            body = " ".join(
                self._stmt(ctx, depth + 1) for __ in range(rng.randint(1, 2))
            )
            other = (
                f" else {{ {self._stmt(ctx, depth + 1)} }}"
                if rng.random() < 0.5
                else ""
            )
            return f"if ({self._expr(ctx)}) {{ {body} }}{other}"
        if roll < 0.85 and depth < min(cfg.max_depth, len(_COUNTERS)):
            var = _COUNTERS[depth]
            bound = rng.randint(1, 6)
            body = " ".join(
                self._stmt(ctx, depth + 1) for __ in range(rng.randint(1, 2))
            )
            return (
                f"for ({var} = 0; {var} < {bound}; {var} = {var} + 1) "
                f"{{ {body} }}"
            )
        return f"{ctx['acc']} = ({ctx['acc']} + ({self._expr(ctx)}));"

    def _counter_decls(self) -> list[str]:
        return [f"int {var} = 0;" for var in _COUNTERS]

    # -- bodies ---------------------------------------------------------------

    def _method_lines(self, cls: _Class, name: str, slot: int) -> list[str]:
        rng = self.rng
        k = int(cls.name[1:])
        params = [chr(ord("a") + i) for i in range(self.slot_sigs[slot])]
        ctx = {
            "locals": ["r"] + params,
            "fields": list(self.all_fields[k]),
            "objs": [],
            "acc": "r",
            "max_slot": slot,
            "this_slots": True,
            "max_order": 0,  # methods never call helpers (DAG discipline)
            "putint": False,
        }
        sig = ", ".join(f"int {p}" for p in params)
        lines = [f"    int {name}({sig}) {{", "        int r = 0;"]
        lines += [f"        {d}" for d in self._counter_decls()]
        for __ in range(rng.randint(1, 2)):
            lines.append(f"        {self._stmt(ctx)}")
        lines.append(f"        return (r + ({self._expr(ctx)}));")
        lines.append("    }")
        return lines

    def _helper_lines(self, helper: _Helper) -> list[str]:
        rng = self.rng
        # Helpers build an object and drive it through dispatch; the
        # receiver's dynamic class is a generator-time choice, so the
        # same helper source always dispatches the same way — but OM
        # cannot know that, which is the point.
        cls = rng.choice(self.classes)
        ctx = {
            "locals": ["r", "a", "b"],
            "fields": [],
            "objs": [("o", cls.name)],
            "acc": "r",
            "max_slot": self.nslots,
            "this_slots": False,
            "max_order": helper.order,
            "putint": False,
        }
        k = int(cls.name[1:])
        lines = [
            f"int {helper.name}(int a, int b) {{",
            "    int r = 0;",
            f"    {cls.name} o = new {cls.name}();",
            f"    o.{self.all_fields[k][0]} = a;",
        ]
        lines += [f"    {d}" for d in self._counter_decls()]
        for __ in range(rng.randint(1, 2)):
            lines.append(f"    {self._stmt(ctx)}")
        lines.append(f"    return (r + ({self._expr(ctx)}));")
        lines.append("}")
        return lines

    def _main_lines(self) -> list[str]:
        rng, cfg = self.rng, self.config
        # Object roster: one exactly-typed instance per class, plus one
        # base-typed reference to the most-derived class — the dispatch
        # site a vtable exists for.
        objs = []
        decls = []
        for k, cls in enumerate(self.classes):
            objs.append((f"o{k}", cls.name))
            decls.append(f"    {cls.name} o{k} = new {cls.name}();")
        top = self.classes[-1].name
        objs.append(("ob", "C0"))
        decls.append(f"    C0 ob = new {top}();")
        ctx = {
            "locals": ["x", "y", "t"],
            "fields": [],
            "objs": objs,
            "acc": "t",
            "max_slot": self.nslots,
            "this_slots": False,
            "max_order": len(self.helpers) + 1,
            "putint": True,
        }
        lines = [
            "int main() {",
            f"    int x = {rng.randint(-10, 10)};",
            f"    int y = {rng.randint(1, 20)};",
            "    int t = 0;",
        ]
        lines += [f"    {d}" for d in self._counter_decls()]
        lines += decls
        for k, cls in enumerate(self.classes):
            field = self.all_fields[k][-1]
            lines.append(f"    o{k}.{field} = {rng.randint(-9, 9)};")
        for __ in range(max(1, int(cfg.stmts))):
            lines.append(f"    {self._stmt(ctx)}")
        # The dump: every observable, one line per statement so the
        # reducer can drop irrelevant observations.  The base-typed
        # reference's slots all resolve through the derived vtable, so
        # the dump itself witnesses override resolution.
        for g in self.scalars:
            lines.append(f"    print({g.name});")
        for name in self._mix_scalars():
            lines.append(f"    print({name});")
        for g in self.arrays:
            lines.append(
                f"    for (i = 0; i < {g.size}; i = i + 1) "
                f"{{ t = (t + ({g.name}[i] + (i + 1))); }} print(t);"
            )
        for obj, cls_name in objs:
            k = int(cls_name[1:])
            for field in self.all_fields[k]:
                lines.append(f"    print({obj}.{field});")
            for slot, name in enumerate(self._visible_slots(cls_name)):
                args = ", ".join(
                    str(rng.randint(-5, 5)) for __ in range(self.slot_sigs[slot])
                )
                lines.append(f"    print({obj}.{name}({args}));")
        lines.append("    print(x);")
        lines.append("    print(y);")
        lines.append("    print(t);")
        lines.append("    return 0;")
        lines.append("}")
        return lines

    def _kernel_lines(self) -> list[str]:
        """The MiniC kernel unit: leaf functions, bit ops, shared globals."""
        rng = self.rng
        lines = [f"/* fuzz seed={self.seed} module=kern (MiniC) */"]
        lines.append("extern int dsh_0;")
        lines.append(f"int mixg_0 = {rng.randint(-40, 40)};")
        lines.append("int mixg_1;")
        lines.append("")
        lines.append("int kq0(int a, int b) {")
        lines.append("    mixg_1 = mixg_1 + 1;")
        lines.append(
            f"    return ((a ^ {rng.randint(1, 99)}) + (b << {rng.randint(1, 4)}))"
            f" - (dsh_0 & {rng.randint(1, 31)});"
        )
        lines.append("}")
        lines.append("")
        lines.append("int kq1(int a, int b) {")
        lines.append("    int r;")
        lines.append("    int i;")
        lines.append("    r = mixg_0;")
        lines.append(
            f"    for (i = 0; i < {rng.randint(2, 6)}; i++) "
            f"{{ r = (r ^ (a + i)) + (b >> 1); }}"
        )
        lines.append("    return r;")
        lines.append("}")
        return lines

    # -- assembly -------------------------------------------------------------

    def _class_decl_lines(self, cls: _Class, extern: bool) -> list[str]:
        head = "extern class" if extern else "class"
        extends = f" extends {cls.base}" if cls.base else ""
        lines = [f"{head} {cls.name}{extends} {{"]
        for field in cls.fields:
            lines.append(f"    int {field};")
        if extern:
            for name, slot, nparams in cls.own_methods:
                sig = ", ".join(
                    f"int {chr(ord('a') + i)}" for i in range(nparams)
                )
                lines.append(f"    int {name}({sig});")
        else:
            for name, slot, __ in cls.own_methods:
                lines.append("")
                lines += self._method_lines(cls, name, slot)
        lines.append("}")
        return lines

    def _extern_lines(self, module: int) -> list[str]:
        lines = []
        for g in self.globals:
            if g.module == module:
                continue
            if g.size is None:
                lines.append(f"extern int {g.name};")
            else:
                lines.append(f"extern int {g.name}[{g.size}];")
        for h in self.helpers:
            if h.module == module or h.kind == "dead":
                continue
            lines.append(f"extern int {h.name}(int a, int b);")
        for name in self._mix_scalars():
            lines.append(f"extern int {name};")
        for kernel in self.kernels:
            lines.append(f"extern int {kernel}(int a, int b);")
        return lines

    def _global_lines(self, module: int) -> list[str]:
        lines = []
        for g in self.globals:
            if g.module != module:
                continue
            if g.size is not None:
                lines.append(f"int {g.name}[{g.size}];")
            elif g.init is None:
                lines.append(f"int {g.name};")
            else:
                lines.append(f"int {g.name} = {g.init};")
        return lines

    def generate(self) -> GeneratedProgram:
        self._plan()
        # Fixed generation order (methods by class and slot, helpers,
        # main, kernels) keeps the program a pure function of
        # (seed, config); module assembly below draws no randomness.
        class_lines: dict[str, list[str]] = {}
        for cls in self.classes:
            class_lines[cls.name] = self._class_decl_lines(cls, extern=False)
        helper_lines: dict[str, list[str]] = {}
        for helper in self.helpers:
            helper_lines[helper.name] = self._helper_lines(helper)
        main_lines = self._main_lines()
        kernel_lines = self._kernel_lines() if self.mixed else None

        modules: list[tuple[str, str]] = []
        for m in range(self.ndecaf):
            lines = [f"/* fuzz seed={self.seed} module=d{m} (Decaf) */"]
            lines += self._extern_lines(m)
            # The whole chain, base first: a class is defined in its
            # home module and shape-imported everywhere else, so every
            # module can name every class (and subclassing crosses
            # translation units).
            for cls in self.classes:
                lines.append("")
                if cls.module == m:
                    lines += class_lines[cls.name]
                else:
                    lines += self._class_decl_lines(cls, extern=True)
            lines.append("")
            lines += self._global_lines(m)
            for helper in self.helpers:
                if helper.module == m:
                    lines.append("")
                    lines += helper_lines[helper.name]
            if m == 0:
                lines.append("")
                lines += main_lines
            modules.append((f"d{m}.dcf", "\n".join(lines) + "\n"))
        if kernel_lines is not None:
            modules.append(("kern.mc", "\n".join(kernel_lines) + "\n"))
        return GeneratedProgram(self.seed, self.config, tuple(modules))


def generate_program(seed: int, config: GenConfig | None = None) -> GeneratedProgram:
    """One deterministic program from (seed, config)."""
    config = config or GenConfig()
    if config.language in ("decaf", "mixed"):
        return RichDecafGen(seed, config).generate()
    if config.language != "minic":
        raise ValueError(f"unknown generator language {config.language!r}")
    return RichProgramGen(seed, config).generate()


# -- the scale generator -------------------------------------------------------


def generate_scale_program(
    seed: int, n_modules: int, *, salts: dict[int, int] | None = None
) -> GeneratedProgram:
    """A deterministic N-module chain program for scale experiments.

    The fuzz generators above clamp the module count to a handful; this
    builds exactly ``n_modules`` translation units.  ``main`` lives in
    module 0 and each later module exports one ``f{i}`` that calls the
    next module's ``f{i+1}``, so the call graph is a chain and every
    module references its neighbour's globals — GAT pressure and
    cross-module address loads both grow with N.

    ``salts`` maps module indices to small integers added to one
    addition-immediate constant inside that module's function.  A
    salted module compiles to different bytes while its instruction
    count — and therefore shard weights and partition boundaries —
    stays fixed.  That is exactly the "edit one module" shape the
    incremental-relink experiment needs: the edit must invalidate only
    the shard holding the module.
    """
    n_modules = max(2, int(n_modules))
    salts = dict(salts or {})
    rng = random.Random(seed)
    consts = [rng.randint(16, 80) for _ in range(n_modules)]
    sizes = [rng.choice([8, 16, 32]) for _ in range(n_modules)]

    modules: list[tuple[str, str]] = []
    for m in range(n_modules):
        const = consts[m] + int(salts.get(m, 0))
        lines = [f"/* scale seed={seed} module=s{m} */"]
        nxt = m + 1
        if nxt < n_modules:
            lines.append(f"extern int s{nxt}_g;")
            lines.append(f"extern int f{nxt}(int x);")
        lines.append(f"int s{m}_g = {rng.randint(-50, 50)};")
        lines.append(f"int s{m}_c;")
        lines.append(f"int s{m}_a[{sizes[m]}];")
        lines.append("")
        if m == 0:
            lines.append("int main() {")
            lines.append("    int r;")
            lines.append(f"    r = f1({const});")
            lines.append("    s0_g = r + s0_a[1] - s0_c;")
            lines.append("    return s0_g & 255;")
            lines.append("}")
        else:
            lines.append(f"int f{m}(int x) {{")
            lines.append("    int t;")
            lines.append(f"    t = x + {const};")
            lines.append(f"    s{m}_g = s{m}_g + t;")
            lines.append(f"    s{m}_a[t & {sizes[m] - 1}] = t - s{m}_c;")
            if nxt < n_modules:
                lines.append(f"    return f{nxt}(t) + s{nxt}_g;")
            else:
                lines.append(f"    return t + s{m}_g;")
            lines.append("}")
        modules.append((f"s{m}.mc", "\n".join(lines) + "\n"))
    return GeneratedProgram(seed, GenConfig(modules=n_modules), tuple(modules))


# -- the GP-window boundary ----------------------------------------------------


def generate_gp_window_program(filler: int = 994) -> GeneratedProgram:
    """One module that needs OM's fresh round: the paper's case.

    ``main`` assigns and reads 120 scalar COMMONs ``g0``..``g119`` and
    prints ``use(target)``; eight ``filler``-word COMMONs ``f0``..``f7``
    sit between them and the 4000-word ``target``, which OM's size sort
    places last.  With 994 to about 1008 words of filler, round 0's
    layout puts ``target`` just past the GP window, so its escaped address
    load stays in the GAT.  Round 0 nullifies the scalars' loads; the
    smaller GAT brings ``target`` into the window, and only round 1
    converts its load.
    """
    lines = [f"int g{i};" for i in range(120)]
    lines += [f"int f{i}[{filler}];" for i in range(8)]
    lines += [
        "int target[4000];",
        "",
        "int use(int *p) { return p[1] + 1; }",
        "",
        "int main() {",
        "    int s;",
        "    s = 0;",
    ]
    lines += [f"    g{i} = {i};" for i in range(120)]
    lines += [f"    s = s + g{i};" for i in range(120)]
    lines += [
        "    __putint(s);",
        "    __putint(use(target));",
        "    return 0;",
        "}",
    ]
    return GeneratedProgram(
        filler, GenConfig(modules=1), (("gpwindow.mc", "\n".join(lines) + "\n"),)
    )

