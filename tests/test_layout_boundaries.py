"""Linker-side layout boundaries: the 16-bit GP window cost model and
deterministic COMMON placement."""

from repro.isa.ranges import GP_BIAS
from repro.linker.layout import (
    LayoutOptions,
    _window_cost,
    compute_layout,
)
from repro.linker.resolve import ResolvedInputs


def _layout(commons, weights=None):
    inputs = ResolvedInputs(modules=[], globals={}, commons=dict(commons))
    options = LayoutOptions(sort_commons=True, symbol_weights=weights)
    return compute_layout(inputs, options)


# -- GP-window predicate edges -------------------------------------------------


def test_window_cost_positive_edge():
    order = [("s", (8, 1))]
    assert _window_cost(order, 32767, 0, {"s": 1.0}) == 0.0
    assert _window_cost(order, 32768, 0, {"s": 1.0}) == 1.0


def test_window_cost_negative_edge():
    order = [("s", (8, 1))]
    assert _window_cost(order, -32752, 0, {"s": 1.0}) == 0.0
    assert _window_cost(order, -32753, 0, {"s": 1.0}) == 1.0


def test_window_cost_accumulates_through_placement():
    # The first symbol lands in the window; the second starts past
    # gp + 32767 (= 65519 from a zero base) and is charged.
    order = [("a", (70000, 8)), ("b", (40000, 8))]
    weights = {"a": 1.0, "b": 10.0}
    assert _window_cost(order, 0, GP_BIAS, weights) == 10.0


# -- frequency-sorted COMMON placement -----------------------------------------


def test_hot_symbol_pulled_into_window():
    """Size sort strands the big hot symbol out of the window; the
    density order pays less under the cost model and must win."""
    commons = {
        "cold_a": (40000, 8),
        "cold_b": (40000, 8),
        "hot": (50000, 8),
    }
    layout = _layout(commons, weights={"hot": 1000.0})
    assert layout.hot_commons
    gp = layout.groups[-1].gp
    assert -32752 <= layout.common_addr["hot"] - gp <= 32767
    cold = _layout(commons)  # no weights: the paper's size sort
    assert not cold.hot_commons
    assert not -32752 <= cold.common_addr["hot"] - gp <= 32767


def test_size_sort_kept_unless_strictly_better():
    """When every placement is in-window the costs tie and the size
    sort stays (never-worse guarantee: deviate only on strict win)."""
    commons = {"a": (16, 8), "b": (8, 8)}
    hot = _layout(commons, weights={"a": 100.0})
    cold = _layout(commons)
    assert not hot.hot_commons
    assert hot.common_addr == cold.common_addr
    assert cold.common_addr["b"] < cold.common_addr["a"]  # size order


# -- deterministic tie-break ---------------------------------------------------


def test_equal_size_commons_insertion_order_independent():
    forward = {"b": (16, 8), "a": (16, 8), "c": (16, 8)}
    backward = dict(reversed(list(forward.items())))
    first = _layout(forward).common_addr
    second = _layout(backward).common_addr
    assert first == second
    # Ties break by name, so equal (size, align) symbols sort a < b < c.
    assert first["a"] < first["b"] < first["c"]


def test_tie_break_orders_by_size_then_align_then_name():
    commons = {"z": (8, 16), "m": (8, 8), "a": (16, 8)}
    addr = _layout(commons).common_addr
    assert addr["m"] < addr["z"] < addr["a"]
