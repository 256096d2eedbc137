"""Outside-in span tracing of calr_lab's layers, installed from the benchmark.

The program is not edited: ``Tracer.install`` replaces each traced public
function with a timing wrapper in every ``calr_lab`` module attribute that
binds it, not only in the defining module.  ``cli.cmd_field`` looks up
``eval_potential`` in ``calr_lab.cli`` and ``solver._sweep_one`` looks up
``newtonian_coefficients`` in ``calr_lab.solver``, so wrapping only the
defining module would miss those calls.

Spans (name, start, end, parent, n_max) are held in memory until the run
ends.  A layer's self time is its span minus the spans of its direct
children; ``cli`` self time is an operation's wall time minus its root
spans, so the self times of one operation add up to its wall time.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict

# (module, function, parameter that carries the truncation order n_max)
LAYERS = [
    ("solver", "dissipated_power_direct", "config"),
    ("solver", "boundary_forcing", "sc"),
    ("solver", "mode_projections", "modes"),
    ("solver", "solve_densities", "config"),
    ("solver", "dissipated_power_spectral", "modes"),
    ("solver", "sweep", None),
    ("solver", "eval_potential", "config"),
    ("solver", "calr_classify", None),
    ("spectrum", "mode_table", "n_max"),
    ("source", "newtonian_coefficients", "n_max"),
    ("source", "gap_condition_report", "sc"),
    ("geometry", "to_elliptic", None),
    ("oracle", "block_np_for", None),
    ("oracle", "numeric_spectrum", None),
]
LAYER_NAMES = [f"{mod}.{fn}" for mod, fn, _ in LAYERS]


def _as_n_max(value) -> int | None:
    """Truncation order from an int, a ShellConfig/SourceCoefficients or a ModeTable."""
    if isinstance(value, int):
        return value
    n_max = getattr(value, "n_max", None)
    if isinstance(n_max, int):
        return n_max
    n = getattr(value, "n", None)
    return len(n) if n is not None else None


def _dpd_nodes(sig, args, kwargs, result, n_max) -> int:
    """Computed quadrature nodes of dissipated_power_direct: rho-nodes x n_omega."""
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    p = bound.arguments
    n_omega = p["n_omega"] if p["n_omega"] is not None else max(4 * n_max + 2, 512)
    return p["n_panels"] * p["gl_order"] * n_omega


# Work counters measured at a layer boundary: layer -> (counter, fn).
COUNTERS = {
    "solver.dissipated_power_direct": ("nodes", _dpd_nodes),
    "spectrum.mode_table": ("modes", lambda sig, a, k, result, n: len(result.n)),
    "oracle.block_np_for": ("matrix_dim", lambda sig, a, k, result, n: result.matrix.shape[0]),
}


class Tracer:
    """Wraps the traced layers and records one span per call."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._patched: list = []

    def _wrap(self, name: str, fn, n_max_param: str | None):
        sig = inspect.signature(fn)
        params = list(sig.parameters)
        index = params.index(n_max_param) if n_max_param in params else None
        counter = COUNTERS.get(name)
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n_max = None
            if index is not None:
                value = args[index] if len(args) > index else kwargs.get(n_max_param)
                n_max = _as_n_max(value)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[slot] = (name, start, end, parent, n_max)
            if counter is not None:
                self.counts[f"{name}.{counter[0]}"] += counter[1](sig, args, kwargs, result, n_max)
            return result

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "calr_lab" or k.startswith("calr_lab.")]
        for mod_name, fn_name, n_max_param in LAYERS:
            home = sys.modules.get(f"calr_lab.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue  # layer removed from the program: it reports zero calls
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, n_max_param)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def layer_totals(spans, ops) -> dict:
    """Per-operation means of self time and call counts, plus cli self time.

    ``ops`` is a list of (first span, end span, wall seconds) per traced
    operation.  Returns {"<layer>.self_s", "<layer>.calls", "cli.self_s",
    "trace.call_s"}, each averaged over the operations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    cli_s = 0.0
    for first, last, wall in ops:
        roots = 0.0
        for k in range(first, last):
            name, start, end, parent, _ = spans[k]
            self_s[name] += (end - start) - child[k]
            calls[name] += 1
            if parent < 0:
                roots += end - start
        cli_s += wall - roots
    n_ops = len(ops)
    out = {}
    for name in LAYER_NAMES:
        out[f"{name}.self_s"] = self_s[name] / n_ops
        out[f"{name}.calls"] = calls[name] / n_ops
    out["cli.self_s"] = cli_s / n_ops
    out["trace.call_s"] = sum(w for _, _, w in ops) / n_ops
    return out


def span_medians_by_n_max(spans) -> dict:
    """Median inclusive span duration per (layer, n_max)."""
    groups = defaultdict(list)
    for name, start, end, _, n_max in spans:
        if n_max is not None:
            groups[(name, n_max)].append(end - start)
    return {key: (statistics.median(v), len(v)) for key, v in sorted(groups.items())}
