"""Timing and counting wrappers around lfverify's public functions.

The traced benchmark run installs these wrappers in its own child processes
before calling into the package; the package's source is never edited.  A
wrapper records a span: its wall time, its call count and its self time (the
span minus the wrapped calls it made).  A call into a span that is already
open passes straight through, so a layer that calls itself is timed once, at
its outermost entry.  Per-process totals are written to a JSON file that the
benchmark's parent process sums over operations.
"""

from __future__ import annotations

import json
import math
import time


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._open: set[str] = set()
        self._child_time: list[float] = []

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, fn, key, on_result=None, only_inside=None):
        """Wrap fn as the span `key`; `only_inside` names a span that must be open."""

        def wrapper(*args, **kwargs):
            if key in self._open or (only_inside and only_inside not in self._open):
                return fn(*args, **kwargs)
            self._open.add(key)
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._child_time.pop()
                self._open.discard(key)
                self.calls[key] = self.calls.get(key, 0) + 1
                self.seconds[key] = self.seconds.get(key, 0.0) + elapsed
                self.self_seconds[key] = self.self_seconds.get(key, 0.0) + elapsed - child
                if self._child_time:
                    self._child_time[-1] += elapsed
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, fn, key):
        """Count calls only: for functions called so often that timing them would skew."""

        def wrapper(*args, **kwargs):
            self.calls[key] = self.calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "calls": self.calls,
                    "seconds": self.seconds,
                    "self_seconds": self.self_seconds,
                    "counts": self.counts,
                },
                fh,
            )


def _grid_points(t_min: float, t_max: float, step: float) -> int:
    # the scan's t-grid: t_min + k * step, closed by t_max when it falls short
    n = int(math.floor((t_max - t_min) / step)) + 1
    return n + 1 if t_min + step * (n - 1) < t_max - 1e-12 else n


def install(tracer: Tracer) -> None:
    """Replace every binding of the traced functions in the package's modules."""
    import lfverify
    from lfverify import characters, cli, contradiction, eulerprod, kernels, lfunc, numerics

    modules = (lfverify, numerics, kernels, contradiction, characters, eulerprod, lfunc, cli)

    def patch(owner, name, wrapper):
        original = getattr(owner, name)
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is original]:
                setattr(mod, attr, wrapper)

    def on_integrate(result, *args, **kwargs):
        tracer.add("numerics.integrand_evals", result.evaluations)

    def on_scan(result, psi, t_min, t_max, step=0.02):
        tracer.add("lfunc.grid_points", _grid_points(t_min, t_max, step))
        tracer.add("lfunc.zeros_found", len(result))

    patch(numerics, "integrate", tracer.span(numerics.integrate, "numerics.integrate", on_integrate))
    for name in ("eval_f", "eval_g", "eval_w", "eval_y"):
        patch(kernels, name, tracer.span(getattr(kernels, name), "kernels.eval"))
    for name, key in (
        ("run_verification", "contradiction.verify"),
        ("compute_b_matrix", "contradiction.b_matrix"),
        ("compute_d_constants", "contradiction.d_constants"),
        ("compute_e_constants", "contradiction.e_constants"),
        ("short_window_checks", "contradiction.windows"),
        ("compute_j1_bound", "contradiction.j1"),
    ):
        patch(contradiction, name, tracer.span(getattr(contradiction, name), key))
    for name, key in (
        ("identity_810_gap", "characters.identity_810"),
        ("coefficient_bound_margin", "characters.coefficient_bounds"),
        ("check_lemma_171", "characters.lemma_171"),
        ("primitive_characters", "characters.primitive_characters"),
    ):
        patch(characters, name, tracer.span(getattr(characters, name), key))
    patch(eulerprod, "cap_pi", tracer.counter(eulerprod.cap_pi, "eulerprod.cap_pi"))
    patch(
        eulerprod,
        "check_local_identity",
        tracer.span(eulerprod.check_local_identity, "eulerprod.local_identity"),
    )
    patch(lfunc, "find_zeros", tracer.span(lfunc.find_zeros, "lfunc.scan", on_scan))
    patch(lfunc, "m_function", tracer.span(lfunc.m_function, "lfunc.refine", only_inside="lfunc.scan"))
    patch(lfunc, "c_star", tracer.span(lfunc.c_star, "lfunc.cstar"))
    patch(lfunc, "export_zeros_csv", tracer.span(lfunc.export_zeros_csv, "lfunc.export"))
    for name, key in (
        ("cmd_verify_constants", "cli.constants"),
        ("cmd_identities", "cli.identities"),
        ("cmd_zeros", "cli.zeros"),
    ):
        patch(cli, name, tracer.span(getattr(cli, name), key))


PER_LAYER = (
    # (metric, unit) in the order BENCHMARK.json lists them
    ("import.scipy_s", "s"),
    ("import.lfverify_self_s", "s"),
    ("numerics.integrate_calls", "count"),
    ("numerics.integrand_evals", "count"),
    ("numerics.integrate_s", "s"),
    ("kernels.eval_calls", "count"),
    ("kernels.eval_s", "s"),
    ("contradiction.verify_calls", "count"),
    ("contradiction.b_matrix_s", "s"),
    ("contradiction.d_constants_s", "s"),
    ("contradiction.e_constants_s", "s"),
    ("contradiction.windows_s", "s"),
    ("contradiction.j1_s", "s"),
    ("cli.command_calls", "count"),
    ("cli.report_s", "s"),
    ("cli.csv_s", "s"),
    ("characters.identity_810_calls", "count"),
    ("characters.identity_810_us_per_n", "us"),
    ("characters.coefficient_bounds_s", "s"),
    ("characters.lemma_171_s", "s"),
    ("characters.primitive_characters_calls", "count"),
    ("characters.primitive_characters_s", "s"),
    ("eulerprod.cap_pi_calls", "count"),
    ("eulerprod.local_identity_calls", "count"),
    ("eulerprod.local_identity_s", "s"),
    ("lfunc.scan_calls", "count"),
    ("lfunc.scan_s", "s"),
    ("lfunc.grid_points", "count"),
    ("lfunc.grid_s", "s"),
    ("lfunc.refine_calls", "count"),
    ("lfunc.refine_s", "s"),
    ("lfunc.zeros_found", "count"),
    ("lfunc.cstar_calls", "count"),
    ("lfunc.cstar_s", "s"),
    ("trace.ops", "count"),
    ("trace.op_s_p50", "s"),
)


def merge(total: dict, part: dict) -> None:
    for table in ("calls", "seconds", "self_seconds", "counts"):
        dest = total.setdefault(table, {})
        for key, value in part.get(table, {}).items():
            dest[key] = dest.get(key, 0) + value


def layer_values(total: dict, ops: int) -> dict[str, float]:
    """Per-operation layer figures from the summed span tables of a traced run."""
    calls = total.get("calls", {})
    secs = total.get("seconds", {})
    own = total.get("self_seconds", {})
    counts = total.get("counts", {})
    n810 = calls.get("characters.identity_810", 0)
    raw = {
        "numerics.integrate_calls": calls.get("numerics.integrate", 0),
        "numerics.integrand_evals": counts.get("numerics.integrand_evals", 0),
        "numerics.integrate_s": secs.get("numerics.integrate", 0.0),
        "kernels.eval_calls": calls.get("kernels.eval", 0),
        "kernels.eval_s": secs.get("kernels.eval", 0.0),
        "contradiction.verify_calls": calls.get("contradiction.verify", 0),
        "contradiction.b_matrix_s": secs.get("contradiction.b_matrix", 0.0),
        "contradiction.d_constants_s": secs.get("contradiction.d_constants", 0.0),
        "contradiction.e_constants_s": secs.get("contradiction.e_constants", 0.0),
        "contradiction.windows_s": secs.get("contradiction.windows", 0.0),
        "contradiction.j1_s": secs.get("contradiction.j1", 0.0),
        "cli.command_calls": sum(calls.get(k, 0) for k in ("cli.constants", "cli.identities", "cli.zeros")),
        "cli.report_s": own.get("cli.constants", 0.0) + own.get("cli.identities", 0.0),
        "cli.csv_s": secs.get("lfunc.export", 0.0) + own.get("cli.zeros", 0.0),
        "characters.identity_810_calls": n810,
        "characters.coefficient_bounds_s": secs.get("characters.coefficient_bounds", 0.0),
        "characters.lemma_171_s": secs.get("characters.lemma_171", 0.0),
        "characters.primitive_characters_calls": calls.get("characters.primitive_characters", 0),
        "characters.primitive_characters_s": secs.get("characters.primitive_characters", 0.0),
        "eulerprod.cap_pi_calls": calls.get("eulerprod.cap_pi", 0),
        "eulerprod.local_identity_calls": calls.get("eulerprod.local_identity", 0),
        "eulerprod.local_identity_s": secs.get("eulerprod.local_identity", 0.0),
        "lfunc.scan_calls": calls.get("lfunc.scan", 0),
        "lfunc.scan_s": secs.get("lfunc.scan", 0.0),
        "lfunc.grid_points": counts.get("lfunc.grid_points", 0),
        "lfunc.grid_s": secs.get("lfunc.scan", 0.0) - secs.get("lfunc.refine", 0.0),
        "lfunc.refine_calls": calls.get("lfunc.refine", 0),
        "lfunc.refine_s": secs.get("lfunc.refine", 0.0),
        "lfunc.zeros_found": counts.get("lfunc.zeros_found", 0),
        "lfunc.cstar_calls": calls.get("lfunc.cstar", 0),
        "lfunc.cstar_s": secs.get("lfunc.cstar", 0.0),
    }
    out = {name: value / ops for name, value in raw.items()}
    out["characters.identity_810_us_per_n"] = (
        1e6 * secs.get("characters.identity_810", 0.0) / n810 if n810 else 0.0
    )
    return out
