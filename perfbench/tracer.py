"""Traced replay of one ddlab command, in a process of its own.

Usage: python3 perfbench/tracer.py SPANS_JSON -- <ddlab argv...>

Wraps the public functions each CLI command calls with spans, then runs
``ddlab.cli.main(argv)`` in this process. The wrappers are installed on the
names where the callers look them up: ``from .x import f`` copies the
binding into the importing module, so ``ddlab.cli`` and ``ddlab.sweep`` are
patched by name, and the ``dio`` and ``bounds`` module objects by attribute.
A name that a later ddlab no longer has is skipped, and its layer reads 0.

Spans (name, start, end, parent, counts) stay in memory and are written
once, after the command has returned. Counts are derived from arguments and
returned objects only, never from inside the package. The root span ``cli``
opens before ``ddlab`` is imported, so its self time covers imports,
argument parsing and output; the self times of all spans sum to the root
span's duration. Spans are kept on one stack: the benchmark never sets
DDLAB_THREADS, so every traced call runs on the main thread.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_T0 = time.perf_counter()


class Tracer:
    """Nested spans of one single-threaded command."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter() if start is None else start,
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "counts": {"calls": 1},
                "cpu": time.thread_time(),
            }
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span["cpu"] = time.thread_time() - span["cpu"]

    def wrap(self, name, fn, count=None):
        """A span-recording proxy for fn.

        name is a string or name(args, kwargs) -> str; count(args, kwargs,
        result, exc) returns extra counts for the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name(args, kwargs) if callable(name) else name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                counts = self.spans[idx]["counts"]
                if exc is not None:
                    counts["errors"] = 1
                if count is not None:
                    counts.update(count(args, kwargs, result, exc))
                self.close(idx)

        return traced


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _energy_counts(args, kwargs, rep, exc):
    return {} if rep is None else {"pairs": rep.n * rep.m, "classes": rep.distinct_count}


def _load_counts(args, kwargs, result, exc):
    path = _arg(args, kwargs, 0, "path")
    return {"bytes": os.path.getsize(path)} if result is not None else {}


def _gamma_counts(args, kwargs, result, exc):
    stream = _arg(args, kwargs, 1, "stream")
    return {"bytes": len(stream.getvalue().encode("utf-8"))} if hasattr(stream, "getvalue") else {}


def _family_counts(args, kwargs, family, exc):
    return {} if family is None else {"curves": len(family.curves)}


def _skip_counts(args, kwargs, result, exc):
    return {"skipped": 1} if type(exc).__name__ == "TooLargeError" else {}


def _sweep_counts(args, kwargs, rows, exc):
    if rows is None:
        return {}
    return {"rows": len(rows), "rows_error": sum(1 for r in rows if getattr(r, "error", ""))}


def _incidence_name(args, kwargs):
    return "reduction.incidences_" + str(_arg(args, kwargs, 2, "mode", "hash"))


def _incidence_counts(args, kwargs, rep, exc):
    n = len(_arg(args, kwargs, 0, "grid").params)
    curves = len(_arg(args, kwargs, 1, "family").curves)
    if _arg(args, kwargs, 2, "mode", "hash") == "naive":
        return {"evals": n * n * curves}
    counts = {"probes": n * curves}
    if rep is not None:
        counts["hits"] = rep.total
    return counts


# span name -> (attribute looked up in ddlab.cli and ddlab.sweep, counter)
CALL_SITES = {
    "configs.gen_random": ("gen_random", None),
    "exact.validate_constraints": ("validate_constraints", None),
    "energy.energy_report": ("energy_report", _energy_counts),
    "energy.distance_classes": ("distance_classes", None),
    "energy.energy": ("energy", None),
    "reduction.build_family": ("build_family", _family_counts),
    _incidence_name: ("incidences", _incidence_counts),
    "reduction.intersection_count": ("intersection_count", None),
    "oracles.oracle_quadruples": ("oracle_quadruples", _skip_counts),
    "oracles.oracle_incidences": ("oracle_incidences", _skip_counts),
    "sweep.run_sweep": ("run_sweep", _sweep_counts),
}


def install(tracer: Tracer) -> None:
    """Patch the call sites of every traced layer that this ddlab has."""
    import ddlab.bounds
    import ddlab.cli
    import ddlab.io
    import ddlab.sweep

    def patch(module, attr, name, count=None):
        fn = getattr(module, attr, None)
        if callable(fn):
            setattr(module, attr, tracer.wrap(name, fn, count))

    for module in (ddlab.cli, ddlab.sweep):
        for name, (attr, count) in CALL_SITES.items():
            patch(module, attr, name, count)
    patch(ddlab.io, "load_source", "io.load_source", _load_counts)
    patch(ddlab.io, "write_gamma_csv", "io.write_gamma_csv", _gamma_counts)
    for attr in ("distinct_lower_bound", "energy_upper_expr"):
        patch(ddlab.bounds, attr, "bounds." + attr)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS_JSON -- <ddlab argv...>\n")
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    root = tracer.open("cli", start=_T0)
    try:
        import ddlab.cli

        install(tracer)
        code = ddlab.cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash of the traced command: report it as the CLI process would
        import traceback

        traceback.print_exc()
        code = 1
    finally:
        sys.stdout.flush()
        tracer.close(root)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
