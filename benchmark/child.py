"""Child-process side of the benchmark: set-up probes and traced CLI runs.

    python child.py setup RESULT_JSON -- CLI_ARGS...
    python child.py trace RESULT_JSON -- CLI_ARGS...

``setup`` calls the unmodified CLI entry point with one shim: the first
step (or, for ``stability``, the first power-iteration apply) records the
monotonic clock and ends the process, so everything the command does
before it counts as set-up. ``trace`` wraps the public functions of each
layer in timing shims and then calls the unmodified CLI entry point; the
spans stay in memory and are written to RESULT_JSON when the command ends.

Both modes record ``time.perf_counter()`` values, which on Linux read the
system-wide monotonic clock, so the parent can subtract its own spawn time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (span name, module, attribute path); a missing target is skipped so the
# tracer survives refactors that remove a function.
TRACE_TARGETS = (
    ("config.load_scenario", "fedbht.config", "load_scenario"),
    ("mesh.precompute", "fedbht.mesh", "precompute"),
    ("integrator.build_thermal_state", "fedbht.integrator", "build_thermal_state"),
    ("integrator.lumped_thermal_mass", "fedbht.integrator", "lumped_thermal_mass"),
    ("integrator.step", "fedbht.integrator", "step"),
    ("integrator.run", "fedbht.integrator", "run"),
    ("kernels.operator_init", "fedbht.kernels", "ConductionOperator.__init__"),
    ("kernels.apply", "fedbht.kernels", "ConductionOperator.apply"),
    ("material.evaluate", "fedbht.material", "PropertyTable.evaluate"),
    ("material.evaluate", "fedbht.material", "TensorPropertyTable.evaluate"),
    ("deformation.displacements_at", "fedbht.deformation", "IdentityDeformation.displacements_at"),
    ("deformation.displacements_at", "fedbht.deformation", "AffineDeformation.displacements_at"),
    ("deformation.displacements_at", "fedbht.deformation", "TrajectoryDeformation.displacements_at"),
    ("stability.estimate_critical_dt", "fedbht.stability", "estimate_critical_dt"),
    ("oracle.reference_transient", "fedbht.oracle", "reference_transient"),
    ("oracle.stiffness", "fedbht.oracle", "OracleAssembler.stiffness"),
    ("oracle.cg", "scipy.sparse.linalg", "cg"),
    ("metrics.compare_snapshots", "fedbht.metrics", "compare_snapshots"),
    ("output.write_record_outputs", "fedbht.output", "write_record_outputs"),
    ("output.write_manifest", "fedbht.output", "write_manifest"),
)


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.estimates: list[tuple[int, bool]] = []  # (iterations, converged)

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return shim

    def install(self) -> list[str]:
        """Patch every target; returns the names of targets not found."""
        missing = []
        for name, module_name, attr_path in TRACE_TARGETS:
            resolved = _resolve(module_name, attr_path)
            if resolved is None:
                missing.append(f"{module_name}.{attr_path}")
                continue
            shim = self.wrap(name, resolved[2])
            if name == "stability.estimate_critical_dt":
                shim = self._record_estimates(shim)
            _patch(*resolved, shim)
        return missing

    def _record_estimates(self, shim):
        @functools.wraps(shim)
        def recording(*args, **kwargs):
            est = shim(*args, **kwargs)
            self.estimates.append(
                (int(getattr(est, "iterations", 0)), bool(getattr(est, "converged", True)))
            )
            return est

        return recording


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute, function) for a module function or a class method,
    or None if it no longer exists."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner_name, _, attr = attr_path.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    fn = getattr(owner, attr, None) if owner is not None else None
    return None if fn is None else (owner, attr, fn)


def _patch(owner, attr: str, fn, replacement) -> None:
    """Replace ``fn`` on its owner and, for a module function, wherever a
    loaded fedbht module imported it by name."""
    setattr(owner, attr, replacement)
    if not isinstance(owner, type):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("fedbht"):
                continue
            for name, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, name, replacement)


def _setup(result_path: str, cli_args: list[str]) -> int:
    import fedbht.cli as cli

    # Set-up ends where the command's work begins: the first step, or for
    # ``stability`` the first power-iteration apply.
    if cli_args[:1] == ["stability"]:
        target = ("fedbht.kernels", "ConductionOperator.apply")
    else:
        target = ("fedbht.integrator", "step")
    resolved = _resolve(*target)
    if resolved is None:
        return 1

    def stop(*args, **kwargs):
        end = time.perf_counter()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"end": end}, fh)
        os._exit(0)

    _patch(*resolved, stop)
    cli.main(cli_args)
    return 1  # the command ended without reaching its first step


def _trace(result_path: str, cli_args: list[str]) -> int:
    import fedbht.cli as cli

    import_end = time.perf_counter()
    tracer = Tracer()
    missing = tracer.install()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({
                "import_end": import_end,
                "exit_code": code,
                "missing": missing,
                "estimates": tracer.estimates,
                "spans": tracer.spans,
            }, fh)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) >= 3 and argv[2] == "--":
        return _setup(argv[1], argv[3:])
    if argv[:1] == ["trace"] and len(argv) >= 3 and argv[2] == "--":
        return _trace(argv[1], argv[3:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
