"""Layered benchmark of fedbht's run, verify and stability commands.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark writes the workload's
scenes into ``.benchwork/``, then, for about ``--seconds`` seconds, runs the
real CLI in fresh child processes, one command at a time (a closed loop with
one client), at the program's default serial settings: no ``--threads`` flag
and no ``FEDBHT_THREADS`` is set.

``--trace 0`` alternates an untraced CLI repetition with three set-up probes
and reports the end-to-end metrics. ``--trace 1`` alternates an untraced
repetition with a traced one (see ``child.py``) and reports the per-layer
metrics. Each repetition's outputs are checked; after the timed window the
workload's outputs are also checked once against the assembled-matrix
oracle. Failed repetitions and failed checks are counted, never fatal.

Human-readable tables go to standard output first; the last line is one
JSON object with the keys correct, attempted, failed and metrics, holding
the metrics that BENCHMARK.json names for the mode. The full result,
including spans of traced runs and provenance, is written to
``.benchwork/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from child import TRACE_TARGETS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".benchwork")
CHILD = os.path.join(HERE, "child.py")
CLI_ENTRY = "import sys; from fedbht.cli import main; sys.exit(main())"

ROUNDOFF_TOL = 1e-9      # forward oracle vs production, same scheme
LAMBDA_REL_TOL = 0.01    # gate 4's criterion against the dense eigensolve
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
SETUP_PROBES_PER_REP = 3  # a probe costs 1 to 1.4 s, a repetition 3 to 11 s
THREAD_ENV = ("FEDBHT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


# -- child processes -----------------------------------------------------------

@dataclass
class Spawned:
    spawn: float
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # With OpenBLAS's default thread count, the hex block's t = 0 power
    # iteration (15 625 nodes) took 0.1 s right after a busy period and 0.9 s
    # after a 4 s pause on a 2-vCPU guest; with one thread, 0.11 s either way.
    # One BLAS thread keeps the measurement independent of the idle state.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _spawn(argv: list[str], cwd: str) -> Spawned:
    """Run argv to completion; wall time from spawn to exit, peak RSS from
    the child's rusage."""
    log_path = os.path.join(cwd, "child.log")
    with open(log_path, "w+", encoding="utf-8") as log:
        spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        text = log.read()
    return Spawned(spawn, wall, usage.ru_maxrss / 1024.0, proc.returncode, text)


def _cli_args(command: str, scenario: str, out_dir: str) -> list[str]:
    if command == "run":
        return ["run", scenario, "--out", out_dir]
    if command == "verify":
        return ["verify", scenario, "--scheme", "backward"]
    return ["stability", scenario]


# -- repetitions ---------------------------------------------------------------

@dataclass
class Rep:
    traced: bool
    wall_s: float
    rss_mb: float
    ok: bool
    message: str
    digest: str = ""
    out_bytes: int = 0
    trace: dict | None = None


def _digest_outputs(out_dir: str) -> tuple[str, int, list[str]]:
    """Hash of every CSV the run wrote, total bytes written, snapshot names."""
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        total += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("diverged"):
        raise ValueError(f"run diverged at step {manifest.get('divergence_step')}")
    return h.hexdigest(), total, list(manifest.get("snapshots", []))


def _one_rep(ctx: "Context", traced: bool, index: int) -> Rep:
    """One CLI command on scene ``index``, with its outputs checked."""
    scene = ctx.scenes[index]
    out_dir = os.path.join(ctx.work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    args = _cli_args(ctx.command, scene.scenario, out_dir)
    trace_path = os.path.join(ctx.work, "trace.json")
    if traced:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        argv = [sys.executable, CHILD, "trace", trace_path, "--"] + args
    else:
        argv = [sys.executable, "-c", CLI_ENTRY] + args
    done = _spawn(argv, ctx.work)
    rep = Rep(traced, done.wall_s, done.rss_mb, True, "")
    if traced:
        try:
            with open(trace_path, encoding="utf-8") as fh:
                rep.trace = json.load(fh)
        except (OSError, ValueError) as err:
            rep.ok, rep.message = False, f"no trace written: {err}"
            return rep
        rep.trace["spawn"] = done.spawn
        rep.trace["wall_s"] = done.wall_s
    if done.exit_code != 0:
        rep.ok, rep.message = False, f"exit code {done.exit_code}: {done.stdout[-300:]!r}"
        return rep
    try:
        if ctx.command == "run":
            rep.digest, rep.out_bytes, snaps = _digest_outputs(out_dir)
            if len(snaps) != scene.snapshots:
                raise ValueError(f"{len(snaps)} snapshots, expected {scene.snapshots}")
            if index == 0 and ctx.check_csv is None:
                ctx.check_csv = os.path.join(ctx.work, "check_snapshot.csv")
                shutil.copyfile(os.path.join(out_dir, snaps[scene.check_snapshot] + ".csv"),
                                ctx.check_csv)
        else:
            rep.digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    except (OSError, ValueError) as err:
        rep.ok, rep.message = False, f"output check: {err}"
        return rep
    if index not in ctx.first_digest:
        ctx.first_digest[index] = rep.digest
        if index == 0:
            ctx.first_stdout = done.stdout
    elif rep.digest != ctx.first_digest[index]:
        rep.ok, rep.message = False, "outputs differ from the first repetition"
    return rep


def _setup_probe(ctx: "Context", index: int) -> float | None:
    """Seconds from spawn to the end of set-up on scene ``index``; None if
    the probe failed."""
    path = os.path.join(ctx.work, "setup.json")
    if os.path.exists(path):
        os.remove(path)
    args = _cli_args(ctx.command, ctx.scenes[index].scenario, os.path.join(ctx.work, "out"))
    done = _spawn([sys.executable, CHILD, "setup", path, "--"] + args, ctx.work)
    if done.exit_code != 0:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["end"] - done.spawn
    except (OSError, ValueError, KeyError):
        return None


# -- once-per-invocation checks ------------------------------------------------

def _check_forward_oracle(ctx: "Context") -> tuple[bool, str]:
    """A run's snapshot against the oracle replaying the same scheme up to
    that snapshot's time (the last snapshot of the demo, the first of the
    hex block, so the check costs about 100 oracle steps either way). The
    first scene is checked."""
    import dataclasses

    import numpy as np
    from fedbht import oracle
    from fedbht.config import load_scenario
    from fedbht.metrics import normalized_error
    from fedbht.output import read_snapshot_csv

    if ctx.check_csv is None:
        return False, "no successful repetition to check"
    cfg = load_scenario(ctx.scenes[0].scenario)
    t_check = cfg.schedule.snapshot_times[ctx.scenes[0].check_snapshot]
    schedule = dataclasses.replace(cfg.schedule, total_time=t_check, snapshot_times=(t_check,))
    ref = oracle.reference_transient(
        cfg.mesh, cfg.material, cfg.perfusion, cfg.boundary, cfg.deformation,
        schedule, scheme="forward",
        initial_temperature=cfg.initial_temperature,
        update_thermal_mass=cfg.update_thermal_mass,
    )
    _, temps = read_snapshot_csv(ctx.check_csv)
    err = float(np.max(normalized_error(temps, ref.final_temps)))
    return err <= ROUNDOFF_TOL, (f"field at t = {t_check:g} s vs forward oracle: "
                                 f"max normalized {err:.3e} (tol {ROUNDOFF_TOL:g})")


_WORST_RE = re.compile(r"worst normalized ([0-9.eE+-]+) .*: (OK|EXCEEDED)")
_LAMBDA_RE = re.compile(r"t =\s*([0-9.eE+-]+) s\s+lambda_max = ([0-9.eE+-]+) 1/s.*\((\d+) iterations\)")


def _check_verify_verdict(ctx: "Context") -> tuple[bool, str]:
    match = _WORST_RE.search(ctx.first_stdout or "")
    if not match:
        return False, "no verdict line in the verify output"
    ctx.max_node_error = float(match.group(1))
    return match.group(2) == "OK", f"verify verdict {match.group(2)}, worst normalized {match.group(1)}"


def _check_dense_lambda(ctx: "Context") -> tuple[bool, str]:
    """Each sampled lambda_max within 1 % of a dense generalized eigensolve."""
    from fedbht import oracle
    from fedbht.config import load_scenario
    from fedbht.integrator import build_thermal_state
    from fedbht.mesh import precompute

    samples = _LAMBDA_RE.findall(ctx.first_stdout or "")
    if not samples:
        return False, "no lambda_max lines in the stability output"
    cfg = load_scenario(ctx.scenes[0].scenario)
    state = build_thermal_state(cfg.mesh, precompute(cfg.mesh), cfg.material,
                                cfg.perfusion, cfg.boundary, cfg.initial_temperature)
    assembler = oracle.OracleAssembler(cfg.mesh, cfg.material)
    worst = 0.0
    for t, lam, _ in samples:
        coords = cfg.mesh.nodes + cfg.deformation.displacements_at(float(t), cfg.mesh).displacements
        k = assembler.stiffness(coords=coords, temps=state.T)
        dense = oracle.dense_lambda_max(k, state.lumped_mass, state.perfusion_diag,
                                        state.dirichlet_mask)
        worst = max(worst, abs(float(lam) - dense) / dense)
    ok = worst <= LAMBDA_REL_TOL
    return ok, f"{len(samples)} lambda_max samples vs dense eigh: worst gap {worst:.2e} (tol {LAMBDA_REL_TOL:g})"


CHECKS = {
    "run": _check_forward_oracle,
    "verify": _check_verify_verdict,
    "stability": _check_dense_lambda,
}


# -- metrics -------------------------------------------------------------------

def _hi_percentile(values: list[float], calls_per_rep: int) -> tuple[float, float]:
    """The highest ladder percentile with at least ten of one repetition's
    calls beyond it, read from ``values`` pooled over repetitions. The
    percentile depends on the command alone, not on how many repetitions
    fitted into the window."""
    chosen = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if calls_per_rep * (100.0 - p) >= 1000.0 - 1e-6:
            chosen = p
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(chosen / 100.0 * (len(ordered) - 1))))
    return ordered[index], chosen


def _layer_stats(trace: dict) -> dict:
    """Per span name: calls, total and self seconds, per-call durations."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    top_level = trace["import_end"] - trace["spawn"]
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["s"] += (end - start) - child_time[i]
        entry["durations"].append(end - start)
        if parent < 0:
            top_level += end - start
    return {
        "layers": stats,
        "import_s": trace["import_end"] - trace["spawn"],
        "unattributed_s": trace["wall_s"] - top_level,
        "iterations": sum(it for it, _ in trace["estimates"]),
        "unconverged": sum(1 for _, conv in trace["estimates"] if not conv),
    }


TRACED_FUNCTIONS = tuple(dict.fromkeys(name for name, _, _ in TRACE_TARGETS))


def per_layer_metrics(traced: list[Rep], untraced: list[Rep], n_elements: int) -> dict:
    """Medians over traced repetitions; calls are exact and taken from the
    first (every repetition runs the same deterministic command)."""
    per_rep = [_layer_stats(rep.trace) for rep in traced] or [
        {"layers": {}, "import_s": 0.0, "unattributed_s": 0.0, "iterations": 0, "unconverged": 0}
    ]
    out: dict[str, tuple[float, str]] = {}

    def med(values):
        return statistics.median(values) if values else 0.0

    for name in TRACED_FUNCTIONS:
        entries = [s["layers"].get(name, {"calls": 0, "s": 0.0, "durations": []}) for s in per_rep]
        out[f"{name}.calls"] = (entries[0]["calls"], "count")
        out[f"{name}.s"] = (med([e["s"] for e in entries]), "s")
    durations = [d * 1000.0 for s in per_rep for d in s["layers"].get("kernels.apply", {}).get("durations", [])]
    if durations:
        hi, pct = _hi_percentile(durations, out["kernels.apply.calls"][0])
        p50 = statistics.median(durations)
    else:
        hi = pct = p50 = 0.0
    apply_s = out["kernels.apply.s"][0]
    out["kernels.apply.ms_p50"] = (p50, "ms")
    out["kernels.apply.ms_hi"] = (hi, "ms")
    out["kernels.apply.ms_hi_pct"] = (pct, "percentile")
    out["kernels.apply.elem_per_s"] = (
        n_elements * out["kernels.apply.calls"][0] / apply_s if apply_s > 0 else 0.0, "1/s")
    out["stability.iterations"] = (per_rep[0]["iterations"], "count")
    out["stability.unconverged"] = (per_rep[0]["unconverged"], "count")
    out_bytes = traced[0].out_bytes if traced else 0
    write_s = out["output.write_record_outputs.s"][0] + out["output.write_manifest.s"][0]
    out["output.bytes"] = (out_bytes, "bytes")
    out["output.mb_per_s"] = (out_bytes / 1e6 / write_s if write_s > 0 else 0.0, "MB/s")
    out["process.import_s"] = (med([s["import_s"] for s in per_rep]), "s")
    traced_wall = med([rep.wall_s for rep in traced])
    untraced_wall = med([rep.wall_s for rep in untraced])
    out["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")
    out["trace.unattributed_s"] = (med([s["unattributed_s"] for s in per_rep]), "s")
    return out


# -- provenance ----------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def provenance(scene) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu_model = ""
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind = _read(f"{base}/level"), _read(f"{base}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{base}/size")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "thread_env_children": {k: _child_env().get(k) for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches_per_core": caches,
        "element_cache_bytes_computed": scene.element_cache_bytes,
    }


# -- measurement loop ----------------------------------------------------------

@dataclass
class Context:
    command: str
    scenes: list
    work: str
    first_digest: dict = field(default_factory=dict)  # scene index -> digest
    first_stdout: str | None = None  # of the first scene
    check_csv: str | None = None
    max_node_error: float | None = None


def measure(workload: str, seed: int, seconds: float, trace: bool, work: str,
            tiny: bool = False, min_reps: int = 1) -> dict:
    """Run one workload for ``seconds`` (and at least ``min_reps`` untraced
    repetitions) and return the full result."""
    from scenes import WORKLOAD_COMMANDS, write_scenes

    command = WORKLOAD_COMMANDS[workload][0]
    os.makedirs(work, exist_ok=True)
    scenes = write_scenes(workload, os.path.join(work, "scene"), seed, tiny=tiny)
    scene = scenes[0]
    ctx = Context(command, scenes, work)

    reps: list[Rep] = []
    setups: list[float] = []
    probe_failures = 0
    # Repetitions go round the scenes, and so do set-up probes, separately,
    # so that every scene gets about as many probes as the others.
    rounds = probes = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        index = rounds % len(scenes)
        rounds += 1
        reps.append(_one_rep(ctx, False, index))
        if trace:
            reps.append(_one_rep(ctx, True, index))
        else:
            for _ in range(SETUP_PROBES_PER_REP):
                setup = _setup_probe(ctx, probes % len(scenes))
                probes += 1
                if setup is None:
                    probe_failures += 1
                else:
                    setups.append(setup)
        now = time.perf_counter()
        # Start another round only if at least half of it fits the window,
        # so the measured time centres on ``seconds``.
        if (now + (now - began) / 2 >= start + seconds
                and sum(not r.traced for r in reps) >= min_reps):
            break

    checks = []
    try:
        ok, message = CHECKS[command](ctx)
    except Exception as err:  # a failed check is counted, not fatal
        ok, message = False, f"{type(err).__name__}: {err}"
    checks.append({"name": f"{command} oracle check", "ok": ok, "message": message})

    attempted = len(reps) + len(setups) + probe_failures + len(checks)
    failed = sum(not r.ok for r in reps) + probe_failures + sum(not c["ok"] for c in checks)
    untraced = [r for r in reps if not r.traced]
    end_to_end = {"wall_s": (statistics.median(r.wall_s for r in untraced), "s")}
    if not trace:
        end_to_end["setup_s"] = (statistics.median(setups) if setups else 0.0, "s")
    end_to_end["peak_rss_mb"] = (statistics.median(r.rss_mb for r in untraced), "MB")
    end_to_end["error_rate"] = (failed / attempted, "ratio")
    if ctx.max_node_error is not None:
        end_to_end["max_node_error"] = (ctx.max_node_error, "1")
    result = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "scene": vars(scene),
        "jitter_seeds": [s.jitter_seed for s in scenes],
        "attempted": attempted,
        "failed": failed,
        "repetitions": [
            {"traced": r.traced, "wall_s": r.wall_s, "rss_mb": r.rss_mb, "ok": r.ok,
             "message": r.message} for r in reps
        ],
        "setup_probes_s": setups,
        "checks": checks,
        "end_to_end": end_to_end,
        "provenance": provenance(scene),
    }
    if trace:
        traced = [r for r in reps if r.traced and r.ok]
        result["per_layer"] = per_layer_metrics(traced, untraced, scene.elements)
        result["spans"] = [
            {"rep": i, "spawn": r.trace["spawn"], "import_end": r.trace["import_end"],
             "spans": r.trace["spans"]} for i, r in enumerate(traced)
        ]
    return result


def contract_line(result: dict, spec: dict) -> dict:
    """The last output line: only the metrics BENCHMARK.json names."""
    section = "per_layer" if result["trace"] else "end_to_end"
    source = result[section]
    metrics = {}
    for entry in spec[section]:
        value, unit = source[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": unit}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def report(result: dict) -> str:
    scene = result["scene"]
    lines = [
        f"workload {result['workload']} (seed {result['seed']}, trace {int(result['trace'])}): "
        f"{scene['nodes']} nodes, {scene['elements']} {scene['element_type']}, variant "
        f"{scene['variant']}, {scene['steps']} steps, {scene['snapshots']} snapshots, "
        f"{len(result['jitter_seeds'])} scene(s), jitter seeds {result['jitter_seeds']}",
        "provenance: " + json.dumps(result["provenance"], sort_keys=True),
        f"repetitions: {sum(not r['traced'] for r in result['repetitions'])} untraced, "
        f"{sum(r['traced'] for r in result['repetitions'])} traced, "
        f"{len(result['setup_probes_s'])} set-up probes",
    ]
    for r in result["repetitions"]:
        if not r["ok"]:
            lines.append(f"  FAILED repetition: {r['message']}")
    for c in result["checks"]:
        lines.append(f"check {'ok' if c['ok'] else 'FAILED'}: {c['message']}")
    lines.append("end-to-end (untraced):")
    for name, (value, unit) in result["end_to_end"].items():
        lines.append(f"  {name:<40} {value:>14.6g} {unit}")
    if result["trace"]:
        lines.append("per-layer (traced):")
        for name, (value, unit) in result["per_layer"].items():
            lines.append(f"  {name:<40} {value:>14.6g} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fedbht", "cli.py")):
        print(f"error: no fedbht sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from scenes import WORKLOAD_COMMANDS

    if args.workload not in WORKLOAD_COMMANDS:
        print(f"error: unknown workload {args.workload!r}; choose from {list(WORKLOAD_COMMANDS)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(report(result))
    print(json.dumps(contract_line(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
