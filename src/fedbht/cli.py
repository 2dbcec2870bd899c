"""Command line front end.

Subcommands:

    run        execute a scenario, write snapshots, probes and a manifest
    verify     rerun a scenario against the assembled-matrix reference
               solver and gate the error metrics
    stability  print the estimated spectral bound and critical time step
    bench      element-kernel and mesh-scaling benchmarks
    make-mesh  generate the bundled block scenario (mesh, sets, ramp, JSON)
    metrics    compare two snapshot CSV files

Exit codes: 0 success, 2 configuration error or refused dt, 3 the
transient failed mid-run, 4 verification metrics exceeded tolerance;
:data:`STOPS` maps each way a run stops, and any other error, to its code.

Relative paths inside a scenario file resolve against the scenario file's
directory, including its output_dir; the --out flag resolves against the
working directory and wins.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from . import __version__, metrics, output, stability
from .config import ScenarioConfig, load_scenario
from .errors import FedbhtError
from .integrator import STOP_KINDS, build_thermal_state, run
from .kernels import ConductionOperator, Variant

EXIT_OK, EXIT_CONFIG, EXIT_STOPPED, EXIT_TOLERANCE = 0, 2, 3, 4

# the exit code and stderr lead of each run outcome kind; None: any other error
STOPS = {"refused": (EXIT_CONFIG, "refusing to run"), "diverged": (EXIT_STOPPED, "diverged"),
         "inverted": (EXIT_STOPPED, "inverted element"), None: (EXIT_CONFIG, "error")}


def _stop(kind, message) -> int:
    code, lead = STOPS[kind]
    print(f"{lead}: {message}", file=sys.stderr)
    return code


def _resolve_out_dir(cfg: ScenarioConfig, scenario_path: str, override) -> str:
    if override:
        return override
    if os.path.isabs(cfg.output_dir):
        return cfg.output_dir
    return os.path.join(os.path.dirname(os.path.abspath(scenario_path)), cfg.output_dir)


def _run_production(cfg: ScenarioConfig):
    return run(
        cfg.mesh, cfg.precomp, cfg.material, cfg.perfusion, cfg.boundary,
        cfg.deformation, cfg.schedule, cfg.variant,
        initial_temperature=cfg.initial_temperature,
        probes=cfg.probes,
        update_thermal_mass=cfg.update_thermal_mass,
        dt_override=cfg.dt_override,
    )


def _cmd_run(args) -> int:
    cfg = load_scenario(args.scenario)
    out_dir = _resolve_out_dir(cfg, args.scenario, args.out)
    record = _run_production(cfg)
    t0 = time.perf_counter()
    names = output.write_record_outputs(out_dir, cfg.mesh, record)
    record.timings["output"] = time.perf_counter() - t0
    output.write_manifest(os.path.join(out_dir, "manifest.json"), cfg.raw, record, names)
    stop = record.outcome
    print(f"completed {record.n_steps} steps of {record.dt:g} s" if stop is None
          else f"{stop.kind} at step {stop.step} (t = {stop.time:g} s)")
    if record.stability is not None:
        print(f"critical step estimate: {record.stability.dt_critical:.6g} s "
              f"(lambda_max = {record.stability.lambda_max:.6g} 1/s)")
    print(f"wrote {len(names)} snapshots and manifest.json to {out_dir}")
    return EXIT_OK if stop is None else _stop(stop.kind, stop.message)


def _cmd_verify(args) -> int:
    cfg = load_scenario(args.scenario)
    record = _run_production(cfg)
    if record.outcome is not None:
        return _stop(record.outcome.kind, record.outcome.message)
    # only a verify whose production run finished loads the oracle
    from . import oracle

    reference = oracle.reference_transient(
        cfg.mesh, cfg.material, cfg.perfusion, cfg.boundary,
        cfg.deformation, cfg.schedule,
        scheme=args.scheme,
        initial_temperature=cfg.initial_temperature,
        update_thermal_mass=cfg.update_thermal_mass,
    )
    # with no snapshot times, the final fields, at the time the walk ends
    times = record.snapshot_times or [record.n_steps * record.dt]
    candidate = record.snapshots or [record.final_temps]
    ref_snaps = reference.snapshots or [reference.final_temps]
    report = metrics.compare_snapshots(times, candidate, ref_snaps)
    for comp in report.comparisons:
        print(f"t = {comp.time:8g} s  max normalized {comp.max_normalized:.3e}  "
              f"mean {comp.mean_normalized:.3e}  total relative {comp.total_relative:.3e}")
    ok = report.within(args.node_tol, args.total_tol)
    print(f"worst normalized {report.worst_normalized:.3e} (tol {args.node_tol:g}), "
          f"worst total {report.worst_total:.3e} (tol {args.total_tol:g}): "
          f"{'OK' if ok else 'EXCEEDED'}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        metrics.write_error_histogram(
            os.path.join(args.out, "error_histogram.csv"),
            times, candidate, ref_snaps,
        )
    return EXIT_OK if ok else EXIT_TOLERANCE


def _cmd_stability(args) -> int:
    cfg = load_scenario(args.scenario)
    state = build_thermal_state(
        cfg.mesh, cfg.precomp, cfg.material, cfg.perfusion, cfg.boundary,
        cfg.initial_temperature,
    )
    operator = ConductionOperator(
        cfg.mesh, cfg.precomp, cfg.material, cfg.variant,
        reference_temperature=cfg.initial_temperature,
    )
    # a moving mesh is sampled at the start and the end of the schedule;
    # otherwise every time gives the same estimate
    deformed = cfg.variant.uses_deformation
    times = [0.0]
    if deformed and cfg.deformation.time_varying:
        times.append(float(cfg.schedule.total_time))
    estimates = []
    for t in times:
        est = stability.estimate_critical_dt(
            operator, state,
            cfg.deformation.displacements_at(t, cfg.mesh) if deformed else None,
        )
        estimates.append(est)
        print(f"t = {t:8g} s  lambda_max = {est.lambda_max:.6g} 1/s  "
              f"dt_critical = {est.dt_critical:.6g} s  "
              f"({est.iterations} iterations) "
              f"{'converged' if est.converged else 'NOT CONVERGED'}")
    tightest = min(estimates, key=lambda est: est.dt_critical)
    verdict = "within" if tightest.admits(cfg.schedule.dt) else "EXCEEDS"
    print(f"schedule dt = {cfg.schedule.dt:g} s {verdict} the critical step")
    return EXIT_OK


def _cmd_bench(args) -> int:
    # only bench and make-mesh load fedbht.bench and fedbht.blockmesh
    from . import bench

    reps = bench.DEFAULT_REPS if args.reps is None else args.reps
    batch = bench.DEFAULT_BATCH if args.batch is None else args.batch
    run_kernels = args.kernels or not args.simulation
    run_simulation = args.simulation or not args.kernels
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    if run_kernels:
        timings = bench.bench_element_kernels(reps=reps, batch=batch)
        print(bench.kernel_report(timings))
        if args.out:
            bench.write_kernel_csv(os.path.join(args.out, "kernels.csv"), timings)
    if run_simulation:
        scaling = bench.bench_simulation(
            densities=tuple(args.densities), steps=args.steps,
            variant=Variant.from_string(args.variant),
        )
        print(bench.scaling_report(scaling))
        if args.out:
            bench.write_scaling_csv(os.path.join(args.out, "scaling.csv"), scaling)
    return EXIT_OK


def _cmd_make_mesh(args) -> int:
    from .blockmesh import BlockSceneParams, write_desk_scenario

    params = BlockSceneParams()
    if args.cells is not None:
        params.nx = params.ny = params.nz = args.cells
    if args.dt is not None:
        params.dt = args.dt
    if args.total_time is not None:
        params.total_time = args.total_time
    path = write_desk_scenario(args.out_dir, params)
    print(f"wrote scenario {path}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    _, candidate = output.read_snapshot_csv(args.candidate)
    _, reference = output.read_snapshot_csv(args.reference)
    report = metrics.compare_snapshots([0.0], [candidate], [reference])  # files hold no time
    (comp,) = report.comparisons
    print(f"max normalized {comp.max_normalized:.6e}")
    print(f"mean normalized {comp.mean_normalized:.6e}")
    print(f"total relative {comp.total_relative:.6e}")
    return EXIT_OK if report.within(args.node_tol, args.total_tol) else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedbht",
        description="explicit bio-heat transient solver on deforming meshes",
    )
    parser.add_argument("--version", action="version", version=f"fedbht {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", help="output directory (default from the scenario)")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser(
        "verify", help="compare against the assembled-matrix reference"
    )
    p_verify.add_argument("scenario")
    p_verify.add_argument("--scheme", choices=("backward", "forward"),
                          default="backward")
    p_verify.add_argument("--node-tol", type=float, default=1e-3,
                          help="largest allowed range-normalized node error")
    p_verify.add_argument("--total-tol", type=float, default=5e-4,
                          help="largest allowed field-wide relative error")
    p_verify.add_argument("--out", help="directory for the error histogram")
    p_verify.set_defaults(func=_cmd_verify)

    p_stab = sub.add_parser("stability", help="estimate the critical time step")
    p_stab.add_argument("scenario")
    p_stab.set_defaults(func=_cmd_stability)

    p_bench = sub.add_parser("bench", help="run microbenchmarks")
    p_bench.add_argument("--kernels", action="store_true",
                         help="only the element-kernel timings")
    p_bench.add_argument("--simulation", action="store_true",
                         help="only the mesh-scaling benchmark")
    p_bench.add_argument("--reps", type=int)  # None: bench.DEFAULT_REPS
    p_bench.add_argument("--batch", type=int)  # None: bench.DEFAULT_BATCH
    p_bench.add_argument("--steps", type=int, default=40)
    p_bench.add_argument("--densities", type=int, nargs="+",
                         default=[6, 8, 10, 12],
                         help="cells per axis of each scaling mesh")
    p_bench.add_argument("--variant", default="i",
                         help="formulation for the scaling benchmark (i..v)")
    p_bench.add_argument("--out", help="directory for CSV results")
    p_bench.set_defaults(func=_cmd_bench)

    p_mesh = sub.add_parser("make-mesh", help="write the bundled block scenario")
    p_mesh.add_argument("out_dir")
    p_mesh.add_argument("--cells", type=int, default=None,
                        help="cells per axis (default 13)")
    p_mesh.add_argument("--dt", type=float, default=None)
    p_mesh.add_argument("--total-time", type=float, default=None)
    p_mesh.set_defaults(func=_cmd_make_mesh)

    p_metrics = sub.add_parser("metrics", help="compare two snapshot CSV files")
    p_metrics.add_argument("candidate")
    p_metrics.add_argument("reference")
    p_metrics.add_argument("--node-tol", type=float, default=None)
    p_metrics.add_argument("--total-tol", type=float, default=None)
    p_metrics.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (FedbhtError, ValueError, OSError) as err:
        return _stop(STOP_KINDS.get(type(err)), err)


if __name__ == "__main__":
    sys.exit(main())
