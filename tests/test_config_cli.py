import argparse
import functools
import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fedbht
from fedbht import mesh as mesh_module
from fedbht import stability
from fedbht.blockmesh import BlockSceneParams, write_desk_scenario
from fedbht.cli import build_parser
from fedbht.cli import main as cli_main
from fedbht.config import load_scenario
from fedbht.errors import ConfigError, DivergenceError
from fedbht.integrator import Schedule, build_thermal_state, run
from fedbht.kernels import ConductionOperator, Variant
from fedbht.material import PerfusionParams
from fedbht.output import read_snapshot_csv


def small_params(**overrides):
    base = dict(nx=6, ny=6, nz=6, dt=0.1, total_time=5.0,
                snapshot_times=(2.5, 5.0), source_off_time=2.5)
    base.update(overrides)
    return BlockSceneParams(**base)


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    return write_desk_scenario(out, small_params())


def rewrite(scenario_path, tmp_path, mutate):
    """Copy the scenario JSON with one field mutated; assets stay shared."""
    with open(scenario_path) as fh:
        doc = json.load(fh)
    src_dir = os.path.dirname(scenario_path)
    doc["mesh_path"] = os.path.join(src_dir, doc["mesh_path"])
    doc["node_sets"] = {k: os.path.join(src_dir, v)
                        for k, v in doc["node_sets"].items()}
    doc["deformation"]["path"] = os.path.join(src_dir, doc["deformation"]["path"])
    mutate(doc)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_scenario_roundtrip(scenario_path):
    cfg = load_scenario(scenario_path)
    assert cfg.variant is Variant.DEFORMED_ANISO_TEMP_DEP
    assert cfg.schedule.dt == 0.1
    assert cfg.schedule.total_time == 5.0
    assert cfg.schedule.snapshot_times == (2.5, 5.0)
    assert cfg.schedule.events == ((2.5, "source_off"),)
    assert cfg.mesh.n_nodes == 7 ** 3
    assert cfg.mesh.tets.shape[0] == 6 * 6 ** 3
    (tets,) = cfg.precomp
    assert tets.conn is cfg.mesh.tets
    assert float(sum(f.weights.sum() for f in cfg.precomp)) == pytest.approx(0.06 ** 3)
    assert cfg.material.isotropic
    assert cfg.material.conductivity.evaluate(37.0) == pytest.approx(0.53)
    assert cfg.perfusion.w_b == 0.0
    assert len(cfg.boundary.dirichlet) == 1
    assert len(cfg.boundary.fluxes) == 2
    assert len(cfg.boundary.films) == 1
    assert len(cfg.probes) == 2
    assert cfg.update_thermal_mass is True
    assert cfg.output_dir == "out"


def test_perfusion_defaults_are_the_dataclass_defaults(scenario_path, tmp_path):
    cfg = load_scenario(rewrite(scenario_path, tmp_path, lambda d: d.update(perfusion={})))
    assert cfg.perfusion == PerfusionParams()
    assert PerfusionParams(w_b=1.0).c_b == 3617.0


def test_tensor_conductivity_table(scenario_path, tmp_path):
    tensor = {"xx": [[37.0, 0.53], [65.0, 0.61]], "yy": 0.47, "zz": 0.58, "xy": 0.02}
    path = rewrite(scenario_path, tmp_path,
                   lambda d: d["material"].update(conductivity=tensor))
    cfg = load_scenario(path)
    assert not cfg.material.isotropic
    np.testing.assert_allclose(cfg.material.conductivity.evaluate(51.0),
                               [[0.57, 0.02, 0.0], [0.02, 0.47, 0.0], [0.0, 0.0, 0.58]])


def test_missing_required_key(scenario_path, tmp_path):
    path = rewrite(scenario_path, tmp_path, lambda d: d.pop("material"))
    with pytest.raises(ConfigError, match="material"):
        load_scenario(path)


def test_unknown_variant(scenario_path, tmp_path):
    path = rewrite(scenario_path, tmp_path,
                   lambda d: d.update(variant="vii"))
    with pytest.raises(ConfigError, match="variant"):
        load_scenario(path)


_IDENTITY = {"kind": "identity"}
_AFFINE = {"kind": "affine", "matrix": [[1.01, 0, 0], [0, 1, 0], [0, 0, 1]]}
_CONSTANT_K = [[37.0, 0.53]]
_TENSOR_K = {"xx": 0.53, "yy": 0.47, "zz": 0.58}
_TENSOR_K_OF_T = {"xx": [[37.0, 0.53], [65.0, 0.61]], "yy": 0.47, "zz": 0.58}


def with_physics(variant, deformation=None, conductivity=None):
    """A mutate for rewrite: the variant, and the deformation and
    conductivity when given (the desk scene moves along a trajectory and
    its scalar conductivity rises with temperature)."""
    def mutate(doc):
        doc["variant"] = variant
        if deformation is not None:
            doc["deformation"] = deformation
        if conductivity is not None:
            doc["material"]["conductivity"] = conductivity
    return mutate


@pytest.mark.parametrize("mutate, fact", [
    (with_physics("ii"), "a deformation other than identity needs variant i"),
    (with_physics("v", _AFFINE, _CONSTANT_K), "a deformation other than identity needs variant i"),
    (with_physics("iii", _IDENTITY),
     "a temperature-dependent conductivity needs variant i, ii or iv"),
    (with_physics("iv", _IDENTITY, _TENSOR_K), "a tensor conductivity needs variant i, ii or iii"),
], ids=["trajectory", "affine", "k_of_T", "tensor"])
def test_variant_that_drops_stated_physics_is_refused(scenario_path, tmp_path, capsys,
                                                      mutate, fact):
    path = rewrite(scenario_path, tmp_path, mutate)
    with pytest.raises(ConfigError, match=re.escape(fact)) as err:
        load_scenario(path)
    assert err.value.field == "variant"
    out = tmp_path / "o"
    assert cli_main(["run", path, "--out", str(out)]) == 2
    assert "error: variant: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant, deformation, conductivity", [
    ("v", _IDENTITY, _CONSTANT_K),  # the benchmark's hex block
    ("iii", _IDENTITY, _TENSOR_K),
    ("iv", _IDENTITY, None),
    ("ii", _IDENTITY, _TENSOR_K_OF_T),
    ("i", _AFFINE, _TENSOR_K_OF_T),
])
def test_variant_that_keeps_stated_physics_loads(scenario_path, tmp_path, variant,
                                                 deformation, conductivity):
    path = rewrite(scenario_path, tmp_path, with_physics(variant, deformation, conductivity))
    assert load_scenario(path).variant.roman == variant


def test_unknown_boundary_kind(scenario_path, tmp_path):
    def mutate(d):
        d["boundary"]["vessel_wall"] = {"kind": "robin", "temperature": 37.0}
    path = rewrite(scenario_path, tmp_path, mutate)
    with pytest.raises(ConfigError, match="vessel_wall"):
        load_scenario(path)


def test_boundary_on_undeclared_set(scenario_path, tmp_path):
    def mutate(d):
        d["boundary"]["mystery"] = {"kind": "dirichlet", "temperature": 37.0}
    path = rewrite(scenario_path, tmp_path, mutate)
    with pytest.raises(ConfigError, match="mystery"):
        load_scenario(path)


def test_non_increasing_table_rejected(scenario_path, tmp_path):
    def mutate(d):
        d["material"]["conductivity"] = [[37.0, 0.53], [37.0, 0.57]]
    path = rewrite(scenario_path, tmp_path, mutate)
    with pytest.raises(ConfigError, match="material"):
        load_scenario(path)


@pytest.mark.parametrize("key, value", [
    ("density", float("nan")),
    ("conductivity", float("inf")),
    ("density", True),  # json reads true; it is no density of 1
])
def test_bare_number_tables_must_be_finite_numbers(scenario_path, tmp_path, capsys, key, value):
    path = rewrite(scenario_path, tmp_path, lambda d: d["material"].update({key: value}))
    assert cli_main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert f"material.{key}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def set_key(doc, dotted, value):
    *parents, key = dotted.split(".")
    for name in parents:
        doc = doc[name]
    doc[key] = value


@pytest.mark.parametrize("field, value", [
    ("dt_override", "false"),
    ("update_thermal_mass", "true"),
    ("boundary.heat_source.schedulable", "no"),
])
def test_booleans_must_be_json_booleans(scenario_path, tmp_path, field, value):
    # bool("false") is True: "dt_override": "false" would switch the
    # stability guard off
    path = rewrite(scenario_path, tmp_path, lambda doc: set_key(doc, field, value))
    with pytest.raises(ConfigError, match="expected true or false") as err:
        load_scenario(path)
    assert err.value.field == field


_HUGE = 10 ** 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("key, value, field", [
    # a wrong kind where a path or a list belongs
    ("mesh_path", 5, "mesh_path"),
    ("node_sets.vessel_wall", 7, "node_sets.vessel_wall"),
    ("deformation.path", 3, "deformation.path"),
    ("schedule.events", 1, "schedule.events"),
    ("schedule.snapshot_times", 2.5, "schedule.snapshot_times"),
    ("probes", 3, "probes"),
    # numbers beyond the float range
    ("schedule.dt", _HUGE, "schedule.dt"),
    ("material.density", _HUGE, "material.density"),
    ("deformation", {"kind": "affine", "matrix": [[_HUGE, 0, 0], [0, 1, 0], [0, 0, 1]]},
     "deformation.matrix[0][0]"),
    # strings and booleans are no numbers
    ("schedule.dt", "0.01", "schedule.dt"),
    ("schedule.events", [{"time": "1", "action": "source_off"}], "schedule.events[0].time"),
    ("initial_temperature", True, "initial_temperature"),
    ("material.density", [[37.0, True]], "material.density[0][1]"),
    ("deformation", {"kind": "affine", "matrix": [[True] * 3] * 3},
     "deformation.matrix[0][0]"),
    ("schedule.dt", True, "schedule.dt"),
    # keys the loader does not know: a typo would drop every snapshot, and a
    # source_off event at t = 0 is how a run starts with the heaters off
    ("schedule.snapshot_time", [2.5], "schedule.snapshot_time"),
    ("dt_overide", True, "dt_overide"),
    ("material.conductivity", {"xx": 0.5, "yy": 0.5, "zz": 0.5, "xq": 0.1},
     "material.conductivity.xq"),
    ("schedule.initial_source_on", False, "schedule.initial_source_on"),
], ids=lambda value: "huge" if value is _HUGE else None)
def test_scenario_faults_exit_2_naming_their_field(scenario_path, tmp_path, capsys,
                                                  key, value, field):
    path = rewrite(scenario_path, tmp_path, lambda doc: set_key(doc, key, value))
    out = tmp_path / "o"
    assert cli_main(["run", path, "--out", str(out)]) == 2
    assert f"error: {field}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, line", [("0\nx\n", 2), ("# wall\n\n999\n", 3), ("0 1\n", 1)])
def test_bad_node_set_exits_2_naming_its_set(scenario_path, tmp_path, capsys, text, line):
    bad = tmp_path / "bad.nodes"
    bad.write_text(text)
    path = rewrite(scenario_path, tmp_path,
                   lambda doc: doc["node_sets"].update(vessel_wall=str(bad)))
    out = tmp_path / "o"
    assert cli_main(["run", path, "--out", str(out)]) == 2
    assert f"error: node_sets.vessel_wall: line {line}: " in capsys.readouterr().err
    assert not out.exists()


def _node_set_with_underscore(scenario_path, tmp_path):
    bad = tmp_path / "bad.nodes"
    bad.write_text("0\n1_000\n", encoding="utf-8")
    path = rewrite(scenario_path, tmp_path,
                   lambda doc: doc["node_sets"].update(vessel_wall=str(bad)))
    return path, "node_sets.vessel_wall: line 2: invalid node index '1_000'"


def _tet_row_in_arabic_indic_digits(scenario_path, tmp_path):
    with open(os.path.join(os.path.dirname(scenario_path), "block.mesh")) as fh:
        lines = fh.readlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("TET4"))
    at = next(i for i in range(first + 1, len(lines)) if "12" in lines[i].split())
    row = " ".join("١٢" if f == "12" else f for f in lines[at].split())
    lines[at] = row + "\n"
    bad = tmp_path / "bad.mesh"
    bad.write_text("".join(lines), encoding="utf-8")
    path = rewrite(scenario_path, tmp_path, lambda doc: doc.update(mesh_path=str(bad)))
    return path, f"mesh_path: line {at + 1}: invalid TET4 entry {row!r}"


def _header_number(field, name, keyword, number, message):
    """A maker whose scenario's ``name`` asset (the file ``field`` names)
    has ``number`` in its last ``keyword`` header."""
    def make(scenario_path, tmp_path):
        with open(os.path.join(os.path.dirname(scenario_path), name)) as fh:
            lines = fh.readlines()
        at = max(i for i, line in enumerate(lines) if line.startswith(keyword + " "))
        lines[at] = f"{keyword} {number}\n"
        bad = tmp_path / ("bad" + os.path.splitext(name)[1])
        bad.write_text("".join(lines), encoding="utf-8")

        def point(doc):
            if field == "mesh_path":
                doc["mesh_path"] = str(bad)
            else:
                doc["deformation"]["path"] = str(bad)
        path = rewrite(scenario_path, tmp_path, point)
        return path, f"{field}: line {at + 1}: {message} '{number}'"
    return make


@pytest.mark.parametrize("make", [
    _node_set_with_underscore,
    _tet_row_in_arabic_indic_digits,
    pytest.param(_header_number("mesh_path", "block.mesh", "NODES", "\u0664",
                                "invalid NODES count"), id="nodes_count_arabic_indic"),
    pytest.param(_header_number("mesh_path", "block.mesh", "TET4", "1_0",
                                "invalid TET4 count"), id="tet4_count_underscore"),
    pytest.param(_header_number("deformation.path", "ramp.traj", "KEYFRAME", "1_0",
                                "invalid keyframe time"), id="keyframe_time_underscore"),
])
def test_numbers_numpy_refuses_exit_2_naming_their_line(scenario_path, tmp_path, capsys, make):
    # Python's int() and float() read 1_000 and the Arabic-Indic digits of
    # 12; numpy's text reader, the one that converts scenario files, rows
    # and headers alike, does not
    path, message = make(scenario_path, tmp_path)
    out = tmp_path / "o"
    assert cli_main(["run", path, "--out", str(out)]) == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_broken_mesh_reference(scenario_path, tmp_path):
    path = rewrite(scenario_path, tmp_path,
                   lambda d: d.update(mesh_path="no_such.mesh"))
    with pytest.raises(ConfigError, match="mesh_path"):
        load_scenario(path)


def test_inverted_mesh_is_a_mesh_path_error(scenario_path, tmp_path):
    mesh_file = tmp_path / "inverted.mesh"
    mesh_file.write_text("NODES 4\n0 0 0\n1 0 0\n0 1 0\n0 0 -1\nTET4 1\n0 1 2 3\n")
    path = rewrite(scenario_path, tmp_path, lambda d: d.update(
        mesh_path=str(mesh_file), node_sets={}, boundary={}, probes=[],
        deformation={"kind": "identity"}))
    with pytest.raises(ConfigError, match="tet4 element 0") as err:
        load_scenario(path)
    assert err.value.field == "mesh_path"


@pytest.mark.parametrize("bad_row, row, message", [
    (5, "nan 0 0", "keyframe at t=1.5: node 5 has a non-finite displacement"),
    (0, "0 0", "line 346: expected 3 displacement components, got 2"),
])
def test_trajectory_faults_fail_at_load_and_name_the_field(scenario_path, tmp_path,
                                                          bad_row, row, message):
    # the rows of the second keyframe start at line 346
    rows = ["0 0 0"] * 7 ** 3
    rows[bad_row] = row
    traj = tmp_path / "bad.traj"
    traj.write_text("KEYFRAME 0\n" + "0 0 0\n" * 7 ** 3
                    + "KEYFRAME 1.5\n" + "\n".join(rows) + "\n")
    path = rewrite(scenario_path, tmp_path,
                   lambda d: d["deformation"].update(path=str(traj)))
    with pytest.raises(ConfigError) as err:
        load_scenario(path)
    assert err.value.field == "deformation.path"
    assert str(err.value).endswith(message)


@pytest.mark.parametrize("field, value, message", [
    ("matrix[1][1]", [[1, 0, 0], [0, "x", 0], [0, 0, 1]], "expected a number"),
    ("matrix[0][0]", [[float("inf"), 0, 0], [0, 1, 0], [0, 0, 1]], "must be finite"),
    ("offset[1]", [0.0, float("nan"), 0.0], "must be finite"),
    ("matrix", [[1, 0, 0], [0, 1, 0]], "expected 3 entries, got 2"),
    ("matrix[2]", [[1, 0, 0], [0, 1, 0], [0, 1]], "expected 3 entries, got 2"),
])
def test_affine_faults_name_the_field(scenario_path, tmp_path, field, value, message):
    key = field.split("[")[0]
    deformation = {"kind": "affine", "matrix": np.eye(3).tolist(), key: value}
    path = rewrite(scenario_path, tmp_path, lambda d: d.update(deformation=deformation))
    with pytest.raises(ConfigError, match=re.escape(message)) as err:
        load_scenario(path)
    assert err.value.field == f"deformation.{field}"


def test_non_finite_keyframe_time_exits_2(scenario_path, tmp_path, capsys):
    # the mesh would never reach a keyframe at t = inf and so never move
    rows = "0 0 0\n" * 7 ** 3
    traj = tmp_path / "bad.traj"
    traj.write_text("KEYFRAME 0\n" + rows + "KEYFRAME inf\n" + rows)
    path = rewrite(scenario_path, tmp_path,
                   lambda d: d["deformation"].update(path=str(traj)))
    assert cli_main(["run", path, "--out", str(tmp_path / "o")]) == 2
    assert "deformation.path: line 345: invalid keyframe time 'inf'" in capsys.readouterr().err


def test_garbage_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not valid json")
    with pytest.raises(ConfigError, match="JSON"):
        load_scenario(str(path))
    with pytest.raises(ConfigError):
        load_scenario(str(tmp_path / "missing.json"))


def test_cli_run_writes_outputs(scenario_path, tmp_path, capsys):
    out = tmp_path / "results"
    assert cli_main(["run", scenario_path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "completed 50 steps" in stdout
    for name in ("snapshot_2500.csv", "snapshot_2500.vtk",
                 "snapshot_5000.csv", "snapshot_5000.vtk",
                 "probes.csv", "manifest.json"):
        assert (out / name).exists(), name
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["diverged"] is False
    assert manifest["n_steps"] == 50
    assert manifest["config"]["schedule"]["dt"] == 0.1
    assert manifest["dt_critical"] > 0.1
    assert manifest["stability_converged"] is True
    timings = manifest["timings_seconds"]
    assert set(timings) >= {"thermal", "conduction", "output", "stability"}
    assert 0.0 < timings["conduction"] <= timings["thermal"]
    assert manifest["timings_seconds"]["output"] > 0.0
    assert manifest["timings_seconds"]["stability"] > 0.0
    assert manifest["provenance"] == {
        "fedbht_version": fedbht.__version__,
        "python_version": "%d.%d.%d" % sys.version_info[:3],
        "numpy_version": np.__version__,
        "variant": "i",
        "variant_name": "deformed_aniso_temp_dep",
        "cache_strategy": "pullback",
        "update_thermal_mass": True,
    }
    coords, temps = read_snapshot_csv(out / "snapshot_5000.csv")
    assert coords.shape == (7 ** 3, 3)
    assert temps.max() > 37.0  # the heater left a mark


def _cli_argv(command, scenario_path, tmp_path):
    return {"run": ["run", scenario_path, "--out", str(tmp_path / "o")],
            "stability": ["stability", scenario_path],
            "verify": ["verify", scenario_path, "--scheme", "forward"]}[command]


@pytest.mark.parametrize("command, expected", [("run", 1), ("stability", 1), ("verify", 1)])
def test_cli_precomputes_the_mesh_once(scenario_path, tmp_path, command, expected,
                                       monkeypatch):
    # load_scenario's precompute is the one the run uses; the oracle derives
    # its geometry itself and calls none
    original = mesh_module.precompute
    calls = []

    def counting(mesh):
        calls.append(mesh.n_nodes)
        return original(mesh)

    for name, module in list(sys.modules.items()):
        if name.startswith("fedbht") and getattr(module, "precompute", None) is original:
            monkeypatch.setattr(module, "precompute", counting)
    assert cli_main(_cli_argv(command, scenario_path, tmp_path)) == 0
    assert calls == [7 ** 3] * expected


# Runs one CLI command in a fresh interpreter and prints, as the last line,
# its exit code and the scipy, numpy.ma, numpy.random, oracle, bench and
# blockmesh modules it left loaded.
_IMPORT_PROBE = """
import json, sys
from fedbht.cli import main
code = main(sys.argv[1:])
loaded = sorted(m for m in sys.modules
                if m in ("fedbht.oracle", "fedbht.bench", "fedbht.blockmesh",
                         "scipy", "numpy.ma", "numpy.random")
                or m.startswith(("scipy.", "numpy.ma.", "numpy.random.")))
print(json.dumps({"code": code, "loaded": loaded}))
"""


def _python(code, *argv):
    """Run code in a fresh interpreter on this package; it must exit 0."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedbht.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


@pytest.mark.parametrize("command", ["run", "stability", "verify"])
def test_cli_never_loads_scipy(scenario_path, tmp_path, command):
    """The oracle is numpy only: no command loads scipy, no command loads
    numpy.ma (np.unique without return_inverse would, at about 5 ms) or
    numpy.random (the stability estimate starts from a fixed vector), and
    verify still loads the oracle (lazily, so run and stability do not).
    Only bench and make-mesh load fedbht.bench and fedbht.blockmesh."""
    done = _python(_IMPORT_PROBE, *_cli_argv(command, scenario_path, tmp_path))
    probe = json.loads(done.stdout.splitlines()[-1])
    assert probe["code"] == 0
    assert probe["loaded"] == (["fedbht.oracle"] if command == "verify" else [])


@pytest.mark.parametrize("code", [
    "import fedbht.blockmesh",
    "from fedbht.cli import main; assert main(['stability', sys.argv[1]]) == 0",
])
def test_formatting_is_compiled_only_by_a_writer(scenario_path, code):
    done = _python(f"import sys; {code}; print('fedbht.formatting' in sys.modules)",
                   scenario_path)
    assert done.stdout.splitlines()[-1] == "False"


def test_cli_rerun_is_byte_identical(scenario_path, tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert cli_main(["run", scenario_path, "--out", str(out1)]) == 0
    assert cli_main(["run", scenario_path, "--out", str(out2)]) == 0
    for name in ("snapshot_2500.csv", "snapshot_5000.csv",
                 "snapshot_2500.vtk", "snapshot_5000.vtk", "probes.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("override", [False, True])
def test_manifest_config_echo_reproduces_the_run(tmp_path, override):
    """Re-running the manifest's config echo, written next to the scenario,
    writes the same snapshots and probes byte for byte: guarded, and with
    dt_override at a dt the estimate refuses."""
    params = (small_params(dt=200.0, total_time=2000.0, snapshot_times=(1000.0, 2000.0),
                           source_off_time=1000.0) if override else small_params())
    scene = write_desk_scenario(tmp_path / "scene", params)
    if override:
        scene = rewrite(scene, tmp_path / "scene", lambda d: d.update(dt_override=True))
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli_main(["run", scene, "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    assert (manifest["dt_critical"] is None) is override
    echo = tmp_path / "scene" / "echo.json"
    echo.write_text(json.dumps(manifest["config"]))
    assert cli_main(["run", str(echo), "--out", str(second)]) == 0
    assert json.loads((second / "manifest.json").read_text())["config"] == manifest["config"]
    names = sorted(path.name for path in first.iterdir() if path.name != "manifest.json")
    assert names == sorted(path.name for path in second.iterdir() if path.name != "manifest.json")
    assert len(names) == 5 and "probes.csv" in names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_cli_stability_report(scenario_path, capsys):
    assert cli_main(["stability", scenario_path]) == 0
    stdout = capsys.readouterr().out
    assert "lambda_max" in stdout
    assert "dt_critical" in stdout
    assert "within the critical step" in stdout
    # deformed variant with a moving mesh is sampled at start and end
    assert stdout.count("iterations") == 2


def test_run_report_and_direct_call_make_one_estimate(scenario_path, tmp_path, monkeypatch,
                                                     capsys):
    # the vessel wall is held at 45 C over a 37 C body, so the estimate
    # freezes the conductivity at a non-uniform field
    path = rewrite(scenario_path, tmp_path,
                   lambda d: d["boundary"]["vessel_wall"].update(temperature=45.0))
    cfg = load_scenario(path)
    state = build_thermal_state(cfg.mesh, cfg.precomp, cfg.material, cfg.perfusion,
                                cfg.boundary, cfg.initial_temperature)
    assert state.T.min() < state.T.max()
    operator = ConductionOperator(cfg.mesh, cfg.precomp, cfg.material, cfg.variant,
                                  reference_temperature=cfg.initial_temperature)
    direct = stability.estimate_critical_dt(
        operator, state, cfg.deformation.displacements_at(0.0, cfg.mesh))

    original, reported = stability.estimate_critical_dt, []

    def recording(*args, **kwargs):
        reported.append(original(*args, **kwargs))
        return reported[-1]

    monkeypatch.setattr(stability, "estimate_critical_dt", recording)
    assert cli_main(["stability", path]) == 0
    assert f"lambda_max = {direct.lambda_max:.6g} 1/s" in capsys.readouterr().out
    monkeypatch.undo()
    record = run(cfg.mesh, cfg.precomp, cfg.material, cfg.perfusion, cfg.boundary,
                 cfg.deformation, Schedule(dt=cfg.schedule.dt, total_time=cfg.schedule.dt),
                 cfg.variant, initial_temperature=cfg.initial_temperature)
    assert reported[0] == direct
    assert record.stability == direct

    state.T = np.full(cfg.mesh.n_nodes, cfg.initial_temperature)
    uniform = stability.estimate_critical_dt(
        operator, state, cfg.deformation.displacements_at(0.0, cfg.mesh))
    assert uniform.lambda_max != direct.lambda_max


def test_unconverged_stability_estimate_is_flagged(scenario_path, tmp_path, monkeypatch,
                                                 caplog, capsys):
    # three Lanczos steps cannot meet the tolerance; such an estimate
    # errs on the unsafe side, so the log, the manifest and the stability
    # report must all say it did not converge
    monkeypatch.setattr(stability, "estimate_critical_dt",
                        functools.partial(stability.estimate_critical_dt, max_iterations=3))
    out = tmp_path / "o"
    with caplog.at_level(logging.WARNING, logger="fedbht"):
        assert cli_main(["run", scenario_path, "--out", str(out)]) == 0
    assert "did not converge in 3 iterations" in caplog.text
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["stability_iterations"] == 3
    assert manifest["stability_converged"] is False

    capsys.readouterr()
    assert cli_main(["stability", scenario_path]) == 0
    assert capsys.readouterr().out.count("(3 iterations) NOT CONVERGED") == 2


@pytest.mark.parametrize("above", [False, True])
def test_run_and_stability_report_share_the_dt_rule(scenario_path, tmp_path, monkeypatch,
                                                    caplog, capsys, above):
    # with a critical step of exactly 0.1 s, dt = 0.1 runs (with the 90 %
    # warning) and the next float up is refused; the report agrees
    estimate = stability.StabilityEstimate(lambda_max=20.0, dt_critical=0.1,
                                           iterations=1, converged=True)
    monkeypatch.setattr(stability, "estimate_critical_dt", lambda *a, **kw: estimate)
    dt = float(np.nextafter(0.1, 1.0)) if above else 0.1
    path = rewrite(scenario_path, tmp_path, lambda doc: doc["schedule"].update(dt=dt))
    with caplog.at_level(logging.WARNING, logger="fedbht"):
        code = cli_main(["run", path, "--out", str(tmp_path / "o")])
    assert code == (2 if above else 0)
    assert ("above 90% of the critical step" in caplog.text) is not above
    capsys.readouterr()
    assert cli_main(["stability", path]) == 0
    verdict = "EXCEEDS" if above else "within"
    assert f"schedule dt = {dt:g} s {verdict} the critical step" in capsys.readouterr().out


def test_cli_verify_forward_replay(scenario_path, tmp_path, capsys):
    out = tmp_path / "hist"
    code = cli_main(["verify", scenario_path, "--scheme", "forward",
                     "--node-tol", "1e-9", "--total-tol", "1e-9",
                     "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0, stdout
    assert "OK" in stdout
    assert (out / "error_histogram.csv").exists()


def test_cli_verify_labels_final_fields_with_the_end_of_the_walk(scenario_path, tmp_path,
                                                                   capsys):
    # 0.05 s at dt 0.02 s takes 3 steps: the final fields are those at 0.06 s
    path = rewrite(scenario_path, tmp_path, lambda d: d["schedule"].update(
        dt=0.02, total_time=0.05, snapshot_times=[]))
    out = tmp_path / "hist"
    assert cli_main(["verify", path, "--scheme", "forward", "--out", str(out)]) == 0
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("t = ")]
    assert line.startswith(f"t = {3 * 0.02:8g} s ")
    rows = (out / "error_histogram.csv").read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {f"{3 * 0.02:.17g}"}


def test_cli_verify_tolerance_exceeded(scenario_path, capsys):
    code = cli_main(["verify", scenario_path, "--scheme", "backward",
                     "--node-tol", "1e-12", "--total-tol", "1e-15"])
    stdout = capsys.readouterr().out
    assert code == 4, stdout
    assert "EXCEEDED" in stdout


def test_cli_stability_refusal(tmp_path, capsys):
    scene = write_desk_scenario(tmp_path / "fast",
                                small_params(dt=1000.0, total_time=5000.0,
                                             snapshot_times=(5000.0,),
                                             source_off_time=1000.0))
    code = cli_main(["run", scene, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "refusing to run" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, capsys):
    scene = write_desk_scenario(
        tmp_path / "wild",
        small_params(dt=1e9, total_time=1e11, snapshot_times=(1e10,),
                     source_off_time=1e9))
    scene = rewrite(scene, tmp_path, lambda d: d.update(dt_override=True))
    out = tmp_path / "partial"
    code = cli_main(["run", scene, "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    assert code == 3, stdout
    assert "diverged at step" in stdout
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["diverged"] is True
    assert manifest["divergence_step"] is not None
    outcome = manifest["outcome"]
    assert outcome["kind"] == "diverged" and outcome["step"] == manifest["divergence_step"]
    assert f"node {outcome['node']}, last finite temperature" in stderr
    assert np.isfinite(outcome["last_finite"])


def test_cli_inverted_element_stops_with_partial_outputs(tmp_path, capsys):
    # the ramp squeezes the 6^3 block through zero thickness before t = 10 s
    scene = write_desk_scenario(tmp_path / "collapse",
                                BlockSceneParams(nx=6, ny=6, nz=6, ramp_amplitude=-0.09, dt=0.1))
    out = tmp_path / "partial"
    code = cli_main(["run", scene, "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    assert code == 3, stderr
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    outcome = manifest["outcome"]
    assert outcome["kind"] == "inverted" and manifest["diverged"] is False
    step, time = outcome["step"], outcome["time"]
    assert 0 < step < manifest["n_steps"] and time == pytest.approx(step * 0.1)
    assert outcome["message"].startswith("tet4 element ")
    assert outcome["message"].endswith(f" at step {step} (t = {time:g} s)")
    assert f"inverted element: {outcome['message']}" in stderr
    assert f"inverted at step {step}" in stdout
    last = f"snapshot_{round(time * 1000):d}"
    assert manifest["snapshots"] == ["snapshot_5000", last]
    _, temps = read_snapshot_csv(out / f"{last}.csv")
    assert np.all(np.isfinite(temps))


def test_cli_refusal_writes_its_manifest(tmp_path, monkeypatch, capsys):
    scene = write_desk_scenario(tmp_path / "fast",
                                small_params(dt=1000.0, total_time=5000.0,
                                             snapshot_times=(5000.0,),
                                             source_off_time=1000.0))
    original, reported = stability.estimate_critical_dt, []
    monkeypatch.setattr(stability, "estimate_critical_dt",
                        lambda *a, **kw: reported.append(original(*a, **kw)) or reported[-1])
    out = tmp_path / "o"
    assert cli_main(["run", scene, "--out", str(out)]) == 2
    assert "refusing to run" in capsys.readouterr().err
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    (estimate,) = reported
    assert manifest["lambda_max"] == estimate.lambda_max
    assert manifest["dt_critical"] == estimate.dt_critical
    assert manifest["stability_iterations"] == estimate.iterations
    assert manifest["stability_converged"] is estimate.converged
    assert manifest["outcome"]["kind"] == "refused" and manifest["snapshots"] == []
    assert manifest["outcome"]["message"].startswith("dt = 1000 s exceeds")


def test_cli_verify_reference_divergence_exit_code(scenario_path, monkeypatch, capsys):
    from fedbht import oracle

    def diverging(*args, **kwargs):
        raise DivergenceError("reference step 3 (t = 0.3 s) is non-finite")

    monkeypatch.setattr(oracle, "reference_transient", diverging)
    assert cli_main(["verify", scenario_path]) == 3
    assert "diverged: reference step 3 (t = 0.3 s)" in capsys.readouterr().err


def test_cli_verify_unconverged_implicit_solve_exit_code(scenario_path, monkeypatch, capsys):
    from fedbht import oracle

    monkeypatch.setattr(oracle, "conjugate_gradients", lambda matvec, b, x0, *args: (x0, 99))
    assert cli_main(["verify", scenario_path]) == 3
    assert ("diverged: reference step 0 (t = 0 s): the implicit solve did not converge "
            "in 99 iterations") in capsys.readouterr().err


def test_cli_verify_refuses_like_run(tmp_path, capsys):
    scene = write_desk_scenario(tmp_path / "fast",
                                small_params(dt=1000.0, total_time=5000.0,
                                             snapshot_times=(5000.0,),
                                             source_off_time=1000.0))
    assert cli_main(["verify", scene]) == 2
    assert "refusing to run: dt = 1000 s exceeds" in capsys.readouterr().err
    # the scenario's dt_override lets verify run past the guard, as it does run
    scene = rewrite(scene, tmp_path, lambda d: d.update(dt_override=True))
    code = cli_main(["verify", scene])
    stdout, stderr = capsys.readouterr()
    assert code == 4, stdout  # the fields exceed the tolerance, but it ran
    assert "refusing to run" not in stderr


def test_cli_metrics_compare(scenario_path, tmp_path, capsys):
    out = tmp_path / "m"
    cli_main(["run", scenario_path, "--out", str(out)])
    capsys.readouterr()
    snap = str(out / "snapshot_5000.csv")
    assert cli_main(["metrics", snap, snap, "--node-tol", "0.0"]) == 0
    assert "max normalized 0.000000e+00" in capsys.readouterr().out

    with open(snap) as fh:
        lines = fh.read().splitlines()
    head, fields = lines[0], lines[-1].split(",")
    fields[4] = str(float(fields[4]) + 0.5)
    bumped = tmp_path / "bumped.csv"
    bumped.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    assert cli_main(["metrics", str(bumped), snap,
                     "--node-tol", "1e-6"]) == 4


def test_cli_metrics_refuses_snapshots_of_different_sizes(scenario_path, tmp_path, capsys):
    out = tmp_path / "m"
    cli_main(["run", scenario_path, "--out", str(out)])
    snap = str(out / "snapshot_5000.csv")
    with open(snap) as fh:
        lines = fh.read().splitlines()
    shorter = tmp_path / "shorter.csv"
    shorter.write_text("\n".join(lines[:-1]) + "\n")
    capsys.readouterr()
    assert cli_main(["metrics", str(shorter), snap]) == 2
    err = capsys.readouterr().err
    assert f"({len(lines) - 2},)" in err and f"({len(lines) - 1},)" in err


def corrupt_snapshot(scenario_path, tmp_path, field):
    """A run's last snapshot with one temperature replaced by ``field``;
    returns (corrupt copy, intact snapshot)."""
    out = tmp_path / "m"
    cli_main(["run", scenario_path, "--out", str(out)])
    snap = str(out / "snapshot_5000.csv")
    with open(snap) as fh:
        lines = fh.read().splitlines()
    fields = lines[5].split(",")
    fields[4] = field
    corrupt = tmp_path / "corrupt.csv"
    corrupt.write_text("\n".join(lines[:5] + [",".join(fields)] + lines[6:]) + "\n")
    return str(corrupt), snap


@pytest.mark.parametrize("field, code", [("abc", 2), ("nan", 4)])
def test_cli_metrics_fails_a_corrupt_snapshot(scenario_path, tmp_path, capsys, field, code):
    # a field that is not a number is an input error; a NaN field makes the
    # errors NaN, which must fail the tolerance check rather than pass it
    corrupt, snap = corrupt_snapshot(scenario_path, tmp_path, field)
    capsys.readouterr()
    assert cli_main(["metrics", corrupt, snap,
                     "--node-tol", "1e-6", "--total-tol", "1e-6"]) == code


@pytest.mark.parametrize("tols, code", [
    ([], 0),
    (["--total-tol", "1e-6"], 4),
    (["--node-tol", "1e-6"], 4),
])
def test_cli_metrics_nan_field_fails_only_a_given_bound(scenario_path, tmp_path, capsys,
                                                        tols, code):
    corrupt, snap = corrupt_snapshot(scenario_path, tmp_path, "nan")
    capsys.readouterr()
    assert cli_main(["metrics", corrupt, snap] + tols) == code
    assert capsys.readouterr().out.splitlines() == [
        "max normalized nan", "mean normalized nan", "total relative nan",
    ]


def test_cli_make_mesh_rejects_too_coarse_grid(tmp_path, capsys):
    code = cli_main(["make-mesh", str(tmp_path / "x"), "--cells", "4"])
    assert code == 2
    assert "captured no nodes" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--cells", "0", "cells per axis must be positive"),
    ("--dt", "0", "dt must be positive"),
    ("--dt", "-0.5", "dt must be positive"),
    ("--total-time", "0", "total_time must be finite and cover at least one step"),
])
def test_cli_make_mesh_refuses_non_positive_values(tmp_path, capsys, flag, value, message):
    # 0 is a value, not "not given": it must not write the defaults
    out = tmp_path / "x"
    assert cli_main(["make-mesh", str(out), flag, value]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_missing_scenario(tmp_path, capsys):
    assert cli_main(["run", str(tmp_path / "absent.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_readme_synopsis_lists_every_flag_of_the_parser():
    """README's "Command line" synopsis and the parser name the same
    subcommands and, for each, the same --flags."""
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as fh:
        synopsis = re.search(r"## Command line\n\n```\n(.*?)```", fh.read(), re.S).group(1)
    documented = {}
    for line in synopsis.splitlines():
        if line.startswith("fedbht "):
            command = documented.setdefault(line.split()[1], set())
        command.update(re.findall(r"--[a-z][a-z-]*", line))
    (commands,) = (action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    parsed = {name: {flag for action in sub._actions for flag in action.option_strings
                     if flag.startswith("--") and flag != "--help"}
              for name, sub in commands.choices.items()}
    assert documented == parsed
