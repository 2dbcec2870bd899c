import numpy as np
import pytest

from fedbht.deformation import (
    AffineDeformation,
    IdentityDeformation,
    TrajectoryDeformation,
    inverse_and_det,
    load_trajectory,
    write_trajectory,
)
from fedbht.errors import MeshFormatError, SingularDeformationError
from fedbht.kernels import _inverse_transpose

from conftest import random_tet_mesh


def test_identity_provider():
    mesh = random_tet_mesh(n_cells=2, seed=0)
    provider = IdentityDeformation()
    assert not provider.time_varying
    state = provider.displacements_at(3.0, mesh)
    np.testing.assert_array_equal(state.displacements, 0.0)


def test_affine_provider_displacements():
    mesh = random_tet_mesh(n_cells=2, seed=0)
    a = np.diag([1.1, 0.9, 1.0])
    b = np.array([0.01, 0.0, -0.02])
    provider = AffineDeformation(matrix=a, offset=b)
    state = provider.displacements_at(0.0, mesh)
    expected = mesh.nodes @ (a - np.eye(3)).T + b
    np.testing.assert_allclose(state.displacements, expected, atol=1e-15)
    assert not provider.time_varying


def test_affine_rejects_singular_matrix():
    with pytest.raises(SingularDeformationError):
        AffineDeformation(matrix=np.diag([1.0, 1.0, 0.0]), offset=np.zeros(3))


def test_trajectory_keyframes_exact_and_clamped():
    mesh = random_tet_mesh(n_cells=1, seed=0, jitter=0.0)
    n = mesh.n_nodes
    f0 = np.zeros((n, 3))
    f1 = np.full((n, 3), 0.25)
    traj = TrajectoryDeformation(np.array([1.0, 3.0]), np.stack([f0, f1]))
    assert traj.time_varying
    # exact return at keyframes, clamp outside, linear in between
    np.testing.assert_array_equal(traj.displacements_at(1.0, mesh).displacements, f0)
    np.testing.assert_array_equal(traj.displacements_at(3.0, mesh).displacements, f1)
    np.testing.assert_array_equal(traj.displacements_at(-5.0, mesh).displacements, f0)
    np.testing.assert_array_equal(traj.displacements_at(99.0, mesh).displacements, f1)
    np.testing.assert_allclose(
        traj.displacements_at(2.0, mesh).displacements, 0.5 * f1, rtol=1e-15)


def test_trajectory_file_roundtrip(tmp_path):
    mesh = random_tet_mesh(n_cells=1, seed=2)
    n = mesh.n_nodes
    rng = np.random.default_rng(0)
    times = np.array([0.0, 2.0, 5.0])
    frames = rng.normal(scale=0.01, size=(3, n, 3))
    path = tmp_path / "motion.traj"
    write_trajectory(path, times, frames)
    traj = load_trajectory(path, n)
    np.testing.assert_allclose(traj.times, times, rtol=0)
    np.testing.assert_allclose(traj.frames, frames, rtol=0)


def test_trajectory_file_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "motion.traj"
    path.write_text("# two nodes\nKEYFRAME 0\n0 0 0\n\n1 2 3  # moved\n"
                    "KEYFRAME 2.5  # later\n# rows follow\n4 5 6\n7 8 9\n")
    traj = load_trajectory(path, 2)
    np.testing.assert_array_equal(traj.times, [0.0, 2.5])
    np.testing.assert_array_equal(traj.frames, [[[0, 0, 0], [1, 2, 3]], [[4, 5, 6], [7, 8, 9]]])


@pytest.mark.parametrize("text, line, message", [
    ("KEYFRAME 0\n0 0 0\nKEYFRAME 1\n0 0 0\n0 0 0\n", 3, "keyframe at t=0 has 1 rows, expected 2"),
    ("KEYFRAME 0\n0 0 0\nKEYFRAME 1 2\n0 0 0\n", 3, "keyframe at t=0 has 1 rows, expected 2"),
    ("KEYFRAME 0\n0 0 0\n0 0 0\nKEYFRAME 1\n0 0 0\n", 0, "keyframe at t=1 has 1 rows, expected 2"),
    ("KEYFRAME 0\n0 0 0\n0 0 0\n0 0 0\nKEYFRAME 1\n", 5, "keyframe at t=0 has 3 rows, expected 2"),
    ("0 0 0\nKEYFRAME 0\n0 0 0\n0 0 0\n", 1, "displacement row before any KEYFRAME"),
    ("KEYFRAME 0\n0 0 x\n0 0 0\n", 2, "invalid displacement row '0 0 x'"),
    ("KEYFRAME 0\n0 0 0\n0 0\n", 3, "expected 3 displacement components, got 2"),
    # a non-finite time would hold the mesh still or fail as an inverted element
    ("KEYFRAME 0\n0 0 0\n0 0 0\nKEYFRAME inf\n0 0 0\n0 0 0\n", 4, "invalid keyframe time 'inf'"),
    ("KEYFRAME nan\n0 0 0\n0 0 0\n", 1, "invalid keyframe time 'nan'"),
    ("KEYFRAME -inf\n0 0 0\n0 0 0\nKEYFRAME 1\n0 0 0\n0 0 0\n", 1,
     "invalid keyframe time '-inf'"),
])
def test_trajectory_errors_name_the_line(tmp_path, text, line, message):
    path = tmp_path / "bad.traj"
    path.write_text(text)
    with pytest.raises(MeshFormatError) as err:
        load_trajectory(path, 2)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_inverse_and_det_guards():
    f = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularDeformationError):
        inverse_and_det(f)
    with pytest.raises(SingularDeformationError):
        inverse_and_det(np.diag([1.0, np.nan, 1.0]))
    inv, det = inverse_and_det(np.diag([2.0, 1.0, 1.0]))
    assert det == pytest.approx(2.0)
    np.testing.assert_allclose(inv, np.diag([0.5, 1.0, 1.0]))


def test_batched_inverse_matches_lapack():
    rng = np.random.default_rng(11)
    f = np.eye(3) + 0.3 * rng.normal(size=(50, 3, 3))
    dets = np.linalg.det(f)
    keep = dets > 0.1
    f = f[keep]
    n = len(f)
    q, det = np.empty((3, 3, n)), np.empty(n)
    _inverse_transpose(f.transpose(1, 2, 0), q, det, np.empty(n))  # q[s, k, e] = inv(f_e)[k, s]
    np.testing.assert_allclose(det, np.linalg.det(f), rtol=1e-10)
    np.testing.assert_allclose(q.transpose(2, 1, 0), np.linalg.inv(f), rtol=1e-9, atol=1e-12)
    for fe, qe, de in zip(f, q.transpose(2, 1, 0), det):
        inv, d = inverse_and_det(fe)
        np.testing.assert_allclose(inv, qe, rtol=1e-12, atol=1e-14)
        assert d == pytest.approx(de, rel=1e-12)
