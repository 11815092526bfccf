"""Structured mesh numbering, geometry, and adjacency."""

from fractions import Fraction

import pytest

from cuboid_complex.elements import (FAMILY_NAMES, entity_ref_for, family,
                                     local_dofs, min_order)
from cuboid_complex.mesh import (
    CuboidMesh, build_box_mesh, euler_characteristic, uniform_unit_mesh,
)

F = Fraction

# (shape, (vertices, edges, faces, cells))
FROZEN_COUNTS = [
    ((1, 1, 1), (8, 12, 6, 1)),
    ((2, 1, 1), (12, 20, 11, 2)),
    ((2, 2, 1), (18, 33, 20, 4)),
    ((2, 2, 2), (27, 54, 36, 8)),
]


@pytest.mark.parametrize("shape,counts", FROZEN_COUNTS)
def test_entity_counts(shape, counts):
    mesh = uniform_unit_mesh(*shape)
    assert mesh.entity_counts() == counts
    assert euler_characteristic(mesh) == 1


def test_breakpoints_validation():
    with pytest.raises(ValueError):
        build_box_mesh([0], [0, 1], [0, 1])
    with pytest.raises(ValueError):
        build_box_mesh([0, 0], [0, 1], [0, 1])
    with pytest.raises(ValueError):
        build_box_mesh([1, 0], [0, 1], [0, 1])


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 2)])
def test_ids_are_bijective(shape):
    """Every entity id is hit exactly once over its index ranges.

    A collision here once swallowed one y-normal face per mesh layer, so
    the face block gets checked normal by normal.
    """
    mesh = uniform_unit_mesh(*shape)
    nx, ny, nz = shape

    vids = [mesh.vertex_id(i, j, l)
            for i in range(nx + 1) for j in range(ny + 1) for l in range(nz + 1)]
    assert sorted(vids) == list(range(mesh.num_vertices))

    ranges = {
        0: (nx, ny + 1, nz + 1),
        1: (nx + 1, ny, nz + 1),
        2: (nx + 1, ny + 1, nz),
    }
    eids = [mesh.edge_id(axis, i, j, l)
            for axis, (ri, rj, rl) in ranges.items()
            for i in range(ri) for j in range(rj) for l in range(rl)]
    assert sorted(eids) == list(range(mesh.num_edges))

    franges = {
        0: (nx + 1, ny, nz),
        1: (nx, ny + 1, nz),
        2: (nx, ny, nz + 1),
    }
    fids = [mesh.face_id(normal, i, j, l)
            for normal, (ri, rj, rl) in franges.items()
            for i in range(ri) for j in range(rj) for l in range(rl)]
    assert sorted(fids) == list(range(mesh.num_faces))

    cids = [mesh.cell_id(i, j, l)
            for i in range(nx) for j in range(ny) for l in range(nz)]
    assert sorted(cids) == list(range(mesh.num_cells))
    for ci in cids:
        assert mesh.cell_id(*mesh.cell_index(ci)) == ci


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 4)])
def test_entity_blocks_hold_each_class_of_labels(shape):
    """The blocks tile each kind's ids in class order, and every cell's
    label of a class names an id inside that class's block."""
    mesh = uniform_unit_mesh(*shape)
    blocks = mesh.entity_blocks()
    totals = dict(zip(("vertex", "edge", "face", "cell"), mesh.entity_counts()))
    for kind, total in totals.items():
        spans = [(first, size) for cls, size, first in blocks if cls[0] == kind]
        assert [f for f, _ in spans] == [sum(s for _, s in spans[:i])
                                         for i in range(len(spans))]
        assert sum(s for _, s in spans) == total
    span = {cls: range(first, first + size) for cls, size, first in blocks}
    for ci in range(mesh.num_cells):
        for label, (kind, gid) in mesh.cell_entity_ids(ci).items():
            cls = label[:2] if kind in ("edge", "face") else label[:1]
            assert gid in span[cls], (ci, label)


def test_cell_entity_lists_have_canonical_shape():
    """27 labels in canonical order, whose ids increase within each kind."""
    mesh = uniform_unit_mesh(2, 2, 2)
    for ci in range(mesh.num_cells):
        ids = mesh.cell_entity_ids(ci)
        labels = list(ids)
        assert [label[0] for label in labels] == (
            ["vertex"] * 8 + ["edge"] * 12 + ["face"] * 6 + ["cell"])
        assert [label[1] for label in labels[8:20]] == [0] * 4 + [1] * 4 + [2] * 4
        assert labels[20:26] == [("face", n, s) for n in range(3) for s in (0, 1)]
        assert ids[("cell",)] == ("cell", ci)
        assert all(k == label[0] for label, (k, _gid) in ids.items())
        for kind in ("vertex", "edge", "face"):
            gids = [gid for label, (_k, gid) in ids.items() if label[0] == kind]
            assert gids == sorted(set(gids))


def test_cell_entity_ids_cover_the_catalog_labels():
    mesh = uniform_unit_mesh(1, 1, 1)
    labels = {d.entity_label for name in FAMILY_NAMES
              for d in local_dofs(family(name, min_order(name)))}
    assert labels == set(mesh.cell_entity_ids(0))


def test_shared_face_has_one_id():
    mesh = uniform_unit_mesh(2, 1, 1)
    left, right = 0, 1
    upper_of_left = mesh.cell_entity_ids(left)[("face", 0, 1)]
    lower_of_right = mesh.cell_entity_ids(right)[("face", 0, 0)]
    assert upper_of_left == lower_of_right


def test_face_cells_inverts_cell_faces():
    mesh = uniform_unit_mesh(2, 2, 2)
    for ci in range(mesh.num_cells):
        i, j, l = mesh.cell_index(ci)
        ids = mesh.cell_entity_ids(ci)
        for normal in range(3):
            for side in (0, 1):
                idx = [i, j, l]
                idx[normal] += side
                assert ids[("face", normal, side)] == (
                    "face", mesh.face_id(normal, *idx))
                assert ci in mesh.face_cells(normal, *idx)


_GRADED = build_box_mesh([0, F(1, 3), F(1, 2), 2], [F(-1), F(1, 7), 3],
                         [0, F(2, 5), 1])


@pytest.mark.parametrize("mesh", [uniform_unit_mesh(3, 2, 2), _GRADED],
                         ids=["uniform-3x2x2", "graded-3x2x2"])
def test_cell_entity_ids_follow_the_geometry(mesh):
    """Two (cell, label) pairs get one id exactly when the label names the
    same entity on both cells' boxes, and each kind's ids are
    ``0..count-1``."""
    id_of: dict = {}       # entity -> (kind, gid)
    entity_of: dict = {}   # (kind, gid) -> entity
    for ci in range(mesh.num_cells):
        box = mesh.cell_box(ci)
        for label, kid in mesh.cell_entity_ids(ci).items():
            ref = entity_ref_for(label, box)
            assert ref.kind == kid[0]
            assert id_of.setdefault(ref, kid) == kid
            assert entity_of.setdefault(kid, ref) == ref
    for kind, count in zip(("vertex", "edge", "face", "cell"),
                           mesh.entity_counts()):
        assert sorted(gid for k, gid in entity_of if k == kind) == list(range(count))


def test_interior_faces():
    mesh = uniform_unit_mesh(2, 2, 1)
    faces = mesh.interior_faces()
    # (nx-1) ny nz + nx (ny-1) nz + nx ny (nz-1)
    assert len(faces) == 1 * 2 * 1 + 2 * 1 * 1 + 0
    for normal, i, j, l in faces:
        lo, hi = mesh.face_cells(normal, i, j, l)
        assert 0 <= lo < hi < mesh.num_cells


def test_boundary_face_has_one_cell():
    mesh = uniform_unit_mesh(2, 1, 1)
    assert mesh.face_cells(0, 0, 0, 0) == [0]
    assert mesh.face_cells(0, 2, 0, 0) == [1]


def test_cell_box_geometry_nonuniform():
    mesh = build_box_mesh([0, F(1, 3), 1], [0, 2], [F(-1), F(1, 2)])
    assert mesh.shape == (2, 1, 1)
    b0 = mesh.cell_box(mesh.cell_id(0, 0, 0))
    b1 = mesh.cell_box(mesh.cell_id(1, 0, 0))
    assert b0.lo == (0, 0, -1) and b0.hi == (F(1, 3), 2, F(1, 2))
    assert b1.lo == (F(1, 3), 0, -1) and b1.hi == (1, 2, F(1, 2))
    assert b0.h(0) == F(1, 3) and b1.h(0) == F(2, 3)


def test_entities_carry_their_extents():
    mesh = uniform_unit_mesh(2, 1, 1)
    f = mesh.face_entity(0, 1, 0, 0)
    assert f.extent.lo == (F(1, 2), 0, 0) and f.extent.hi == (F(1, 2), 1, 1)
