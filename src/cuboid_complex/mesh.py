"""Structured cuboid meshes of an axis-aligned box.

The mesh is the tensor product of three strictly increasing breakpoint
sequences.  Vertices and cells are numbered lexicographically (z index
fastest); edges all x-directed, then y-, then z-directed, and faces by
normal x, y, z, each block lexicographic; :meth:`CuboidMesh.entity_blocks`
lists those blocks.  Within one cell the local entity order (8 vertices,
12 edges, 6 faces, the cell) agrees with the relative order of the global
ids.  :meth:`CuboidMesh.cell_entity_ids` is the one place that order
lives: it maps each local entity label to its global (kind, id).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polytensor import CellBox, EntityRef

# Local deltas, fixed once; see module docstring.
_VERTEX_CORNERS = [(di, dj, dl) for di in (0, 1) for dj in (0, 1) for dl in (0, 1)]
_EDGE_SIDES = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _check_breaks(breaks, axis_name: str) -> tuple[Fraction, ...]:
    vals = tuple(Fraction(b) for b in breaks)
    if len(vals) < 2:
        raise ValueError(f"need at least two breakpoints along {axis_name}")
    for a, b in zip(vals, vals[1:]):
        if not a < b:
            raise ValueError(f"breakpoints along {axis_name} must strictly increase")
    return vals


@dataclass(frozen=True)
class CuboidMesh:
    """Tensor-product mesh; use :func:`build_box_mesh` to construct one."""

    breaks_x: tuple[Fraction, ...]
    breaks_y: tuple[Fraction, ...]
    breaks_z: tuple[Fraction, ...]

    # -- sizes -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        return (len(self.breaks_x) - 1, len(self.breaks_y) - 1, len(self.breaks_z) - 1)

    @property
    def num_vertices(self) -> int:
        nx, ny, nz = self.shape
        return (nx + 1) * (ny + 1) * (nz + 1)

    @property
    def num_edges(self) -> int:
        nx, ny, nz = self.shape
        return (nx * (ny + 1) * (nz + 1) + (nx + 1) * ny * (nz + 1)
                + (nx + 1) * (ny + 1) * nz)

    @property
    def num_faces(self) -> int:
        nx, ny, nz = self.shape
        return ((nx + 1) * ny * nz + nx * (ny + 1) * nz + nx * ny * (nz + 1))

    @property
    def num_cells(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def entity_counts(self) -> tuple[int, int, int, int]:
        return (self.num_vertices, self.num_edges, self.num_faces, self.num_cells)

    # -- id helpers ----------------------------------------------------------

    def vertex_id(self, i: int, j: int, l: int) -> int:
        nx, ny, nz = self.shape
        return (i * (ny + 1) + j) * (nz + 1) + l

    def _edge_block_sizes(self) -> tuple[int, int, int]:
        nx, ny, nz = self.shape
        return (nx * (ny + 1) * (nz + 1), (nx + 1) * ny * (nz + 1),
                (nx + 1) * (ny + 1) * nz)

    def edge_id(self, axis: int, i: int, j: int, l: int) -> int:
        """Edge along ``axis`` whose lower corner is breakpoint (i, j, l)."""
        nx, ny, nz = self.shape
        ex, ey, _ = self._edge_block_sizes()
        if axis == 0:
            return (i * (ny + 1) + j) * (nz + 1) + l
        if axis == 1:
            return ex + (i * ny + j) * (nz + 1) + l
        return ex + ey + (i * (ny + 1) + j) * nz + l

    def _face_block_sizes(self) -> tuple[int, int, int]:
        nx, ny, nz = self.shape
        return ((nx + 1) * ny * nz, nx * (ny + 1) * nz, nx * ny * (nz + 1))

    def face_id(self, normal: int, i: int, j: int, l: int) -> int:
        """Face with normal ``normal``, lower corner at breakpoint (i, j, l)."""
        nx, ny, nz = self.shape
        fx, fy, _ = self._face_block_sizes()
        if normal == 0:
            return (i * ny + j) * nz + l
        if normal == 1:
            return fx + (i * (ny + 1) + j) * nz + l
        return fx + fy + (i * ny + j) * (nz + 1) + l

    def cell_id(self, i: int, j: int, l: int) -> int:
        nx, ny, nz = self.shape
        return (i * ny + j) * nz + l

    def cell_index(self, ci: int) -> tuple[int, int, int]:
        nx, ny, nz = self.shape
        i, rest = divmod(ci, ny * nz)
        j, l = divmod(rest, nz)
        return (i, j, l)

    # -- geometry --------------------------------------------------------------

    def _point(self, i: int, j: int, l: int) -> tuple[Fraction, Fraction, Fraction]:
        return (self.breaks_x[i], self.breaks_y[j], self.breaks_z[l])

    def cell_box(self, ci: int) -> CellBox:
        i, j, l = self.cell_index(ci)
        return CellBox(self._point(i, j, l), self._point(i + 1, j + 1, l + 1))

    def face_entity(self, normal: int, i: int, j: int, l: int) -> EntityRef:
        lo = self._point(i, j, l)
        top = [i, j, l]
        for a in range(3):
            if a != normal:
                top[a] += 1
        hi = self._point(*top)
        return EntityRef("face", CellBox(lo, hi))

    def entity_blocks(self) -> list[tuple[tuple, int, int]]:
        """The entity classes in global order, each as ``(class, count,
        first id)``: the vertices, the edges along x, y and z, the faces
        normal to x, y and z, the cells.  A class is the prefix of its
        local labels: ``("vertex",)``, ``("edge", axis)``, ``("face",
        normal)`` or ``("cell",)``."""
        blocks = [(("vertex",), self.num_vertices, 0)]
        for kind, sizes in (("edge", self._edge_block_sizes()),
                            ("face", self._face_block_sizes())):
            first = 0
            for axis, size in enumerate(sizes):
                blocks.append(((kind, axis), size, first))
                first += size
        blocks.append((("cell",), self.num_cells, 0))
        return blocks

    # -- cell-local entity ids ---------------------------------------------------

    def cell_entity_ids(self, ci: int) -> dict[tuple, tuple[str, int]]:
        """The cell's 27 local entity labels mapped to global (kind, id).

        Labels, in canonical local order: ``("vertex", corner)`` for the 8
        corners; ``("edge", axis, sides)`` for the 4 edges along each axis,
        ``sides`` giving the offsets on the two other axes in increasing
        order; ``("face", normal, side)`` for the 6 faces; ``("cell",)``.
        """
        i, j, l = self.cell_index(ci)
        out: dict[tuple, tuple[str, int]] = {}
        for corner in _VERTEX_CORNERS:
            di, dj, dl = corner
            out[("vertex", corner)] = ("vertex", self.vertex_id(i + di, j + dj, l + dl))
        for axis in range(3):
            for sides in _EDGE_SIDES:
                s1, s2 = sides
                if axis == 0:
                    idx = (i, j + s1, l + s2)
                elif axis == 1:
                    idx = (i + s1, j, l + s2)
                else:
                    idx = (i + s1, j + s2, l)
                out[("edge", axis, sides)] = ("edge", self.edge_id(axis, *idx))
        for normal in range(3):
            for side in (0, 1):
                idx = [i, j, l]
                idx[normal] += side
                out[("face", normal, side)] = ("face", self.face_id(normal, *idx))
        out[("cell",)] = ("cell", ci)
        return out

    # -- adjacency ------------------------------------------------------------------

    def face_cells(self, normal: int, i: int, j: int, l: int) -> list[int]:
        """Ids of the one or two cells sharing the given face."""
        nx, ny, nz = self.shape
        out = []
        if normal == 0:
            if i > 0:
                out.append(self.cell_id(i - 1, j, l))
            if i < nx:
                out.append(self.cell_id(i, j, l))
        elif normal == 1:
            if j > 0:
                out.append(self.cell_id(i, j - 1, l))
            if j < ny:
                out.append(self.cell_id(i, j, l))
        else:
            if l > 0:
                out.append(self.cell_id(i, j, l - 1))
            if l < nz:
                out.append(self.cell_id(i, j, l))
        return out

    def interior_faces(self) -> list[tuple[int, int, int, int]]:
        """All interior faces as (normal, i, j, l) index tuples."""
        nx, ny, nz = self.shape
        out = []
        for i in range(1, nx):
            for j in range(ny):
                for l in range(nz):
                    out.append((0, i, j, l))
        for i in range(nx):
            for j in range(1, ny):
                for l in range(nz):
                    out.append((1, i, j, l))
        for i in range(nx):
            for j in range(ny):
                for l in range(1, nz):
                    out.append((2, i, j, l))
        return out


def build_box_mesh(breaks_x, breaks_y, breaks_z) -> CuboidMesh:
    """Mesh from three strictly increasing rational breakpoint sequences."""
    return CuboidMesh(_check_breaks(breaks_x, "x"), _check_breaks(breaks_y, "y"),
                      _check_breaks(breaks_z, "z"))


def uniform_unit_mesh(nx: int, ny: int, nz: int) -> CuboidMesh:
    """Uniform nx-by-ny-by-nz mesh of the unit cube."""
    if min(nx, ny, nz) < 1:
        raise ValueError("need at least one cell along each axis")
    return build_box_mesh([Fraction(i, nx) for i in range(nx + 1)],
                          [Fraction(j, ny) for j in range(ny + 1)],
                          [Fraction(l, nz) for l in range(nz + 1)])


def euler_characteristic(mesh: CuboidMesh) -> int:
    v, e, f, c = mesh.entity_counts()
    return v - e + f - c
