import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pogorelov.complex import (
    SimplicialComplex,
    chordless_cycles,
    full_subcomplex,
    is_flag,
    missing_faces,
    new_complex,
    reduced_cohomology,
)
from pogorelov.polytope import catalog, dual_complex

TWO_SEGMENTS = new_complex(4, [(1, 2), (3, 4)])
TRIANGLE = new_complex(3, [(1, 2), (2, 3), (1, 3)])
SQUARE = new_complex(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
TETRA_BOUNDARY = new_complex(4, list(itertools.combinations(range(1, 5), 3)))
OCTAHEDRON = new_complex(
    6,
    [
        (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 3, 6),
        (2, 3, 4), (2, 4, 5), (2, 5, 6), (2, 3, 6),
    ],
)

RP2 = new_complex(
    6,
    [
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
    ],
)


def test_new_complex_two_segments():
    assert TWO_SEGMENTS.m == 4
    assert TWO_SEGMENTS.maximal_faces() == [(1, 2), (3, 4)]
    assert TWO_SEGMENTS.has_face((1, 2))
    assert not TWO_SEGMENTS.has_face((1, 3))


def test_new_complex_point():
    K = new_complex(1, [])
    assert K.faces() == [(), (1,)]


def test_new_complex_triangle_boundary_closure():
    assert len(TRIANGLE.faces()) == 7


def test_new_complex_rejects_out_of_range():
    with pytest.raises(ValueError):
        new_complex(3, [(1, 4)])


def test_ghost_vertices_are_faces():
    K = new_complex(5, [(1, 2)])
    assert K.has_face((5,))
    assert (5,) in K.faces()


def test_full_subcomplex_two_segments():
    sub = full_subcomplex(TWO_SEGMENTS, (1, 3))
    assert sub.m == 2
    assert sub.maximal_faces() == [(1,), (2,)]
    assert sub.vertex_labels == (1, 3)


def test_full_subcomplex_empty_and_identity():
    empty = full_subcomplex(TRIANGLE, ())
    assert empty.m == 0
    assert empty.faces() == [()]
    assert full_subcomplex(TRIANGLE, (1, 2, 3)) == TRIANGLE


def test_missing_faces_square():
    assert missing_faces(SQUARE) == [(1, 3), (2, 4)]
    assert is_flag(SQUARE)


def test_missing_faces_triangle():
    assert missing_faces(TRIANGLE) == [(1, 2, 3)]
    assert not is_flag(TRIANGLE)


def test_octahedron_is_flag():
    # dual complex of the 3-cube
    assert is_flag(OCTAHEDRON)
    assert missing_faces(OCTAHEDRON) == [(1, 2), (3, 5), (4, 6)]


def test_tetra_boundary_not_flag():
    assert missing_faces(TETRA_BOUNDARY) == [(1, 2, 3, 4)]
    assert not is_flag(TETRA_BOUNDARY)


def test_cohomology_empty_complex():
    K = full_subcomplex(TRIANGLE, ())
    h = reduced_cohomology(K)
    assert h.rank(-1) == 1
    assert h.nonzero_degrees() == [-1]


def test_cohomology_two_points():
    K = full_subcomplex(TWO_SEGMENTS, (1, 3))
    h = reduced_cohomology(K)
    assert h.rank(0) == 1
    assert h.nonzero_degrees() == [0]


def test_cohomology_tetra_boundary():
    h = reduced_cohomology(TETRA_BOUNDARY)
    assert h.rank(2) == 1
    assert h.nonzero_degrees() == [2]
    assert h.torsion_at(2) == ()


def test_cohomology_circle():
    h = reduced_cohomology(SQUARE)
    assert h.rank(1) == 1
    assert h.nonzero_degrees() == [1]


def test_cohomology_rp2_torsion():
    # minimal 6-vertex triangulation of RP^2: H^2 has Z/2 torsion
    rp2 = RP2
    h = reduced_cohomology(rp2, "Z")
    assert h.rank(1) == 0 and h.rank(2) == 0
    assert h.torsion_at(2) == (2,)
    h2 = reduced_cohomology(rp2, "Z2")
    assert h2.rank(1) == 1 and h2.rank(2) == 1


def test_chordless_cycles_octahedron():
    cycles = list(chordless_cycles(OCTAHEDRON))
    assert len(cycles) == 3
    assert all(len(c) == 4 for c in cycles)


def test_chordless_cycles_square_through():
    cycles = list(chordless_cycles(SQUARE, through=(1, 3)))
    assert cycles == [(1, 2, 3, 4)]


def test_chordless_cycles_avoid():
    assert list(chordless_cycles(OCTAHEDRON, avoid=(1,))) == [(3, 4, 5, 6)]


def test_chordless_cycles_max_len():
    # icosahedron-like: use octahedron with max_len 4 only
    assert all(len(c) <= 4 for c in chordless_cycles(OCTAHEDRON, max_len=4))


@st.composite
def small_complexes(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    n_faces = draw(st.integers(min_value=0, max_value=6))
    faces = []
    for _ in range(n_faces):
        size = draw(st.integers(min_value=1, max_value=min(4, m)))
        face = draw(
            st.lists(
                st.integers(min_value=1, max_value=m),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        faces.append(tuple(face))
    return new_complex(m, faces)


@settings(max_examples=60, deadline=None)
@given(small_complexes())
def test_flag_matches_bruteforce_nonface_scan(K):
    # definitional cross-check: flag iff every pairwise-connected set is a face
    mf = missing_faces(K)
    assert is_flag(K) == all(len(f) == 2 for f in mf)
    # every missing face really is a minimal non-face
    for f in mf:
        assert not K.has_face(f)
        for sub in itertools.combinations(f, len(f) - 1):
            assert K.has_face(sub)


@settings(max_examples=40, deadline=None)
@given(small_complexes(), st.data())
def test_full_subcomplex_euler_characteristic(K, data):
    J = data.draw(
        st.lists(st.integers(min_value=1, max_value=K.m), max_size=K.m, unique=True)
    )
    sub = full_subcomplex(K, J)
    direct = sum((-1) ** (len(f) - 1) for f in sub.faces() if f)
    assert sub.euler_characteristic() == direct


@settings(max_examples=40, deadline=None)
@given(small_complexes())
def test_universal_coefficients_mod2(K):
    hz = reduced_cohomology(K, "Z")
    h2 = reduced_cohomology(K, "Z2")
    for d in range(-1, K.dim + 1):
        even_here = sum(1 for t in hz.torsion_at(d) if t % 2 == 0)
        even_next = sum(1 for t in hz.torsion_at(d + 1) if t % 2 == 0)
        assert h2.rank(d) == hz.rank(d) + even_here + even_next


# ---------------------------------------------------------------------------
# The 2-sphere test


# 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
TORUS = new_complex(
    7,
    [
        tuple(sorted((i + d) % 7 + 1 for d in ds))
        for i in range(7)
        for ds in ((0, 1, 3), (0, 2, 3))
    ],
)
# the cube's dual with one triangle removed
DISC = new_complex(6, [f for f in OCTAHEDRON.maximal_faces() if f != (1, 3, 4)])
# two tetrahedron boundaries sharing vertex 4: every edge in two triangles
PINCHED = new_complex(
    7,
    list(itertools.combinations((1, 2, 3, 4), 3)) + list(itertools.combinations((4, 5, 6, 7), 3)),
)


def test_non_spheres_are_not_taken_for_2_spheres():
    assert (RP2.euler_characteristic(), TORUS.euler_characteristic()) == (1, 0)
    assert PINCHED.euler_characteristic() == 3
    for K in (RP2, TORUS, DISC, PINCHED, TWO_SEGMENTS, SQUARE, TRIANGLE, new_complex(4, [])):
        assert not K.is_two_sphere(), K


def test_two_sphere_needs_one_cycle_per_vertex_link():
    # a suspension of two disjoint triangles: every edge lies in two
    # triangles and chi = 2, but the links of both apexes are two cycles
    faces = []
    for apex in (7, 8):
        for a, b, c in ((1, 2, 3), (4, 5, 6)):
            faces += [(a, b, apex), (b, c, apex), (a, c, apex)]
    K = new_complex(8, faces)
    assert K.euler_characteristic() == 8 - 18 + 12
    assert not K.is_two_sphere()


def test_spheres_are_taken_for_2_spheres():
    assert TETRA_BOUNDARY.is_two_sphere()
    assert OCTAHEDRON.is_two_sphere()
    rng = random.Random(5)
    for name, k in (("simplex", None), ("cube", None), ("prism", 5), ("dodecahedron", None)):
        P = catalog(name, k)
        perm = list(range(1, P.m + 1))
        rng.shuffle(perm)
        Q = P.relabel(perm)
        assert dual_complex(Q).is_two_sphere()  # marked by dual_complex
        assert new_complex(Q.m, Q.vertex_tuples).is_two_sphere()  # decided


def test_two_sphere_decided_with_only_the_complex_module_imported():
    # the decision imports polytope, which imports complex, inside the method
    code = (
        "from pogorelov.complex import new_complex\n"
        f"K = new_complex(6, {OCTAHEDRON.maximal_faces()})\n"
        "print(K.is_two_sphere())\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "True"


def test_from_text_names_the_bad_line():
    with pytest.raises(ValueError, match=r"line 3: .*'1 x 3'"):
        SimplicialComplex.from_text("m=4\n1 2 3\n1 x 3\n")
    with pytest.raises(ValueError, match=r"line 1: .*'m=four'"):
        SimplicialComplex.from_text("m=four\n1 2\n")
    text = TETRA_BOUNDARY.to_text()
    assert SimplicialComplex.from_text(text) == TETRA_BOUNDARY
