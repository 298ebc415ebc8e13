"""A direction scan's shared orbit members against their own data.

An affine lattice automorphism x -> g x + t of P turns the data of (P, xi) into
those of (P, g^T xi) with each vertex w renamed g^-1 (w - t) and every H lowered
by <xi, t>, since <g^T xi, w> = <xi, g w + t> - <xi, t>.  What a scan shares, an
ok report with its notes and the two sums, reads absolute H only on relative
Fano data, which come from a reflexive P; its one interior lattice point, the
origin, is fixed by every automorphism, so there t = 0.  So the scan checks the
first direction of each orbit and gives each later member a copy of its report
and the same sums.  These tests stand in for checking every member: the
automorphisms, the orbits and the renaming come from ``tests/oracle.py``, which
shares no code with the scan, and each item is compared with ``validate``, the
lemma suite and the sums run on the data of its own direction.  A translated
polytope must scan as the polytope does, which pins that the shared items read
no absolute H off relative Fano data.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamfano.toric
from hamfano.fixed_data import validate
from hamfano.localization import abbv_sum_4d, abbv_sum_6d, weight_sum_constant
from hamfano.toric import (
    CATALOG,
    LatticePolytope,
    UnsupportedDirectionError,
    _lattice_automorphisms,
    _lemma_checks,
    fixed_data_from_polytope,
    scan_directions,
)

from .oracle import (
    affine_automorphisms,
    affine_translation,
    apply_matrix,
    direction_orbits,
    lattice_automorphisms,
    renamed_fields,
    transpose,
    unimodular_inverse,
)
from .test_golden import POLYTOPES

HEXAGON = [(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)]
# a Delzant hexagon, not reflexive, with no symmetry, affine or linear: its vertex
# (-1, -3) has the sorted edge lengths (1, 2) of its first vertex (-3, -1), but no
# symmetry maps one to the other
LOPSIDED_HEXAGON = [(-3, -1), (-3, 0), (-1, -3), (0, -3), (1, -2), (1, 0)]
# a Delzant trapezoid, not reflexive, whose one affine symmetry besides the identity
# has no linear part fixing the origin
TRAPEZOID = [(0, 0), (3, 0), (1, 1), (0, 1)]

# name -> (vertices, bound, order of the affine lattice automorphism group)
CASES = {
    "cube": (POLYTOPES["cube"], 3, 48),
    "CP3": (POLYTOPES["cp3"], 3, 24),
    "CP2xCP1": (POLYTOPES["cp2xcp1"], 3, 12),
    "Bl3CP2xCP1": (POLYTOPES["bl3cp2xcp1"], 3, 24),
    # [0,3]^3 cut at its corners: 48 affine symmetries, 6 of them linear
    "truncated_cube": (POLYTOPES["truncated_cube"], 3, 48),
    "CP2": (CATALOG["CP2"][0], 6, 6),
    "CP1xCP1": (CATALOG["CP1xCP1"][0], 6, 8),
    "Bl1CP2": (CATALOG["Bl1CP2"][0], 6, 2),
    "Bl2CP2": (CATALOG["Bl2CP2"][0], 6, 2),
    "Bl3CP2": (CATALOG["Bl3CP2"][0], 6, 12),
    "hexagon": (HEXAGON, 6, 12),
    "lopsided_hexagon": (LOPSIDED_HEXAGON, 6, 1),
}


def flat_transposes(group):
    """The oracle's matrices in the search's form: each g^T flattened row by row."""
    return {sum(transpose(g), ()) for g in group}


def _direct(p, data):
    """The report and sums of one dataset, each computed on it directly."""
    report = validate(data)
    if p.dim == 2 and p.reflexive:  # a toric del Pezzo polygon
        report.extend(_lemma_checks(data))
    total = (abbv_sum_4d if p.dim == 2 else abbv_sum_6d)(data)
    return report, total, weight_sum_constant(data) if data.relative_fano else None


def _recording(monkeypatch):
    """The directions whose data the package generates from here on."""
    generated = []
    inner = hamfano.toric.fixed_data_from_polytope

    def recording(p, xi):
        generated.append(tuple(xi))
        return inner(p, xi)

    monkeypatch.setattr(hamfano.toric, "fixed_data_from_polytope", recording)
    return generated


def _probe(xi):
    return f"probe of {list(xi)}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_orbit_member_is_its_representatives_data_renamed(name, monkeypatch):
    vertices, bound, order = CASES[name]
    p = LatticePolytope([tuple(v) for v in vertices])
    group = affine_automorphisms(vertices)
    assert len(group) == order
    found = _lattice_automorphisms(p)
    assert len(found) == order and set(found) == flat_transposes(group)
    if p.reflexive:
        # the origin is a reflexive polytope's one interior lattice point, so every
        # automorphism fixes it: the group is the linear oracle's
        assert set(found) == flat_transposes(lattice_automorphisms(vertices)), name
    orbits = direction_orbits(group, p.dim, bound)
    identity = tuple(tuple(int(i == j) for j in range(p.dim)) for i in range(p.dim))

    generated = _recording(monkeypatch)
    items = []
    for item in scan_directions(p, bound):
        # flag each report as it arrives: no other item may see the flag
        item.report.flag("probe", _probe(item.xi))
        items.append(item)
    scanned = list(generated)  # the checks below generate every direction's data
    assert [item.xi for item in items] == list(orbits)

    clean = {}  # representative -> whether its own report may be shared
    refused = set()
    for item in items:
        rep, g = orbits[item.xi]
        try:
            data = fixed_data_from_polytope(p, item.xi)
        except UnsupportedDirectionError as exc:
            assert item.error == str(exc), item.xi
            with pytest.raises(UnsupportedDirectionError):
                fixed_data_from_polytope(p, rep)
            clean[item.xi] = False
            refused.add(item.xi)
            continue
        if rep != item.xi:
            # x -> g x + t takes each vertex w of the member's data to the representative's
            # vertex of the same name, whose H is <rep, t> higher
            t = affine_translation(vertices, g)
            inverse = unimodular_inverse(g)
            back = tuple(-x for x in apply_matrix(inverse, t))
            lower = -sum(a * b for a, b in zip(rep, t))
            assert renamed_fields(fixed_data_from_polytope(p, rep), inverse, back, lower) == (
                renamed_fields(data, identity)
            ), (name, item.xi, rep)
        report, total, constant = _direct(p, data)
        if rep == item.xi:
            clean[rep] = report.ok and not report.inconclusive
        report.flag("probe", _probe(item.xi))
        assert item.error is None
        assert item.report.as_dict() == report.as_dict(), (name, item.xi)
        assert (item.abbv_sum, item.weight_sum_constant) == (total, constant), (name, item.xi)

    # a direction is generated in the scan unless its representative's report is shared
    # or the scan refuses it, which it does without generating
    expected = [
        xi
        for xi, (rep, _g) in orbits.items()
        if (rep == xi or not clean[rep]) and xi not in refused
    ]
    assert scanned == expected, name
    # Bl2CP2's one symmetry besides the identity, (a, b) -> (-a, b - a) on directions,
    # turns the sign of every leading entry, and -xi is no member: it shares nothing;
    # the lopsided hexagon has no symmetry to share over
    assert (len(scanned) < len(items)) == (name not in ("Bl2CP2", "lopsided_hexagon")), name


def test_a_flagged_member_leaves_the_other_members_unchanged():
    vertices = POLYTOPES["cube"]
    p = LatticePolytope([tuple(v) for v in vertices])
    orbits = direction_orbits(lattice_automorphisms(vertices), 3, 2)
    items = {item.xi: item for item in scan_directions(p, 2)}
    members = {}
    for xi, (rep, _g) in orbits.items():
        if items[xi].error is None:
            members.setdefault(rep, []).append(items[xi])
    orbit = max(members.values(), key=len)
    assert len(orbit) == 12
    before = [item.report.as_dict() for item in orbit]
    orbit[1].report.flag("probe", "one member flagged")
    orbit[1].report.notes.append("one member's note")
    after = [item.report.as_dict() for item in orbit]
    assert after[:1] + after[2:] == before[:1] + before[2:]
    assert after[1] != before[1]


@pytest.mark.parametrize("record", ["flag", "undecided"])
def test_an_orbit_whose_report_names_an_id_is_checked_in_full(record, monkeypatch):
    # a report with a violation or an inconclusive record is never shared, so
    # no text that names an id is renamed: each member's names its own minimum
    vertices = POLYTOPES["cube"]
    p = LatticePolytope([tuple(v) for v in vertices])
    inner = hamfano.toric.validate

    def naming(data):
        report = inner(data)
        getattr(report, record)("probe", f"minimum at {data.ordered()[0].id}")
        return report

    monkeypatch.setattr(hamfano.toric, "validate", naming)
    generated = _recording(monkeypatch)
    items = list(scan_directions(p, 2))
    # every supported direction is generated; an unsupported one is refused with the
    # text generation raises on it
    assert generated == [item.xi for item in items if item.error is None]
    for item in items:
        if item.error is not None:
            with pytest.raises(UnsupportedDirectionError) as refused:
                fixed_data_from_polytope(p, item.xi)
            assert item.error == str(refused.value), item.xi
        else:
            lowest = min(vertices, key=lambda v: sum(a * b for a, b in zip(item.xi, v)))
            records = item.report.violations if record == "flag" else item.report.inconclusive
            assert [r.message for r in records] == [f"minimum at v{'_'.join(map(str, lowest))}"]


def _product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _elementary(dim):
    """The shears 1 + E_ij and 1 - E_ij, the transpositions and the sign flips of Z^dim."""
    one = [[int(i == j) for j in range(dim)] for i in range(dim)]
    out = []
    for i, j in itertools.permutations(range(dim), 2):
        for a in (1, -1):
            m = [row[:] for row in one]
            m[i][j] = a
            out.append(m)
        m = [row[:] for row in one]
        m[i], m[j] = m[j], m[i]
        out.append(m)
    for i in range(dim):
        m = [row[:] for row in one]
        m[i][i] = -1
        out.append(m)
    return [tuple(map(tuple, m)) for m in out]


COORDINATE_CASES = ["CP2", "CP1xCP1", "Bl1CP2", "Bl2CP2", "Bl3CP2", "CP3", "cube", "truncated_cube"]


@functools.lru_cache(maxsize=None)
def _oracle_group(name):
    return affine_automorphisms(CASES[name][0])


@pytest.mark.parametrize("name", COORDINATE_CASES)
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_the_search_follows_a_change_of_lattice_basis(name, data):
    # the group of A P is A Aut(P) A^-1 for every unimodular A, so sheared coordinates
    # such as the catalog's hexagon lose no symmetry, affine or linear
    vertices = CASES[name][0]
    dim = len(vertices[0])
    steps = data.draw(st.lists(st.sampled_from(_elementary(dim)), min_size=1, max_size=5))
    a = functools.reduce(_product, steps)
    moved = LatticePolytope([apply_matrix(a, v) for v in vertices])
    expected = [_product(_product(a, g), unimodular_inverse(a)) for g in _oracle_group(name)]
    found = _lattice_automorphisms(moved)
    assert len(found) == len(expected) and set(found) == flat_transposes(expected), (name, a)


# name -> (vertices, bound, affine group order, linear group order) of the Delzant test
# polytopes that are not reflexive, where an affine symmetry need not fix the origin
NOT_REFLEXIVE = {
    "truncated_cube": (POLYTOPES["truncated_cube"], 3, 48, 6),
    "rectangle": (POLYTOPES["rectangle"], 4, 4, 2),
    "trapezoid": (TRAPEZOID, 4, 2, 1),
    "lopsided_hexagon": (LOPSIDED_HEXAGON, 4, 1, 1),
}


@functools.lru_cache(maxsize=None)
def _unmoved_scan(name):
    """The scan of the unmoved polytope, once its group orders are checked."""
    vertices, bound, affine_order, linear_order = NOT_REFLEXIVE[name]
    assert len(affine_automorphisms(vertices)) == affine_order, name
    assert len(lattice_automorphisms(vertices)) == linear_order, name
    return list(scan_directions(LatticePolytope(vertices), bound))


def _record_codes(report):
    return [r.code for r in report.violations], [r.code for r in report.inconclusive]


@pytest.mark.parametrize("name", sorted(NOT_REFLEXIVE))
@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(data=st.data())
def test_a_translate_scans_as_the_polytope_does(name, data):
    # the data of a translate P + T in the direction xi are those of P renamed and raised
    # by <xi, T>; a scan of P + T shares over the same linear parts, so each item it
    # reports, shared or generated, must read as P's: an item that read absolute H off
    # data that are not relative Fano would differ here.  Record texts name ids, which
    # move with T, so records are compared by code.
    vertices, bound, _affine_order, _linear_order = NOT_REFLEXIVE[name]
    shift = data.draw(st.tuples(*[st.integers(-6, 6)] * len(vertices[0])))
    moved = [tuple(a + b for a, b in zip(v, shift)) for v in vertices]
    expected = _unmoved_scan(name)
    got = list(scan_directions(LatticePolytope(moved), bound))
    assert [item.xi for item in got] == [item.xi for item in expected]
    assert any(item.error is None for item in expected), name
    for a, b in zip(got, expected):
        assert (a.error is None) == (b.error is None), (name, shift, a.xi)
        if b.error is None:
            assert a.report.ok == b.report.ok, (name, shift, a.xi)
            assert _record_codes(a.report) == _record_codes(b.report), (name, shift, a.xi)
            assert a.report.notes == b.report.notes, (name, shift, a.xi)
            assert (a.abbv_sum, a.weight_sum_constant) == (b.abbv_sum, b.weight_sum_constant), (
                name, shift, a.xi
            )
