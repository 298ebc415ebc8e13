"""A direction scan's shared orbit members against their own data.

A signed permutation g of the coordinates with g(P) = P turns the data of
(P, xi) into those of (P, g xi) with each vertex v renamed g v, so the scan
checks the first direction of each orbit and gives each later member a copy
of its report and the same sums.  These tests stand in for checking every
member: the symmetries, the orbits and the renaming come from
``tests/oracle.py``, which shares no code with the scan, and each item is
compared with ``validate``, the lemma suite and the sums run on the data of
its own direction.
"""

import pytest

import hamfano.toric
from hamfano.fixed_data import validate
from hamfano.localization import abbv_sum_4d, abbv_sum_6d, weight_sum_constant
from hamfano.toric import (
    CATALOG,
    LatticePolytope,
    UnsupportedDirectionError,
    _lemma_checks,
    _symmetries,
    fixed_data_from_polytope,
    scan_directions,
)

from .oracle import direction_orbits, renamed_fields, signed_permutation_symmetries
from .test_golden import POLYTOPES

HEXAGON = [(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)]

# name -> (vertices, bound, order of the signed-permutation symmetry group)
CASES = {
    "cube": (POLYTOPES["cube"], 3, 48),
    "CP3": (POLYTOPES["cp3"], 3, 6),
    "CP2xCP1": (POLYTOPES["cp2xcp1"], 3, 4),
    "Bl3CP2xCP1": (POLYTOPES["bl3cp2xcp1"], 3, 4),
    "truncated_cube": (POLYTOPES["truncated_cube"], 3, 6),
    "CP2": (CATALOG["CP2"][0], 6, 2),
    "CP1xCP1": (CATALOG["CP1xCP1"][0], 6, 8),
    "Bl1CP2": (CATALOG["Bl1CP2"][0], 6, 2),
    "Bl2CP2": (CATALOG["Bl2CP2"][0], 6, 1),
    "Bl3CP2": (CATALOG["Bl3CP2"][0], 6, 2),
    "hexagon": (HEXAGON, 6, 4),
}


def _direct(p, data):
    """The report and sums of one dataset, each computed on it directly."""
    report = validate(data)
    if p.dim == 2:  # every polygon here is a toric del Pezzo polygon
        assert p.delzant and p.reflexive
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
    group = signed_permutation_symmetries(vertices)
    assert len(group) == order
    assert len(_symmetries(p)) == order - 1
    orbits = direction_orbits(group, p.dim, bound)

    generated = _recording(monkeypatch)
    items = []
    for item in scan_directions(p, bound):
        # flag each report as it arrives: no other item may see the flag
        item.report.flag("probe", _probe(item.xi))
        items.append(item)
    scanned = list(generated)  # reading a shared member's data below generates it
    assert [item.xi for item in items] == list(orbits)

    clean = {}  # representative -> whether its own report may be shared
    for item in items:
        rep, g = orbits[item.xi]
        try:
            data = fixed_data_from_polytope(p, item.xi)
        except UnsupportedDirectionError as exc:
            assert item.error == str(exc) and item.data is None, item.xi
            with pytest.raises(UnsupportedDirectionError):
                fixed_data_from_polytope(p, rep)
            clean[item.xi] = False
            continue
        if rep != item.xi:
            assert renamed_fields(fixed_data_from_polytope(p, rep), g) == renamed_fields(
                data, group[0]
            ), (name, item.xi, rep)
        report, total, constant = _direct(p, data)
        if rep == item.xi:
            clean[rep] = report.ok and not report.inconclusive
        report.flag("probe", _probe(item.xi))
        assert item.error is None
        assert item.report.as_dict() == report.as_dict(), (name, item.xi)
        assert (item.abbv_sum, item.weight_sum_constant) == (total, constant), (name, item.xi)
        assert item.data == data, (name, item.xi)

    # a direction is generated in the scan unless its representative's report is shared
    expected = [xi for xi, (rep, _g) in orbits.items() if rep == xi or not clean[rep]]
    assert scanned == expected, name
    # Bl2CP2 has no symmetry, and Bl3CP2's only one, -1, takes no direction to a listed one
    assert (len(scanned) < len(items)) == (name not in ("Bl2CP2", "Bl3CP2")), name


def test_a_flagged_member_leaves_the_other_members_unchanged():
    vertices = POLYTOPES["cube"]
    p = LatticePolytope([tuple(v) for v in vertices])
    orbits = direction_orbits(signed_permutation_symmetries(vertices), 3, 2)
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
    assert generated == [item.xi for item in items]
    for item in items:
        if item.error is None:
            lowest = min(vertices, key=lambda v: sum(a * b for a, b in zip(item.xi, v)))
            records = item.report.violations if record == "flag" else item.report.inconclusive
            assert [r.message for r in records] == [f"minimum at v{'_'.join(map(str, lowest))}"]
