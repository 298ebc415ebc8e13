"""Acceptance gate: every headline identity and bound, at tolerance zero.

Each criterion prints one PASS/FAIL line, visible with
``pytest tests/test_acceptance.py -s``.  All arithmetic is exact; there
are no tolerances anywhere.
"""

import random
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

from hamfano.dh import dh_function_toric, reduced_volume
from hamfano.fano6 import (
    build_04_data,
    chainres_check,
    enumerate_04,
    fibre_correspondence,
    reflective_check,
    small_hamiltonian_suite,
    surface_graph,
)
from hamfano.fixed_data import FixedComponent, validate
from hamfano.localization import (
    Polynomial,
    abbv_sum_4d,
    abbv_sum_6d,
    chi_y,
    todd_and_c1c2,
    weight_sum_normalize,
)
from hamfano.toric import (
    LatticePolytope,
    delpezzo_catalog,
    delpezzo_lemma_suite,
    fixed_data_from_polytope,
    karshon_graph,
    primitive_directions,
)

from .lifts import lift_product
from .oracle import slice_length_2d

CP3 = LatticePolytope([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
CUBE = LatticePolytope([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])

LEMMA_NOTES = ("dum", "equallemma", "neededcor", "fourbound", "4small", "us", "calc")


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


def generic_directions(p, bound):
    out = []
    for xi in primitive_directions(p.dim, bound):
        if all(
            sum(a * b for a, b in zip(xi, e.direction)) != 0 for e in p.edges
        ):
            out.append(xi)
    return out


def test_criterion_1_chern_numbers():
    with criterion(1, "chi_y and c1c2 = 24 on CP3"):
        data = fixed_data_from_polytope(CP3, (1, 2, 4))
        assert chi_y(data) == Polynomial((1, -1, 1, -1))
        todd, c1c2 = todd_and_c1c2(data, chi_y(data))
        assert todd == 1 and c1c2 == 24


def test_criterion_2_abbv_identities():
    with criterion(2, "localisation sums vanish"):
        checked_4d = 0
        for entry in delpezzo_catalog():
            for xi in primitive_directions(2, 5):
                data = fixed_data_from_polytope(entry.polytope, xi)
                assert abbv_sum_4d(data) == 0, (entry.name, xi)
                checked_4d += 1
        assert checked_4d == 5 * len(primitive_directions(2, 5))

        for polytope in (CP3, CUBE):
            dirs = generic_directions(polytope, 3)
            assert len(dirs) >= 20
            for xi in dirs:
                data = fixed_data_from_polytope(polytope, xi)
                assert abbv_sum_6d(data) == 0, xi


def test_criterion_3_weight_sum_formula():
    with criterion(3, "weight sum normalisation constant 0 on reflexive data"):
        for entry in delpezzo_catalog():
            for xi in primitive_directions(2, 5):
                data = fixed_data_from_polytope(entry.polytope, xi)
                assert data.relative_fano
                constant, shifted = weight_sum_normalize(data)
                assert constant == 0 and shifted == data, (entry.name, xi)
        for polytope in (CP3, CUBE):
            for xi in generic_directions(polytope, 3):
                constant, _ = weight_sum_normalize(
                    fixed_data_from_polytope(polytope, xi)
                )
                assert constant == 0


def test_criterion_4_dh_oracle_equivalence():
    with criterion(4, "DH function equals the slice oracle; volumes symbolic"):
        rng = random.Random(424242)
        for entry in delpezzo_catalog():
            p = entry.polytope
            for xi in ((2, 1), (1, 0)):
                dh = dh_function_toric(p, xi)
                lo, hi = dh.domain
                for _ in range(50):
                    t = lo + (hi - lo) * Fraction(rng.randint(0, 9240), 9240)
                    assert dh(t) == slice_length_2d(p.vertices, xi, t), (
                        entry.name,
                        xi,
                        t,
                    )
            # initial slope at an isolated minimum is 1/(a*b)
            data = fixed_data_from_polytope(p, (2, 1))
            a, b = data.ordered()[0].weights
            assert dh_function_toric(p, (2, 1)).pieces[0].coefficient(1) == Fraction(
                1, a * b
            )

        for max_type, base in (((-1, -1, -1), 9), ((-2, -1, -1), 8)):
            for n_a in range(0, 5):
                for n_c in range(0, 9):
                    n_b = n_a if max_type == (-1, -1, -1) else n_a + 1
                    data = build_04_data(max_type, n_a, n_b, n_c)
                    assert reduced_volume(data, 0) == base - 2 * n_a - n_c


def test_criterion_5_enumeration_bound():
    with criterion(5, "type-A/B/C enumeration bound"):
        rows = enumerate_04()
        assert all(r["total"] <= 8 for r in rows)
        assert all(r["b2_min"] <= 9 for r in rows)
        assert any(r["total"] == 8 for r in rows)


def test_criterion_6_delpezzo_lemma_suite():
    with criterion(6, "del Pezzo lemma suite over the catalog sweep"):
        pairs = 0
        for entry in delpezzo_catalog():
            for xi in generic_directions(entry.polytope, 5):
                report = delpezzo_lemma_suite(entry.polytope, xi)
                assert report.ok, (entry.name, xi, report.violations)
                prefixes = {n.split(":")[0] for n in report.notes}
                assert set(LEMMA_NOTES) <= prefixes, (entry.name, xi)
                pairs += 1
        assert pairs > 100


def test_criterion_7_chain_discipline():
    with criterion(7, "chain restrictions on randomized Fano data"):
        rng = random.Random(77)
        for _ in range(40):
            max_type = rng.choice([(-1, -1, -1), (-2, -1, -1)])
            base = 9 if max_type == (-1, -1, -1) else 8
            n_a = rng.randint(0, 3)
            n_c = rng.randint(0, base - 2 * n_a - 1)
            n_b = n_a if max_type == (-1, -1, -1) else n_a + 1
            data = build_04_data(max_type, n_a, n_b, n_c)
            assert validate(data).ok
            assert chainres_check(data).ok

            # inject a modulus-3 weight: exactly one violation
            bad_point = FixedComponent(
                id="zz", kind="point", H=Fraction(1, 2), weights=(3, -1, -1)
            )
            injected = replace(data, components=data.components + (bad_point,))
            report = chainres_check(injected)
            assert len(report.violations) == 1
            assert "modulus" in report.violations[0].message

            if max_type == (-1, -1, -1):
                # no chain passes through this maximum, so a modulus-3 weight
                # there is caught by the global restriction alone
                mutated = replace(
                    data,
                    components=tuple(
                        FixedComponent(
                            id=c.id, kind="point", H=c.H, weights=(-1, -1, -3)
                        )
                        if c.id == "max"
                        else c
                        for c in data.components
                    ),
                )
                report = chainres_check(mutated)
                assert len(report.violations) == 1
                assert "modulus" in report.violations[0].message


def test_criterion_8_graph_correspondence():
    with criterion(8, "fibre-graph correspondence and reflectivity"):
        for entry in delpezzo_catalog():
            xi = (2, 1)
            assert xi in generic_directions(entry.polytope, 2)
            data = lift_product(entry.polytope, xi, genus=2)
            g, report = surface_graph(data)
            assert report.ok
            q = karshon_graph(entry.polytope, xi)
            result = fibre_correspondence(g, q)
            assert result.case == 2 and result.report.ok, entry.name
            assert result.mapping == {v.id: v.id for v in q.vertices}, entry.name

        # a Karshon graph exists when the fixed points are isolated, i.e. for
        # generic directions; among those the reflective ones are exactly the
        # square polygon with its two diagonal directions
        reflective_pairs = []
        for entry in delpezzo_catalog():
            for xi in generic_directions(entry.polytope, 1):
                q = karshon_graph(entry.polytope, xi)
                if reflective_check(q):
                    reflective_pairs.append((entry.name, xi))
        assert reflective_pairs == [("CP1xCP1", (1, -1)), ("CP1xCP1", (1, 1))]


def test_criterion_9_small_hamiltonian_suite():
    with criterion(9, "small-Hamiltonian suite: witness and fixtures"):
        cp2 = delpezzo_catalog()[0].polytope
        square = delpezzo_catalog()[1].polytope

        # witness exactness on data satisfying every hypothesis
        for base, genus in ((lift_product(cp2, (1, 2), 2), 2),
                            (lift_product(square, (1, 1), 3), 3)):
            report = small_hamiltonian_suite(base)
            assert report.ok, report.violations
            witness_lines = [n for n in report.notes if n.startswith("witness")]
            assert witness_lines, "no witness emitted"
            assert f"c1 = {2 - 2 * genus} <= {2 - 2 * genus}" in witness_lines[0]

        # fixture: a point with weights {3,-1,-1} trips exactly isosimp
        fixture = lift_product(cp2, (1, 2), 1)
        fixture = replace(
            fixture,
            components=fixture.components
            + (
                FixedComponent(
                    id="bad", kind="point", H=Fraction(-1), weights=(3, -1, -1)
                ),
            ),
        )
        report = small_hamiltonian_suite(fixture)
        assert [v.code for v in report.violations] == ["isosimp"]

        # fixture: a fixed sphere on level -1 trips exactly nosphere
        fixture = lift_product(cp2, (1, 2), 1)
        sphere = FixedComponent(
            id="sph",
            kind="surface",
            H=Fraction(-1),
            weights=(-1, 2),
            genus=0,
            normal_degrees=(-1, 0),
            area=Fraction(1),
        )
        fixture = replace(fixture, components=fixture.components + (sphere,))
        report = small_hamiltonian_suite(fixture)
        assert [v.code for v in report.violations] == ["nosphere"]
