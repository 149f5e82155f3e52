"""Group model: elements, generating sets, quotients."""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from lattice_waves.errors import (
    ContainsIdentity,
    DoesNotGenerate,
    InfiniteSubgroup,
    ModulusOutOfRange,
    NotSymmetric,
    ShapeMismatch,
)
import lattice_waves
from lattice_waves import oracles, randgen, serialize, tree
from lattice_waves.functions import SupportedFunction
from lattice_waves.groups import (
    GroupElement,
    Quotient,
    _smith,
    adder,
    elem_add,
    elem_neg,
    identity,
    make_element,
    make_group,
    quotient,
    validate_generators,
)

Z = make_group(1, [])
Z2 = make_group(2, [])
ZxZ4 = make_group(1, [4])


def elements(G):
    free = st.tuples(*[st.integers(-50, 50)] * G.rank)
    tor = st.tuples(*[st.integers(-50, 50) for _ in G.moduli])
    return st.builds(lambda f, t: make_element(G, f, t), free, tor)


class TestGroupSpec:
    def test_moduli_must_be_at_least_two(self):
        with pytest.raises(ModulusOutOfRange):
            make_group(1, [1])
        with pytest.raises(ModulusOutOfRange):
            make_group(0, [0])

    def test_element_torsion_reduced_eagerly(self):
        a = make_element(ZxZ4, [3], [7])
        assert a.torsion == (3,)
        assert make_element(ZxZ4, [3], [-1]).torsion == (3,)

    def test_wrong_coordinate_count_rejected(self):
        with pytest.raises(ShapeMismatch):
            make_element(Z, [1, 2], [])
        with pytest.raises(ShapeMismatch):
            make_element(ZxZ4, [1], [])

    def test_elem_add_checks_shapes(self):
        with pytest.raises(ShapeMismatch):
            elem_add(Z, make_element(Z, [1], []), make_element(Z2, [1, 2], []))
        with pytest.raises(ShapeMismatch):
            elem_add(ZxZ4, make_element(ZxZ4, [1], [2]), make_element(Z, [1], []))

    def test_elements_hash_and_compare_as_tuples(self):
        a = make_element(ZxZ4, [3], [5])
        assert (a.free, a.torsion) == ((3,), (1,))
        assert a == make_element(ZxZ4, [3], [1])
        assert hash(a) == hash(((3,), (1,)))
        assert len({a, make_element(ZxZ4, [3], [9])}) == 1


def _raised(call):
    """The class and message of what ``call()`` raises."""
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("value", [1.5, 2.0, True, None, [1], " 7", "1_000", "\u0663", "+-5",
                                   "--5"], ids=repr)
class TestOneIntegerRule:
    """The public constructors read integers as the wire does: same values, same messages."""

    def test_group(self, value):
        got = f"must be an integer or a decimal string, got {value!r}"
        assert _raised(lambda: make_group(value, [])) == (ShapeMismatch, f"rank {got}")
        assert _raised(lambda: make_group(1, [4, value])) == (ShapeMismatch, f"modulus {got}")
        assert _raised(lambda: serialize.group_from_json({"rank": value})) == _raised(
            lambda: make_group(value, []))
        wire = {"rank": 1, "moduli": [4, value]}
        assert _raised(lambda: serialize.group_from_json(wire)) == _raised(
            lambda: make_group(1, [4, value]))

    def test_element(self, value):
        want = (ShapeMismatch, f"element coordinate must be an integer or a decimal string, "
                               f"got {value!r}")
        assert _raised(lambda: make_element(ZxZ4, [value], [0])) == want
        assert _raised(lambda: make_element(ZxZ4, [0], [value])) == want
        assert _raised(lambda: serialize.element_from_json(
            ZxZ4, {"free": [0], "torsion": [value]})) == want

    def test_vertex_and_window(self, value):
        want = (ShapeMismatch, f"tree-word letter must be an integer or a decimal string, "
                               f"got {value!r}")
        f = tree.TreeFunction(3, {(1,): 1})
        assert _raised(lambda: tree.make_vertex([1, value], 3)) == want
        assert _raised(lambda: tree.tree_heat_solve(f, 1, [(), (1, value)])) == want
        assert _raised(lambda: tree.tree_wave_solve(f, f, 1, [(1, value)])) == want
        rows = [{"elem": [1, value], "num": "1", "den": "1"}]
        assert _raised(lambda: serialize.tree_function_from_rows(3, rows)) == want

    def test_alpha_coefficient(self, value):
        got = f"must be an integer or a decimal string, got {value!r}"
        assert _raised(lambda: tree.alpha_coeff(value, 0, 3)) == (ShapeMismatch, f"power j {got}")
        assert _raised(lambda: tree.alpha_coeff(2, value, 3)) == (
            ShapeMismatch, f"harmonic index s {got}")
        assert _raised(lambda: tree.alpha_coeff(2, 0, value)) == (
            ShapeMismatch, f"tree degree k {got}")


# A key holding a list is not hashable, so the keys are tried with the other four.
@pytest.mark.parametrize("value", [1.5, 2.0, True, None], ids=repr)
def test_function_keys_follow_the_one_integer_rule(value):
    got = f"must be an integer or a decimal string, got {value!r}"
    assert _raised(lambda: SupportedFunction(Z, {GroupElement((value,), ()): 1})) == (
        ShapeMismatch, f"element coordinate {got}")
    assert _raised(lambda: tree.TreeFunction(3, {(1, value): 1})) == (
        ShapeMismatch, f"tree-word letter {got}")


def test_public_constructors_read_decimal_strings():
    assert make_group("1", ["4"]) == ZxZ4
    assert make_element(ZxZ4, ["-7"], ["5"]) == make_element(ZxZ4, [-7], [1])
    assert tree.make_vertex(["1", 2, "3"], 3) == (1, 2, 3)
    assert SupportedFunction(Z, {GroupElement(("3",), ()): 1}) == SupportedFunction(
        Z, {make_element(Z, [3], []): 1})
    f = tree.TreeFunction(3, {("1", "2"): 1})
    assert f == tree.TreeFunction(3, {(1, 2): 1})
    assert tree.tree_heat_solve(f, 2, [(), ("1",), (1, "2")]) == tree.tree_heat_solve(
        f, 2, [(), (1,), (1, 2)])
    assert tree.alpha_coeff("2", "-1", "3") == tree.alpha_coeff(2, -1, 3) == -12
    assert oracles.radial_step_heat([1, 2], "3") == oracles.radial_step_heat([1, 2], 3)
    assert oracles.radial_step_wave([1], [1, 2], "3") == oracles.radial_step_wave([1], [1, 2], 3)


@pytest.mark.parametrize("G", [Z, Z2, ZxZ4, make_group(0, [2, 3])])
class TestGroupLaws:
    def test_identity_neutral(self, G):
        @given(elements(G))
        def inner(a):
            e = identity(G)
            assert elem_add(G, a, e) == a
            assert elem_add(G, e, a) == a

        inner()

    def test_inverse_and_commutativity(self, G):
        @given(elements(G), elements(G))
        def inner(a, b):
            assert elem_add(G, a, elem_neg(G, a)) == identity(G)
            assert elem_add(G, a, b) == elem_add(G, b, a)

        inner()

    def test_adder_matches_elem_add(self, G):
        add = adder(G)

        @given(elements(G), elements(G))
        def inner(a, b):
            assert add(a, b) == elem_add(G, a, b)
            assert add(a, b).torsion == elem_add(G, a, b).torsion

        inner()

    def test_associativity(self, G):
        @given(elements(G), elements(G), elements(G))
        def inner(a, b, c):
            assert elem_add(G, elem_add(G, a, b), c) == elem_add(G, a, elem_add(G, b, c))

        inner()


class TestValidateGenerators:
    def test_standard_set_on_z(self):
        S = validate_generators(Z, [make_element(Z, [1], []), make_element(Z, [-1], [])])
        assert S.degree == 2
        # randgen.standard_generators: e_i then -e_i, coordinate by coordinate,
        # free ones first, with -e_i left out where it is e_i (a Z2 coordinate).
        pins = {
            (0, ()): [],
            (1, ()): [((1,), ()), ((-1,), ())],
            (0, (2, 2)): [((), (1, 0)), ((), (0, 1))],
            (2, (5,)): [((1, 0), (0,)), ((-1, 0), (0,)), ((0, 1), (0,)), ((0, -1), (0,)),
                        ((0, 0), (1,)), ((0, 0), (4,))],
            (1, (4, 6, 2)): [((1,), (0, 0, 0)), ((-1,), (0, 0, 0)), ((0,), (1, 0, 0)),
                             ((0,), (3, 0, 0)), ((0,), (0, 1, 0)), ((0,), (0, 5, 0)),
                             ((0,), (0, 0, 1))],
        }
        for (rank, moduli), want in pins.items():
            assert randgen.standard_generators(make_group(rank, moduli)) == want
        for rank, moduli in itertools.product(range(4), [(), (2,), (3,), (2, 2), (4, 6, 2), (5,)]):
            G = make_group(rank, moduli)
            gens = randgen.standard_generators(G)
            degree = 2 * rank + sum(1 if m == 2 else 2 for m in moduli)
            assert len(gens) == degree and (not gens or validate_generators(G, gens).degree == degree)

    def test_identity_rejected(self):
        with pytest.raises(ContainsIdentity):
            validate_generators(Z, [identity(Z), make_element(Z, [1], [])])

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetric):
            validate_generators(Z, [make_element(Z, [1], [])])

    def test_non_generating_rejected(self):
        # +-2 generates only the even integers.
        with pytest.raises(DoesNotGenerate):
            validate_generators(Z, [make_element(Z, [2], []), make_element(Z, [-2], [])])

    def test_torsion_only_set_cannot_generate_free_part(self):
        with pytest.raises(DoesNotGenerate):
            validate_generators(
                ZxZ4, [make_element(ZxZ4, [0], [1]), make_element(ZxZ4, [0], [3])]
            )

    def test_involution_allowed_without_distinct_inverse(self):
        G = make_group(0, [2])
        S = validate_generators(G, [make_element(G, [], [1])])
        assert S.degree == 1


class TestQuotient:
    def test_z_x_z4_by_order_two_subgroup(self):
        Q = quotient(ZxZ4, [make_element(ZxZ4, [0], [2])])
        assert Q.order == 2
        assert Q.group.rank == 1
        assert tuple(Q.group.moduli) == (2,)
        assert Q.project(make_element(ZxZ4, [0], [3])) == make_element(Q.group, [0], [1])
        assert Q.project(make_element(ZxZ4, [0], [2])) == identity(Q.group)

    def test_projection_is_homomorphism(self):
        Q = quotient(ZxZ4, [make_element(ZxZ4, [0], [2])])

        @given(elements(ZxZ4), elements(ZxZ4))
        def inner(a, b):
            assert Q.project(elem_add(ZxZ4, a, b)) == elem_add(
                Q.group, Q.project(a), Q.project(b)
            )

        inner()

    def test_section_is_right_inverse(self):
        Q = quotient(ZxZ4, [make_element(ZxZ4, [0], [2])])
        for t in range(2):
            q = make_element(Q.group, [3], [t])
            assert Q.project(Q.section(q)) == q

    def test_fiber_enumerates_the_coset(self):
        Q = quotient(ZxZ4, [make_element(ZxZ4, [0], [2])])
        q = make_element(Q.group, [1], [1])
        fib = Q.fiber(q)
        assert len(fib) == 2
        assert all(Q.project(x) == q for x in fib)

    def test_trivial_subgroup_keeps_presentation(self):
        G = make_group(1, [2, 3])
        Q = quotient(G, [])
        assert Q.group == G
        assert Q.order == 1
        a = make_element(G, [5], [1, 2])
        assert Q.project(a) == a

    def test_infinite_subgroup_rejected(self):
        with pytest.raises(InfiniteSubgroup):
            quotient(Z2, [make_element(Z2, [1, 0], [])])

    def test_klein_style_quotients(self):
        G = make_group(1, [2, 2])
        for tor in ([1, 0], [0, 1]):
            Q = quotient(G, [make_element(G, [0], tor)])
            assert Q.order == 2
            assert Q.group.rank == 1
            assert tuple(Q.group.moduli) == (2,)


def _random_generator_rows(rng, G):
    """Rows of the generation test: random elements of G, then the torsion relations."""
    rows = [
        [rng.randint(-6, 6) for _ in range(G.rank)] + [rng.randrange(m) for m in G.moduli]
        for _ in range(rng.randint(1, 4))
    ]
    for i, m in enumerate(G.moduli):
        rows.append([0] * G.rank + [m * (i == j) for j in range(len(G.moduli))])
    return rows


def _random_torsion_group(rng):
    moduli = [rng.choice([2, 3, 4, 6, 8, 9, 12, 16]) for _ in range(rng.randint(1, 3))]
    return make_group(rng.randint(0, 2), moduli)


class TestSmithNormalForm:
    """The built-in Smith normal form against the reference implementation.

    Quotient coordinates are part of the CLI output, so the transform must
    equal the reference's step for step, not merely be some valid one.
    """

    def test_invariant_factors_match_reference(self):
        pytest.importorskip("sympy")
        from sympy import Matrix
        from sympy.matrices.normalforms import invariant_factors
        from sympy.polys.domains import ZZ
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.matrices.normalforms import smith_normal_decomp

        rng = random.Random(20261018)
        zeros = 0
        for _ in range(400):
            G = _random_torsion_group(rng) if rng.random() < 0.7 else make_group(3, [])
            rows = _random_generator_rows(rng, G)
            if G.rank and rng.random() < 0.3:
                # A free coordinate no generator moves: rank deficient.
                j = rng.randrange(G.rank)
                for row in rows:
                    row[j] = 0
            if rng.random() < 0.2:
                rows.insert(0, [0] * len(rows[0]))
            factors, T, T_inv = _smith(rows)
            assert factors == tuple(int(d) for d in invariant_factors(Matrix(rows)))
            zeros += 0 in factors
            # Zero pivots and row swaps occur only in these shapes, so check T here too.
            V = smith_normal_decomp(DomainMatrix.from_Matrix(Matrix(rows)).convert_to(ZZ))[2]
            assert Matrix(T) == V.to_Matrix()
            assert Matrix(T) * Matrix(T_inv) == Matrix.eye(len(T))
        assert zeros > 20

    def test_quotient_fields_match_reference(self):
        pytest.importorskip("sympy")
        from sympy import Matrix
        from sympy.polys.domains import ZZ
        from sympy.polys.matrices import DomainMatrix
        from sympy.polys.matrices.normalforms import smith_normal_decomp

        rng = random.Random(4)
        for _ in range(300):
            G = _random_torsion_group(rng)
            t = len(G.moduli)
            gens = [
                make_element(G, [0] * G.rank, [rng.randrange(m) for m in G.moduli])
                for _ in range(rng.randint(0, 3))
            ]
            rows = [[m * (i == j) for j in range(t)] for i, m in enumerate(G.moduli)]
            rows += [list(h.torsion) for h in gens]
            S, _U, V = smith_normal_decomp(DomainMatrix.from_Matrix(Matrix(rows)).convert_to(ZZ))
            S, V = S.to_Matrix(), V.to_Matrix()
            divisors = tuple(abs(int(S[i, i])) for i in range(t))
            transform = tuple(tuple(int(V[i, j]) for j in range(t)) for i in range(t))

            factors, T, T_inv = _smith(rows)
            assert (factors, T) == (divisors, transform)
            assert Matrix(T) * Matrix(T_inv) == Matrix.eye(t)

            Q = quotient(G, gens)
            order = 1
            for m in G.moduli:
                order *= m
            for d in divisors:
                order //= d
            assert Q.order == order
            if order == 1:
                continue
            V_inv = V.inv()
            kept = tuple(i for i, d in enumerate(divisors) if d >= 2)
            assert Q.group == make_group(G.rank, [divisors[i] for i in kept])
            # Only the kept columns of V and the same rows of V^-1 are stored.
            assert Q.columns == tuple(tuple(int(V[i, j]) for i in range(t)) for j in kept)
            assert Q.inverse_rows == tuple(
                tuple(int(V_inv[j, i]) for i in range(t)) for j in kept
            )
            # H is the kernel of the projection, listed in coordinate order.
            zero = (0,) * G.rank
            assert Q.subgroup == tuple(
                GroupElement(zero, tor)
                for tor in itertools.product(*(range(m) for m in G.moduli))
                if Q.project(GroupElement(zero, tor)) == identity(Q.group)
            )

    @pytest.mark.parametrize("G", [make_group(1, [4, 6]), Z2], ids=["ZxZ4xZ6", "Z2"])
    def test_trivial_subgroup_keeps_the_presentation(self, G, monkeypatch):
        # H = {e} takes no Smith normal form: the quotient is G itself, also for t = 0.
        monkeypatch.setattr("lattice_waves.groups._smith", lambda rows: pytest.fail("_smith"))
        zero = identity(G)
        t = len(G.moduli)
        unit = tuple(tuple(int(i == j) for j in range(t)) for i in range(t))
        grid = [
            make_element(G, free, tor)
            for free in itertools.product(range(-2, 3), repeat=G.rank)
            for tor in itertools.product(*map(range, G.moduli))
        ]
        for gens in ([], [zero], [zero, zero]):
            Q = quotient(G, gens)
            assert (Q.group, Q.order, Q.subgroup) == (G, 1, (zero,))
            assert Q.columns == Q.inverse_rows == unit
            for q in grid:
                assert Q.project(q) == q
                assert Q.section(q) == q
                assert Q.fiber(q) == (q,)

    def test_quotient_builds_h_without_enumerating_the_group(self, monkeypatch):
        calls = []
        project = Quotient.project
        monkeypatch.setattr(
            Quotient, "project", lambda self, a: calls.append(a) or project(self, a)
        )
        G = make_group(0, [400, 400])
        Q = quotient(G, [make_element(G, [], [200, 0])])
        assert Q.order == 2
        assert Q.subgroup == (make_element(G, [], [0, 0]), make_element(G, [], [200, 0]))
        assert len(calls) < 10

    def test_cli_import_does_not_load_sympy(self):
        src = os.path.dirname(os.path.dirname(lattice_waves.__file__))
        code = "import sys, lattice_waves.cli; assert 'sympy' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
