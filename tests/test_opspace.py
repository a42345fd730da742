"""Operator-string algebra: actions, adjoints, bases, truncation, matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scartypes import boundary, canonical, nullspace, opspace, scars, states
from scartypes.opspace import (LocalOperator, Region, apply, format_operator,
                               hs_inner, identity, op_sum, parse_operator,
                               string_term, to_boson_basis, to_pauli_basis,
                               truncate)
from operator_oracles import operators_equal, string_masks, to_matrix


def random_operator(n_sites, rng, n_terms=6, max_len=3, paulis=False):
    codes = ("x", "y", "z") if paulis else ("sd", "s", "n")
    op = LocalOperator(n_sites)
    for _ in range(n_terms):
        length = rng.integers(1, max_len + 1)
        start = int(rng.integers(0, n_sites))
        factors = [(start + k, codes[rng.integers(0, 3)]) for k in range(length)]
        coeff = complex(rng.normal(), rng.normal())
        op = op + string_term(n_sites, coeff, factors)
    return op


def random_state(n_sites, rng):
    psi = rng.normal(size=1 << n_sites) + 1j * rng.normal(size=1 << n_sites)
    return psi / np.linalg.norm(psi)


class TestApply:
    def test_identity_on_w(self):
        w = states.w_state(3)
        assert np.allclose(apply(identity(3), w), w)

    def test_zero_operator_and_identity(self):
        n = 5
        psi = random_state(n, np.random.default_rng(3))
        assert np.array_equal(apply(LocalOperator(n), psi), np.zeros(1 << n))
        assert np.array_equal(apply(identity(n, 2.5 - 1j), psi), (2.5 - 1j) * psi)

    def test_string_table_takes_a_generator_or_no_terms(self):
        n = 6
        op = canonical.random_type1(n, np.random.default_rng(4)) + identity(n, 0.5)
        want = opspace._string_table(n, list(op.terms.items()))
        got = opspace._string_table(n, (item for item in op.terms.items()))
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        assert all(a.size == 0 for a in opspace._string_table(n, iter(())))

    def test_nonhermitian_annihilator_kills_w(self):
        n = 8
        w = states.w_state(n)
        p = canonical.p_nonherm(n, 3)
        assert np.linalg.norm(apply(p, w)) < 1e-14
        # but its adjoint does not annihilate W
        assert np.linalg.norm(apply(p.dagger(), w)) > 0.1

    def test_single_annihilation_on_w3(self):
        out = apply(string_term(3, 1.0, [(1, "s")]), states.w_state(3))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1 / np.sqrt(3)
        assert np.allclose(out, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(opspace.DimensionError):
            apply(identity(4), states.w_state(3))

    def test_linear_in_both_arguments(self):
        rng = np.random.default_rng(0)
        a, b = random_operator(5, rng), random_operator(5, rng)
        psi, phi = random_state(5, rng), random_state(5, rng)
        lhs = apply(a + 2.0 * b, psi + 3.0 * phi)
        rhs = (apply(a, psi) + 3.0 * apply(a, phi)
               + 2.0 * apply(b, psi) + 6.0 * apply(b, phi))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestUnitStates:
    """Every eigenstate check goes through eigen_defect, which takes unit states only."""

    N = 10

    @staticmethod
    def _entry_points(n):
        vac, w = states.vacuum(n), states.w_state(n)
        imhop, rehop = canonical.h_imhop(n), canonical.h_rehop(n)
        lam = Region(0, 6, n)
        return {
            "eigen_defect": lambda s: opspace.eigen_defect(imhop, s * w),
            "require_eigenstate": lambda s: canonical.require_eigenstate(imhop, s * w),
            "variance": lambda s: scars.variance(rehop, s * states.w_q(n, 1)),
            "expectation": lambda s: scars.expectation(rehop, s * w),
            "classify": lambda s: boundary.classify(imhop, [s * vac, s * w]),
            "equivalence_test": lambda s: boundary.equivalence_test(
                imhop, canonical.h_dmi(n), [s * vac, s * w]),
            "boundary_solve": lambda s: boundary.boundary_solve(rehop, [s * w], lam, 2),
            "action_equivalent": lambda s: boundary.action_equivalent(
                imhop, imhop, [s * vac, s * w]),
            "verify_null_vector": lambda s: nullspace.verify_null_vector(
                nullspace.window_basis(n, 0, 2), np.ones(15), [s * w]),
        }

    @pytest.mark.parametrize("entry", ["eigen_defect", "require_eigenstate", "variance",
                                       "expectation", "classify", "equivalence_test",
                                       "boundary_solve", "action_equivalent",
                                       "verify_null_vector"])
    def test_scaled_state_rejected(self, entry):
        run = self._entry_points(self.N)[entry]
        run(1.0 + 1e-12)                     # within NORM_TOL of 1
        with pytest.raises(ValueError, match="norm 2 is not 1"):
            run(2.0)


class TestDagger:
    def test_creation_to_annihilation(self):
        sd = string_term(6, 1.0, [(2, "sd")])
        assert sd.dagger().terms == {(2, ("s",)): 1.0}

    def test_h_imhop_hermitian(self):
        him = canonical.h_imhop(8)
        assert him.hermitian()

    def test_imaginary_number_op(self):
        op = string_term(6, 1j, [(0, "n")])
        assert op.dagger().terms == {(0, ("n",)): -1j}

    @pytest.mark.parametrize("text", [
        "1i * x@0 ; -1i * sd@0 ; -1i * s@0",                 # the zero operator
        "1 * sd@0 s@1 ; 1 * s@0 sd@1 ; 1i * x@2 ; -1i * sd@2 ; -1i * s@2",
        "1 * x@0 ; -1 * sd@0",                                 # s@0: not Hermitian
        "1i * y@1 ; 1 * sd@1",                                 # 2 sd@1: not Hermitian
        "0.5 * z@0 ; 1 * n@0 ; 0.5i * x@1 y@2 ; -0.5i * sd@1 z@2"])
    def test_hermitian_across_code_families_matches_matrix(self, text):
        op = parse_operator(text, 4)
        mat = to_matrix(op)
        assert op.hermitian() == np.allclose(mat, mat.conj().T, atol=1e-12)

    def test_involution_and_adjointness(self):
        rng = np.random.default_rng(1)
        op = random_operator(6, rng)
        assert (op.dagger().dagger() - op).coeff_norm() < 1e-13
        psi, phi = random_state(6, rng), random_state(6, rng)
        lhs = np.vdot(phi, apply(op, psi))
        rhs = np.conj(np.vdot(psi, apply(op.dagger(), phi)))
        assert abs(lhs - rhs) < 1e-12


class TestHSInner:
    def test_pauli_orthogonality(self):
        x = string_term(6, 1.0, [(2, "x")])
        y = string_term(6, 1.0, [(2, "y")])
        assert abs(hs_inner(x, y)) < 1e-15

    def test_identity_number_overlap(self):
        n = string_term(6, 1.0, [(0, "n")])
        assert hs_inner(identity(6), n) == pytest.approx(0.5)
        assert hs_inner(n, n) == pytest.approx(0.5)

    def test_matches_dense_trace(self):
        rng = np.random.default_rng(2)
        a, b = random_operator(5, rng), random_operator(5, rng)
        dense = np.trace(to_matrix(a).conj().T @ to_matrix(b)) / 2 ** 5
        assert abs(hs_inner(a, b) - dense) < 1e-12

    def test_conjugate_symmetric_positive(self):
        rng = np.random.default_rng(3)
        a, b = random_operator(5, rng), random_operator(5, rng)
        assert abs(hs_inner(a, b) - np.conj(hs_inner(b, a))) < 1e-13
        assert hs_inner(a, a).real > 0


class TestBasisConversion:
    def test_imaginary_hop_pauli_form(self):
        # i(sd_j s_{j+1} - sd_{j+1} s_j) = -(x_j y_{j+1} - y_j x_{j+1})/2
        # under the |0> <-> sigma^z=+1 convention fixed package-wide
        n = 6
        hop = string_term(n, 1j, [(0, "sd"), (1, "s")]) \
            + string_term(n, -1j, [(1, "sd"), (0, "s")])
        expected = string_term(n, -0.5, [(0, "x"), (1, "y")]) \
            + string_term(n, 0.5, [(0, "y"), (1, "x")])
        assert (to_pauli_basis(hop) - expected).coeff_norm() < 1e-14

    def test_number_operator(self):
        n_op = string_term(4, 1.0, [(2, "n")])
        expected = identity(4, 0.5) + string_term(4, -0.5, [(2, "z")])
        assert (to_pauli_basis(n_op) - expected).coeff_norm() < 1e-14

    def test_identity_fixed_point(self):
        ident = identity(4, 2.5)
        assert (to_pauli_basis(ident) - ident).coeff_norm() < 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            op = random_operator(7, rng)
            back = to_boson_basis(to_pauli_basis(op))
            diff = back - op
            assert all(abs(c) < 1e-12 for c in diff.terms.values())

    def test_term_order(self):
        # each site's expansion options are taken last first, the first site
        # varying slowest; apply and to_matrix sum the terms in this order
        assert list(string_term(6, 1.0, [(3, "sd"), (3, "s"), (4, "x")]).terms) == [
            (3, ("n", "x")), (4, ("x",))]
        assert list(to_pauli_basis(string_term(6, 1.0, [(0, "sd"), (1, "n")])).terms) == [
            (0, ("y", "z")), (0, ("y",)), (0, ("x", "z")), (0, ("x",))]
        assert list(to_boson_basis(string_term(6, 1.0, [(0, "x"), (1, "z")])).terms) == [
            (0, ("s", "n")), (0, ("s",)), (0, ("sd", "n")), (0, ("sd",))]

    def test_operator_in_target_basis_returned_as_is(self):
        rng = np.random.default_rng(6)
        for paulis, convert, table in ((True, to_pauli_basis, opspace._TO_PAULI),
                                       (False, to_boson_basis, opspace._TO_BOSON)):
            for op in (random_operator(7, rng, n_terms=12, paulis=paulis),
                       identity(7, 1.5 - 2j), LocalOperator(7)):
                assert convert(op) is op
                forced = opspace._convert(op, table)
                assert list(forced.terms) == list(op.terms)
                assert all(forced.terms[k] == v for k, v in op.terms.items())

    def test_conversion_preserves_action(self):
        rng = np.random.default_rng(5)
        op = random_operator(6, rng)
        psi = random_state(6, rng)
        assert np.allclose(apply(op, psi), apply(to_pauli_basis(op), psi),
                           atol=1e-12)


class TestTruncate:
    def test_imhop_natural_restriction(self):
        n = 10
        lam = Region(2, 8, n)
        expected = LocalOperator(n)
        for j in range(2, 8):
            expected = expected + string_term(n, 0.5j, [(j, "sd"), (j + 1, "s")])
            expected = expected + string_term(n, -0.5j, [(j + 1, "sd"), (j, "s")])
        for basis in ("pauli", "boson"):
            got = truncate(canonical.h_imhop(n), lam, basis)
            assert operators_equal(got, expected, tol=1e-13)

    def test_on_site_terms(self):
        n = 10
        lam = Region(1, 6, n)
        got = truncate(canonical.n_tot(n), lam, "boson")
        expected = LocalOperator(n)
        for j in range(1, 7):
            expected = expected + string_term(n, 1.0, [(j, "n")])
        assert (got - expected).coeff_norm() < 1e-13
        # Pauli-basis truncation agrees up to an identity shift
        got_p = truncate(canonical.n_tot(n), lam, "pauli")
        diff = to_boson_basis(got_p) - expected
        assert all(key == (0, ()) for key in diff.terms)

    def test_straddling_string_dropped(self):
        n = 10
        op = string_term(n, 1.0, [(5, "sd"), (6, "s")])
        lam = Region(0, 5, n)
        assert truncate(op, lam, "boson").terms == {}

    def test_region_too_small(self):
        op = canonical.h_imhop2(10)     # range 3
        with pytest.raises(ValueError):
            truncate(op, Region(0, 5, 10), "boson")

    def test_hermiticity_preserved(self):
        rng = np.random.default_rng(6)
        op = random_operator(8, rng)
        herm = op + op.dagger()
        lam = Region(0, 6, 8)
        for basis in ("boson", "pauli"):
            assert truncate(herm, lam, basis).hermitian()

    def test_window_rule_matches_per_site_rule(self):
        # every region of N = 10 that exceeds 2*range, wrapping ones such as
        # Region(7, 2, 10) included, and the identity string, which is kept
        n = 10
        rng = np.random.default_rng(26)
        op = random_operator(n, rng, n_terms=30, max_len=2) + identity(n, 0.5)
        op = op + random_operator(n, rng, n_terms=10, max_len=2, paulis=True)
        for basis, expanded in (("boson", to_boson_basis(op)), ("pauli", to_pauli_basis(op))):
            for left in range(n):
                for length in range(2 * op.declared_range + 1, n):
                    lam = Region(left, (left + length - 1) % n, n)
                    want = [((start, ops), c) for (start, ops), c in expanded.terms.items()
                            if all((start + k) % n in lam for k in range(len(ops)))]
                    got = list(truncate(op, lam, basis).terms.items())
                    assert got == want
                    assert dict(got)[(0, ())] == expanded.terms[(0, ())]

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_projection_and_linearity(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        a, b = random_operator(n, rng), random_operator(n, rng)
        left = int(rng.integers(0, n))
        lam = Region(left, (left + 6) % n, n)
        al, be = complex(rng.normal(), rng.normal()), complex(rng.normal())
        basis = "pauli" if rng.integers(2) else "boson"
        once = truncate(a, lam, basis)
        assert (truncate(once, lam, basis) - once).coeff_norm() < 1e-12
        lin = truncate(al * a + be * b, lam, basis)
        comb = al * truncate(a, lam, basis) + be * truncate(b, lam, basis)
        assert (lin - comb).coeff_norm() < 1e-10


class TestToMatrix:
    def test_single_site_number(self):
        mat = to_matrix(string_term(1, 1.0, [(0, "n")]))
        assert np.allclose(mat, np.diag([0.0, 1.0]))

    def test_two_site_imhop_degenerate(self):
        eigs = np.linalg.eigvalsh(to_matrix(canonical.h_imhop(2)))
        assert np.allclose(eigs, 0.0, atol=1e-14)

    def test_apply_consistency(self):
        rng = np.random.default_rng(7)
        op = random_operator(6, rng, n_terms=8)
        mat = to_matrix(op)
        for _ in range(100):
            psi = random_state(6, rng)
            assert np.abs(mat @ psi - apply(op, psi)).max() < 1e-12

    def test_adjoint_matches_conj_transpose(self):
        rng = np.random.default_rng(8)
        op = random_operator(8, rng)
        psi = random_state(8, rng)
        lhs = apply(op.dagger(), psi)
        rhs = to_matrix(op).conj().T @ psi
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_capacity_guard(self):
        with pytest.raises(opspace.CapacityError):
            to_matrix(identity(15))


class TestNormalOrdering:
    """Vacuum structure of the creation/annihilation string basis."""

    def test_annihilating_strings_kill_vacuum(self):
        n = 6
        vac = states.vacuum(n)
        for factors in ([(0, "s")], [(1, "n")], [(2, "sd"), (3, "s")],
                        [(0, "sd"), (1, "n")], [(4, "n"), (5, "s")]):
            op = string_term(n, 1.0, factors)
            has_annihilator = any(c in ("s", "n") for _, c in factors)
            out = apply(op, vac)
            if has_annihilator:
                assert np.linalg.norm(out) < 1e-15

    def test_pure_creation_strings_hit_orthogonal_basis_states(self):
        n = 6
        vac = states.vacuum(n)
        seen = set()
        for factors in ([(0, "sd")], [(1, "sd"), (2, "sd")],
                        [(3, "sd"), (4, "sd"), (5, "sd")]):
            out = apply(string_term(n, 1.0, factors), vac)
            support = np.nonzero(out)[0]
            assert support.size == 1 and abs(out[support[0]]) == 1.0
            assert support[0] not in seen and support[0] != 0
            seen.add(support[0])

    def test_basis_expansion_unique(self):
        rng = np.random.default_rng(9)
        op = random_operator(8, rng)
        rebuilt = LocalOperator(8)
        for (start, ops), coeff in op.terms.items():
            factors = [((start + k) % 8, c) for k, c in enumerate(ops)
                       if c != "id"]
            rebuilt = rebuilt + string_term(8, coeff, factors)
        assert (rebuilt - op).coeff_norm() < 1e-12


class TestRegion:
    def test_lengths_and_complement(self):
        reg = Region(6, 1, 8)
        assert reg.length == 4
        assert reg.sites() == [6, 7, 0, 1]
        assert [j for j in range(8) if j not in reg] == [2, 3, 4, 5]
        assert 7 in reg and 3 not in reg

    def test_invalid_regions(self):
        with pytest.raises(ValueError):
            Region(0, 7, 8)     # full ring


class TestTextFormat:
    def test_spec_example(self):
        op = parse_operator("0.5i * sd@3 s@4", 8)
        assert op.terms == {(3, ("sd", "s")): 0.5j}
        # a repeated site composes, later factors acting last: s sd = 1 - n
        assert parse_operator("sd@3 s@3", 8).terms == {(0, ()): 1.0, (3, ("n",)): -1.0}
        assert parse_operator("s@3 s@3", 8).terms == {}

    def test_builtin_round_trip(self):
        for op in (canonical.h_imhop(8), canonical.h_heis(8),
                   canonical.n_tot(8) + identity(8, 1.5 - 0.25j), LocalOperator(8)):
            back = parse_operator(format_operator(op), 8)
            assert (back - op).coeff_norm() < 1e-10

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        op = random_operator(7, rng, paulis=bool(rng.integers(2)))
        back = parse_operator(format_operator(op), 7)
        assert (back - op).coeff_norm() < 1e-9 * max(op.coeff_norm(), 1.0)

    @pytest.mark.parametrize("n", [6, 8, 10])
    @pytest.mark.parametrize("translation_invariant", [True, False])
    def test_exact_round_trip(self, n, translation_invariant):
        for seed in range(3):
            rng = np.random.default_rng(1000 * n + seed)
            op = (canonical.random_type1(n, rng, translation_invariant=translation_invariant)
                  + canonical.h_imhop(n) + identity(n, complex(rng.normal(), rng.normal())))
            assert parse_operator(format_operator(op), n).terms == op.terms

    @pytest.mark.parametrize("coeff", [1e-15 + 0.5j, 0.5 - 1e-16j, 1 / 3, 0.1,
                                       -2.5e-7 - 1e300j])
    def test_exact_round_trip_of_one_string(self, coeff):
        op = string_term(8, coeff, [(2, "sd"), (3, "n"), (4, "s")])
        assert parse_operator(format_operator(op), 8).terms == op.terms

    @pytest.mark.parametrize("text,value", [
        ("-1", -1), ("0.5i", 0.5j), ("1e-3", 1e-3), ("2-0.5i", 2 - 0.5j), ("i", 1j),
        ("2+i", 2 + 1j), ("2-i", 2 - 1j), ("+i", 1j), ("-i", -1j), ("1e5+i", 1e5 + 1j),
        ("1.5e+3i", 1500j), (" -0.25 + 2i ", -0.25 + 2j)])
    def test_coefficient_grammar(self, text, value):
        assert parse_operator(f"{text} * n@0", 4).terms == {(0, ("n",)): value}

    @pytest.mark.parametrize("text", ["2j", "e-3i", "1+2", "", "(2)", "1i+2",
                                      "nan", "inf", "-inf", "1+nani", "1e999"])
    def test_bad_coefficient(self, text):
        with pytest.raises(ValueError, match="coefficient"):
            parse_operator(f"{text} * n@0", 4)

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_operator("1.0 * q@3", 8)


# -- differential guard for the fast paths -------------------------------------

def random_strings(n_sites, rng, n_terms):
    """Random operator over all seven site codes, ``id`` inside and at the ends."""
    terms = {}
    for _ in range(n_terms):
        length = int(rng.integers(1, min(4, n_sites) + 1))
        ops = tuple(opspace.ALL_CODES[i] for i in rng.integers(0, 7, size=length))
        terms[(int(rng.integers(n_sites)), ops)] = complex(rng.normal(), rng.normal())
    return opspace.LocalOperator(n_sites, terms)


def dense_reference(op):
    """Kronecker-product matrix, independent of the string-mask decoder."""
    n = op.n_sites
    mat = np.zeros((1 << n, 1 << n), dtype=complex)
    for (start, ops), coeff in op.terms.items():
        codes = {(start + k) % n: c for k, c in enumerate(ops)}
        term = np.ones((1, 1), dtype=complex)
        for j in range(n):      # site j = bit j, so later sites are more significant
            term = np.kron(opspace._MATS[codes.get(j, "id")], term)
        mat += coeff * term
    return mat


def is_canonical(op):
    return all(opspace._canonical_key(op.n_sites, start, ops) == (start, ops)
               for start, ops in op.terms)


def plus_loop(n_sites, strings):
    """Sum built term by term with +, the construction op_sum replaces."""
    op = LocalOperator(n_sites)
    for coeff, factors in strings:
        op = op + string_term(n_sites, coeff, factors)
    return op


SEED_BUILTINS = {
    "n_tot": lambda n: plus_loop(n, [(1.0, [(j, "n")]) for j in range(n)]),
    "h_imhop": lambda n: plus_loop(n, [
        s for j in range(n) for s in ((0.5j, [(j, "sd"), (j + 1, "s")]),
                                      (-0.5j, [(j + 1, "sd"), (j, "s")]))]),
    "h_rehop": lambda n: plus_loop(n, [
        s for j in range(n) for s in ((0.5, [(j, "n")]), (0.5, [(j + 1, "n")]),
                                      (-0.5, [(j, "sd"), (j + 1, "s")]),
                                      (-0.5, [(j + 1, "sd"), (j, "s")]))]),
    "h_imhop2": lambda n: plus_loop(n, [
        s for j in range(n)
        for s in ((0.5j, [(j, "sd"), (j + 1, "n"), (j + 2, "s")]),
                  (-0.5j, [(j, "s"), (j + 1, "n"), (j + 2, "sd")]))]),
    "h_imhop_p": lambda n: plus_loop(n, [
        s for j in range(n)
        for s in ((1j, [(j, "sd"), (j + 1, "n"), (j + 2, "n"), (j + 3, "s")]),
                  (-1j, [(j, "s"), (j + 1, "n"), (j + 2, "n"), (j + 3, "sd")]))]),
    "h_dmi": lambda n: plus_loop(n, [
        s for j in range(n) for s in ((0.25, [(j, "z"), (j + 1, "x")]),
                                      (-0.25, [(j, "x"), (j + 1, "z")]))]),
    "h_heis": lambda n: SEED_BUILTINS["h_rehop"](n) + plus_loop(
        n, [(-1.0, [(j, "n"), (j + 1, "n")]) for j in range(n)]),
    "p_re": lambda n: plus_loop(n, [(1.0, [(1, "sd"), (3, "s")]),
                                    (1.0, [(3, "sd"), (1, "s")]),
                                    (-1.0, [(1, "n")]), (-1.0, [(3, "n")])]),
    "p_im": lambda n: (lambda op: op + op.dagger())(plus_loop(
        n, [(1j, [(n - 1, "sd"), (n + 2, "s")])]
        + [(-1j, [(n - 2 + k, "sd"), (n - 1 + k, "s")]) for k in range(1, 4)])),
    "p_nonherm": lambda n: plus_loop(n, [(0.5j, [(2, "sd"), (3, "s")]),
                                         (-0.5j, [(3, "sd"), (2, "s")]),
                                         (-0.5j, [(2, "n")]), (0.5j, [(3, "n")])]),
}
BUILTIN_ARGS = {"h_imhop_p": {"p": 3}, "h_dmi": {"axis": "y"},
                "p_re": {"j": 1, "alpha": 2}, "p_im": {"j": -1, "alpha": 3},
                "p_nonherm": {"j": 2}}


class TestFastPathDifferential:
    """op_sum, trusted algebra, to_matrix and apply against dense references."""

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 8),
           st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_algebra_matches_dense(self, seed, n, scalar):
        rng = np.random.default_rng(seed)
        a, b, c = (random_strings(n, rng, int(rng.integers(1, 9))) for _ in range(3))
        ma, mb, mc = dense_reference(a), dense_reference(b), dense_reference(c)
        x, y = complex(rng.normal(), rng.normal()), float(rng.normal())
        cases = [
            (op_sum(n, [a, b, c], [scalar, x, y]), scalar * ma + x * mb + y * mc),
            (op_sum(n, [a, b, c]), ma + mb + mc),
            (op_sum(n, []), np.zeros_like(ma)),
            (a + b, ma + mb),
            (a - b, ma - mb),
            (a - a, np.zeros_like(ma)),
            (scalar * a, scalar * ma),
            (a * scalar, scalar * ma),
            (-a, -ma),
            (a.dagger(), ma.conj().T),
            (to_pauli_basis(a), ma),
            (to_boson_basis(a), ma),
            (to_boson_basis(to_pauli_basis(a)), ma),
            (to_pauli_basis(to_boson_basis(a)), ma),
        ]
        for got, want in cases:
            assert is_canonical(got)
            scale = max(float(np.abs(want).max()), 1.0)
            assert np.abs(dense_reference(got) - want).max() <= 1e-12 * scale

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_matrix_and_apply_match_dense(self, seed, n):
        rng = np.random.default_rng(seed)
        op = random_strings(n, rng, int(rng.integers(1, 12)))
        want = dense_reference(op)
        scale = max(float(np.abs(want).max()), 1.0)
        assert np.abs(to_matrix(op) - want).max() <= 1e-12 * scale
        psi = random_state(n, rng)
        assert np.abs(to_matrix(op) @ psi - apply(op, psi)).max() <= 1e-12 * scale

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 9))
    @settings(max_examples=40, deadline=None)
    def test_canonical_key_matches_window_enumeration(self, seed, n):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            ops = tuple(str(c) for c in
                        rng.choice(["id", "x", "sd"], size=int(rng.integers(0, n + 1))))
            start = int(rng.integers(-n, 2 * n))
            codes = {(start + k) % n: c for k, c in enumerate(ops) if c != "id"}
            # shortest window over all starts and lengths, ties to the smallest start
            length, a = min((w, a) for a in range(n) for w in range(1, n + 1)
                            if all((s - a) % n < w for s in codes)) if codes else (0, 0)
            want = (a, tuple(codes.get((a + k) % n, "id") for k in range(length)))
            assert opspace._canonical_key(n, start, ops) == want

    def test_op_sum_checks_its_inputs(self):
        with pytest.raises(opspace.DimensionError):
            op_sum(4, [identity(4), identity(5)])
        with pytest.raises(ValueError):
            op_sum(4, [identity(4)], [1.0, 2.0])

    @pytest.mark.parametrize("name", sorted(SEED_BUILTINS))
    def test_builtins_match_plus_loop(self, name):
        for n in (6, 9):
            got = canonical.BUILTINS[name][0](n, **BUILTIN_ARGS.get(name, {}))
            want = SEED_BUILTINS[name](n)
            assert is_canonical(got)
            assert operators_equal(got, want, tol=1e-12)
            assert np.abs(to_matrix(got) - to_matrix(want)).max() < 1e-12

    @pytest.mark.parametrize("translation_invariant", [True, False])
    def test_random_type1_matches_plus_loop(self, translation_invariant):
        n = 8
        got = canonical.random_type1(n, np.random.default_rng(11),
                                     translation_invariant=translation_invariant)
        rng = np.random.default_rng(11)
        pats = canonical.table2_patterns()
        want = LocalOperator(n)

        def placed(pat, j):                  # the pattern anchored at site j
            return LocalOperator(n, {((j + off) % n, ops): v for (off, ops), v in pat})
        if translation_invariant:
            for c, pat in zip(rng.uniform(-1.0, 1.0, size=len(pats)), pats):
                for j in range(n):
                    want = want + c * placed(pat, j)
        else:
            for pat in pats:
                for j in range(n):
                    want = want + rng.uniform(-1.0, 1.0) * placed(pat, j)
        assert is_canonical(got)
        assert operators_equal(got, want, tol=1e-12)


def full_index_apply(op, psi):
    """apply decoding every string over all 2^N basis indices: the loop that
    reading only psi's support replaced (np.multiply, as there, so a large
    product is never computed in place)."""
    out = np.zeros(1 << op.n_sites, dtype=complex)
    for src, flip, vals in string_masks(op.n_sites, op.terms.items()):
        out[src ^ flip] += np.multiply(vals, psi[src])
    return out


def support_cases(n, rng):
    """Operators and states for the support differential at n sites."""
    ops = [random_operator(n, rng, max_len=min(3, n)),
           random_operator(n, rng, max_len=min(3, n), paulis=True),
           random_strings(n, rng, 10),
           parse_operator(f"0.5-2i * y@0 ; 3 * z@0 ; -1 * y@{n - 1} z@0", n),
           identity(n, 1.5 - 2j), LocalOperator(n)]
    if n >= 4:
        ops += [canonical.random_type1(n, rng) + canonical.h_imhop(n),
                to_pauli_basis(canonical.h_imhop2(n)), canonical.h_dmi(n)]
    planted = random_state(n, rng)
    planted[rng.random(planted.size) < 0.5] = 0.0
    planted[rng.random(planted.size) < 0.2] = -0.0
    psis = [random_state(n, rng), planted, states.vacuum(n), states.w_state(n),
            states.w_q(n, 1), np.zeros(1 << n)]
    if n >= 3:
        psis += [states.w_p(n, 2), states.droplet(n, n // 2 + 1, n // 4 + 1)]
    return ops, psis


class TestSupportApply:
    """apply reads only psi's nonzero amplitudes and is bit for bit the full
    decode, also from 2^14 amplitudes on, where numpy would compute a ``*``
    product of a temporary in place and round it differently."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12, 14, 15])
    def test_bytes_equal_full_index_decode(self, n):
        ops, psis = support_cases(n, np.random.default_rng(n))
        for op in ops:
            for psi in psis:
                assert apply(op, psi).tobytes() == full_index_apply(op, psi).tobytes()

    @pytest.mark.parametrize("n", [5, 12])
    def test_chunked_pairs_bytes_equal_full_index_decode(self, monkeypatch, n):
        # one string per chunk, and 7 strings per chunk, which divides no
        # operator's term count, so the last chunk is a short one
        ops, psis = support_cases(n, np.random.default_rng(n + 100))
        assert all(len(op) % 7 for op in ops if len(op) > 7)
        for psi in psis:
            for chunk in (1, 7 * max(np.count_nonzero(psi), 1)):
                monkeypatch.setattr(opspace, "PAIR_CHUNK", chunk)
                for op in ops:
                    assert apply(op, psi).tobytes() == full_index_apply(op, psi).tobytes()

    def test_index_set_restricts_decode(self):
        op = random_strings(6, np.random.default_rng(3), 12)
        idx = np.array([0, 5, 17, 63])
        pairs = list(opspace._string_pairs(6, op.terms.items(), idx))
        t, src, tgt, vals = (np.concatenate(a) for a in zip(*pairs))
        assert np.all(np.diff(t) >= 0)                  # term-major
        for k, (src_all, flip, vals_all) in enumerate(string_masks(6, op.terms.items())):
            keep = np.isin(src_all, idx)
            assert np.array_equal(src[t == k], src_all[keep])
            assert np.array_equal(tgt[t == k], src_all[keep] ^ flip)
            assert np.array_equal(vals[t == k],
                                  np.broadcast_to(vals_all, src_all.shape)[keep])
