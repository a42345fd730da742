"""Per-code-tuple and one-pass operator paths against their oracles.

The constructor, ``dagger`` and ``canonical._table_classes`` resolve each
distinct code tuple once; every operator they build must match the per-term
forms in keys, key order and coefficient bits (compared through ``repr``,
which tells -0.0 from 0.0).  The one-pass builders (``_translates`` and the
builtins and ``random_type1`` on it, the decompose sweeps' ``_placed``, the
bundles and ``hermitian``) must match their two-pass forms the same way.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scartypes import canonical, opspace
from scartypes.opspace import (ALL_CODES, COEFF_TOL, LocalOperator, parse_operator,
                               to_boson_basis)
from operator_oracles import (construct_terms, dagger_terms, hermitian_two_pass,
                              placed_two_pass, random_type1_two_pass, table_classes,
                              translates_two_pass)

SIZES = range(3, 13)


def bits(terms: dict) -> list:
    return [(key, repr(coeff)) for key, coeff in terms.items()]


def class_bits(classes) -> tuple:
    single, hop, bundles, lone, pairs = classes
    return repr((single, bundles, lone, pairs)), hop.tobytes()


def random_terms(n_sites, rng, count, max_width=None) -> dict:
    """Strings over all seven codes: windows of 0..N sites (or max_width), so
    longer than N/2 (ties on the ring), ``id`` at either end, starts off the
    ring, and coefficients with signed zero parts or of integer type."""
    terms = {}
    for _ in range(count):
        width = int(rng.integers(0, (max_width or n_sites) + 1))
        ops = tuple(ALL_CODES[i] for i in rng.integers(0, len(ALL_CODES), size=width))
        re, im = rng.normal(size=2)
        coeff = [complex(re, im), complex(-0.0, im), complex(re, -0.0), int(rng.integers(-3, 4))][
            int(rng.integers(4))]
        terms[(int(rng.integers(-n_sites, 2 * n_sites)), ops)] = coeff
    return terms


def assert_matches_oracles(n_sites, terms, op):
    assert bits(op.terms) == bits(construct_terms(n_sites, terms))
    assert bits(op.dagger().terms) == bits(dagger_terms(op))
    boson = to_boson_basis(op)
    assert class_bits(canonical._table_classes(boson)) == class_bits(table_classes(boson))


def assert_trusted_matches(n_sites, terms, op):
    """An operator built over canonical keys keeps its input, less the tiny terms."""
    assert all(opspace._canonical_key(n_sites, *key) == key for key in op.terms)
    assert bits(op.terms) == bits({k: v for k, v in terms.items() if abs(v) > COEFF_TOL})
    assert bits(op.dagger().terms) == bits(dagger_terms(op))


@pytest.fixture
def built(monkeypatch):
    """Every (n_sites, input terms, instance, trusted) the constructor and the
    trusted builder make during a test: the one-pass builders go through the latter."""
    seen = []
    init, trusted = LocalOperator.__init__, LocalOperator._trusted.__func__

    def spy(self, n_sites, terms=None):
        init(self, n_sites, terms)
        seen.append((n_sites, dict(terms or {}), self, False))

    def trusted_spy(cls, n_sites, terms):
        given_terms = dict(terms)
        op = trusted(cls, n_sites, terms)
        seen.append((n_sites, given_terms, op, True))
        return op

    monkeypatch.setattr(LocalOperator, "__init__", spy)
    monkeypatch.setattr(LocalOperator, "_trusted", classmethod(trusted_spy))
    return seen


def parent(n_sites, rng, translation_invariant):
    """An ensemble-style W-parent: gamma + alpha N_tot + beta H_ImHop + random type I."""
    gamma, alpha, beta = rng.uniform(-2.0, 2.0, size=3)
    return (opspace.identity(n_sites, gamma) + alpha * canonical.n_tot(n_sites)
            + beta * canonical.h_imhop(n_sites)
            + canonical.random_type1(n_sites, rng, translation_invariant))


def decompose_groups(op: LocalOperator) -> list:
    """decompose's pair and bundle annihilators built term by term."""
    n = op.n_sites
    _, _, bundles, _, pairs = table_classes(op)
    out = [LocalOperator._trusted(n, construct_terms(n, terms)) for terms in pairs.values()]
    for terms in bundles.values():
        bundle = LocalOperator._trusted(n, construct_terms(n, terms))
        out.append(bundle + LocalOperator._trusted(n, dagger_terms(bundle)))
    return out


@pytest.mark.parametrize("n", SIZES)
def test_random_strings_match_oracles(n):
    rng = np.random.default_rng([26, n])
    for _ in range(8):
        terms = random_terms(n, rng, int(rng.integers(1, 40)))
        assert_matches_oracles(n, terms, LocalOperator(n, terms))


@pytest.mark.parametrize("n", SIZES)
def test_package_builds_match_oracles(built, n):
    rng = np.random.default_rng([27, n])
    for name, (build, defaults) in canonical.BUILTINS.items():
        build(n, **defaults)
    for translation_invariant in (True, False):
        canonical.random_type1(n, rng, translation_invariant)
    parse_operator(f"0.5-2i * y@0 ; 3 * z@0 ; -1 * y@{n - 1} z@0 ; sd@1 s@{n - 1} ;"
                   f" 2 * sd@3 s@3 n@2 ; s@2 s@2 ; -i * x@0 sd@{n // 2}", n)
    for h in (parent(n, rng, True), parent(n, rng, False)):
        for sign in (1.0, -1.0):     # -1.0 * h carries -0.0 parts into decompose
            op = to_boson_basis(sign * h)
            form = canonical.decompose(sign * h)
            want = decompose_groups(op)
            got = form.annihilators[len(form.annihilators) - len(want):]
            assert [bits(a.terms) for a in got] == [bits(a.terms) for a in want]
    assert len(built) > 50
    assert {trusted for *_, trusted in built} == {False, True}
    for n_sites, terms, op, trusted in list(built):     # the checks build operators too
        if trusted:
            assert_trusted_matches(n_sites, terms, op)
        else:
            assert_matches_oracles(n_sites, terms, op)


def test_random_type1_skips_canonical_key_for_shift_stable_tuples(monkeypatch):
    n = 10
    called = []
    resolve = opspace._canonical_key

    def spy(n_sites, start, ops):
        called.append(ops)
        return resolve(n_sites, start, ops)

    monkeypatch.setattr(opspace, "_canonical_key", spy)
    op = canonical.random_type1(n, np.random.default_rng(0))
    # translates of a tuple with both ends occupied and 2 len <= N are canonical
    assert called and len(op)
    assert [ops for ops in called
            if ops[0] != "id" and ops[-1] != "id" and 2 * len(ops) <= n] == []


# -- one-pass builders against their two-pass forms ---------------------------------

def signed_coeff(rng):
    """A coefficient of either sign, with signed zero parts, or of integer type."""
    re, im = rng.normal(size=2)
    return [complex(re, im), complex(-0.0, im), complex(re, -0.0), re, -0.0,
            int(rng.integers(-3, 4))][int(rng.integers(6))]


def colliding_patterns(n_sites, rng, count) -> list:
    """Patterns whose entries reuse a few code tuples at several offsets, bare or
    padded with ids at either end, in windows up to N: placed keys that share a
    canonical key (ties past N/2 and id-ended windows), each summing several terms."""
    pool = [tuple(ALL_CODES[i] for i in rng.integers(1, len(ALL_CODES), size=width))
            for width in rng.integers(1, n_sites + 1, size=3)]
    pats = []
    for _ in range(count):
        entries = {}
        for _ in range(int(rng.integers(1, 6))):
            core = pool[int(rng.integers(len(pool)))]
            lead = int(rng.integers(0, n_sites - len(core) + 1))
            trail = int(rng.integers(0, n_sites - len(core) - lead + 1))
            ops = ("id",) * lead + core + ("id",) * trail
            entries[(int(rng.integers(0, n_sites - len(ops) + 1)), ops)] = signed_coeff(rng)
        pats.append(tuple(entries.items()))
    return pats


@pytest.mark.parametrize("n", SIZES)
def test_translates_matches_two_pass(n):
    rng = np.random.default_rng([29, n])
    catalog = canonical.table2_patterns()
    cases = [(catalog, range(n), rng.uniform(-1.0, 1.0, size=len(catalog) * n).tolist())]
    for _ in range(12):
        pats = colliding_patterns(n, rng, int(rng.integers(1, 5)))
        sites = rng.integers(-n, 2 * n, size=int(rng.integers(1, n + 1))).tolist()
        coeffs = [signed_coeff(rng) for _ in range(len(pats) * len(sites))]
        cases.append((pats, sites, coeffs if rng.integers(2) else None))
    for pats, sites, coeffs in cases:
        got = canonical._translates(n, pats, sites, coeffs)
        assert bits(got.terms) == bits(translates_two_pass(n, pats, sites, coeffs).terms)


@pytest.mark.parametrize("n", SIZES)
def test_random_type1_matches_two_pass(n):
    for seed in range(4):
        for translation_invariant in (True, False):
            got = canonical.random_type1(n, np.random.default_rng([30, n, seed]),
                                         translation_invariant)
            want = random_type1_two_pass(n, np.random.default_rng([30, n, seed]),
                                         translation_invariant)
            assert bits(got.terms) == bits(want.terms)


def builds(n):
    """bits of every builtin and every p_re / p_im placement on the ring, or the error."""
    calls = [(build, defaults) for build, defaults in canonical.BUILTINS.values()]
    calls += [(canonical.p_re, {"j": j, "alpha": a}) for j in (0, n - 1, n + 2)
              for a in range(1, n)]
    calls += [(canonical.p_im, {"j": j, "alpha": a}) for j in (0, n - 1, n + 2)
              for a in range(2, n)]
    out = []
    for build, kwargs in calls:
        try:
            out.append(bits(build(n, **kwargs).terms))
        except ValueError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("n", SIZES)
def test_builtins_and_sweep_placement_match_two_pass(monkeypatch, n):
    got = builds(n)
    monkeypatch.setattr(canonical, "_translates", translates_two_pass)
    assert got == builds(n)
    for alpha in range(1, n):
        for j in (0, 1, n - 1, n + 3):
            for coef in (0.37, -1.25, np.float64(-0.5), 3):
                for pattern in ([canonical._p_re_pattern(alpha)]
                                + [canonical._p_im_pattern(alpha)] * (alpha > 1)):
                    assert bits(canonical._placed(n, pattern, j, coef).terms) == \
                        bits(placed_two_pass(n, pattern, j, coef).terms)


def form_bits(form) -> tuple:
    return (repr(form.omega_id), repr(form.omega_n), repr(form.t_im),
            repr(form.residual_norm), [bits(a.terms) for a in form.annihilators])


def decompositions(n):
    """decompose and decompose_general of ensemble parents, negated (-0.0 parts) and
    scaled (a residual above COEFF_TOL), built from the same draws each call."""
    rng = np.random.default_rng([31, n])
    out = []
    for translation_invariant in (True, False):
        h = parent(n, rng, translation_invariant)
        for scale in (1.0, -1.0, 1e3):
            out.append(form_bits(canonical.decompose(scale * h)))
            out.append(form_bits(canonical.decompose_general(scale * h)))
    return out


@pytest.mark.parametrize("n", SIZES)
def test_decompose_matches_two_pass_builders(monkeypatch, n):
    got = decompositions(n)
    assert any(form[3] != "0.0" for form in got)
    monkeypatch.setattr(canonical, "_translates", translates_two_pass)
    monkeypatch.setattr(canonical, "random_type1", random_type1_two_pass)
    monkeypatch.setattr(canonical, "_placed", placed_two_pass)
    monkeypatch.setattr(LocalOperator, "hermitian", hermitian_two_pass)
    assert got == decompositions(n)


def hermitian_cases(n, rng) -> list:
    """Operators over all seven codes; parents, nudged just inside and outside the
    Hermiticity bound; and Hermitian ones with a Pauli string added in one basis
    and subtracted in the other, which only the boson-basis fallback accepts."""
    # windows of at most 6 sites keep the fallback's boson expansions small
    ops = [LocalOperator(n, random_terms(n, rng, int(rng.integers(1, 30)), min(n, 6)))
           for _ in range(6)]
    for translation_invariant in (True, False):
        h = parent(n, rng, translation_invariant)
        bound = opspace.CANCEL_TOL * max(1.0, *map(abs, h.terms.values()))
        ops += [h + LocalOperator(n, {key: 1j * bound * step})
                for key in list(h.terms)[:3] for step in (0.4, 0.6, 3.0)]
        pauli = opspace.to_pauli_basis(LocalOperator(n, random_terms(n, rng, 3, min(n, 6))))
        ops += [h + pauli - to_boson_basis(pauli), pauli]
    return ops


@pytest.mark.parametrize("n", SIZES)
def test_hermitian_matches_two_pass(n):
    rng = np.random.default_rng([32, n])
    verdicts = [(op.hermitian(), hermitian_two_pass(op)) for op in hermitian_cases(n, rng)]
    assert all(got == want for got, want in verdicts)
    assert {got for got, _ in verdicts} == {False, True}


@given(st.integers(3, 8), st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_hermitian_matches_two_pass_on_drawn_operators(n, seed, count):
    rng = np.random.default_rng(seed)
    op = LocalOperator(n, random_terms(n, rng, count))
    for candidate in (op, op + op.dagger(), op - op.dagger(), 1j * (op - op.dagger())):
        assert candidate.hermitian() == hermitian_two_pass(candidate)
