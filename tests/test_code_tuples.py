"""Per-code-tuple operator paths against their per-term oracles.

The constructor, ``dagger`` and ``canonical._table_classes`` resolve each
distinct code tuple once; every operator they build must match the per-term
forms in keys, key order and coefficient bits (compared through ``repr``,
which tells -0.0 from 0.0).
"""

import numpy as np
import pytest

from scartypes import canonical, opspace
from scartypes.opspace import ALL_CODES, LocalOperator, parse_operator, to_boson_basis
from operator_oracles import construct_terms, dagger_terms, table_classes

SIZES = range(3, 13)


def bits(terms: dict) -> list:
    return [(key, repr(coeff)) for key, coeff in terms.items()]


def class_bits(classes) -> tuple:
    single, hop, bundles, lone, pairs = classes
    return repr((single, bundles, lone, pairs)), hop.tobytes()


def random_terms(n_sites, rng, count) -> dict:
    """Strings over all seven codes: windows of 0..N sites, so longer than N/2
    (ties on the ring), ``id`` at either end, starts off the ring, and
    coefficients with signed zero parts or of integer type."""
    terms = {}
    for _ in range(count):
        width = int(rng.integers(0, n_sites + 1))
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


@pytest.fixture
def built(monkeypatch):
    """Every (n_sites, input terms, instance) the constructor makes during a test."""
    seen = []
    init = LocalOperator.__init__

    def spy(self, n_sites, terms=None):
        init(self, n_sites, terms)
        seen.append((n_sites, dict(terms or {}), self))

    monkeypatch.setattr(LocalOperator, "__init__", spy)
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
    for n_sites, terms, op in built:
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
