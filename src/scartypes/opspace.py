"""Operator strings and local operators on a periodic qubit ring.

Operators are stored as linear combinations of *strings*: products of
single-site operators acting on a contiguous window of the ring.  Two
families of site operators are supported,

  hard-core boson family  : ``id``, ``sd`` (creation), ``s`` (annihilation),
                            ``n`` (number),
  Pauli family            : ``x``, ``y``, ``z``,

with the spin convention |0> <-> sigma^z = +1, so that n = (1 - z)/2.
Strings are keyed by (start site, tuple of site codes); the first and last
codes of a string are never ``id``.  Windows up to N sites are accepted.  A
window of length w <= N/2 is unambiguous on the ring; above N/2 the minimal
window can tie, and _canonical_key breaks ties by the smallest start.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

COEFF_TOL = 1e-14          # canonicalization drop tolerance (absolute)
CANCEL_TOL = 1e-12         # a coefficient below this x the largest |coeff| cancels
NORM_TOL = 1e-10           # | ||psi|| - 1 | accepted for a target state

PAULI_CODES = ("id", "x", "y", "z")
BOSON_CODES = ("id", "sd", "s", "n")
ALL_CODES = ("id", "sd", "s", "n", "x", "y", "z")

_MATS = {
    "id": np.eye(2, dtype=complex),
    "sd": np.array([[0, 0], [1, 0]], dtype=complex),   # |1><0|
    "s": np.array([[0, 1], [0, 0]], dtype=complex),    # |0><1|
    "n": np.array([[0, 0], [0, 1]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_DAGGER = {"id": "id", "sd": "s", "s": "sd", "n": "n", "x": "x", "y": "y", "z": "z"}

# site-code expansions between the two string bases
_TO_PAULI = {
    "id": (("id", 1.0),),
    "x": (("x", 1.0),),
    "y": (("y", 1.0),),
    "z": (("z", 1.0),),
    "sd": (("x", 0.5), ("y", -0.5j)),
    "s": (("x", 0.5), ("y", 0.5j)),
    "n": (("id", 0.5), ("z", -0.5)),
}
_TO_BOSON = {
    "id": (("id", 1.0),),
    "sd": (("sd", 1.0),),
    "s": (("s", 1.0),),
    "n": (("n", 1.0),),
    "x": (("sd", 1.0), ("s", 1.0)),
    "y": (("sd", 1j), ("s", -1j)),
    "z": (("id", 1.0), ("n", -2.0)),
}


class DimensionError(ValueError):
    """Chain-length mismatch between operators/states."""


class CapacityError(ValueError):
    """Requested dense object exceeds the 2^N guard."""


@dataclass(frozen=True)
class Region:
    """Contiguous interval [left..right] on the ring (inclusive, may wrap)."""

    left: int
    right: int
    n_sites: int

    def __post_init__(self):
        if not 0 < self.length <= self.n_sites - 1:
            raise ValueError(f"region length {self.length} not in 1..{self.n_sites - 1}")

    @property
    def length(self) -> int:
        return (self.right - self.left) % self.n_sites + 1

    def sites(self) -> list[int]:
        return [(self.left + k) % self.n_sites for k in range(self.length)]

    def __contains__(self, site: int) -> bool:
        return (site - self.left) % self.n_sites < self.length


def _shift_stable(n_sites, ops) -> bool:
    """Whether every translate (start, ops) is canonical: both ends occupied
    and a window of at most N/2, so the window is the unique minimal one."""
    return bool(ops) and 2 * len(ops) <= n_sites and ops[0] != "id" and ops[-1] != "id"


def _placed_keys(n_sites, ops, starts) -> list:
    """Canonical keys of one code tuple placed at each start, its shift
    stability decided once."""
    if _shift_stable(n_sites, ops):
        return [(start % n_sites, ops) for start in starts]
    return [_canonical_key(n_sites, start, ops) for start in starts]


def _canonical_key(n_sites, start, ops):
    """Canonical (start, ops) for a string: minimal window, smallest start.

    For windows of at most N/2 the minimal covering window is unique (the
    Def.-3 regime); longer windows can tie on the ring and the smallest
    start breaks the tie deterministically.
    """
    if len(ops) > n_sites:
        raise ValueError("string longer than the ring")
    if _shift_stable(n_sites, ops):
        return (start % n_sites, ops)
    support = {}
    for k, code in enumerate(ops):
        if code != "id":
            j = (start + k) % n_sites
            if j in support:
                raise ValueError("string wraps onto itself")
            support[j] = code
    if not support:
        return (0, ())
    best = None
    for a in support:
        length = max((s - a) % n_sites for s in support) + 1
        if best is None or (length, a) < best:
            best = (length, a)
    length, a = best
    return (a, tuple(support.get((a + k) % n_sites, "id") for k in range(length)))


class LocalOperator:
    """Finite linear combination of operator strings on an N-site ring.

    Immutable after construction; all algebra returns new instances.  Keys
    are always canonical (fixed points of _canonical_key): the constructor
    canonicalizes its input, and the algebra, which maps canonical keys to
    canonical keys, builds its results through the trusted ``_trusted``.
    The constructor decides once per distinct code tuple whether its
    translates are canonical; only the other tuples' strings go through
    _canonical_key.
    """

    __slots__ = ("n_sites", "terms")

    def __init__(self, n_sites: int, terms=None):
        if n_sites < 1:
            raise ValueError("need at least one site")
        canon: dict = {}
        stable: dict = {}
        for (start, ops), coeff in (terms or {}).items():
            ops = tuple(ops)
            shifts = stable.get(ops)
            if shifts is None:
                shifts = stable[ops] = _shift_stable(n_sites, ops)
            key = (start % n_sites, ops) if shifts else _canonical_key(n_sites, start, ops)
            canon[key] = canon.get(key, 0.0) + complex(coeff)
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "terms",
                           {k: v for k, v in canon.items() if abs(v) > COEFF_TOL})

    @classmethod
    def _trusted(cls, n_sites: int, terms: dict) -> "LocalOperator":
        """Instance over keys that are already canonical; only drops tiny terms."""
        op = object.__new__(cls)
        object.__setattr__(op, "n_sites", n_sites)
        object.__setattr__(op, "terms",
                           {k: v for k, v in terms.items() if abs(v) > COEFF_TOL})
        return op

    def __setattr__(self, *_):
        raise AttributeError("LocalOperator is immutable")

    # -- structure ---------------------------------------------------------
    @property
    def declared_range(self) -> int:
        return max((len(ops) for _, ops in self.terms), default=0)

    def identity_coefficient(self) -> complex:
        return self.terms.get((0, ()), 0.0)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return f"LocalOperator(N={self.n_sites}, {format_operator(self)!r})"

    # -- linear algebra ----------------------------------------------------
    def __add__(self, other: "LocalOperator") -> "LocalOperator":
        return op_sum(self.n_sites, (self, other))

    def __sub__(self, other: "LocalOperator") -> "LocalOperator":
        return op_sum(self.n_sites, (self, other), (1.0, -1.0))

    def __mul__(self, scalar):
        scalar = complex(scalar)
        return LocalOperator._trusted(
            self.n_sites, {k: v * scalar for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def dagger(self) -> "LocalOperator":
        daggered, terms = {}, {}
        for (start, ops), coeff in self.terms.items():
            codes = daggered.get(ops)
            if codes is None:
                codes = daggered[ops] = tuple(map(_DAGGER.__getitem__, ops))
            terms[(start, codes)] = coeff.conjugate()
        return LocalOperator._trusted(self.n_sites, terms)

    def hermitian(self) -> bool:
        """self - self^dagger vanishes within CANCEL_TOL x max(1, largest |coeff|): each
        coefficient against its daggered partner's conjugate, or else in the boson
        basis, where mixed Pauli and boson codes cancel."""
        bound = CANCEL_TOL * max([1.0, *map(abs, self.terms.values())])
        terms, daggered = self.terms, {}
        for (start, ops), coeff in terms.items():
            codes = daggered.get(ops)
            if codes is None:
                codes = daggered[ops] = tuple(map(_DAGGER.__getitem__, ops))
            if abs(coeff - terms.get((start, codes), 0.0).conjugate()) > bound:
                diff = to_boson_basis(self - self.dagger())
                return all(abs(v) <= bound for v in diff.terms.values())
        return True

    def coeff_norm(self) -> float:
        """Sum of |coefficients|; cheap upper bound on the operator norm."""
        return float(sum(map(abs, self.terms.values())))


def identity(n_sites: int, coeff=1.0) -> LocalOperator:
    return LocalOperator(n_sites, {(0, ()): coeff})


def op_sum(n_sites: int, ops, coeffs=None) -> LocalOperator:
    """Linear combination sum_k coeffs[k] * ops[k] (all ones by default).

    Accumulates into one dict in a single pass, so building a sum of many
    operators costs their total number of terms.
    """
    acc: dict = {}
    ops = list(ops)
    scalars = [1.0] * len(ops) if coeffs is None else [complex(c) for c in coeffs]
    if len(scalars) != len(ops):
        raise ValueError(f"{len(ops)} operators but {len(scalars)} coefficients")
    for op, c in zip(ops, scalars):
        if op.n_sites != n_sites:
            raise DimensionError("chain length mismatch")
        if c == 1.0:    # 1 * v differs from v in zero signs only, which sums from 0.0 clear
            for k, v in op.terms.items():
                acc[k] = acc.get(k, 0.0) + v
            continue
        for k, v in op.terms.items():
            acc[k] = acc.get(k, 0.0) + c * v
    return LocalOperator._trusted(n_sites, acc)


def string_term(n_sites: int, coeff, site_ops) -> LocalOperator:
    """Single string from [(site, code), ...]; sites must fit one window.

    Repeated sites compose by matrix multiplication with later entries
    acting last, then re-expand in the boson site basis: e.g. the pair
    (j,'sd'),(j,'s') is s sd = |0><0| and yields the strings id - n.
    """
    per_site: dict[int, list] = {}
    for site, code in site_ops:
        per_site.setdefault(site % n_sites, []).append(code)
    # the minimal window covering the sites, by canonicalizing a ring-long string
    start, window = _canonical_key(
        n_sites, 0, tuple("x" if j in per_site else "id" for j in range(n_sites)))
    factors = []
    for k in range(len(window)):
        codes = per_site.get((start + k) % n_sites, ["id"])
        if len(codes) == 1:
            factors.append(((codes[0], 1.0),))
            continue
        # compose repeated site factors and re-expand in the boson basis:
        # M = a*id + c*sd + b*s + (d-a)*n; a site composing to 0 empties the product
        mat = np.eye(2, dtype=complex)
        for code in codes:
            mat = _MATS[code] @ mat
        (a, b), (c, d) = mat
        factors.append(tuple(p for p in (("id", a), ("s", b), ("sd", c), ("n", d - a))
                             if abs(p[1]) > COEFF_TOL))
    return LocalOperator(n_sites, {(start, ops): coeff * amp
                                   for ops, amp in _expand(factors, 1.0)})


def _expand(factors, amp) -> list:
    """Every (codes, amplitude) term of amp times a product of per-site sums.

    ``factors`` holds one ((code, weight), ...) sum per site; terms take
    each site's options last first, the first site varying slowest, and
    multiply the weights onto amp site by site.
    """
    out = [((), amp)]
    for opts in factors:
        grown = []
        for ops, a in out:
            for c, w in reversed(opts):
                grown.append((ops + (c,), a * w))
        out = grown
    return out


# -- state application ------------------------------------------------------

PAIR_CHUNK = 1 << 14       # (string, index) candidates decoded per _string_pairs step

# per site code: its (select, selected bit, flip, sign, factor i) bits
_CODE_BITS = {"id": (0, 0, 0, 0, 0), "sd": (1, 0, 1, 0, 0), "s": (1, 1, 1, 0, 0),
              "n": (1, 1, 0, 0, 0), "x": (0, 0, 1, 0, 0), "y": (0, 0, 1, 1, 1),
              "z": (0, 0, 0, 1, 0)}
_CODE_INDEX = {code: k for k, code in enumerate(_CODE_BITS)}
_BIT_TABLE = np.array(list(_CODE_BITS.values()), dtype=np.int64)


def _string_table(n_sites: int, terms) -> tuple:
    """Decode ((start, ops), coeff) strings into arrays, one entry per string.

    Returns (sel_mask, sel_bits, flip, sign_mask, amp): a string keeps the
    basis indices i with i & sel_mask == sel_bits (site j = bit j), maps each
    to i ^ flip and multiplies it by amp (coeff times i per y) and by -1 per
    set bit of i & sign_mask.  Each distinct code tuple is decoded once, at
    start 0, and its masks are rotated to every start on the ring.
    """
    codes, rows, starts, coeffs = {}, [], [], []
    for (start, ops), coeff in terms:
        rows.append(codes.setdefault(ops, len(codes)))
        starts.append(start % n_sites)
        coeffs.append(coeff)
    width = max(map(len, codes), default=0)
    pad = ("id",) * width
    grid = np.fromiter((_CODE_INDEX[c] for ops in codes for c in (ops + pad)[:width]),
                       np.int64, count=len(codes) * width).reshape(len(codes), width)
    base = (_BIT_TABLE[grid] << np.arange(width)[:, None]).sum(axis=1)[rows]
    masks = _rotated(base[:, :4], np.array(starts, dtype=np.int64)[:, None], n_sites)
    amp, i_count = np.array(coeffs, dtype=complex), np.bitwise_count(base[:, 4])
    for k in range(int(i_count.max(initial=0))):
        amp = np.where(i_count > k, amp * 1j, amp)      # as coeff * 1j * 1j ..., to the bit
    return (*masks.T, amp)


def _support(psi: np.ndarray, dim: int) -> tuple:
    """A dense state in support form, (indices, values): its nonzero entries'
    ascending basis indices and amplitudes (a support-form vector lists its
    entries so, base d little-endian, one vector or several as columns; an
    unlisted index holds zero).  DimensionError unless psi has shape (dim,)."""
    if psi.shape != (dim,):
        raise DimensionError(f"state has shape {psi.shape}, expected ({dim},)")
    idx = np.flatnonzero(psi)
    return idx, psi[idx]


def _rotated(bits, shift, n_sites: int):
    """Basis indices or bit masks with site j moved to site j + shift: each
    rotated left by shift mod N on N bits (site j = bit j)."""
    shift = shift % n_sites
    return ((bits << shift) | (bits >> (n_sites - shift))) & ((1 << n_sites) - 1)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of an array of numbers >= 0, ascending (np.unique
    would load numpy.ma, 10-16 ms on first use)."""
    out = np.sort(values)
    return out[np.diff(out, prepend=-1) > 0]


def _signs(idx: np.ndarray) -> np.ndarray:
    """(-1)^(number of set bits) of each index, as int64."""
    return 1 - 2 * (np.bitwise_count(idx) & 1).astype(np.int64)


def _summed(indices: np.ndarray, values: np.ndarray) -> tuple:
    """Support form of the sum of ``values`` placed at ``indices``: each entry
    adds its values with np.add.at in the order given, from zero."""
    idx = _distinct(indices)
    sums = np.zeros(len(idx), dtype=complex)
    np.add.at(sums, np.searchsorted(idx, indices), values)
    return idx, sums


def _merged(vectors) -> tuple:
    """Support-form vectors, their indices in any order, on their union support:
    (indices, (len, k) values), vector k's in column k and zero where it has none."""
    idx = _distinct(np.concatenate([i for i, _ in vectors]))
    vals = np.zeros((len(idx), len(vectors)), dtype=complex)
    for k, (i, v) in enumerate(vectors):
        vals[np.searchsorted(idx, i), k] = v
    return idx, vals


def _window_block(state, sites, local_dim: int) -> tuple:
    """A support-form state grouped by the digits of ``sites``: (rows, block),
    block[a, r] the amplitude at rest r (its index with those digits zero) and
    window digits a, big-endian over ``sites`` (first listed site most
    significant), rows[a, r] its basis index; zero where the state has none."""
    src, amps = state
    place = local_dim ** np.array(sites, dtype=np.int64)      # d^j of each window site
    big = local_dim ** np.arange(len(sites) - 1, -1, -1)      # first listed site most significant
    digits = src[:, None] // place % local_dim
    rest, col = np.unique(src - digits @ place, return_inverse=True)
    block = np.zeros((local_dim ** len(sites), len(rest)), dtype=amps.dtype)
    block[digits @ big, col] = amps
    offsets = np.arange(len(block))[:, None] // big % local_dim @ place
    return rest + offsets[:, None], block


def _string_pairs(n_sites: int, table, idx: np.ndarray):
    """Every (string, kept index) pair of a _string_table, in term-major order.

    Yields chunks (t, k, tgt, vals): string t keeps basis index src =
    idx[k], k a position in the sorted index array ``idx``, maps it to tgt =
    src ^ flip[t] and multiplies it by vals; a chunk tests at most
    PAIR_CHUNK (string, index) candidates, or one string's.
    """
    sel, bits, flip, sign, amp = table
    step = max(1, PAIR_CHUNK // max(len(idx), 1))
    for lo in range(0, len(amp), step):
        t, k = np.nonzero((idx & sel[lo:lo + step, None]) == bits[lo:lo + step, None])
        t += lo
        src = idx[k]
        yield t, k, src ^ flip[t], amp[t] * _signs(src & sign[t])


def apply(op: LocalOperator, psi: np.ndarray) -> np.ndarray:
    """Action of the operator on a dense 2^N amplitude vector (site j = bit j).

    Strings are decoded over psi's nonzero amplitudes only: a zero amplitude
    adds +-0, so each entry sums the products a full decode sums.  np.add.at
    adds the term-major pairs one by one, so every entry sums its products in
    the order of a loop over the strings.
    The product is np.multiply, not ``*``: numpy computes ``*`` on a large
    temporary in place, which rounds differently, so the result would depend
    on the support size.
    """
    dim = 1 << op.n_sites
    idx, amps = _support(psi, dim)
    out = np.zeros(dim, dtype=complex)
    table = _string_table(op.n_sites, op.terms.items())
    for _, k, tgt, vals in _string_pairs(op.n_sites, table, idx):
        np.add.at(out, tgt, np.multiply(vals, amps[k]))
    return out


def _require_unit(psi: np.ndarray) -> None:
    """ValueError unless ||psi|| is 1 within NORM_TOL."""
    if abs(np.linalg.norm(psi) - 1.0) > NORM_TOL:
        raise ValueError(f"state norm {np.linalg.norm(psi):.6g} is not 1 within {NORM_TOL}")


def eigen_defect(op: LocalOperator, psi: np.ndarray) -> tuple:
    """(E, ||op psi - E psi||) with E = <psi|op|psi>; psi must be a unit state (ValueError)."""
    _require_unit(psi)
    out = apply(op, psi)
    energy = complex(np.vdot(psi, out))
    return energy, float(np.linalg.norm(out - energy * psi))


def hs_inner(a: LocalOperator, b: LocalOperator) -> complex:
    """Normalized Hilbert-Schmidt inner product tr(a^dag b) / 2^N.

    Canonical Pauli strings are orthonormal under it, so it is the dot
    product of the two operators' Pauli coefficients.
    """
    if a.n_sites != b.n_sites:
        raise DimensionError("chain length mismatch")
    pa, pb = to_pauli_basis(a).terms, to_pauli_basis(b).terms
    return complex(sum((np.conj(c) * pb[key] for key, c in pa.items() if key in pb), 0j))


def hs_norm(a: LocalOperator) -> float:
    return float(np.sqrt(max(hs_inner(a, a).real, 0.0)))


# -- basis conversions -------------------------------------------------------

def _convert(op: LocalOperator, table) -> LocalOperator:
    terms: dict = {}
    for (start, ops), coeff in op.terms.items():
        for codes, amp in _expand(map(table.__getitem__, ops), coeff):
            key = _canonical_key(op.n_sites, start, codes)
            terms[key] = terms.get(key, 0.0) + amp
    return LocalOperator._trusted(op.n_sites, terms)


def _over(op: LocalOperator, codes) -> bool:
    """Whether every string of op uses only the given site codes."""
    return all(c in codes for ops in {ops for _, ops in op.terms} for c in ops)


def to_pauli_basis(op: LocalOperator) -> LocalOperator:
    """Rewrite every string over the Pauli site codes {id,x,y,z}; an operator
    already over them is returned as it is (its keys are canonical)."""
    return op if _over(op, PAULI_CODES) else _convert(op, _TO_PAULI)


def to_boson_basis(op: LocalOperator) -> LocalOperator:
    """Rewrite every string over the boson site codes {id,sd,s,n}; an operator
    already over them is returned as it is (its keys are canonical)."""
    return op if _over(op, BOSON_CODES) else _convert(op, _TO_BOSON)


def truncate(op: LocalOperator, lam: Region, basis: str = "boson") -> LocalOperator:
    """Keep exactly the fixed-basis strings supported inside the region.

    The identity string (empty support) is always kept; it only shifts the
    spectrum and is absorbed into the per-state constants downstream.
    """
    if lam.n_sites != op.n_sites:
        raise DimensionError("region/operator chain mismatch")
    if lam.length <= 2 * op.declared_range:
        raise ValueError(
            f"region length {lam.length} must exceed 2*range = {2 * op.declared_range}")
    if basis == "pauli":
        expanded = to_pauli_basis(op)
    elif basis == "boson":
        expanded = to_boson_basis(op)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    # a window [start, start + len) lies inside the region when its offset
    # from the region's left end plus its length does not pass the region's end
    return LocalOperator._trusted(
        op.n_sites, {(start, ops): coeff for (start, ops), coeff in expanded.terms.items()
                     if not ops or (start - lam.left) % op.n_sites + len(ops) <= lam.length})


# -- textual format ----------------------------------------------------------

def _parse_coeff(text: str) -> complex:
    """Python's complex() syntax with the unit written ``i``: ``-1``, ``1e-3``,
    ``2-0.5i``, ``-i``; ``j``, parentheses, ``nan`` and ``inf`` are rejected."""
    t = text.replace(" ", "")
    try:
        if "j" in t or "(" in t:
            raise ValueError
        coeff = complex(t[:-1] + "j" if t.endswith("i") else t)
    except ValueError as exc:
        raise ValueError(f"bad coefficient {text!r}") from exc
    if not np.isfinite(coeff):
        raise ValueError(f"non-finite coefficient {text!r}")
    return coeff


def _format_coeff(c: complex) -> str:
    """Each part by repr, which reads back exactly; a part of exactly 0.0 is omitted."""
    if c.imag == 0.0:
        return repr(c.real)
    if c.real == 0.0:
        return f"{c.imag!r}i"
    return f"{c.real!r}{'' if c.imag < 0 else '+'}{c.imag!r}i"


def parse_operator(text: str, n_sites: int) -> LocalOperator:
    """Parse ``coeff * op@site op@site ...`` terms joined by ';' or newlines."""
    strings = []
    for chunk in re.split(r"[;\n]", text):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "*" in chunk:
            coeff_txt, _, rest = chunk.partition("*")
            coeff = _parse_coeff(coeff_txt)
        else:
            coeff, rest = 1.0, chunk
        factors = []
        for tok in rest.split():
            if tok == "id":
                continue
            m = re.fullmatch(r"(sd|s|n|id|x|y|z)@(-?\d+)", tok)
            if not m:
                raise ValueError(f"bad factor {tok!r}")
            if m.group(1) != "id":
                factors.append((int(m.group(2)), m.group(1)))
        strings.append(string_term(n_sites, coeff, factors))
    return op_sum(n_sites, strings)


def format_operator(op: LocalOperator) -> str:
    """Inverse of parse_operator (term order: by window length, start, codes)."""
    if not op.terms:
        return "0 * id"
    parts = []
    for (start, ops), coeff in sorted(op.terms.items(),
                                      key=lambda kv: (len(kv[0][1]), kv[0][0], kv[0][1])):
        if not ops:
            parts.append(f"{_format_coeff(coeff)} * id")
            continue
        toks = " ".join(f"{c}@{(start + k) % op.n_sites}"
                        for k, c in enumerate(ops) if c != "id")
        parts.append(f"{_format_coeff(coeff)} * {toks}")
    return " ; ".join(parts)
