"""Operator strings and local operators on a periodic qubit ring.

Operators are stored as linear combinations of *strings*: products of
single-site operators acting on a contiguous window of the ring.  Two
families of site operators are supported,

  hard-core boson family  : ``id``, ``sd`` (creation), ``s`` (annihilation),
                            ``n`` (number),
  Pauli family            : ``x``, ``y``, ``z``,

with the spin convention |0> <-> sigma^z = +1, so that n = (1 - z)/2.
Strings are keyed by (start site, tuple of site codes); the first and last
codes of a string are never ``id``.  On the ring a string window of length
w is unambiguous as long as 2*w <= N, which every constructor enforces.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
from scipy import sparse

COEFF_TOL = 1e-14          # canonicalization drop tolerance (absolute)
HERMITIAN_TOL = 1e-12
MATRIX_MAX_SITES = 14      # dense 2^N guard

BOSON_CODES = ("id", "sd", "s", "n")
PAULI_CODES = ("id", "x", "y", "z")
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

# single-site Hilbert-Schmidt table tr(a^dag b), used by hs_inner
_HS1 = {(a, b): complex(np.trace(_MATS[a].conj().T @ _MATS[b]))
        for a in ALL_CODES for b in ALL_CODES}

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

    def complement(self) -> "Region":
        return Region((self.right + 1) % self.n_sites,
                      (self.left - 1) % self.n_sites, self.n_sites)


def _canonical_key(n_sites, start, ops):
    """Canonical (start, ops) for a string: minimal window, smallest start.

    For windows of at most N/2 the minimal covering window is unique (the
    Def.-3 regime); longer windows can tie on the ring and the smallest
    start breaks the tie deterministically.
    """
    if len(ops) > n_sites:
        raise ValueError("string longer than the ring")
    if ops and 2 * len(ops) <= n_sites and ops[0] != "id" and ops[-1] != "id":
        return (start % n_sites, ops)   # both ends occupied: already minimal
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
    """

    __slots__ = ("n_sites", "terms")

    def __init__(self, n_sites: int, terms=None):
        if n_sites < 1:
            raise ValueError("need at least one site")
        canon: dict = {}
        for (start, ops), coeff in (terms or {}).items():
            key = _canonical_key(n_sites, start, tuple(ops))
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
        return LocalOperator._trusted(
            self.n_sites,
            {(start, tuple(_DAGGER[c] for c in ops)): coeff.conjugate()
             for (start, ops), coeff in self.terms.items()})

    def hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        diff = self - self.dagger()
        scale = max((abs(v) for v in self.terms.values()), default=1.0)
        return all(abs(v) <= tol * max(scale, 1.0) for v in diff.terms.values())

    def coeff_norm(self) -> float:
        """Sum of |coefficients|; cheap upper bound on the operator norm."""
        return float(sum(abs(v) for v in self.terms.values()))


def identity(n_sites: int, coeff=1.0) -> LocalOperator:
    return LocalOperator(n_sites, {(0, ()): coeff})


def zero(n_sites: int) -> LocalOperator:
    return LocalOperator(n_sites, {})


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
        for k, v in op.terms.items():
            acc[k] = acc.get(k, 0.0) + c * v
    return LocalOperator._trusted(n_sites, acc)


def string_term(n_sites: int, coeff, site_ops) -> LocalOperator:
    """Single string from [(site, code), ...]; sites must fit one window.

    Repeated sites compose by matrix multiplication with later entries
    acting last, then re-expand in the boson site basis: e.g. the pair
    (j,'sd'),(j,'s') is s sd = |0><0| and yields the strings id - n.
    """
    site_ops = list(site_ops)
    if not site_ops:
        return identity(n_sites, coeff)
    per_site: dict[int, list] = {}
    for site, code in site_ops:
        per_site.setdefault(site % n_sites, []).append(code)
    # the minimal window covering the sites, by canonicalizing a ring-long string
    start, window = _canonical_key(
        n_sites, 0, tuple("x" if j in per_site else "id" for j in range(n_sites)))
    length = len(window)
    factors = []
    for k in range(length):
        j = (start + k) % n_sites
        codes = per_site.get(j)
        if codes is None:
            factors.append((("id", 1.0),))
            continue
        if len(codes) == 1:
            factors.append(((codes[0], 1.0),))
            continue
        # compose repeated site factors and re-expand in the boson basis:
        # M = a*id + c*sd + b*s + (d-a)*n
        mat = np.eye(2, dtype=complex)
        for code in codes:
            mat = _MATS[code] @ mat
        (a, b), (c, d) = mat
        opts = [p for p in (("id", a), ("s", b), ("sd", c), ("n", d - a))
                if abs(p[1]) > COEFF_TOL]
        if not opts:
            return zero(n_sites)
        factors.append(tuple(opts))
    terms: dict = {}
    stack = [(0, 1.0, [])]
    while stack:
        k, amp, ops = stack.pop()
        if k == length:
            key = (start, tuple(ops))
            terms[key] = terms.get(key, 0.0) + coeff * amp
            continue
        for code, w in factors[k]:
            stack.append((k + 1, amp * w, ops + [code]))
    return LocalOperator(n_sites, terms)


# -- state application ------------------------------------------------------

def _string_masks(op: LocalOperator):
    """Decode every string of the operator into its action on basis indices.

    Yields (src, flip, vals) per string: the string keeps the basis indices
    ``src`` (site j = bit j), maps each to ``src ^ flip`` and multiplies it
    by ``vals`` (a scalar, or one sign-carrying amplitude per index).
    """
    idx_all = np.arange(1 << op.n_sites)
    for (start, ops), coeff in op.terms.items():
        sel_mask = sel_bits = flip_mask = sign_mask = 0
        amp = coeff
        for k, code in enumerate(ops):
            b = 1 << ((start + k) % op.n_sites)
            if code == "sd":
                sel_mask |= b
                flip_mask |= b
            elif code == "s":
                sel_mask |= b
                sel_bits |= b
                flip_mask |= b
            elif code == "n":
                sel_mask |= b
                sel_bits |= b
            elif code == "x":
                flip_mask |= b
            elif code == "y":
                flip_mask |= b
                sign_mask |= b
                amp = amp * 1j
            elif code == "z":
                sign_mask |= b
        src = idx_all
        if sel_mask:
            src = src[(src & sel_mask) == sel_bits]
            if src.size == 0:
                continue
        yield src, flip_mask, amp * _parity_sign(src, sign_mask) if sign_mask else amp


def apply(op: LocalOperator, psi: np.ndarray) -> np.ndarray:
    """Action of the operator on a dense 2^N amplitude vector (site j = bit j)."""
    dim = 1 << op.n_sites
    if psi.shape != (dim,):
        raise DimensionError(f"state has shape {psi.shape}, expected ({dim},)")
    out = np.zeros(dim, dtype=complex)
    for src, flip, vals in _string_masks(op):
        out[src ^ flip] += vals * psi[src]
    return out


def _parity_sign(idx: np.ndarray, mask: int) -> np.ndarray:
    par = np.zeros(idx.shape, dtype=np.int64)
    m = mask
    while m:
        j = (m & -m).bit_length() - 1
        par ^= (idx >> j) & 1
        m &= m - 1
    return 1 - 2 * par


def dagger(op: LocalOperator) -> LocalOperator:
    return op.dagger()


def hs_inner(a: LocalOperator, b: LocalOperator) -> complex:
    """Normalized Hilbert-Schmidt inner product tr(a^dag b) / 2^N."""
    if a.n_sites != b.n_sites:
        raise DimensionError("chain length mismatch")
    total = 0.0 + 0.0j
    for (sa, opa), ca in a.terms.items():
        amap = {(sa + k) % a.n_sites: c for k, c in enumerate(opa)}
        for (sb, opb), cb in b.terms.items():
            bmap = {(sb + k) % a.n_sites: c for k, c in enumerate(opb)}
            prod = np.conj(ca) * cb
            for j in set(amap) | set(bmap):
                prod *= _HS1[(amap.get(j, "id"), bmap.get(j, "id"))] / 2.0
                if prod == 0:
                    break
            total += prod
    return complex(total)


def hs_norm(a: LocalOperator) -> float:
    return float(np.sqrt(max(hs_inner(a, a).real, 0.0)))


# -- basis conversions -------------------------------------------------------

def _convert(op: LocalOperator, table) -> LocalOperator:
    terms: dict = {}
    for (start, ops), coeff in op.terms.items():
        stack = [(0, coeff, [])]
        while stack:
            k, amp, acc = stack.pop()
            if k == len(ops):
                key = _canonical_key(op.n_sites, start, tuple(acc))
                terms[key] = terms.get(key, 0.0) + amp
                continue
            for code, w in table[ops[k]]:
                stack.append((k + 1, amp * w, acc + [code]))
    return LocalOperator._trusted(op.n_sites, terms)


def to_pauli_basis(op: LocalOperator) -> LocalOperator:
    """Rewrite every string over the Pauli site codes {id,x,y,z}."""
    return _convert(op, _TO_PAULI)


def to_boson_basis(op: LocalOperator) -> LocalOperator:
    """Rewrite every string over the boson site codes {id,sd,s,n}."""
    return _convert(op, _TO_BOSON)


def operators_equal(a: LocalOperator, b: LocalOperator, tol: float = 1e-12) -> bool:
    """Equality as operators, comparing coefficients in the boson basis."""
    diff = to_boson_basis(a) - to_boson_basis(b)
    return all(abs(c) <= tol for c in diff.terms.values())


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
    kept = {}
    for (start, ops), coeff in expanded.terms.items():
        if all((start + k) % op.n_sites in lam for k in range(len(ops))):
            kept[(start, ops)] = coeff
    return LocalOperator._trusted(op.n_sites, kept)


def to_sparse(op: LocalOperator) -> sparse.csr_matrix:
    """2^N x 2^N CSR matrix (site j = bit j).

    Strings sharing a flip mask fill the same entries (i ^ flip, i), so they
    are summed on one dense diagonal of length 2^N per flip mask first;
    memory is O(#flip masks * 2^N), not O(#terms * 2^N).
    """
    dim = 1 << op.n_sites
    diagonals: dict = {}
    for src, flip, vals in _string_masks(op):
        if flip not in diagonals:
            diagonals[flip] = np.zeros(dim, dtype=complex)
        diagonals[flip][src] += vals
    rows, cols, data = [], [], []
    for flip, diag in diagonals.items():
        nz = np.flatnonzero(diag)
        rows.append(nz ^ flip)
        cols.append(nz)
        data.append(diag[nz])
    if not data:
        return sparse.csr_matrix((dim, dim), dtype=complex)
    return sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))


def to_matrix(op: LocalOperator) -> np.ndarray:
    """Dense 2^N x 2^N matrix; guarded against exponential blowup."""
    if op.n_sites > MATRIX_MAX_SITES:
        raise CapacityError(f"N={op.n_sites} exceeds dense guard {MATRIX_MAX_SITES}")
    return to_sparse(op).toarray()


# -- textual format ----------------------------------------------------------

def _parse_coeff(text: str) -> complex:
    """Coefficients like ``-1``, ``0.5i``, ``1e-3``, ``2-0.5i``, ``i``."""
    t = text.replace(" ", "")
    if not t:
        raise ValueError("empty coefficient")
    try:
        if not t.endswith("i"):
            return complex(float(t), 0.0)
        split = None
        for i in range(len(t) - 2, 0, -1):
            if t[i] in "+-" and t[i - 1] not in "eE":
                split = i
                break
        re_txt, im_txt = (t[:split], t[split:-1]) if split else ("", t[:-1])
        if im_txt in ("", "+"):
            im_val = 1.0
        elif im_txt == "-":
            im_val = -1.0
        else:
            im_val = float(im_txt)
        return complex(float(re_txt) if re_txt else 0.0, im_val)
    except ValueError as exc:
        raise ValueError(f"bad coefficient {text!r}") from exc


def _format_coeff(c: complex) -> str:
    def num(x):
        return f"{x:.12g}"
    if abs(c.imag) <= COEFF_TOL:
        return num(c.real)
    if abs(c.real) <= COEFF_TOL:
        return f"{num(c.imag)}i"
    sign = "+" if c.imag >= 0 else "-"
    return f"{num(c.real)}{sign}{num(abs(c.imag))}i"


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
