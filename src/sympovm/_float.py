"""Float mode: protocols with plain-number entries.

The only module of sympovm that imports numpy at the top, imported only
for a protocol with a float factor.  Float verification evaluates the
per-term invariants of the exact route in numpy and checks completeness
one block row of sum_t w A (x) B at a time, so memory stays O(d^3); every
comparison is within an absolute tolerance eps.
"""

from __future__ import annotations

import numpy as np

from .operators import parse_fraction
from .protocols import _BELL_CONJUGATIONS, _projector_traces, _verification
from .symmetry import Family, basis_traces


def _real(x, where) -> float:
    """A "p/q" string or a plain number as a float, read through
    operators.parse_fraction: NaN, an infinity, a bad string or a value
    beyond the float range is a ValueError naming where; a plain number
    keeps its value bit for bit."""
    value = parse_fraction(x, where)
    try:
        return float(value if isinstance(x, str) else x)
    except OverflowError as exc:
        raise ValueError(f"{where}: {exc}") from None


def grid_from_json(rows, where):
    """A checked JSON grid (operators.json_grid) as a complex array."""
    return np.array([[_real(p[0], f"{where}[{r}][{c}]") +
                      1j * _real(p[1], f"{where}[{r}][{c}]")
                      for c, p in enumerate(row)] for r, row in enumerate(rows)],
                    dtype=complex)


def factor_psd(g, eps) -> bool:
    """Whether a local factor is Hermitian and PSD, both within eps."""
    g = np.asarray(g, dtype=complex)
    return bool(np.max(np.abs(g - g.conj().T)) <= eps and
                np.min(np.linalg.eigvalsh(g)) >= -eps)


def _invariants(t, bell):
    """`protocols._projector_traces` invariants of one term, in numpy."""
    a = np.asarray(t.a_factor, dtype=complex)
    b = np.asarray(t.b_factor, dtype=complex)
    if bell:
        parts = [np.sum(a * np.outer(sign, sign) * b[np.ix_(perm, perm)])
                 for perm, sign in _BELL_CONJUGATIONS]
    else:
        parts = (np.trace(a) * np.trace(b), np.sum(a * b.T), np.sum(a * b))
    return [complex(p) for p in parts]


def outcome_coefficients(terms, k) -> list:
    """The twirl of sum_t w A (x) B as floats; the real part of each
    projector trace is kept."""
    bell = k.family is Family.BELL
    sums = [0j] * (4 if bell else 3)
    for t in terms:
        sums = [acc + p * t.weight for acc, p in zip(sums, _invariants(t, bell))]
    traces = _projector_traces(sums, k)
    return [tr.real / n for tr, n in zip(traces, basis_traces(k))]


def resolves_identity(outcomes, d, eps) -> bool:
    """Whether the outcome operators sum to the identity within eps.

    Block row i of the sum holds the d x d blocks sum_t w A[i][k] B, one per
    k; each row is built and compared alone.
    """
    terms = [t for ts in outcomes for t in ts]
    a = np.array([float(t.weight) * np.asarray(t.a_factor, dtype=complex)
                  for t in terms]).reshape(-1, d, d)
    b = np.array([np.asarray(t.b_factor, dtype=complex) for t in terms]).reshape(-1, d, d)
    for i in range(d):
        row = np.tensordot(a[:, i, :], b, axes=(0, 0))  # row[k] is block (i, k)
        row[i] -= np.eye(d)
        if not np.max(np.abs(row)) <= eps:
            return False
    return True


def verify_protocol(protocol, target, eps):
    """`protocols.verify_protocol` for a protocol with a float factor."""
    return _verification(target, ((t.weight, t.a_factor, t.b_factor)
                                   for terms in protocol.outcomes for t in terms),
                         lambda g: factor_psd(g, eps),
                         lambda k: outcome_coefficients(protocol.outcomes[k], protocol.kind),
                         resolves_identity(protocol.outcomes, protocol.kind.dim, eps), eps)

