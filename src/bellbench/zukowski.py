"""Bell-Zukowski operator by quadrature against its closed form, its GHZ
diagonality, and the step-function bounds behind its local-realistic
derivation: the checks of `verify-appendix`. The scalar Bell relation to the
Bell-Mermin average, its bound and the threshold visibility are closed forms
in bellbench.mermin.

Conventions, fixed once for the whole package:

* Computational basis index 0 is the sigma_z eigenvector with eigenvalue +1.
* Party k occupies tensor slot k, leftmost slot is party 1.
* The in-plane observable at phase phi is cos(phi) sigma_x + sin(phi) sigma_y
  = e^{-i phi} |0><1| + e^{i phi} |1><0|, so phi = 0 is X and phi = pi/2 is
  Y; allowed phases are 0 <= phi < pi.

The operator averages the all-angle correlation kernel cos(phi_1 + ... + phi_n)
over the in-plane observables sigma_phi at every site,

    Z_n = 2^{-n} * integral over [0, pi]^n of cos(sum phi) sigma_phi_1 x ... x sigma_phi_n,

and collapses to the rank-2 corner form (pi/2)^n (P+ - P-)/2 on the extreme
GHZ doublet. The kernel splits as (prod e^{i phi_k} + prod e^{-i phi_k})/2, so
a midpoint rule with weight w at nodes phi_j gives
2^{-(n+1)} (A^{x n} + (A^dag)^{x n}) with the per-site moment
A = sum_j w e^{i phi_j} sigma_phi_j = m0 |0><1| + m2 |1><0|, where m0 = sum w
and m2 = sum w e^{2 i phi_j}. Its only nonzero entries are (i, ~i), and their
value depends only on the Hamming weight h of i (_antidiagonal). With at least
two nodes m2 = 0, so the rule is exact. Both checks below read those n + 1
entries; the dense 2^n x 2^n operators are the test suite's reference route
(tests/dense_oracle.py). The step functions below are lists of +-1 over the
cells. Only the sampled draw, sampled_maxima, imports numpy, on first call;
the rest is plain Python arithmetic.
"""

from __future__ import annotations

import cmath
import math
import random

NODES_PER_AXIS = 8
# Signs drawn and reduced at a time (rounded down to a multiple of 4 triples,
# so chunks span whole generator words), so memory stays bounded however many
# trials are requested. Grids wider than 64 cells keep the 64-cell chunk's
# count of step functions: the draw makes one numpy call per byte position
# and chunk, and each call should still span thousands of functions. A
# chunk's bytes then take at most 2 MiB, at 4096 cells; its z' values at most
# 2 MiB, at 2 cells.
APPENDIX_CHUNK_CELLS = 2**18


def _site_moments(nodes_per_axis: int) -> tuple[complex, complex]:
    """(m0, m2) of the midpoint rule on [0, pi]: the |0><1| and |1><0| entries
    of the per-site moment sum_j w e^{i phi_j} sigma_phi_j."""
    if nodes_per_axis < 2:
        raise ValueError("midpoint rule needs at least 2 nodes per axis")
    weight = math.pi / nodes_per_axis
    m0 = m2 = 0j
    for j in range(nodes_per_axis):
        u = cmath.exp(1j * (j + 0.5) * weight)
        m0 += weight * u * u.conjugate()
        m2 += weight * u * u
    return m0, m2


def _antidiagonal(n: int, m0: complex, m2: complex) -> list[complex]:
    """Entry (i, ~i) of 2^{-(n+1)} (A^{x n} + (A^dag)^{x n}), indexed by the
    Hamming weight h = 0..n of i, for A = m0 |0><1| + m2 |1><0|:
    z_h = 2^{-(n+1)} (m0^{n-h} m2^h + conj(m0^h m2^{n-h}))."""
    if n < 2:
        raise ValueError(f"site count must be at least 2, got {n}")
    a, b = m0 / 2, m2 / 2
    return [(a ** (n - h) * b**h + (a**h * b ** (n - h)).conjugate()) / 2
            for h in range(n + 1)]


def closed_vs_quadrature_error(n: int, nodes_per_axis: int = NODES_PER_AXIS) -> float:
    """Max-entry gap between the midpoint quadrature and the closed form,
    whose only nonzero entries are (1/2)(pi/2)^n at h = 0 and h = n."""
    corner = 0.5 * (math.pi / 2) ** n
    z = _antidiagonal(n, *_site_moments(nodes_per_axis))
    return max(abs(z_h - (corner if h in (0, n) else 0.0)) for h, z_h in enumerate(z))


def ghz_offdiagonal_max(n: int) -> float:
    """Largest off-diagonal magnitude of the quadrature operator in the GHZ basis.

    The basis pairs |i> with |~i>, and the operator maps each such pair into
    itself, so its only off-diagonal entries are the doublet's
    (z_h - z_{n-h}) / 2.
    """
    z = _antidiagonal(n, *_site_moments(NODES_PER_AXIS))
    return max(abs(z[h] - z[n - h]) / 2 for h in range(n + 1))


# --- step-function functionals -------------------------------------------
#
# Local response functions are +-1-valued step functions on a uniform
# partition of [0, pi); z'(f) = integral f(phi) e^{i phi} d phi is evaluated
# cell-exactly, so bound checks are statements about the functions themselves
# rather than about a discretization.


def cell_weights(cells: int) -> list[complex]:
    """Exact per-cell integrals of e^{i phi} on a uniform partition of [0, pi]."""
    if cells < 1:
        raise ValueError("need at least one cell")
    edges = [cmath.exp(1j * (k * math.pi / cells)) for k in range(cells + 1)]
    return [(b - a) / 1j for a, b in zip(edges, edges[1:])]


def z_prime_functional(values) -> complex:
    """z' = integral of f e^{i phi} over [0, pi] for a +-1 step function f."""
    if len(values) < 1:
        raise ValueError("step function needs at least one cell")
    if any(abs(v) != 1.0 for v in values):
        raise ValueError("step-function values must be exactly +-1")
    terms = [v * w for v, w in zip(values, cell_weights(len(values)))]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def sign_cos_step(cells: int) -> list[float]:
    """Extremal step function sign(cos phi); needs an even cell count so the
    sign change at pi/2 falls on a cell boundary and |z'| = 2 is hit exactly."""
    if cells < 2 or cells % 2 != 0:
        raise ValueError("sign(cos) step function needs an even cell count")
    return [1.0] * (cells // 2) + [-1.0] * (cells // 2)


def sampled_maxima(cells: int, trials: int, seed: int) -> tuple[float, float, float]:
    """(max |z'|, max |S| at n = 2, max |S| at n = 3), S = Re(z'_1 ... z'_n),
    over `trials` draws of a triple (z'_a, z'_b, z'_c) of random step
    functions of `cells` cells each: |z'| over all 3 x trials functions, the
    n = 2 S over each triple's first two, the n = 3 S over the whole triple.

    The signs come from random.Random(seed), whose stream does not depend on
    the platform (Python seeds by |seed|). Each function takes B = ceil(cells
    / 8) whole bytes of the stream: cell i is +1 where bit i % 8 of its byte
    i // 8 is set, least significant bit first, and the unused high bits of a
    partial last byte weigh nothing. Each z' is summed once from a 256-entry
    table per byte position, in byte order, so no sign matrix is formed. A
    chunk holds a multiple of 4 triples, 12 B bytes, so every chunk but the
    last spans whole 32-bit generator words and the draw consumes the stream
    as one getrandbits(24 * trials * B) draw would, function after function,
    triple after triple.
    """
    import numpy as np

    per_row = -(-cells // 8)  # B bytes per function
    w = np.zeros(8 * per_row, complex)
    w[:cells] = cell_weights(cells)
    w = w.reshape(per_row, 8)
    # table[p, d] = sum_i s_i w[p, i], s_i = +1 where bit i of d is set: the
    # part of z' that byte p gives. Built by 8 doubling steps, t -> (t - w_i, t + w_i).
    table = np.zeros((per_row, 1), complex)
    for i in range(8):
        table = np.concatenate((table - w[:, i, None], table + w[:, i, None]), axis=1)
    gen = random.Random(seed)
    chunk = 4 * max(1, APPENDIX_CHUNK_CELLS // (12 * min(cells, 64)))
    max_z = max_s2 = max_s3 = 0.0
    for start in range(0, trials, chunk):
        rows = min(chunk, trials - start)
        count = 3 * rows * per_row
        data = np.frombuffer(gen.getrandbits(8 * count).to_bytes(count, "little"), np.uint8)
        data = data.reshape(3 * rows, per_row)
        z = table[0].take(data[:, 0])  # one z' per function, byte by byte
        for p in range(1, per_row):
            z += table[p].take(data[:, p])
        ab = z[0::3] * z[1::3]
        max_z = max(max_z, float(np.abs(z).max()))
        max_s2 = max(max_s2, float(np.abs(ab.real).max()))
        max_s3 = max(max_s3, float(np.abs((ab * z[2::3]).real).max()))
    return max_z, max_s2, max_s3
