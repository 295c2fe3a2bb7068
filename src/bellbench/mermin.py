"""The shared pair, the Bell-Mermin average on N copies of it, the
Bell-relation closed forms and the comparison tolerances: everything
`correlators` builds its table from and everything `analyze` and `sweep`
compute, in plain Python arithmetic (this module imports no numpy).

The shared pair is (|00> + i|11>)/sqrt(2) (PAIR_AMPLITUDES), mixed with white
noise at visibility V. With the in-plane observable at phase phi,
cos(phi) sigma_x + sin(phi) sigma_y, where phi = 0 is X and phi = pi/2 is Y,
its two-party table is E(x,x) = E(y,y) = 0 and E(x,y) = E(y,x) = +V
(pair_table).

The Bell-Mermin pair (B, B') is defined through the complex combination
f(x, y) = e^{-i pi/4} (x + i y) / sqrt(2): the f-transform of the pair is the
tensor product of the per-site f-transforms of X and Y, so
B + i B' = F_PHASE^{-1} (f (x) ... (x) f) with f = f(X, Y). The state is a
tensor power of one pair, hence <B> + i <B'> = t^N / F_PHASE with
t = tr[rho_pair (f (x) f)], a sum over the pair's two-party table: the
contraction reads the table, not V (pair_contraction). mermin_expectation
checks the closed form V^N against this contraction. The pair as a dense
density matrix with its correlator traces, the dense recursion, its 2N-qubit
trace and the Bell-Zukowski operator identity are the test suite's reference
routes (tests/dense_oracle.py).

The Bell relation <Z_{2N}> = (1/2)(pi/2)^{2N} 2^{-(2N-1)/2} <B> turns the
local-realistic bound |<Z_{2N}>| <= 1 into a bound on |<B>|, and that bound
into the threshold visibility.
"""

from __future__ import annotations

import cmath
import math

# Agreement tolerance for derived quantities that two routes compute.
COMPARISON_TOL = 1e-10

# Slack used by inequality verdicts: a bound |v| <= c is "satisfied" up to
# |v| <= c + BOUND_SLACK so that exact boundary cases classify as satisfied.
BOUND_SLACK = 1e-12

# Slack of the complete-set (cross-polytope) verdict of the LHV oracle.
COMPLETE_SET_SLACK = 1e-9

# Looser than COMPLETE_SET_SLACK: lhv_feasible drops weights of up to 1e-12
# each, at most 2^n + 2 of them, so a 12-party rebuild may be off by 4.1e-9.
WITNESS_TOL = 1e-8

F_PHASE = cmath.exp(-1j * math.pi / 4) / math.sqrt(2)

# Amplitudes of |00> and |11> in the shared pair (|00> + i|11>)/sqrt(2);
# the other two are zero.
PAIR_AMPLITUDES = (1 / math.sqrt(2), 1j / math.sqrt(2))

# e^{i phi} of the two settings: X at phi = 0, Y at phi = pi/2.
SETTING_PHASORS = {"X": 1, "Y": 1j}


def pair_contraction(table: dict[str, float]) -> complex:
    """t = tr[rho_pair (f (x) f)] for the pair with two-party table `table`.

    f = F_PHASE (X + iY) at each site, so f (x) f is F_PHASE^2 times the sum
    of u_s1 u_s2 s1 (x) s2 over the settings, and t is the same sum over the
    pair's two-party table: the contraction reads only the correlators.
    """
    return F_PHASE**2 * sum(SETTING_PHASORS[s1] * SETTING_PHASORS[s2] * e
                            for (s1, s2), e in table.items())


def pair_table(v: float) -> dict[str, float]:
    """Correlators E(s1 s2) of the noisy pair at visibility v, keys "XX".."YY".

    sigma_phi = e^{-i phi} |0><1| + e^{i phi} |1><0|, so a full correlator reads
    only the |00><11| coherence, which the white noise does not reach:
    E(s1 s2) = 2 V Re[a00 conj(a11) u_s1 u_s2] with u = e^{i phi}.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    a00, a11 = PAIR_AMPLITUDES
    return {s1 + s2: 2 * v * (a00 * a11.conjugate() * u1 * u2).real
            for s1, u1 in SETTING_PHASORS.items() for s2, u2 in SETTING_PHASORS.items()}


def mermin_expectation(table: dict[str, float], v: float, n_copies: int) -> float:
    """<B> = V^N on n_copies pairs with table `table` (pair_table(v)), checked
    against the pair contraction: F_PHASE (<B> + i<B'>) = t^N.

    Both <B> and <B'> equal V^N and are required to agree with it within the
    comparison tolerance; a mismatch means a construction bug, not a
    physical effect, and raises ArithmeticError.
    """
    if n_copies < 1:
        raise ValueError("need at least one copy")
    analytic = v**n_copies
    z = pair_contraction(table) ** n_copies / F_PHASE
    for name, value in (("B", z.real), ("B'", z.imag)):
        if abs(analytic - value) > COMPARISON_TOL:
            raise ArithmeticError(
                f"analytic {analytic} and contracted <{name}> {value} Mermin values disagree")
    return analytic


def local_bound_check(value: float) -> bool:
    """Local-realistic bound |v| <= 1 of both <B> and <Z_n>; False is a violation."""
    return abs(value) <= 1.0 + BOUND_SLACK


def bell_relation_scale(n_copies: int) -> float:
    """Factor (1/2)(pi/2)^{2N} 2^{-(2N-1)/2} linking <Z_{2N}> to <B>: the
    reciprocal of the modified bound, 1 / (sqrt2 c^N) with c = 8/pi^2."""
    return 1 / modified_mermin_bound(n_copies)


def zukowski_from_mermin(mermin_value: float, n_copies: int) -> float:
    """Computed Bell-Zukowski average for a measured Bell-Mermin average."""
    return bell_relation_scale(n_copies) * mermin_value


def modified_mermin_bound(n_copies: int) -> float:
    """Bound on |<B>| implied by |<Z_{2N}>| <= 1: 2 (2/pi)^{2N} 2^{(2N-1)/2},
    computed as sqrt2 c^N with c = 8/pi^2, which stays finite at large N."""
    if n_copies < 1:
        raise ValueError("need at least one copy")
    return math.sqrt(2) * (8 / math.pi**2) ** n_copies


def threshold_visibility(n_copies: int) -> float:
    """Smallest visibility whose computed |<Z_{2N}>| reaches 1: the N-th root
    of the modified bound, c 2^{1/(2N)} with c = 8/pi^2.

    Defined for N >= 2 only; at N = 1 the bound exceeds 1 and no visibility
    produces a violation.
    """
    if n_copies < 2:
        raise ValueError("threshold visibility is defined for n_copies >= 2")
    return 8 / math.pi**2 * 2 ** (1 / (2 * n_copies))
