"""Constants, table builders and an in-process bellctl runner that several
test modules share. Not collected by pytest; test modules import from here,
and never from one another.
"""

import contextlib
import io
import math
from unittest import mock

from bellbench.cli import main
from bellbench.lhv import CorrelationTable
from lp_oracle import correlators, settings

V_GRID = (0.0, 0.25, 0.5, 0.81, 1.0)

# <Z> at V = 1 for N copies, frozen from the closed Bell-relation factor
# (1/2)(pi/2)^{2N} 2^{-(2N-1)/2}, which test_acceptance recomputes.
ZUKOWSKI_AT_FULL_VISIBILITY = {
    1: 0.8723580249548598,
    2: 1.076228575302513,
    3: 1.3277437854229766,
}


def run_main(argv, stdin=""):
    """Exit code, stdout and stderr of main(argv) reading `stdin` (a string,
    or an open text file), usage errors included."""
    if isinstance(stdin, str):
        stdin = io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", stdin):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def mixture_table(rng, n):
    """Random convex mixture of 2..2n+2 deterministic strategies: local by construction."""
    count = int(rng.integers(2, 2 * n + 3))
    weights = rng.uniform(0.05, 1.05, count)
    weights /= weights.sum()
    outcomes = rng.choice([-1.0, 1.0], size=(count, n, 2))
    return CorrelationTable(dict(zip(settings(n), correlators(outcomes) @ weights)))


def ghz_type_table(rng, n, scale):
    """scale * cos(phase + (#Y) pi/2), with random per-party X/Y swaps and sign flips.

    Swaps and flips are local relabellings, so they keep the distance from
    the local polytope; at scale 1 and phase pi/4 the table violates for n >= 2.
    """
    phase = math.pi / 4 + rng.uniform(-0.05, 0.05)
    flips = rng.choice([-1, 1], size=(n, 2))
    swaps = rng.random(n) < 0.5
    values = {}
    for key in settings(n):
        y_count, sign = 0, 1
        for k, setting in enumerate(key):
            y_count += (setting == "Y") != swaps[k]
            sign *= int(flips[k, int(setting == "Y")])
        values[key] = scale * sign * math.cos(phase + y_count * math.pi / 2)
    return CorrelationTable(values)
