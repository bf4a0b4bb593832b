"""Float sums have one order on every interpreter, and float
transcendentals come from libm, whatever numpy's SIMD level."""

import math
import re
import struct
from collections import deque
from pathlib import Path

import numpy as np

import tgsim
from tgsim.fold import array_sum, left_sum, mean_sigma

# the builtin, not a method or a longer name such as np.sum or left_sum
BARE_SUM = re.compile(r"(?<![\w.])sum\(")
# numpy's real-valued transcendentals, whose last bit follows the host's
# SIMD dispatch; math.log and math.exp follow libm alone
NP_TRANSCENDENTAL = re.compile(
    r"\bnp\.(?:log|log1p|log2|log10|exp|expm1|exp2|power"
    r"|(?:arc)?(?:sin|cos|tan)h?|arctan2)\("
)
# diversity_from_phases: complex np.exp, which matches cmath.exp at every
# SIMD level tried
COMPLEX_ONLY = {("thermal.py", "zs = np.exp(2j * np.pi * phases)")}


def test_left_sum_rounds_after_every_addition():
    # a compensated sum (math.fsum, sum() from Python 3.12) gives 1.0
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum(x for x in (1e16, 1.0, -1e16)) == 0.0
    assert left_sum([]) == 0.0


def test_array_sum_is_the_left_sum_of_the_array_bitwise():
    rng = np.random.default_rng(4)
    cases = [[], [0.1] * 10, [1e16, 1.0, -1e16], [-0.0, 0.0], [0.0, -0.0], [-0.0, 1.5, -1.5]]
    cases += [(rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)).tolist() for n in range(1, 60)]
    for x in cases:
        assert struct.pack("<d", array_sum(np.array(x))) == struct.pack("<d", left_sum(x)), x
    # on an all -0.0 input the accumulate pass alone ends at -0.0, while
    # left_sum starts from 0.0 and ends at +0.0; array_sum keeps +0.0
    for n in (1, 2, 5):
        zeros = np.full(n, -0.0)
        assert struct.pack("<d", np.add.accumulate(zeros)[-1]) == struct.pack("<d", -0.0)
        assert struct.pack("<d", array_sum(zeros)) == struct.pack("<d", 0.0)


def test_mean_sigma_is_two_left_folds():
    # the population mean, then the root of the mean squared deviation
    # from it, each a left fold; a deque, as a price window is, gives the same
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 24, 288):
        x = (30.0 + 10.0 * rng.standard_normal(n)).tolist()
        m = left_sum(x) / n
        want = (m, math.sqrt(left_sum([(p - m) ** 2 for p in x]) / n))
        for values in (x, deque(x)):
            assert [struct.pack("<d", v) for v in mean_sigma(values)] == [struct.pack("<d", v) for v in want]
    assert mean_sigma([0.1] * 10) == (0.09999999999999999, 1.3877787807814457e-17)


def test_no_bare_sum_in_the_package():
    src = Path(tgsim.__file__).parent
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if BARE_SUM.search(line)
    ]
    assert not offenders, "use fold.left_sum for float sums:\n" + "\n".join(offenders)


def test_no_real_numpy_transcendental_in_the_package():
    src = Path(tgsim.__file__).parent
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if NP_TRANSCENDENTAL.search(line) and (path.name, line.strip()) not in COMPLEX_ONLY
    ]
    assert not offenders, "use math.log / math.exp per element:\n" + "\n".join(offenders)
