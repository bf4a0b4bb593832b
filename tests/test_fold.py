"""Float sums have one order on every interpreter."""

import re
from pathlib import Path

import tgsim
from tgsim.fold import left_sum

# the builtin, not a method or a longer name such as np.sum or left_sum
BARE_SUM = re.compile(r"(?<![\w.])sum\(")


def test_left_sum_rounds_after_every_addition():
    # a compensated sum (math.fsum, sum() from Python 3.12) gives 1.0
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum(x for x in (1e16, 1.0, -1e16)) == 0.0
    assert left_sum([]) == 0.0


def test_no_bare_sum_in_the_package():
    src = Path(tgsim.__file__).parent
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if BARE_SUM.search(line)
    ]
    assert not offenders, "use fold.left_sum for float sums:\n" + "\n".join(offenders)
