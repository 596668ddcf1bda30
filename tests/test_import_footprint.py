"""``import grassatlas`` loads the kernel only; the harness stays in ``grassatlas.verify``.

Each module the kernel pulls in is paid by every fresh interpreter, so kernel
work is run in one and its ``sys.modules`` is read back.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

KERNEL_WORK = """
import sys
import grassatlas as ga

ladder = ga.build_truncation_ladder([(4, 4), (8, 8)], 1, ga.DecayProfile.geometric(0.5), seed=3)
for family in (ga.swap_chart_family(1.5 + 0.5j), ga.graph_chart_family(0.6, 99)):
    assert ga.preservation_experiment(ladder, 1, family).passed
model, point = next(iter(ladder))
ga.membership_report(point.w, model, 2)
print(" ".join(sys.modules))
"""

# numpy.ma comes in through np.unique and np.isin, and adds about 1 MB of heap
HARNESS = {"grassatlas.verify", "grassatlas.sampling", "grassatlas.serialize", "numpy.ma"}


# a cold ``import grassatlas`` is the set-up every benchmark workload times
COLD_IMPORT = """
import sys
import grassatlas
print(" ".join(sys.modules))
"""


def _loaded(code):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=path))
    return set(child.stdout.split())


def test_kernel_work_loads_no_harness_module():
    loaded = _loaded(KERNEL_WORK)
    assert "grassatlas.restricted" in loaded
    assert sorted(loaded & HARNESS) == []


def test_cold_import_loads_neither_numpy_random_nor_numpy_ma():
    loaded = _loaded(COLD_IMPORT)
    assert "grassatlas.atlas" in loaded
    assert sorted(loaded & {"numpy.random", "numpy.ma"}) == []
