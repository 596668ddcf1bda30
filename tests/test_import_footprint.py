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


def test_kernel_work_loads_no_harness_module():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", KERNEL_WORK], check=True, capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=path))
    loaded = set(child.stdout.split())
    assert "grassatlas.restricted" in loaded
    assert sorted(loaded & HARNESS) == []
