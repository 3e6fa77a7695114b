"""A monitoring run imports neither scipy nor ``numpy.ma``.

Both cost resident memory in every process that imports them:
``scipy.spatial.distance`` about 38 MiB of peak RSS, ``numpy.ma`` (which
``np.quantile`` pulls in) 1-2 MiB.  The benchmark bounds peak RSS at
5 %, so a stray import shows there as a regression.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
import tempfile
from pathlib import Path

import numpy as np

import kcusum
from kcusum import cli

rng = np.random.default_rng(0)
kernel = kcusum.KernelSpec.mixture([0.5, 2.0])
reference = kcusum.build_reference(kernel, rng.standard_normal((200, 2)))
cal = kcusum.calibrate_correction(reference, rng.standard_normal((120, 2)), 10, quantile=0.9)
config = kcusum.DetectorConfig(window=10, min_sample=3, threshold=5.0, correction=cal.correction)
det = kcusum.KernelCusumDetector(reference, config)
for row in rng.standard_normal((50, 2)):
    det.step(row)
det = kcusum.KernelCusumDetector.restore(reference, config, det.checkpoint())
det.step(rng.standard_normal(2))
with tempfile.TemporaryDirectory() as out:
    path = Path(out) / "tiny.ini"
    path.write_text(
        "[scenario]\\nkind = ar-variance\\nchange_at = none\\n"
        "[detector]\\nwindow = 5\\nreference = 60\\nholdout = 40\\nquantile = 0.5\\nmargin = 0\\n"
        "[campaign]\\nmode = mtbfa\\nreplications = 2\\nthresholds = 0.1\\nhorizon_factor = 20\\n"
        f"[output]\\ndirectory = {out}\\n"
    )
    code = cli.main(["mtbfa", "--config", str(path)])
loaded = sorted(
    name for name in sys.modules
    if name in ("scipy", "numpy.ma") or name.startswith(("scipy.", "numpy.ma."))
)
print(code, " ".join(loaded))
"""


def test_a_run_imports_neither_scipy_nor_numpy_ma():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    code, _, loaded = proc.stdout.strip().splitlines()[-1].partition(" ")
    assert code == "0", proc.stdout + proc.stderr
    assert loaded == "", (
        f"imported {loaded}: scipy.spatial.distance costs about 38 MiB of peak RSS and "
        "numpy.ma (imported by np.quantile) 1-2 MiB, against a 5 % peak_rss_mib bound"
    )
