"""Set-up work of one fresh bieigen process, timed from outside by run.py.

    python3 bench/setup_probe.py MANIFEST.json [MANIFEST.json ...]

Imports bieigen from the checkout's src/, loads and builds each manifest the
way the CLI does, and analyses one sample point per map, which fills the jet
index tables every later point reuses. Prints nothing.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bieigen  # noqa: E402

for path in sys.argv[1:]:
    _, smap = bieigen.build_map(bieigen.load_manifest(path))
    bieigen.analyze_point(smap, smap.chart.sample_points(1)[0])
