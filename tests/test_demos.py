"""Every demo runs clean and prints the same bytes as when its pin was made.

Each script in demos/ runs in a subprocess with PYTHONPATH=src; its stdout
is compared by SHA-256 against the pin below. A pin changes only with a
change that is meant to change what the demo prints, and that change says so.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "01_taylor_jets.py": "140237f1532b7fcc7cd3a456e6370c17d666ebea3cb88880b7a40dcc87325425",
    "02_expression_language.py":
        "fc9f0805514e10f4864d60d178b3ac22ae1b04694647b8b2233090d4259396e4",
    "03_laplacians_on_charts.py":
        "e07e415e0b917bef97ad9a8d4a2ce12b923e5098a15ad17531d63bbf59050f05",
    "04_proper_biharmonic_circle.py":
        "8d25b923fa143fa8cb3d0083ebbc6e5dd3d69f5855a7ade7e15de096642a5068",
    "05_classify_and_verify.py":
        "9817f02c558ec604ba301026eacc2528afa6ef3d96da1ca0897764c5086ba6d7",
    "06_bienergy_quadrature.py":
        "238b4608e31887ab7a5277824e87aa8ad1c67aa7f37ad7e7fecd5e34756349fc",
    "07_custom_manifest.py": "8a5b6268f30d5cdbd8f2444315b6b586ec626e15656173bca6eaf20ae6e90129",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_its_pinned_bytes(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
