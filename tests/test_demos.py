"""Every demo runs clean and prints the same bytes as when its pin was made.

Each script in demos/ runs in a subprocess with PYTHONPATH=src; its stdout
is compared by SHA-256 against the pin below. A pin changes only with a
change that is meant to change what the demo prints, and that change says so.
`PYTHONPATH=src python tests/test_demos.py` prints the current digests as a
`STDOUT_SHA256` dict to paste over the one below.
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
        "3e2284b92f933e7fd642949d97a9b8311d1d33fe65d3aaff51506a5460cc1a22",
    "07_custom_manifest.py": "8a5b6268f30d5cdbd8f2444315b6b586ec626e15656173bca6eaf20ae6e90129",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def demo_digest(name, cwd):
    """The SHA-256 of the stdout of demos/`name`, run in `cwd`; it must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=cwd,
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return hashlib.sha256(proc.stdout).hexdigest()


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_its_pinned_bytes(name, tmp_path):
    assert demo_digest(name, tmp_path) == STDOUT_SHA256[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        names = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
        print("STDOUT_SHA256 = {")
        for name in names:
            line = f'    "{name}": "{demo_digest(name, tmp)}",'
            print(line if len(line) < 100 else line.replace(": ", ":\n        ", 1))
        print("}")
