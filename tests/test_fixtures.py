"""The committed fixtures are reproduced byte for byte by the tool."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def test_make_fixtures_reproduces_committed_files(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "tools" / "make_fixtures.py"), str(tmp_path)],
                   check=True, capture_output=True)
    committed = sorted(p.name for p in FIXTURES.glob("*.json"))
    assert sorted(p.name for p in tmp_path.iterdir()) == committed
    assert len(committed) == 6
    for name in committed:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name
