"""The bundled toy data is what scripts/gen_toy_data.py writes."""

import shutil
import subprocess
import sys
from pathlib import Path

from newscast import toy_config_path

SCRIPT = Path(__file__).parent.parent / "scripts" / "gen_toy_data.py"


def test_generator_reproduces_the_bundled_files(tmp_path):
    # The script writes to src/newscast/data/toy/ beside its own parent
    # directory, so a copy under tmp_path writes there instead.
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPT, tmp_path / "scripts")
    subprocess.run(
        [sys.executable, str(tmp_path / "scripts" / SCRIPT.name)],
        check=True,
        capture_output=True,
    )
    bundled = toy_config_path().parent
    written = tmp_path / "src" / "newscast" / "data" / "toy"
    names = sorted(p.name for p in bundled.iterdir())
    assert names == sorted(p.name for p in written.iterdir())
    assert len(names) == 7
    for name in names:
        assert (written / name).read_bytes() == (bundled / name).read_bytes(), name
