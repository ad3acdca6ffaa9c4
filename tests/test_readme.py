import os
import re
import subprocess
import sys
from pathlib import Path

import rabi2q

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run():
    # the library examples build on each other, so they run as one script
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    src = str(Path(rabi2q.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", "\n".join(blocks)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
