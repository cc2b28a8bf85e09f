"""README's library example runs against the code as documented."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from dotnmr import DotConfig, SweepSpec, load_config, validate_config

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.match(r"\s*```python\n(.*?)\n```", section, re.DOTALL)
    assert match, "README's ## Library section must open with a python block"
    return match.group(1)


def test_readme_library_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {})
    *transitions, shift, f_nmr, fidelity = out.getvalue().splitlines()
    assert transitions
    assert float(shift) == pytest.approx(0.25, abs=0.01)
    assert float(f_nmr) > 0.0
    assert float(fidelity) >= 0.99


def test_readme_config_block_loads_to_the_defaults(tmp_path):
    blocks = re.findall(r"```json\n(.*?)\n```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1, "README holds one JSON config block"
    path = tmp_path / "readme.json"
    path.write_text(blocks[0], encoding="utf-8")
    assert load_config(path) == (validate_config(DotConfig()), SweepSpec())
