"""The README's python examples run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # one namespace: the second block uses G
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert float(printed[1]) == 1.0  # the quick start's ARI
    assert namespace["partition"].r == 3
    assert not namespace["run"]["stalled"]
