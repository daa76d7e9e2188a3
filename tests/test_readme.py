"""The README's Python snippets run as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_snippets_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == [
        "gcomp", "one_step", "tmle_weighted_logistic",
        "tmle_long_weighted_logistic"]
