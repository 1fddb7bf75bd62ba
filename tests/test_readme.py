import re
from pathlib import Path


def test_readme_quickstart_runs(capsys):
    # the README's Python quickstart, run as written
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert re.match(r"max L2 error \d\.\d{3}e-\d+, weighted", capsys.readouterr().out)
