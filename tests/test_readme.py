"""README's documented API: the Library example runs as written and prints
what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(title: str) -> str:
    """The first fenced python block of README's section ``title``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_written(capsys):
    code = _section_code("Library")
    promised = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    exec(compile(code, str(README), "exec"), {})
    assert promised
    assert capsys.readouterr().out.splitlines() == promised
