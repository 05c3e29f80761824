import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    """The first python code block under README's ``## Library`` heading."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```", section, re.S | re.M)
    assert match, "README's Library section has no python code block"
    return match.group(1)


def test_library_snippet_runs():
    namespace = {}
    exec(compile(library_snippet(), "README.md:Library", "exec"), namespace)
    assert namespace["report"].strict
    assert namespace["bounds"].t == 4
