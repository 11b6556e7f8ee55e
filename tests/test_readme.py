import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_library_example_runs_as_written():
    text = README.read_text(encoding="utf-8")
    library = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md (Library)", "exec"), {})
