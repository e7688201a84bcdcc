"""The README's Python examples run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_has_a_python_example():
    assert _python_blocks()


def test_readme_python_examples_run():
    for block in _python_blocks():
        namespace: dict = {}
        exec(compile(block, str(README), "exec"), namespace)
