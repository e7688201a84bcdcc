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


def test_readme_states_the_dependency_floors_of_pyproject():
    pyproject = (README.parent / "pyproject.toml").read_text()
    readme = README.read_text()
    for package in ("numpy", "scipy"):
        floor = re.search(rf'"{package}>=(\d[\d.]*\d)"', pyproject)
        stated = re.search(rf"{package} >= (\d[\d.]*\d)", readme)
        assert floor and stated and stated.group(1) == floor.group(1), package
