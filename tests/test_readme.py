import re
from pathlib import Path

import lexicorp

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_block_runs_and_all_names_resolve():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert all(hasattr(lexicorp, name) for name in lexicorp.__all__)
