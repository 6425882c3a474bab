import ast
import re
from pathlib import Path

import shallowid as si

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_tour_gives_its_commented_results():
    """Runs README's python block statement by statement.  Each bare
    expression gives what its comment names before any colon: a literal is
    compared with ==, a name is a shallowid type the result must have."""

    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        source = ast.get_source_segment(block, stmt)
        result = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.end_lineno - 1].split("#", 1)[1].split(":")[0].strip()
        try:
            expected = ast.literal_eval(comment)
        except ValueError:
            assert isinstance(result, getattr(si, comment)), source
        else:
            assert result == expected, source
        checked.append(source)
    assert checked == ["si.evaluate(net, (1.0, 0.0))", "si.admissibility_violations(net)",
                       "si.test_reducible(g)", "si.test_equivalent(net, rebuilt)"]
