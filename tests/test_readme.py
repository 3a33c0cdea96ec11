import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_quick_start_prints_what_its_comments_say(capsys):
    # the README's one python block runs as written, one printed line per
    # print call; where a print's trailing comment is a Python literal, the
    # line is that literal's repr, and a prose comment is left unread
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                          re.S | re.M)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [stmt.value for stmt in ast.parse(block).body
             if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
             and getattr(stmt.value.func, "id", None) == "print"]
    assert len(printed) == len(calls)
    tokens = tokenize.generate_tokens(io.StringIO(block).readline)
    comments = {tok.start[0]: tok.string.lstrip("#").strip()
                for tok in tokens if tok.type == tokenize.COMMENT}
    checked = 0
    for call, line in zip(calls, printed):
        try:
            want = ast.literal_eval(comments.get(call.end_lineno, ""))
        except (SyntaxError, ValueError):
            continue
        assert line == repr(want)
        checked += 1
    assert checked >= 2
