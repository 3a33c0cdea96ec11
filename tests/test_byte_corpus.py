"""Every command's bytes against the committed corpus.

tests/data/byte_corpus.json holds, per argv, the exit code, stdout, stderr
and report bytes (a sha256 where long) that tests/make_byte_corpus.py
recorded. A change that moves any of them regenerates the corpus with that
script and states the moved cases in CHANGES.md; this test shows the move.
"""

import json

import pytest

from make_byte_corpus import CORPUS, case_id, run_case

_CASES = json.loads(CORPUS.read_text())


@pytest.mark.parametrize("case", _CASES, ids=[
    case_id(i, case) for i, case in enumerate(_CASES)])
def test_command_bytes_match_the_corpus(case):
    assert run_case(case["argv"], case.get("config")) == case
