"""Engine behavior: noqa suppression, parse errors, select/ignore, reports,
and agreement between standalone and whole-program lints."""

from __future__ import annotations

import json

from repro.analysis.engine import PARSE_ERROR_RULE, lint_paths, lint_source
from repro.analysis.report import render_json, render_text

DIRTY = "import random\n\ndef f(xs):\n    return random.choice(xs)\n"


def test_noqa_bare_suppresses_everything():
    src = "import random\n\ndef f(xs):\n    return random.choice(xs)  # noqa\n"
    assert lint_source(src, "src/repro/mining/x.py") == []


def test_noqa_with_matching_code():
    src = (
        "import random\n\ndef f(xs):\n"
        "    return random.choice(xs)  # noqa: REPRO111\n"
    )
    assert lint_source(src, "src/repro/mining/x.py") == []


def test_noqa_with_wrong_code_does_not_suppress():
    src = (
        "import random\n\ndef f(xs):\n"
        "    return random.choice(xs)  # noqa: REPRO103\n"
    )
    assert [v.rule_id for v in lint_source(src, "src/repro/mining/x.py")] == [
        "REPRO111"
    ]


def test_noqa_code_list_and_case_insensitivity():
    src = (
        "import random\n\ndef f(xs):\n"
        "    return random.choice(xs)  # NOQA: REPRO103, REPRO111\n"
    )
    assert lint_source(src, "src/repro/mining/x.py") == []


def test_syntax_error_is_a_violation():
    violations = lint_source("def f(:\n", "src/repro/mining/x.py")
    assert [v.rule_id for v in violations] == [PARSE_ERROR_RULE]


def test_select_restricts_rules():
    src = "import random\n\ndef f(xs):\n    random.seed(0)\n    return sorted(xs, key=id)\n"
    only103 = lint_source(src, "src/repro/mining/x.py", select=["REPRO103"])
    assert {v.rule_id for v in only103} == {"REPRO103"}


def test_ignore_drops_rules():
    src = "import random\n\ndef f(xs):\n    random.seed(0)\n    return sorted(xs, key=id)\n"
    rest = lint_source(src, "src/repro/mining/x.py", ignore=["REPRO111"])
    assert {v.rule_id for v in rest} == {"REPRO103"}


def test_violation_format_is_flake8_style():
    (v,) = lint_source(DIRTY, "src/repro/mining/x.py")
    line = v.format()
    assert line.startswith("src/repro/mining/x.py:4:")
    assert "REPRO111" in line


def test_lint_paths_walks_directories(tmp_path):
    pkg = tmp_path / "repro" / "mining"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text("def f(d):\n    return sorted(d.items())\n")
    (pkg / "dirty.py").write_text(DIRTY)
    report = lint_paths([tmp_path])
    assert report.files_checked == 2
    assert not report.ok
    assert report.counts_by_rule() == {"REPRO111": 1}


def test_lint_paths_select_and_ignore_filter_kept_and_suppressed(tmp_path):
    pkg = tmp_path / "repro" / "mining"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(DIRTY)
    (pkg / "waived.py").write_text(
        "def f(xs):\n    return sorted(xs, key=id)  # noqa: REPRO103 - fixture\n"
    )
    everything = lint_paths([tmp_path])
    assert [v.rule_id for v in everything.violations] == ["REPRO111"]
    assert [v.rule_id for v in everything.suppressed_violations] == ["REPRO103"]

    selected = lint_paths([tmp_path], select=iter(["REPRO10"]))
    assert selected.violations == []
    assert selected.suppressed_violations == everything.suppressed_violations

    ignored = lint_paths([tmp_path], ignore=["REPRO1"])
    assert ignored.files_checked == 2
    assert ignored.violations == ignored.suppressed_violations == []


def test_render_text_ok_and_fail(tmp_path):
    pkg = tmp_path / "repro" / "mining"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text("X = 1\n")
    ok = render_text(lint_paths([tmp_path]))
    assert "OK: 1 file(s) checked, 0 violations" in ok

    (pkg / "dirty.py").write_text(DIRTY)
    fail = render_text(lint_paths([tmp_path]), statistics=True)
    assert "FAIL" in fail and "REPRO111" in fail


def test_render_json_round_trips(tmp_path):
    pkg = tmp_path / "repro" / "mining"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(DIRTY)
    payload = json.loads(render_json(lint_paths([tmp_path])))
    assert payload["ok"] is False
    assert payload["violations"][0]["rule"] == "REPRO111"


#: A hot loop that polls its token and calls ``verify`` on an untyped
#: receiver: nothing resolves the call, so nothing may guess it loops.
UNTYPED_VERIFY = """\
from repro.analysis.guards import hot_path


@hot_path
def check_all(items, signer, token=None):
    for item in items:
        if token is not None:
            token.poll()
        signer.verify(item)
"""


def test_standalone_and_whole_program_lints_agree(tmp_path):
    fixture = tmp_path / "src" / "repro" / "core" / "fixture.py"
    fixture.parent.mkdir(parents=True)
    fixture.write_text(UNTYPED_VERIFY)
    standalone = lint_source(UNTYPED_VERIFY, str(fixture))
    assert standalone == lint_paths([fixture]).violations
    assert standalone == []
