"""Smoke test of tools/uj_digest.py, the byte-identity digest of the cli workload's argvs."""

import hashlib
import importlib.util
import math
import os
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED_TOTAL_101 = "e45c66d2fe0706044b132de8b11a171e21f7f6bda66d20a277f0e6011c732157"
PINNED_LIBRARY_101 = "79a7d767e08d23b141686fa96eed7a99660a535d967e5e6f9c9ba89208786f35"
# Computed on the tree before the qubit path's direct Bloch observable, leaner
# _frozen, Python-float CHSH sums and the oracle's reused spectrum.
PINNED_QUBIT_101 = "2466a1f98781ba1df2e0e48b0fff9e1ccf69c675055f074507900abde627e7c6"
# Computed with every dimension refusal a ValidationError("same-dimension").
PINNED_REFUSALS = "b9d7473aa93f6714770e23f6cc3babfe6fbac829ab9ee88c5675d395e1d8895d"


def _tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))  # perfbench, imported read-only by the tool
    spec = importlib.util.spec_from_file_location("uj_digest", ROOT / "tools" / "uj_digest.py")
    uj_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(uj_digest)
    return uj_digest


def test_one_seed_gives_one_digest_per_distinct_argv_and_their_total(monkeypatch):
    uj_digest = _tool(monkeypatch)
    *rows, total = uj_digest.report((101,))
    # 12 command forms with 3 variants each, and a fourth box-chsh variant.
    assert len(rows) == 37
    assert all(re.fullmatch(r"[0-9a-f]{64}  101 [a-z-]+-[0-3]", row) for row in rows)
    assert len({row.split()[2] for row in rows}) == 37
    expected = hashlib.sha256(b"".join(bytes.fromhex(row.split()[0]) for row in rows)).hexdigest()
    assert total == f"{expected}  total over 37 argvs"
    # The bytes of every report, pinned: a change that means to alter them
    # updates this value and says so.
    assert expected == PINNED_TOTAL_101


def test_a_report_left_untrimmed_over_a_longer_file_is_refused(monkeypatch):
    # Each argv runs again over a planted --out longer than its report; with
    # no trim, the planted file's tail outlives the rewrite.
    uj_digest = _tool(monkeypatch)
    monkeypatch.setattr(os, "ftruncate", lambda fd, length: None)
    with pytest.raises(SystemExit) as exc:
        uj_digest.report((101,))
    assert re.fullmatch(r"error: 101 [a-z-]+-[0-3]: a planted --out longer than the report was not "
                        r"rewritten to the report's bytes", str(exc.value.code))


def test_one_seed_gives_one_library_digest_past_the_cli_dimensions(monkeypatch):
    # One blocks op-mix cycle: projector pairs up to d = 64, POVM pairs up to 16.
    line = _tool(monkeypatch).library_digest((101,))
    assert line == f"{PINNED_LIBRARY_101}  blocks library over 1 seeds x 100 ops"


def test_one_seed_gives_one_qubit_and_oracle_digest(monkeypatch):
    # 200 ops of the qubit workload (closed-form decision, check_joint, pure
    # state, both CHSH reports) and 200 of the oracle workload.
    line = _tool(monkeypatch).qubit_digest((101,))
    assert line == f"{PINNED_QUBIT_101}  qubit/oracle library over 1 seeds x 200 ops each"


def test_one_digest_per_refused_argv_and_one_line_over_them(monkeypatch):
    uj_digest = _tool(monkeypatch)
    rows = uj_digest.refusal_digests()
    assert [name for name, _ in rows] == list(uj_digest.REFUSALS)
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for _, digest in rows)
    assert len({digest for _, digest in rows}) == len(rows)
    expected = hashlib.sha256(b"".join(bytes.fromhex(digest) for _, digest in rows)).hexdigest()
    # A fresh work directory each run, replaced by one token: the same line.
    assert uj_digest.refusal_digest() == f"{expected}  refusals over {len(rows)} argvs"
    # The exit code and bytes of every refusal, pinned: a change that means to
    # alter a message updates this value and says so.
    assert expected == PINNED_REFUSALS


def test_an_argv_that_uj_accepts_is_reported(monkeypatch):
    # A --m that is no Bloch vector, planted as accepted: the sweep exits 0.
    from unsharpjoint import BlochVector, cli

    uj_digest = _tool(monkeypatch)
    monkeypatch.setattr(cli, "_parse_bloch", lambda text: BlochVector.normalized([0.0, 0.0, 1.0]))
    with pytest.raises(SystemExit) as exc:
        uj_digest.refusal_digest()
    assert exc.value.code == "error: refusal sweep-m-not-numbers: uj exited 0 on an argv it must refuse"


def test_the_acceptance_line_digests_each_verdict_and_detail_but_no_runtime(monkeypatch):
    # Stand-ins for the criteria, which take seconds: number, name, check and
    # time bound, as in acceptance.CRITERIA.
    from unsharpjoint import acceptance

    uj_digest = _tool(monkeypatch)
    holds = (1, "holds", lambda: (True, "fine"), math.inf)
    monkeypatch.setattr(acceptance, "CRITERIA", (holds, (2, "breaks", lambda: (False, "off by one"), math.inf)))
    h = hashlib.sha256()
    for part in (b"1", b"holds", b"True", b"fine", b"2", b"breaks", b"False", b"off by one"):
        h.update(len(part).to_bytes(8, "big") + part)
    line = uj_digest.acceptance_digest()
    assert line == f"{h.hexdigest()}  acceptance verdicts over 2 criteria"
    # A time bound that run() would fail leaves the line as it is; a detail does not.
    monkeypatch.setattr(acceptance, "CRITERIA", (holds, (2, "breaks", lambda: (False, "off by one"), 0.0)))
    assert uj_digest.acceptance_digest() == line
    monkeypatch.setattr(acceptance, "CRITERIA", (holds, (2, "breaks", lambda: (False, "off by two"), math.inf)))
    assert uj_digest.acceptance_digest() != line


def test_a_src_without_the_package_is_refused(monkeypatch, tmp_path, capsys):
    # It used to digest whatever unsharpjoint it could import instead, so
    # two trees compared "the same" when --src named no tree at all.
    uj_digest = _tool(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        uj_digest.main(["--src", str(tmp_path / "src")])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_a_package_imported_from_elsewhere_is_refused(monkeypatch, tmp_path, capsys):
    # This process has imported unsharpjoint from the tree under test, so a
    # --src holding another package would be digested with this tree's bytes.
    uj_digest = _tool(monkeypatch)
    (tmp_path / "unsharpjoint").mkdir()
    (tmp_path / "unsharpjoint" / "__init__.py").write_text("")
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit) as exc:
        uj_digest.main(["--src", str(tmp_path)])
    assert str(exc.value.code).startswith("error: imported unsharpjoint from ")
    assert capsys.readouterr().out == ""
