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
# Computed with the oracle's "yes" at iteration 0 where its start is already
# PSD, carrying that start, built as the affine point whose moment is
# (|A+B| - |A-B|) / 2; past a pair of projectors decided through its
# observables, A = E - N, whose top comes from the one eigh that also gives its
# Bell value, every BlochVector stored as v / |v|, and every CHSH table one
# contraction of the state with both wings' contrasts.
PINNED_TOTAL_101 = "685a3633233af577ca4eb144887837d9bd9f76caef9420abaab7fb287ba5eff4"
PINNED_LIBRARY_101 = "1a140ab2d4b88ba274f53e6a857cd9caf1f978110b0746ea77e129cc17e0c6d7"
# Computed with the oracle's start-decided "yes" and its start as above, every
# BlochVector stored as v / |v|, and every CHSH table one contraction.
PINNED_QUBIT_101 = "9a0bedc60c5f1a0769b5f8bdb42e20295ff0c2f86935576fd662947468f9eeb0"
# Computed with every dimension refusal a ValidationError("same-dimension"), and
# a projector whose trace adds inf and -inf refused in one error line.
PINNED_REFUSALS = "5a1593e54554d0d9b659d6500e8d4e166113a3b45d7a40b4b4f9806af850cab4"
# Computed with the built-in boxes checked by NoSignalingBox, the dilations by
# Projector and the pure states by two residual checks; the same bytes since
# all three are built unchecked.
PINNED_UNCHECKED_101 = "ea4d608a5a1cecd2974cd3d4fddc7eb10fa70a8d7c2b7beda22ae59ab80ee2ee"
# Computed with every CHSH table one contraction of the state with Alice's
# stacked contrasts, smeared in one pass, and Bob's.
PINNED_CORRELATOR_101 = "0edbd3e0096bd0b7918d88293102148b6c1fff5b350a5345789cb285a928b7a6"


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


def test_one_seed_gives_one_digest_of_the_values_built_unchecked(monkeypatch):
    # The PR box and the 16 deterministic boxes, both effects of each of the 50
    # POVM ops of one blocks cycle dilated (d up to 16), and 200 qubit pure states.
    line = _tool(monkeypatch).unchecked_digest((101,))
    assert line == (f"{PINNED_UNCHECKED_101}  unchecked values over 17 boxes, 100 dilations "
                    "and 1 seeds x 200 pure states")


def test_one_seed_gives_one_correlator_digest_past_qubit_wings(monkeypatch):
    # A mixed state and POVM settings for each (d_A, d_B) in {1, 2, 3, 4}^2:
    # the terms of chsh, smeared_chsh and smeared_chsh_values.
    uj_digest = _tool(monkeypatch)
    assert len(uj_digest.CORRELATOR_WINGS) == 16 and (2, 3) in uj_digest.CORRELATOR_WINGS
    line = uj_digest.correlator_digest((101,))
    assert line == f"{PINNED_CORRELATOR_101}  correlator library over 1 seeds x 16 wing pairs"


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
