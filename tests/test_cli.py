"""End-to-end CLI behavior: commands, formats, exit codes, determinism."""

import argparse
import ast
import contextlib
import errno
import inspect
import io
import json
import math
import os
import re
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unsharpjoint import (
    ANCILLA_CONVENTION,
    BlochVector,
    DensityMatrix,
    DichotomicObservable,
    ValidationError,
    criterion_value,
    matrix_from_json,
    matrix_to_json,
    optimal_settings,
    qubit_joint_observable,
    singlet,
    smeared_chsh,
    worst_case_pair,
)
from unsharpjoint import acceptance, cli
from unsharpjoint.bell import SETTINGS
from unsharpjoint.cli import SWEEP_MAX_ROWS, _build_parser, main
from test_tolerances import _readers

INV_SQRT2 = 0.7071067811865475


def _write_fixtures(tmp_path):
    """Valid input files in tmp_path, by name, and the directory as "dir"."""
    z = np.array([[1, 0], [0, 0]], dtype=complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    paths = {}

    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    dump("p.json", matrix_to_json(z))
    dump("q.json", matrix_to_json(plus))
    dump("singlet.json", matrix_to_json(singlet().matrix))
    a1, a2, b1, b2 = optimal_settings()
    dump(
        "settings.json",
        {
            key: matrix_to_json(o.yes_effect.matrix)
            for key, o in zip(("a1", "a2", "b1", "b2"), (a1, a2, b1, b2))
        },
    )
    dump(
        "pr.json",
        {
            "p": {
                "11": [[0.5, 0], [0, 0.5]],
                "12": [[0.5, 0], [0, 0.5]],
                "21": [[0.5, 0], [0, 0.5]],
                "22": [[0, 0.5], [0.5, 0]],
            }
        },
    )
    paths["dir"] = str(tmp_path)
    return paths


@pytest.fixture
def fixtures(tmp_path):
    return _write_fixtures(tmp_path)


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestSmear:
    def test_matches_library(self, fixtures, capsys):
        code, out = _run(
            ["smear", "--obs", fixtures["p.json"], "--lambda", str(INV_SQRT2)], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "uj/1"
        yes = np.array(payload["yes"]["re"])
        np.testing.assert_allclose(
            np.diag(yes), [(2 + math.sqrt(2)) / 4, (2 - math.sqrt(2)) / 4], atol=1e-12
        )


class TestBlocks:
    def test_structure(self, fixtures, capsys):
        code, out = _run(
            ["blocks", "--p", fixtures["p.json"], "--q", fixtures["q.json"]], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["blocks"] == [
            {
                "dim": 2,
                "basis_columns": [0, 1],
                "rank_p": 1,
                "rank_q": 1,
                "overlap": pytest.approx(INV_SQRT2, abs=1e-12),
            }
        ]

    @pytest.mark.parametrize("d", [4, 5, 8])
    def test_basis_columns_tile_the_unitary_in_block_order(self, tmp_path, capsys, d):
        # Two rank-2 projectors in general position: two 2-dim blocks, then
        # d - 4 1-dim blocks of ker p in ker q.
        rng = np.random.default_rng(d)
        mats, paths = [], []
        for name in ("p", "q"):
            u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            mats.append(u[:, :2] @ u[:, :2].conj().T)
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(matrix_to_json(mats[-1])))
        code, out = _run(["blocks", "--p", str(paths[0]), "--q", str(paths[1])], capsys)
        assert code == 0
        payload = json.loads(out)
        blocks = payload["blocks"]
        assert [b["dim"] for b in blocks] == [2, 2] + [1] * (d - 4)
        assert all(len(b["basis_columns"]) == b["dim"] for b in blocks)
        assert [c for b in blocks for c in b["basis_columns"]] == list(range(d))
        # The columns so named carry each projector block-diagonally.
        u = matrix_from_json(payload["unitary"])
        for m in mats:
            conj = u.conj().T @ m @ u
            for b in blocks:
                cols = b["basis_columns"]
                conj[np.ix_(cols, cols)] = 0.0
            assert np.max(np.abs(conj)) <= 1e-9


class TestDilate:
    def test_convention_tag(self, fixtures, capsys):
        code, out = _run(["dilate", "--obs", fixtures["p.json"]], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 2
        assert payload["convention"] == ANCILLA_CONVENTION


class TestJointlyMeasurable:
    def test_feasible(self, fixtures, capsys):
        code, out = _run(
            [
                "jointly-measurable",
                "--o1", fixtures["p.json"],
                "--o2", fixtures["q.json"],
                "--lambda", "0.70",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] == "yes"
        assert payload["witness"] is not None
        assert "certificate" not in payload

    def test_expect_feasible_exit_code(self, fixtures, capsys):
        code, _ = _run(
            [
                "jointly-measurable",
                "--o1", fixtures["p.json"],
                "--o2", fixtures["q.json"],
                "--lambda", "0.72",
                "--expect-feasible",
            ],
            capsys,
        )
        assert code == 2

    def test_oracle_flag(self, fixtures, capsys):
        code, out = _run(
            [
                "jointly-measurable",
                "--o1", fixtures["p.json"],
                "--o2", fixtures["q.json"],
                "--lambda", "0.72",
                "--oracle",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["feasible"] == "no"
        assert payload["iterations"] > 0
        assert sorted(payload["certificate"]) == ["h_mm", "h_mp", "h_pm", "h_pp"]

    def test_repeated_main_sees_only_its_own_flags(self, fixtures, capsys, monkeypatch):
        # The parser is built once per process; a second call must not
        # inherit the first call's --oracle.
        from unsharpjoint import cli

        seen = []

        def recording(decide):
            def wrapper(*args, **kwargs):
                flags = sys._getframe(1).f_locals["args"]  # the namespace of the deciding handler
                seen.append(flags.oracle)
                return decide(*args, **kwargs)
            return wrapper

        for name in ("feasibility_oracle", "povm_joint_observable"):
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        pair = ["jointly-measurable", "--o1", fixtures["p.json"], "--o2", fixtures["q.json"],
                "--lambda", "0.72"]
        reports = []
        for extra in (["--oracle"], []):
            code, out = _run(pair + extra, capsys)
            assert code == 0
            reports.append(json.loads(out))
        assert seen == [True, False]
        assert reports[0]["iterations"] > 0
        assert reports[1]["iterations"] == 0
        assert "certificate" not in reports[1]

    def test_near_sharp_effect_takes_the_povm_path(self, tmp_path, capsys):
        # Idempotency residual 3.7e-9: a valid effect, but not a projector
        # to the Projector tolerance 1e-10.
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        near = (u * np.array([1.0 - 5e-9, 1.0, 0.0, 0.0])) @ u.conj().T
        assert 1e-10 < np.max(np.abs(near @ near - near)) <= 1e-8
        v, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        paths = []
        for name, m in (("near", near), ("proj", v[:, :2] @ v[:, :2].conj().T)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(matrix_to_json(m)))
            paths.append(str(path))
        code, out = _run(
            ["jointly-measurable", "--o1", paths[0], "--o2", paths[1], "--lambda", "0.6"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["feasible"] == "yes"

    @staticmethod
    def _edge_of_window_pair(tmp_path):
        """--o1/--o2 files of P = diag(1 + 0.9e-10, 0), inside the idempotency
        check at 1e-10, and Q = H P H: top is just above 2 sqrt(2)."""
        p = np.diag([1.0 + 0.9e-10, 0.0]).astype(complex)
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        files = []
        for name, m in (("p", p), ("q", h @ p @ h)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(matrix_to_json(m)))
            files += [f"--o{len(files) // 2 + 1}", str(path)]
        return files

    def test_edge_of_window_projectors_at_lambda_opt(self, tmp_path, capsys):
        # lam * top passes 2 + CRITERION_SLACK, yet the witness is PSD to -PSD_TOL / 2.
        code, out = _run(["jointly-measurable", *self._edge_of_window_pair(tmp_path),
                          "--lambda", repr(INV_SQRT2), "--expect-feasible"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert (payload["feasible"], payload["iterations"]) == ("yes", 0)
        assert payload["min_eigenvalue"] >= -1e-9

    def test_edge_of_window_projectors_at_the_nearest_float(self, tmp_path, capsys):
        # The rounded value of 1/sqrt(2), one ulp above LAMBDA_OPT, gets the same
        # closed-form "yes"; lambda-opt reports LAMBDA_OPT, not 2 / top just below it.
        files = self._edge_of_window_pair(tmp_path)
        code, out = _run(["jointly-measurable", *files, "--lambda", "0.7071067811865476"], capsys)
        assert code == 0
        assert (json.loads(out)["feasible"], json.loads(out)["iterations"]) == ("yes", 0)
        code, out = _run(["lambda-opt", "--mode", "pair", *files], capsys)
        assert code == 0
        assert json.loads(out)["lambda_opt"] == INV_SQRT2

    def test_povm_pair_past_lambda_opt_gets_a_verdict(self, tmp_path, capsys):
        # Above 1/sqrt(2).  The first pair has top = 1.84, so the closed form
        # still says "yes" at 0.9; the shrunk z/x pair, top = 2.8 > 2 / 0.9,
        # violates CHSH at 0.9 on the maximally entangled qubit pair, so its "no"
        # comes at iteration 0, and --oracle's "no" carries a certificate.
        yes_effects = {"unsharp": np.diag([0.9, 0.2]), "tilted": np.array([[0.7, 0.2], [0.2, 0.4]]),
                       "z": np.diag([0.995, 0.005]), "x": np.array([[0.5, 0.495], [0.495, 0.5]])}
        for name, m in yes_effects.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(matrix_to_json(m)))
        r = 1.0 / math.sqrt(2.0)
        phi_plus = DensityMatrix.pure(np.array([r, 0.0, 0.0, r]))
        alice = (DichotomicObservable.from_yes_effect(yes_effects[k]) for k in ("z", "x"))
        bob = (BlochVector(np.array([s, 0.0, r])).observable() for s in (r, -r))
        bell = smeared_chsh(phi_plus, *alice, *bob, 0.9).value
        assert bell == pytest.approx(0.9 * 0.99 * 2.0 * math.sqrt(2.0), abs=1e-14)
        payloads = []
        for first, second, *oracle in (("unsharp", "tilted"), ("z", "x"), ("z", "x", "--oracle")):
            code = main(["jointly-measurable", "--o1", str(tmp_path / f"{first}.json"),
                         "--o2", str(tmp_path / f"{second}.json"), "--lambda", "0.9", *oracle])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            payloads.append(json.loads(captured.out))
        assert [(p["feasible"], p["iterations"] > 0, "certificate" in p) for p in payloads] == [
            ("yes", False, False), ("no", False, False), ("no", True, True)]
        assert (payloads[1]["marginal_residual"], payloads[1]["witness"]) == (0.0, None)
        assert payloads[1]["min_eigenvalue"] == pytest.approx((2.0 - bell) / 8.0, abs=1e-15)


def _observable_report(yes):
    """The uj/1 observable object of the sharp 2x2 observable {yes, I - yes}, all real."""
    no = [[float(i == j) - yes[i][j] for j in range(2)] for i in range(2)]
    zeros = [[0.0, 0.0], [0.0, 0.0]]
    return {"kind": "observable", "schema": "uj/1",
            "yes": {"dim": 2, "re": yes, "im": zeros}, "no": {"dim": 2, "re": no, "im": zeros}}


def _lambda_opt_report(value, pair):
    return json.dumps({"kind": "lambda-opt", "lambda_opt": value, "pair": pair, "schema": "uj/1"},
                      sort_keys=True, indent=2) + "\n"


class TestLambdaOpt:
    @pytest.mark.parametrize(
        "argv,want",
        [
            (["--m", "0,0,1", "--n", "1,0,0"],
             _lambda_opt_report(0.7071067811865475, {"m": [0.0, 0.0, 1.0], "n": [1.0, 0.0, 0.0]})),
            (["--o1", "p.json", "--o2", "q.json"],
             _lambda_opt_report(0.7071067811865475, {
                 "o1": _observable_report([[1.0, 0.0], [0.0, 0.0]]),
                 "o2": _observable_report([[0.5, 0.5], [0.5, 0.5]]),
             })),
            (["--mode", "worst-case", "--seed", "2026"],
             _lambda_opt_report(0.7071067811865475, {
                 "m": [-0.3832372087068027, 0.11624417424290795, -0.9163059171571485],
                 "n": [0.8525566929854931, 0.4261879726347185, -0.3025076812696632],
             })),
        ],
        ids=["bloch", "projector-files", "worst-case"],
    )
    def test_report_bytes_pinned(self, argv, want, fixtures, capsys):
        code, out = _run(["lambda-opt", *(fixtures.get(a, a) for a in argv)], capsys)
        assert code == 0
        assert out == want

    def test_pair_mode(self, fixtures, capsys):
        code, out = _run(
            ["lambda-opt", "--mode", "pair", "--m", "0,0,1", "--n", "1,0,0"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["lambda_opt"] - INV_SQRT2) <= 1e-3

    @pytest.mark.parametrize("second,want", [("p.json", 1.0), ("q.json", INV_SQRT2)])
    def test_projector_files_get_their_own_threshold(self, fixtures, capsys, second, want):
        # Two sharp files take the projector branch: z with itself is jointly
        # measurable at lambda = 1, as jointly-measurable confirms; z with x
        # sits at 1/sqrt(2).  The POVM cap 1/sqrt(2) was reported for both.
        files = ["--o1", fixtures["p.json"], "--o2", fixtures[second]]
        code, out = _run(["lambda-opt", "--mode", "pair", *files], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["lambda_opt"] == pytest.approx(want, abs=1e-15)
        assert payload["pair"]["o1"]["kind"] == "observable"
        lam = repr(payload["lambda_opt"])
        for oracle in ([], ["--oracle"]):  # the closed form, then the oracle as the reference
            code, out = _run(["jointly-measurable", *files, "--lambda", lam, *oracle], capsys)
            assert code == 0
            assert json.loads(out)["feasible"] == "yes"

    def test_worst_case_deterministic(self, fixtures, capsys):
        args = ["lambda-opt", "--mode", "worst-case"]
        code1, out1 = _run(args, capsys)
        code2, out2 = _run(args, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert abs(payload["lambda_opt"] - INV_SQRT2) <= 1e-3


class TestChsh:
    def test_sharp(self, fixtures, capsys):
        code, out = _run(
            ["chsh", "--state", fixtures["singlet.json"],
             "--settings", fixtures["settings.json"]],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 2.828427) <= 1e-6
        assert set(payload["terms"]) == {"t11", "t12", "t21", "t22"}

    def test_smeared(self, fixtures, capsys):
        code, out = _run(
            ["chsh", "--state", fixtures["singlet.json"],
             "--settings", fixtures["settings.json"],
             "--lambda", str(INV_SQRT2)],
            capsys,
        )
        payload = json.loads(out)
        assert abs(payload["value"] - 2.0) <= 1e-9
        assert payload["bound_lambda"] == 2.0

    def test_yes_no_entries(self, fixtures, tmp_path, capsys):
        with open(fixtures["settings.json"]) as fh:
            settings = json.load(fh)
        a1 = matrix_from_json(settings["a1"])
        settings["a1"] = {"yes": settings["a1"], "no": matrix_to_json(np.eye(2) - a1)}
        path = tmp_path / "yes-no.json"
        path.write_text(json.dumps(settings))
        code, out = _run(
            ["chsh", "--state", fixtures["singlet.json"], "--settings", str(path)], capsys
        )
        assert code == 0
        assert abs(json.loads(out)["value"] - 2.828427) <= 1e-6
        # An entry with "yes" and no "no" is refused: the format has a bare
        # operator or both effects.
        settings["b2"] = {"yes": settings["b2"]}
        path.write_text(json.dumps(settings))
        assert main(["chsh", "--state", fixtures["singlet.json"], "--settings", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: missing field 'no'\n")

    @pytest.mark.parametrize(
        "state,lam,bound,terms,value",
        [
            ("singlet.json", None, "2.8284271247461903",
             ("-0.7071067811865476",) * 2 + ("-0.7071067811865477", "0.7071067811865477"),
             "2.8284271247461907"),
            ("singlet.json", "0.7071067811865476", "2.0",
             ("-0.5", "-0.5", "-0.5000000000000001", "0.5000000000000001"), "2.0"),
            ("pure.json", None, "2.8284271247461903",
             ("0.33992832719762767", "0.2492955011818696", "0.2921284045782133", "0.8309465884515852"),
             "0.05040564450612539"),
            ("pure.json", "0.7071067811865476", "2.0",
             ("0.24036562527884203", "0.1762785394049989", "0.2065659758544619", "0.5875679674979432"),
             "0.03564217304035966"),
        ],
        ids=["singlet-sharp", "singlet-smeared", "pure-sharp", "pure-smeared"],
    )
    def test_report_bytes_pinned(self, state, lam, bound, terms, value, fixtures, tmp_path, capsys):
        rng = np.random.default_rng(7)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        (tmp_path / "pure.json").write_text(json.dumps(matrix_to_json(DensityMatrix.pure(psi).matrix)))
        argv = ["chsh", "--state", str(tmp_path / state), "--settings", fixtures["settings.json"]]
        code, out = _run(argv + ([] if lam is None else ["--lambda", lam]), capsys)
        assert code == 0
        assert out == _chsh_bytes(bound, terms, value, "true")

    @pytest.mark.parametrize("lam", [None, "0.5"], ids=["sharp", "smeared"])
    @pytest.mark.parametrize("key,dims", [("a2", (4, 3, 2)), ("b2", (4, 2, 3))])
    def test_mixed_dimension_settings_exit_one(self, key, dims, lam, fixtures, tmp_path, capsys):
        settings = json.loads(Path(fixtures["settings.json"]).read_text())
        settings[key] = matrix_to_json(np.diag([1.0, 0.0, 0.0]))
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(settings))
        argv = ["chsh", "--state", fixtures["singlet.json"], "--settings", str(path)]
        assert main(argv + ([] if lam is None else ["--lambda", lam])) == 1
        assert capsys.readouterr() == ("", f"error: same-dimension: incompatible dimensions {dims}\n")


def _chsh_bytes(bound, terms, value, within):
    """The uj/1 text of a CHSH report, from the printed fields."""
    t11, t12, t21, t22 = terms
    return (
        f'{{\n  "bound_lambda": {bound},\n  "kind": "chsh",\n  "schema": "uj/1",\n'
        f'  "terms": {{\n    "t11": {t11},\n    "t12": {t12},\n    "t21": {t21},\n    "t22": {t22}\n  }},\n'
        f'  "value": {value},\n  "within_bound": {within}\n}}\n'
    )


# JSON numbers for box cells: ints of up to 401 digits, floats of any size,
# negatives, and the probabilities of valid boxes.
BOX_NUMBER = st.one_of(
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 1, 0.0, 0.5, 0.25, 1.0]),
)


_PR = {k: [[0.5, 0.0], [0.0, 0.5]] for k in SETTINGS} | {"22": [[0.0, 0.5], [0.5, 0.0]]}
_DETERMINISTIC = {"11": [[0, 1], [0, 0]], "12": [[1, 0], [0, 0]], "21": [[0, 0], [0, 1]], "22": [[0, 0], [1, 0]]}
_HI, _LO = 0.32499999999999996, 0.175  # w/2 + (1-w)/4 and (1-w)/4 at w = 0.3
_NOISY_PR = {k: [[_HI, _LO], [_LO, _HI]] for k in SETTINGS} | {"22": [[_LO, _HI], [_HI, _LO]]}


def _as_ints(table):
    return {k: [[int(v) if v in (0, 1) else v for v in row] for row in cell] for k, cell in table.items()}


def _as_floats(table):
    return {k: [[float(v) for v in row] for row in cell] for k, cell in table.items()}


class TestBoxChsh:
    def test_pr_exact(self, fixtures, capsys):
        code, out = _run(["box-chsh", "--box", fixtures["pr.json"]], capsys)
        assert code == 0
        assert json.loads(out)["value"] == 4.0

    @pytest.mark.parametrize(
        "table,terms,value,within",
        [
            (_PR, ("1.0", "1.0", "1.0", "-1.0"), "4.0", "false"),
            (_as_ints(_PR), ("1.0", "1.0", "1.0", "-1.0"), "4.0", "false"),
            (_DETERMINISTIC, ("-1.0", "1.0", "1.0", "-1.0"), "2.0", "true"),
            (_as_floats(_DETERMINISTIC), ("-1.0", "1.0", "1.0", "-1.0"), "2.0", "true"),
            (_NOISY_PR, ("0.29999999999999993",) * 3 + ("-0.29999999999999993",), "1.1999999999999997",
             "true"),
        ],
        ids=["pr-floats", "pr-int-zeros", "deterministic-ints", "deterministic-floats", "noisy-pr-floats"],
    )
    def test_report_bytes_pinned(self, table, terms, value, within, tmp_path, capsys):
        path = tmp_path / "box.json"
        path.write_text(json.dumps({"p": table}))
        code, out = _run(["box-chsh", "--box", str(path)], capsys)
        assert code == 0
        assert out == _chsh_bytes("2.8284271247461903", terms, value, within)

    @settings(max_examples=60)
    @given(cells=st.lists(st.lists(st.lists(BOX_NUMBER, min_size=2, max_size=2), min_size=2, max_size=2),
                          min_size=4, max_size=4))
    def test_any_table_of_numbers_exits_zero_or_one(self, cells, tmp_path_factory):
        path = tmp_path_factory.mktemp("box") / "box.json"
        path.write_text(json.dumps({"p": dict(zip(SETTINGS, cells))}))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["box-chsh", "--box", str(path)]) in (0, 1)


# Any JSON value: edge values (NaN and the infinities as json.dumps writes them,
# 401-digit integers, numeric strings), floats and integers, nested in lists and
# in objects keyed by the field names of the file formats; and operator-,
# observable- and settings-shaped objects of such values and of diagonal
# matrices, so that random entries reach past the first field check of every
# format and some files are valid.
JSON_LEAF = st.one_of(
    st.sampled_from([None, True, False, "", "x", "1", 0, 1, -1, 2, 0.5, 10**400, -(10**400),
                     float("nan"), float("inf"), 1e308, [], {}]),
    st.floats(), st.integers(),
)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["dim", "re", "im", "yes", "no", "p", "a1", "11", "x"]), inner, max_size=3),
    max_leaves=6,
)
ROWS = st.lists(st.lists(st.floats(0, 1) | JSON_LEAF, max_size=3), max_size=3)
DIAGONAL = st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0, 1), min_size=1, max_size=4).map(
    lambda v: matrix_to_json(np.diag(v)))
OPERATOR = DIAGONAL | st.fixed_dictionaries({"dim": st.integers(0, 3) | JSON_LEAF, "re": ROWS, "im": ROWS})
OBSERVABLE = OPERATOR | st.fixed_dictionaries({"yes": OPERATOR}, optional={"no": OPERATOR | JSON_VALUE})
FILE_JSON = st.one_of(
    JSON_VALUE, OBSERVABLE,
    st.dictionaries(st.sampled_from(["a1", "a2", "b1", "b2", "p"]), OBSERVABLE | JSON_VALUE, max_size=4),
)

# Every file argument of every subcommand, the other files valid; "BAD" is the random one.
FILE_ARGVS = [
    ["smear", "--obs", "BAD", "--lambda", "0.5"],
    ["dilate", "--obs", "BAD"],
    ["blocks", "--p", "BAD", "--q", "q.json"],
    ["blocks", "--p", "p.json", "--q", "BAD"],
    ["jointly-measurable", "--o1", "BAD", "--o2", "p.json", "--lambda", "0.7"],
    ["jointly-measurable", "--o1", "p.json", "--o2", "BAD", "--lambda", "0.7"],
    ["lambda-opt", "--o1", "BAD", "--o2", "p.json"],
    ["lambda-opt", "--o1", "p.json", "--o2", "BAD"],
    ["chsh", "--state", "BAD", "--settings", "settings.json"],
    ["chsh", "--state", "singlet.json", "--settings", "BAD"],
    ["box-chsh", "--box", "BAD"],
]


@pytest.fixture(scope="module")
def shared_fixtures(tmp_path_factory):
    """The files of `fixtures`, once per module (hypothesis runs many examples
    in one test call), and the path "BAD"."""
    paths = _write_fixtures(tmp_path_factory.mktemp("fixtures"))
    return paths | {"BAD": str(Path(paths["dir"]) / "bad.json")}


@settings(max_examples=80)
@given(argv=st.sampled_from(FILE_ARGVS), content=FILE_JSON)
def test_any_json_in_any_file_argument_exits_zero_or_one(argv, content, shared_fixtures):
    Path(shared_fixtures["BAD"]).write_text(json.dumps(content))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([shared_fixtures.get(a, a) for a in argv])
    assert code in (0, 1)
    assert (err.getvalue() == "") if code == 0 else err.getvalue().startswith("error: ")


# Two files the property above never writes: its JSON stays 6 leaves small, its
# matrices 3x3.  Nesting past the recursion limit, and a hermitian 4x4 with
# entries near 1e308, whose hermitian part (m + m^H) / 2 overflowed to inf.
HUGE = np.diag([0.5, 0.0, 0.0, 0.5])
HUGE[0, 3] = HUGE[3, 0] = 1e308
HOSTILE = {"nested": "[" * 100_000 + "]" * 100_000, "huge": json.dumps(matrix_to_json(HUGE))}


@pytest.mark.parametrize("argv", FILE_ARGVS, ids=" ".join)
@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_file_in_any_file_argument_is_one_error_line(name, argv, shared_fixtures):
    content = HOSTILE[name]
    if name == "huge" and argv[-2:] == ["--settings", "BAD"]:
        settings = json.loads(Path(shared_fixtures["settings.json"]).read_text())
        content = json.dumps(settings | {"a1": matrix_to_json(HUGE)})
    Path(shared_fixtures["BAD"]).write_text(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([shared_fixtures.get(a, a) for a in argv])
    assert code == 1
    assert len(err.getvalue().splitlines()) == 1
    assert err.getvalue().startswith("error: ")


class TestSweep:
    def test_verdict_flip_and_columns(self, fixtures, capsys):
        code, out = _run(
            ["sweep", "--start", "0.5", "--stop", "1.0", "--step", "0.05"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "lambda,feasible,smeared_chsh,bound"
        rows = [line.split(",") for line in lines[1:]]
        verdicts = {float(r[0]): r[1] for r in rows}
        assert verdicts[0.7] == "yes"
        assert verdicts[0.75] == "no"
        for r in rows:
            lam, value, bound = float(r[0]), float(r[2]), float(r[3])
            assert bound == pytest.approx(2.0 / lam, rel=1e-12)
            # Smeared value is lam times 2*sqrt(2) for the default z/x
            # pair with matched Bob settings.
            assert value == pytest.approx(lam * 2 * math.sqrt(2), abs=1e-9)
        last = rows[-1]
        assert float(last[0]) == 1.0
        assert float(last[2]) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_rows_across_lambda_opt_pinned(self, capsys):
        argv = ["sweep", "--m", "0,0,1", "--n", "1,0,0", "--start", "0.70", "--stop", "0.72",
                "--step", "0.005"]
        assert _run(argv, capsys) == (0, (
            "lambda,feasible,smeared_chsh,bound\n"
            "0.7,yes,1.97989898732233,2.85714285714286\n"
            "0.705,yes,1.99404112294606,2.83687943262411\n"
            "0.71,no,2.0081832585698,2.8169014084507\n"
            "0.715,no,2.02232539419353,2.7972027972028\n"
            "0.72,no,2.03646752981726,2.77777777777778\n"
        ))

    def test_the_lambda_one_row_is_printed_once(self, capsys):
        # Each lam in (1, 1 + SWEEP_END_SLACK] is clamped to 1.0; the grid
        # used to print that row three times.
        argv = ["sweep", "--start", "0.999999999999", "--stop", "1", "--step", "3e-13"]
        code, out = _run(argv, capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows[-1] == "1,no,2.82842712474619,2"
        assert [r.split(",")[0] for r in rows].count("1") == 1

    @pytest.mark.parametrize(
        "start,stop,step",
        [
            ("nan", "1.0", "0.1"),
            ("0.5", "nan", "0.1"),
            ("0.5", "1.0", "nan"),
            ("0.5", "inf", "0.1"),
            ("0.5", "1.0", "inf"),
            # Steps that `lam += step` stops moving before the grid's end.
            ("0.5", "1.0", "1e-300"),
            ("0.9999999999999", "0.9999999999999", "1e-16"),
            # A grid above 1 would be clipped to no rows at all.
            ("1.5", "2", "0.1"),
        ],
    )
    def test_bad_grid_rejected(self, start, stop, step, capsys):
        code = main(["sweep", "--start", start, "--stop", stop, "--step", step])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "sweep-grid" in captured.err

    def test_a_grid_past_the_row_cap_is_refused_unbuilt(self, capsys, monkeypatch):
        # floor((1 - 0.5) / step) + 1 = SWEEP_MAX_ROWS + 1 rows.  Nothing may
        # compute a row, and the peak allocation stays far below the 3.2 MB
        # that the list of SWEEP_MAX_ROWS + 1 grid floats alone would take.
        from unsharpjoint import cli

        def no_rows(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, "qubit_verdicts", no_rows)
        monkeypatch.setattr(cli, "smeared_chsh_values", no_rows)
        step = repr(0.5 / SWEEP_MAX_ROWS)
        tracemalloc.start()
        try:
            code = main(["sweep", "--start", "0.5", "--stop", "1", "--step", step])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        rows = SWEEP_MAX_ROWS + 1
        assert captured.err == f"error: sweep-grid: about {rows} rows, past {SWEEP_MAX_ROWS}\n"
        assert peak < 100_000

    def test_one_eigensolve_per_sweep(self, eigensolves, capsys):
        code, out = _run(["sweep", "--start", "0.005", "--stop", "0.6", "--step", "0.005"], capsys)
        assert code == 0
        assert out.count(",yes,") == 120
        assert len(eigensolves) <= 1

    @pytest.mark.parametrize("n_text,chsh", [("1e-13,0,1", ["1.80000000000009", "2.0000000000001"]),
                                             ("0,0,1", ["1.8", "2"])], ids=["m-n-of-1e-13", "m-equals-n"])
    def test_bob_measures_along_every_nonzero_m_minus_n(self, n_text, chsh, monkeypatch, capsys):
        # m - n of length 1e-13 was read as zero and Bob measured along y, so the
        # sweep printed 1.8 and 2; along m - n it prints lam * criterion_value.
        # Only an exact zero, m = n, puts y in its place.
        m, n = _bloch("0,0,1"), _bloch(n_text)
        assert [f"{criterion_value(m, n, lam):.15g}" for lam in (0.9, 1.0)] == chsh
        directions, normalized = [], BlochVector.normalized
        monkeypatch.setattr(BlochVector, "normalized",
                            classmethod(lambda cls, v: directions.append(np.array(v)) or normalized(v)))
        code, out = _run(["sweep", "--m", "0,0,1", "--n", n_text, "--start", "0.9", "--stop", "1",
                          "--step", "0.1"], capsys)
        assert code == 0
        assert [row.split(",")[2] for row in out.splitlines()[1:]] == chsh
        assert directions[-1].tolist() == ([0.0, 1.0, 0.0] if n_text == "0,0,1" else (m.v - n.v).tolist())

    @settings(max_examples=40)
    @given(st.data())
    def test_matches_the_row_by_row_reference(self, data):
        m = data.draw(BLOCH_TEXT)
        kind = data.draw(st.sampled_from(["random", "same", "opposite", "orthogonal"]))
        if kind == "random":
            n = data.draw(BLOCH_TEXT)
        elif kind == "same":
            n = m
        elif kind == "opposite":
            n = ",".join(repr(-float(x)) for x in m.split(","))
        else:
            v = np.cross(_bloch(m).v, _bloch(data.draw(BLOCH_TEXT)).v)
            assume(np.linalg.norm(v) > 1e-3)
            n = ",".join(map(repr, v.tolist()))
        start, stop, step = data.draw(GRIDS)
        argv = ["sweep", f"--m={m}", f"--n={n}", "--start", repr(start), "--stop", repr(stop),
                "--step", repr(step)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue() == _reference_sweep(_bloch(m), _bloch(n), start, stop, step)


class TestBlochScale:
    # |m|^2 overflows for the first and underflows to 0 for the second; the
    # direction is that of the unit vector beside it, to the bit.
    @pytest.mark.parametrize("m,unit", [("1e300,1e300,0", "1,1,0"), ("1e-320,0,0", "1,0,0")])
    @pytest.mark.parametrize(
        "command", [["lambda-opt"], ["sweep", "--start", "0.7", "--stop", "0.72", "--step", "0.01"]],
        ids=["lambda-opt", "sweep"],
    )
    def test_same_report_as_the_unit_direction(self, m, unit, command, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, f"--m={m}", "--n=0,0,1"]) == 0
        scaled = capsys.readouterr()
        assert main([*command, f"--m={unit}", "--n=0,0,1"]) == 0
        assert capsys.readouterr() == scaled


def _bloch(text):
    return BlochVector.normalized(np.array([float(x) for x in text.split(",")]))


BLOCH_TEXT = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
    lambda v: np.linalg.norm(v) > 1e-3
).map(lambda v: ",".join(map(repr, v)))

GRIDS = st.one_of(
    st.sampled_from([(0.5, 1.0, 0.05), (0.7, 0.72, 0.001), (1.0, 1.0, 0.1), (0.95, 3.0, 0.02)]),
    st.tuples(st.floats(1e-6, 1.0), st.floats(0.0, 1.5), st.floats(0.02, 0.5)).map(
        lambda t: (t[0], t[0] + t[1], t[2])
    ),
)


def _reference_sweep(m, n, start, stop, step):
    """The sweep CSV built row by row from the public per-lambda calls."""
    state = singlet()

    def or_fallback(v):
        return v if np.any(v) else np.array([0.0, 1.0, 0.0])

    b1 = BlochVector.normalized(or_fallback(m.v + n.v))
    b2 = BlochVector.normalized(or_fallback(m.v - n.v))
    lines = ["lambda,feasible,smeared_chsh,bound"]
    lam = start
    while lam <= min(stop, 1.0) + 1e-12:
        row = min(lam, 1.0)
        verdict = qubit_joint_observable(m, n, row).feasible
        value = smeared_chsh(
            state, m.observable(), n.observable(), b1.observable(), b2.observable(), row
        ).value
        lines.append(f"{row:.15g},{verdict},{value:.15g},{2.0 / row:.15g}")
        if lam >= 1.0:
            break
        lam += step
    return "\n".join(lines) + "\n"


class TestErrors:
    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["smear", "--obs", str(bad), "--lambda", "0.5"])
        err = capsys.readouterr().err
        assert code == 1
        assert "line" in err

    @pytest.mark.parametrize("m", ["0,0,0", "nan,0,1"])
    def test_degenerate_bloch_vector_exits_one(self, m, capsys):
        code = main(["lambda-opt", "--m", m, "--n", "1,0,0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "bloch-nonzero-finite-norm" in err

    @pytest.mark.parametrize(
        "argv,content",
        [
            (["smear", "--obs", "BAD", "--lambda", "0.5"], 3),
            (["smear", "--obs", "BAD", "--lambda", "0.5"], {"dim": "abc", "re": [[1]], "im": [[0]]}),
            (["smear", "--obs", "BAD", "--lambda", "0.5"], {"dim": 1, "re": [["x"]], "im": [[0]]}),
            (["smear", "--obs", "BAD", "--lambda", "0.5"], {"yes": 3}),
            (["box-chsh", "--box", "BAD"], {"p": {k: 5 for k in ("11", "12", "21", "22")}}),
            (["box-chsh", "--box", "BAD"], 3),
            # A cell of 401 digits, or four that sum past the float range, used
            # to end in a bare OverflowError from float().
            (["box-chsh", "--box", "BAD"], {"p": {k: [[-(10**400), 0], [0, 1]] for k in SETTINGS}}),
            (["box-chsh", "--box", "BAD"], {"p": {k: [[10**400, 0], [0, 0]] for k in SETTINGS}}),
            (["box-chsh", "--box", "BAD"],
             {"p": {k: [[int(sys.float_info.max)] * 2] * 2 for k in SETTINGS}}),
            (["blocks", "--p", "BAD", "--q", "q.json"], 3),
            (["chsh", "--state", "BAD", "--settings", "settings.json"], 3),
            (["chsh", "--state", "singlet.json", "--settings", "BAD"], {"a1": 3}),
            (["chsh", "--state", "BAD", "--settings", "settings.json"],
             matrix_to_json(np.diag([2.0, -1.0, 0.0, 0.0]))),
            (["blocks", "--p", "BAD", "--q", "q.json"], matrix_to_json(np.diag([2.0, -1.0]))),
            # An entry of 401 digits used to end in a bare OverflowError, and
            # numpy read the strings "1" and " 1 " as numbers.
            (["blocks", "--p", "BAD", "--q", "q.json"], {"dim": 1, "re": [[10**400]], "im": [[0]]}),
            # Finite entries whose trace is past the float range used to end in
            # a bare OverflowError from round().
            (["blocks", "--p", "BAD", "--q", "q.json"], matrix_to_json(np.diag([1e308, 1e308]))),
            (["smear", "--obs", "BAD", "--lambda", "0.5"], {"dim": 1, "re": [["1"]], "im": [[0]]}),
            (["chsh", "--state", "BAD", "--settings", "settings.json"],
             {"dim": 4, "re": [[" 1 ", 0, 0, 0]] + [[0] * 4] * 3, "im": [[0] * 4] * 4}),
            # Bytes, not JSON values: an integer past int()'s 4,300-digit limit
            # and a file that is not UTF-8 used to end in a bare ValueError.
            (["box-chsh", "--box", "BAD"], b'{"p": ' + b"9" * 5000 + b"}"),
            (["box-chsh", "--box", "BAD"], b'{"p": "\xff"}'),
            # An infinite imaginary part printed numpy's "invalid value" warning first.
            (["smear", "--obs", "BAD", "--lambda", "0.5"], {"dim": 1, "re": [[0.0]], "im": [[math.inf]]}),
        ],
        ids=[
            "top-level-number", "dim-string", "entry-string", "yes-number",
            "box-cell-number", "box-number", "box-huge-negative", "box-huge-positive",
            "box-sum-past-float-range", "blocks-number", "state-number",
            "settings-entry-number", "state-not-psd", "projector-not-idempotent",
            "blocks-huge-entry", "blocks-trace-past-float-range", "smear-numeric-string",
            "state-padded-numeric-string", "5000-digit-integer", "not-utf-8", "infinite-imaginary",
        ],
    )
    def test_malformed_file_exits_one(self, argv, content, fixtures, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(json.dumps(content))
        argv = [str(bad) if a == "BAD" else fixtures.get(a, a) for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ")

    @pytest.mark.parametrize(
        "argv,content,message",
        [
            (["smear", "--obs", "BAD", "--lambda", "0.5"], {"dim": 1, "re": [["x"]], "im": [[0]]},
             "operator-json: re/im entries must be numbers"),
            (["smear", "--obs", "BAD", "--lambda", "0.5"],
             {"dim": 2, "re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]},
             "operator-json: re/im entries must be numbers"),
            (["box-chsh", "--box", "BAD"],
             {"p": {k: [[0.25, 0.25]] * 2 for k in SETTINGS} | {"11": [[0.25, "x"], [0.25, 0.25]]}},
             "box-cell: setting '11' is not a 2x2 table of numbers"),
            (["smear", "--obs", "BAD", "--lambda", "0.5"],
             matrix_to_json(np.array([[0.5, 0.2], [0.0, 0.5]])), "hermiticity (residual 2.000e-01)"),
            (["smear", "--obs", "BAD", "--lambda", "0.5"], matrix_to_json(np.diag([1.2, 0.5])),
             "spectrum-in-[0,1]: eigenvalue 1.2 outside [-1e-09, 1.000000001]"),
            (["blocks", "--p", "p.json", "--q", "BAD"], matrix_to_json(0.5 * np.eye(2)),
             "idempotency (residual 2.500e-01)"),
            # JSON true and false were read as 1.0 and 0.0, also among floats.
            (["smear", "--obs", "BAD", "--lambda", "0.5"],
             {"dim": 2, "re": [[True, False], [False, False]], "im": [[0, 0], [0, 0]]},
             "operator-json: re/im entries must be numbers"),
            (["smear", "--obs", "BAD", "--lambda", "0.5"],
             {"dim": 2, "re": [[1.0, 0.0], [0.0, 0.0]], "im": [[0.0, 0.0], [False, 0.0]]},
             "operator-json: re/im entries must be numbers"),
            (["box-chsh", "--box", "BAD"],
             {"p": {k: [[0.25, 0.25]] * 2 for k in SETTINGS} | {"12": [[True, 0.0], [0.0, 0.0]]}},
             "box-cell: setting '12' is not a 2x2 table of numbers"),
            # The trace's reduction adds inf and -inf: numpy's "invalid value"
            # warning was printed first (under -W error, raised instead).
            (["blocks", "--p", "BAD", "--q", "q.json"],
             matrix_to_json(np.diag([1.7e308, 1.7e308, -1.7e308, -1.7e308])), "rank-equals-trace: trace nan"),
        ],
        ids=["entry-string", "ragged-re", "box-cell-string", "not-hermitian", "above-one",
             "not-idempotent", "re-booleans", "im-boolean-among-floats", "box-cell-boolean",
             "trace-inf-minus-inf"],
    )
    def test_malformed_file_message_is_pinned(self, argv, content, message, fixtures, tmp_path,
                                              capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        argv = [str(bad) if a == "BAD" else fixtures.get(a, a) for a in argv]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["smear", "--obs", "BAD", "--lambda", "0.5"],
            ["dilate", "--obs", "BAD"],
            ["jointly-measurable", "--o1", "BAD", "--o2", "p.json", "--lambda", "0.5"],
            ["jointly-measurable", "--o1", "p.json", "--o2", "BAD", "--lambda", "0.5", "--oracle"],
            ["lambda-opt", "--o1", "BAD", "--o2", "p.json"],
            ["lambda-opt", "--o1", "p.json", "--o2", "BAD"],
        ],
        ids=["smear", "dilate", "jointly-measurable-o1", "jointly-measurable-o2-oracle",
             "lambda-opt-o1", "lambda-opt-o2"],
    )
    def test_an_observable_of_mixed_dimension_names_its_file(self, argv, fixtures, tmp_path, capsys):
        # A qubit yes-effect with a qutrit no-effect used to escape _load as an
        # untyped "error: incompatible dimensions (2, 3)" naming no file.
        bad = tmp_path / "mixed.json"
        bad.write_text(json.dumps({"yes": matrix_to_json(np.eye(2)), "no": matrix_to_json(np.zeros((3, 3)))}))
        argv = [str(bad) if a == "BAD" else fixtures.get(a, a) for a in argv]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {bad}: same-dimension: incompatible dimensions (2, 3)\n")

    def test_lambda_opt_has_no_tol_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["lambda-opt", "--m", "0,0,1", "--n", "1,0,0", "--tol", "1e-4"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["jointly-measurable", "--o1", "a.json", "--o2", "b.json", "--lambda", "0.7",
             "--tol", "1e-9"],
            ["lambda-opt", "--mode", "worst-case", "--mesh", "1000"],
            ["jointly-measurable", "--o1", "a.json", "--o2", "b.json", "--lambda", "0.7",
             "--max-iter", "50"],
            ["jointly-measurable", "--o1", "a.json", "--o2", "b.json", "--lambda", "0.7",
             "--oracle", "--max-iter", "50"],
        ],
        ids=["jointly-measurable-tol", "worst-case-mesh", "closed-form-max-iter", "oracle-max-iter"],
    )
    def test_removed_flags_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        code = main(["smear", "--obs", "/nonexistent.json", "--lambda", "0.5"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv,err",
        [
            (["--m", "a,b,c", "--start", "0.5", "--stop", "0.6", "--step", "0.1"],
             "error: bloch-3-vector: expected 'x,y,z', got 'a,b,c'\n"),
            (["--start", "0.6", "--stop", "0.5", "--step", "0.1"],
             "error: sweep-grid: need step > 0 and stop >= start\n"),
        ],
        ids=["bloch-not-numbers", "stop-before-start"],
    )
    def test_sweep_message_is_pinned(self, argv, err, capsys):
        assert main(["sweep", *argv]) == 1
        assert capsys.readouterr() == ("", err)


_WORST_CASE_TAKES_NO_PAIR = "--mode worst-case takes no --m/--n/--o1/--o2"
_NEED_ONE_PAIR = "need --m/--n or --o1/--o2"


_LAMBDA_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["smear", "--obs", "/nonexistent.json"],
        ["jointly-measurable", "--o1", "/nonexistent.json", "--o2", "/nonexistent.json"],
        ["chsh", "--state", "/nonexistent.json", "--settings", "/nonexistent.json"],
    ],
    ids=["smear", "jointly-measurable", "chsh"],
)
_MISSING_FILE = "error: /nonexistent.json: [Errno 2] No such file or directory: '/nonexistent.json'\n"


class TestFlagWindows:
    # The files do not exist: each window is checked before any file read.
    @_LAMBDA_COMMANDS
    @pytest.mark.parametrize("lam,got", [("2", "2.0"), ("0", "0.0"), ("-0.5", "-0.5"), ("nan", "nan"),
                                         ("inf", "inf")])
    def test_lambda_window(self, argv, lam, got, capsys):
        assert main([*argv, f"--lambda={lam}"]) == 1
        assert capsys.readouterr().err == f"error: lambda-in-(0,1]: got {got}\n"

    @_LAMBDA_COMMANDS
    def test_lambda_of_one_reaches_the_files(self, argv, capsys):
        # 1 closes the window, so the first error is the missing file's.
        assert main([*argv, "--lambda", "1"]) == 1
        assert capsys.readouterr().err == _MISSING_FILE

    def test_chsh_without_lambda_checks_no_window(self, capsys):
        assert main(["chsh", "--state", "/nonexistent.json", "--settings", "/nonexistent.json"]) == 1
        assert capsys.readouterr().err == _MISSING_FILE

    @pytest.mark.parametrize("mode", ["pair", "worst-case"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_window(self, seed, mode, capsys):
        code = main(
            ["lambda-opt", "--mode", mode, "--seed", seed, "--o1", "/nonexistent.json",
             "--o2", "/nonexistent.json"]
        )
        assert code == 1
        assert "seed-uint64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,detail",
        [
            (["--mode", "worst-case", "--m", "0,0,1", "--n", "1,0,0"], _WORST_CASE_TAKES_NO_PAIR),
            (["--mode", "worst-case", "--o1", "p.json", "--o2", "q.json"], _WORST_CASE_TAKES_NO_PAIR),
            (["--m", "0,0,1", "--n", "1,0,0", "--o1", "p.json", "--o2", "q.json"], _NEED_ONE_PAIR),
            (["--m", "0,0,1", "--o1", "p.json", "--o2", "q.json"], _NEED_ONE_PAIR),
            (["--m", "0,0,1"], _NEED_ONE_PAIR),
        ],
        ids=["worst-case-with-bloch", "worst-case-with-files", "bloch-and-files", "half-bloch-and-files",
             "half-bloch"],
    )
    def test_conflicting_pair_inputs_are_refused(self, argv, detail, fixtures, capsys):
        # All but the last used to exit 0, deciding one input and ignoring the rest.
        code = main(["lambda-opt", *(fixtures.get(a, a) for a in argv)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: lambda-opt-pair-inputs: {detail}\n"

    def test_seed_message_is_the_library_message(self, capsys):
        # The flag and worst_case_pair share one seed check.
        assert main(["lambda-opt", "--mode", "worst-case", "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: seed-uint64: got -1\n"
        with pytest.raises(ValidationError) as exc:
            worst_case_pair(-1)
        assert str(exc.value) == "seed-uint64: got -1"


# Stand-ins for the acceptance criteria, which take seconds: number, name,
# check and time bound, as in acceptance.CRITERIA.
_HOLDS = (1, "holds", lambda: (True, "fine"), math.inf)
_BREAKS = (2, "breaks", lambda: (False, "off by one"), math.inf)
_TIMED_LINE = re.compile(r"(.*) \[\d+\.\ds\]")

# One valid argv of every subcommand, files named as in _write_fixtures.
_EVERY_COMMAND = {
    "smear": ["--obs", "p.json", "--lambda", "0.5"],
    "blocks": ["--p", "p.json", "--q", "q.json"],
    "dilate": ["--obs", "p.json"],
    "jointly-measurable": ["--o1", "p.json", "--o2", "q.json", "--lambda", "0.5"],
    "lambda-opt": ["--m", "0,0,1", "--n", "1,0,0"],
    "chsh": ["--state", "singlet.json", "--settings", "settings.json"],
    "box-chsh": ["--box", "pr.json"],
    "sweep": ["--start", "0.5", "--stop", "0.6", "--step", "0.1"],
    "acceptance": [],
}


def _untimed_lines(out: str) -> list[str]:
    return [_TIMED_LINE.fullmatch(line).group(1) for line in out.splitlines()]


class TestOutputFile:
    def test_report_written(self, fixtures, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, _ = _run(
            ["box-chsh", "--box", fixtures["pr.json"], "--out", str(out_path)], capsys
        )
        assert code == 0
        assert json.loads(out_path.read_text())["value"] == 4.0

    @pytest.mark.parametrize("target,code", [("missing/r.json", errno.ENOENT), (".", errno.EISDIR)],
                             ids=["missing-directory", "a-directory"])
    @pytest.mark.parametrize("command", list(_EVERY_COMMAND))
    def test_unwritable_out_is_one_error_line(self, command, target, code, fixtures, tmp_path, capsys,
                                              monkeypatch):
        # Each used to end in a FileNotFoundError or IsADirectoryError traceback.
        monkeypatch.setattr(acceptance, "CRITERIA", (_HOLDS,))
        out = tmp_path / target
        argv = [command, *(fixtures.get(a, a) for a in _EVERY_COMMAND[command]), "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: {os.strerror(code)}\n"
        # Nothing reaches stdout: acceptance opens --out before any criterion runs.
        assert captured.out == ""

    @pytest.mark.parametrize("planted", ["longer", "shorter", "empty"])
    @pytest.mark.parametrize("command", list(_EVERY_COMMAND))
    def test_a_planted_out_is_rewritten_to_the_fresh_bytes(self, command, planted, fixtures, tmp_path,
                                                           capsys, monkeypatch):
        # --out is written in place: a longer file must lose its tail, which
        # a report written without the trim would leave behind.
        monkeypatch.setattr(acceptance, "CRITERIA", (_HOLDS,))
        monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=lambda: 0.0))  # runtime 0.0
        argv = [command, *(fixtures.get(a, a) for a in _EVERY_COMMAND[command]), "--out"]
        fresh, out = tmp_path / "fresh.out", tmp_path / "planted.out"
        assert main(argv + [str(fresh)]) == 0
        report = fresh.read_bytes()
        out.write_bytes(b"#" * {"longer": len(report) + 4096, "shorter": len(report) // 2, "empty": 0}[planted])
        assert main(argv + [str(out)]) == 0
        assert out.read_bytes() == report
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", list(_EVERY_COMMAND))
    def test_a_device_out_is_written_and_not_trimmed(self, command, fixtures, capsys, monkeypatch):
        # os.devnull is no regular file: fstat reads its size as 0, so nothing is trimmed.
        monkeypatch.setattr(acceptance, "CRITERIA", (_HOLDS,))
        argv = [command, *(fixtures.get(a, a) for a in _EVERY_COMMAND[command]), "--out", os.devnull]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""


class TestAcceptance:
    @pytest.mark.parametrize("criteria,code", [((_HOLDS,), 0), ((_HOLDS, _BREAKS), 1)],
                             ids=["all-pass", "one-fails"])
    def test_one_line_per_criterion_and_no_report_on_stdout(self, criteria, code, capsys,
                                                            monkeypatch):
        monkeypatch.setattr(acceptance, "CRITERIA", criteria)
        assert main(["acceptance"]) == code
        lines = ["PASS criterion 1 (holds): fine", "FAIL criterion 2 (breaks): off by one"]
        assert _untimed_lines(capsys.readouterr().out) == lines[:len(criteria)]

    def test_out_is_opened_first_and_kept_until_the_report(self, tmp_path, capsys, monkeypatch):
        # The early open appends, so a file already at --out keeps its bytes
        # while the criteria run; the report then replaces them.
        out = tmp_path / "acceptance.json"
        out.write_text("kept\n")
        seen = []

        def reads_out():
            seen.append(out.read_text())
            return True, "fine"

        monkeypatch.setattr(acceptance, "CRITERIA", ((1, "reads out", reads_out, math.inf),))
        assert main(["acceptance", "--out", str(out)]) == 0
        assert seen == ["kept\n"]
        assert json.loads(out.read_text())["all_passed"] is True

    def test_report_written_to_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(acceptance, "CRITERIA", (_HOLDS, _BREAKS))
        out = tmp_path / "acceptance.json"
        assert main(["acceptance", "--out", str(out)]) == 1
        assert len(_untimed_lines(capsys.readouterr().out)) == 2
        report = json.loads(out.read_text())
        assert sorted(report) == ["all_passed", "criteria", "kind", "schema"]
        assert (report["schema"], report["kind"], report["all_passed"]) == ("uj/1", "acceptance", False)
        assert [(c["number"], c["passed"]) for c in report["criteria"]] == [(1, True), (2, False)]


# Any value json.dumps writes with str keys: every kind of float (NaN, the
# infinities, -0.0, subnormals, 1e308, np.float64), integers past 2**64,
# bools, None, non-ASCII, control-character and surrogate strings, and lists,
# tuples and objects of them, empty ones and lists of floats alone included.
WRITER_FLOAT = st.one_of(
    st.floats(), st.floats().map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                     np.float64(math.nan), np.float64(-0.0)]),
)
WRITER_STR = st.text(st.characters(exclude_categories=()), max_size=4) | st.sampled_from(
    ["", "\x00", "\x1f\x7f", "\ud800", '"\\/', "\u2603\U0001f600"])
WRITER_LEAF = st.one_of(
    st.none(), st.booleans(), WRITER_FLOAT, WRITER_STR,
    st.integers() | st.sampled_from([2**64, -(2**64) - 1, 10**300]),
)
WRITER_VALUE = st.recursive(
    WRITER_LEAF | st.lists(WRITER_FLOAT, max_size=5),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(WRITER_STR, inner, max_size=4)),
    max_leaves=12,
)


class TestJsonWriter:
    @settings(max_examples=150)
    @given(WRITER_VALUE)
    def test_bytes_of_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [np.int64(0), np.int64(3), {1.0}, [np.int64(0)],
                                       {"a": np.float32(0.5)}, np.zeros(2)],
                             ids=["int64-zero", "int64", "set", "int64-item", "float32-value", "array"])
    def test_what_json_cannot_write_raises_type_error(self, value):
        # np.int64(0) is falsy, yet is no empty list: it is refused as json refuses it.
        with pytest.raises(TypeError) as exc:
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError, match=re.escape(str(exc.value))):
            cli._json(value)


def test_one_report_path():
    # main alone writes a report, through _emit and its _json alone, and _report
    # alone tags one with the schema; a handler that wrote its own report or
    # built its own envelope would read these somewhere else.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert {name: sorted(set(_readers(tree, name))) for name in ("_emit", "_json", "dumps", "SCHEMA")} == {
        "_emit": ["main"],
        "_json": ["_emit", "_json"],
        "dumps": [],
        "SCHEMA": ["_report"],
    }
    assert list(inspect.signature(cli._emit).parameters) == ["out", "report"]


class TestReadme:
    def test_synopsis_documents_every_subcommand_and_long_option(self):
        # Each subcommand's long options must appear on the README lines
        # that start with `uj <subcommand>`, and those lines name no other.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        synopsis = [line for line in readme.splitlines() if line.startswith("uj ")]
        (subparsers,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for name, parser in subparsers.choices.items():
            lines = [line for line in synopsis if line.split()[1:2] == [name]]
            assert lines, f"uj {name} has no synopsis line"
            options = {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
            documented = set(re.findall(r"--[\w-]+", " ".join(lines)))
            missing = options - {"--help"} - documented
            assert not missing, f"uj {name}: {sorted(missing)} undocumented"
            stale = documented - options
            assert not stale, f"uj {name}: {sorted(stale)} documented but not an option"
