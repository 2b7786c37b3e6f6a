import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fingen import cli
from fingen.cli import child_seed, main
from fingen.probvec import RatDecomposition

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ALL = ("count", "decompose", "codebook", "tower", "reduce", "recode", "oracle")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", ALL)
def test_bundled_configs_run_clean(capsys, name):
    code, out, err = run(capsys, [name, "--config", str(CONFIGS / f"{name}.json")])
    assert code == 0, err
    report = json.loads(out)
    assert report["schema"] == "1"
    assert report["command"] == name
    assert report["seed"] == 0


class ReadKeys(dict):
    """A config's options that record each top-level key read by ``get``,
    ``[]`` or ``in``."""

    def __init__(self, options):
        super().__init__(options)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("name", ALL)
def test_bundled_configs_set_no_key_their_command_ignores(capsys, monkeypatch, name):
    seen = []
    resolve = cli.resolve_config

    def recording(args):
        cfg = resolve(args)
        seen.append(ReadKeys(cfg.options))
        return cli.ExperimentConfig(cfg.command, seen[-1], cfg.seed, cfg.fmt, cfg.out, cfg.max_points)

    monkeypatch.setattr(cli, "resolve_config", recording)
    code, _, err = run(capsys, [name, "--config", str(CONFIGS / f"{name}.json")])
    assert code == 0, err
    [options] = seen
    assert set(options) - options.read == set()


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_reports_byte_identical_across_runs(capsys, name, fmt):
    argv = [name, "--config", str(CONFIGS / f"{name}.json"), "--format", fmt,
            "--seed", "7"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1


def test_csv_uses_crlf_rows(capsys):
    code, out, _ = run(
        capsys, ["oracle", "--points", "4", "--format", "csv"]
    )
    assert code == 0
    assert "\r\n" in out
    assert out.splitlines()[0].rstrip("\r") == "key,value"


def test_count_flag_overrides(capsys):
    code, out, _ = run(
        capsys, ["count", "--q", "1/2,1/2", "--eps", "1/10", "--n", "12"]
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 1
    assert report["rows"][0]["n"] == 12
    assert report["rows"][0]["holds"] is True


def test_count_sweep_holds_everywhere(capsys):
    code, out, _ = run(capsys, ["count", "--config", str(CONFIGS / "count.json")])
    report = json.loads(out)
    assert code == 0
    assert len(report["rows"]) == 12
    assert all(row["holds"] for row in report["rows"])


def test_trivial_vector_single_row(capsys):
    code, out, _ = run(capsys, ["count", "--q", "1", "--eps", "0", "--n", "24"])
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 1
    assert report["rows"][0]["count"] == 1


def test_oracle_matches_exhaustive_value(capsys):
    code, out, _ = run(capsys, ["oracle", "--points", "4"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    expected = 2 * math.log(2) - 0.75 * math.log(3)
    assert abs(cert["min_entropy"] - expected) < 1e-9
    assert cert["witness"] == [[0], [1, 2, 3]]


def test_oracle_answers_past_ten_points(capsys):
    code, out, _ = run(capsys, ["oracle", "--points", "1000"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["points"] == cert["k_max"] == 1000 and cert["found"] is True
    expected = -(0.001 * math.log(0.001) + 0.999 * math.log(0.999))
    assert abs(cert["min_entropy"] - expected) < 1e-12
    assert cert["witness"] == [[0], list(range(1, 1000))]


def test_zero_k_max_is_a_config_error(capsys):
    code, out, err = run(capsys, ["oracle", "--points", "4", "--k-max", "0"])
    assert code == 2
    assert out == ""
    assert "config error" in err


def test_recode_demo_decodes_exactly(capsys):
    code, out, _ = run(capsys, ["recode", "--config", str(CONFIGS / "recode.json")])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["decode"]["status"] == "exact"
    assert cert["masses"]["exact"] is True
    assert cert["assisted_decode"] is True


def test_decompose_seed_controls_samples(capsys):
    base = ["decompose", "--a", "1/2,1/2", "--samples", "4"]
    _, out0, _ = run(capsys, base + ["--seed", "0"])
    _, out0b, _ = run(capsys, base + ["--seed", "0"])
    _, out1, _ = run(capsys, base + ["--seed", "1"])
    assert out0 == out0b
    r0 = json.loads(out0)["rows"]
    r1 = json.loads(out1)["rows"]
    assert [row["id"] for row in r0] == [row["id"] for row in r1]
    assert [row["a"] for row in r0] != [row["a"] for row in r1]
    assert all(row["identity"] and row["within_eps"] for row in r0 + r1)


def test_decompose_single_cell_row_prints_what_verify_decided(capsys, monkeypatch):
    calls = []
    verify = RatDecomposition.verify
    monkeypatch.setattr(
        RatDecomposition, "verify", lambda self, eps: calls.append(eps) or verify(self, eps)
    )
    code, out, err = run(capsys, ["decompose", "--a", "1", "--eps", "1/2"])
    assert code == 0, err
    (row,) = json.loads(out)["rows"]
    assert row["identity"] is True and row["within_eps"] is True
    assert row["max_dev"] == "0"
    assert len(calls) == 1  # once per row, inside ratcomb_decompose


def test_child_seed_is_stable_and_splits():
    assert child_seed(0, "decompose:0") == child_seed(0, "decompose:0")
    assert child_seed(0, "decompose:0") != child_seed(0, "decompose:1")
    assert child_seed(0, "decompose:0") != child_seed(1, "decompose:0")
    assert 0 <= child_seed(12345, "x") < 2**64


def test_importing_the_cli_does_not_load_hashlib():
    # hashlib maps OpenSSL's libcrypto; only seed derivation needs it
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys, fingen, fingen.cli; "
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"


def test_malformed_vector_exits_two(capsys):
    code, _, err = run(capsys, ["count", "--q", "1/2,bogus"])
    assert code == 2
    assert "config error" in err


def test_missing_config_exits_two(capsys):
    code, _, err = run(capsys, ["count", "--config", "/nonexistent/x.json"])
    assert code == 2
    assert "config error" in err


def test_size_cap_exits_two(capsys):
    code, _, _ = run(
        capsys,
        ["tower", "--config", str(CONFIGS / "tower.json"), "--max-points", "10"],
    )
    assert code == 2


def test_named_constraint_surfaces_with_exit_one(tmp_path, capsys):
    cfg = tmp_path / "tower.json"
    cfg.write_text(json.dumps({
        "system": {"cyclic": 60}, "labels": {"modulus": 2}, "eps": "2", "m": 7,
    }))
    code, out, err = run(capsys, ["tower", "--config", str(cfg)])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["name"] == "m divides N"
    assert payload["error"]["type"] == "InvalidParamsError"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["oracle", "--points", "2", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["command"] == "oracle"


def test_bad_seed_exits_two(capsys):
    code, _, _ = run(capsys, ["oracle", "--points", "2", "--seed", str(2**64)])
    assert code == 2


def write_config(tmp_path, blob) -> str:
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(blob))
    return str(cfg)


def test_divisibility_failure_is_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": {"cyclic": 7}, "labels": {"modulus": 2}})
    code, _, err = run(capsys, ["tower", "--config", cfg])
    assert code == 1
    payload = json.loads(err)
    assert payload["error"]["type"] == "DivisibilityError"
    assert payload["error"]["name"] == "no admissible column count m"
    assert payload["error"]["message"] == "no admissible column count m: N=7 eps=2 nmin=1"


def test_zero_modulus_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": {"cyclic": 60}, "labels": {"modulus": 0}})
    code, _, err = run(capsys, ["tower", "--config", cfg])
    assert code == 2
    assert "config error" in err


def test_missing_labels_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"system": {"cyclic": 60}})
    code, _, err = run(capsys, ["tower", "--config", cfg])
    assert code == 2
    assert "config error" in err


def test_non_integer_m_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"system": {"cyclic": 60}, "labels": {"modulus": 2}, "m": "x"}
    )
    code, _, err = run(capsys, ["tower", "--config", cfg])
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize(
    "system", [{"cyclic": 0}, {"points": 0, "generators": {"a": []}}]
)
def test_empty_system_is_a_config_error(tmp_path, capsys, system):
    cfg = write_config(tmp_path, {"system": system, "labels": {"modulus": 2}})
    code, _, err = run(capsys, ["tower", "--config", cfg])
    assert code == 2
    assert "config error" in err


@pytest.mark.parametrize("weights", [["1/2", "1/2"], ["2/3", "1/3"]])
def test_system_weights_are_a_config_error(tmp_path, capsys, weights):
    system = {"points": 2, "generators": {"a": [1, 0]}, "weights": weights}
    cfg = write_config(tmp_path, {"system": system, "labels": {"modulus": 2}})
    code, _, err = run(capsys, ["tower", "--config", cfg])
    assert code == 2
    assert "config error" in err and "uniform" in err


def test_range_stop_is_inclusive_in_both_directions():
    assert cli.expand_range("10:60:10") == [10, 20, 30, 40, 50, 60]
    assert cli.expand_range("60:10:-10") == [60, 50, 40, 30, 20, 10]
    assert cli.expand_range({"start": 9, "stop": 3, "step": -3}) == [9, 6, 3]
    assert cli.expand_range("5:1:-3") == [5, 2]


def test_library_bug_is_not_reported_as_config_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "build_tower", broken)
    with pytest.raises(KeyError):
        main(["tower", "--config", str(CONFIGS / "tower.json")])
    assert "config error" not in capsys.readouterr().err


TOWER = {"system": {"cyclic": 60}, "labels": {"modulus": 2}}


@pytest.mark.parametrize(
    "patch",
    [
        {"system": {"cyclic": 60.9}},
        {"system": {"cyclic": True}},
        {"labels": {"modulus": 2.5}},
        {"m": 20.7},
        {"m": True},
        {"nmin": 1.0},
    ],
    ids=["cyclic-float", "cyclic-bool", "modulus-float", "m-float", "m-bool", "nmin-float"],
)
def test_non_integral_config_integers_are_refused(tmp_path, capsys, patch):
    cfg = write_config(tmp_path, {**TOWER, **patch})
    code, out, err = run(capsys, ["tower", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "config error: not an integer" in err


def test_integer_strings_are_read_as_integers(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TOWER, "m": "30", "nmin": "1"})
    code, out, _ = run(capsys, ["tower", "--config", cfg])
    assert code == 0
    assert json.loads(out)["certificate"]["m"] == 30


def test_unwritable_out_path_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["oracle", "--points", "2", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith("config error: cannot write report: ")
    assert not target.exists()


@pytest.mark.parametrize("key, value", [("delta", "1/5"), ("cutoff", 3)])
def test_reduce_refuses_delta_and_cutoff(tmp_path, capsys, key, value):
    blob = json.loads((CONFIGS / "reduce.json").read_text())
    cfg = write_config(tmp_path, {**blob, key: value})
    code, out, err = run(capsys, ["reduce", "--config", cfg])
    assert code == 2
    assert out == ""
    assert f"config error: reduce chooses delta and cutoff itself; drop '{key}'" in err


def test_recode_refuses_nmin(tmp_path, capsys):
    blob = json.loads((CONFIGS / "recode.json").read_text())
    cfg = write_config(tmp_path, {**blob, "nmin": 1})
    code, out, err = run(capsys, ["recode", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "config error: recode fixes nmin at 1; drop 'nmin'" in err


@pytest.mark.parametrize("command", ["recode", "codebook"])
def test_recode_refuses_capacity(tmp_path, capsys, command):
    blob = json.loads((CONFIGS / f"{command}.json").read_text())
    cfg = write_config(tmp_path, {**blob, "capacity": "exact"})
    code, out, err = run(capsys, [command, "--config", cfg])
    assert code == 2
    assert out == ""
    assert f"config error: {command} gates on the exact capacity checks; drop 'capacity'" in err


@pytest.mark.parametrize("exceptions", [[60], [-1], [99, -1]])
def test_exceptions_off_the_points_are_a_config_error(tmp_path, capsys, exceptions):
    cfg = write_config(
        tmp_path, {**TOWER, "labels": {"modulus": 2, "exceptions": exceptions}}
    )
    code, out, err = run(capsys, ["tower", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "config error: exceptions live on the points" in err


def test_negative_samples_are_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"samples": -3})
    code, out, err = run(capsys, ["decompose", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "config error: samples must be nonnegative" in err


@pytest.mark.parametrize("spec", ["5:1", "1:5:-1", {"start": 5, "stop": 1}, []])
def test_empty_range_is_a_config_error(tmp_path, capsys, spec):
    with pytest.raises(cli.ConfigError, match="range is empty"):
        cli.expand_range(spec)
    cfg = write_config(tmp_path, {"n": spec})
    code, out, err = run(capsys, ["count", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "config error: range is empty" in err


def test_range_with_more_than_three_parts_is_a_config_error(tmp_path, capsys):
    with pytest.raises(cli.ConfigError, match="more than three"):
        cli.expand_range("1:5:1:9")
    cfg = write_config(tmp_path, {"n": "1:5:1:9"})
    code, out, err = run(capsys, ["count", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "config error: range '1:5:1:9' has more than three ':' parts" in err


def test_empty_eps_list_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"n": 4, "eps": []})
    code, out, err = run(capsys, ["count", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "config error: eps list is empty" in err


def test_booleans_are_not_rationals(tmp_path, capsys):
    with pytest.raises(cli.ConfigError, match="not a rational: True"):
        cli._fr(True)
    cfg = write_config(tmp_path, {"n": 4, "q": [True, False], "eps": [False]})
    code, out, err = run(capsys, ["count", "--config", cfg])
    assert code == 2
    assert out == ""
    assert "config error: not a rational: True" in err


@pytest.mark.parametrize(
    "patch, keys",
    [
        ({"system": {"cyclic": 60, "points": 60, "generators": {"a": [*range(1, 60), 0]}}},
         "'cyclic' and 'points'"),
        ({"labels": {"modulus": 2, "sizes": [30, 30]}}, "'modulus' and 'sizes'"),
        ({"system": {"cyclic": 60, "generators": {"a": [*range(1, 60), 0]}}},
         "'cyclic' and 'generators'"),
        ({"labels": {"sizes": [30, 30], "exceptions": [0]}}, "'sizes' and 'exceptions'"),
    ],
    ids=["system", "labels", "cyclic-generators", "sizes-exceptions"],
)
def test_two_forms_in_one_spec_are_a_config_error(tmp_path, capsys, patch, keys):
    cfg = write_config(tmp_path, {**TOWER, **patch})
    code, out, err = run(capsys, ["tower", "--config", cfg])
    assert code == 2
    assert out == ""
    assert keys in err


def test_parser_is_built_once_and_reports_match_a_fresh_parser(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    runs = [[name, "--config", str(CONFIGS / f"{name}.json"), "--format", fmt]
            for name in ALL for fmt in ("json", "csv")]
    runs += [["oracle", "--points", "7"], ["oracle", "--points", "8"]]

    def reports():
        out = []
        with pytest.raises(SystemExit) as bad:
            main(["count", "--no-such-flag"])
        assert bad.value.code == 2
        for argv in runs:
            code, text, err = run(capsys, argv)
            assert code == 0, err
            out.append(text.encode())
        return out

    cached = reports()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cached == reports()


def codebook_config(n, c=None):
    # the bundled codebook config at length n; with c, xi = ((n - 2c)/n, c/n, c/n)
    blob = json.loads((CONFIGS / "codebook.json").read_text())
    blob["n"] = n
    if c is not None:
        blob["xi"] = [f"{n - 2 * c}/{n}", f"{c}/{n}", f"{c}/{n}"]
    return blob


def test_empty_typical_block_set_is_refused_by_name(tmp_path, capsys):
    # at n = 25 no block word has the bundled block frequencies exactly
    cfg = write_config(tmp_path, codebook_config(25))
    code, out, err = run(capsys, ["codebook", "--config", cfg])
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"]["type"] == "InvalidParamsError"
    assert payload["error"]["name"] == "a typical block word exists"


@pytest.mark.parametrize("n, c, books", [(48, 2, 194580), (96, 4, 132601016340)])
def test_codebook_counts_its_books_without_listing_them(tmp_path, capsys, n, c, books):
    # listing every typical block word took seconds at n = 48 and never ended at n = 96
    cfg = write_config(tmp_path, codebook_config(n, c))
    started = time.perf_counter()
    code, out, err = run(capsys, ["codebook", "--config", cfg])
    elapsed = time.perf_counter() - started
    assert code == 0, err
    assert json.loads(out)["certificate"]["books"] == books == math.comb(n, 2 * c)
    assert elapsed < 1, f"{elapsed:.2f}s"
