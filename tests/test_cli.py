import json
import math
from pathlib import Path

import pytest

from fingen import cli
from fingen.cli import child_seed, main

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


def test_child_seed_is_stable_and_splits():
    assert child_seed(0, "decompose:0") == child_seed(0, "decompose:0")
    assert child_seed(0, "decompose:0") != child_seed(0, "decompose:1")
    assert child_seed(0, "decompose:0") != child_seed(1, "decompose:0")
    assert 0 <= child_seed(12345, "x") < 2**64


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


def test_library_bug_is_not_reported_as_config_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "build_tower", broken)
    with pytest.raises(KeyError):
        main(["tower", "--config", str(CONFIGS / "tower.json")])
    assert "config error" not in capsys.readouterr().err
