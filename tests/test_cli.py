import argparse
import json

import pytest

from kronstab.bounds import FAMILIES
from kronstab.cli import build_parser, main
from kronstab.hyperoct import hyperoct_coeff


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kron(capsys):
    code, out, _ = run(capsys, "kron", "2,1 / 2,1 / 2,1")
    assert code == 0
    assert out.splitlines() == ["n = 3", "1"]
    code, out, _ = run(capsys, "kron", "1 / 1 / 1")
    assert code == 0 and out.splitlines()[-1] == "1"
    code, out, _ = run(capsys, "kron", "2,1 / 2,1 / 3")
    assert code == 0 and out.splitlines()[-1] == "1"


def test_kron_parse_error(capsys):
    code, _, err = run(capsys, "kron", "2,1 / nope / 3")
    assert code == 1 and "error" in err


def test_kron_size_cap(capsys):
    # A rejected query prints no partial answer.
    code, out, err = run(capsys, "kron", "51 / 51 / 51")
    assert code == 1 and out == ""
    assert err == "error: size 51 of 51 / 51 / 51 exceeds the desk-scale limit of 50\n"


def test_kron_size_mismatch_names_the_triple(capsys):
    expected = (
        "error: sizes 3, 3, 1 of 2,1 / 2,1 / 1 differ;"
        " all three partitions must have the same size\n"
    )
    code, out, err = run(capsys, "kron", "2,1 / 2,1 / 1")
    assert code == 1 and out == "" and err == expected
    code, out, err = run(capsys, "dreal", "murnaghan", "2,1 / 2,1 / 1")
    assert code == 1 and out == "" and err == expected


def test_bound_all(capsys):
    code, out, _ = run(
        capsys, "bound", "murnaghan", "8,5,2 / 6,5,2,2 / 4,4,3,3,1", "--all"
    )
    assert code == 0
    values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    assert values["D1"] == "6"
    assert values["DB"] == "5"
    assert values["Dm"] == "5"


def test_bound_prints_the_certified_bound(capsys):
    # D1 = 6 comes first in display order; dreal certifies with Dm = 5
    assert FAMILIES["murnaghan"].certified == "Dm"
    code, out, _ = run(capsys, "bound", "murnaghan", "8,5,2 / 6,5,2,2 / 4,4,3,3,1")
    assert code == 0 and out == "Dm = 5\n"


def test_bound_degenerate_triple(capsys):
    # two single-row partitions: every murnaghan bound is 0
    code, out, _ = run(capsys, "bound", "murnaghan", "3 / 3 / 2,1", "--all")
    assert code == 0
    names = ["D1", "DB", "DB_improved", "DBOR2", "DBOR2_improved", "Dm"]
    assert out.splitlines() == [f"{name} = 0" for name in names]
    code, _, err = run(capsys, "bound", "squares", "3 / 2,1 / 2,1")
    assert code == 1 and err.startswith("error:") and "3 / 2,1 / 2,1" in err
    code, _, err = run(capsys, "bound", "hyperoct", "3;1 / 2,1;1 / 2,1,1;-")
    assert code == 1 and err.startswith("error:") and "3;1 / 2,1;1 / 2,1,1;-" in err


def test_empty_triple(capsys):
    code, out, _ = run(capsys, "bound", "murnaghan", "- / - / -", "--all")
    assert code == 0
    assert [line.split(" = ")[1] for line in out.splitlines()] == ["0"] * 6
    code, out, _ = run(capsys, "dreal", "murnaghan", "- / - / -")
    assert code == 0
    assert out.splitlines()[:2] == ["d_real = 0", "limit = 1"]


def test_bound_squares(capsys):
    code, out, _ = run(capsys, "bound", "squares", "8,2 / 6,4 / 5,4,1")
    assert code == 0 and "D2 = 1" in out


def test_bound_hyperoct(capsys):
    code, out, _ = run(
        capsys, "bound", "hyperoct", "3,1;1 / 2,2;1 / 2,1,1;1"
    )
    assert code == 0
    value = int(out.split("=")[1])
    assert value >= 0


# A triple of unequal (total) sizes has no sequence, so it has no bound.
MISMATCHED = {
    "squares": ("3,1 / 2,2 / 1,1,1", "4, 4, 3"),
    "murnaghan": ("2,1 / 2,1 / 1", "3, 3, 1"),
    "hyperoct": ("2,1;1 / 2,1;- / 1,1;1", "4, 3, 3"),
}


@pytest.mark.parametrize("family", MISMATCHED)
def test_bound_size_mismatch(capsys, family):
    triple, sizes = MISMATCHED[family]
    code, out, err = run(capsys, "bound", family, triple, "--all")
    assert code == 1 and out == ""
    assert err.startswith(f"error: sizes {sizes} of ")
    assert err.endswith(" differ; all three partitions must have the same size\n")


def test_dreal(capsys):
    code, out, _ = run(capsys, "dreal", "squares", "20,5 / 13,12 / 11,10,3,1")
    assert code == 0 and "d_real = 1" in out
    code, out, _ = run(capsys, "dreal", "murnaghan", "7,6 / 6,5,2 / 7,3,2,1")
    assert code == 0 and "d_real = 3" in out
    # certified with Dm = 3, as in the table, so the sequence runs to Dm + 2
    assert "sequence = [10, 17, 21, 22, 22, 22]" in out
    assert out.splitlines()[-1] == "certificate = Dm"


def test_dreal_unsound_bound_is_an_error(capsys):
    # D2 is 0 here but the sequence is 1, 2, 2, 2
    code, out, err = run(capsys, "dreal", "squares", "3,1 / 3,1 / 2,2")
    assert code == 1 and out == ""
    assert err.startswith("error: D2 = 0 is not a bound for 3,1 / 3,1 / 2,2 along")


def test_dreal_custom_direction(capsys):
    code, out, _ = run(
        capsys,
        "dreal", "murnaghan", "2,1 / 2,1 / 2,1",
        "--direction", "1,1 / 1,1 / 2", "--horizon", "4",
    )
    assert code == 0 and "empirical" in out


def test_dreal_horizon_needs_a_direction(capsys):
    code, out, err = run(capsys, "dreal", "murnaghan", "2,1 / 2,1 / 2,1", "--horizon", "4")
    assert code == 1 and out == ""
    assert err == "error: --horizon needs --direction: it is the horizon of a custom scan\n"
    code, out, _ = run(capsys, "dreal", "murnaghan", "2,1 / 2,1 / 2,1", "--direction", "1 / 1 / 1")
    assert code == 0 and "certificate = empirical (horizon 10)" in out


def test_dreal_hyperoct(capsys):
    # A soundness gate triple; the empty plus part grows as (d).
    code, out, _ = run(capsys, "dreal", "hyperoct", "1,1;2 / 1,1;2 / -;3,1")
    assert code == 0
    fields = dict(line.split(" = ") for line in out.splitlines())
    assert fields["certificate"] == "D_hyperoct"
    assert fields["d_real"] == "2" and fields["limit"] == "4"
    terms = [
        hyperoct_coeff(((1 + d, 1), (2,)), ((1 + d, 1), (2,)), ((d,) if d else (), (3, 1)))
        for d in range(5)
    ]
    assert fields["sequence"] == str(terms) == "[0, 3, 4, 4, 4]"


def test_dreal_hyperoct_rejects_a_custom_direction(capsys):
    # custom directions are Kronecker sequences; the double base must not
    # reach kron
    code, out, err = run(
        capsys, "dreal", "hyperoct", "3,1;1 / 2,2;1 / 2,1,1;1", "--direction", "1 / 1 / 1"
    )
    assert code == 1 and out == ""
    assert err == "error: --direction is for Kronecker sequences only, not hyperoct\n"


def test_family_choices_are_the_registry():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("bound", "dreal"):
        family = next(a for a in sub.choices[command]._actions if a.dest == "family")
        assert family.choices == list(FAMILIES)


def test_dreal_refuses_a_direction_that_never_grows(capsys):
    code, out, err = run(capsys, "dreal", "murnaghan", "2,1 / 2,1 / 2,1", "--direction", "- / - / -")
    assert code == 1 and out == ""
    assert err == "error: direction - / - / - has size 0: a walk along it never grows\n"


def test_dreal_custom_direction_size_mismatch(capsys):
    code, out, err = run(capsys, "dreal", "murnaghan", "2,1/2,1/2,1", "--direction", "1/1/2")
    assert code == 1 and out == ""
    assert err == (
        "error: sizes 1, 1, 2 of direction 1 / 1 / 2 differ;"
        " all three partitions must have the same size\n"
    )


def test_plethysm(capsys):
    code, out, _ = run(capsys, "plethysm", "2 / 2,1 / 4,2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "plethysm", "2 / 1,1 / 4")
    assert code == 0 and out.strip() == "0"
    code, _, err = run(capsys, "plethysm", "45 / - / -")
    assert code == 1 and err == "error: size 45 of 45 exceeds the desk-scale limit of 24\n"


def test_hyperoct(capsys):
    code, out, _ = run(capsys, "hyperoct", "2;2 / 2;2 / 2;2")
    assert code == 0 and out.strip() == "1"


def test_table_markdown(capsys):
    code, out, _ = run(capsys, "table", "3.6.1", "--rows", "2,8,9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("| triple | D1 | Dm | Dreal |")
    assert len(lines) == 5


def test_table_csv_header(capsys):
    code, out, _ = run(capsys, "table", "3.6.2", "--rows", "10,11", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "triple,D2,Dreal"
    assert lines[1] == '"8,2 / 6,4 / 5,4,1",1,1'


def test_table_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "table", "3.6.1", "--rows", "1,8", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == json.loads(json.dumps(payload))
    assert payload["status"] == "ok"
    row1 = payload["rows"][0]["cells"]
    assert row1["DBOR2"]["status"] == "mismatch-known"
    assert row1["DV"]["provenance"] == "fixture"
    assert row1["D1"] == {
        "expected": 6, "computed": 6, "provenance": "computed", "status": "match"
    }


def test_table_fixture_and_known_mismatch_rendering(capsys):
    code, out, _ = run(capsys, "table", "3.6.1", "--rows", "1")
    assert code == 0
    assert out.splitlines()[2] == (
        "| 8,5,2 / 6,5,2,2 / 4,4,3,3,1 | 6 | 5 | 5 | 5 | 5 (fixture)"
        " | 5 (fixture) | 5 (expected 6, mismatch-known) |"
    )
    code, out, _ = run(capsys, "table", "3.6.1", "--rows", "1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == '"8,5,2 / 6,5,2,2 / 4,4,3,3,1",6,5,5,5,5,5,5'


def test_table_rows_out_of_range(capsys):
    code, out, err = run(capsys, "table", "3.6.2", "--rows", "13,0")
    assert code == 2 and out == ""
    assert err == "error: bad row '13' in --rows; valid rows are 1..12\n"


def test_table_rows_not_a_number(capsys):
    code, out, err = run(capsys, "table", "3.6.2", "--rows", "1,x")
    assert code == 2 and out == ""
    assert err == "error: bad row 'x' in --rows; valid rows are 1..12\n"


def test_table_unknown_id(capsys):
    code, out, err = run(capsys, "table", "nope")
    assert code == 2 and out == ""
    assert err == "error: unknown table id 'nope'; available: 3.6.1, 3.6.2\n"


def test_table_rows_csv(capsys):
    code, out, _ = run(capsys, "table", "3.6.2", "--rows", "10,11", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "triple,D2,Dreal",
        '"8,2 / 6,4 / 5,4,1",1,1',
        '"6,6 / 8,4 / 6,4,2",0,0',
    ]
