import json
import random
from itertools import combinations, product
from operator import le

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from monores.cli import main
from monores.dominance import classify, random_ideal_of_class
from monores.monomials import (
    MAX_EXPONENT,
    IdealError,
    ParseError,
    _largest_antichain,
    parse_ideal,
    random_ideal,
)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(captured.out)
    assert payload["schema"] == 1
    return payload


# --- parsing ------------------------------------------------------------------


def test_parse_basic_grammar():
    spec = parse_ideal("x^3*y, x*y^2*z, x*z^2")
    assert str(spec.ideal) == "x^3*y, x*y^2*z, x*z^2"
    assert spec.ideal.vars.names == ("x", "y", "z")
    assert spec.warnings == []


def test_parse_juxtaposed_factors():
    assert parse_ideal("x^3y, xy^2z, xz^2").ideal == parse_ideal(
        "x^3*y, x*y^2*z, x*z^2"
    ).ideal


def test_parse_digit_suffixed_variables():
    spec = parse_ideal("x1^2, x1*x2, x2^3")
    assert spec.ideal.vars.names == ("x1", "x2")
    assert str(spec.ideal) == "x1^2, x1*x2, x2^3"


def test_parse_variable_order_is_first_appearance():
    spec = parse_ideal("y*x, z^2")
    assert spec.ideal.vars.names == ("y", "x", "z")
    assert str(spec.ideal) == "y*x, z^2"


def test_parse_repeated_factor_accumulates():
    assert parse_ideal("x*x*y").ideal == parse_ideal("x^2*y").ideal


def test_parse_minimalizes_with_warning():
    spec = parse_ideal("x^2, x^3, y")
    assert str(spec.ideal) == "x^2, y"
    assert len(spec.warnings) == 1
    with pytest.raises(IdealError, match="not minimal"):
        parse_ideal("x^2, x^3, y", strict=True)


def test_parse_projects_away_unused_variables():
    spec = parse_ideal("x^2*w, x^2")
    assert str(spec.ideal) == "x^2"
    assert spec.ideal.vars.names == ("x",)


def test_parse_round_trip():
    for text in ["x^2, x*y, y^3", "y*x, z^2", "x^2*w, x^2", "x1*x2, x2^3"]:
        once = parse_ideal(text).ideal
        again = parse_ideal(str(once)).ideal
        assert once == again


def test_parse_round_trip_random():
    # print-then-reparse is stable for any parsed ideal (a constructed ideal
    # may first permute its variables into first-appearance order)
    def support(g):
        return {name: e for name, e in zip(g.vars.names, g.exponents) if e}

    rng = random.Random(7)
    for _ in range(30):
        n_vars = rng.randint(2, 5)
        # over 2 variables an antichain with exponents <= 4 has <= 5 members
        n_gens = rng.randint(1, 5 if n_vars == 2 else 6)
        raw = random_ideal(rng, n_vars, n_gens, 4)
        parsed = parse_ideal(str(raw)).ideal
        assert parse_ideal(str(parsed)).ideal == parsed
        assert [support(g) for g in parsed.generators] == [
            support(g) for g in raw.generators
        ]


def test_parse_errors_with_positions():
    with pytest.raises(ParseError, match="offset 2"):
        parse_ideal("x^^2")
    with pytest.raises(ParseError):
        parse_ideal("")
    with pytest.raises(ParseError):
        parse_ideal("x, ")
    with pytest.raises(ParseError, match="exponent must be positive"):
        parse_ideal("x^0")
    with pytest.raises(ParseError, match="offset 1"):
        parse_ideal("x+y")
    with pytest.raises(ParseError):
        parse_ideal("x, , y")
    with pytest.raises(ParseError):
        parse_ideal("2x")


@pytest.mark.parametrize(
    "text, names", [("x^2*z, y, x", ("y", "x")), ("w*x, y*x, w", ("x", "y", "w"))]
)
def test_parse_non_minimal_input_round_trips(text, names):
    # The dropped generator carried the first appearance of x (and of y):
    # the surviving variables are ordered as the printed generators show them.
    ideal = parse_ideal(text).ideal
    assert ideal.vars.names == names
    assert parse_ideal(str(ideal)).ideal == ideal


@pytest.mark.parametrize("text", ["x^²", "x^¹⁰", "x*y^³, y^2"])
def test_parse_rejects_superscript_exponents(text):
    with pytest.raises(ParseError, match="expected digits"):
        parse_ideal(text)


def test_parse_accepts_decimal_digits_of_any_script():
    # Arabic-Indic 3 and 12, and leading zeros in both scripts.
    assert parse_ideal("x^٣, y^١٢").ideal == parse_ideal("x^3, y^12").ideal
    assert parse_ideal("x^0003, y^٠٠٢").ideal == parse_ideal("x^3, y^2").ideal
    with pytest.raises(ParseError, match="exponent must be positive"):
        parse_ideal("x^٠٠")


@pytest.mark.parametrize("digits", [8, 4300, 4301, 100_000])
def test_parse_rejects_overlong_exponents(digits):
    # Past 4300 digits int() itself refuses the string; the parser must
    # reject the run as over the cap before it gets there.
    with pytest.raises(ParseError, match=f"exceeds the cap of {MAX_EXPONENT}"):
        parse_ideal("x*y, x^" + "9" * digits)
    assert parse_ideal("x^" + "0" * digits + "7").ideal == parse_ideal("x^7").ideal


@pytest.mark.parametrize(
    "text",
    ["x^²", "x^¹⁰", "x^" + "9" * 5000, "x^" + "1" * 8],
    ids=["superscript", "superscripts", "5000-digits", "8-digits"],
)
def test_cli_rejects_bad_exponents_with_exit_1(capsys, text):
    assert main(["classify", text]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


_HOSTILE = st.text(
    alphabet=st.sampled_from(
        list("xyzXab")
        + list("0123456789")
        + list("٠١٢٣٩")  # Arabic-Indic digits
        + list("⁰¹²³⁹")  # superscript digits
        + list("^*,")
        + list(" \t\n\u00a0")
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(_HOSTILE)
def test_parse_hostile_text_returns_or_raises_ideal_error(text):
    try:
        spec = parse_ideal(text)
    except IdealError:
        return
    assert parse_ideal(str(spec.ideal)).ideal == spec.ideal


@settings(max_examples=300, deadline=None)
@given(_HOSTILE)
@example("x²")
def test_parsed_variable_names_are_a_letter_and_decimal_digits(text):
    try:
        spec = parse_ideal(text)
    except IdealError:
        return
    for name in spec.ideal.vars.names:
        assert name[0].isalpha() and all(c.isdecimal() for c in name[1:])


@pytest.mark.parametrize("text", ["x²", "x¹*y", "y, x²"])
def test_parse_rejects_superscript_digits_in_names(text):
    with pytest.raises(ParseError, match="unexpected character"):
        parse_ideal(text)


def test_cli_rejects_superscript_digits_in_names_with_exit_1(capsys):
    assert main(["classify", "x²"]) == 1
    assert capsys.readouterr().err.startswith("error: syntax error")


# --- random generation -----------------------------------------------------------


def test_random_ideal_is_minimal_and_reproducible():
    a = random_ideal(random.Random(5), 4, 6, 3)
    b = random_ideal(random.Random(5), 4, 6, 3)
    assert a == b
    assert len(a) == 6


@pytest.mark.parametrize("n_vars, n_gens", [(-1, 2), (0, 2), (3, 0), (3, -2)])
def test_random_ideal_rejects_counts_below_one(n_vars, n_gens):
    with pytest.raises(IdealError, match="at least one variable and one generator"):
        random_ideal(random.Random(0), n_vars, n_gens, 3)


def test_random_command_rejects_negative_counts(capsys):
    assert main(["random", "--vars", "-1", "--gens", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a random ideal needs at least one variable")


def largest_antichain_reference(n_vars, max_exp):
    """Dilworth: the largest antichain among the non-unit monomials is
    their number minus a maximum matching of the strict divisibility
    order (a minimum chain cover), found by augmenting paths."""
    points = [m for m in product(range(max_exp + 1), repeat=n_vars) if any(m)]
    above = [
        [j for j, b in enumerate(points) if a != b and all(map(le, a, b))]
        for a in points
    ]
    match: dict[int, int] = {}

    def augment(i, seen):
        for j in above[i]:
            if j not in seen:
                seen.add(j)
                if j not in match or augment(match[j], seen):
                    match[j] = i
                    return True
        return False

    return len(points) - sum(augment(i, set()) for i in range(len(points)))


@pytest.mark.parametrize(
    "n_vars, max_exp", [(n, m) for n in range(1, 5) for m in range(1, 4)]
)
def test_largest_antichain_matches_dilworth(n_vars, max_exp):
    assert _largest_antichain(n_vars, max_exp) == largest_antichain_reference(
        n_vars, max_exp
    )


@pytest.mark.parametrize(
    "n_vars, n_gens, max_exp",
    [(1, 2, 3), (2, 3, 1), (3, 4, 1), (1, 2, MAX_EXPONENT + 1), (2, 1, 10**9)],
)
def test_random_ideal_rejects_impossible_requests_before_drawing(
    n_vars, n_gens, max_exp
):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(IdealError, match="impossible request|between 1 and"):
        random_ideal(rng, n_vars, n_gens, max_exp)
    assert rng.getstate() == state


def test_random_ideal_reaches_the_largest_antichain():
    ideal = random_ideal(random.Random(0), 3, 3, 1)
    assert sorted(g.exponents for g in ideal.generators) == [
        (0, 0, 1), (0, 1, 0), (1, 0, 0)
    ]


@pytest.mark.parametrize("cls", ["semi1", "semi2"])
@pytest.mark.parametrize("n_gens", [1, 2])
def test_random_class_rejects_two_generators_before_drawing(cls, n_gens):
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(IdealError, match="has 3 to"):
        random_ideal_of_class(rng, 6, n_gens, 3, cls)
    assert rng.getstate() == state


@pytest.mark.parametrize("n_vars, n_gens", [(3, 3), (4, 6)])
def test_random_class_refuses_squarefree_requests_before_drawing(
    monkeypatch, capsys, n_vars, n_gens
):
    # No squarefree ideal of this shape is 2-semidominant; without the
    # check the sampler spent all its draws before failing.
    import monores.dominance as dominance

    def no_draws(*args):
        raise AssertionError("drew an ideal for an impossible request")

    monkeypatch.setattr(dominance, "random_ideal", no_draws)
    argv = ["random", "--vars", str(n_vars), "--gens", str(n_gens),
            "--class", "semi2", "--max-exp", "1"]
    assert main(argv) == 1
    assert "impossible request" in capsys.readouterr().err


def test_random_class_squarefree_check_takes_many_variables(capsys):
    # 2^70 - 1 squarefree candidates are too many to enumerate, so it draws.
    argv = ["random", "--vars", "70", "--gens", "2", "--class", "dominant", "--max-exp", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count(", ") == 1


def test_random_class_feasible_squarefree_request_draws_as_before(capsys):
    rng = random.Random(0)
    while classify(expected := random_ideal(rng, 4, 3, 1)).p != 2:
        pass
    argv = ["random", "--vars", "4", "--gens", "3", "--class", "semi2", "--max-exp", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == f"{expected}\n" == "x*w, x*y*z, y*w\n"


@pytest.mark.parametrize("count", ["-3", "0"])
def test_random_command_rejects_counts_below_one(capsys, count):
    assert main(["random", "--vars", "2", "--gens", "2", "--count", count]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: count must be at least 1")


def test_random_command_cap_exits_2(capsys):
    assert main(["random", "--vars", "1", "--gens", "1", "--count", str(10**9)]) == 2
    assert "at most" in capsys.readouterr().err


_SIZES = st.integers(-2, 5) | st.sampled_from([MAX_EXPONENT + 1, 10**9, 10**40])


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(n_vars=_SIZES, n_gens=_SIZES, max_exp=_SIZES, count=_SIZES)
def test_random_sizes_end_in_exit_0_1_or_2(capsys, n_vars, n_gens, max_exp, count):
    argv = ["random", "--vars", str(n_vars), "--gens", str(n_gens),
            "--max-exp", str(max_exp), "--count", str(count), "--json"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 0:
        assert len(json.loads(captured.out)["ideals"]) == count


@pytest.mark.parametrize("cls,p", [("dominant", 0), ("semi1", 1), ("semi2", 2)])
def test_random_class_sampling(cls, p):
    rng = random.Random(11)
    gens = {"dominant": 3, "semi1": 4, "semi2": 4}[cls]
    for _ in range(5):
        ideal = random_ideal_of_class(rng, 4, gens, 3, cls)
        assert classify(ideal).p == p


# --- commands ----------------------------------------------------------------------


def test_classify_command(capsys):
    payload = run_json(capsys, ["classify", "xy, yz, xz"])
    assert payload["p"] == 3
    assert payload["class"] == "3-semidominant"
    assert payload["ideal"]["variables"] == ["x", "y", "z"]


def test_classify_human_output(capsys):
    assert main(["classify", "x^2, y^3, xy"]) == 0
    out = capsys.readouterr().out
    assert "semidominant (p=1)" in out


def test_taylor_command_full(capsys):
    payload = run_json(capsys, ["taylor", "x^2, x*y, y^3", "--full"])
    assert payload["ranks"] == [1, 3, 3, 1]
    assert payload["modules"][1] == [[0], [1], [2]]
    diff3 = payload["differentials"][3]
    assert diff3["cols"] == [[0, 1, 2]]
    # entries are [row, col, numerator, denominator, exponents]
    assert [1, 0, -1, 1, [0, 0]] in diff3["entries"]
    assert payload["repeated_multidegrees"][0]["multidegree"]["display"] == "x^2*y^3"
    assert not payload["lcm_lattice_boolean"]


def test_minimize_command_deterministic(capsys):
    payload = run_json(capsys, ["minimize", "x^3y, y^2z, xz^2, xyz"])
    assert payload["status"] == "completed"
    assert payload["ranks"] == [1, 4, 3, 0, 0]
    assert len(payload["trail"]) == 4
    assert payload["stuck_witness"] is None


def test_minimize_command_scripted_stuck(capsys, tmp_path):
    script = tmp_path / "stuck.json"
    script.write_text(json.dumps([[[0, 1, 2, 3], [0, 1, 3]], [[0, 1, 2], [0, 2]]]))
    payload = run_json(
        capsys,
        [
            "minimize",
            "x^2y^2z^2, xw^2, yw^2, zw",
            "--strategy",
            f"script:{script}",
            "--generic",
        ],
    )
    assert payload["status"] == "stuck"
    assert payload["stuck_witness"] == [[0, 1], [0, 2, 3]]
    assert payload["generic_phase"]["ranks"] == [1, 4, 4, 1, 0]


@pytest.mark.parametrize(
    "script",
    [
        [[[True, 0], [0]]],
        [[{"0": 1, "1": 2}, [0]]],
        [[["a", 0], [0]]],
        [[[0, 0, 1], [0, 1]]],
        {"pairs": []},
        "[" * 100000 + "]" * 100000,
    ],
)
def test_minimize_command_rejects_malformed_script(capsys, tmp_path, script):
    path = tmp_path / "bad.json"
    path.write_text(script if isinstance(script, str) else json.dumps(script))
    code = main(["minimize", "x^2, xy, y^3", "--strategy", f"script:{path}"])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad script file" in err and "Traceback" not in err
    assert "not supported" not in err


def test_minimize_command_random_seed(capsys):
    payload = run_json(
        capsys, ["minimize", "x^3y, y^2z, xz^2, xyz", "--strategy", "random:3"]
    )
    assert payload["status"] == "completed"
    assert payload["ranks"] == [1, 4, 3, 0, 0]


def test_scarf_command(capsys):
    payload = run_json(capsys, ["scarf", "x^2y^2, xz, yz"])
    assert payload["counts"] == [1, 3, 1]
    assert payload["is_scarf"] is False


def test_invariants_command(capsys):
    payload = run_json(capsys, ["invariants", "x^3y, y^2z, xz^2, xyz"])
    assert payload["pd"] == 2
    assert payload["betti"] == [1, 4, 3]
    assert payload["reg"] == 3
    assert payload["agree"] is True
    assert payload["closed_form"]["sources"]["betti"] == "closed-form (semidominant)"
    assert payload["from_resolution"]["betti"] == [1, 4, 3]


def test_verify_command(capsys):
    payload = run_json(capsys, ["verify", "x^2, x*y, y^3"])
    assert payload["taylor"]["compose"] is True
    assert payload["taylor"]["strands_exact"] is True
    assert payload["taylor"]["minimal"] is False
    assert payload["minimized"]["minimal"] is True
    assert payload["minimized"]["ranks"] == [1, 3, 2, 0]


def test_verify_command_exits_3_when_an_oracle_fails(capsys, monkeypatch):
    import monores.cli as cli

    real = cli.build_taylor

    def drop_an_entry(ideal):
        res = real(ideal)
        del res.diffs[1].entries[(0, 0)]
        return res

    monkeypatch.setattr(cli, "build_taylor", drop_an_entry)
    assert main(["verify", "x^2, x*y, y^3"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("ideal: x^2, x*y, y^3\ntaylor:    compose=False")
    assert captured.err == (
        "error: internal oracle disagreement: verification failed; see report\n"
    )


def test_t71_command(capsys):
    payload = run_json(capsys, ["t71-check", "x^2y^2z^2, xw^2, yw^2, zw"])
    assert payload["holds"] is False
    assert payload["violations"]
    payload = run_json(capsys, ["t71-check", "xy, xz, yz"])
    assert payload["holds"] is True
    assert payload["violations"] == []


def test_random_command(capsys):
    payload = run_json(
        capsys,
        ["random", "--vars", "3", "--gens", "3", "--seed", "9", "--count", "4",
         "--class", "semi1"],
    )
    assert payload["count"] == 4
    assert len(payload["ideals"]) == 4
    for entry in payload["ideals"]:
        ideal = parse_ideal(entry["display"]).ideal
        assert classify(ideal).p == 1


def test_json_output_is_deterministic(capsys):
    main(["taylor", "x^2, x*y, y^3", "--json", "--full"])
    first = capsys.readouterr().out
    main(["taylor", "x^2, x*y, y^3", "--json", "--full"])
    second = capsys.readouterr().out
    assert first == second


def test_ideal_from_file(capsys, tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_text("x^2, x*y, y^3")
    payload = run_json(capsys, ["classify", "--file", str(path)])
    assert payload["p"] == 1


def test_non_utf8_file_is_a_user_error(capsys, tmp_path):
    path = tmp_path / "ideal.txt"
    path.write_bytes(b"x\xff, y")
    assert main(["classify", "--file", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not UTF-8" in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)
_MEMBERS = st.lists(st.integers(-1, 3), max_size=4)
_FILE_BYTES = st.one_of(
    st.binary(max_size=64),
    _HOSTILE.map(str.encode),
    _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.lists(st.tuples(_MEMBERS, _MEMBERS), max_size=4).map(
        lambda pairs: json.dumps(pairs).encode()
    ),
    st.integers(1, 5000).map(lambda depth: b"[" * depth),
)


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=_FILE_BYTES)
@example(data=b"x\xff, y")
@example(data=b"[[[0, 1, 2], [0, 2]], [[1], []]]")
def test_any_file_bytes_end_in_exit_0_1_or_2(capsys, tmp_path, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    # x^2, x*y, y^2 has cancellable face/facet pairs, so some scripts run.
    for argv in (
        ["classify", "--file", str(path)],
        ["minimize", "x^2, x*y, y^2", "--strategy", f"script:{path}"],
    ):
        assert main(argv) in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err


# --- exit codes -----------------------------------------------------------------------


def test_exit_code_user_error(capsys):
    assert main(["classify", "x^^2"]) == 1
    assert "syntax error" in capsys.readouterr().err


def test_exit_code_missing_ideal(capsys):
    assert main(["classify"]) == 1


def test_exit_code_unknown_strategy(capsys):
    assert main(["minimize", "x^2, xy", "--strategy", "sideways"]) == 1


def test_exit_code_cap_exceeded(capsys):
    text = "x^21, " + ", ".join(f"x^{20 - i}*y^{i + 1}" for i in range(20))
    assert main(["taylor", text]) == 2
    assert "at most 20" in capsys.readouterr().err


def test_exit_code_bad_flag(capsys):
    assert main(["classify", "x^2", "--bogus"]) == 1


def test_warnings_go_to_stderr(capsys):
    assert main(["classify", "x^2, x^3, y"]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    assert "warning" not in captured.out


def test_warnings_embedded_in_json(capsys):
    payload = run_json(capsys, ["classify", "x^2, x^3, y"])
    assert len(payload["warnings"]) == 1
    assert "non-minimal" in payload["warnings"][0]
    assert payload["ideal"]["display"] == "x^2, y"
