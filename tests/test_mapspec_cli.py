"""The JSON spec format and the command-line surface."""

import csv
import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from blochlab import criteria, mapspec, reports
from blochlab.cli import main
from blochlab.holo import HoloSelfMap, Series
from blochlab.sampling import SamplingPlan
from blochlab.testfuncs import TestFunction

IDENTITY_2 = {
    "dimension": 2,
    "components": [
        {"type": "series", "terms": [{"exponents": [1, 0], "coeff": [1, 0]}]},
        {"type": "series", "terms": [{"exponents": [0, 1], "coeff": [1, 0]}]},
    ],
}

HALVING_1 = {
    "dimension": 1,
    "components": [{"type": "series", "terms": [{"exponents": [1], "coeff": [0.5, 0]}]}],
}

SHIFTED_HALF_1 = {
    "dimension": 1,
    "components": [{"type": "series", "terms": [
        {"exponents": [0], "coeff": [0.5, 0]},
        {"exponents": [1], "coeff": [0.5, 0]},
    ]}],
}

SQUARE_1 = {
    "dimension": 1,
    "components": [{"type": "series", "terms": [{"exponents": [2], "coeff": [1, 0]}]}],
}

# One valid component of each type, at dimension 2, and the keys it cannot do without.
COMPONENTS = {
    "series": {"type": "series", "terms": [{"exponents": [1, 0], "coeff": [0.5, 0]}]},
    "moebius": {"type": "moebius", "a": [0.3, 0.0], "theta": 0.0, "source": 0},
    "testfn": {"type": "testfn", "family": "g", "l": 0, "w": [0.5, 0.0], "p": 1.0},
    "constant": {"type": "constant", "value": [0.25, 0.0]},
}
REQUIRED = {"series": ["type", "terms"], "moebius": ["type", "a"],
            "testfn": ["type", "family", "l", "w", "p"], "constant": ["type", "value"]}
MISSING_KEY_CASES = (
    [(kind, (key,)) for kind, keys in REQUIRED.items() for key in keys]
    + [("series", ("terms", 0, "exponents")), ("series", ("terms", 0, "coeff"))])


def dump_spec(phi):
    """A self-map spec: each component as `mapspec.dump_function` writes it."""
    return {"dimension": phi.dim,
            "components": [mapspec.dump_function(c)["function"] for c in phi.components]}


def _without(component, key_path):
    """A deep copy of the component with the key at key_path removed."""
    out = json.loads(json.dumps(component))
    node = out
    for key in key_path[:-1]:
        node = node[key]
    del node[key_path[-1]]
    return out


def _json_path(prefix, key_path):
    return prefix + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in key_path)


class TestMapSpec:
    def test_series_round_trip(self):
        phi = mapspec.load_map(IDENTITY_2)
        z = np.array([0.3 + 0.1j, -0.2])
        np.testing.assert_allclose(phi.val(z), z)
        again = mapspec.load_map(dump_spec(phi))
        np.testing.assert_allclose(again.val(z), z)

    def test_moebius_permutation_gets_exact_certificate(self):
        spec = {"dimension": 2, "components": [
            {"type": "moebius", "a": [0.3, 0.0], "theta": 0.0, "source": 1},
            {"type": "moebius", "a": [0.0, -0.2], "theta": 1.0, "source": 0},
        ]}
        phi = mapspec.load_map(spec)
        assert phi.certificate.brackets == ((1.0, 1.0), (1.0, 1.0))

    def test_testfn_component(self):
        spec = {"dimension": 2,
                "function": {"type": "testfn", "family": "g", "l": 0,
                             "w": [0.5, 0.0], "p": 1.0}}
        f = mapspec.load_function(spec)
        ref = TestFunction("g", 0, 0.5, 1.0, 2)
        z = [0.2, 0.7j]
        assert f.value(z) == pytest.approx(ref.value(z), rel=1e-14)

    def test_compose_list(self):
        spec = {**HALVING_1, "compose": [HALVING_1]}
        phi = mapspec.load_map(spec)
        assert phi.components[0].value([0.8]) == pytest.approx(0.2)

    @pytest.mark.parametrize("spec", [
        HALVING_1, {"dimension": 1, "function": HALVING_1["components"][0]}],
        ids=["components", "function"])
    def test_function_spec_applies_compose(self, spec):
        # the function acts last: 0.5 z after z^2 after 0.5 z is 0.125 z^2
        f = mapspec.load_function({**spec, "compose": [SQUARE_1, HALVING_1]})
        assert f.value([0.8]) == pytest.approx(0.08, rel=1e-14)

    def test_function_dump_for_testfn(self):
        f = TestFunction("g", 1, 0.25j, 2.0, 2)
        d = mapspec.dump_function(f)
        again = mapspec.load_function(d)
        z = [0.1, 0.6]
        assert again.value(z) == pytest.approx(f.value(z), rel=1e-14)

    def test_bad_component_rejected(self):
        with pytest.raises(mapspec.SpecError):
            mapspec.load_function({"dimension": 1, "function": {"type": "mystery"}})

    @pytest.mark.parametrize("kind, key_path", MISSING_KEY_CASES,
                             ids=[".".join(map(str, (k,) + p)) for k, p in MISSING_KEY_CASES])
    def test_missing_required_key_names_its_path(self, kind, key_path):
        comp = _without(COMPONENTS[kind], key_path)
        where = _json_path("components[1]", key_path)
        spec = {"dimension": 2, "components": [COMPONENTS["constant"], comp]}
        with pytest.raises(mapspec.SpecError, match=re.escape(where)):
            mapspec.load_map(spec)
        with pytest.raises(mapspec.SpecError, match=re.escape(_json_path("function", key_path))):
            mapspec.load_function({"dimension": 2, "function": comp})

    def test_every_component_form_loads(self):
        for comp in COMPONENTS.values():
            assert mapspec.load_function({"dimension": 2, "function": comp}).dim == 2

    @pytest.mark.parametrize("dimension", ["two", 2.5, True, None, [2], 0])
    def test_non_integer_dimension_rejected(self, dimension):
        with pytest.raises(mapspec.SpecError, match="dimension"):
            mapspec.load_map({**IDENTITY_2, "dimension": dimension})

    @pytest.mark.parametrize("spec, where", [
        ({"dimension": 1, "components": [{"type": "series", "terms": [
            {"exponents": [1, 0], "coeff": 1}]}]}, "components[0].terms[0].exponents"),
        ({"dimension": 1, "components": [{"type": "moebius", "a": "x"}]}, "components[0].a"),
        ({"dimension": 1, "components": [{"type": "moebius", "a": 0.1, "source": 3}]},
         "components[0]"),
        ({**HALVING_1, "compose": [{"components": [{"type": "constant"}]}]},
         "compose[0].components[0].value"),
        ({**HALVING_1, "compose": [IDENTITY_2]}, "compose[0].dimension"),
        ([HALVING_1], "spec"),
    ], ids=["exponent-count", "pair-type", "source-axis", "nested-compose",
            "compose-dimension", "not-an-object"])
    def test_bad_value_names_its_path(self, spec, where):
        with pytest.raises(mapspec.SpecError, match=re.escape(where)):
            mapspec.load_map(spec)

    def test_empty_terms_list_is_the_zero_series(self):
        spec = {"dimension": 1, "function": {"type": "series", "terms": []}}
        assert mapspec.load_function(spec).value([0.5]) == 0

    def test_missing_dimension_named(self):
        for load in (mapspec.load_function, mapspec.load_map):
            with pytest.raises(mapspec.SpecError, match="'dimension'"):
                load({"components": IDENTITY_2["components"]})


class TestCLI:
    def run(self, *args):
        return CliRunner().invoke(main, list(args), catch_exceptions=False)

    def test_norm_monomial(self, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({
            "dimension": 1,
            "function": {"type": "series", "terms": [{"exponents": [1], "coeff": [1, 0]}]},
        }))
        out = tmp_path / "norm.json"
        res = self.run("norm", "--spec", str(spec), "--p", "1.0",
                       "--out-json", str(out), "--budget", "20000")
        assert res.exit_code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["estimates"][0]["bloch"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_norm_spec_applies_compose(self, tmp_path):
        # 0.5 z after z^2 is 0.5 z^2, of 1-Bloch norm sup |z| (1 - |z|^2) = 2 / (3 sqrt 3)
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({**HALVING_1, "compose": [SQUARE_1]}))
        out = tmp_path / "norm.json"
        res = self.run("norm", "--spec", str(spec), "--out-json", str(out))
        assert res.exit_code == 0
        value = json.loads(out.read_text())["payload"]["estimates"][0]["bloch"]["value"]
        assert value == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), rel=1e-9)

    @pytest.mark.parametrize("compose, message", [
        (3, "compose: expected a list of map specs, got 3"),
        ([{"components": [{"type": "constant"}]}], "compose[0].components[0].value"),
        ([IDENTITY_2], "compose[0].dimension"),
    ], ids=["not-a-list", "bad-entry", "other-dimension"])
    def test_norm_refuses_a_bad_compose_entry(self, tmp_path, compose, message):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"dimension": 1, "compose": compose,
                                    "function": HALVING_1["components"][0]}))
        res = CliRunner().invoke(main, ["norm", "--spec", str(spec)])
        assert res.exit_code == 2
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]

    def test_norm_testfn_emit_spec(self, tmp_path):
        emitted = tmp_path / "tf.json"
        res = self.run("norm", "--testfn", "g", "--tf-w", "0.5,0", "--dimension", "1",
                       "--p", "1.0", "--emit-spec", str(emitted), "--budget", "20000")
        assert res.exit_code == 0
        spec = json.loads(emitted.read_text())
        assert spec["function"]["type"] == "testfn"
        # estimated norm of the kernel member stays below its uniform bound
        assert "bloch norm" in res.output

    def test_classify_identity(self, tmp_path):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(IDENTITY_2))
        out = tmp_path / "c.json"
        csv_out = tmp_path / "c.csv"
        res = self.run("classify", "--spec", str(spec), "--p", "1.0", "--q", "1.0",
                       "--out-json", str(out), "--out-csv", str(csv_out))
        assert res.exit_code == 0
        assert "bounded: holds" in res.output
        assert "compact: fails" in res.output
        data = json.loads(out.read_text())
        assert data["schema_version"] == 7
        assert "routes" not in data["payload"]["runs"][0]["report"]
        run = data["payload"]["runs"][0]["report"]
        assert run["sup_estimate"]["sup"] == pytest.approx(2.0, abs=1e-9)
        assert run["plan"] == SamplingPlan().to_json()
        header = csv_out.read_text().splitlines()[0]
        assert header == "sample_index,z,density,path_id,verdict"
        # each path row's z is the path point: dim [re, im] pairs inside U^2
        rows = list(csv.DictReader(csv_out.read_text().splitlines()))
        assert rows
        for row in rows:
            z = np.array(json.loads(row["z"]), dtype=float)
            assert z.shape == (2, 2)
            assert np.all(np.hypot(z[:, 0], z[:, 1]) < 1.0)

    def test_classify_refuses_uncertified(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "dimension": 1,
            "components": [{"type": "series",
                            "terms": [{"exponents": [1], "coeff": [2, 0]}]}],
        }))
        res = CliRunner().invoke(main, ["classify", "--spec", str(spec)])
        assert res.exit_code == 2
        assert "refusing" in res.output
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert len(res.stderr.strip().splitlines()) == 1
        assert "Traceback" not in res.output

    def test_sweep_refuses_uncertified(self, tmp_path):
        spec = tmp_path / "bad.json"
        spec.write_text(json.dumps({
            "dimension": 1,
            "components": [{"type": "series",
                            "terms": [{"exponents": [1], "coeff": [2, 0]}]}],
        }))
        out_csv = tmp_path / "sweep.csv"
        res = CliRunner().invoke(main, ["sweep", "--dimension", "1", "--p", "1", "--q", "1",
                                        "--spec", str(spec), "--out-csv", str(out_csv)])
        assert res.exit_code == 2
        assert "refusing" in res.output
        assert len(res.stderr.strip().splitlines()) == 1
        assert "Traceback" not in res.output
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", [
        ["classify"], ["sweep", "--dimension", "2", "--p", "1", "--q", "1", "--out-csv", "OUT"]],
        ids=["classify", "sweep"])
    def test_unimodular_constant_refused(self, tmp_path, command):
        # sup |phi_0| = 1, yet the constant 1 sends U^2 into the boundary
        spec = tmp_path / "const.json"
        spec.write_text(json.dumps({"dimension": 2, "components": [
            {"type": "constant", "value": [1, 0]},
            {"type": "series", "terms": [{"exponents": [0, 1], "coeff": [1, 0]}]}]}))
        out = tmp_path / "sweep.csv"
        res = CliRunner().invoke(main, [{"OUT": str(out)}.get(a, a) for a in command]
                                 + ["--spec", str(spec)])
        assert res.exit_code == 2
        assert len(res.stderr.strip().splitlines()) == 1
        assert "refusing: phi_0 is constant, of modulus 1;" in res.stderr
        assert "Traceback" not in res.output
        assert not out.exists()

    def test_classify_refuses_testfn_beyond_the_disk(self, tmp_path):
        # (1 - 0.25) / (1 - 0.5 z_0) reaches modulus 1.5 at z_0 = 1
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps({"dimension": 2, "components": [
            {"type": "testfn", "family": "g", "l": 0, "w": [0.5, 0], "p": 1.0},
            {"type": "series", "terms": [{"exponents": [0, 1], "coeff": [1, 0]}]}]}))
        res = CliRunner().invoke(main, ["classify", "--spec", str(spec)])
        assert res.exit_code == 2
        assert len(res.stderr.strip().splitlines()) == 1
        assert "|phi_0| lies in [1.5, 1.5]" in res.stderr
        assert "Traceback" not in res.output

    def test_classify_refuses_non_self_map(self, tmp_path):
        # 1.02 ((1+z_1)/2)^40 ((1+z_2)/2)^40 equals 1.02 at (1, 1)
        steep = Series.monomial((40, 40), 2).substitute(
            [Series({(0, 0): 0.5, (1, 0): 0.5}, 2), Series({(0, 0): 0.5, (0, 1): 0.5}, 2)])
        spec = tmp_path / "steep.json"
        reports.write_json(spec, dump_spec(
            HoloSelfMap([steep.scale(1.02), Series.coordinate(1, 2).scale(0.5)])))
        res = CliRunner().invoke(main, ["classify", "--spec", str(spec)])
        assert res.exit_code == 2
        assert sum(line.startswith("Error:") for line in res.output.splitlines()) == 1
        assert "|phi_0| lies in [1.02, inf]" in res.output

    def test_classify_extra_detectors(self, tmp_path):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(HALVING_1))
        res = self.run("classify", "--spec", str(spec), "--p", "1.0", "--q", "1.0",
                       "--theorems", "bounded,compact,little-bloch,lip1",
                       "--budget", "20000")
        assert res.exit_code == 0
        assert "little-space: holds" in res.output
        assert "lip1: holds" in res.output

    def test_little_bloch_holds_through_a_moebius_outer(self, tmp_path):
        # [series, Moebius] after [Moebius, series]: the second component is a
        # Composition whose outer is a MoebiusFactor
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"dimension": 2, "components": [
            {"type": "series", "terms": [{"exponents": [1, 0], "coeff": [0.5, 0]},
                                         {"exponents": [0, 1], "coeff": [0.25, 0]}]},
            {"type": "moebius", "a": [0.3, 0], "source": 1}],
            "compose": [{"components": [
                {"type": "moebius", "a": [0.2, 0.1], "source": 0},
                {"type": "series", "terms": [{"exponents": [0, 1], "coeff": [0.5, 0]}]}]}]}))
        res = self.run("classify", "--spec", str(spec), "--theorems", "bounded,little-bloch",
                       "--p", "0.5", "--q", "1", "--p", "1", "--q", "1", "--p", "2", "--q", "0.5")
        assert res.exit_code == 0
        for p, q in (("0.5", "1.0"), ("1.0", "1.0"), ("2.0", "0.5")):
            assert f"(p={p}, q={q}) bounded: holds" in res.output
            assert f"(p={p}, q={q}) little-space: holds [holomorphic-components]" in res.output

    def test_little_bloch_reuses_the_report_estimate(self, tmp_path, monkeypatch):
        # with a classify report at hand, the little-space verdict takes its
        # bounded verdict and estimate: one criterion supremum per cell
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(IDENTITY_2))
        phi = mapspec.load_map(str(spec))
        cells = [(1.0, 1.0), (2.0, 0.5)]
        plan = SamplingPlan(budget=20000)
        expected = [json.loads(json.dumps(criteria.little_bloch_verdict(
            *criteria.boundedness_check(phi, p, q, plan)).to_json())) for p, q in cells]
        calls = []
        estimate = criteria.estimate_supremum
        monkeypatch.setattr(criteria, "estimate_supremum",
                            lambda *a, **k: calls.append(a) or estimate(*a, **k))
        out = tmp_path / "c.json"
        args = [arg for p, q in cells for arg in ("--p", str(p), "--q", str(q))]
        res = self.run("classify", "--spec", str(spec), "--theorems", "bounded,little-bloch",
                       "--budget", "20000", "--out-json", str(out), *args)
        assert res.exit_code == 0
        assert len(calls) == len(cells)
        runs = json.loads(out.read_text())["payload"]["runs"]
        assert [run["little_bloch"] for run in runs] == expected

    @pytest.mark.parametrize("zero", [
        {"type": "constant", "value": [0, 0]},
        {"type": "series", "terms": [{"exponents": [1, 0], "coeff": [0, 0]}]},
    ], ids=["constant", "series"])
    def test_little_bloch_with_a_zero_component(self, tmp_path, zero):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"dimension": 2, "components": [
            zero, {"type": "series", "terms": [{"exponents": [0, 1], "coeff": [0.5, 0]}]}]}))
        res = self.run("classify", "--spec", str(spec), "--theorems", "little-bloch")
        assert res.exit_code == 0
        assert "little-space: holds" in res.output

    def test_classify_rejects_unknown_theorem(self, tmp_path):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(HALVING_1))
        res = CliRunner().invoke(main, ["classify", "--spec", str(spec),
                                        "--theorems", "bounded,little_bloch"])
        assert res.exit_code == 2
        assert "little_bloch" in res.output

    @pytest.mark.parametrize("spec, message", [
        ({"components": HALVING_1["components"]}, "'dimension'"),
        ({"dimension": 1, "components": [
            {"type": "moebius", "a": [1.0, 0.0], "theta": 0.0, "source": 0}]}, "|a| < 1"),
        ({"dimension": 1, "components": [{"type": "moebius", "theta": 0.0}]},
         "components[0].a"),
        ({"dimension": 1, "components": [{"type": "series", "terms": [
            {"exponents": [1]}]}]}, "components[0].terms[0].coeff"),
        ({**HALVING_1, "dimension": "two"}, "dimension"),
        ({"dimension": 1, "components": [{"type": "series"}]}, "components[0].terms"),
        ({"dimension": 1, "components": [{"type": "moebius", "a": [float("nan"), 0]}]},
         "components[0].a"),
        ({"dimension": 2, "components": [
            COMPONENTS["series"], {"type": "moebius", "a": float("nan"), "source": 1}]},
         "components[1].a"),
        ({"dimension": 1, "components": [{"type": "series", "terms": [
            {"exponents": [1], "coeff": [float("inf"), 0]}]}]}, "components[0].terms[0].coeff"),
    ], ids=["no-dimension", "moebius-parameter-on-circle", "moebius-without-a",
            "term-without-coeff", "dimension-not-integer", "series-without-terms",
            "moebius-nan-parameter", "nan-moebius-beside-bounded", "infinite-coefficient"])
    def test_bad_spec_is_one_line_exit_2(self, tmp_path, spec, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        res = CliRunner().invoke(main, ["classify", "--spec", str(path)])
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]

    @pytest.mark.parametrize("args", [
        ["norm", "--testfn", "g", "--tf-w", "abc"],
        ["norm", "--testfn", "g", "--tf-w", "0.5"],
        ["norm", "--testfn", "h", "--dimension", "1"],
        ["norm", "--testfn", "g", "--tf-axis", "3"],
        ["norm", "--testfn", "g", "--p", "-1"],
        ["classify", "--spec", "SPEC", "--p", "-1", "--q", "1"],
        ["classify", "--spec", "SPEC", "--budget", "0"],
        ["norm", "--testfn", "g", "--levels", "-1"],
        ["norm", "--testfn", "g", "--seed", "-1"],
        ["classify", "--spec", "SPEC", "--levels", "-1"],
        ["verify-lemmas", "--levels", "-1"],
        # from 52 levels the outer radius reaches the torus; verify-lemmas adds one
        ["norm", "--testfn", "g", "--levels", "51"],
        ["classify", "--spec", "SPEC", "--levels", "51"],
        ["verify-lemmas", "--levels", "51"],
        ["oracle", "--levels", "51"],
        ["sweep", "--dimension", "1", "--levels", "51", "--out-csv", "OUT"],
        ["verify-lemmas", "--dimension", "0"],
        ["oracle", "--dimension", "0"],
        ["sweep", "--dimension", "0", "--out-csv", "OUT"],
        ["classify", "--spec", "SPEC", "--p", "nan", "--q", "1"],
        ["classify", "--spec", "SPEC", "--p", "inf", "--q", "1"],
        ["norm", "--testfn", "g", "--tf-w", "nan,0"],
        ["oracle", "--p", "nan"],
        ["sweep", "--p", "nan", "--q", "1", "--out-csv", "OUT"],
        ["classify", "--spec", "SPEC", "--theorems", "", "--out-json", "OUT"],
        ["classify", "--spec", "SPEC", "--theorems", ",", "--out-json", "OUT"],
        ["norm", "--testfn", "g", "--kind", "both", "--p", "0.5", "--p", "2",
         "--out-json", "OUT"],
    ], ids=lambda args: " ".join(a or '""' for a in args))
    def test_bad_option_is_one_error_line_exit_2(self, tmp_path, args):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(HALVING_1))
        out = tmp_path / "sweep.csv"
        args = [{"SPEC": str(spec), "OUT": str(out)}.get(a, a) for a in args]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "Traceback" not in res.output
        assert sum(line.startswith("Error:") for line in res.output.splitlines()) == 1
        assert "norm >=" not in res.output  # refused before the first estimate
        assert not out.exists()

    def test_levels_past_50_are_refused_by_name(self):
        res = CliRunner().invoke(main, ["norm", "--testfn", "g", "--levels", "51"])
        assert res.exit_code == 2 and "'--levels'" in res.output and "0<=x<=50" in res.output
        assert CliRunner().invoke(main, ["norm", "--testfn", "g", "--levels", "50"]).exit_code == 0

    @pytest.mark.parametrize("args", [
        ["norm", "--testfn", "g", "--out-json", ""],
        ["norm", "--testfn", "g", "--out-csv", ""],
        ["norm", "--testfn", "g", "--emit-spec", ""],
        ["classify", "--spec", "SPEC", "--out-json", ""],
        ["classify", "--spec", "SPEC", "--out-csv", ""],
        ["verify-lemmas", "--out-json", ""],
        ["verify-lemmas", "--out-csv", ""],
        ["oracle", "--out-json", ""],
        ["sweep", "--dimension", "1", "--p", "1", "--q", "1", "--out-csv", ""],
        ["sweep", "--dimension", "1", "--p", "1", "--q", "1", "--out-csv", "OUT",
         "--out-json", ""],
    ], ids=lambda args: " ".join(a or '""' for a in args))
    def test_empty_output_path_is_one_error_line_exit_2(self, tmp_path, args):
        # an empty path would write nothing, so it is refused before any work
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(HALVING_1))
        out = tmp_path / "sweep.csv"
        args = [{"SPEC": str(spec), "OUT": str(out)}.get(a, a) for a in args]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2
        assert "Traceback" not in res.output
        errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "an output path must not be empty" in errors[0]
        assert "written" not in res.output
        assert not out.exists()

    def test_sweep_writes_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = self.run("sweep", "--dimension", "1", "--p", "0.5", "--q", "0.5",
                       "--out-csv", str(out), "--budget", "8000",
                       "--levels", "10", "--rounds", "4")
        assert res.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sample_index,z,density,path_id,verdict"
        assert len(lines) > 1

    def test_determinism_modulo_timestamp(self, tmp_path):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(SHIFTED_HALF_1))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            res = self.run("classify", "--spec", str(spec), "--p", "1.0", "--q", "1.0",
                           "--seed", "42", "--out-json", str(out), "--budget", "20000")
            assert res.exit_code == 0
            data = json.loads(out.read_text())
            data.pop("timestamp")
            outs.append(json.dumps(data, sort_keys=True))
        assert outs[0] == outs[1]
