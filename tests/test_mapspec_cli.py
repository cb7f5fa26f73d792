"""The JSON spec format and the command-line surface."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from blochlab import mapspec
from blochlab.cli import main
from blochlab.sampling import SamplingPlan
from blochlab.testfuncs import make_g

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


class TestMapSpec:
    def test_series_round_trip(self):
        phi = mapspec.load_map(IDENTITY_2)
        z = np.array([0.3 + 0.1j, -0.2])
        np.testing.assert_allclose(phi.val(z), z)
        again = mapspec.load_map(mapspec.dump_map(phi))
        np.testing.assert_allclose(again.val(z), z)

    def test_moebius_permutation_gets_exact_certificate(self):
        spec = {"dimension": 2, "components": [
            {"type": "moebius", "a": [0.3, 0.0], "theta": 0.0, "source": 1},
            {"type": "moebius", "a": [0.0, -0.2], "theta": 1.0, "source": 0},
        ]}
        phi = mapspec.load_map(spec)
        assert phi.certificate.kind == "automorphism"

    def test_testfn_component(self):
        spec = {"dimension": 2,
                "function": {"type": "testfn", "family": "g", "l": 0,
                             "w": [0.5, 0.0], "p": 1.0}}
        f = mapspec.load_function(spec)
        ref = make_g(0, 0.5, 1.0, 2)
        z = [0.2, 0.7j]
        assert f.value(z) == pytest.approx(ref.value(z), rel=1e-14)

    def test_compose_list(self):
        spec = {**HALVING_1, "compose": [HALVING_1]}
        phi = mapspec.load_map(spec)
        assert phi.components[0].value([0.8]) == pytest.approx(0.2)

    def test_function_dump_for_testfn(self):
        f = make_g(1, 0.25j, 2.0, 2)
        d = mapspec.dump_function(f)
        again = mapspec.load_function(d)
        z = [0.1, 0.6]
        assert again.value(z) == pytest.approx(f.value(z), rel=1e-14)

    def test_bad_component_rejected(self):
        with pytest.raises(mapspec.SpecError):
            mapspec.load_function({"dimension": 1, "function": {"type": "mystery"}})

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
        assert data["schema_version"] == 3
        run = data["payload"]["runs"][0]["report"]
        assert run["sup_estimate"]["sup"] == pytest.approx(2.0, abs=1e-9)
        assert run["plan"] == SamplingPlan().to_json()
        header = csv_out.read_text().splitlines()[0]
        assert header == "sample_index,z,density,path_id,verdict"

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

    def test_classify_extra_detectors(self, tmp_path):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(HALVING_1))
        res = self.run("classify", "--spec", str(spec), "--p", "1.0", "--q", "1.0",
                       "--theorems", "bounded,compact,little-bloch,lip1",
                       "--budget", "20000")
        assert res.exit_code == 0
        assert "little-space: holds" in res.output
        assert "lip1: holds" in res.output

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
    ], ids=["no-dimension", "moebius-parameter-on-circle"])
    def test_bad_spec_is_one_line_exit_2(self, tmp_path, spec, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        res = CliRunner().invoke(main, ["classify", "--spec", str(path)])
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]

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
