"""Command-line interface tests: exit codes, schemas, byte-level reproducibility."""

import hashlib
import json
import math

import jsonschema
import numpy as np
import pytest
from scipy.special import k0

import diwt.cli as cli
from diwt.cli import main, parse_kernel_table, serialize_kernel_table
from diwt.errors import PersistenceError
from diwt.kernels import KernelKind, KernelTable
from diwt.quad import DEFAULT_SPEC
from diwt.specfun import ComplexIndex, WhittakerOrder, whittaker_w_mb


def run_cli(tmp_path, command, cfg, *flags, name="cfg.json", out=None):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = [command, "--config", str(cfg_path), *flags]
    if out is not None:
        argv += ["--out", str(out)]
    return main(argv)


def read_csv(text):
    lines = text.strip("\n").split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SCHEMAS = {**{f"config-{k}": v for k, v in cli._SCHEMAS.items()},
           **{f"params-{k}": v for k, v in cli._EVAL_PARAM_SCHEMAS.items()}}


class TestUsageAndConfig:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate", "--config", "x.json"]) == 2
        capsys.readouterr()

    def test_one_parser_answers_every_request_alike(self, capsys, tmp_path):
        # the parser is built once per process; help, version, usage errors
        # and flags come out of it the same on every request
        from diwt import __version__

        for _ in range(2):
            assert main(["--version"]) == 0
            assert capsys.readouterr().out == f"diwt {__version__}\n"
            assert main(["invert", "--help"]) == 0
            assert "--config" in capsys.readouterr().out
            assert main(["invert", "--seed", "x", "--config", "c.json"]) == 2
            assert "invalid int value" in capsys.readouterr().err
            args = cli._build_parser().parse_args(["eval", "--config", "c.json", "--quiet"])
            assert (args.command, args.quiet, args.seed) == ("eval", True, None)
            args = cli._build_parser().parse_args(["coeff", "--config", "c.json"])
            assert (args.command, args.quiet, args.out) == ("coeff", False, None)
        assert cli._build_parser() is cli._build_parser()

    def test_missing_config_flag(self, capsys):
        assert main(["eval"]) == 2
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "absent.json")]) == 2

    def test_config_not_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["forward", "--config", str(p)]) == 2

    def test_config_root_must_be_object(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]", encoding="utf-8")
        assert main(["forward", "--config", str(p)]) == 2

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = {"mu": 0.0, "coefficients": [1.0], "x_grid": [1.0], "bogus": 1}
        assert run_cli(tmp_path, "forward", cfg) == 2

    def test_eval_parameter_schema(self, tmp_path):
        base = {"function": "W", "parameters": {"mu": 0.0}, "points": [1.0]}
        assert run_cli(tmp_path, "eval", base) == 2  # tau missing
        bad_j = {"function": "J", "parameters": {"n": 0}, "points": [1.0]}
        assert run_cli(tmp_path, "eval", bad_j, name="j.json") == 2
        bad_d = {"function": "D", "parameters": {"nu": 0.0}, "points": [1.0]}
        assert run_cli(tmp_path, "eval", bad_d, name="d.json") == 2

    def test_reversed_n_range(self, tmp_path):
        cfg = {"mu": 0.0, "coefficients": [1.0], "n_range": [3, 1]}
        assert run_cli(tmp_path, "invert", cfg) == 2

    def test_invert_needs_exactly_one_input(self, tmp_path):
        cfg = {"mu": 0.0, "n_range": [1, 1]}
        assert run_cli(tmp_path, "invert", cfg) == 2
        both = {
            "mu": 0.0,
            "n_range": [1, 1],
            "coefficients": [1.0],
            "samples": {"x": [1.0, 2.0], "values": [1.0, 1.0]},
        }
        assert run_cli(tmp_path, "invert", both, name="both.json") == 2

    def test_seed_must_fit_64_bits(self, tmp_path):
        cfg = {"selection": []}
        assert run_cli(tmp_path, "identity", cfg, "--seed", str(2**64)) == 2

    def test_out_of_domain_mu_maps_to_usage(self, tmp_path):
        cfg = {"mu": 0.75, "coefficients": [1.0], "x_grid": [1.0]}
        assert run_cli(tmp_path, "forward", cfg) == 2

    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_schema_passes_its_metaschema(self, name):
        schema = SCHEMAS[name]
        jsonschema.validators.validator_for(schema).check_schema(schema)

    @pytest.mark.parametrize("command, cfg", [
        ("forward", {"mu": 0.0, "coefficients": [1.0], "x_grid": [1.0], "bogus": 1}),
        ("invert", {"mu": 0.0, "coefficients": [1.0], "n_range": [0, "2"]}),
        ("invert", {"mu": "0", "n_range": [1, 1]}),
        ("eval", {"function": "Z", "points": []}),
    ])
    def test_validation_message_is_that_of_jsonschema(self, command, cfg):
        # the cached validator raises what jsonschema.validate raises, twice
        schema = cli._SCHEMAS[command]
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(cfg, schema)
        for _ in range(2):
            with pytest.raises(cli._UsageError) as got:
                cli._validate(cfg, schema, "bad")
            assert str(got.value) == f"bad: {expected.value.message}"


class TestEval:
    def test_whittaker_reduces_to_bessel(self, tmp_path, capsys):
        cfg = {"function": "W", "parameters": {"mu": 0.0, "tau": 0.0},
               "points": [2.0]}
        assert run_cli(tmp_path, "eval", cfg) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["mu", "tau", "x", "value", "error_estimate", "status"]
        want = math.sqrt(2.0 / math.pi) * k0(1.0)
        assert abs(float(rows[0][3]) - want) < 1e-10
        assert rows[0][6 - 1] == "ok"

    def test_erfc_at_zero(self, tmp_path, capsys):
        cfg = {"function": "erfc", "points": [0.0]}
        assert run_cli(tmp_path, "eval", cfg) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert float(rows[0][1]) == 1.0

    def test_parabolic_cylinder_gaussian_value(self, tmp_path, capsys):
        cfg = {"function": "D", "parameters": {"nu": -1.0}, "points": [0.0]}
        assert run_cli(tmp_path, "eval", cfg) == 0
        _, rows = read_csv(capsys.readouterr().out)
        v = float(rows[0][2])
        assert v == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_k0_matches_scipy(self, tmp_path, capsys):
        cfg = {"function": "K0", "points": [1.0, 2.5]}
        assert run_cli(tmp_path, "eval", cfg) == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert float(rows[0][1]) == pytest.approx(k0(1.0), rel=1e-12)
        assert float(rows[1][1]) == pytest.approx(k0(2.5), rel=1e-12)

    def test_partial_failure_marks_row_and_exits_3(self, tmp_path, capsys):
        cfg = {"function": "W", "parameters": {"mu": 0.0, "tau": 1.0},
               "points": [1.0, -3.0, 2.0]}
        assert run_cli(tmp_path, "eval", cfg, "--quiet") == 3
        captured = capsys.readouterr()
        assert captured.err == ""  # --quiet silences the per-point notes
        _, rows = read_csv(captured.out)
        assert [r[-1] for r in rows] == ["ok", "failed", "ok"]
        assert rows[1][3] == "nan" and rows[1][4] == "inf"

    def test_error_estimate_brackets_truth(self, tmp_path, capsys):
        cfg = {"function": "K", "parameters": {"tau": 1.0}, "points": [1.0]}
        assert run_cli(tmp_path, "eval", cfg) == 0
        _, rows = read_csv(capsys.readouterr().out)
        v, est = float(rows[0][2]), float(rows[0][3])
        from diwt.specfun import bessel_k_imag
        assert abs(v - bessel_k_imag(1.0, 1.0)) <= est


class TestTabularCommands:
    def test_forward_single_term(self, tmp_path, capsys):
        cfg = {"mu": 0.25, "coefficients": [1.0], "x_grid": [1.0]}
        assert run_cli(tmp_path, "forward", cfg) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["x", "value"]
        want = whittaker_w_mb(WhittakerOrder(0.25, 1.0), 1.0, scaled=True)
        assert float(rows[0][1]) == pytest.approx(want, rel=1e-12)

    def test_invert_recovers_coefficient(self, tmp_path, capsys):
        cfg = {"mu": 0.25, "coefficients": [1.0], "n_range": [1, 1]}
        assert run_cli(tmp_path, "invert", cfg) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["n", "value", "error_bound"]
        value, bound = float(rows[0][1]), float(rows[0][2])
        assert abs(value - 1.0) <= max(1e-3, bound)

    def test_invert_range_bytes_match_per_index_loop(self, tmp_path):
        # the range runs on shared nodes; the file must not move a bit
        from diwt.transforms import CoefficientSeq, ForwardHandle, TransformParams, invert_series
        cfg = {"mu": 0.25, "coefficients": [1.0], "n_range": [1, 3]}
        out = tmp_path / "inv.csv"
        assert run_cli(tmp_path, "invert", cfg, "--quiet", out=out) == 0
        f = ForwardHandle(CoefficientSeq((1.0,)), 0.25)
        want = "n,value,error_bound\n"
        for n in (1, 2, 3):
            r = invert_series(f, TransformParams(0.25), n)
            want += f"{n},{r.value:.17g},{r.error_bound:.17g}\n"
        assert out.read_bytes() == want.encode("utf-8")

    def test_forward_grid_bytes_match_per_x_series(self, tmp_path):
        # one array call over the grid; x below 0.05, in [0.05, 4) and past
        # 4 sit on different contour abscissas
        from diwt.transforms import CoefficientSeq, forward_series
        xs = [0.01, 0.04, 0.3, 1, 2.5, 3.99, 4.0, 7.3, 12.0, 0.3]
        cfg = {"mu": -0.25, "coefficients": [1.0, -0.5, 0.25], "x_grid": xs}
        out = tmp_path / "fwd.csv"
        assert run_cli(tmp_path, "forward", cfg, "--quiet", out=out) == 0
        seq = CoefficientSeq((1.0, -0.5, 0.25))
        want = "x,value\n" + "".join(
            f"{float(x):.17g},{forward_series(seq, -0.25, float(x)):.17g}\n" for x in xs)
        assert out.read_bytes() == want.encode("utf-8")
        for bad in (0.0, -2.0):
            cfg["x_grid"] = [1.0, bad, 3.0]
            assert run_cli(tmp_path, "forward", cfg, "--quiet", name="bad.json") == 2

    def test_coeff_from_profile_closed_form(self, tmp_path, capsys):
        cfg = {"mu": 0.25, "psi": {"sine": [1.0]}, "n_range": [1, 2]}
        assert run_cli(tmp_path, "coeff", cfg) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["n", "value"]
        want = 4.0 ** 0.75 * math.pi ** 2 / math.sinh(math.pi)
        assert float(rows[0][1]) == pytest.approx(want, rel=1e-8)
        assert abs(float(rows[1][1])) < 1e-8 * want

    def test_synthesize_matches_library(self, tmp_path, capsys):
        from diwt.transforms import CoefficientSeq, synthesize_series
        cfg = {"mu": 0.0, "coefficients": [1.0, -0.5], "x_grid": [1.0]}
        assert run_cli(tmp_path, "synthesize", cfg) == 0
        _, rows = read_csv(capsys.readouterr().out)
        want = synthesize_series(CoefficientSeq((1.0, -0.5)), 0.0, 1.0).value
        assert float(rows[0][1]) == pytest.approx(want, rel=1e-12)

    def test_invert_from_samples_runs(self, tmp_path, capsys):
        xs = np.geomspace(1e-3, 30.0, 200)
        cfg = {
            "mu": 0.0,
            "n_range": [1, 1],
            "samples": {"x": list(xs), "values": [0.0] * len(xs)},
        }
        assert run_cli(tmp_path, "invert", cfg, "--quiet") == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert float(rows[0][1]) == 0.0


class TestRoundtripCommand:
    def test_theorem1_passes(self, tmp_path, capsys):
        cfg = {"theorem": 1, "mu": 0.25, "coefficients": [1.0],
               "n_range": [1, 1]}
        assert run_cli(tmp_path, "roundtrip", cfg) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall_pass"] is True
        row = doc["rows"][0]
        assert row["pass"] and row["error"] <= max(1e-3, row["bound"])

    def test_theorem2_passes(self, tmp_path, capsys):
        cfg = {"theorem": 2, "mu": 0.0, "psi": {"sine": [1.0]},
               "x_grid": [1.0, 2.0]}
        assert run_cli(tmp_path, "roundtrip", cfg) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall_pass"] is True
        assert all(r["rel_error"] <= 1e-4 for r in doc["rows"])

    def test_empty_sequence_trivial_pass(self, tmp_path, capsys):
        cfg = {"theorem": 1, "mu": 0.25, "coefficients": []}
        assert run_cli(tmp_path, "roundtrip", cfg) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == [] and doc["overall_pass"] is True

    def test_unreachable_tolerance_fails_with_exit_1(self, tmp_path, capsys):
        cfg = {"theorem": 2, "mu": 0.0, "psi": {"sine": [1.0]},
               "x_grid": [1.0], "tolerance": 1e-30}
        assert run_cli(tmp_path, "roundtrip", cfg) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall_pass"] is False

    @pytest.mark.parametrize("x", [2.0, 10.0])
    def test_tolerance_below_roundoff_fails_on_exact_agreement(self, tmp_path, capsys, x):
        # psi = sin u: at these x synthesis and profile can coincide exactly
        cfg = {"theorem": 2, "mu": 0.0, "psi": {"sine": [1.0]},
               "x_grid": [x], "tolerance": 1e-30}
        assert run_cli(tmp_path, "roundtrip", cfg) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["overall_pass"] is False
        assert doc["rows"][0]["pass"] is False

    def test_theorem1_requires_coefficients(self, tmp_path):
        cfg = {"theorem": 1, "mu": 0.25}
        assert run_cli(tmp_path, "roundtrip", cfg) == 2

    def test_theorem2_requires_psi(self, tmp_path):
        cfg = {"theorem": 2, "mu": 0.0}
        assert run_cli(tmp_path, "roundtrip", cfg) == 2


class TestIdentityCommand:
    FAST = ["kernel-index-relation", "kl-reduction"]

    def test_empty_selection(self, tmp_path, capsys):
        assert run_cli(tmp_path, "identity", {"selection": []}) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_reports_and_determinism(self, tmp_path, capsys):
        cfg = {"selection": self.FAST, "trials": 2, "seed": 9}
        assert run_cli(tmp_path, "identity", cfg) == 0
        first = capsys.readouterr().out
        docs = json.loads(first)
        assert len(docs) == 4 and all(d["pass"] for d in docs)
        assert [d["check_id"] for d in docs] == \
            [self.FAST[0]] * 2 + [self.FAST[1]] * 2
        assert run_cli(tmp_path, "identity", cfg, name="again.json") == 0
        assert capsys.readouterr().out == first

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg_a = {"selection": self.FAST, "seed": 7}
        assert run_cli(tmp_path, "identity", cfg_a, name="a.json") == 0
        out_a = capsys.readouterr().out
        cfg_b = {"selection": self.FAST, "seed": 3}
        assert run_cli(tmp_path, "identity", cfg_b, "--seed", "7",
                       name="b.json") == 0
        assert capsys.readouterr().out == out_a

    def test_unknown_check_id(self, tmp_path, capsys):
        assert run_cli(tmp_path, "identity", {"selection": ["nope"]}) == 2
        capsys.readouterr()


def make_table(values, failures=()):
    return KernelTable(
        kind=KernelKind.ERFC_COS,
        mu=0.0,
        indices=(ComplexIndex(1.0, 0.0),),
        grid=(1.0, 2.0),
        values=(values,),
        achieved_tolerances=((1e-15, float("inf") if failures else 2e-15),),
        failures=failures,
        meta={"tool_version": cli.__version__, "quad": DEFAULT_SPEC.as_dict()},
    )


class TestKernelTableSerialization:
    def test_round_trip_is_byte_identity(self):
        table = make_table((0.25, -0.125))
        text = serialize_kernel_table(table)
        again = serialize_kernel_table(parse_kernel_table(text))
        assert again == text

    def test_failure_rows_round_trip(self):
        table = make_table((0.25, float("nan")), failures=((0, 1, "boom"),))
        text = serialize_kernel_table(table)
        parsed = parse_kernel_table(text)
        assert len(parsed.failures) == 1 and parsed.failures[0][:2] == (0, 1)
        assert serialize_kernel_table(parsed) == text

    @pytest.mark.parametrize("mangle", [
        lambda t: t.replace("diwt-kernel-table", "diwt-kernel-tables"),
        lambda t: t.replace(cli.__version__, "9.9.9", 1),
        lambda t: t.replace("# kind: erfc-cos", "# kind: mystery"),
        lambda t: t.replace("# mu: 0", "# mu: zero"),
        lambda t: t.replace("max_refinements", "refinements"),
        lambda t: t.replace("index_re,index_im", "re,im"),
        lambda t: "\n".join(t.split("\n")[:3]),
        lambda t: t.replace(",ok", ",maybe"),
        lambda t: t + "1,0,3,1.0\n",
    ])
    def test_corruption_is_rejected(self, mangle):
        text = serialize_kernel_table(make_table((0.25, -0.125)))
        with pytest.raises(PersistenceError):
            parse_kernel_table(mangle(text))

    def test_nonzero_imag_for_real_kernel_rejected(self):
        text = serialize_kernel_table(make_table((0.25, -0.125)))
        bad = text.replace("0.25,0,", "0.25,0.5,")
        with pytest.raises(PersistenceError):
            parse_kernel_table(bad)

    def test_inconsistent_grid_rejected(self):
        text = serialize_kernel_table(make_table((0.25, -0.125)))
        lines = text.strip("\n").split("\n")
        second = [r.replace("1,0,", "2,0,", 1) for r in lines[-2:]]
        second[1] = second[1].replace("2,0,2,", "2,0,3,", 1)
        with pytest.raises(PersistenceError):
            parse_kernel_table("\n".join(lines + second) + "\n")


class TestKernelTableCommand:
    def test_build_then_load_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        build = {"action": "build", "kind": "erfc-cos", "mu": 0.0,
                 "indices": [1, 2], "x_grid": [1.0, 2.0], "path": str(path)}
        assert run_cli(tmp_path, "kernel-table", build, "--quiet") == 0
        written = path.read_bytes()
        assert written.startswith(b"# diwt-kernel-table ")

        out = tmp_path / "reloaded.csv"
        load = {"action": "load", "path": str(path)}
        assert run_cli(tmp_path, "kernel-table", load, "--quiet",
                       name="load.json", out=out) == 0
        assert out.read_bytes() == written

    def test_complex_index_build(self, tmp_path, capsys):
        build = {"action": "build", "kind": "cylinder-cos", "mu": 0.0,
                 "indices": [[1.0, -0.5]], "x_grid": [1.0]}
        out = tmp_path / "cc.csv"
        assert run_cli(tmp_path, "kernel-table", build, "--quiet", out=out) == 0
        table = parse_kernel_table(out.read_text())
        assert isinstance(table.values[0][0], complex)
        assert table.values[0][0].imag != 0.0

    def test_failed_entry_flagged_and_exit_3(self, tmp_path, monkeypatch, capsys):
        # contract test: a build that cannot converge still persists the
        # table with the bad entry flagged; injection keeps it independent
        # of any particular hard integrand
        bad = make_table((0.25, float("nan")), failures=((0, 1, "injected"),))
        monkeypatch.setattr(cli, "build_kernel_table", lambda *a: bad)
        path = tmp_path / "partial.csv"
        build = {"action": "build", "kind": "erfc-cos", "mu": 0.0,
                 "indices": [1], "x_grid": [1.0, 2.0], "path": str(path)}
        assert run_cli(tmp_path, "kernel-table", build, "--quiet") == 3
        text = path.read_text()
        assert text.count(",failed") == 1
        parsed = parse_kernel_table(text)
        assert len(parsed.failures) == 1
        capsys.readouterr()

    def test_tampered_file_exits_5(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        build = {"action": "build", "kind": "erfc-cos", "mu": 0.0,
                 "indices": [1], "x_grid": [1.0], "path": str(path)}
        assert run_cli(tmp_path, "kernel-table", build, "--quiet") == 0
        tampered = path.read_text().replace(cli.__version__, "0.0.0", 1)
        path.write_text(tampered)
        load = {"action": "load", "path": str(path)}
        assert run_cli(tmp_path, "kernel-table", load, name="load.json") == 5
        capsys.readouterr()

    def test_missing_table_exits_5(self, tmp_path, capsys):
        load = {"action": "load", "path": str(tmp_path / "absent.csv")}
        assert run_cli(tmp_path, "kernel-table", load) == 5
        capsys.readouterr()

    def test_cache_dir_default_location(self, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "cache"
        monkeypatch.setenv("DIWT_CACHE_DIR", str(cache))
        build = {"action": "build", "kind": "erfc-cos", "mu": 0.0,
                 "indices": [1], "x_grid": [1.0]}
        assert run_cli(tmp_path, "kernel-table", build, "--quiet") == 0
        files = list(cache.glob("erfc-cos-*.csv"))
        assert len(files) == 1
        parse_kernel_table(files[0].read_text())
        capsys.readouterr()


class TestManifestsAndReproducibility:
    def test_manifest_digest_matches_output(self, tmp_path):
        out = tmp_path / "eval.csv"
        cfg = {"function": "erfc", "points": [0.0, 0.5, 1.0]}
        assert run_cli(tmp_path, "eval", cfg, "--quiet", out=out) == 0
        manifest = json.loads((tmp_path / "eval.csv.manifest.json").read_text())
        assert manifest["tool_version"] == cli.__version__
        assert manifest["command"] == "eval"
        assert manifest["outputs"][str(out)] == sha256(out.read_bytes())
        assert manifest["quad"]["precision"] == "double"
        assert manifest["wall_time_s"] >= 0.0

    def test_replay_from_manifest_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "first.csv"
        cfg = {"function": "K", "parameters": {"tau": 0.5},
               "points": [0.7, 1.3, 2.9]}
        assert run_cli(tmp_path, "eval", cfg, "--quiet", out=out1) == 0
        manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())

        out2 = tmp_path / "second.csv"
        assert run_cli(tmp_path, "eval", manifest["config"], "--quiet",
                       name="replay.json", out=out2) == 0
        assert out2.read_bytes() == out1.read_bytes()
        replay = json.loads((tmp_path / "second.csv.manifest.json").read_text())
        assert replay["outputs"][str(out2)] == manifest["outputs"][str(out1)]

    def test_precision_flag_lands_in_manifest(self, tmp_path):
        out = tmp_path / "ext.csv"
        cfg = {"function": "erfc", "points": [0.25]}
        assert run_cli(tmp_path, "eval", cfg, "--quiet", "--precision",
                       "extended", out=out) == 0
        manifest = json.loads((tmp_path / "ext.csv.manifest.json").read_text())
        assert manifest["quad"]["precision"] == "extended"
        assert manifest["config"]["precision"] == "extended"

    def test_json_verdict_rerun_identical(self, tmp_path):
        cfg = {"theorem": 1, "mu": 0.25, "coefficients": []}
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        assert run_cli(tmp_path, "roundtrip", cfg, "--quiet", out=out1) == 0
        assert run_cli(tmp_path, "roundtrip", cfg, "--quiet", name="c2.json",
                       out=out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
