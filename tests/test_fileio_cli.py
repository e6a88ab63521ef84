import json
import os
import subprocess
import sys

import contextlib
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import divproj
import divproj.cli

from divproj.cli import main, sample_generator
from divproj.config import RunConfig, load_config, override
from divproj.errors import CertificateMismatch, InputError, UnknownLabelError
from divproj.families import FamilyKind, FamilySpec, eval_member
from divproj.fileio import (
    load_distribution,
    load_family,
    load_linear_family,
    load_sample,
)
from divproj.measures import Alphabet, Distribution


def _refuse_constant(token):
    """``parse_constant`` for strict JSON: NaN and Infinity are not numbers."""
    raise ValueError(f"non-standard JSON token {token}")


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
        return str(path)

    return {
        "p": write("p.json", {"alphabet": ["a", "b"], "probs": [0.5, 0.5]}),
        "q": write("q.json", {"alphabet": ["a", "b"], "probs": [0.25, 0.75]}),
        "q3": write("q3.json", {"alphabet": ["a", "b", "c"], "probs": [1 / 3, 1 / 3, 1 / 3]}),
        "fam": write(
            "fam.json",
            {"kind": "exponential", "alpha": 1.0, "q": [0.5, 0.5], "f": [[0.0, 1.0]], "alphabet": ["a", "b"]},
        ),
        "nn": write(
            "nn.json",
            {
                "kind": "non_normalized_alpha_power_law",
                "alpha": 2.0,
                "q": [0.5, 0.5],
                "f": [[0.0, 1.0]],
                "alphabet": ["a", "b"],
            },
        ),
        "pow": write(
            "pow.json",
            {"kind": "alpha_power_law", "alpha": 2, "q": [0.5, 0.5], "f": [[-0.5, 0.5]], "alphabet": ["a", "b"]},
        ),
        "smp": write(
            "smp.json",
            {"alphabet": ["a", "b"], "observations": ["a", "b", "b", "b", "a", "b", "b", "b", "b", "a"]},
        ),
        "smp_b": write(
            "smp_b.json",
            {"alphabet": ["a", "b"], "observations": ["b", "b", "b", "a", "a", "b", "b", "b", "b", "a"]},
        ),
        "degenerate": write("deg.json", {"alphabet": ["a", "b"], "observations": ["b", "b", "b"]}),
        "lin": write("lin.json", {"f": [[0.0, 1.0, 2.0]], "a": [1.2]}),
        "csv": write("obs.csv", "observation\na\nb\nb\na\n"),
        "csv_bare": write("obs2.csv", "a\nb\nb\nb\n"),
        "cfg": write("run.cfg", "residual_tol = 1e-9\nrng_seed = 42\n# comment\n"),
        "tmp": str(tmp_path),
    }


class TestLoaders:
    def test_distribution(self, files):
        d = load_distribution(files["q"])
        assert d.alphabet.symbols == ("a", "b")
        assert np.allclose(d.probs, [0.25, 0.75])

    def test_missing_key(self, files, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"alphabet": ["a", "b"]}))
        with pytest.raises(InputError, match="probs"):
            load_distribution(str(bad))

    def test_missing_file(self):
        with pytest.raises(InputError, match="not found"):
            load_distribution("/nonexistent/x.json")

    def test_family(self, files):
        spec = load_family(files["nn"])
        assert spec.kind is FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW
        assert spec.alpha == 2.0

    def test_sample_csv_with_header(self, files):
        ab = Alphabet(("a", "b"))
        s = load_sample(files["csv"], alphabet=ab)
        assert s.n == 4
        assert np.array_equal(s.counts, [2, 2])

    def test_sample_csv_bare(self, files):
        ab = Alphabet(("a", "b"))
        s = load_sample(files["csv_bare"], alphabet=ab)
        assert s.n == 4
        assert np.array_equal(s.counts, [1, 3])

    def test_csv_needs_alphabet(self, files):
        with pytest.raises(InputError):
            load_sample(files["csv"])

    def test_sample_alphabet_mismatch(self, files):
        with pytest.raises(InputError, match="alphabet"):
            load_sample(files["smp"], alphabet=Alphabet(("x", "y")))

    def test_unknown_observation_label(self, files, tmp_path):
        bad = tmp_path / "bad_obs.json"
        bad.write_text(json.dumps({"alphabet": ["a", "b"], "observations": ["a", "z"]}))
        with pytest.raises(UnknownLabelError):
            load_sample(str(bad))

    def test_linear_family(self, files):
        lin = load_linear_family(files["lin"])
        assert lin.k == 1 and lin.m == 3

    def test_linear_family_with_the_distribution_alphabet(self, tmp_path):
        path = tmp_path / "lin_abc.json"
        path.write_text(json.dumps({"f": [[1, 0, 0]], "a": [0.6], "alphabet": ["a", "b", "c"]}))
        lin = load_linear_family(str(path), alphabet=Alphabet(("a", "b", "c")))
        assert lin.alphabet.symbols == ("a", "b", "c")


class TestConfig:
    def test_load_and_override(self, files):
        cfg = load_config(files["cfg"])
        assert cfg.residual_tol == 1e-9
        assert cfg.rng_seed == 42
        cfg2 = override(cfg, rng_seed=7)
        assert cfg2.rng_seed == 7 and cfg2.residual_tol == 1e-9

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense = 1\n")
        with pytest.raises(InputError):
            load_config(str(path))

    @pytest.mark.parametrize("key", ["threads", "equivalence_tol", "membership_tol"])
    def test_keys_nothing_read_are_gone(self, tmp_path, key):
        path = tmp_path / "old.cfg"
        path.write_text(f"{key} = 1\n")
        with pytest.raises(InputError, match="unknown config key"):
            load_config(str(path))

    def test_invalid_values_rejected(self):
        with pytest.raises(InputError):
            RunConfig(residual_tol=-1.0)
        with pytest.raises(InputError):
            RunConfig(output_format="yaml")


    @pytest.mark.parametrize(
        "bad", [{"residual_tol": float("nan")}, {"rng_seed": -3}]
    )
    def test_nan_tolerance_and_negative_seed_rejected(self, bad):
        with pytest.raises(InputError):
            RunConfig(**bad)


class TestCLI:
    def run(self, capsys, *args):
        code = main(list(args))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_divergence_identity_exit_zero(self, capsys, files):
        code, out, _ = self.run(capsys, "divergence", "--kind", "kl", "--p", files["p"], "--q", files["p"])
        assert code == 0
        report = json.loads(out)
        assert report["value"] == 0.0
        assert report["seed"] == 0

    def test_sample_out_round_trips_in_drawn_order(self, capsys, files):
        path = os.path.join(files["tmp"], "drawn.json")
        code, out, _ = self.run(
            capsys, "--seed", "7", "sample", "--family", files["fam"], "--theta=0.4", "--n", "60", "--out", path
        )
        assert code == 0
        report = json.loads(out)
        loaded = load_sample(path)
        assert report["out"] == path and report["n"] == loaded.n == 60
        assert loaded.counts.tolist() == report["counts"]
        drawn = sample_generator(load_family(files["fam"]), np.array([0.4]), 60, seed=7)
        assert loaded.observations == drawn.observations

    def test_text_format_prints_a_list_as_json(self, capsys, files):
        code, out, _ = self.run(capsys, "--format", "text", "family", "eval", "--spec", files["fam"], "--theta=0.4")
        assert code == 0
        p = FamilySpec(FamilyKind.EXPONENTIAL, Distribution(Alphabet(("a", "b")), [0.5, 0.5]), [[0.0, 1.0]])
        lines = out.splitlines()
        assert "theta = [0.4]" in lines and "kind = exponential" in lines
        (probs,) = [json.loads(line[len("p_theta = "):]) for line in lines if line.startswith("p_theta = ")]
        assert probs == pytest.approx(eval_member(p, [0.4]).probs.tolist(), rel=1e-11)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("kind", ["dpd", "rae", "renyi"])
    def test_infinite_divergence_prints_null_and_names_it(self, capsys, tmp_path, kind, fmt):
        # P = (1, 0) is not absolutely continuous w.r.t. Q = (0, 1): at alpha
        # < 1 the divergence is +inf, a right answer that JSON cannot spell
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text(json.dumps({"alphabet": ["a", "b"], "probs": [1.0, 0.0]}))
        q.write_text(json.dumps({"alphabet": ["a", "b"], "probs": [0.0, 1.0]}))
        code, out, err = self.run(capsys, "--format", fmt, "divergence", "--kind", kind, "--alpha", "0.5",
                                  "--p", str(p), "--q", str(q))
        assert code == 0 and err == ""
        if fmt == "text":
            assert "value = None" in out.splitlines() and "nonfinite.value = inf" in out.splitlines()
            return
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["value"] is None
        assert report["nonfinite"] == {"value": "inf"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["rae", "renyi"])
    def test_log_powers_that_overflow_warn_nothing(self, capsys, tmp_path, kind):
        # at alpha = 1e308, alpha * log Q(a) = -3e308 overflows; the log-sum terms
        # would saturate to -inf and answer garbage (Renyi gave +inf for the true
        # log 4), so such an alpha is an input error, refused without a warning
        p, q = tmp_path / "p.json", tmp_path / "q.json"
        p.write_text(json.dumps({"alphabet": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]}))
        q.write_text(json.dumps({"alphabet": ["a", "b", "c"], "probs": [0.05, 0.325, 0.625]}))
        code, out, err = self.run(capsys, "divergence", "--kind", kind, "--alpha=1e308", "--p", str(p), "--q", str(q))
        report = json.loads(out, parse_constant=_refuse_constant)
        assert code == 2 and report["error"] == "DomainError"
        assert "overflows at alpha" in report["message"] and "Warning" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_oracles_refuse_log_terms_that_overflow(self, capsys, files, direction):
        where = {
            "forward": ["--q", files["q3"], "--resolution", "20"],
            "reverse": ["--family", files["pow"], "--sample", files["smp"], "--box=-1:1:21"],
        }[direction]
        code, out, err = self.run(capsys, "oracle", direction, "--kind", "rae", "--alpha=1e308", *where)
        report = json.loads(out, parse_constant=_refuse_constant)
        assert code == 2 and report["error"] == "DomainError"
        assert "Warning" not in err
        # the same kernels answer at an alpha whose log terms stay finite
        code, out, _ = self.run(capsys, "oracle", direction, "--kind", "rae", "--alpha=1e300", *where)
        assert code == 0 and json.loads(out, parse_constant=_refuse_constant)["value"] >= 0.0

    def test_oracle_forward_reports_its_constraint_gap(self, capsys, files):
        code, out, _ = self.run(
            capsys, "oracle", "forward", "--kind", "dpd", "--alpha", "2", "--q", files["q3"],
            "--linear", files["lin"], "--resolution", "7",
        )
        assert code == 0
        report = json.loads(out, parse_constant=_refuse_constant)
        lin = json.loads(open(files["lin"], encoding="utf-8").read())
        gap = np.max(np.abs(np.array(lin["f"]) @ np.array(report["p_best"]) - np.array(lin["a"])))
        assert report["constraint_gap"] == pytest.approx(gap, abs=1e-11)
        assert 0.0 < report["constraint_gap"] <= 0.5 / 7

    def test_nan_in_a_report_is_a_numeric_failure(self, capsys, files, monkeypatch):
        monkeypatch.setattr(divproj.cli, "divergence", lambda *args, **kwargs: float("nan"))
        code, out, _ = self.run(capsys, "divergence", "--kind", "kl", "--p", files["p"], "--q", files["p"])
        assert code == 1
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["error"] == "NumericFailure"
        assert report["message"] == "report holds NaN at value"

    def test_estimate_both_routes_reports_gap(self, capsys, files):
        code, out, _ = self.run(
            capsys, "estimate", "--kind", "mle", "--family", files["fam"], "--sample", files["smp"], "--route", "both"
        )
        assert code == 0
        report = json.loads(out)
        assert report["matched_family"] is True
        assert report["route_gap"] <= 1e-6
        assert report["eq"]["theta_star"][0] == pytest.approx(np.log(7 / 3), abs=1e-9)

    def test_numeric_failure_exit_one_with_partial_report(self, capsys, files):
        code, out, _ = self.run(
            capsys, "estimate", "--kind", "mle", "--family", files["fam"], "--sample", files["degenerate"], "--route", "lik"
        )
        assert code == 1
        report = json.loads(out)
        assert report["error"] == "NoConvergence"

    def test_input_error_exit_two(self, capsys, files):
        code, out, err = self.run(capsys, "divergence", "--kind", "kl", "--p", "/missing.json", "--q", files["q"])
        assert code == 2
        assert "not found" in err
        assert json.loads(out)["error"] == "InputError"

    def test_unidentifiable_statistic_exit_two(self, capsys, files, tmp_path):
        # Z absorbs a constant statistic, so no theta_best could mean anything
        fam = tmp_path / "const.json"
        fam.write_text(json.dumps(
            {"kind": "exponential", "q": [0.3, 0.3, 0.4], "f": [[1, 1, 1]], "alphabet": ["a", "b", "c"]}
        ))
        smp = tmp_path / "smp3.json"
        smp.write_text(json.dumps({"alphabet": ["a", "b", "c"], "observations": ["a", "b", "c", "c"]}))
        code, out, _ = self.run(
            capsys, "oracle", "reverse", "--kind", "kl", "--family", str(fam), "--sample", str(smp), "--box=-2:2:201"
        )
        assert code == 2
        report = json.loads(out)
        assert report["error"] == "InvalidDistribution"
        assert "identifiable" in report["message"]

    @pytest.mark.parametrize("alphabet", [["c", "b", "a"], ["x", "y", "z"]])
    def test_linear_family_cannot_relabel_the_alphabet(self, capsys, files, tmp_path, alphabet):
        # P(c) = 0.6 in the file's order must not become P(a) = 0.6
        lin = tmp_path / "relabel.json"
        lin.write_text(json.dumps({"f": [[1, 0, 0]], "a": [0.6], "alphabet": alphabet}))
        code, out, _ = self.run(capsys, "project", "forward", "--alpha", "2", "--q", files["q3"], "--linear", str(lin))
        assert code == 2
        report = json.loads(out)
        assert report["error"] == "InputError" and "alphabet" in report["message"]

    @pytest.mark.parametrize("alpha", ["nan", "-1"])
    @pytest.mark.parametrize("direction", ["forward", "reverse"])
    def test_oracles_validate_alpha(self, capsys, files, direction, alpha):
        where = {
            "forward": ["--q", files["q3"], "--resolution", "20"],
            "reverse": ["--family", files["pow"], "--sample", files["smp"], "--box=-1:1:21"],
        }[direction]
        code, out, _ = self.run(capsys, "oracle", direction, "--kind", "rae", f"--alpha={alpha}", *where)
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    def test_unmatched_estimate_is_labelled(self, capsys, files):
        # the Basu estimator is matched with the non-normalized kind only
        code, out, _ = self.run(capsys, "estimate", "--kind", "basu", "--family", files["pow"], "--sample", files["smp"])
        assert code == 0
        report = json.loads(out)
        assert report["matched_family"] is False
        assert report["note"] == report["eq"]["note"] == "unmatched pair, no equivalence guarantee"

    def test_threads_flag_is_gone(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "2", "divergence", "--kind", "kl", "--p", files["p"], "--q", files["p"]])
        assert exc.value.code == 2

    def test_unknown_subcommand_exit_two(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_project_forward_hand_case(self, capsys, files):
        code, out, _ = self.run(
            capsys, "project", "forward", "--alpha", "2.0", "--q", files["q3"], "--linear", files["lin"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["p_star"] == pytest.approx([7 / 30, 1 / 3, 13 / 30], abs=1e-9)

    def test_project_reverse(self, capsys, files):
        code, out, _ = self.run(
            capsys, "project", "reverse", "--family", files["nn"], "--sample", files["smp"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["in_family"] is True
        assert report["moment_residual"] <= 1e-8

    def test_project_reverse_closure_prints_strict_json(self, capsys, tmp_path):
        # the sample never sees a and the statistic is its indicator: P*(a) = 0
        fam = tmp_path / "closure.json"
        fam.write_text(json.dumps({
            "kind": "non_normalized_alpha_power_law", "alpha": 0.5, "q": [0.2, 0.3, 0.5], "f": [[1, 0, 0]],
            "alphabet": ["a", "b", "c"],
        }))
        smp = tmp_path / "closure_smp.json"
        smp.write_text(json.dumps({"alphabet": ["a", "b", "c"], "observations": list("bbbbcccccc")}))
        code, out, err = self.run(capsys, "project", "reverse", "--family", str(fam), "--sample", str(smp))
        assert code == 0
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["in_family"] is False and report["theta"] is None
        assert report["p_star"][0] == 0.0 and "closure" in report["note"]
        assert err == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["suffstat", "--model", "mpow", "--alpha=1e308", "--family", "{pow}", "--sample", "{smp}"],
            ["suffstat", "--model", "aexp", "--alpha=1e308", "--family", "{pow}", "--sample", "{smp}"],
            ["project", "forward", "--alpha=1e308", "--q", "{q3}", "--linear", "{lin}"],
            ["verify", "pythagoras", "--alpha=1e308", "--q", "{q3}", "--linear", "{lin}"],
            # subnormal powers: 0.5^1030 and (1/3)^659
            ["suffstat", "--model", "mpow", "--alpha=1031", "--family", "{pow}", "--sample", "{smp}"],
            ["project", "forward", "--alpha=660", "--q", "{q3}", "--linear", "{lin}"],
            # the Basu and Jones weights P^(alpha-1), Q^(alpha-1) at theta = 0,
            # and the Hellinger weights P^(1-alpha): 0.5^-1030 overflows
            *(
                ["estimate", "--kind", kind, f"--alpha={alpha}", "--route", route,
                 "--family", "{pow}", "--sample", "{smp}"]
                for kind in ("basu", "jones", "hellinger") for route in ("eq", "lik") for alpha in ("1e308", "1031")
            ),
        ],
    )
    def test_alpha_whose_powers_vanish_exit_two(self, capsys, files, argv):
        code, out, err = self.run(capsys, *(a.format(**files) for a in argv))
        assert code == 2
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["error"] == "DomainError"
        assert "Warning" not in err

    def test_verify_pythagoras(self, capsys, files):
        code, out, _ = self.run(
            capsys,
            "verify", "pythagoras", "--alpha", "0.5", "--q", files["q3"], "--linear", files["lin"], "--trials", "8",
        )
        assert code == 0
        report = json.loads(out)
        assert report["inequality_ok"] and report["equality_ok"]

    def test_suffcheck(self, capsys, files):
        code, out, _ = self.run(
            capsys,
            "suffcheck", "--model", "exp", "--family", files["fam"],
            "--sample-a", files["smp"], "--sample-b", files["smp_b"], "--grid=-1:1:41",
        )
        assert code == 0
        report = json.loads(out)
        assert report["t_equal"] is True
        assert report["max_deviation_from_constant"] <= 1e-9

    def test_oracle_reverse_within_cell(self, capsys, files):
        code, out, _ = self.run(
            capsys,
            "oracle", "reverse", "--kind", "kl", "--family", files["fam"], "--sample", files["smp"], "--box=-2:2:201",
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["theta_best"][0] - np.log(7 / 3)) <= report["cell_width"][0]

    def test_reports_are_byte_identical_under_seed(self, capsys, files):
        args = ["--seed", "5", "sample", "--family", files["fam"], "--theta", "0.4", "--n", "50"]
        code1, out1, _ = self.run(capsys, *args)
        code2, out2, _ = self.run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_twelve_significant_digits(self, capsys, files):
        code, out, _ = self.run(capsys, "divergence", "--kind", "kl", "--p", files["p"], "--q", files["q"])
        report = json.loads(out)
        assert report["value"] == float(f"{0.14384103622589042:.12g}")

    def test_config_file_is_used_and_flags_override(self, capsys, files):
        code, out, _ = self.run(
            capsys, "--config", files["cfg"], "sample", "--family", files["fam"], "--theta", "0.0", "--n", "5"
        )
        assert json.loads(out)["seed"] == 42
        code, out, _ = self.run(
            capsys, "--config", files["cfg"], "--seed", "9", "sample", "--family", files["fam"], "--theta", "0.0", "--n", "5"
        )
        assert json.loads(out)["seed"] == 9

    def test_inadmissible_init_exit_one(self, capsys, files, tmp_path):
        fam = tmp_path / "jones.json"
        fam.write_text(json.dumps({
            "kind": "alpha_power_law", "alpha": 2.0, "q": [0.1, 0.2, 0.3, 0.4],
            "f": [[0.0, 1.0, 2.0, 3.0]], "alphabet": ["a", "b", "c", "d"],
        }))
        smp = tmp_path / "smp4.json"
        smp.write_text(json.dumps({"alphabet": ["a", "b", "c", "d"], "observations": list("aaaabbbccddd")}))
        code, out, _ = self.run(
            capsys, "estimate", "--kind", "jones", "--family", str(fam), "--sample", str(smp), "--init", "5"
        )
        assert code == 1
        report = json.loads(out)
        assert report["error"] == "NoConvergence"
        assert report["best_theta"] == [5.0]

    @pytest.mark.parametrize(
        "payload", [{"f": [[1, 0, 0]], "a": [float("nan")]}, {"f": [[1, float("inf"), 0]], "a": [0.5]}]
    )
    def test_nonfinite_linear_family_exit_two(self, capsys, files, tmp_path, payload):
        lin = tmp_path / "nonfinite.json"
        lin.write_text(json.dumps(payload))
        code, out, _ = self.run(capsys, "project", "forward", "--alpha", "2", "--q", files["q3"], "--linear", str(lin))
        assert code == 2
        assert json.loads(out)["error"] == "InvalidDistribution"

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_pythagoras_needs_a_trial(self, capsys, files, trials):
        code, out, _ = self.run(
            capsys, "verify", "pythagoras", "--alpha", "0.5", "--q", files["q3"], "--linear", files["lin"],
            f"--trials={trials}",
        )
        assert code == 2
        assert json.loads(out)["error"] == "InputError"

    def test_oversized_simplex_grid_exit_two(self, capsys, files):
        # 5e9 points: refused before any array is allocated
        code, out, _ = self.run(
            capsys, "oracle", "forward", "--kind", "dpd", "--alpha", "2", "--q", files["q3"], "--resolution", "100000"
        )
        assert code == 2
        assert "exceeds" in json.loads(out)["message"]

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_empty_simplex_grid_exit_two(self, capsys, files, resolution):
        code, out, _ = self.run(
            capsys, "oracle", "forward", "--kind", "dpd", "--alpha", "2", "--q", files["q3"],
            f"--resolution={resolution}",
        )
        assert code == 2
        assert json.loads(out)["error"] == "InputError"

    @pytest.mark.parametrize("args, message", [
        (["--n", "5", "--rate=-0.5", "--outlier", "a"], "contamination rate"),
        (["--n", "5", "--rate", "nan", "--outlier", "a"], "contamination rate"),
        (["--n", "1000000000000000"], "sample size"),  # refused before the draws are allocated
    ])
    def test_bad_sample_inputs_exit_two(self, capsys, files, args, message):
        code, out, err = self.run(capsys, "sample", "--family", files["fam"], "--theta", "0.1", *args)
        assert code == 2
        report = json.loads(out)
        assert report["error"] == "InputError" and message in report["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, error, message",
        [
            (["oracle", "reverse", "--kind", "kl", "--family", "{fam}", "--sample", "{smp}", "--box=-1:1"],
             "InputError", "lo:hi:steps"),
            (["oracle", "reverse", "--kind", "kl", "--family", "{fam}", "--sample", "{smp}", "--box=-1:1:x"],
             "InputError", "lo:hi:steps"),
            (["suffcheck", "--model", "exp", "--family", "{fam}", "--sample-a", "{smp}", "--sample-b", "{smp_b}",
              "--grid=-1:1:5:7"], "InputError", "lo:hi:steps"),
            (["suffcheck", "--model", "bpow", "--family", "{fam}", "--sample-a", "{smp}", "--sample-b", "{smp_b}",
              "--grid=-1:1:5"], "InputError", "--model must match"),
            (["sample", "--family", "{fam}", "--theta", "0.1", "--n", "5", "--rate", "0.2"], "InputError", "--outlier"),
            (["--config", "{tmp}/no-such.cfg", "divergence", "--kind", "kl", "--p", "{p}", "--q", "{q}"],
             "InputError", "not found"),
            (["--config", "{no_equals}", "divergence", "--kind", "kl", "--p", "{p}", "--q", "{q}"],
             "InputError", "key=value"),
            (["--config", "{bad_value}", "divergence", "--kind", "kl", "--p", "{p}", "--q", "{q}"],
             "InputError", "bad value"),
            (["estimate", "--kind", "mle", "--family", "{bad_json}", "--sample", "{smp}"],
             "InputError", "invalid JSON"),
            (["estimate", "--kind", "mle", "--family", "{array}", "--sample", "{smp}"],
             "InputError", "expected a JSON object"),
            (["estimate", "--kind", "mle", "--family", "{unknown_kind}", "--sample", "{smp}"],
             "InputError", "unknown family kind"),
            (["estimate", "--kind", "jones", "--family", "{alpha_list}", "--sample", "{smp}"],
             "InputError", "must be one number"),
            (["estimate", "--kind", "mle", "--family", "{fam}", "--sample", "{tmp}/no-such.csv"],
             "InputError", "not found"),
            # an --init of the wrong length, on each route
            (["estimate", "--kind", "jones", "--family", "{fam_a}", "--sample", "{smp_a}", "--init", "0.1,0.2"],
             "DomainError", "init has shape (2,), expected (1,)"),
            (["estimate", "--kind", "jones", "--family", "{fam_a}", "--sample", "{smp_a}", "--route", "lik",
              "--init", "0.1,0.2"], "DomainError", "init has shape (2,), expected (1,)"),
            (["estimate", "--kind", "jones", "--family", "{fam_b}", "--sample", "{smp_4}", "--init", "0.1"],
             "DomainError", "init has shape (1,), expected (2,)"),
            (["estimate", "--kind", "jones", "--family", "{fam_b}", "--sample", "{smp_4}", "--route", "lik",
              "--init", "0.1"], "DomainError", "init has shape (1,), expected (2,)"),
        ],
    )
    def test_malformed_arguments_exit_two(self, capsys, files, tmp_path, argv, error, message):
        family = {"kind": "alpha_power_law", "alpha": 2, "q": [0.5, 0.5], "f": [[-0.5, 0.5]], "alphabet": ["a", "b"]}
        malformed = {
            "fam_a.json": json.dumps({**family, "q": [0.2, 0.3, 0.5], "f": [[0, 1, 2]], "alphabet": list("abc")}),
            "smp_a.json": json.dumps({"alphabet": list("abc"), "observations": list("abbccc")}),
            "fam_b.json": json.dumps({
                **family, "q": [0.2, 0.3, 0.2, 0.3], "f": [[0, 1, 2, 0], [1, 0, 0, 0]], "alphabet": list("abcd"),
            }),
            "smp_4.json": json.dumps({"alphabet": list("abcd"), "observations": list("abbcccd")}),
            "no_equals.cfg": "rng_seed 4\n",
            "bad_value.cfg": "max_iterations = many\n",
            "bad_json.json": "{",
            "array.json": "[1, 2]",
            "unknown_kind.json": json.dumps({**family, "kind": "gaussian"}),
            "alpha_list.json": json.dumps({**family, "alpha": [2, 3]}),
        }
        for name, text in malformed.items():
            (tmp_path / name).write_text(text)
            files[name.split(".")[0]] = str(tmp_path / name)
        code, out, err = self.run(capsys, *(a.format(**files) for a in argv))
        assert code == 2
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["error"] == error and message in report["message"]
        assert "Traceback" not in err

    def test_a_certificate_mismatch_reports_its_values(self, capsys, files, monkeypatch):
        def mismatch(*args, **kwargs):
            raise CertificateMismatch("equal-T samples produced a non-constant likelihood difference", values=(0.25, 0.5))

        monkeypatch.setattr(divproj.cli, "factorization_check", mismatch)
        code, out, _ = self.run(
            capsys,
            "suffcheck", "--model", "exp", "--family", files["fam"],
            "--sample-a", files["smp"], "--sample-b", files["smp_b"], "--grid=-1:1:41",
        )
        assert code == 1
        report = json.loads(out, parse_constant=_refuse_constant)
        assert report["error"] == "CertificateMismatch" and report["values"] == [0.25, 0.5]

    @pytest.mark.parametrize("route", ["eq", "lik"])
    def test_underflowing_start_exit_one(self, capsys, files, route):
        # at theta = 800 the member's mass on "a" underflows to 0
        code, out, err = self.run(
            capsys, "estimate", "--kind", "mle", "--family", files["fam"], "--sample", files["smp"],
            "--route", route, "--init", "800",
        )
        assert code == 1
        assert json.loads(out)["error"] == "NoConvergence"
        assert "Traceback" not in err

    def test_non_numeric_entries_exit_two(self, capsys, files, tmp_path):
        bad_p = tmp_path / "bad_p.json"
        bad_p.write_text(json.dumps({"alphabet": ["a", "b"], "probs": [0.2, "y"]}))
        bad_lin = tmp_path / "bad_lin.json"
        bad_lin.write_text(json.dumps({"f": [["x", 0]], "a": [0.5]}))
        for argv, key in (
            (["divergence", "--kind", "kl", "--p", str(bad_p), "--q", files["q"]], "'probs'"),
            (["project", "forward", "--alpha", "2", "--q", files["q"], "--linear", str(bad_lin)], "'f'"),
        ):
            code, out, err = self.run(capsys, *argv)
            assert code == 2
            report = json.loads(out)
            assert report["error"] == "InputError"
            assert key in report["message"]
            assert "Traceback" not in err

    def test_overflowing_grid_steps_exit_two(self, capsys, files):
        code, out, err = self.run(
            capsys, "oracle", "reverse", "--kind", "kl", "--family", files["fam"], "--sample", files["smp"],
            "--box=-1:1:99999999999999999999",
        )
        assert code == 2
        assert json.loads(out)["error"] == "InputError"
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("box", ["nan:1:5", "-1:inf:5", "-1e308:1e308:5"])
    def test_nonfinite_parameter_box_exit_two(self, capsys, files, box):
        for argv in (
            ["oracle", "reverse", "--kind", "kl", "--family", files["fam"], "--sample", files["smp"], f"--box={box}"],
            ["oracle", "reverse", "--kind", "rae", "--alpha", "2", "--family", files["pow"], "--sample", files["smp"],
             f"--box={box}"],
            ["suffcheck", "--model", "exp", "--family", files["fam"], "--sample-a", files["smp"],
             "--sample-b", files["smp_b"], f"--grid={box}"],
        ):
            code, out, err = self.run(capsys, *argv)
            assert code == 2
            report = json.loads(out)
            assert report["error"] == "InputError"
            assert "finite" in report["message"]
            assert "Warning" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", ["1.7e308", "-1.7e308"])
    @pytest.mark.parametrize("kind", [kind.value for kind in FamilyKind])
    @pytest.mark.parametrize("alpha, f", [(2.0, [[-1.5, 1.5]]), (5.0, [[-0.5, 0.5]]), (1.5, [[-0.5, 0.5]])])
    def test_overflowing_tilt_exit_one(self, capsys, files, tmp_path, kind, theta, alpha, f):
        # at alpha = 2 theta.f overflows on both symbols; at alpha = 5 theta.f
        # is finite and only (1 - alpha) theta.f in the bracket overflows; at
        # alpha = 1.5 the brackets are finite and the normalizer's powers of
        # them overflow.  Either way theta is inadmissible
        fam = tmp_path / "wide.json"
        fam.write_text(json.dumps({"kind": kind, "alpha": alpha, "q": [0.5, 0.5], "f": f,
                                   "alphabet": ["a", "b"]}))
        estimate = ["estimate", "--kind", "mle", "--family", str(fam), "--sample", files["smp"], f"--init={theta}"]
        for argv in (
            ["family", "eval", "--spec", str(fam), f"--theta={theta}"],
            ["sample", "--family", str(fam), f"--theta={theta}", "--n", "3"],
            estimate,
            [*estimate, "--route", "lik"],
        ):
            code, out, err = self.run(capsys, *argv)
            assert code == 1 and err == ""
            report = json.loads(out, parse_constant=_refuse_constant)
            if report["error"] == "NoConvergence":
                assert report["message"] == "start is inadmissible"
            elif alpha == 2.0:
                assert report["error"] in ("DomainViolation", "NormalizerNotFound")
                assert report["message"] == "theta.f overflows on some symbols"
            else:
                assert (report["error"], report["message"]) in {
                    ("DomainViolation", "bracket overflows on some symbols"),
                    ("DomainViolation", "bracket non-positive on some symbols"),
                    ("DomainViolation", "member underflows to 0 on some symbols"),  # the exponential kind
                    ("NormalizerNotFound", "total mass stays above 1 on the admissible interval"),
                }

    def test_exact_tie_on_the_reverse_grid_exit_zero(self, capsys, files, tmp_path):
        # theta and -theta tie on this symmetric family and sample
        smp = tmp_path / "even.json"
        smp.write_text(json.dumps({"alphabet": ["a", "b"], "observations": list("aaaaabbbbb")}))
        code, out, _ = self.run(
            capsys, "oracle", "reverse", "--kind", "rae", "--alpha", "2", "--family", files["pow"], "--sample", str(smp),
            "--box=-0.4:0.4:1002",
        )
        assert code == 0
        assert abs(json.loads(out)["theta_best"][0]) == pytest.approx(0.0003996003996, rel=1e-11)

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["family", "eval", "--spec", "{nn}", "--theta=9"], "family.eval"),
            (["estimate", "--kind", "mle", "--family", "{fam}", "--sample", "{degenerate}", "--route", "lik"],
             "estimate"),
            (["project", "forward", "--alpha", "2", "--q", "{q}", "--linear", "{lin}"], "project.forward"),
            (["project", "reverse", "--family", "{fam}", "--sample", "{smp}"], "project.reverse"),
            (["verify", "pythagoras", "--alpha", "2", "--q", "{q3}", "--linear", "{lin}", "--trials=0"],
             "verify.pythagoras"),
            (["oracle", "forward", "--kind", "kl", "--q", "{q3}", "--resolution", "100000"], "oracle.forward"),
            (["oracle", "reverse", "--kind", "kl", "--family", "{fam}", "--sample", "{smp}", "--box=nan:1:5"],
             "oracle.reverse"),
        ],
    )
    def test_failure_report_names_the_subcommand(self, capsys, files, argv, name):
        code, out, _ = self.run(capsys, *(a.format(**files) for a in argv))
        assert code in (1, 2)
        report = json.loads(out)
        assert "error" in report
        assert report["command"] == name

    def test_text_format(self, capsys, files):
        code, out, _ = self.run(
            capsys, "--format", "text", "divergence", "--kind", "dpd", "--alpha", "2", "--p", files["p"], "--q", files["q"]
        )
        assert code == 0
        assert "value = 0.125" in out


class TestSampleGenerator:
    def spec(self):
        return FamilySpec(
            FamilyKind.EXPONENTIAL,
            Distribution(Alphabet(("a", "b")), [0.5, 0.5]),
            np.array([[0.0, 1.0]]),
        )

    def test_deterministic_under_seed(self):
        s1 = sample_generator(self.spec(), [0.3], 100, seed=11)
        s2 = sample_generator(self.spec(), [0.3], 100, seed=11)
        assert s1.observations == s2.observations

    def test_law_of_large_numbers_sanity(self):
        from divproj.families import eval_member

        spec = self.spec()
        s = sample_generator(spec, [0.8], 10000, seed=3)
        p = eval_member(spec, [0.8])
        assert np.max(np.abs(s.empirical.probs - p.probs)) <= 0.05

    def test_contamination_rate(self):
        spec = self.spec()
        s = sample_generator(spec, [0.0], 5000, contamination=(0.5, "b"), seed=1)
        # half the mass is forced onto the outlier on top of the base law
        assert s.empirical.probs[1] > 0.70

    def test_zero_size_rejected(self):
        with pytest.raises(InputError):
            sample_generator(self.spec(), [0.0], 0)

    def test_bad_rate_rejected(self):
        with pytest.raises(InputError):
            sample_generator(self.spec(), [0.0], 10, contamination=(1.5, "b"))


CLI_NUMBERS = ("nan", "inf", "-inf", "0", "-1", "-3", "0.5", "2", "1e308", "-1e308")
CLI_COUNTS = ("-3", "0", "1", "7")  # small, so that no example runs long
CLI_GRID_STEPS = CLI_COUNTS + ("100000", "2000000")  # the last is over the point cap
CLI_VECTORS = ("nan", "inf", "", "0", "5", "-1e308", "0,0", "0.1,0.2,0.3", "x")  # 0 to 3 entries


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_contract")

    def write(name, payload):
        path = tmp / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "p": write("p.json", {"alphabet": ["a", "b", "c"], "probs": [0.2, 0.3, 0.5]}),
        "q": write("q.json", {"alphabet": ["a", "b", "c"], "probs": [1 / 3, 1 / 3, 1 / 3]}),
        "lin": write("lin.json", {"f": [[0.0, 1.0, 2.0]], "a": [1.2]}),
        "fam": write("fam.json", {
            "kind": "alpha_power_law", "alpha": 2.0, "q": [0.2, 0.3, 0.5], "f": [[0.0, 1.0, 2.0]],
            "alphabet": ["a", "b", "c"],
        }),
        "smp": write("smp.json", {"alphabet": ["a", "b", "c"], "observations": list("abbccc")}),
    }


def _cli_argv(f, command, x, n, g, v):
    """argv of one subcommand for a number x, a count n, a grid size g and a
    vector text v.  Values go in as --opt=value, so that argparse accepts a
    leading minus sign: argparse usage errors print only to stderr and are
    not part of this contract."""
    lin = ["--q", f["q"], "--linear", f["lin"]]
    fam = ["--family", f["fam"], "--sample", f["smp"]]
    return {
        "divergence": ["divergence", "--kind", "rae", f"--alpha={x}", "--p", f["p"], "--q", f["q"]],
        "family eval": ["family", "eval", "--spec", f["fam"], f"--theta={v}"],
        "estimate": ["estimate", "--kind", "jones", f"--alpha={x}", *fam, "--route", "both", f"--init={v}"],
        "project forward": ["project", "forward", f"--alpha={x}", *lin],
        "project reverse": ["project", "reverse", *fam],
        "verify pythagoras": ["verify", "pythagoras", f"--alpha={x}", *lin, f"--trials={n}"],
        "suffstat": ["suffstat", "--model", "mpow", f"--alpha={x}", *fam],
        "suffcheck": ["suffcheck", "--model", "mpow", "--family", f["fam"], "--sample-a", f["smp"],
                      "--sample-b", f["smp"], f"--grid={x}:1:{g}"],
        "oracle forward": ["oracle", "forward", "--kind", "dpd", f"--alpha={x}", *lin, f"--resolution={g}"],
        "oracle reverse": ["oracle", "reverse", "--kind", "rae", f"--alpha={x}", *fam, f"--box=-1:{x}:{g}"],
        "sample": ["sample", "--family", f["fam"], f"--theta={v}", f"--n={n}", f"--rate={x}", "--outlier", "a"],
    }[command]


class TestCLIContract:
    """Every subcommand, fed NaN, inf, zero, negative and over-cap values,
    exits 0, 1 or 2 with a JSON report on stdout and no traceback."""

    @settings(
        max_examples=250, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(
            ["divergence", "family eval", "estimate", "project forward", "project reverse", "verify pythagoras",
             "suffstat", "suffcheck", "oracle forward", "oracle reverse", "sample"]
        ),
        flag=st.sampled_from(["", "--seed", "--residual-tol", "--max-iter"]),
        x=st.sampled_from(CLI_NUMBERS),
        n=st.sampled_from(CLI_COUNTS),
        g=st.sampled_from(CLI_GRID_STEPS),
        v=st.sampled_from(CLI_VECTORS),
    )
    def test_exit_code_and_json_report(self, cli_files, command, flag, x, n, g, v):
        glob = {"": [], "--seed": [f"--seed={n}"], "--residual-tol": [f"--residual-tol={x}"],
                "--max-iter": [f"--max-iter={n}"]}[flag]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*glob, *_cli_argv(cli_files, command, x, n, g, v)])
        assert code in (0, 1, 2)
        report = json.loads(out.getvalue(), parse_constant=_refuse_constant)
        assert isinstance(report, dict)
        assert report["command"] == command.replace(" ", ".")
        assert "Traceback" not in err.getvalue()


SCIPY_PROBE = """
import json
import sys
import divproj.cli
after_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
code = divproj.cli.main(sys.argv[1:])
after_run = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps([code, after_import, after_run]), file=sys.stderr)
"""


@pytest.mark.parametrize("command", [
    "divergence --kind kl --p {p} --q {q}",
    "project forward --alpha 2 --q {q3} --linear {lin}",
    "project forward --alpha 2 --q {q3} --linear {face}",
    "project reverse --family {nn} --sample {smp}",
    "verify pythagoras --alpha 0.5 --q {q3} --linear {lin} --trials 5",
    "oracle forward --kind dpd --alpha 2 --q {q3} --linear {lin} --resolution 20",
])
def test_import_and_commands_leave_scipy_unloaded(files, command):
    # the linear family's LPs, the face LPs of a boundary family included,
    # run on numpy alone, so no command loads scipy
    face = os.path.join(files["tmp"], "face.json")
    with open(face, "w", encoding="utf-8") as fh:
        json.dump({"f": [[1.0, 0.0, 0.0]], "a": [0.0]}, fh)
    files = dict(files, face=face)
    src = os.path.dirname(os.path.dirname(os.path.abspath(divproj.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *command.format(**files).split()],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, after_import, after_run = json.loads(proc.stderr.strip().splitlines()[-1])
    assert code == 0
    assert after_import == [] and after_run == []
