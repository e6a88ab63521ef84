import json

import numpy as np
import pytest

from divproj.cli import main, sample_generator
from divproj.config import RunConfig, load_config, override
from divproj.errors import InputError, UnknownLabelError
from divproj.families import FamilyKind, FamilySpec
from divproj.fileio import (
    load_distribution,
    load_family,
    load_linear_family,
    load_sample,
)
from divproj.measures import Alphabet, Distribution


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

    @pytest.mark.parametrize("key", ["threads", "equivalence_tol"])
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

    def test_project_reverse_reads_membership_tol(self, capsys, files, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("membership_tol = 1e-30\n")
        code, out, _ = self.run(
            capsys, "--config", str(cfg), "project", "reverse", "--family", files["nn"], "--sample", files["smp"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["in_family"] is False
        assert report["membership_residual"] > 1e-30

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
