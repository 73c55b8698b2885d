"""Command-line tests: every subcommand end to end, the exit-code
contract, and byte determinism of the file outputs."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from manolab.cli import run_cli
from manolab.convergence import (
    ConvergenceRun,
    quadratic_objective,
    run_convergence_experiment,
)


CONFIG_TEXT = """
# small linear-regression run used by the CLI tests
task = linreg
n_samples = 64
in_dim = 6
out_dim = 3
optimizer = mano
total_steps = 40
warmup_steps = 8
batch_size = 16
lr_max = 0.003
cadence = 10
snapshot_every = 10
seed = 0
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return path


def _train(config_path, out):
    code = run_cli(["train", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    return out


class TestTrain:
    def test_writes_trajectory_and_snapshots(self, config_path, tmp_path, capsys):
        out = _train(config_path, tmp_path / "run")
        assert (out / "trajectory.csv").is_file()
        snaps = sorted(p.name for p in (out / "snapshots").iterdir())
        assert snaps[0] == "step000000_layer0.weight.npz"
        assert "trajectory.csv" in capsys.readouterr().out

    def test_byte_deterministic(self, config_path, tmp_path):
        a = _train(config_path, tmp_path / "a")
        b = _train(config_path, tmp_path / "b")
        assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_exits_one_naming_step(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            "task = linreg\nin_dim = 4\nout_dim = 2\noptimizer = sgdm\n"
            "lr_max = 1e30\ntotal_steps = 40\n"
            "warmup_steps = 8\n"
        )
        code = run_cli(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert re.match(r"error: training diverged at step 6: ", captured.err)
        # The records made before the failing step are still written.
        assert captured.out == f"wrote {tmp_path / 'o' / 'trajectory.csv'}\n"
        lines = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("step,train_loss,eval_loss,lr,layer,")
        # cadence 50: only step 0 was recorded, one row per parameter
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "0"]
        assert [line.split(",")[4] for line in lines[1:]] == [
            "layer0.weight", "layer0.bias"
        ]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_an_overflowing_mano_update_exits_one_as_divergence(
        self, tmp_path, capsys
    ):
        """At lr 1e308 the Mano update overflows at step 0 from a finite
        loss and gradients.  Step 0 is a record step, so its update's RMS
        finds the overflow: the run diverges there, naming the layer, and
        the empty trajectory is still written."""
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(
            "task = linreg\nin_dim = 8\nout_dim = 4\noptimizer = mano\n"
            "lr_max = 1e308\ntotal_steps = 20\nwarmup_steps = 1\n"
            "cadence = 1\nweight_decay = 0.0\n"
        )
        out = tmp_path / "o"
        assert run_cli(["train", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: training diverged at step 0: non-finite update of layer0.weight\n"
        )
        assert captured.out == f"wrote {out / 'trajectory.csv'}\n"
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines == ["step,train_loss,eval_loss,lr,layer,grad_norm,grad_var,"
                         "grad_snr,update_rms"]

    def test_negative_seed_exits_one_before_the_output_directory(
        self, tmp_path, capsys
    ):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text(CONFIG_TEXT.replace("seed = 0", "seed = -1"))
        out = tmp_path / "o"
        assert run_cli(["train", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        line = CONFIG_TEXT.splitlines().index("seed = 0") + 1
        assert err == f"error: {cfg}:{line}: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_a_config_the_trainer_rejects_leaves_no_output_directory(
        self, tmp_path, capsys
    ):
        """One sample leaves none to train on once the eval split is taken:
        the trainer refuses the config before it makes snapshots/, and no
        trajectory is written, so --out is never made."""
        cfg = tmp_path / "one.cfg"
        cfg.write_text(CONFIG_TEXT.replace("n_samples = 64", "n_samples = 1"))
        out = tmp_path / "o"
        assert run_cli(["train", "--config", str(cfg), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: n_samples = 1 leaves no training samples\n"
        assert captured.out == ""
        assert not out.exists()

    def test_missing_config_exits_one_naming_path(self, tmp_path, capsys):
        code = run_cli(
            ["train", "--config", str(tmp_path / "ghost.cfg"), "--out", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "ghost.cfg" in err


class TestConverge:
    def test_bound_holds_and_csv_deterministic(self, tmp_path, capsys):
        args = ["converge", "--m", "8", "--steps", "50"]
        code = run_cli(args + ["--out", str(tmp_path / "a")])
        assert code == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out
        observed, bound, ratio = re.search(
            r"bound check: (\S+) <= (\S+) HOLDS \(bound/observed=(\S+)\)", out
        ).groups()
        assert float(ratio) == pytest.approx(float(bound) / float(observed), rel=1e-2)
        code = run_cli(args + ["--out", str(tmp_path / "b")])
        assert code == 0
        assert (
            (tmp_path / "a" / "convergence.csv").read_bytes()
            == (tmp_path / "b" / "convergence.csv").read_bytes()
        )

    def test_csv_header(self, tmp_path):
        run_cli(["converge", "--m", "6", "--steps", "20", "--out", str(tmp_path)])
        first = (tmp_path / "convergence.csv").read_text().splitlines()[0]
        assert first == "step,f,grad_norm,S_t,min_sin_phi"

    def test_stochastic_skips_bound(self, tmp_path, capsys):
        code = run_cli(
            ["converge", "--m", "6", "--steps", "20",
             "--noise", "0.1", "--out", str(tmp_path)]
        )
        assert code == 0
        assert "skipped" in capsys.readouterr().out

    def test_noise_alone_makes_the_run_stochastic(self, tmp_path):
        args = ["converge", "--m", "6", "--steps", "20", "--out"]
        assert run_cli(args + [str(tmp_path / "a")]) == 0
        assert run_cli(args + [str(tmp_path / "b"), "--noise", "0.1"]) == 0
        assert (
            (tmp_path / "a" / "convergence.csv").read_bytes()
            != (tmp_path / "b" / "convergence.csv").read_bytes()
        )

    def test_quadratic_target_follows_step_scale(self, tmp_path):
        """--c places the quadratic's target for that step scale, as the
        library does when told the same scale."""
        code = run_cli(
            ["converge", "--m", "8", "--steps", "50", "--c", "2",
             "--out", str(tmp_path)]
        )
        assert code == 0
        run = run_convergence_experiment(
            quadratic_objective(8, 8, c=2.0), 50, c=2.0
        )
        run.to_csv(tmp_path / "library.csv")
        assert (tmp_path / "convergence.csv").read_bytes() == (
            tmp_path / "library.csv"
        ).read_bytes()

    def test_rectangular_skips_bound(self, tmp_path, capsys):
        code = run_cli(
            ["converge", "--m", "6", "--n", "4", "--steps", "20",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert "skipped" in capsys.readouterr().out

    def test_softmax_objective_runs(self, tmp_path, capsys):
        code = run_cli(
            ["converge", "--objective", "softmax", "--m", "6", "--steps", "20",
             "--out", str(tmp_path)]
        )
        assert code == 0
        assert "bound" in capsys.readouterr().out

    def test_aborted_experiment_exits_one(self, tmp_path, capsys):
        """A one-row parameter has no tangent direction, so the runner
        aborts at step 0: an error line and exit 1, not a traceback."""
        code = run_cli(["converge", "--m", "1", "--steps", "5", "--out", str(tmp_path)])
        assert code == 1
        assert re.match(
            r"error: experiment aborted at step 0: ", capsys.readouterr().err
        )

    @pytest.mark.parametrize("objective", ["quadratic", "softmax"])
    def test_negative_seed_exits_one_naming_it(self, tmp_path, capsys, objective):
        out = tmp_path / "d"
        code = run_cli(["converge", "--objective", objective, "--m", "4",
                        "--steps", "5", "--seed", "-1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("objective", ["quadratic", "softmax"])
    def test_non_positive_c_exits_one_naming_it(self, tmp_path, capsys, objective):
        """Both objectives reject ``--c -1`` under the flag's own name:
        the quadratic objective checks it where it places its target for
        that scale, the run checks it for the softmax one."""
        out = tmp_path / "d"
        code = run_cli(["converge", "--objective", objective, "--m", "4",
                        "--steps", "5", "--c", "-1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: c must be positive, got -1.0\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "verdict, bound, code, line",
        [
            ("violated", 1e-30, 2, r"bound check: \S+ > 1e-30 VIOLATED \(bound/observed="),
            ("vacuous", None, 0, r"bound vacuous: realized gamma is zero$"),
        ],
        ids=["violated", "vacuous"],
    )
    def test_prints_the_runs_verdict(
        self, tmp_path, capsys, monkeypatch, verdict, bound, code, line
    ):
        """The command prints the verdict the run gives and exits by it."""
        monkeypatch.setattr(
            ConvergenceRun, "bound_check", lambda run: (verdict, bound)
        )
        args = ["converge", "--m", "6", "--steps", "20", "--out", str(tmp_path)]
        assert run_cli(args) == code
        assert re.search(line, capsys.readouterr().out, re.MULTILINE)


class TestBench:
    def test_bad_shape_is_named(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = run_cli(["bench", "--shapes", "8,8x", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: bad shape '8x': expected N or MxN\n"
        assert not out.exists()

    def test_json_stable_apart_from_timings(self, tmp_path, capsys):
        args = ["bench", "--shapes", "8,4x16", "--reps", "100", "--seed", "3"]
        assert run_cli(args + ["--out", str(tmp_path / "a")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
        timing_keys = {"mean_ns", "median_ns", "p95_ns"}

        def stripped(path):
            rows = json.loads(path.read_text())
            return [{k: v for k, v in r.items() if k not in timing_keys} for r in rows]

        assert stripped(tmp_path / "a" / "bench.json") == stripped(
            tmp_path / "b" / "bench.json"
        )
        out = capsys.readouterr().out
        assert "median" in out

    def test_kernel_filter(self, tmp_path):
        run_cli(
            ["bench", "--shapes", "8", "--reps", "100", "--kernels", "mano",
             "--out", str(tmp_path)]
        )
        rows = json.loads((tmp_path / "bench.json").read_text())
        assert [r["kernel"] for r in rows] == ["mano"]

    def test_bad_shape_list(self, tmp_path, capsys):
        code = run_cli(["bench", "--shapes", ",", "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_exits_one_naming_it(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = run_cli(["bench", "--shapes", "8", "--seed", "-1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_empty_kernel_list(self, tmp_path, capsys):
        out = tmp_path / "d"
        code = run_cli(["bench", "--shapes", "8", "--kernels", ",", "--out", str(out)])
        assert code == 1
        assert "no kernels given" in capsys.readouterr().err
        assert not out.exists()


class TestSpectraAndGeodesic:
    @pytest.fixture()
    def snapshot_dir(self, config_path, tmp_path):
        out = _train(config_path, tmp_path / "run")
        return out / "snapshots"

    def test_spectra_output(self, snapshot_dir, tmp_path, capsys):
        code = run_cli(
            ["spectra", "--snapshots", str(snapshot_dir), "--out", str(tmp_path / "s")]
        )
        assert code == 0
        reports = json.loads((tmp_path / "s" / "spectra.json").read_text())
        assert len(reports) == 4  # steps 0,10,20,30 for the single weight
        assert reports[0]["layer"] == "layer0.weight"
        sig = reports[0]["sigma_update"]
        assert len(sig) == 3
        assert all(a >= b for a, b in zip(sig, sig[1:]))

    def test_spectra_deterministic(self, snapshot_dir, tmp_path):
        for name in ("a", "b"):
            run_cli(
                ["spectra", "--snapshots", str(snapshot_dir),
                 "--out", str(tmp_path / name)]
            )
        assert (
            (tmp_path / "a" / "spectra.json").read_bytes()
            == (tmp_path / "b" / "spectra.json").read_bytes()
        )

    def test_spectra_of_a_512_wide_layer(self, tmp_path):
        """A hand-written three-step snapshot set for one 512x512 layer
        reports a full spectrum per tensor.  The time is not asserted;
        the Jacobi loop this SVD replaced took 33-37 s per report at
        this width."""
        rng = np.random.default_rng(0)
        snapshots = tmp_path / "snapshots"
        snapshots.mkdir()
        for step in (0, 10, 20):
            np.savez(
                snapshots / f"step{step:06d}_layer0.weight.npz",
                **{k: rng.standard_normal((512, 512))
                   for k in ("theta", "grad", "momentum", "update")},
            )
        code = run_cli(
            ["spectra", "--snapshots", str(snapshots), "--out", str(tmp_path / "s")]
        )
        assert code == 0
        reports = json.loads((tmp_path / "s" / "spectra.json").read_text())
        assert [r["step"] for r in reports] == [0, 10, 20]
        for report in reports:
            for key in ("sigma_grad", "sigma_momentum", "sigma_update"):
                assert len(report[key]) == 512

    def test_geodesic_output(self, snapshot_dir, tmp_path, capsys):
        code = run_cli(
            ["geodesic", "--snapshots", str(snapshot_dir), "--manifold", "oblique",
             "--out", str(tmp_path / "g")]
        )
        assert code == 0
        lines = (tmp_path / "g" / "geodesic.csv").read_text().strip().splitlines()
        assert lines[0] == "layer,pair_index,distance"
        assert len(lines) == 4  # three consecutive pairs
        assert "mean oblique distance" in capsys.readouterr().out

    def test_geodesic_deterministic(self, snapshot_dir, tmp_path):
        for name in ("a", "b"):
            run_cli(
                ["geodesic", "--snapshots", str(snapshot_dir), "--manifold",
                 "sphere", "--out", str(tmp_path / name)]
            )
        assert (
            (tmp_path / "a" / "geodesic.csv").read_bytes()
            == (tmp_path / "b" / "geodesic.csv").read_bytes()
        )

    def test_stiefel_skips_wide_layer_with_its_reason(self, tmp_path, capsys):
        """A 32-64-8 net has a wide first layer, which Stiefel cannot take;
        the tall second layer still gets its trail and the command exits 0."""
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(
            CONFIG_TEXT.replace("in_dim = 6", "in_dim = 32\nhidden = 64")
            .replace("out_dim = 3", "out_dim = 8")
            .replace("total_steps = 40", "total_steps = 31")
        )
        snaps = _train(cfg, tmp_path / "run") / "snapshots"
        capsys.readouterr()
        code = run_cli(
            ["geodesic", "--snapshots", str(snaps), "--manifold", "stiefel",
             "--out", str(tmp_path / "g")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "layer0.weight: skipped: " in out
        assert "at least as many rows as columns" in out
        lines = (tmp_path / "g" / "geodesic.csv").read_text().strip().splitlines()
        assert lines[1:] and all(line.startswith("layer1.weight,") for line in lines[1:])
        assert len(lines) == 4  # snapshots at steps 0, 10, 20, 30

    def test_geodesic_exits_one_when_no_layer_has_a_pair(self, tmp_path, capsys):
        """A run shorter than its snapshot interval leaves one snapshot per
        layer, so every layer is skipped and no distance is written."""
        cfg = tmp_path / "short.cfg"
        cfg.write_text(
            CONFIG_TEXT.replace("total_steps = 40", "total_steps = 3")
            .replace("warmup_steps = 8", "warmup_steps = 1")
        )
        snaps = _train(cfg, tmp_path / "run") / "snapshots"
        capsys.readouterr()
        code = run_cli(
            ["geodesic", "--snapshots", str(snaps), "--manifold", "oblique",
             "--out", str(tmp_path / "g")]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no layer yielded a geodesic distance\n"
        assert "layer0.weight: skipped: need at least two snapshots" in captured.out
        assert "wrote" not in captured.out
        assert not (tmp_path / "g").exists()

    def test_geodesic_skips_a_layer_with_one_snapshot(self, tmp_path, capsys):
        """A layer with a single snapshot has no pair: the library's reason
        is printed as a skip, the other layer's rows are still written and
        the command exits 0."""
        rng = np.random.default_rng(0)
        snapshots = tmp_path / "snapshots"
        snapshots.mkdir()
        for step, layer in ((0, "layer0.weight"), (10, "layer0.weight"),
                            (20, "layer0.weight"), (0, "layer1.weight")):
            np.savez(
                snapshots / f"step{step:06d}_{layer}.npz",
                **{k: rng.standard_normal((5, 3))
                   for k in ("theta", "grad", "momentum", "update")},
            )
        code = run_cli(
            ["geodesic", "--snapshots", str(snapshots), "--manifold", "oblique",
             "--out", str(tmp_path / "g")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "layer1.weight: skipped: need at least two snapshots\n" in out
        assert "layer0.weight: mean oblique distance" in out
        lines = (tmp_path / "g" / "geodesic.csv").read_text().strip().splitlines()
        assert [line.rsplit(",", 1)[0] for line in lines[1:]] == [
            "layer0.weight,0", "layer0.weight,1"
        ]

    def test_missing_snapshot_dir(self, tmp_path, capsys):
        code = run_cli(
            ["spectra", "--snapshots", str(tmp_path / "none"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err


class TestFlops:
    def test_prints_table(self, capsys):
        assert run_cli(["flops", "--m", "16", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "1408" in out  # 11 * 16 * 8
        assert "mano/base" in out

    def test_optional_json(self, tmp_path):
        run_cli(["flops", "--m", "16", "--out", str(tmp_path)])
        row = json.loads((tmp_path / "flops.json").read_text())
        assert row["m"] == 16 and row["n"] == 16
        assert row["mano_flops"] == 11 * 256

    def test_round_count_is_not_an_option(self, capsys):
        """The quintic is counted at ``NS_ITERATIONS`` rounds, the count
        the trainer's Muon steps run."""
        assert run_cli(["flops", "--m", "16", "--ns-iterations", "5"]) == 1


def _python(*args):
    """Run this interpreter on ``args`` with the source tree on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


class TestEntryPoints:
    def test_python_dash_m_runs_the_command_line(self):
        result = _python("-m", "manolab", "flops", "--m", "4")
        assert result.returncode == 0, result.stderr
        header, row = result.stdout.splitlines()
        assert header.split() == [
            "m", "n", "mano", "newton_schulz", "baseline", "mano/base", "ns/base"
        ]
        assert row.split()[:3] == ["4", "4", "176"]  # 11 * 4 * 4

    def test_the_package_root_binds_no_public_name(self):
        """Each name has one import path, the module that defines it:
        a fresh ``import manolab`` binds no public name and imports no
        module of the package."""
        result = _python("-c", (
            "import sys, manolab\n"
            "print(sorted(n for n in vars(manolab) if not n.startswith('_')))\n"
            "print(sorted(m for m in sys.modules if m.startswith('manolab.')))\n"
        ))
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n[]\n"


class TestExitCodes:
    def test_help_is_zero(self, capsys):
        assert run_cli(["--help"]) == 0
        assert "train" in capsys.readouterr().out

    def test_unknown_command_is_one(self, capsys):
        assert run_cli(["orthogonalize"]) == 1

    def test_no_command_is_one(self, capsys):
        assert run_cli([]) == 1


class TestOneParser:
    """The parser is built once, at import, and each call parses afresh."""

    def test_calls_build_no_parser(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("run_cli built an ArgumentParser")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert run_cli(["flops", "--m", "4"]) == 0
        assert run_cli(["flops", "--m", "4"]) == 0

    def test_no_option_carries_over(self, capsys):
        assert run_cli(["flops", "--m", "4", "--n", "8"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["4", "8"]
        assert run_cli(["flops", "--m", "4"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[:2] == ["4", "4"]

    def test_help_then_bad_flag_then_valid_command(self, capsys):
        assert run_cli(["--help"]) == 0
        assert run_cli(["flops", "--m", "4", "--bogus"]) == 1
        assert run_cli(["flops", "--m", "4"]) == 0
