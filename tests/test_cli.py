"""Command-line interface."""

import pytest

from repro.cli import main


class TestInfoCommands:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in ("Fugaku", "Ookami", "Summit", "Piz Daint", "Perlmutter"):
            assert name in out

    def test_manifest(self, capsys):
        assert main(["manifest"]) == 0
        out = capsys.readouterr().out
        assert "hpx" in out and "kokkos" in out


class TestScale:
    def test_scale_rotating_star(self, capsys):
        code = main(
            ["scale", "--scenario", "rotating_star", "--level", "5",
             "--machine", "Fugaku", "--nodes", "1", "4", "16"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cells/s" in out
        assert out.count("\n") >= 5

    def test_scale_with_gpus(self, capsys):
        code = main(
            ["scale", "--scenario", "dwd", "--level", "12",
             "--machine", "Perlmutter", "--nodes", "1", "8", "--gpus"]
        )
        assert code == 0

    def test_scale_flags(self, capsys):
        code = main(
            ["scale", "--level", "5", "--machine", "Ookami",
             "--nodes", "64", "--no-simd", "--multipole-tasks", "16"]
        )
        assert code == 0

    def test_unknown_machine_raises(self):
        with pytest.raises(KeyError):
            main(["scale", "--machine", "Frontier", "--nodes", "1"])


class TestRunOptions:
    def test_array_backend_flag_is_gone(self, capsys):
        """`repro run` steps the one kernel path the ledger measures; the
        flag that selected another is an argparse error, not a traceback
        from inside the integrator."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--level", "1", "--steps", "1",
                  "--array-backend", "numpy"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --array-backend" in capsys.readouterr().err

    def test_tier_flag_is_gone(self, capsys):
        """One bit gate (serial, DES and process): the flag that chose the
        other tier is an argparse error."""
        with pytest.raises(SystemExit) as exc:
            main(["crosscheck", "--tier", "exact"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tier" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--backend", "process"], ["crosscheck"], ["verify-plans"],
    ])
    @pytest.mark.parametrize("nprocs", ["0", "-2"])
    def test_nprocs_must_be_a_positive_int(self, capsys, command, nprocs):
        """Rejected by the parser — usage line, exit 2, no scenario built
        and no traceback from the worker pool on the first step."""
        with pytest.raises(SystemExit) as exc:
            main(command + ["--nprocs", nprocs])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro" in err and "argument --nprocs" in err

    @pytest.mark.parametrize("argv, option", [
        (["run", "--nodes", "0"], "--nodes"),
        (["scale", "--nodes", "0"], "--nodes"),
        (["scale", "--multipole-tasks", "0"], "--multipole-tasks"),
        (["crosscheck", "--steps", "0"], "--steps"),
    ], ids=["run-nodes", "scale-nodes", "scale-multipole-tasks", "crosscheck-steps"])
    def test_counts_must_be_positive_ints(self, capsys, monkeypatch, argv, option):
        """Node, task and step counts are usage errors from the parser, not
        a ``RunConfig`` traceback after the scenario was built (or, for
        ``crosscheck --steps 0``, a pass that checked nothing)."""
        import repro.cli as cli
        import repro.core.crosscheck as crosscheck

        built = []
        monkeypatch.setattr(
            cli, "_scenario_spec", lambda *args, **kwargs: built.append(args)
        )
        monkeypatch.setattr(
            crosscheck, "crosscheck_scenarios",
            lambda *args, **kwargs: built.append(args) or [],
        )
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: repro" in err and f"argument {option}" in err
        assert "must be a positive integer, got 0" in err
        assert built == []

    @pytest.mark.parametrize("spec, complaint", [
        ("bogus=1", "unknown fault key 'bogus'"),
        ("drop", "is not key=value"),
        ("drop=often", "could not convert string to float"),
    ])
    def test_malformed_faults_spec_is_a_usage_error(self, capsys, spec, complaint):
        """``--faults`` is no longer an option of the real run, so any spec
        is an argparse usage error and is never parsed: the complaint the
        old spec parser gave does not appear."""
        with pytest.raises(SystemExit) as exc:
            main(["run", "--faults", spec])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --faults {spec}" in err
        assert complaint not in err

    @pytest.mark.parametrize("option", ["sanitize", "no-recovery"])
    def test_model_fault_flags_are_gone(self, capsys, option):
        """The task-graph sanitizer and the modelled-network recovery switch
        are not options of the real run: each former flag is an argparse
        error, not a scenario build."""
        flag = f"--{option}"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--level", "1", "--steps", "1", flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.slow
class TestRun:
    def test_run_and_checkpoint(self, capsys, tmp_path):
        chk = tmp_path / "state"
        code = main(
            ["run", "--scenario", "rotating_star", "--level", "2",
             "--steps", "1", "--nodes", "2", "--checkpoint", str(chk)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mass drift" in out
        assert (tmp_path / "state.npz").exists()
        from repro.ioutil import load_checkpoint

        mesh, meta = load_checkpoint(tmp_path / "state.npz")
        assert meta["step"] == 1

    def test_checkpoint_resumes_in_the_rotating_frame(self, tmp_path):
        """``run --checkpoint`` records ``omega``: every CLI scenario is a
        rotating frame, and a resume at ``omega = 0`` is different physics."""
        from tests.oracles.restart import resume
        from repro.scenarios import rotating_star

        chk = tmp_path / "state.npz"
        code = main(
            ["run", "--scenario", "rotating_star", "--level", "1",
             "--steps", "1", "--nodes", "2", "--checkpoint", str(chk)]
        )
        assert code == 0
        omega = rotating_star(level=1).omega
        assert omega != 0.0
        resumed = resume(chk, gravity=False)
        assert resumed.integrator.omega == omega
        assert resumed.integrator.steps_taken == 1

    def test_oversubscription_warning_uses_affinity_mask(
        self, capsys, monkeypatch
    ):
        """`--nprocs` is compared with the cores this process may run on
        (the affinity mask a container or `taskset` narrows), not with the
        machine's `cpu_count`."""
        import repro.cli as cli
        from repro.scenarios.blast import sedov_blast

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(
            cli, "_scenario_spec",
            lambda name, level, build_mesh: sedov_blast(levels=level),
        )
        argv = ["run", "--level", "1", "--steps", "1", "--nodes", "2",
                "--backend", "process", "--nprocs", "2"]
        assert main(argv) == 0
        assert "exceeds the 1 usable core(s)" in capsys.readouterr().err
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        assert main(argv) == 0
        assert "warning" not in capsys.readouterr().err
