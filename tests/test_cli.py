"""CLI tests (``python -m repro ...``)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["characterize", "ADD_R64_R64"],
            ["sweep"],
            ["table1"],
            ["case-studies"],
            ["list"],
            ["analyze", "-"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_sweep_cache_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["sweep", "SKL", "--jobs", "4", "--cache-dir", "/tmp/c"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert not args.no_cache
        args = parser.parse_args(["sweep", "--no-cache"])
        assert args.no_cache
        assert args.jobs == 1
        assert args.cache_dir is None  # meaning ~/.cache/repro

    def test_table1_cache_flags(self):
        args = build_parser().parse_args(
            ["table1", "--sample", "10", "--jobs", "2", "--no-cache"]
        )
        assert args.jobs == 2
        assert args.no_cache


class TestCommands:
    def test_characterize(self, capsys):
        assert main(["characterize", "IMUL_R64_R64", "SKL"]) == 0
        out = capsys.readouterr().out
        assert "IMUL_R64_R64 [SKL]" in out
        assert "ports=1*p1" in out
        assert "lat(op2 -> op1) = 4" in out

    def test_list_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "instruction variants" in out

    def test_list_mnemonic(self, capsys):
        assert main(["list", "AESDEC"]) == 0
        out = capsys.readouterr().out
        assert "AESDEC_XMM_XMM" in out
        assert "AES" in out

    def test_list_unknown_mnemonic(self, capsys):
        assert main(["list", "FROB"]) == 1

    def test_analyze_file(self, tmp_path, capsys):
        kernel = tmp_path / "kernel.s"
        kernel.write_text("ADD RAX, RBX\nADD RAX, RCX\n")
        assert main(["analyze", str(kernel), "SKL"]) == 0
        out = capsys.readouterr().out
        assert "cycles/iteration" in out
        assert "loop-carried dependency" in out

    @pytest.mark.slow
    def test_sweep_writes_xml(self, tmp_path, capsys):
        import json

        output = tmp_path / "out.xml"
        cache_dir = tmp_path / "cache"
        stats_json = tmp_path / "cold.json"
        assert main([
            "sweep", "SKL", "--sample", "5", "--output", str(output),
            "--cache-dir", str(cache_dir), "--stats-json", str(stats_json),
        ]) == 0
        assert output.exists()
        text = output.read_text()
        assert "<instruction" in text
        assert "ports=" in text
        assert cache_dir.joinpath("SKL.jsonl").exists()

        # The cold run reports which ladder rung served the unroll
        # targets: mostly the closed form, the rest full runs — every
        # target of each body the closed form declined or found a
        # divider reorder in.
        stats = json.loads(stats_json.read_text())
        declined = (
            stats["declined_moving_addresses"]
            + stats["declined_front_end"]
            + stats["declined_no_period"]
        )
        assert declined > 0  # stack forms
        assert stats["runs_analytic"] > stats["runs_full"] > 0
        assert stats["runs_full"] == 2 * (declined + stats["divider_reorders"])
        simulation = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("simulation: ")
        ]
        assert simulation == [
            f"simulation: cycles_simulated {stats['cycles_simulated']}, "
            f"cycles_extrapolated {stats['cycles_extrapolated']}, "
            f"runs_extrapolated {stats['runs_extrapolated']}, "
            f"runs_analytic {stats['runs_analytic']}, "
            f"cycles_analytic {stats['cycles_analytic']}, "
            f"runs_full {stats['runs_full']}, "
            "declined_moving_addresses "
            f"{stats['declined_moving_addresses']}, "
            f"declined_front_end {stats['declined_front_end']}, "
            f"declined_no_period {stats['declined_no_period']}, "
            f"divider_reorders {stats['divider_reorders']}, "
            f"copies_scheduled {stats['copies_scheduled']}, "
            f"periods_proved {stats['periods_proved']}"
        ]
        # Some closed-form streams stop at a proved timing period.
        assert stats["periods_proved"] > 0

        # A warm re-run serves everything from the cache and emits
        # byte-identical XML.
        rerun = tmp_path / "rerun.xml"
        assert main([
            "sweep", "SKL", "--sample", "5", "--output", str(rerun),
            "--cache-dir", str(cache_dir),
        ]) == 0
        err = capsys.readouterr().err
        assert "cache_misses 0," in err
        assert rerun.read_bytes() == output.read_bytes()


class TestCacheFlags:
    def test_parser_accepts_incremental(self):
        args = build_parser().parse_args([
            "sweep", "SKL", "--incremental", "--jobs", "2",
        ])
        assert args.incremental
        assert args.jobs == 2

    def test_incremental_and_resume_need_cache(self):
        for flag in ("--resume", "--incremental"):
            with pytest.raises(SystemExit, match=flag):
                main(["sweep", "SKL", flag, "--no-cache"])

    def test_cache_gc_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_cache_gc_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kept 0 result(s)" in out

    @pytest.mark.slow
    def test_parallel_sweep_gc_round_trip(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        # A pool sweep fills the cache; a work queue an older version
        # left behind is ignored.
        cache_dir.mkdir()
        cache_dir.joinpath("SKL.queue.json").write_text("{}")
        output = tmp_path / "out.xml"
        assert main([
            "sweep", "SKL", "--sample", "5", "--jobs", "2",
            "--output", str(output), "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()

        # ... byte-identical to a from-scratch serial sweep.
        reference = tmp_path / "reference.xml"
        assert main([
            "sweep", "SKL", "--sample", "5", "--output",
            str(reference), "--no-cache",
        ]) == 0
        capsys.readouterr()
        assert output.read_bytes() == reference.read_bytes()

        # GC finds nothing live to drop, and a warm sweep afterwards
        # still serves everything from the cache.
        assert main(["cache", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "dropped 0 orphaned" in capsys.readouterr().out
        rerun = tmp_path / "rerun.xml"
        assert main([
            "sweep", "SKL", "--sample", "5", "--jobs", "2",
            "--output", str(rerun), "--cache-dir", str(cache_dir),
        ]) == 0
        assert "cache_misses 0," in capsys.readouterr().err
        assert rerun.read_bytes() == output.read_bytes()
        assert cache_dir.joinpath("SKL.queue.json").read_text() == "{}"

    @pytest.mark.slow
    def test_incremental_flag_skips_unchanged(self, tmp_path, capsys):
        import json

        cache_dir = tmp_path / "cache"
        output = tmp_path / "out.xml"
        assert main([
            "sweep", "SKL", "--sample", "5", "--output", str(output),
            "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        rerun = tmp_path / "rerun.xml"
        stats_json = tmp_path / "incr.json"
        assert main([
            "sweep", "SKL", "--sample", "5", "--incremental",
            "--output", str(rerun), "--cache-dir", str(cache_dir),
            "--stats-json", str(stats_json),
        ]) == 0
        assert "incremental_skips " in capsys.readouterr().err
        stats = json.loads(stats_json.read_text())
        assert stats["cache_misses"] == 0
        assert stats["incremental_skips"] == stats["cache_hits"] > 0
        assert rerun.read_bytes() == output.read_bytes()
