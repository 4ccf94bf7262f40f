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
        # targets: mostly the closed form, the rest probe or full runs.
        stats = json.loads(stats_json.read_text())
        assert stats["runs_analytic"] > stats["runs_probe"] > 0
        assert stats["probe_copies"] >= stats["runs_probe"]
        assert stats["runs_full"] > 0  # divider forms
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
            f"runs_probe {stats['runs_probe']}, "
            f"probe_copies {stats['probe_copies']}, "
            f"runs_full {stats['runs_full']}"
        ]

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


class TestDistributedFlags:
    def test_parser_accepts_queue_flags(self):
        args = build_parser().parse_args([
            "sweep", "SKL", "--lease-timeout", "2.5", "--incremental",
        ])
        assert args.lease_timeout == 2.5
        assert args.incremental
        args = build_parser().parse_args(["sweep", "--drain"])
        assert args.drain and not args.enqueue_only
        args = build_parser().parse_args(["sweep", "--enqueue-only"])
        assert args.enqueue_only and not args.drain

    def test_drain_and_enqueue_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["sweep", "SKL", "--drain", "--enqueue-only"])

    def test_queue_flags_need_cache(self):
        for flag in ("--drain", "--enqueue-only", "--incremental"):
            with pytest.raises(SystemExit):
                main(["sweep", "SKL", flag, "--no-cache"])

    def test_cache_gc_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_cache_gc_empty_dir(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "kept 0 result(s)" in out

    @pytest.mark.slow
    def test_enqueue_drain_gc_round_trip(self, tmp_path, capsys):
        import json
        import re

        cache_dir = tmp_path / "cache"
        # Coordinator plans the work without measuring anything.
        # (--sample is per stratum, so the unit count is catalog-sized.)
        assert main([
            "sweep", "SKL", "--sample", "5", "--enqueue-only",
            "--cache-dir", str(cache_dir),
        ]) == 0
        out = capsys.readouterr().out
        match = re.search(r"enqueued (\d+) unit\(s\)", out)
        assert match
        enqueued = int(match.group(1))
        assert enqueued > 0
        assert not cache_dir.joinpath("SKL.jsonl").exists()

        # A worker drains the queue into the shared cache.
        stats_json = tmp_path / "drain.json"
        assert main([
            "sweep", "SKL", "--drain", "--cache-dir", str(cache_dir),
            "--stats-json", str(stats_json),
        ]) == 0
        out = capsys.readouterr().out
        assert "drained" in out
        stats = json.loads(stats_json.read_text())
        assert stats["units_leased"] == enqueued
        assert stats["units_acked"] == enqueued

        # The final (warm) sweep collects the XML from the cache only.
        output = tmp_path / "out.xml"
        assert main([
            "sweep", "SKL", "--sample", "5", "--output", str(output),
            "--cache-dir", str(cache_dir),
        ]) == 0
        assert "cache_misses 0," in capsys.readouterr().err

        # ... and is byte-identical to a from-scratch serial sweep.
        reference_dir = tmp_path / "reference-cache"
        reference = tmp_path / "reference.xml"
        assert main([
            "sweep", "SKL", "--sample", "5", "--output",
            str(reference), "--cache-dir", str(reference_dir),
        ]) == 0
        capsys.readouterr()
        assert output.read_bytes() == reference.read_bytes()

        # GC finds nothing live to drop and removes the drained queue.
        gc_json = tmp_path / "gc.json"
        assert main([
            "cache", "gc", "--cache-dir", str(cache_dir),
            "--stats-json", str(gc_json),
        ]) == 0
        assert "removed 1 drained queue(s)" in capsys.readouterr().out
        assert not cache_dir.joinpath("SKL.queue.json").exists()
        rerun = tmp_path / "rerun.xml"
        assert main([
            "sweep", "SKL", "--sample", "5", "--output", str(rerun),
            "--cache-dir", str(cache_dir),
        ]) == 0
        assert "cache_misses 0," in capsys.readouterr().err
        assert rerun.read_bytes() == output.read_bytes()

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
