"""Tests for the command-line interface."""

import csv
import json

import pytest

from repro.cli import load_dataset, main
from repro.datasets import save_dataset_json
from repro.datasets.examples import paper_example_dataset
from repro.datasets.synthetic import DatasetScale, bibliographic_dataset


@pytest.fixture()
def dirty_dataset_path(tmp_path):
    path = tmp_path / "dirty.json"
    save_dataset_json(paper_example_dataset(), path)
    return str(path)


@pytest.fixture()
def clean_dataset_path(tmp_path):
    dataset = bibliographic_dataset(
        DatasetScale(size1=40, size2=90, num_duplicates=30), seed=4
    )
    path = tmp_path / "clean.json"
    save_dataset_json(dataset, path)
    return str(path)


class TestGenerate:
    def test_generates_clean_clean(self, tmp_path, capsys):
        output = tmp_path / "out.json"
        assert main(["generate", "bibliographic", str(output), "--seed", "1"]) == 0
        payload = json.loads(output.read_text())
        assert payload["task"] == "clean-clean"
        assert "wrote" in capsys.readouterr().out

    def test_generates_dirty(self, tmp_path):
        output = tmp_path / "out.json"
        assert main(
            ["generate", "movies", str(output), "--seed", "1", "--dirty"]
        ) == 0
        payload = json.loads(output.read_text())
        assert payload["task"] == "dirty"

    def test_rejects_unknown_flavor(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nope", str(tmp_path / "x.json")])


class TestLoadDataset:
    def test_sniffs_task(self, dirty_dataset_path, clean_dataset_path):
        assert not load_dataset(dirty_dataset_path).is_clean_clean
        assert load_dataset(clean_dataset_path).is_clean_clean


class TestProfile:
    def test_prints_statistics(self, dirty_dataset_path, capsys):
        # --no-purging keeps the example's "car" block (4 of 6 profiles,
        # which default purging would drop on so tiny a collection).
        assert main(["profile", dirty_dataset_path, "--no-purging"]) == 0
        out = capsys.readouterr().out
        assert "||B||  13" in out  # the worked example's 13 comparisons

    def test_purging_applied_by_default(self, dirty_dataset_path, capsys):
        assert main(["profile", dirty_dataset_path]) == 0
        out = capsys.readouterr().out
        assert "||B||  7" in out  # the oversized "car" block is purged

    def test_alternative_blocking(self, dirty_dataset_path, capsys):
        assert main(
            ["profile", dirty_dataset_path, "--blocking", "qgrams"]
        ) == 0
        assert "||B||" in capsys.readouterr().out


class TestMetablock:
    def test_default_run(self, clean_dataset_path, capsys):
        assert main(["metablock", clean_dataset_path]) == 0
        out = capsys.readouterr().out
        assert "PC=" in out and "overhead" in out

    def test_ratio_zero_disables_filtering(self, dirty_dataset_path, capsys):
        assert main(
            ["metablock", dirty_dataset_path, "--ratio", "0",
             "--algorithm", "WEP", "--scheme", "CBS"]
        ) == 0
        assert "r=off" in capsys.readouterr().out

    def test_writes_comparisons_csv(self, dirty_dataset_path, tmp_path, capsys):
        output = tmp_path / "pairs.csv"
        assert main(
            ["metablock", dirty_dataset_path, "--output", str(output),
             "--algorithm", "RcWNP", "--ratio", "0"]
        ) == 0
        with open(output, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["left_id", "right_id"]
        assert ["p1", "p3"] in rows  # the worked example's first duplicate

    def test_original_backend(self, dirty_dataset_path, capsys):
        assert main(
            ["metablock", dirty_dataset_path, "--backend", "original"]
        ) == 0
        assert "original weighting" in capsys.readouterr().out

    def test_parallel_workers(self, clean_dataset_path, capsys):
        assert main(
            ["metablock", clean_dataset_path, "--workers", "2",
             "--algorithm", "RcWNP"]
        ) == 0
        out = capsys.readouterr().out
        assert "workers=2" in out and "PC=" in out
        # A clean parallel run reports no fault line.
        assert "faults:" not in out

    def test_workers_match_serial_output(
        self, clean_dataset_path, tmp_path
    ):
        serial_csv = tmp_path / "serial.csv"
        parallel_csv = tmp_path / "parallel.csv"
        assert main(
            ["metablock", clean_dataset_path, "--algorithm", "ReWNP",
             "--output", str(serial_csv)]
        ) == 0
        assert main(
            ["metablock", clean_dataset_path, "--algorithm", "ReWNP",
             "--workers", "2", "--output", str(parallel_csv)]
        ) == 0
        assert serial_csv.read_text() == parallel_csv.read_text()


class TestSweep:
    def test_prints_full_grid(self, dirty_dataset_path, capsys):
        assert main(["sweep", dirty_dataset_path, "--ratio", "0"]) == 0
        out = capsys.readouterr().out
        # 8 algorithms x 5 schemes = 40 result lines.
        result_lines = [
            line for line in out.splitlines()
            if any(line.startswith(a) for a in ("CEP", "CNP", "WEP", "WNP", "Re", "Rc"))
        ]
        assert len(result_lines) == 40


class TestGenerateProducts:
    def test_products_flavor(self, tmp_path):
        output = tmp_path / "products.json"
        assert main(["generate", "products", str(output), "--seed", "2"]) == 0
        payload = json.loads(output.read_text())
        assert payload["task"] == "clean-clean"
        assert payload["collection1"]["name"] == "shop-a"


class TestFaultToleranceFlags:
    def test_resume_completes_interrupted_run(
        self, clean_dataset_path, tmp_path, capsys
    ):
        import os
        import subprocess
        import sys
        from pathlib import Path

        from repro.core.faults import FAULTS_ENV, Fault, FaultPlan

        spill_dir = tmp_path / "spill"
        plan = FaultPlan((Fault(site="adopt", op="exit", after=1),))
        env = dict(os.environ)
        env[FAULTS_ENV] = plan.to_json()
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        crashed = subprocess.run(
            [sys.executable, "-m", "repro", "metablock", clean_dataset_path,
             "--workers", "2", "--algorithm", "WNP",
             "--spill-dir", str(spill_dir), "--memory-budget", "4096"],
            env=env,
            capture_output=True,
            timeout=180,
        )
        assert crashed.returncode == 70, crashed.stderr.decode()
        runs = list(spill_dir.glob("run-*"))
        assert len(runs) == 1

        assert main(
            ["metablock", clean_dataset_path, "--resume", str(runs[0])]
        ) == 0
        out = capsys.readouterr().out
        assert "chunks resumed" in out
        assert "r=resumed" in out
        assert (runs[0] / "manifest.json").is_file()


class TestClean:
    def test_sweeps_stale_artifacts(self, tmp_path, capsys):
        dead_run = tmp_path / "run-4194304-dead"
        dead_run.mkdir()

        assert main(["clean", "--spill-dir", str(tmp_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert f"would remove spill run {dead_run}" in out
        assert dead_run.exists()

        assert main(["clean", "--spill-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"removed spill run {dead_run}" in out
        assert not dead_run.exists()

    def test_nothing_to_clean(self, tmp_path, capsys):
        assert main(["clean", "--spill-dir", str(tmp_path)]) == 0
        assert "nothing to clean" in capsys.readouterr().out


class TestTimingsJson:
    def test_writes_timings_payload(self, clean_dataset_path, tmp_path, capsys):
        output = tmp_path / "timings.json"
        assert main(
            ["metablock", clean_dataset_path, "--algorithm", "CNP",
             "--timings-json", str(output)]
        ) == 0
        assert "wrote timings to" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["algorithm"] == "CNP"
        assert payload["effective_workers"] == 1
        assert payload["overhead_seconds"] >= 0
        assert "phase_timings" in payload and "fault_stats" in payload
        assert payload["retained_comparisons"] > 0

    def test_parallel_run_records_phase_timings(
        self, clean_dataset_path, tmp_path
    ):
        output = tmp_path / "timings.json"
        assert main(
            ["metablock", clean_dataset_path, "--algorithm", "WNP",
             "--workers", "2", "--timings-json", str(output)]
        ) == 0
        payload = json.loads(output.read_text())
        assert payload["effective_workers"] == 2
        assert set(payload["phase_timings"]) >= {"dispatch", "merge"}


class TestStream:
    def test_streams_dirty_dataset(self, dirty_dataset_path, capsys):
        assert main(
            ["stream", dirty_dataset_path, "--filtering-ratio", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "upserts" in out and "recall" in out

    def test_streams_clean_clean_with_compaction(
        self, clean_dataset_path, tmp_path, capsys
    ):
        compact_dir = tmp_path / "epochs"
        assert main(
            ["stream", clean_dataset_path, "--scheme", "CBS", "--k", "3",
             "--compact-ratio", "0.4", "--compact-dir", str(compact_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "recall" in out
        # 130 profiles x several tokens crosses the compaction floor, so at
        # least one epoch snapshot lands on disk.
        assert "compaction(s)" in out
        if "0 compaction(s)" not in out:
            assert list(compact_dir.glob("epoch-*"))

    def test_reciprocal_flag(self, dirty_dataset_path, capsys):
        assert main(
            ["stream", dirty_dataset_path, "--reciprocal", "--k", "2"]
        ) == 0
        assert "reciprocal=on" in capsys.readouterr().out


class TestCleanCompactDir:
    def test_sweeps_orphaned_epochs(self, tmp_path, capsys):
        (tmp_path / "epoch-000003.tmp-4194304").mkdir()  # dead owner pid
        (tmp_path / "epoch-000002").mkdir()  # manifest missing

        assert main(
            ["clean", "--compact-dir", str(tmp_path), "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("would remove compaction artifact") == 2
        assert (tmp_path / "epoch-000002").exists()

        assert main(["clean", "--compact-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("removed compaction artifact") == 2
        assert not (tmp_path / "epoch-000002").exists()
        assert not (tmp_path / "epoch-000003.tmp-4194304").exists()

    def test_keeps_healthy_epochs(self, tmp_path, capsys):
        from repro.blockprocessing import DeltaEntityIndex, latest_epoch

        index = DeltaEntityIndex()
        block = index.new_block()
        entity = index.new_entity()
        index.assign(entity, [block])
        index.compact(persist_dir=tmp_path)
        healthy = latest_epoch(tmp_path)

        assert main(["clean", "--compact-dir", str(tmp_path)]) == 0
        assert "nothing to clean" in capsys.readouterr().out
        assert healthy.exists()


class TestServeAndCall:
    def _wait_for(self, predicate, timeout=15.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(0.02)
        raise AssertionError("daemon did not become ready in time")

    def test_serve_call_roundtrip(self, tmp_path, dirty_dataset_path, capsys):
        import threading

        socket_path = tmp_path / "er.sock"
        exit_codes: "list[int]" = []
        daemon = threading.Thread(
            target=lambda: exit_codes.append(
                main(
                    ["serve", "--socket", str(socket_path), "--preload",
                     dirty_dataset_path, "--scheme", "CBS", "--k", "3",
                     "--batch-size", "4"]
                )
            )
        )
        daemon.start()
        try:
            self._wait_for(socket_path.exists)
            base = ["--socket", str(socket_path)]
            assert main(["call", "ping", *base]) == 0
            assert main(["call", "query", *base, "--entity-id", "0"]) == 0
            assert main(
                ["call", "upsert", *base, "--profile",
                 '{"identifier": "fresh", "attributes": {"name": "obama"}}']
            ) == 0
            assert main(["call", "stats", *base]) == 0
            assert main(["call", "shutdown", *base, "--compact"]) == 0
        finally:
            daemon.join(timeout=30)
        assert exit_codes == [0]
        out = capsys.readouterr().out
        assert "serving on" in out
        assert '"pong": true' in out
        assert '"candidates"' in out
        assert '"compacted": true' in out
        assert "served " in out and "requests" in out
        # The shutdown unlinked the socket: nothing leaked.
        assert not socket_path.exists()

    def test_call_requires_an_address(self, capsys):
        assert main(["call", "ping"]) == 2
        assert "give --socket PATH or --port N" in capsys.readouterr().err

    def test_call_reports_connect_failure(self, tmp_path, capsys):
        code = main(
            ["call", "ping", "--socket", str(tmp_path / "nowhere.sock")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_call_rejects_malformed_fields(self, tmp_path, capsys):
        code = main(
            ["call", "ping", "--socket", str(tmp_path / "er.sock"),
             "--fields", "{not json"]
        )
        assert code == 2
        assert "--fields is not valid JSON" in capsys.readouterr().err
