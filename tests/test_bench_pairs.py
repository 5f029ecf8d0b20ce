"""Tests for ``scripts/bench_pairs.py`` on two stub checkouts."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mib": "MiB",
         "throughput_rps": "1/s", "p50_ms": "ms", "p90_ms": "ms"}

#: a ``perfbench/run.py`` that logs which tree ran and prints the two
#: lines the real one prints, with a fixed ``run_s``.
STUB = '''import json, sys
from pathlib import Path
with open({log!r}, "a") as log:
    log.write({name!r} + " " + " ".join(sys.argv[1:]) + "\\n")
print(json.dumps({{"diagnostics": {{"host.cpus": 2}}}}))
metrics = {{name: {{"value": 1.0, "unit": unit}}
           for name, unit in {units!r}.items()}}
metrics["run_s"]["value"] = {run_s!r}
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
                  "metrics": metrics}}))
'''


def _tree(root, name, run_s, log):
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(STUB.format(
        log=str(log), name=name, units=UNITS, run_s=run_s,
    ))
    return tree


def _pairs(tmp_path, parent_s, change_s, pairs=3):
    log = tmp_path / "order.log"
    parent = _tree(tmp_path, "parent", parent_s, log)
    change = _tree(tmp_path, "change", change_s, log)
    out = tmp_path / "records"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(parent), str(change),
         "--workload", "fault_sweep", "--seed", "2", "--pairs", str(pairs),
         "--seconds", "5", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    return done, log.read_text().splitlines(), out


def test_alternates_and_records(tmp_path):
    done, order, out = _pairs(tmp_path, parent_s=0.4, change_s=0.2)
    assert done.returncode == 0, done.stdout + done.stderr
    assert [line.split()[0] for line in order] == [
        "parent", "change", "change", "parent", "parent", "change"
    ]
    assert order[0].split()[1:] == [
        "--workload", "fault_sweep", "--seed", "2", "--seconds", "5.0",
        "--trace", "0",
    ]
    assert sorted(p.name for p in out.iterdir()) == [
        "fault_sweep-seed2-change.jsonl", "fault_sweep-seed2-parent.jsonl"
    ]
    for side in ("parent", "change"):
        lines = (out / f"fault_sweep-seed2-{side}.jsonl").read_text()
        records = [json.loads(line) for line in lines.splitlines()]
        header = records[0]["record"]
        assert header["git_sha"] is None  # the stub trees are not in git
        assert (header["workload"], header["seed"], header["seconds"]) == (
            "fault_sweep", 2, 5.0
        )
        assert header["python"] and header["numpy"] and header["host"]
        assert header["cpus"] >= 1
        assert len(records) == 1 + 2 * 3
        assert sum("metrics" in r for r in records) == 3
    table = {line.split()[0]: line.split()
             for line in done.stdout.splitlines()}
    assert table["run_s"][-1] == "3/3"
    assert "FLAG" not in done.stdout


def test_exit_code_is_the_comparison(tmp_path):
    done, _order, _out = _pairs(tmp_path, parent_s=0.2, change_s=0.4,
                                pairs=1)
    assert done.returncode == 1
    assert "FLAG run_s" in done.stdout
