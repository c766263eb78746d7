"""Self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Checks that tracing wraps every binding of a traced function in every
``smalltime`` module and restores them.  Runs every workload of
BENCHMARK.json through ``run.py --tiny`` untraced and traced, and asserts
that the result line has exactly the contract's keys, that exactly the
metrics named in BENCHMARK.json are emitted, each with the unit and
direction recorded there, and that every check passes.  It then runs each
workload on a second seed, and finally confirms that a directory holding
only BENCHMARK.json and the benchmark's files exits non-zero without
printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(bench, workload, seed, trace):
    proc = run(ROOT, workload, seed, trace)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = {m["name"]: m for m in bench["per_layer" if trace else "end_to_end"]}
    emitted = result["metrics"]
    assert set(emitted) == set(declared), (
        f"missing {sorted(set(declared) - set(emitted))}, "
        f"unnamed {sorted(set(emitted) - set(declared))}")
    printed = {ln.split()[1]: ln.split() for ln in lines if ln.startswith("metric ")}
    for name, meta in declared.items():
        assert emitted[name]["unit"] == meta["unit"], (name, emitted[name], meta)
        assert isinstance(emitted[name]["value"], (int, float)), (name, emitted[name])
        assert printed[name][3:5] == [meta["unit"], meta["better"]], (name, printed[name])
    assert any(ln.startswith("environment ") for ln in lines)
    return result


def check_aliases():
    """Inside ``Tracer.patched`` no smalltime module binds an unwrapped traced function."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import spans
    import workloads  # noqa: F401  (imports every smalltime module it calls)

    def bindings():
        return {(mod.__name__, key): val for mod in list(sys.modules.values())
                if getattr(mod, "__name__", "").split(".")[0] == "smalltime"
                for key, val in vars(mod).items() if callable(val)}

    before = bindings()
    originals = {id(getattr(sys.modules[m], a)) for m, a, _ in spans.TRACED if "." not in a}
    with spans.Tracer().patched():
        during = bindings()
    after = bindings()
    stale = [k for k, v in during.items() if id(v) in originals]
    assert not stale, f"traced functions still bound unwrapped: {stale}"
    assert after == before, "patched() did not restore every binding"


def main():
    check_aliases()
    print("ok  every binding of a traced function is wrapped, then restored")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    for workload in names:
        for trace in (0, 1):
            check_run(bench, workload, 1, trace)
            print(f"ok  {workload} trace={trace}")
        check_run(bench, workload, 2, 0)
        print(f"ok  {workload} second seed")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = run(bare, names[0], 1, 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  bare directory exits", proc.returncode, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
