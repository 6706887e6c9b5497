#!/usr/bin/env python3
"""Check aim 2's contract: every stock output keeps its bytes.

The bench-size command lines of the three gated workloads, and the
gaussian study at --jobs 2, run with `-W error` in BASE_TREE and in this
checkout, on one interpreter and with this checkout's perfbench plans.
Stdout and every output file must match, except the files whose digests
this checkout changes in perfbench/reference.json, which must then be
exactly the files that differ.  Exits 0 when that holds, else 1:

    git worktree add --detach ../base <base commit>
    python -W error scripts/ci/stock_bytes.py ../base
"""
import argparse, filecmp, json, os, shutil, subprocess, sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORK = "stock-bytes"  # relative to each tree, so the `wrote ...` lines on stdout match
RUNS = {"study-gaussian": ("study-gaussian", 1), "study-gaussian-j2": ("study-gaussian", 2),
        "certify": ("certify", 1), "csv-roundtrip": ("csv-roundtrip", 1)}


def run_tree(tree):
    """Run every plan at bench size in `tree`: {(workload, command, file): path}."""
    import workloads  # this checkout's plans; the base tree runs the same command lines
    shutil.rmtree(os.path.join(tree, WORK), ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    files = {}
    os.chdir(tree)  # a sized config is written from this tree's stock config
    for name, (workload, jobs) in RUNS.items():
        p = workloads.plan(workload, None, f"{WORK}/{name}").with_jobs(jobs)
        for cmd in p.commands:
            done = subprocess.run([sys.executable, "-W", "error", "-m", "fglm", *cmd.argv],
                                  env=env, stdout=subprocess.PIPE, check=True)
            path = os.path.join(tree, p.out, f"{cmd.label}.stdout")
            with open(path, "wb") as fh:
                fh.write(done.stdout)
            files[name, cmd.label, "stdout"] = path
        owner = {out: cmd.label for cmd in p.commands for out in cmd.outputs}
        for out in os.listdir(p.out):
            if not out.endswith(".stdout"):  # a file no plan lists has no digest
                files[name, owner.get(out, "-"), out] = os.path.join(tree, p.out, out)
    os.chdir(ROOT)
    return files


def bench_digests(tree):
    with open(os.path.join(tree, "perfbench", "reference.json"), encoding="utf-8") as fh:
        bench = json.load(fh).get("bench", {})
    return {(w, c, f): d for w, cmds in bench.items() for c, fs in cmds.items() for f, d in fs.items()}


def broken_rule(differ, old_ref, new_ref):
    """Why the files that differ are not exactly those whose digests changed, or ""."""
    changed = {key for key in old_ref.keys() | new_ref.keys()
               if key[0] in {w for w, _ in RUNS.values()} and old_ref.get(key) != new_ref.get(key)}
    return "" if differ == changed else (f"files that differ: {sorted(differ, key=str)}\n"
                                         f"digests changed in perfbench/reference.json: "
                                         f"{sorted(changed, key=str)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="Stock outputs of this checkout against BASE_TREE's")
    ap.add_argument("base_tree", metavar="BASE_TREE", help="a checkout of the base commit")
    base = os.path.abspath(ap.parse_args(argv).base_tree)
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    old, new = run_tree(base), run_tree(ROOT)
    differ = set()
    for key in sorted(old.keys() | new.keys(), key=str):
        same = key in old and key in new and filecmp.cmp(old[key], new[key], shallow=False)
        print(f"{'same   ' if same else 'DIFFERS'} {key[0]} {key[1]}: {key[2]}")
        if not same:
            differ.add((RUNS[key[0]][0],) + key[1:])
    why = broken_rule(differ, bench_digests(base), bench_digests(ROOT))
    if why:
        sys.exit(why)
    print(f"{len(differ)} files differ, and perfbench/reference.json changed exactly those digests")


if __name__ == "__main__":
    sys.exit(main())
