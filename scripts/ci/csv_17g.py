#!/usr/bin/env python3
"""Check that write_csv's column blocks get exactly the bytes of `%.17g`.

write_csv formats float64 column blocks, generate's path, in numpy; on each
numpy version every value must get the bytes "%.17g" gives the row tuples.
The stock generate sample (n=20000, K=200) of each family and mean mode is
written both ways and the files compared; 10**6 random 64-bit patterns, and
10**6 with the exponents 2**-19 ... 2**49 that "%" does not format, are
compared with "%.17g".  Exits 1 on any difference, else 0:

    python -W error scripts/ci/csv_17g.py
"""
import argparse, filecmp, os, sys, tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))
import numpy as np  # noqa: E402
from fglm.datagen import make_ground_truth, sample_dataset  # noqa: E402
from fglm.expfam import family_names, get_family  # noqa: E402
from fglm.harness import write_csv  # noqa: E402


def main(argv=None):
    argparse.ArgumentParser(description="write_csv's column blocks against %.17g").parse_args(argv)
    n, k = 20000, 200  # the benchmark's stock generate, at generate's default model
    header = ["y", "lambda"] + [f"x{j}" for j in range(1, k + 1)]
    unequal = 0
    with tempfile.TemporaryDirectory() as out:
        blocks, rows, path = (os.path.join(out, name) for name in ("blocks.csv", "rows.csv", "v.csv"))
        for family in family_names():
            for mu_mode in ("zero", "bumps"):
                truth = make_ground_truth(2.0, 3.0, get_family(family), k_trunc=k, intercept=0.5,
                                          mu_mode=mu_mode)
                ds = sample_dataset(truth, n, 0)
                write_csv(blocks, header, (ds.y, ds.lambda_true, ds.x))
                table = np.column_stack((ds.y, ds.lambda_true, ds.x))
                write_csv(rows, header, (row.tolist() for row in table))
                same = filecmp.cmp(blocks, rows, shallow=False)
                unequal += not same
                print(f"{family} {mu_mode}: blocks and rows {'equal' if same else 'DIFFER'}")
        rng = np.random.default_rng(31)
        bits = np.frombuffer(rng.bytes(8 * 10**6), dtype=np.uint64)
        sign = rng.integers(0, 2, 10**6, dtype=np.uint64) << np.uint64(63)
        exponent = rng.integers(1023 - 19, 1023 + 50, 10**6, dtype=np.uint64) << np.uint64(52)
        mantissa = rng.integers(0, 2**52, 10**6, dtype=np.uint64)
        values = np.concatenate((bits, sign | exponent | mantissa)).view(np.float64)
        write_csv(path, ["v"], (values,))
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
    assert lines[0] == b"v" and lines[-1] == b"" and len(lines) == values.size + 2
    bad = [(v, line) for v, line in zip(values.tolist(), lines[1:-1]) if line != b"%.17g" % v]
    print(f"{len(bad)} of {values.size} values differ from %.17g: {bad[:5]}")
    return 1 if bad or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
