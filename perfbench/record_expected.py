"""Record the optimum values that the benchmark checks at its default seed.

    python3 perfbench/record_expected.py

Run from the root of a checkout. Solves the first OPS operations of each
synthetic workload and every season of the pack at the default seed, checks
them, and writes perfbench/expected.json. Only rerun it when a change is
meant to alter the optimum values.
"""

import json
import sys
import tempfile

import run

# operations recorded per synthetic workload
OPS = 10


def main() -> int:
    run.import_program()
    import workloads

    recorded = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        with tempfile.TemporaryDirectory(dir=run.HERE) as workdir:
            ctx = wl.setup(workloads.DEFAULT_SEED, workdir)
            ops = [op for u in range(1 if name == "pack-replay-exact" else OPS) for op in wl.unit(ctx, u)]
            recorded[name] = {}
            for key, inputs in ops:
                out = wl.op(ctx, inputs)
                failures = workloads.run_checks(wl, ctx, key, inputs, out, None)
                if failures:
                    print("\n".join(failures), file=sys.stderr)
                    return 1
                recorded[name][key] = wl.values(out)
                print(name, key, recorded[name][key], flush=True)
    with open(workloads.EXPECTED_FILE, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
