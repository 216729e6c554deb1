"""Regenerate reference.json, the test MAE each seed must reproduce.

    python3 perfbench/reference.py FIRST_SEED LAST_SEED

For every seed in the range, runs one full pass of pipeline-365d and the
test-split rolling forecast of forecast-120d, and records their test MAE.
The benchmark fails an operation whose test MAE for a recorded seed differs
from the reference by more than its tolerance. Regenerate only when a change
is meant to alter predictions, and say so where the change is described.
"""
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import rtbench  # noqa: E402
import rttrace  # noqa: E402
from rtcast import forecast  # noqa: E402


def main(first, last):
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench-work", f"reference-{os.getpid()}")
    os.makedirs(workdir)
    with open(rtbench.REFERENCE_PATH, encoding="utf-8") as fh:
        ref = json.load(fh)
    try:
        for seed in range(first, last + 1):
            pipe = rtbench.Pipeline(workdir, seed)
            pipe.setup()
            ops, state = pipe.run_pass(0, rttrace.Tracer())
            result = pipe.check(0, ops, state, first=True)
            failed = [f"{op.name}: {op.error}" for op in ops if not op.ok]
            if failed:
                raise SystemExit(f"seed {seed}: pipeline-365d failed: {failed}")
            ref.setdefault(pipe.name, {})[str(seed)] = result["test_mae"]

            fc = rtbench.Forecast(workdir, seed)
            fc.setup()
            run = forecast.rolling_forecast(fc.model, fc.parts["test"], fc.cfg)
            ref.setdefault(fc.name, {})[str(seed)] = run.report().mae
            print(seed, ref[pipe.name][str(seed)], ref[fc.name][str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(rtbench.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
