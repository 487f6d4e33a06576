"""Library step of the prior-opt workload: optimise one ensemble's prior.

Usage: python3 perfbench/prior_opt.py ENSEMBLE.json, with the checkout's
src on PYTHONPATH.  ENSEMBLE.json is {"states": [<state JSON>, ...]} in the
densecap state format; the optimizer's report is printed as one JSON line.
The benchmark also calls main() in-process for its warm timings.
"""

import json
import sys

import densecap


def main(argv: list[str]) -> int:
    with open(argv[0]) as fh:
        states = [densecap.state_from_json(s) for s in json.load(fh)["states"]]
    report = densecap.optimize_prior(states)
    sys.stdout.write(json.dumps(report.to_json()) + "\n")
    return 0 if report.converged else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
