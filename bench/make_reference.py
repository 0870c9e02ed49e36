"""Write bench/reference.json: the density and correlation values that
bench/run.py checks every later output against.

Usage (from the repository root): python3 bench/make_reference.py

The committed file was written at the commit that introduced the
benchmark; rewrite it only when a change is meant to alter these values.
"""

import json

from run import BENCH, WORKLOADS, launch, series


def main():
    reference = {}
    for jobs in WORKLOADS.values():
        for name, argv in jobs:
            if argv[0] not in ("density", "correlate"):
                continue
            record = launch(argv)
            if record["code"] != 0:
                raise SystemExit("%s exited with %s" % (name, record["code"]))
            reference[name] = series(argv[0], record["stdout"])
    lines = ["%s: %s" % (json.dumps(name), json.dumps(values)) for name, values in reference.items()]
    (BENCH / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
