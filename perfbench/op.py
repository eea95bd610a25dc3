"""One benchmark operation, run in a fresh interpreter.

    python3 perfbench/op.py SPEC_JSON

The spec names the source tree, the operation (a CLI argument list, or a
library function of ``cfnormal.census`` with keyword arguments), the file
that receives this process's timings, and optionally a trace directory.
The timings are ``time.monotonic()`` readings: when ``cfnormal.cli`` was
imported and its parser built (the end of set-up and the start of the
operation), and when the operation ended.  A library call writes its
report to stdout as JSON.
"""

import dataclasses
import json
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec.get("trace_dir"):
        from tracer import Tracer  # found beside this script
        tracer = Tracer(spec["trace_dir"])
        tracer.install()
    import cfnormal.cli as cli
    cli._PARSER = cli.build_parser()
    ready = time.monotonic()

    try:
        if "argv" in spec:
            code = cli.main(spec["argv"])
        else:
            import cfnormal.census as census
            report = getattr(census, spec["call"])(**spec["kwargs"])
            doc = (report.to_json_dict() if hasattr(report, "to_json_dict")
                   else dataclasses.asdict(report))
            sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")
            code = 0
    finally:
        end = time.monotonic()
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump()
            tracer.uninstall()
    with open(spec["timing"], "w", encoding="utf-8") as fh:
        json.dump({"ready": ready, "end": end}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
