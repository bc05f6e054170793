"""Record the golden outputs of every pooled request, from the current code.

    PYTHONPATH=src python3 bench/record_golden.py

Writes bench/golden/{cli-cold,classify-sweep,verify-paper}.txt: one line per
request with its exit code, a digest of its stdout bytes, and its key.  Run
it only on a commit whose outputs are the reference; the benchmark compares
every later run against these files.
"""

import contextlib
import io
import random
import subprocess
import sys

from weylirr import cli

import workloads
from worker import document_maker


def run_in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


def run_fresh(argv):
    proc = subprocess.run([sys.executable, "-m", "weylirr", *argv],
                          capture_output=True, check=False)
    return proc.returncode, proc.stdout


def main() -> int:
    cli_entries = []
    for req in workloads.cli_pool():
        code, out = run_in_process(req.argv)
        cli_entries.append((req.key, code, out))
    # in-process output must be what a fresh process prints
    for key, code, out in random.Random(0).sample(cli_entries, 40):
        if run_fresh(key.split(" ")) != (code, out):
            raise SystemExit(f"in-process output differs for {key}")
    workloads.write_golden("cli-cold", cli_entries)

    classify_document = document_maker()
    sweep_entries = []
    for kind, n, lam in workloads.sweep_pool():
        _, text = classify_document(kind, n, lam)
        out = (text + "\n").encode()
        argv = ("classify", "--type", f"{kind}{n}", "--weight",
                workloads.weight_text(lam), "--json")
        if run_in_process(argv) != (0, out):
            raise SystemExit(f"sweep document differs from the CLI: {argv}")
        sweep_entries.append((workloads.sweep_key(kind, n, lam), 0, out))
    workloads.write_golden("classify-sweep", sweep_entries)

    code, out = run_fresh(workloads.VERIFY_ARGV)
    workloads.write_golden("verify-paper",
                           [(" ".join(workloads.VERIFY_ARGV), code, out)])
    print(f"recorded {len(cli_entries)} cli-cold, {len(sweep_entries)} "
          f"classify-sweep and 1 verify-paper outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
