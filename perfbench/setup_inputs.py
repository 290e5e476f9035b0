"""Set-up child: warm ddlab's bytecode and write a workload's generated inputs.

Usage: python3 perfbench/setup_inputs.py SRC_DIR ARGV_JSON

ARGV_JSON is a JSON list of ``ddlab gen`` argument lists. Each one is run
through ``ddlab.cli.main`` in this one process, so set-up pays interpreter
start-up once rather than once per input file.
"""

from __future__ import annotations

import compileall
import json
import sys


def main(argv: list[str]) -> int:
    src, gen_argvs = argv[0], json.loads(argv[1])
    if not compileall.compile_dir(src, quiet=1):
        return 1
    import ddlab.cli

    for gen_argv in gen_argvs:
        code = ddlab.cli.main(["gen", *gen_argv])
        if code != 0:
            sys.stderr.write(f"ddlab gen {gen_argv} exited {code}\n")
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
