#!/usr/bin/env python3
"""Run a command and require one exit status and a message.

Usage: expect_exit.py STATUS CMD [ARG...]

Exits 0 when CMD exits with STATUS and writes something to stderr,
1 otherwise -- including when CMD dies from a signal, which is how an
abort shows. The cli_rejects_* ctests use it to check that bfgts_cli
turns bad input into a usage error (exit 2).
"""

import subprocess
import sys


def main():
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    want = int(sys.argv[1])
    command = sys.argv[2:]
    proc = subprocess.run(command, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    message = proc.stderr.strip()
    if proc.returncode != want:
        print("expect_exit: %s exited %d, want %d\n%s"
              % (" ".join(command), proc.returncode, want, message))
        return 1
    if not message:
        print("expect_exit: %s exited %d without a message"
              % (" ".join(command), want))
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
