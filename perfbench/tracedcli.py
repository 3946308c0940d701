"""One catphase CLI call with boundary spans recorded.

    python perfbench/tracedcli.py SPANS.npz [catphase arguments ...]

Behaves like ``python -m catphase.cli`` (same stdout, same exit status) and
writes the call's spans to SPANS.npz when it ends.  ``src`` must be on
PYTHONPATH.
"""

import sys

import catphase.cli
import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.Recorder()
    recorder.begin_job(0)
    try:
        with spans.installed(recorder):
            return catphase.cli.main(argv)
    finally:
        recorder.save(out_path)


if __name__ == "__main__":
    sys.exit(main())
