"""A traced shard worker: ``python -m repro.service.cluster worker``
with the layer wrappers of :mod:`layers` installed first.

    python3 perfbench/worker.py DUMP_DIR <worker arguments...>
"""

from __future__ import annotations

import sys

import layers


def main() -> int:
    dump_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = layers.Recorder(front=False)
    layers.install_server(recorder)
    layers.serve_signals(recorder, dump_dir)
    from repro.service import cluster

    return cluster.main(["worker"] + argv)


if __name__ == "__main__":
    sys.exit(main())
