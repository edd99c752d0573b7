"""Time one cold set-up in a fresh interpreter and print it in seconds.

Usage: python3 setup_probe.py <src-dir> <json spec>

The timed part imports ``lsl`` from ``<src-dir>`` and builds the
workload's lattice pair, plus its ``Scheme`` when the spec asks for one.
Interpreter start-up is not timed.
"""

import json
import sys
import time


def main(src: str, spec_text: str) -> None:
    spec = json.loads(spec_text)
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import lsl
    from lsl.cli import RunConfig
    from lsl.simulate import Scheme

    if not lsl.__file__.startswith(src):
        sys.exit(f"imported lsl from {lsl.__file__}, not from {src}")
    generator = spec["generator"] and tuple(map(tuple, spec["generator"]))
    cfg = RunConfig(K=spec["K"], family=spec["family"], q=spec["q"],
                    N=spec["N"], generator=generator)
    pair = cfg.pair()
    if spec["scheme"]:
        Scheme.for_config(cfg.system(), pair)
    elapsed = time.perf_counter() - t0
    print(repr(elapsed))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
