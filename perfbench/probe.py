"""One set-up sample: a fresh interpreter imports what a workload uses and
generates its trace, then exits.  ``run.py`` times it from outside.

Usage: python perfbench/probe.py SRC_DIR SCALE GEN_SEED MODULE...
"""

import importlib
import sys

if __name__ == "__main__":
    src, scale, gen_seed, *modules = sys.argv[1:]
    sys.path.insert(0, src)
    for name in modules:
        importlib.import_module(name)
    from repro.workload.generator import GeneratorConfig, generate_cplant_workload

    generate_cplant_workload(GeneratorConfig(scale=float(scale)), seed=int(gen_seed))
