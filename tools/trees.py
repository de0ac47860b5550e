"""Run a comparison tool's collect step on one checkout of robustpca.

    python tools/TOOL.py --collect TREE DUMP [ARG ...]

``bitwise_diff.py``, ``per_instance.py`` and ``recovery_map.py`` each gather
their figures with a ``collect`` function and compare what two checkouts
gave.  :func:`run` starts the tool's ``--collect`` step in a subprocess whose
``PYTHONPATH`` is the checkout's ``src`` and ``perfbench``.  There
:func:`serve` calls ``collect(*ARG)``, checks that every module of robustpca
and every module named like one under ``perfbench`` that the subprocess
imported came from the checkout, and pickles the result into ``DUMP``, which
:func:`run` loads and returns.  :func:`bound` reads an end-to-end bound from
the ``BENCHMARK.json`` of the checkout that holds this script.
"""

import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOMES = ("src", "perfbench")


def bound(name):
    """The relative bound of the end-to-end figure ``name`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


def run(tool, tree, *args):
    """What ``collect(*args)`` of the script ``tool`` returns on the checkout
    ``tree``; raises ``CalledProcessError`` if the step fails."""
    root = Path(tree).resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(root / home) for home in HOMES))
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "collect.pkl"
        subprocess.run([sys.executable, str(tool), "--collect", str(root), str(dump), *args],
                       env=env, check=True)
        with open(dump, "rb") as f:
            return pickle.load(f)  # written just now by our own subprocess


def _strays(tree):
    """The imported modules of robustpca, or named like a module under this
    checkout's ``perfbench``, that did not come from the checkout ``tree``."""
    names = {"robustpca"} | {path.stem for path in (ROOT / "perfbench").glob("*.py")}
    homes = [Path(tree).resolve() / home for home in HOMES]
    strays = []
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None)  # None for a namespace package
        if name.partition(".")[0] in names and not (path and any(
                Path(path).resolve().is_relative_to(home) for home in homes)):
            strays.append(path or name)
    return strays


def serve(collect, argv):
    """The subprocess side of :func:`run`: if ``argv`` is ``TOOL --collect TREE
    DUMP ARG...``, pickle ``collect(*ARG)`` into ``DUMP`` and return True;
    otherwise return False."""
    if argv[1:2] != ["--collect"]:
        return False
    tree, dump, *args = argv[2:]
    result = collect(*args)
    strays = _strays(tree)
    if strays:
        raise RuntimeError("imported %s, not from %s" % (", ".join(strays), tree))
    with open(dump, "wb") as f:
        pickle.dump(result, f)
    return True
