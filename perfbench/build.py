"""Build the checkout's compiled core out of tree, once per source.

``setup.py build_ext`` compiles ``src/repro/fastpath/_core.c`` into a
directory the benchmark owns (``perfbench/_build/<key>/``, keyed by the
hash of the C source, ``setup.py`` and the interpreter), never under
``src/``.  The sweep loads that build by putting its directory first
on ``repro.fastpath.__path__``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

BUILD_TIMEOUT_S = 600


@dataclass
class CoreBuild:
    #: Directory holding the built ``_core`` module, or None.
    lib_dir: Optional[str]
    #: Seconds the compile took (when this checkout built it).
    build_s: float
    #: Why there is no build, or None.
    error: Optional[str]
    #: A C compiler is on PATH, so a missing build is a failure.
    compiler: bool


def _key(root: str) -> str:
    h = hashlib.sha256()
    for rel in ("src/repro/fastpath/_core.c", "setup.py"):
        with open(os.path.join(root, rel), "rb") as fh:
            h.update(fh.read())
    h.update(sys.version.encode())
    return h.hexdigest()[:16]


def ensure_core(root: str, build_root: str) -> CoreBuild:
    """Build (or reuse) the out-of-tree compiled core."""
    compiler = any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))
    dest = os.path.join(build_root, _key(root))
    stamp = os.path.join(dest, "stamp.json")
    if os.path.exists(stamp):
        with open(stamp, encoding="utf-8") as fh:
            info = json.load(fh)
        return CoreBuild(info["lib_dir"], info["build_s"], info["error"],
                         compiler)
    lib = os.path.join(dest, "lib")
    tmp = os.path.join(dest, "tmp")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", lib, "--build-temp", tmp],
        cwd=root, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    build_s = time.perf_counter() - t0
    shutil.rmtree(tmp, ignore_errors=True)
    pkg = os.path.join(lib, "repro", "fastpath")
    built = os.path.isdir(pkg) and any(
        name.startswith("_core") and name.endswith((".so", ".pyd"))
        for name in os.listdir(pkg))
    error = None
    if not built:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
        error = f"build_ext produced no _core module: {' | '.join(tail)}"
    info = {"lib_dir": pkg if built else None, "build_s": build_s,
            "error": error}
    os.makedirs(dest, exist_ok=True)
    with open(stamp + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    os.replace(stamp + ".tmp", stamp)
    return CoreBuild(info["lib_dir"], build_s, error, compiler)


def load_core(build: CoreBuild) -> bool:
    """Make ``repro.fastpath`` import the out-of-tree build; True when
    the compiled core is then available."""
    if build.lib_dir is None:
        return False
    import repro.fastpath as fastpath

    if build.lib_dir not in fastpath.__path__:
        fastpath.__path__.insert(0, build.lib_dir)
    return fastpath.available()
