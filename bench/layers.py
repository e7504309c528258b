"""Host-time attribution: cProfile self time bucketed into layers.

The layers are this repo's modules.  Time is measured from outside the
program: `child.py` runs the driver call under `cProfile`, and this
module buckets each function's self time (`tottime`) by its source
file.  C and builtin functions have no source file of their own, so
their self time is charged to the layer of whoever called them, read
from the per-caller sub-entries pstats keeps.  Stdlib or numpy time
whose direct caller is not a `repro` file lands in `other`.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional

from spec import LAYERS

#: Files that are a layer of their own (paths relative to src/repro/).
_FILE_LAYER = {
    "dlm/server.py": "dlm.server",
    "dlm/client.py": "dlm.client",
    "dlm/extent.py": "dlm.extent",
    "dlm/validator.py": "dlm.validator",
    "pfs/client.py": "pfs.client",
    "pfs/page_cache.py": "pfs.cache",
    "pfs/extent_cache.py": "pfs.cache",
}

#: Remaining files by package.  Top-level glue the workloads never run
#: in the timed call (config, cli, harness, analysis) falls to `other`.
_PACKAGE_LAYER = {
    "sim": "sim", "net": "net", "dlm": "dlm.other", "pfs": "pfs.other",
    "storage": "storage", "metrics": "metrics", "faults": "faults",
    "traffic": "traffic", "workloads": "workloads",
}


def layer_of(rel_path: str) -> str:
    """Layer of a file given its path relative to `src/repro/`."""
    rel_path = rel_path.replace(os.sep, "/")
    layer = _FILE_LAYER.get(rel_path)
    if layer is None:
        layer = _PACKAGE_LAYER.get(rel_path.partition("/")[0], "other")
    return layer


def _layer_of_func(func, root: str) -> Optional[str]:
    """Layer of a pstats function key, None outside `root`."""
    filename = func[0]
    if filename.startswith(root):
        return layer_of(filename[len(root):])
    return None


def attribute(stats: dict, repro_root: str) -> Dict[str, float]:
    """Self seconds per layer from `pstats.Stats(profile).stats`."""
    root = repro_root.rstrip(os.sep) + os.sep
    out = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        own = _layer_of_func(func, root)
        if own is not None:
            out[own] += tottime
            continue
        charged = 0.0
        for caller, (_n, _c, caller_tt, _t) in callers.items():
            out[_layer_of_func(caller, root) or "other"] += caller_tt
            charged += caller_tt
        out["other"] += tottime - charged  # frames entered with no caller
    return out


def top_functions(stats: dict, repro_root: str, n: int = 25) -> List[dict]:
    """The `n` largest functions by self time, for the trace file."""
    root = repro_root.rstrip(os.sep) + os.sep
    rows = sorted(stats.items(), key=lambda kv: kv[1][2], reverse=True)[:n]
    out = []
    for func, (_cc, ncalls, tottime, cumtime, _callers) in rows:
        filename, line, name = func
        where = filename[len(root):] if filename.startswith(root) \
            else os.path.basename(filename)
        out.append({"function": f"{where}:{line}({name})",
                    "layer": _layer_of_func(func, root) or "caller",
                    "calls": ncalls, "self_s": tottime, "cum_s": cumtime})
    return out


def calls_of(stats: dict, functions: Iterable) -> int:
    """Exact number of calls of the given Python functions."""
    total = 0
    for fn in functions:
        code = fn.__code__
        entry = stats.get((code.co_filename, code.co_firstlineno,
                           code.co_name))
        if entry is not None:
            total += entry[1]
    return total
