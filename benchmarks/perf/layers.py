"""Fold a cProfile run onto the ``src/repro/<package>`` layer names.

The benchmark traces from its own files: one ``run_scenario`` call runs under
:mod:`cProfile`, and every frame's self time (``tottime``) is charged to the
layer owning its source file.  Frames that belong to no layer — C builtins
(``heapq``, ``hashlib``), stdlib modules (``random``, ``pickle``,
``asyncio``) — are charged to their nearest ``repro`` caller through the
pstats caller table, so ``heappush`` called from the kernel counts as
``sim`` and ``sha256`` called from ``hash_fields`` counts as ``crypto``.
What no ``repro`` frame ever called (interpreter start of the profiled call,
the event loop's own idle select on the live backend) lands in ``other``.
"""

from __future__ import annotations

import os
import pstats

#: ``src/repro/<package>`` -> layer.  Three thin packages that only drive
#: the others share one ``harness`` layer, as do ``repro/*.py`` top-level
#: modules and the benchmark's own wrapper/observer frames.
PACKAGE_LAYER = {
    "sim": "sim", "net": "net", "crypto": "crypto", "ledger": "ledger",
    "consensus": "consensus", "broadcast": "broadcast", "core": "core",
    "protocols": "protocols", "baselines": "baselines",
    "workload": "workload", "metrics": "metrics", "adversary": "adversary",
    "runtime": "runtime",
    "scenarios": "harness", "experiments": "harness", "faults": "harness",
}
OTHER = "other"
LAYERS = tuple(dict.fromkeys(PACKAGE_LAYER.values())) + (OTHER,)

_REPRO_MARK = os.sep + "repro" + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of_file(filename: str) -> str | None:
    """The layer owning ``filename``, or None for builtin/stdlib frames."""
    if filename.startswith(_BENCH_DIR):
        return "harness"
    head, mark, tail = filename.rpartition(_REPRO_MARK)
    if not mark:
        return None
    package = tail.split(os.sep, 1)[0]
    return PACKAGE_LAYER.get(package, "harness")


def fold(profile) -> dict:
    """Per-layer self seconds, total calls and per-function call counts.

    Returns ``{"self_s": {layer: seconds}, "total_s": float, "calls": int,
    "ncalls": {(basename, function): calls}}``; the layer seconds sum to
    ``total_s`` exactly (every frame's ``tottime`` is charged once).
    """
    stats = pstats.Stats(profile).stats
    own = {func: layer_of_file(func[0]) for func in stats}
    mixes: dict = {}

    def mix_of(func, trail=()) -> dict:
        """Layer mix of an unowned frame: where its callers' time belongs."""
        if func in mixes:
            return mixes[func]
        callers = stats[func][4] if func in stats else {}
        weights: dict[str, float] = {}
        total = 0.0
        for caller, (_, _, _, edge_ct) in callers.items():
            if caller in trail or edge_ct <= 0:
                continue
            layer = own.get(caller)
            share = ({layer: 1.0} if layer is not None
                     else mix_of(caller, trail + (func,)))
            for name, part in share.items():
                weights[name] = weights.get(name, 0.0) + part * edge_ct
            total += edge_ct
        mix = ({name: part / total for name, part in weights.items()}
               if total > 0 else {OTHER: 1.0})
        if not trail:
            mixes[func] = mix
        return mix

    self_s = dict.fromkeys(LAYERS, 0.0)
    total_s = 0.0
    calls = 0
    ncalls: dict[tuple[str, str], int] = {}
    for func, (_, nc, tt, _, callers) in stats.items():
        total_s += tt
        calls += nc
        key = (os.path.basename(func[0]), func[2])
        ncalls[key] = ncalls.get(key, 0) + nc
        layer = own[func]
        if layer is not None:
            self_s[layer] += tt
            continue
        # Unowned frame: split its self time over its callers by the
        # per-edge tottime the profiler recorded.
        charged = 0.0
        for caller, (_, _, edge_tt, _) in callers.items():
            if edge_tt <= 0:
                continue
            caller_layer = own.get(caller)
            share = ({caller_layer: 1.0} if caller_layer is not None
                     else mix_of(caller))
            for name, part in share.items():
                self_s[name] += part * edge_tt
            charged += edge_tt
        self_s[OTHER] += tt - charged
    return {"self_s": self_s, "total_s": total_s, "calls": calls,
            "ncalls": ncalls}
