"""Spans around the calls into the program's modules, recorded from outside.

`Tracer.install` swaps each named public function for a timing wrapper in
every program module that binds it, so calls the modules make to each other
are seen too; `uninstall` puts the originals back. A span is
(name, start_ns, end_ns, parent index, instance id); spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "recolorwalk"

# The public functions whose calls get a span, by module. A name the
# program no longer has stops the run, rather than letting its layer read 0.
SPANNED = {
    "graphs": ("parse_graph", "parse_coloring", "mad_exact", "degeneracy_ordering"),
    "layering": ("build_degree_partition", "degree_partition_from_degeneracy",
                 "validate_partition", "embedded_ordering"),
    "engine": ("recolor_theorem_pipeline", "recolor_between", "verify_sequence",
               "sequence_stats"),
    "oracle": ("bfs_distance",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent, self.instance]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        missing = [f"{PACKAGE}.{short}.{name}" for short, names in SPANNED.items()
                   for name in names
                   if getattr(sys.modules.get(f"{PACKAGE}.{short}"), name, None) is None]
        if missing:
            raise RuntimeError(f"no function to span: {', '.join(missing)}")
        modules = [m for key, m in sys.modules.items() if m is not None
                   and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for short, names in SPANNED.items():
            home = sys.modules[f"{PACKAGE}.{short}"]
            for name in names:
                fn = getattr(home, name)
                wrapper = self._wrapper(f"{short}.{name}", fn)
                for module in modules:
                    if getattr(module, name, None) is fn:
                        self._patched.append((module, name, fn))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()


def span_times(spans: list[list], roots: tuple[str, ...]) -> tuple[dict[str, int], dict[str, int]]:
    """Total and self time in ns by span name, over the spans whose
    outermost span is named in `roots`. Self time is a span minus its direct
    children, which run one after another in this program."""
    root = [0] * len(spans)
    child = [0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, int] = defaultdict(int)
    own: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        if spans[root[i]][0] in roots:
            total[name] += end - start
            own[name] += end - start - child[i]
    return total, own
