"""Spans around the benchmark's calls into the package layers.

Tracing lives entirely in the benchmark: ``Tracer.install`` replaces the
public functions listed in ``PATCHES`` by timing wrappers (module
attributes, so calls made inside the package go through them too) and
``Tracer.uninstall`` puts the originals back.  Spans are kept in memory as
``(name, start, end, parent index, op index, tag, returned)`` tuples and
reduced to per-layer samples once the run ends.
"""

from __future__ import annotations

import time
from functools import wraps

# (module, attribute, span name, tag extractor).  The tag keeps the one
# argument or result field a per-layer metric needs.
PATCHES = [
    ("network", "sample_network", "network.sample_network", "arg1"),  # n
    ("network", "sample_genealogy_tree", "network.sample_genealogy_tree", "arg1"),  # n
    ("network", "decorate", "network.decorate", "arg1"),  # m
    ("network.GluedNetwork", "to_json_dict", "network.to_json_dict", None),
    ("analytics", "expected_M", "analytics.expected_M", "depth"),
    ("analytics", "extinction_probability", "analytics.extinction_probability", "depth"),
    ("analytics", "zeta_tilt", "analytics.zeta_tilt", None),
    ("analytics", "malthusian", "analytics.malthusian", None),
    ("analytics", "nu_circ_pmf", "analytics.nu_circ_pmf", None),
    ("analytics", "tilted_offspring", "analytics.tilted_offspring", None),
    ("analytics", "pgf_from_state", "analytics.pgf_from_state", "depth"),
    ("analytics", "laplace_f", "analytics.laplace_f", "depth"),
    ("limits", "crt_constants", "limits.crt_constants", "c_rel_se"),
    ("limits", "gw_size_probability", "limits.gw_size_probability", None),
]

# Spans the benchmark opens itself around direct calls.
CLI_MAIN = "cli.main"
DISTANCE = "network.distance"
FIRST_DISTANCE = "network.first_distance"


def _tag(kind, args, kwargs, result):
    if kind == "arg1":
        return args[1]
    if kind == "depth":
        return getattr(result, "depth", None)
    if kind == "c_rel_se":
        return result.C.std_error / result.C.value
    return None


class Tracer:
    def __init__(self, package):
        self._package = package
        self._originals = []
        self.spans = []
        self._stack = []
        self.samples = {}
        self.enabled = False
        self.op = -1

    # -- recording --------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn, inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        return self._timed(name, None, fn, args, kwargs)

    def add(self, name, value):
        """Record a per-layer sample measured outside any span."""
        self.samples.setdefault(name, []).append(value)

    def _timed(self, name, tag_kind, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        ok = False
        result = tag = None
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            if ok and tag_kind is not None:
                tag = _tag(tag_kind, args, kwargs, result)
            self.spans[idx] = (name, t0, t1, parent, self.op, tag, ok)

    # -- patching ---------------------------------------------------------

    def install(self):
        self.enabled = True
        if self._originals:
            return
        for owner_path, attr, name, tag_kind in PATCHES:
            owner = self._package
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            orig = owner.__dict__[attr]
            self._originals.append((owner, attr, orig))
            setattr(owner, attr, self._wrapper(name, tag_kind, orig))

    def uninstall(self):
        self.enabled = False
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals = []

    def _wrapper(self, name, tag_kind, fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            return tracer._timed(name, tag_kind, fn, args, kwargs)

        return traced


def children_time(spans, idx):
    """Summed duration of the direct children of span idx."""
    return sum(s[2] - s[1] for s in spans if s[3] == idx)


def layer_samples(spans, direct, sizes):
    """Reduce raw spans, plus samples recorded directly, to per-layer samples.

    ``sizes`` names the network sizes of the simulate and query workloads,
    which tell the two uses of ``sample_network`` apart.
    """
    n_sim, n_query = sizes["simulate_n"], sizes["query_n"]
    out = {k: list(v) for k, v in direct.items()}

    def add(name, value):
        out.setdefault(name, []).append(value)

    def ms(s):
        return (s[2] - s[1]) * 1e3

    by_name = {}
    for i, s in enumerate(spans):
        if s is not None and s[6]:
            by_name.setdefault(s[0], []).append(i)

    for i in by_name.get("network.sample_genealogy_tree", []):
        if spans[i][5] == n_sim:
            add("network.tree_ms", ms(spans[i]))
    for i in by_name.get("network.decorate", []):
        m = spans[i][5]
        key = f"network.decorate_us.m{m}" if m <= 6 else "network.decorate_us.m7_up"
        add(key, ms(spans[i]) * 1e3)
    for i in by_name.get("network.sample_network", []):
        s = spans[i]
        if s[5] == n_sim:
            add("network.sample_network_ms", ms(s))
            kids = [spans[j] for j in by_name.get("network.decorate", []) if spans[j][3] == i]
            add("network.decorate_share", sum(k[2] - k[1] for k in kids) / (s[2] - s[1]))
            add("network.vertices.m5_up", sum(1 for k in kids if k[5] >= 5))
        elif s[5] == n_query:
            add("network.sample_network_8000_s", ms(s) / 1e3)
    for i in by_name.get("network.to_json_dict", []):
        add("network.to_json_dict_ms", ms(spans[i]))
    for i in by_name.get(FIRST_DISTANCE, []):
        add("network.first_distance_ms", ms(spans[i]))
    for i in by_name.get(DISTANCE, []):
        add("network.distance_ms", ms(spans[i]))

    analytics_units = {
        "analytics.expected_M": ("analytics.expected_M_us", 1e3),
        "analytics.extinction_probability": ("analytics.extinction_ms", 1.0),
        "analytics.zeta_tilt": ("analytics.zeta_tilt_ms", 1.0),
        "analytics.malthusian": ("analytics.malthusian_ms", 1.0),
        "analytics.nu_circ_pmf": ("analytics.nu_circ_us", 1e3),
        "analytics.tilted_offspring": ("analytics.tilted_offspring_ms", 1.0),
        "analytics.pgf_from_state": ("analytics.pgf_from_state_us", 1e3),
        "analytics.laplace_f": ("analytics.laplace_f_us", 1e3),
        "limits.gw_size_probability": ("limits.gw_size_probability_ms", 1.0),
    }
    for span_name, (metric, scale) in analytics_units.items():
        for i in by_name.get(span_name, []):
            add(metric, ms(spans[i]) * scale)
            if spans[i][5] is not None:  # the CertifiedValue depth
                add("analytics.depth_mean", spans[i][5])
    for i in by_name.get("limits.crt_constants", []):
        add("limits.crt_constants_s", ms(spans[i]) / 1e3)
        add("limits.crt_C_rel_se", spans[i][5])

    for i in by_name.get(CLI_MAIN, []):
        s = spans[i]
        kids = {spans[j][0] for j in range(i + 1, len(spans)) if spans[j] is not None and spans[j][3] == i}
        if "network.sample_network" in kids:
            add("cli.simulate_emit_ms", ms(s) - children_time(spans, i) * 1e3)
        elif "limits.crt_constants" in kids:
            crt = sum(spans[j][2] - spans[j][1] for j in by_name["limits.crt_constants"] if spans[j][3] == i)
            add("cli.analyze_numerics_ms", ms(s) - crt * 1e3)
    return out
