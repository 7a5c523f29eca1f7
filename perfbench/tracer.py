"""Outside-in tracer for the heckechar benchmark.

The tracer never edits the package.  It replaces module-boundary
functions and ``LaurentPoly``/``RationalFn`` methods with timing
wrappers for the length of a traced round and puts the originals back
afterwards.  Names that other modules imported (``characters``
imports ``strip_removals`` and ``pairing_polynomial``, ``schur``
imports ``strip_removals``, ...) are found by identity and replaced
as well, and so are the entries of ``characters.ALGORITHMS``.

Spans nest through an explicit stack: a span's self time is its
duration minus the durations of the spans it directly encloses.  Spans
are aggregated in memory per name and per (parent, child) edge and
written out once, when the benchmark ends.

Memo counters are read through ``cache_info()`` on the package's own
memo tables.  A table or counter that a later version of the package no
longer has is reported as absent, never as zero.
"""

from __future__ import annotations

import time
from statistics import median

# (module, attribute, span name): plain functions wrapped wherever the
# package holds a reference to them
FUNCTION_SPANS = (
    ("laurent", "poly_gcd", "laurent.poly_gcd"),
    ("schur", "classical_character", "schur.classical_character"),
    ("schur", "newton_coeffs", "schur.newton_coeffs"),
    ("characters", "dumps_table", "characters.dumps_table"),
    ("characters", "loads_table", "characters.loads_table"),
    ("applications", "gram_pairing", "applications.gram_pairing"),
)

# characters.ALGORITHMS route tag -> span name
ROUTE_SPANS = {
    "mn": "characters.mn",
    "one_row": "characters.closed_form",
    "one_column": "characters.closed_form",
    "hook": "characters.closed_form",
    "two_row": "characters.closed_form",
    "iterative": "characters.peel",
    "det": "characters.peel",
    "strips": "characters.peel",
    "oracle": "characters.peel",
    "gen_sn": "characters.reduction",
    "gen_newton": "characters.reduction",
}

# metric prefix -> (module, attribute) of an lru_cache-backed memo
HIT_COUNTERS = {
    "partitions.strip_removals": ("partitions", "strip_removals"),
    "characters.mn_memo": ("characters", "_mn_cached"),
    "applications.entry_weight": ("applications", "entry_weight"),
}

ROOT_SPAN = "op"


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}      # name -> [calls, total_s, self_s]
        self.edges = {}      # (parent, child) -> [calls, total_s]
        self.counters = {}   # name -> int
        self.absent = set()  # metrics whose source the package lacks
        self._stack = []     # [name, child_s, start] per open span
        self._undo = []      # (setter, original) to restore on uninstall

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- spans ---------------------------------------------------------

    def enter(self, name):
        frame = [name, 0.0, self.clock()]
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        duration = self.clock() - frame[2]
        stack = self._stack
        stack.pop()
        name = frame[0]
        rec = self.spans.get(name)
        if rec is None:
            rec = self.spans[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame[1]
        parent = stack[-1] if stack else None
        key = (parent[0] if parent else "", name)
        edge = self.edges.get(key)
        if edge is None:
            edge = self.edges[key] = [0, 0.0]
        edge[0] += 1
        edge[1] += duration
        if parent is not None:
            parent[1] += duration

    def wrap(self, fn, name, after=None):
        """Wrap ``fn`` in a span.  ``name`` is a string or a function of
        the call arguments; ``after(result, args)`` runs once the call has
        returned and its span has closed, for counters."""
        enter, leave = self.enter, self.leave
        dynamic = callable(name)

        def traced(*args, **kwargs):
            frame = enter(name(*args, **kwargs) if dynamic else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name, item_counter):
        """Wrap a generator function: each resumption is a span piece, so
        the consumer's work between items is not charged to it."""
        enter, leave, count = self.enter, self.leave, self.count

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                frame = enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    leave(frame)
                    return
                except BaseException:
                    leave(frame)
                    raise
                leave(frame)
                count(item_counter)
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr, value):
        """Set ``owner.attr`` (or ``owner[attr]`` for a dict) until uninstall."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = value
            self._undo.append((lambda v, o=owner, a=attr: o.__setitem__(a, v), original))
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, value)
            self._undo.append((lambda v, o=owner, a=attr: setattr(o, a, v), original))

    def replace_everywhere(self, modules, original, wrapper):
        """Point every module-level name bound to ``original`` at ``wrapper``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)

    def uninstall(self):
        while self._undo:
            setter, original = self._undo.pop()
            setter(original)


def _modules(hk):
    return [hk] + [getattr(hk, m) for m in
                   ("laurent", "partitions", "schur", "characters", "applications")]


def install(tracer, hk):
    """Patch the package ``hk`` (the imported ``heckechar``) for tracing.

    Targets the package no longer has are skipped and their metrics
    marked absent.
    """
    modules = _modules(hk)
    laurent, partitions = hk.laurent, hk.partitions

    poly_cls = getattr(laurent, "LaurentPoly", None)
    if poly_cls is not None:
        _install_poly(tracer, poly_cls)
    else:
        tracer.absent.update({"laurent.mul", "laurent.add", "laurent.divexact"})

    rational_cls = getattr(laurent, "RationalFn", None)
    if rational_cls is not None:
        tracer.patch(rational_cls, "__init__",
                    tracer.wrap(rational_cls.__init__, "laurent.rational.canon"))
    else:
        tracer.absent.add("laurent.rational.canon")

    for module_name, attr, span in FUNCTION_SPANS:
        original = getattr(getattr(hk, module_name), attr, None)
        if original is None:
            tracer.absent.add(span)
            continue
        tracer.replace_everywhere(modules, original, tracer.wrap(original, span))

    pairing = getattr(hk.schur, "pairing_polynomial", None)
    if pairing is not None:
        def pairing_span(lam, mu, strategy="strips"):
            return f"schur.pairing.{strategy}"
        tracer.replace_everywhere(modules, pairing, tracer.wrap(pairing, pairing_span))
    else:
        tracer.absent.add("schur.pairing")

    _install_strips(tracer, modules, partitions)

    matrices = getattr(partitions, "contingency_matrices", None)
    if matrices is not None:
        tracer.replace_everywhere(modules, matrices, tracer.wrap_generator(
            matrices, "partitions.contingency", "partitions.contingency.matrices"))
    else:
        tracer.absent.add("partitions.contingency")

    algorithms = getattr(hk.characters, "ALGORITHMS", {})
    for tag, span in ROUTE_SPANS.items():
        fn = algorithms.get(tag)
        if fn is None:
            tracer.absent.add(span)
            continue
        wrapper = tracer.wrap(fn, span)
        tracer.patch(algorithms, tag, wrapper)
        tracer.replace_everywhere(modules, fn, wrapper)


def _install_poly(tracer, cls):
    count = tracer.count
    term_products = "laurent.mul.term_products"

    def terms(p):
        return len(p.terms) if isinstance(p, cls) else (1 if p else 0)

    def count_products(result, args):
        try:
            count(term_products, terms(args[0]) * terms(args[1]))
        except AttributeError:  # storage no longer exposes .terms
            tracer.absent.add(term_products)

    mul = tracer.wrap(cls.__mul__, "laurent.mul", after=count_products)
    add = tracer.wrap(cls.__add__, "laurent.add")
    for attr, wrapper in (("__mul__", mul), ("__rmul__", mul),
                          ("__add__", add), ("__radd__", add)):
        tracer.patch(cls, attr, wrapper)
    tracer.patch(cls, "divexact", tracer.wrap(cls.divexact, "laurent.divexact"))


def _install_strips(tracer, modules, partitions):
    strips = getattr(partitions, "strip_removals", None)
    subparts = getattr(partitions, "subpartitions_of_weight", None)
    if strips is None:
        tracer.absent.update({"partitions.strip_removals", "partitions.strip_yield"})
        return
    spanned = tracer.wrap(strips, "partitions.strip_removals")
    if subparts is None:
        tracer.absent.add("partitions.strip_yield")
        tracer.replace_everywhere(modules, strips, spanned)
        return

    examined = "partitions.strip_yield.examined"
    returned = "partitions.strip_yield.returned"
    counters = tracer.counters
    counters[examined] = counters[returned] = 0

    def counting_subparts(lam, w):
        for mu in subparts(lam, w):
            counters[examined] += 1
            yield mu

    def traced_strips(lam, k):
        mark = counters[examined]
        result = spanned(lam, k)
        # a memo miss is the only call that examines subpartitions
        if counters[examined] != mark:
            counters[returned] += len(result)
        return result

    # only the enumeration inside strip_removals is counted
    tracer.patch(partitions, "subpartitions_of_weight", counting_subparts)
    tracer.replace_everywhere(modules, strips, traced_strips)


class CacheProbe:
    """Hit counters and memo sizes, read through ``cache_info()``.

    Counters reset whenever the package clears its caches, so the probe
    reads them around each operation and keeps the deltas.
    """

    def __init__(self, hk):
        self.hk = hk
        self.memos = {}
        self.absent = set()
        for prefix, (module_name, attr) in HIT_COUNTERS.items():
            fn = getattr(getattr(hk, module_name), attr, None)
            if fn is None or not hasattr(fn, "cache_info"):
                self.absent.add(prefix)
            else:
                self.memos[prefix] = fn
        self.hits = {p: 0 for p in self.memos}
        self.lookups = {p: 0 for p in self.memos}
        self.memo_entries = {}
        self._before = None

    def before(self):
        self._before = {p: fn.cache_info() for p, fn in self.memos.items()}

    def after(self):
        for prefix, fn in self.memos.items():
            now, then = fn.cache_info(), self._before[prefix]
            self.hits[prefix] += now.hits - then.hits
            self.lookups[prefix] += (now.hits + now.misses) - (then.hits + then.misses)
        for module, size in memo_sizes(self.hk).items():
            if size is not None:
                self.memo_entries[module] = max(self.memo_entries.get(module, 0), size)


def memo_sizes(hk):
    """Entries held by each module's memo tables; None where the module
    no longer exposes them."""
    def registry(module, extra=()):
        caches = getattr(module, "_CACHES", None)
        if caches is None:
            return None
        total = 0
        for fn in list(caches) + list(extra):
            info = getattr(fn, "cache_info", None)
            if info is None:
                return None
            total += info().currsize
        return total

    sizes = {
        "partitions": registry(hk.partitions),
        "schur": registry(hk.schur),
        "characters": registry(hk.characters),
    }
    char_cache = getattr(hk.characters, "_char_cache", None)
    if sizes["characters"] is not None and char_cache is not None:
        sizes["characters"] += len(char_cache)
    entry_weight = getattr(hk.applications, "entry_weight", None)
    sizes["applications"] = (entry_weight.cache_info().currsize
                             if hasattr(entry_weight, "cache_info") else None)
    return sizes


# per-layer metric -> (kind, source).  Counts are taken from the first
# traced round, times are medians over the traced rounds.
LAYER_METRICS = {
    "laurent.mul.calls": ("calls", "laurent.mul"),
    "laurent.mul.term_products": ("counter", "laurent.mul.term_products"),
    "laurent.mul.self_s": ("self", "laurent.mul"),
    "laurent.add.calls": ("calls", "laurent.add"),
    "laurent.add.self_s": ("self", "laurent.add"),
    "laurent.divexact.calls": ("calls", "laurent.divexact"),
    "laurent.divexact.self_s": ("self", "laurent.divexact"),
    "laurent.rational.canon_calls": ("calls", "laurent.rational.canon"),
    "laurent.rational.canon_self_s": ("self", "laurent.rational.canon"),
    "laurent.poly_gcd.calls": ("calls", "laurent.poly_gcd"),
    "laurent.poly_gcd.self_s": ("self", "laurent.poly_gcd"),
    "partitions.strip_removals.calls": ("calls", "partitions.strip_removals"),
    "partitions.strip_removals.hit_ratio": ("hit_ratio", "partitions.strip_removals"),
    "partitions.strip_removals.self_s": ("self", "partitions.strip_removals"),
    "partitions.strip_yield": ("strip_yield", "partitions.strip_yield"),
    "partitions.contingency.matrices": ("counter", "partitions.contingency.matrices"),
    "partitions.contingency.self_s": ("self", "partitions.contingency"),
    "partitions.memo_entries": ("memo", "partitions"),
    "schur.pairing.iterative.self_s": ("self", "schur.pairing.iterative"),
    "schur.pairing.det.self_s": ("self", "schur.pairing.det"),
    "schur.pairing.strips.self_s": ("self", "schur.pairing.strips"),
    "schur.pairing.oracle.self_s": ("self", "schur.pairing.oracle"),
    "schur.classical_character.self_s": ("self", "schur.classical_character"),
    "schur.newton_coeffs.self_s": ("self", "schur.newton_coeffs"),
    "schur.memo_entries": ("memo", "schur"),
    "characters.mn.self_s": ("self", "characters.mn"),
    "characters.mn_memo.hit_ratio": ("hit_ratio", "characters.mn_memo"),
    "characters.mn_memo.lookups": ("lookups", "characters.mn_memo"),
    "characters.closed_form.self_s": ("self", "characters.closed_form"),
    "characters.peel.self_s": ("self", "characters.peel"),
    "characters.reduction.self_s": ("self", "characters.reduction"),
    "characters.memo_entries": ("memo", "characters"),
    "characters.dumps_table.s": ("total", "characters.dumps_table"),
    "characters.loads_table.s": ("total", "characters.loads_table"),
    "characters.table_bytes": ("extra", "characters.table_bytes"),
    "applications.gram_pairing.self_s": ("self", "applications.gram_pairing"),
    "applications.entry_weight.hit_ratio": ("hit_ratio", "applications.entry_weight"),
    "applications.entry_weight.lookups": ("lookups", "applications.entry_weight"),
    "applications.memo_entries": ("memo", "applications"),
    "unattributed.self_s": ("self", ROOT_SPAN),
    "trace.overhead_frac": ("overhead", None),
}


def snapshot(tracer, probe, extras):
    """Everything one traced round recorded, detached from the tracer."""
    return {
        "spans": {k: list(v) for k, v in tracer.spans.items()},
        "edges": [[p, c, n, s] for (p, c), (n, s) in sorted(tracer.edges.items())],
        "counters": dict(tracer.counters),
        "absent": sorted(tracer.absent | probe.absent),
        "hits": dict(probe.hits),
        "lookups": dict(probe.lookups),
        "memo_entries": dict(probe.memo_entries),
        "extras": dict(extras),
    }


def _is_absent(source, absent):
    return any(source == a or source.startswith(a + ".") for a in absent)


def layer_metrics(snapshots, overhead_frac):
    """Per-layer values by metric name; absent metrics are left out."""
    first = snapshots[0]
    absent = set(first["absent"])
    out = {}
    for name, (kind, source) in LAYER_METRICS.items():
        if source is not None and _is_absent(source, absent):
            continue
        if kind in ("self", "total"):
            column = 2 if kind == "self" else 1
            out[name] = median(s["spans"].get(source, [0, 0.0, 0.0])[column]
                               for s in snapshots)
        elif kind == "calls":
            out[name] = first["spans"].get(source, [0])[0]
        elif kind == "counter":
            out[name] = first["counters"].get(source, 0)
        elif kind == "hit_ratio":
            lookups = first["lookups"][source]
            out[name] = first["hits"][source] / lookups if lookups else 0.0
        elif kind == "lookups":
            out[name] = first["lookups"][source]
        elif kind == "strip_yield":
            examined = first["counters"][source + ".examined"]
            out[name] = first["counters"][source + ".returned"] / examined if examined else 0.0
        elif kind == "memo":
            if source in first["memo_entries"]:
                out[name] = first["memo_entries"][source]
        elif kind == "extra":
            out[name] = first["extras"][source]
        elif kind == "overhead":
            out[name] = overhead_frac
    return out

