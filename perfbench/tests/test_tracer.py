"""Tracer arithmetic, thread handling and namespace-complete patching.

Run with: python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from tracer import Span, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _by_name(tracer):
    out = {}
    for span, own in zip(tracer.spans, tracer.self_times().values()):
        out.setdefault(span.name, []).append(own)
    return out


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = Tracer(clock)
    outer = t.begin("outer")
    clock.now = 2.0
    a = t.begin("a")
    clock.now = 3.0
    deep = t.begin("deep")
    clock.now = 4.5
    t.finish(deep)
    clock.now = 5.0
    t.finish(a)
    clock.now = 6.0
    b = t.begin("b")
    clock.now = 7.0
    t.finish(b)
    empty = t.begin("empty")  # zero length, same instant as b's end
    t.finish(empty)
    clock.now = 10.0
    t.finish(outer)

    own = _by_name(t)
    assert own == {"outer": [6.0], "a": [1.5], "deep": [1.5], "b": [1.0], "empty": [0.0]}
    assert a.parent is outer and deep.parent is a and b.parent is outer
    m = t.metrics()
    assert m["cli.main.calls"] == 0  # every known name is reported, called or not
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == pytest.approx(10.0)


def test_concurrent_children_share_the_instant():
    clock = FakeClock()
    t = Tracer(clock)
    scan = t.begin("scan")
    # two pool threads run children of `scan`, overlapping on [2, 5]
    rows = [_foreign_span(t, "row", scan, start, end) for start, end in ((1.0, 5.0), (2.0, 6.0))]
    clock.now = 10.0
    t.finish(scan)
    own = t.self_times()
    assert own[id(scan)] == pytest.approx(5.0)  # [0, 1] and [6, 10]; it waits while rows run
    assert own[id(rows[0])] == pytest.approx(1.0 + 1.5)
    assert own[id(rows[1])] == pytest.approx(1.5 + 1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def _foreign_span(t, name, parent, start, end):
    """A finished span recorded as if on another thread."""
    span = Span(name, parent, object(), start, next(t._order))
    span.end, span.order[1] = end, next(t._order)
    t.spans.append(span)
    return span


def test_per_thread_stacks_under_a_thread_pool():
    t = Tracer()
    pool_cls = ThreadPoolExecutor
    t._set(pool_cls, "submit", t.wrap_submit(pool_cls.__dict__["submit"]))
    try:
        leaf = t.wrap("leaf", lambda: time.sleep(0.01))

        def row(i):
            with_span = t.wrap("row", lambda: [leaf() for _ in range(3)])
            with_span()

        outer = t.begin("outer")
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(row, range(12)))
        t.finish(outer)
    finally:
        t.uninstall()
    assert ThreadPoolExecutor.submit is pool_cls.__dict__["submit"]

    rows = [s for s in t.spans if s.name == "row"]
    leaves = [s for s in t.spans if s.name == "leaf"]
    assert len(rows) == 12 and len(leaves) == 36
    assert all(r.parent is outer and r.tid != outer.tid for r in rows)
    # each leaf sits under a row of its own thread, never under another thread's row
    assert all(l.parent.name == "row" and l.parent.tid == l.tid for l in leaves)
    own = t.self_times()
    wall = outer.end - outer.start
    assert sum(own.values()) <= wall * (1 + 1e-9)
    assert t.metrics()["outer.calls"] == 1


def test_install_reaches_from_imports_and_restores():
    import hypokit.cli
    import hypokit.hypo
    import hypokit.spectral
    import scipy.linalg
    from hypokit.sde import RngStream

    originals = (hypokit.spectral.build_basis, hypokit.cli.build_basis, hypokit.hypo.reduced_generator,
                 scipy.linalg.eigvalsh, RngStream.normal)
    t = Tracer()
    t.install()
    try:
        assert hypokit.cli.build_basis is hypokit.spectral.build_basis
        assert hypokit.cli.build_basis is not originals[0]
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            assert hypokit.cli.main(["poisson", "--Kq", "4", "--Np", "4", "--n-quad", "64"]) == 0
            assert hypokit.cli.main(["sample", "--n-steps", "50", "--seed", "1"]) == 0
    finally:
        t.uninstall()
    assert (hypokit.spectral.build_basis, hypokit.cli.build_basis, hypokit.hypo.reduced_generator,
            scipy.linalg.eigvalsh, RngStream.normal) == originals

    m = t.metrics()
    assert m["cli.main.calls"] == 2
    assert m["spectral.build_basis.calls"] == 1  # reached through cli's own binding
    assert m["spectral.solve_poisson.calls"] == 1
    assert m["sde.simulate.steps"] == 50 and m["sde.simulate.records"] == 51
    assert m["sde.RngStream.normal.calls"] >= 1
    assert m["linalg.eigh.calls"] >= 1 and m["linalg.eigh.n_max"] == 9  # 2 Kq + 1 position modes
    main_span = next(s for s in t.spans if s.name == "cli.main")
    assert all(_root(s) in {id(x) for x in t.spans if x.name == "cli.main"} for s in t.spans)
    assert main_span.parent is None


def _root(span):
    while span.parent is not None:
        span = span.parent
    return id(span)
