"""Call counters for library functions, shared across the test files."""

from __future__ import annotations

import sys


def count_calls_on(monkeypatch, fn, g=None):
    """Wrap every binding of library function ``fn``; count calls made on ``g``.

    Only calls whose argument is ``g`` itself count, so work on graphs that
    a caller builds for its own use would not; with ``g`` None every call
    counts.
    """
    calls = []

    def counting(h, *args, **kwargs):
        if g is None or h is g:
            calls.append(h)
        return fn(h, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("szegedtools") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counting)
    return calls


def count_audits(monkeypatch):
    """Wrap every auditor in ``verify.AUDITORS``; the graphs they audit."""
    from szegedtools import verify

    audited = []
    for claim, audit in list(verify.AUDITORS.items()):

        def counting(g, audit=audit):
            audited.append(g)
            return audit(g)

        monkeypatch.setitem(verify.AUDITORS, claim, counting)
    return audited
