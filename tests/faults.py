"""Fault injection for tests: change, cut short or replace a `figurate.core` generator.

Every check reads its streams by looking the generator up on `figurate.core`
when it calls it, so one replaced attribute there reaches every check (and
every public function) that reads that stream.
"""

import inspect
import itertools

from figurate import core


def _replace(monkeypatch, name, m_at, edit):
    """Replace `figurate.core.<name>` so that its stream at m_at is edit(values, start).

    start is the index of the stream's first value: its `first` argument
    when it takes one (so `core._coefficients(m)` starts at n = 3), else 1.
    A derived stream takes the stream it reads instead, and starts at 1.
    Streams for other m are unchanged. `monkeypatch` is pytest's fixture or
    a `pytest.MonkeyPatch.context()`, which undoes the change.
    """
    real = getattr(core, name)
    first = inspect.signature(real).parameters.get("first")

    def stand_in(m, *args):
        values = real(m, *args)
        if m != m_at:
            return values
        if first is None:
            return edit(values, 1)
        return edit(values, args[0] if args else first.default)

    monkeypatch.setattr(core, name, stand_in)


def perturb(monkeypatch, name, at, change):
    """Replace `figurate.core.<name>` so that at (m, n) it yields change(value).

    n counts in the generator's own numbering (term, quotient or coefficient
    index). The other values of the stream at m are unchanged.
    """
    m_at, n_at = at
    _replace(
        monkeypatch,
        name,
        m_at,
        lambda values, start: (
            change(value) if n == n_at else value
            for n, value in enumerate(values, start=start)
        ),
    )


def truncate(monkeypatch, name, at):
    """Replace `figurate.core.<name>` so that its stream at m ends before index n, for at = (m, n).

    n counts in the generator's own numbering, as for `perturb`; the values
    before index n are unchanged.
    """
    m_at, n_at = at
    _replace(
        monkeypatch,
        name,
        m_at,
        lambda values, start: itertools.islice(values, max(n_at - start, 0)),
    )


def substitute(monkeypatch, name, m_at, stream):
    """Replace `figurate.core.<name>` so that at m_at it yields stream(start) instead.

    start is the index of the stream's first value, as for `_replace`.
    """
    _replace(monkeypatch, name, m_at, lambda values, start: stream(start))


def geometric(start):
    """S(n) = 2^(n - 1) for n = start, start + 1, ...: every margin is 0 and every quotient 2."""
    return (2 ** (n - 1) for n in itertools.count(start))
