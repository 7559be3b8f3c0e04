"""Fault injection for tests: replace one value of a `figurate.core` generator.

Every check reads its streams by looking the generator up on `figurate.core`
when it calls it, so one replaced attribute there reaches every check (and
every public function) that reads that stream.
"""

import inspect

from figurate import core


def perturb(monkeypatch, name, at, change):
    """Replace `figurate.core.<name>` so that at (m, n) it yields change(value).

    n counts in the generator's own numbering: term, quotient or coefficient
    index, starting from its `first` argument when it takes one (so
    `core._coefficients(m)` starts at n = 3). Streams for other m, and other
    values of the stream at m, are unchanged. `monkeypatch` is pytest's
    fixture or a `pytest.MonkeyPatch.context()`, which undoes the change.
    """
    real = getattr(core, name)
    m_at, n_at = at
    first = inspect.signature(real).parameters.get("first")
    default_first = 1 if first is None else first.default

    def stand_in(m, *args):
        values = real(m, *args)
        if m != m_at:
            return values
        start = args[0] if args else default_first
        return (
            change(value) if n == n_at else value
            for n, value in enumerate(values, start=start)
        )

    monkeypatch.setattr(core, name, stand_in)
