"""What every identity checker shares: sparse combinations accumulated in
place, and the ordered report of check outcomes.

A combination is a dict key -> coefficient that never stores a zero, so
two combinations are equal exactly when they are equal as dicts.
"""

from __future__ import annotations

__all__ = ["add_into", "CheckReport"]


def add_into(acc, combo, scale=1):
    """acc += scale * combo, in place, dropping every coefficient that is
    or becomes zero; returns acc."""
    if scale == 1:
        terms = combo.items()
    elif scale == -1:
        terms = [(key, -v) for key, v in combo.items()]
    elif scale:
        terms = [(key, scale * v) for key, v in combo.items()]
    else:
        return acc
    for key, v in terms:
        c = acc.get(key)
        if c is not None:
            v = c + v
        if v:
            acc[key] = v
        else:
            acc.pop(key, None)
    return acc


class CheckReport:
    """Ordered check outcomes; text() is the CLI rendering."""

    def __init__(self, title=""):
        self.title = title
        self.lines = []

    def add(self, label, witness=None):
        self.lines.append((label, witness))
        return witness is None

    @property
    def ok(self):
        return all(w is None for _, w in self.lines)

    def failures(self):
        return [(l, w) for l, w in self.lines if w is not None]

    def text(self):
        out = []
        for label, witness in self.lines:
            if witness is None:
                out.append(f"check {label}: pass\n")
            else:
                out.append(f"check {label}: FAIL {witness}\n")
        return "".join(out)
