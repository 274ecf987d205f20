"""A recording proxy for evaluator domains.

Tests that fold one program over several domains (the engine, the
symbolic checker, the noise samplers and bounders) wrap each domain in
a :class:`Recorder` and compare what the program asked of them.
"""

from __future__ import annotations


class Recorder:
    """Forwards every op to ``ev`` and records ``(op, label, output)``.

    Only the calls the program makes are recorded; a domain's calls to
    its own methods are not.  Anything the program reads of the domain
    must be a method: an attribute read comes back as a wrapper.
    """

    def __init__(self, ev):
        self.ev = ev
        self.steps = []

    def __getattr__(self, name):
        op = getattr(self.ev, name)

        def call(*args, **kwargs):
            out = op(*args, **kwargs)
            self.steps.append((name, kwargs.get("label"), out))
            return out

        return call
