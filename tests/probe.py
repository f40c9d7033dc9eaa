"""Call counts for tests, kept by a :class:`Probe`."""


class Probe:
    """``count(owner, name)`` wraps ``owner.name`` where the package looks it
    up; ``probe[key]`` is the number of its calls kept.  A call that raises
    (a trial rejected by DomainViolation, say) is not kept.  While a counted
    function runs, its key is on ``active``."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._counts = {}
        self.active = []

    def count(self, owner, name, key=None, *, inside=None, when=None):
        """Keep each call of ``owner.name`` that returns under ``key``
        (default ``name``), if ``inside`` is on ``active`` and
        ``when(*args, **kwargs)`` holds, each where given."""
        key = name if key is None else key
        self._counts.setdefault(key, 0)
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.active.append(key)
            try:
                out = original(*args, **kwargs)
            finally:
                self.active.pop()
            self._counts[key] += ((inside is None or inside in self.active)
                                  and (when is None or when(*args, **kwargs)))
            return out
        self._monkeypatch.setattr(owner, name, counted)

    def __getitem__(self, key):
        return self._counts[key]
