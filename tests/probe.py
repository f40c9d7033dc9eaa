"""Call counts and kept values for tests and tools, kept by a :class:`Probe`."""


class Probe:
    """``count(owner, name)`` wraps ``owner.name`` where the package looks it
    up; ``probe[key]`` is the number of its calls kept, and ``probe.kept[key]``
    the values kept from them where ``keep`` is given.  A call that raises
    (a trial rejected by DomainViolation, say) is not kept.  While a counted
    function runs, its key is on ``active``."""

    def __init__(self, monkeypatch):
        self._monkeypatch = monkeypatch
        self._counts = {}
        self.kept = {}
        self.active = []

    def count(self, owner, name, key=None, *, inside=None, when=None, keep=None):
        """Keep each call of ``owner.name`` that returns under ``key``
        (default ``name``), if ``inside`` is on ``active`` and
        ``when(*args, **kwargs)`` holds, each where given; with ``keep``,
        append ``keep(out, *args, **kwargs)`` of each call kept to
        ``kept[key]``."""
        key = name if key is None else key
        self._counts.setdefault(key, 0)
        self.kept.setdefault(key, [])
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            self.active.append(key)
            try:
                out = original(*args, **kwargs)
            finally:
                self.active.pop()
            if ((inside is None or inside in self.active)
                    and (when is None or when(*args, **kwargs))):
                self._counts[key] += 1
                if keep is not None:
                    self.kept[key].append(keep(out, *args, **kwargs))
            return out
        self._monkeypatch.setattr(owner, name, counted)

    def __getitem__(self, key):
        return self._counts[key]
