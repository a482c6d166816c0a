"""Wall-clock spans around the public functions of each serving layer.

A :class:`Tracer` patches functions *where they are looked up* (a module
attribute that another module imported by name, or a class attribute),
times every call, and keeps per-span totals in memory.  Spans nest: the
tracer keeps a stack, so each span's *self time* is its duration minus
the part its child spans cover, and the self times of all spans plus the
time outside every span add up to the traced wall time exactly.

Nothing here is imported by the program: the spans live in the
benchmark's own files, around the calls into each layer.
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs import wall_clock as clock


class Tracer:
    """Span totals, self times and call counts for patched functions."""

    def __init__(self) -> None:
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: Inclusive duration of every call of the spans named in
        #: ``keep_durations`` (for percentiles, e.g. engine step time).
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.keep_durations: set[str] = set()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Patching.
    # ------------------------------------------------------------------
    def _swap(self, owner, attr: str, replacement) -> None:
        # Patch only where the name is defined, so restoring puts the
        # very same object back and never shadows an inherited one.
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(
                    f"{owner.__name__}.{attr} is inherited; patch the "
                    f"class that defines it"
                )
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement(original))

    def span(self, owner, attr: str, name: str, count=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``count(args, kwargs)``, if given, returns a work count added to
        ``counts[name]`` per call (rows encoded, blocks unpacked, ...).
        """
        def make(original):
            def traced(*args, **kwargs):
                frame = [0.0]
                stack = self._stack
                stack.append(frame)
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    self.total_s[name] += elapsed
                    self.self_s[name] += elapsed - frame[0]
                    self.calls[name] += 1
                    if count is not None:
                        self.counts[name] += count(args, kwargs)
                    if name in self.keep_durations:
                        self.durations[name].append(elapsed)

            return traced

        self._swap(owner, attr, make)

    def hook(self, owner, attr: str, after) -> None:
        """Call ``after(result, args)`` after every call of
        ``owner.attr``, untimed (e.g. to stamp a request's submit)."""
        def make(original):
            def hooked(*args, **kwargs):
                result = original(*args, **kwargs)
                after(result, args)
                return result

            return hooked

        self._swap(owner, attr, make)

    def restore(self) -> None:
        """Put back every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Read-out.
    # ------------------------------------------------------------------
    def self_sum(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with
        ``prefix`` (a layer: ``"pool."``, ``"storage."``, ...)."""
        return sum(t for name, t in self.self_s.items() if name.startswith(prefix))

    def per_call(self, name: str) -> float:
        """Mean work count per call of span ``name`` (0 when uncalled)."""
        calls = self.calls.get(name, 0)
        return self.counts.get(name, 0.0) / calls if calls else 0.0
