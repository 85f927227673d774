"""Host-time layer sampler: which package the CPU time goes to.

Every other instrument in :mod:`repro.obs` watches *simulated* time; this
one watches where *host* time goes while experiments run — the
targeting instrument for engine-speed work.  It never touches an
:class:`~repro.sim.core.Engine`: while a :class:`LayerSampler` is
active, a ``SIGPROF`` interval timer interrupts the process every
:data:`INTERVAL_S` of CPU time, and the handler charges one sample to
the innermost interrupted frame whose file lies in the ``repro``
package:

* **layer** — the subpackage (``sim``, ``pcie``, ``peach2``, ``hw``,
  ``tca``, ``collectives``, ``drivers``, ``obs``, ``bench``, ...);
  top-level modules such as ``repro/units.py`` count as ``other``;
* **site** — ``module.qualname`` of that frame, the thing a human
  optimizes.

Frames outside the package (the stdlib, numpy's Python layer, the test
runner) are walked past; a sample with no ``repro`` frame on the stack
is counted but unattributed.  Reports give sample counts and shares
rather than durations: the kernel rounds the interval up to its tick,
so the nominal interval times the count is not a trustworthy duration.
Sampling schedules nothing and reads no simulated state, so a sampled
run's outputs are picosecond-identical to a bare one, and between
samples it costs nothing.
"""

from __future__ import annotations

import os
import signal
from collections import Counter
from types import FrameType
from typing import Any, Dict, List, Optional, Tuple

import repro

#: Sampling period in seconds of process CPU time.  The kernel coalesces
#: it to its timer tick (about 4 ms on a HZ=250 kernel).
INTERVAL_S = 0.001

#: Version tag of :meth:`ProfileReport.to_dict`.
SCHEMA = "tca-bench-profile/2"

#: Top-level modules (``repro/units.py``, ``repro/errors.py``) charge here.
OTHER = "other"

_ROOT = os.path.dirname(repro.__file__) + os.sep


def _classify(frame: Optional[FrameType]) -> Optional[Tuple[str, str]]:
    """``(layer, site)`` of the innermost ``repro`` frame, or None."""
    while frame is not None:
        code = frame.f_code
        path = code.co_filename
        if path.startswith(_ROOT):
            parts = path[len(_ROOT):-len(".py")].split(os.sep)
            layer = parts[0] if len(parts) > 1 else OTHER
            if parts[-1] == "__init__":
                parts.pop()
            module = ".".join(["repro", *parts])
            # co_qualname is new in Python 3.11.
            name = getattr(code, "co_qualname", code.co_name)
            return layer, f"{module}.{name}"
        frame = frame.f_back
    return None


class ProfileReport:
    """One sampling window's layer shares and hottest sites."""

    def __init__(self, samples: int, sites: Dict[Tuple[str, str], int],
                 label: str = ""):
        self.samples = samples
        #: (layer, site) -> samples, hottest first.
        self.sites = dict(sorted(sites.items(),
                                 key=lambda kv: (-kv[1], kv[0][1])))
        self.label = label

    @property
    def attributed(self) -> int:
        """Samples that landed in a ``repro`` frame."""
        return sum(self.sites.values())

    @property
    def attributed_fraction(self) -> float:
        """Attributed share of all samples; 0.0 with no samples."""
        return self.attributed / self.samples if self.samples else 0.0

    def layers(self) -> Dict[str, float]:
        """Layer -> share of the attributed samples, hottest first."""
        counts: Counter = Counter()
        for (layer, _), n in self.sites.items():
            counts[layer] += n
        total = self.attributed
        return {layer: n / total for layer, n in counts.most_common()}

    def top(self, n: int = 10) -> List[Tuple[str, str, int]]:
        """The ``n`` most sampled ``(layer, site, samples)``."""
        return [(layer, site, count) for (layer, site), count
                in list(self.sites.items())[:n]]

    def to_dict(self, top_n: int = 25) -> Dict[str, Any]:
        total = self.attributed or 1
        return {
            "schema": SCHEMA,
            "label": self.label,
            "samples": self.samples,
            "attributed_fraction": round(self.attributed_fraction, 4),
            "layers": {layer: round(share, 4)
                       for layer, share in self.layers().items()},
            "hotspots": [{"layer": layer, "site": site, "samples": count,
                          "share": round(count / total, 4)}
                         for layer, site, count in self.top(top_n)],
        }

    def render(self, top_n: int = 15) -> str:
        """Terminal table: layer shares, then the hottest sites."""
        total = self.attributed or 1
        shares = "  ".join(f"{layer} {100 * share:.1f}%"
                           for layer, share in self.layers().items())
        header = f"{'layer':<12} {'samples':>8} {'share':>7}  site"
        lines = [f"layers: {shares or '(none)'}", "", header,
                 "-" * len(header)]
        for layer, site, count in self.top(top_n):
            lines.append(f"{layer:<12} {count:>8} "
                         f"{100 * count / total:>6.1f}%  {site}")
        lines.append("")
        lines.append(f"{self.samples} samples, "
                     f"{100 * self.attributed_fraction:.1f}% in repro "
                     f"frames")
        return "\n".join(lines)


class LayerSampler:
    """Samples the running process by layer while the ``with`` block runs.

    Entering installs a ``SIGPROF`` handler and arms ``ITIMER_PROF``;
    exiting puts back whatever handler and timer were there before, also
    when the block raises.  Signal handlers run in the main thread, so
    the sampler must be entered there.  CPU time spent in forked
    workers, or blocked waiting for them, is not sampled.
    """

    def __init__(self) -> None:
        self.samples = 0
        self.sites: Counter = Counter()
        self._previous: Any = None

    def __enter__(self) -> "LayerSampler":
        handler = signal.signal(signal.SIGPROF, self._on_signal)
        timer = signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._previous = (handler, timer)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        handler, timer = self._previous
        # Timer first, handler second: a tick already pending is then
        # delivered to this sampler, never to a default action that would
        # kill the process.
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF,
                      signal.SIG_DFL if handler is None else handler)

    def _on_signal(self, signum: int, frame: Optional[FrameType]) -> None:
        self.sample(frame)

    def sample(self, frame: Optional[FrameType]) -> None:
        """Charge one sample to the stack ending at ``frame``."""
        self.samples += 1
        key = _classify(frame)
        if key is not None:
            self.sites[key] += 1

    def report(self, label: str = "") -> ProfileReport:
        return ProfileReport(self.samples, self.sites, label=label)
