"""Shared utilities: report formatting, bounded caching, SVG plotting.

:mod:`repro.utils.lru` is import-light (stdlib only) so core modules can
use it; the reporting helpers transitively import the simulator, which the
lazy export table (see :func:`repro.lazy_exports`) loads only on first use.
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    ".lru": "LRUCache",
    ".reporting": "format_table format_timeline",
})
