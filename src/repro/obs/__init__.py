"""repro.obs — the unified observability layer.

One dependency-free subsystem for everything the repo previously
measured ad hoc:

- :mod:`repro.obs.registry` — the :class:`Telemetry` registry (typed
  counters, gauges, span aggregates, privacy ledger), disabled by
  default, thread-safe, and mergeable across process-pool workers via
  picklable snapshots;
- :mod:`repro.obs.spans` — hierarchical monotonic-clock ``span()``
  timers;
- :mod:`repro.obs.ledger` — per-mechanism epsilon accounting
  (:class:`PrivacyLedgerView`) with parallel/sequential composition;
- :mod:`repro.obs.export` — JSON-lines traces, ``BENCH``-style
  summaries, and human tables (``repro obs report``);
- :mod:`repro.obs.trend` — median-normalized diffing of two BENCH-style
  summaries (``repro obs trend``).

Everything here is importable with zero third-party dependencies and
no-ops completely when no registry is active, so instrumented library
code stays fast by default.  See ``docs/observability.md``.
"""

from repro.obs.export import (
    format_report,
    read_trace,
    summary_dict,
    summary_path_for,
    write_summary,
    write_trace,
)
from repro.obs.ledger import (
    PrivacyLedgerView,
    record_laplace_release,
    record_mechanism,
)
from repro.obs.registry import (
    LedgerEntry,
    SpanEvent,
    Telemetry,
    TelemetrySnapshot,
    add_gauge,
    get_telemetry,
    incr,
    merge_snapshots,
    set_gauge,
    set_telemetry,
    telemetry,
)
from repro.obs.spans import current_span_path, span
from repro.obs.trend import (
    TrendReport,
    compare_summaries,
    format_trend,
    load_summary,
)

__all__ = [
    "Telemetry",
    "TelemetrySnapshot",
    "SpanEvent",
    "LedgerEntry",
    "get_telemetry",
    "set_telemetry",
    "telemetry",
    "incr",
    "add_gauge",
    "set_gauge",
    "merge_snapshots",
    "span",
    "current_span_path",
    "PrivacyLedgerView",
    "record_laplace_release",
    "record_mechanism",
    "write_trace",
    "read_trace",
    "summary_dict",
    "write_summary",
    "summary_path_for",
    "format_report",
    "TrendReport",
    "compare_summaries",
    "format_trend",
    "load_summary",
]
