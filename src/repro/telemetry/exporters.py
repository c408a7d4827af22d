"""Trace and metrics exporters: JSONL, Chrome trace, Prometheus text.

Three interchange formats, all dependency-free:

* **JSONL** — one :class:`~repro.telemetry.events.TraceEvent` per line;
  lossless (``read_events_jsonl(write_events_jsonl(evts)) == evts``)
  because event attributes are restricted to JSON scalars;
* **Chrome trace** — the ``chrome://tracing`` / Perfetto JSON format:
  each simulation layer becomes a thread, each run a process, and every
  trace event an instant event at microsecond resolution;
* **Prometheus text** — the exposition format v0.0.4 rendering of a
  :class:`~repro.telemetry.metrics.MetricsRegistry`, plus a tiny parser
  (:func:`parse_prometheus_text`) used by tests and CI to prove the
  output is well-formed.
"""

from __future__ import annotations

import json
from typing import IO, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.telemetry.events import TraceEvent, layers
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry

PathOrFile = Union[str, "os.PathLike[str]", IO[str]]  # noqa: F821


# ------------------------------------------------------------------- JSONL
def events_to_jsonl(
    events: Iterable[TraceEvent], *, run: Optional[str] = None
) -> str:
    """Serialize events one-per-line; ``run`` tags every line (so several
    runs can share one file and still be teased apart)."""
    lines = []
    for event in events:
        d = event.to_dict()
        if run is not None:
            d["run"] = run
        lines.append(json.dumps(d, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")

def write_events_jsonl(
    events: Iterable[TraceEvent], path: PathOrFile, *, run: Optional[str] = None
) -> None:
    text = events_to_jsonl(events, run=run)
    if hasattr(path, "write"):
        path.write(text)  # type: ignore[union-attr]
    else:
        with open(path, "w", encoding="utf-8") as fp:  # type: ignore[arg-type]
            fp.write(text)


def read_events_jsonl(path: PathOrFile) -> List[TraceEvent]:
    """Parse a JSONL trace back into events (``run`` tags are dropped —
    use :func:`read_runs_jsonl` to keep them)."""
    return [event for _run, event in read_runs_jsonl(path)]


def read_runs_jsonl(path: PathOrFile) -> List[Tuple[Optional[str], TraceEvent]]:
    if hasattr(path, "read"):
        text = path.read()  # type: ignore[union-attr]
    else:
        with open(path, "r", encoding="utf-8") as fp:  # type: ignore[arg-type]
            text = fp.read()
    out: List[Tuple[Optional[str], TraceEvent]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        d = json.loads(line)
        run = d.pop("run", None)
        out.append((run, TraceEvent.from_dict(d)))
    return out


# ------------------------------------------------------------ Chrome trace
def chrome_trace(
    runs: Sequence[Tuple[str, Sequence[TraceEvent]]],
) -> Dict[str, object]:
    """Build a ``chrome://tracing`` JSON object.

    ``runs`` is a list of ``(run_name, events)`` pairs; each run maps to
    one process (pid), each layer within it to one thread (tid), and
    each event to a thread-scoped instant event with ``ts`` in
    microseconds of simulated time. Metadata records name the processes
    and threads so the viewer shows ``run / layer`` lanes.
    """
    trace_events: List[Dict[str, object]] = []
    for pid, (run_name, events) in enumerate(runs, start=1):
        trace_events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": run_name},
            }
        )
        tids = {layer: tid for tid, layer in enumerate(layers(events), start=1)}
        for layer, tid in tids.items():
            trace_events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": layer},
                }
            )
        for event in events:
            args: Dict[str, object] = dict(event.attrs)
            if event.category is not None:
                args.setdefault("category", event.category)
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",  # thread-scoped instant
                    "name": event.name,
                    "cat": event.layer,
                    "pid": pid,
                    "tid": tids[event.layer],
                    "ts": round(event.time * 1e6, 3),
                    "args": args,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    runs: Sequence[Tuple[str, Sequence[TraceEvent]]], path: PathOrFile
) -> None:
    doc = chrome_trace(runs)
    if hasattr(path, "write"):
        json.dump(doc, path)  # type: ignore[arg-type]
    else:
        with open(path, "w", encoding="utf-8") as fp:  # type: ignore[arg-type]
            json.dump(doc, fp)


# -------------------------------------------------------- Prometheus text
def _render_labels(key: Tuple[Tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(
        '{}="{}"'.format(k, v.replace("\\", "\\\\").replace('"', '\\"'))
        for k, v in key
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render every instrument in Prometheus exposition format."""
    lines: List[str] = []
    for instrument in registry.instruments():
        if instrument.help:
            lines.append(f"# HELP {instrument.name} {instrument.help}")
        lines.append(f"# TYPE {instrument.name} {instrument.kind}")
        if isinstance(instrument, (Counter, Gauge)):
            samples = instrument.samples()
            if not samples:
                lines.append(f"{instrument.name} 0")
            for key, value in samples:
                lines.append(
                    f"{instrument.name}{_render_labels(key)} {_fmt(value)}"
                )
        elif isinstance(instrument, Histogram):
            for key, snap in instrument.samples():
                base = dict(key)
                for bound, cumulative in snap.buckets:
                    bkey = tuple(sorted({**base, "le": _fmt(bound)}.items()))
                    lines.append(
                        f"{instrument.name}_bucket{_render_labels(bkey)} {cumulative}"
                    )
                inf_key = tuple(sorted({**base, "le": "+Inf"}.items()))
                lines.append(
                    f"{instrument.name}_bucket{_render_labels(inf_key)} {snap.count}"
                )
                lines.append(
                    f"{instrument.name}_sum{_render_labels(key)} {_fmt(snap.sum)}"
                )
                lines.append(
                    f"{instrument.name}_count{_render_labels(key)} {snap.count}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus_text(registry: MetricsRegistry, path: PathOrFile) -> None:
    text = prometheus_text(registry)
    if hasattr(path, "write"):
        path.write(text)  # type: ignore[union-attr]
    else:
        with open(path, "w", encoding="utf-8") as fp:  # type: ignore[arg-type]
            fp.write(text)


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Minimal exposition-format parser: ``{(name, labels): value}``.

    Supports exactly what :func:`prometheus_text` emits (no escapes in
    label values beyond ``\\"`` and ``\\\\``); raises ``ValueError`` on
    malformed lines so tests and CI can use it as a validator.
    """
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed sample line: {raw!r}")
        value = float("inf") if value_part == "+Inf" else float(value_part)
        labels: Tuple[Tuple[str, str], ...] = ()
        name = name_part
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"malformed labels in line: {raw!r}")
            name, _, label_blob = name_part[:-1].partition("{")
            pairs = []
            for item in _split_labels(label_blob):
                k, _, v = item.partition("=")
                if not (v.startswith('"') and v.endswith('"')):
                    raise ValueError(f"malformed label value in line: {raw!r}")
                pairs.append(
                    (k, v[1:-1].replace('\\"', '"').replace("\\\\", "\\"))
                )
            labels = tuple(sorted(pairs))
        if not name:
            raise ValueError(f"malformed sample line: {raw!r}")
        out[(name, labels)] = value
    return out


def _split_labels(blob: str) -> List[str]:
    """Split ``a="x",b="y"`` on commas outside quotes."""
    items: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in blob:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\":
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
        if ch == "," and not in_quotes:
            items.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        items.append("".join(current))
    return [i for i in (s.strip() for s in items) if i]
