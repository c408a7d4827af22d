"""Parser for the Makeflow dialect.

"Makeflow's syntax is similar to that of GNU Make" (§II-A). The subset
implemented here covers what the paper's workloads need, plus the
simulation annotations that make a parsed file *runnable* (a real
Makeflow learns runtimes by executing binaries; a simulation must be told
them):

* comments (``#``), blank lines, and backslash line continuation;
* variable assignment ``NAME=value`` and substitution ``$(NAME)``;
* sticky per-rule attributes, set as variables exactly like Makeflow's:
  ``CATEGORY``, ``CORES``, ``MEMORY`` (MB), ``DISK`` (MB), plus the
  simulation-only ``RUNTIME`` (seconds) and ``CPUFRACTION`` (0..1);
* rules::

      target1 target2 : source1 source2
          command to run

  (the command line must be indented); and
* file-size annotations ``.SIZE name size_mb [CACHE]`` declaring the
  size (and cacheability) of files; files without a declared size default
  to ``DEFAULT_FILE_MB`` (1.0).

Rules become :class:`~repro.wq.task.Task` objects: sources are inputs,
targets are outputs, ``CORES/MEMORY/DISK`` form the declared resources
(and, absent a separate measurement, the footprint).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.resources import ResourceVector
from repro.makeflow.dag import WorkflowGraph
from repro.wq.task import FileSpec, Task

DEFAULT_FILE_MB = 1.0

_VAR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.*)$")
_SUBST_RE = re.compile(r"\$\(([A-Za-z_][A-Za-z0-9_]*)\)")
_SIZE_RE = re.compile(r"^\.SIZE\s+(\S+)\s+([0-9.]+)(\s+CACHE)?\s*$")

#: Variables that set sticky rule attributes rather than plain macros.
_ATTR_VARS = {"CATEGORY", "CORES", "MEMORY", "DISK", "RUNTIME", "CPUFRACTION"}


class MakeflowParseError(ValueError):
    """A syntax or semantic error, with the offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class _ParsedRule:
    targets: List[str]
    sources: List[str]
    command: str
    category: str
    cores: float
    memory_mb: float
    disk_mb: float
    runtime_s: float
    cpu_fraction: float
    line_no: int


@dataclass
class _ParserState:
    variables: Dict[str, str] = field(default_factory=dict)
    file_sizes: Dict[str, Tuple[float, bool]] = field(default_factory=dict)
    rules: List[_ParsedRule] = field(default_factory=list)
    category: str = "default"
    cores: float = 1.0
    memory_mb: float = 1024.0
    disk_mb: float = 1024.0
    runtime_s: float = 60.0
    cpu_fraction: float = 1.0


def parse_makeflow(text: str) -> WorkflowGraph:
    """Parse Makeflow source text into a :class:`WorkflowGraph`."""
    state = _ParserState()
    lines = _join_continuations(text.splitlines())
    i = 0
    while i < len(lines):
        line_no, raw = lines[i]
        stripped = _strip_comment(raw)
        i += 1
        if not stripped.strip():
            continue
        if raw[:1] in (" ", "\t"):
            raise MakeflowParseError("command line without a preceding rule", line_no)
        if stripped.startswith(".SIZE"):
            _parse_size(stripped, line_no, state)
            continue
        m = _VAR_RE.match(stripped)
        if m and ":" not in stripped.split("=", 1)[0]:
            _assign(m.group(1), _substitute(m.group(2).strip(), state, line_no), state, line_no)
            continue
        if ":" in stripped:
            # A rule header; the command is the following indented line.
            if i >= len(lines) or lines[i][1][:1] not in (" ", "\t"):
                raise MakeflowParseError("rule is missing an indented command line", line_no)
            cmd_no, cmd_raw = lines[i]
            i += 1
            _parse_rule(stripped, cmd_raw.strip(), line_no, state)
            continue
        raise MakeflowParseError(f"unrecognized line: {stripped!r}", line_no)

    if not state.rules:
        raise MakeflowParseError("no rules found", 0)
    return _build_graph(state)


def parse_makeflow_file(path: str) -> WorkflowGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_makeflow(fh.read())


# ----------------------------------------------------------------- internals
def _join_continuations(raw_lines: List[str]) -> List[Tuple[int, str]]:
    out: List[Tuple[int, str]] = []
    buffer = ""
    start_no = 0
    for idx, line in enumerate(raw_lines, start=1):
        if not buffer:
            start_no = idx
        if line.rstrip().endswith("\\"):
            buffer += line.rstrip()[:-1] + " "
            continue
        out.append((start_no, buffer + line))
        buffer = ""
    if buffer:
        out.append((start_no, buffer))
    return out


def _strip_comment(line: str) -> str:
    # No escaped-# support needed for this dialect.
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _substitute(text: str, state: _ParserState, line_no: int) -> str:
    def repl(m: "re.Match[str]") -> str:
        name = m.group(1)
        if name not in state.variables:
            raise MakeflowParseError(f"undefined variable $({name})", line_no)
        return state.variables[name]

    # Iterate to support nested definitions like A=$(B) with B=$(C).
    for _ in range(10):
        new = _SUBST_RE.sub(repl, text)
        if new == text:
            return new
        text = new
    raise MakeflowParseError("variable substitution did not converge (cycle?)", line_no)


def _assign(name: str, value: str, state: _ParserState, line_no: int) -> None:
    state.variables[name] = value
    if name not in _ATTR_VARS:
        return
    try:
        if name == "CATEGORY":
            state.category = value.strip("\"'") or "default"
        elif name == "CORES":
            state.cores = float(value)
        elif name == "MEMORY":
            state.memory_mb = float(value)
        elif name == "DISK":
            state.disk_mb = float(value)
        elif name == "RUNTIME":
            state.runtime_s = float(value)
        elif name == "CPUFRACTION":
            state.cpu_fraction = float(value)
    except ValueError:
        raise MakeflowParseError(f"{name} expects a number, got {value!r}", line_no) from None


def _parse_size(line: str, line_no: int, state: _ParserState) -> None:
    m = _SIZE_RE.match(line)
    if not m:
        raise MakeflowParseError(".SIZE expects: .SIZE <file> <size_mb> [CACHE]", line_no)
    name, size, cache = m.group(1), float(m.group(2)), bool(m.group(3))
    state.file_sizes[name] = (size, cache)


def _parse_rule(header: str, command: str, line_no: int, state: _ParserState) -> None:
    header = _substitute(header, state, line_no)
    command = _substitute(command, state, line_no)
    left, _, right = header.partition(":")
    targets = left.split()
    sources = right.split()
    if not targets:
        raise MakeflowParseError("rule has no targets", line_no)
    if not command:
        raise MakeflowParseError("rule has an empty command", line_no)
    state.rules.append(
        _ParsedRule(
            targets=targets,
            sources=sources,
            command=command,
            category=state.category,
            cores=state.cores,
            memory_mb=state.memory_mb,
            disk_mb=state.disk_mb,
            runtime_s=state.runtime_s,
            cpu_fraction=state.cpu_fraction,
            line_no=line_no,
        )
    )


def _build_graph(state: _ParserState) -> WorkflowGraph:
    def spec_for(name: str) -> FileSpec:
        size, cache = state.file_sizes.get(name, (DEFAULT_FILE_MB, False))
        return FileSpec(name, size, cacheable=cache)

    tasks: List[Task] = []
    for rule in state.rules:
        resources = ResourceVector(rule.cores, rule.memory_mb, rule.disk_mb)
        tasks.append(
            Task(
                rule.category,
                execute_s=rule.runtime_s,
                footprint=resources,
                declared=resources,
                cpu_fraction=rule.cpu_fraction,
                inputs=tuple(spec_for(s) for s in rule.sources),
                outputs=tuple(spec_for(t) for t in rule.targets),
                command=rule.command,
            )
        )
    try:
        return WorkflowGraph(tasks)
    except ValueError as exc:
        raise MakeflowParseError(str(exc), state.rules[-1].line_no) from exc
