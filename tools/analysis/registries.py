"""Cross-file contract registries.

Three string-keyed contracts span the repo and can silently drift:

  * wire error codes   -- src/service/error_codes.hpp vs construction
                          sites, client retry logic, tests, DESIGN.md.
  * fault sites        -- src/common/fault_sites.hpp vs faultCheck
                          call sites, tests/chaos arming, README table.
  * metrics key paths  -- src/common/metric_names.hpp vs the JSON trees
                          the stats emitters actually build vs the
                          consumers that read them.

This module extracts each side of each contract into a registry; the
driver (tools/mse_analyze.py) diffs the sides and reports findings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .source import CppSource

# --------------------------------------------------------------------
# Constants headers
# --------------------------------------------------------------------

_CONST_DECL_RE = re.compile(r"const\s+char\s*\*\s*(k\w+)\s*=")


@dataclass
class Const:
    name: str  # identifier, e.g. kBadJson
    value: str  # string value, e.g. "bad_json"
    line: int  # declaration line (1-based)


def parse_constants_header(src: CppSource) -> List[Const]:
    """Extract `inline constexpr const char *kX = "value";` entries.

    The initializer may sit on the following line (clang-format wraps
    long declarations); we pair each declaration with the first string
    literal at or after its line.
    """
    consts: List[Const] = []
    lits = list(src.strings)
    li = 0
    for idx, ln in enumerate(src.code_lines):
        m = _CONST_DECL_RE.search(ln)
        if not m:
            continue
        while li < len(lits) and lits[li].line < idx + 1:
            li += 1
        if li < len(lits):
            consts.append(
                Const(name=m.group(1), value=lits[li].value, line=idx + 1)
            )
            li += 1
    return consts


_ARRAY_DECL_RE = re.compile(
    r"const\s+char\s*\*\s*(k\w+)\[\]\s*=\s*\{([^}]*)\}", re.S
)


def parse_constant_arrays(src: CppSource) -> Dict[str, List[str]]:
    """Extract `constexpr const char *kXs[] = {kA, kB, ...};` tables:
    array name -> member identifier list. Parsed from the
    comments-stripped code text, so the members are bare identifiers.
    """
    text = "\n".join(src.code_lines)
    out: Dict[str, List[str]] = {}
    for m in _ARRAY_DECL_RE.finditer(text):
        out[m.group(1)] = re.findall(r"\bk\w+\b", m.group(2))
    return out


def identifier_refs(
    src: CppSource, namespace: str
) -> List[Tuple[str, int]]:
    """All `namespace::kX` references in a file: [(name, line)]."""
    pat = re.compile(re.escape(namespace) + r"::(k\w+)")
    out: List[Tuple[str, int]] = []
    for idx, ln in enumerate(src.code_lines):
        for m in pat.finditer(ln):
            out.append((m.group(1), idx + 1))
    return out


def function_body(src: CppSource, name_re: str) -> Optional[Tuple[int, str]]:
    """Locate a function definition whose signature matches `name_re`
    and return (first_line_1based, body_text) from the strings-kept
    code view, body delimited by its outermost braces."""
    text = "\n".join(src.code_ws_lines)
    m = re.search(name_re, text)
    if not m:
        return None
    brace = text.find("{", m.end())
    if brace < 0:
        return None
    depth = 0
    for i in range(brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                first_line = text.count("\n", 0, m.start()) + 1
                return (first_line, text[brace + 1:i])
    return None


# --------------------------------------------------------------------
# Wire error codes
# --------------------------------------------------------------------


@dataclass
class ErrorCodeRegistry:
    declared: List[Const] = field(default_factory=list)
    header_path: str = ""
    # name -> [(path, line)] references outside the header
    constructed: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)
    tested: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)
    # codes in the client-side blind-retry set (from isRetryable body)
    retryable: Set[str] = field(default_factory=set)
    # DESIGN.md table: code value -> (retryable_flag, line)
    documented: Dict[str, Tuple[bool, int]] = field(default_factory=dict)

    def by_value(self) -> Dict[str, Const]:
        return {c.value: c for c in self.declared}


def extract_error_codes(
    header: CppSource,
    src_files: Sequence[CppSource],
    test_files: Sequence[CppSource],
    design_text: Optional[str],
) -> ErrorCodeRegistry:
    reg = ErrorCodeRegistry()
    reg.header_path = header.path
    reg.declared = parse_constants_header(header)
    values = {c.name: c.value for c in reg.declared}

    body = function_body(header, r"\bisRetryable\s*\(")
    if body:
        for name in re.findall(r"\b(k\w+)\b", body[1]):
            if name in values:
                reg.retryable.add(values[name])

    for f in src_files:
        if f.path == header.path:
            continue
        for name, line in identifier_refs(f, "wire_errors"):
            reg.constructed.setdefault(name, []).append((f.path, line))
    for f in test_files:
        for name, line in identifier_refs(f, "wire_errors"):
            reg.tested.setdefault(name, []).append((f.path, line))
        by_val = {v: k for k, v in values.items()}
        for lit in f.strings:
            if lit.value in by_val:
                reg.tested.setdefault(by_val[lit.value], []).append(
                    (f.path, lit.line)
                )

    if design_text is not None:
        for value, retry, line in parse_design_error_table(design_text):
            reg.documented[value] = (retry, line)
    return reg


_MD_CODE_ROW_RE = re.compile(r"^\|\s*`([a-z_]+)`\s*\|(.*)\|\s*(.*?)\s*\|\s*$")


def parse_design_error_table(text: str) -> List[Tuple[str, bool, int]]:
    """Parse the DESIGN.md wire-error taxonomy: rows between the
    `| Code | Meaning | Retryable |` header and the next blank line."""
    out: List[Tuple[str, bool, int]] = []
    lines = text.split("\n")
    in_table = False
    for idx, ln in enumerate(lines):
        if re.match(r"^\|\s*Code\s*\|\s*Meaning\s*\|\s*Retryable\s*\|", ln):
            in_table = True
            continue
        if in_table:
            if not ln.strip().startswith("|"):
                break
            m = _MD_CODE_ROW_RE.match(ln.strip())
            if m:
                retry = m.group(3).strip().lower().startswith("yes")
                out.append((m.group(1), retry, idx + 1))
    return out


# --------------------------------------------------------------------
# Fault sites
# --------------------------------------------------------------------


@dataclass
class FaultSiteRegistry:
    declared: List[Const] = field(default_factory=list)
    header_path: str = ""
    consulted: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)
    # site value -> [(path, line)] in tests / chaos scripts that arm it
    exercised: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)
    # README table: site value -> line
    documented: Dict[str, int] = field(default_factory=dict)


_SITE_TOKEN_RE = re.compile(r"[a-z][a-z0-9_.]*[a-z0-9]")


def site_tokens(s: str) -> Set[str]:
    """Dotted-name tokens inside an MSE_FAULTS-ish string: splitting on
    anything outside [a-z0-9_.] keeps `server.wake.read` from also
    matching `server.wake`."""
    return set(_SITE_TOKEN_RE.findall(s))


def extract_fault_sites(
    header: CppSource,
    src_files: Sequence[CppSource],
    test_files: Sequence[CppSource],
    script_texts: Dict[str, str],
    readme_text: Optional[str],
) -> FaultSiteRegistry:
    reg = FaultSiteRegistry()
    reg.header_path = header.path
    reg.declared = parse_constants_header(header)
    site_values = {c.value for c in reg.declared}

    for f in src_files:
        if f.path == header.path:
            continue
        for name, line in identifier_refs(f, "fault_sites"):
            reg.consulted.setdefault(name, []).append((f.path, line))

    # Tests arm sites via literals ("store.append:every:3:EIO"), shell
    # harnesses via MSE_FAULTS= lines.  Tokenise so a compound spec
    # marks exactly the sites it names.
    for f in test_files:
        for lit in f.strings:
            for tok in site_tokens(lit.value) & site_values:
                reg.exercised.setdefault(tok, []).append((f.path, lit.line))
    for path, text in script_texts.items():
        for idx, ln in enumerate(text.split("\n")):
            if "MSE_FAULTS" not in ln:
                continue
            for tok in site_tokens(ln) & site_values:
                reg.exercised.setdefault(tok, []).append((path, idx + 1))

    if readme_text is not None:
        for site, line in parse_readme_fault_table(readme_text):
            reg.documented[site] = line
    return reg


_MD_SITE_ROW_RE = re.compile(r"^\|\s*`([a-z][a-z0-9_.]*)`\s*\|")


def parse_readme_fault_table(text: str) -> List[Tuple[str, int]]:
    """Parse README's fault-site table: rows between the
    `| Site | ... |` header and the next non-table line."""
    out: List[Tuple[str, int]] = []
    lines = text.split("\n")
    in_table = False
    for idx, ln in enumerate(lines):
        if re.match(r"^\|\s*Site\s*\|", ln):
            in_table = True
            continue
        if in_table:
            if not ln.strip().startswith("|"):
                in_table = False
                continue
            m = _MD_SITE_ROW_RE.match(ln.strip())
            if m:
                out.append((m.group(1), idx + 1))
    return out


# --------------------------------------------------------------------
# Metrics key paths
# --------------------------------------------------------------------


@dataclass
class Emitter:
    """One JSON-building function to interpret structurally."""

    path: str  # file containing the definition
    signature: str  # regex locating it, e.g. r"ServiceMetrics::toJson\s*\("
    key: str  # registry name, e.g. "ServiceMetrics::toJson"


@dataclass
class EmittedKey:
    path_segments: Tuple[str, ...]  # ("store", "per_key", "*")
    file: str
    line: int

    @property
    def dotted(self) -> str:
        return ".".join(self.path_segments)


_ROOT_RE = re.compile(
    r"JsonValue\s+(\w+)\s*=\s*(JsonValue::object\(\)|[\w.>-]+\s*\(\s*\))"
)
_BIND_RE = re.compile(
    r"JsonValue\s*&\s*(\w+)\s*=\s*(\w+)\s*((?:\[[^\]]*\])+)\s*;"
)
_ASSIGN_RE = re.compile(
    r"(?<![\w\]])(\w+)\s*((?:\[[^\]]*\])+)\s*=(?!=)\s*([^;]+);"
)
_INDEX_RE = re.compile(r'\[\s*(?:"([^"]*)"|([^\]]*))\s*\]')
_SPLICE_RE = re.compile(r"(\w+)\s*(?:\.|->)\s*(toJson|statsJson)\s*\(\s*\)")


def _indices(chain: str) -> List[str]:
    """Parse an `["a"]["b"][expr]` chain into segments; non-literal
    indices become `*`."""
    segs: List[str] = []
    for m in _INDEX_RE.finditer(chain):
        if m.group(1) is not None:
            segs.append(m.group(1))
        else:
            segs.append("*")
    return segs


def interpret_emitter(
    src: CppSource, emitter: Emitter
) -> Tuple[List[EmittedKey], List[Tuple[Tuple[str, ...], str, int]]]:
    """Abstractly interpret one JSON-building function.

    Tracks `JsonValue` root objects and `JsonValue &` alias bindings,
    turning every `x["k"] = value;` into an emitted dotted key.  An
    assignment whose RHS calls `.toJson()`/`->statsJson()` is returned
    as a splice (mount-path, member-expression, line) for the caller to
    resolve against the other emitters.

    Returns (keys, splices).
    """
    loc = function_body(src, emitter.signature)
    if loc is None:
        return ([], [])
    start_line, body = loc
    vars_: Dict[str, Tuple[str, ...]] = {}
    keys: List[EmittedKey] = []
    splices: List[Tuple[Tuple[str, ...], str, int]] = []

    def line_of(pos: int) -> int:
        return start_line + body.count("\n", 0, pos)

    for m in _ROOT_RE.finditer(body):
        name, init = m.group(1), m.group(2)
        vars_.setdefault(name, ())
        sp = _SPLICE_RE.search(init)
        if sp:
            splices.append(((), sp.group(1), line_of(m.start())))

    for m in _BIND_RE.finditer(body):
        name, base, chain = m.group(1), m.group(2), m.group(3)
        base_path = vars_.get(base)
        if base_path is None:
            continue
        vars_[name] = base_path + tuple(_indices(chain))

    for m in _ASSIGN_RE.finditer(body):
        base, chain, rhs = m.group(1), m.group(2), m.group(3)
        base_path = vars_.get(base)
        if base_path is None:
            continue
        segs = base_path + tuple(_indices(chain))
        sp = _SPLICE_RE.search(rhs)
        if sp:
            splices.append((segs, sp.group(1), line_of(m.start())))
        else:
            keys.append(
                EmittedKey(
                    path_segments=segs,
                    file=src.path,
                    line=line_of(m.start()),
                )
            )
    return (keys, splices)


def resolve_emitted_tree(
    sources: Dict[str, CppSource],
    emitters: Sequence[Emitter],
    splice_targets: Dict[str, str],
    root_key: str,
    extra_splices: Sequence[Tuple[Tuple[str, ...], str]] = (),
) -> List[EmittedKey]:
    """Interpret all emitters, then resolve splices transitively from
    `root_key` (the top-level stats reply builder).

    splice_targets maps a member expression ("metrics_",
    "search_latency_", "agent_ptr") to the emitter key whose tree is
    mounted there.  extra_splices lets the driver add mounts found
    outside any emitter (the augment_stats hook in mse_serve.cpp).
    """
    per_emitter: Dict[str, Tuple[List[EmittedKey], list]] = {}
    for e in emitters:
        src = sources.get(e.path)
        if src is None:
            continue
        per_emitter[e.key] = interpret_emitter(src, e)

    out: List[EmittedKey] = []
    seen: Set[Tuple[str, Tuple[str, ...]]] = set()

    def mount(key: str, prefix: Tuple[str, ...]) -> None:
        if (key, prefix) in seen or key not in per_emitter:
            return
        seen.add((key, prefix))
        keys, splices = per_emitter[key]
        for k in keys:
            out.append(
                EmittedKey(
                    path_segments=prefix + k.path_segments,
                    file=k.file,
                    line=k.line,
                )
            )
        for mount_path, member, _line in splices:
            target = splice_targets.get(member)
            if target:
                mount(target, prefix + mount_path)

    mount(root_key, ())
    for mount_path, target_key in extra_splices:
        mount(target_key, mount_path)
    return out


@dataclass
class MetricsRegistry:
    declared: List[Const] = field(default_factory=list)
    header_path: str = ""
    emitted: List[EmittedKey] = field(default_factory=list)
    # declared name -> [(path, line)] of consumer references
    consumed: Dict[str, List[Tuple[str, int]]] = field(default_factory=dict)


def extract_metrics(
    header: CppSource,
    emitted: List[EmittedKey],
    consumer_files: Sequence[CppSource],
    consumer_texts: Dict[str, str],
) -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.header_path = header.path
    reg.declared = parse_constants_header(header)
    reg.emitted = emitted

    # A declared dotted path counts as consumed when its leaf segment
    # (or the full dotted path) shows up in a consumer: C++ tests index
    # segment-by-segment (doc["store"]["degraded"]), harness scripts
    # grep the serialized form ("degraded":true).
    for c in reg.declared:
        leaf = [s for s in c.value.split(".") if s != "*"]
        if not leaf:
            continue
        needle = leaf[-1]
        for f in consumer_files:
            hits = [
                lit.line
                for lit in f.strings
                if lit.value == needle
                or lit.value == c.value
                or f'"{needle}"' in lit.value.replace('\\"', '"')
            ]
            for ln in hits:
                reg.consumed.setdefault(c.name, []).append((f.path, ln))
        for path, text in consumer_texts.items():
            for idx, ln in enumerate(text.split("\n")):
                if f'"{needle}"' in ln or f"'{needle}'" in ln:
                    reg.consumed.setdefault(c.name, []).append(
                        (path, idx + 1)
                    )
    # metric_names::kX identifier references also count. A reference
    # to a kind array (kAlwaysKeys / kConditionalKeys) is a schema
    # test iterating every member, so it credits them all.
    names = {c.name for c in reg.declared}
    arrays = parse_constant_arrays(header)
    for f in consumer_files:
        for name, line in identifier_refs(f, "metric_names"):
            if name in names:
                reg.consumed.setdefault(name, []).append((f.path, line))
            for member in arrays.get(name, ()):
                if member in names:
                    reg.consumed.setdefault(member, []).append(
                        (f.path, line)
                    )
    return reg
