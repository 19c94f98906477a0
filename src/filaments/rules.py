"""Rule catalogue, structural classification, and a textual rule-file format.

The catalogue's fixed rules are the text files in the package's ``data/``
directory: each file is its rule's one definition, and its comments say how
the rule works. ``automaton_i()`` and ``automaton_ii()`` (three-state sweep
automata, whose filaments die out or settle into a perpetual sweep cycle),
``bouncer_rule()`` (a two-state radius-2 rule that bounces a zero along the
filament forever; ``bouncer_core_rule()`` is its hand-written kernel) and
``oblivious_example_rule()`` (the canonical uninteresting rule) load them.
``clock_rule(s)`` is built in code, since it is parametric in ``s``;
``data/clock-2.rule`` and ``data/clock-3.rule`` are two of its rules.

``classify_rule`` computes the structural properties that separate rules
worth simulating from degenerate ones: a rule is *oblivious* when some
state has the same successor under every admissible input, and
*interesting* when its state digraph is strongly connected with minimum
out-degree above one. It reads them from the compiled table through
``state_graphs``, which the three-state hunt calls on a whole batch of
tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    ANY,
    EMPTY,
    PatternToken,
    Rule,
    RuleConflictError,
    RuleEntry,
    _admissible_cells,
    _empties_outermost,
)

__all__ = [
    "CATALOGUE",
    "RuleClassification",
    "RuleParseError",
    "automaton_i",
    "automaton_ii",
    "bouncer_core_rule",
    "bouncer_rule",
    "classify_rule",
    "clock_rule",
    "load_rule",
    "oblivious_example_rule",
    "parse_rule",
    "rule_named",
    "serialize_rule",
    "state_graphs",
]


class RuleParseError(ValueError):
    """A rule file that cannot be turned into a valid Rule."""


# -- catalogue ----------------------------------------------------------------


_DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def clock_rule(s: int) -> Rule:
    """Counting rule with ``s`` states: leftmost increments, others copy left+1.

    Fully specified: every admissible input is matched, including the
    no-neighbors case, where the cell behaves like a leftmost cell.
    """
    if s < 2:
        raise ValueError("a clock needs at least 2 states")
    entries = []
    for c in range(s):
        for right_tok in (ANY, EMPTY):
            for left in range(s):
                entries.append(RuleEntry(c, (left,), (right_tok,), (left + 1) % s))
            entries.append(RuleEntry(c, (EMPTY,), (right_tok,), (c + 1) % s))
    return Rule(f"clock-{s}", s, 1, symmetric=False, entries=tuple(entries))


def _shipped(name: str) -> Rule:
    """The catalogue rule defined by the package data file ``data/<name>.rule``."""
    return load_rule(os.path.join(_DATA_DIR, f"{name}.rule"))


def oblivious_example_rule() -> Rule:
    """Two-state rule whose state 1 unconditionally decays to 0."""
    return _shipped("oblivious-example")


def automaton_i() -> Rule:
    """Symmetric 3-state rule with a six-sweep normal cycle."""
    return _shipped("automaton-i")


def automaton_ii() -> Rule:
    """Symmetric 3-state rule with a two-sweep normal cycle."""
    return _shipped("automaton-ii")


def bouncer_core_rule() -> Rule:
    """The hand-written kernel of the bouncer: the bounce cycle itself."""
    return _shipped("bouncer-core")


def bouncer_rule() -> Rule:
    """The full bouncer: core entries plus the derived completion set."""
    return _shipped("bouncer")


CATALOGUE: dict[str, Callable[[], Rule]] = {
    "automaton-i": automaton_i,
    "automaton-ii": automaton_ii,
    "bouncer": bouncer_rule,
    "bouncer-core": bouncer_core_rule,
    "oblivious-example": oblivious_example_rule,
}


def rule_named(name: str) -> Rule:
    """Resolve a rule by catalogue name, ``clock-<s>``, or file path."""
    if name in CATALOGUE:
        return CATALOGUE[name]()
    if name.startswith("clock-"):
        suffix = name[len("clock-") :]
        if _is_number(suffix) and int(suffix) >= 2:
            return clock_rule(int(suffix))
        raise RuleParseError(f"bad clock spec {name!r}: expected clock-<s> with s >= 2")
    if os.path.exists(name):
        return load_rule(name)
    known = ", ".join(sorted(CATALOGUE) + ["clock-<s>"])
    raise RuleParseError(f"unknown rule {name!r}: not a catalogue name ({known}) or file")


# -- structural classification -------------------------------------------------


@dataclass(frozen=True)
class RuleClassification:
    """Structural facts about a rule's state digraph.

    The digraph has an edge a -> b when some admissible input sends a cell
    in state a to state b; hold self-loops count. ``interesting`` rules
    are strongly connected with minimum out-degree above one (which also
    rules out obliviousness).
    """

    oblivious: bool
    oblivious_witness: Optional[int]
    strongly_connected: bool
    min_out_degree: int

    @property
    def interesting(self) -> bool:
        return self.strongly_connected and self.min_out_degree > 1 and not self.oblivious


def classify_rule(rule: Rule) -> RuleClassification:
    """Classify a rule from the admissible cells of its lookup table."""
    out_degree, connected = state_graphs(rule.lookup_table[None])
    degree = out_degree[0].tolist()
    oblivious_witness = next((c for c, d in enumerate(degree) if d == 1), None)
    return RuleClassification(
        oblivious=oblivious_witness is not None,
        oblivious_witness=oblivious_witness,
        strongly_connected=bool(connected[0]),
        min_out_degree=min(degree),
    )


def state_graphs(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Out-degrees ``(B, s)`` and strong connectivity ``(B,)`` of the state graphs
    of ``B`` compiled ``(B, s, s + 1, ...)`` tables, read from admissible cells only.

    Reachability closes by squaring the reversed adjacency matrices, self-loops
    added; a graph is strongly connected exactly when its reverse is.
    """
    num_states = tables.shape[1]
    cells = tables[:, :, _admissible_cells(num_states, (tables.ndim - 2) // 2)]
    # into[d, b, c]: some admissible cell of table b takes state c to state d.
    into = np.array([(cells == d).any(axis=2) for d in range(num_states)])
    reach = into.transpose(1, 0, 2) | np.eye(num_states, dtype=bool)
    for _ in range((num_states - 2).bit_length()):  # paths of 2**k >= s - 1 steps
        reach = reach @ reach
    return into.sum(axis=0), reach.all(axis=(1, 2))


# -- textual format -------------------------------------------------------------


def _is_number(text: str) -> bool:
    """Whether ``text`` is ASCII digits only: ``str.isdigit`` alone also takes
    superscripts, which ``int`` rejects, and other scripts' digits."""
    return text.isascii() and text.isdigit()


def _format_token(tok: PatternToken) -> str:
    if tok is EMPTY:
        return "E"
    if tok == ANY:
        return "*"
    return str(tok)


def _parse_token(text: str, num_states: int, lineno: int) -> PatternToken:
    if text == "E":
        return EMPTY
    if text == "*":
        return ANY
    if _is_number(text):
        value = int(text)
        if value >= num_states:
            raise RuleParseError(
                f"line {lineno}: state {value} out of range for {num_states} states"
            )
        return value
    raise RuleParseError(f"line {lineno}: bad pattern token {text!r} (want digit, E, or *)")


def serialize_rule(rule: Rule) -> str:
    """Render a rule in the textual format accepted by parse_rule.

    Each side is written outermost first, so a radius-2 line reads
    ``current | left-outer left-inner right-outer right-inner -> next``.
    """
    lines = [
        f"states {rule.num_states}",
        f"radius {rule.radius}",
        f"symmetric {'true' if rule.symmetric else 'false'}",
        "",
    ]
    for e in rule.entries:
        left = " ".join(_format_token(t) for t in e.left)
        right = " ".join(_format_token(t) for t in reversed(e.right))
        lines.append(f"{e.current} | {left} {right} -> {e.next_state}")
    return "\n".join(lines) + "\n"


def parse_rule(text: str, name: str = "parsed") -> Rule:
    """Parse the textual rule format; see serialize_rule for the layout.

    Raises RuleParseError with a line number on malformed input, out of
    range states, an E token inside a side (such an entry could match no
    input), or entries that contradict each other.
    """
    headers: dict[str, str] = {}
    header_order = ["states", "radius", "symmetric"]
    entry_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if len(headers) < 3:
            expected = header_order[len(headers)]
            parts = line.split()
            if len(parts) != 2 or parts[0] != expected:
                raise RuleParseError(f"line {lineno}: expected header '{expected} <value>'")
            headers[expected] = parts[1]
            continue
        entry_lines.append((lineno, line))
    if len(headers) < 3:
        raise RuleParseError("missing headers: need states, radius, symmetric")

    if not _is_number(headers["states"]) or int(headers["states"]) < 1:
        raise RuleParseError(f"bad states header {headers['states']!r}")
    num_states = int(headers["states"])
    if headers["radius"] not in ("1", "2"):
        raise RuleParseError(f"bad radius header {headers['radius']!r}: want 1 or 2")
    radius = int(headers["radius"])
    if headers["symmetric"] not in ("true", "false"):
        raise RuleParseError(f"bad symmetric header {headers['symmetric']!r}: want true or false")
    symmetric = headers["symmetric"] == "true"

    entries = []
    for lineno, line in entry_lines:
        head, arrow, next_text = line.partition("->")
        if not arrow:
            raise RuleParseError(f"line {lineno}: missing '->'")
        current_text, bar, patterns_text = head.partition("|")
        if not bar:
            raise RuleParseError(f"line {lineno}: missing '|'")
        current_text = current_text.strip()
        next_text = next_text.strip()
        if not _is_number(current_text) or not _is_number(next_text):
            raise RuleParseError(f"line {lineno}: current and next must be state digits")
        current = int(current_text)
        next_state = int(next_text)
        if current >= num_states or next_state >= num_states:
            raise RuleParseError(f"line {lineno}: state out of range for {num_states} states")
        tokens = patterns_text.split()
        if len(tokens) != 2 * radius:
            raise RuleParseError(
                f"line {lineno}: expected {2 * radius} pattern tokens, got {len(tokens)}"
            )
        parsed = [_parse_token(t, num_states, lineno) for t in tokens]
        left = tuple(parsed[:radius])
        right = tuple(reversed(parsed[radius:]))
        if not _empties_outermost(left, right):
            raise RuleParseError(f"line {lineno}: E tokens must be the outermost of each side")
        entries.append(RuleEntry(current, left, right, next_state))
    try:
        return Rule(name, num_states, radius, symmetric, tuple(entries))
    except RuleConflictError as exc:
        raise RuleParseError(f"conflicting entries: {exc}") from exc
    except ValueError as exc:
        raise RuleParseError(str(exc)) from exc


def load_rule(path: str) -> Rule:
    """Read one rule file; the rule is named after the file stem."""
    with open(path, encoding="utf-8") as fh:
        return parse_rule(fh.read(), name=os.path.splitext(os.path.basename(path))[0])
