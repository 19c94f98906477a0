"""Catalogue rules, structural classification, and the textual rule format."""

import glob
import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filaments.core import ANY, EMPTY, Filament, Rule, RuleEntry
from filaments.engine import detect_cycle, step
from filaments.rules import (
    CATALOGUE,
    RuleClassification,
    RuleParseError,
    automaton_i,
    automaton_ii,
    bouncer_core_rule,
    bouncer_rule,
    classify_rule,
    clock_rule,
    load_rule,
    oblivious_example_rule,
    parse_rule,
    rule_named,
    serialize_rule,
)
from filaments.search import rule_from_index

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "filaments", "data")


def test_clock_rule_counts_in_unison():
    rule = clock_rule(3)
    f = Filament.from_string("0000")
    seen = [f]
    for _ in range(6):
        seen.append(step(rule, seen[-1]))
    # Within n steps everyone agrees, then the whole row increments mod s.
    assert len(set(seen[4].cells)) == 1
    for t in range(4, 6):
        assert seen[t + 1].cells == tuple((c + 1) % 3 for c in seen[t].cells)


def test_clock_rule_rejects_small_state_count():
    with pytest.raises(ValueError):
        clock_rule(1)


def test_oblivious_example_is_oblivious():
    cls = classify_rule(oblivious_example_rule())
    assert cls.oblivious
    assert cls.oblivious_witness == 1
    assert not cls.interesting


def test_clock_rules_are_interesting():
    for s in (2, 3, 4):
        cls = classify_rule(clock_rule(s))
        assert cls.strongly_connected
        assert cls.min_out_degree == s
        assert cls.interesting


def test_sweep_automata_are_interesting():
    for rule in (automaton_i(), automaton_ii()):
        cls = classify_rule(rule)
        assert cls.interesting
        assert not cls.oblivious


def strongly_connected(succ: dict[int, set[int]], num_states: int) -> bool:
    """Depth-first reference: state 0 reaches every state, and every state reaches 0."""

    def reachable(start: int, edges: dict[int, set[int]]) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            for y in edges[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    reverse = {c: {a for a in range(num_states) if c in succ[a]} for c in range(num_states)}
    return len(reachable(0, succ)) == len(reachable(0, reverse)) == num_states


def reference_classification(rule: Rule) -> RuleClassification:
    """The classification read off ``Rule.next_state`` over every admissible input."""
    s = rule.num_states
    succ = {c: {rule.next_state(c, nb) for nb in rule.admissible_neighborhoods()} for c in range(s)}
    witness = next((c for c in range(s) if len(succ[c]) == 1), None)
    return RuleClassification(
        oblivious=witness is not None,
        oblivious_witness=witness,
        strongly_connected=strongly_connected(succ, s),
        min_out_degree=min(len(v) for v in succ.values()),
    )


@pytest.mark.parametrize(
    "name", sorted(CATALOGUE) + [f"clock-{s}" for s in range(2, 7)] + [f"rule-{i}" for i in (0, 186, 4039, 54378)]
)
def test_classify_rule_matches_the_depth_first_reference(name):
    rule = rule_from_index(int(name[5:])) if name.startswith("rule-") else rule_named(name)
    assert classify_rule(rule) == reference_classification(rule)


@st.composite
def valid_rules(draw):
    """Rules of 2 or 3 states at radius 1 or 2 whose next states come from one
    to three drawn targets per state, so that out-degree one and disconnected
    graphs come up often. A state is either covered by wildcard entries, one
    per pair of side shapes, so that it holds only if a target says so, or
    gets concrete entries for some of up to 48 drawn inputs."""
    s, r = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = [rng.choice(s, size=rng.integers(1, 4)) for _ in range(s)]
    covered = (rng.random(s) < 0.5).tolist()
    shapes = [(EMPTY,) * (r - k) + (ANY,) * k for k in range(r + 1)]  # left sides; a right side is one reversed
    entries = [
        RuleEntry(c, left, right[::-1], int(rng.choice(targets[c])))
        for c in range(s)
        if covered[c]
        for left in shapes
        for right in shapes
    ]
    hold = Rule("hold", s, r, symmetric=False, entries=())
    inputs = [(c, nb) for c in range(s) for nb in hold.admissible_neighborhoods() if not covered[c]]
    for i in rng.permutation(len(inputs))[: draw(st.integers(0, 48))]:
        c, nb = inputs[i]
        entries.append(RuleEntry(c, nb.left, nb.right, int(rng.choice(targets[c]))))
    return Rule("drawn", s, r, symmetric=False, entries=tuple(entries))


@given(valid_rules())
@settings(max_examples=60, deadline=None)
def test_classify_rule_matches_the_depth_first_reference_on_drawn_rules(rule):
    assert classify_rule(rule) == reference_classification(rule)


def test_bouncer_is_interesting_and_core_is_not_complete():
    assert classify_rule(bouncer_rule()).interesting
    core = bouncer_core_rule()
    full = bouncer_rule()
    assert set(core.entries) < set(full.entries)


def test_bouncer_core_alone_leaves_states_stranded():
    # The kernel drives the bounce but does not pull every state into it.
    stuck = detect_cycle(bouncer_core_rule(), Filament.from_string("01010"))
    pulled = detect_cycle(bouncer_rule(), Filament.from_string("01010"))
    assert pulled.outcome == "cyclic"
    assert pulled.period == 8
    assert stuck.period != 8 or stuck.outcome != "cyclic"


def test_catalogue_names_resolve():
    for name in CATALOGUE:
        assert rule_named(name).name == name
    assert rule_named("clock-5").num_states == 5


# (entry count, sha256 of lookup_table.tobytes()) of each rule defined by a
# shipped file, as its builder in code gave them before the files became the
# catalogue; a silent edit of a file shows here.
SHIPPED_TABLES = {
    "automaton-i": (6, "4ce1e889ba7c398cfaf24253228e5ad1e84e99c4e5bed11f58f204cd4d53ef7a"),
    "automaton-ii": (5, "0fac25f5ff109e7d8eb0a675c571ee2d1292681c952c79e78daa27a4e2336337"),
    "bouncer": (38, "cf216be757b6001217fdf8ebe68bb1d40322d9702f001aa4f0dd254a676a2dd0"),
    "bouncer-core": (14, "50de72cf5eb4bbc86bb937301829cc02b286703f673f12bf7c14f28bc56be1cf"),
    "oblivious-example": (12, "cbf1c52efedff14f2e6b65b2ce8633167b0ce62c7c53907662727b6c26fdb792"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_TABLES))
def test_catalogue_rules_keep_their_frozen_tables(name):
    rule = CATALOGUE[name]()
    count, digest = SHIPPED_TABLES[name]
    assert (len(rule.entries), hashlib.sha256(rule.lookup_table.tobytes()).hexdigest()) == (count, digest)


def test_catalogue_is_the_shipped_files_but_the_clocks():
    stems = {os.path.basename(p)[: -len(".rule")] for p in glob.glob(os.path.join(DATA_DIR, "*.rule"))}
    assert set(CATALOGUE) == stems - {"clock-2", "clock-3"}


def test_catalogue_names_resolve_outside_the_checkout(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name in CATALOGUE:
        rule = rule_named(name)
        assert rule.name == name
        assert rule == load_rule(os.path.join(DATA_DIR, f"{name}.rule"))


def test_rule_named_rejects_unknown():
    with pytest.raises(RuleParseError) as err:
        rule_named("no-such-rule")
    assert "automaton-i" in str(err.value)
    with pytest.raises(RuleParseError):
        rule_named("clock-1")
    with pytest.raises(RuleParseError):
        rule_named("clock-x")


@pytest.mark.parametrize("digit", ["\u00b3", "\u0663"], ids=["superscript-3", "arabic-indic-3"])
def test_rule_named_rejects_clock_sizes_outside_ascii_digits(digit):
    # str.isdigit takes both; int() rejects the superscript and reads the Arabic-Indic digit as 3.
    with pytest.raises(RuleParseError, match="bad clock spec"):
        rule_named(f"clock-{digit}")


def test_rule_named_loads_files(tmp_path):
    path = tmp_path / "custom.rule"
    path.write_text(serialize_rule(automaton_ii()))
    rule = rule_named(str(path))
    assert rule.name == "custom"
    assert (rule.lookup_table == automaton_ii().lookup_table).all()


@pytest.mark.parametrize(
    "rule",
    [
        automaton_i(),
        automaton_ii(),
        bouncer_rule(),
        bouncer_core_rule(),
        clock_rule(2),
        clock_rule(3),
        oblivious_example_rule(),
    ],
    ids=lambda r: r.name,
)
def test_serialize_parse_round_trip(rule):
    again = parse_rule(serialize_rule(rule), name=rule.name)
    assert again.num_states == rule.num_states
    assert again.radius == rule.radius
    assert again.symmetric == rule.symmetric
    assert again.entries == rule.entries


def test_shipped_rule_files_match_builders():
    paths = sorted(glob.glob(os.path.join(DATA_DIR, "*.rule")))
    assert len(paths) == 7
    for path in paths:
        loaded = load_rule(path)
        built = rule_named(loaded.name)
        assert loaded.num_states == built.num_states
        assert loaded.radius == built.radius
        assert loaded.symmetric == built.symmetric
        assert (loaded.lookup_table == built.lookup_table).all(), path


def test_parse_rule_reports_line_numbers():
    text = "states 2\nradius 1\nsymmetric false\n\n0 | 0 0 -> 9\n"
    with pytest.raises(RuleParseError) as err:
        parse_rule(text)
    assert "line 5" in str(err.value)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "states 2\nradius 1\n",
        "radius 1\nstates 2\nsymmetric false\n",
        "states 0\nradius 1\nsymmetric false\n",
        "states 2\nradius 3\nsymmetric false\n",
        "states 2\nradius 1\nsymmetric maybe\n",
        "states 2\nradius 1\nsymmetric false\n0 | 0 -> 1\n",
        "states 2\nradius 1\nsymmetric false\n0 | 0 0 1\n",
        "states 2\nradius 1\nsymmetric false\nx | 0 0 -> 1\n",
        "states 2\nradius 1\nsymmetric false\n0 | q 0 -> 1\n",
    ],
)
def test_parse_rule_rejects_malformed_input(text):
    with pytest.raises(RuleParseError):
        parse_rule(text)


@pytest.mark.parametrize("digit", ["\u00b9", "\u0661"], ids=["superscript-1", "arabic-indic-1"])
@pytest.mark.parametrize(
    "line, want",
    [
        ("0 | {} 0 -> 1", "line 5: bad pattern token"),
        ("{} | 0 0 -> 1", "line 5: current and next must be state digits"),
        ("0 | 0 0 -> {}", "line 5: current and next must be state digits"),
        (None, "bad states header"),
    ],
    ids=["token", "current", "next", "states"],
)
def test_parse_rule_takes_ascii_digits_only(digit, line, want):
    # A superscript used to raise int()'s bare ValueError, and an Arabic-Indic 1 was read as state 1.
    states = digit if line is None else "2"
    text = f"states {states}\nradius 1\nsymmetric false\n\n{(line or '0 | 0 0 -> 1').format(digit)}\n"
    with pytest.raises(RuleParseError) as err:
        parse_rule(text)
    assert str(err.value).startswith(want)


@pytest.mark.parametrize("pattern", ["2 * 1 E", "2 E 1 1", "* E * *"])
def test_parse_rule_rejects_an_e_token_inside_a_side(pattern):
    # Each side is written outermost first, so "1 E" on the right puts EMPTY
    # next to the cell: the entry could match no input and would be dropped.
    text = f"states 3\nradius 2\nsymmetric false\n\n0 | {pattern} -> 2\n"
    with pytest.raises(RuleParseError) as err:
        parse_rule(text)
    assert str(err.value) == "line 5: E tokens must be the outermost of each side"


def test_parse_rule_keeps_outermost_e_tokens():
    text = "states 3\nradius 2\nsymmetric false\n\n0 | E 1 E 2 -> 2\n0 | E E * * -> 1\n"
    rule = parse_rule(text)
    assert rule.entries == (RuleEntry(0, (EMPTY, 1), (2, EMPTY), 2), RuleEntry(0, (EMPTY, EMPTY), (ANY, ANY), 1))
    assert rule.lookup_table[0, 3, 1, 2, 3] == 2 and rule.lookup_table[0, 3, 3, 0, 0] == 1


def test_parse_rule_rejects_conflicts():
    text = "states 2\nradius 1\nsymmetric false\n0 | 0 0 -> 1\n0 | * 0 -> 0\n"
    with pytest.raises(RuleParseError) as err:
        parse_rule(text)
    assert "conflict" in str(err.value)


def test_parse_rule_strips_comments_and_blank_lines():
    text = (
        "# a comment\nstates 2 # trailing\nradius 1\nsymmetric true\n\n"
        "# another\n0 | * 1 -> 1  # change\n"
    )
    rule = parse_rule(text)
    assert rule.entries == (RuleEntry(0, (ANY,), (1,), 1),)


def test_serialized_sides_are_outermost_first():
    # Radius 2: each side lists its outermost token first, so the entry
    # with immediate-left 0 (outer 1) and immediate-right 1 (outer E)
    # prints as "1 0" then "E 1".
    rule = Rule(
        "probe",
        2,
        2,
        symmetric=False,
        entries=(RuleEntry(0, (1, 0), (1, EMPTY), 1),),
    )
    line = serialize_rule(rule).splitlines()[-1]
    assert line == "0 | 1 0 E 1 -> 1"
    assert parse_rule(serialize_rule(rule)).entries == rule.entries


@st.composite
def random_rules(draw):
    num_states = draw(st.integers(2, 3))
    symmetric = draw(st.booleans())
    tokens = st.one_of(
        st.integers(0, num_states - 1), st.just(ANY), st.just(EMPTY)
    )
    entries = []
    for current in range(num_states):
        # One entry per current state keeps conflicts impossible even with
        # the symmetric flag: entries for distinct current states never clash.
        if draw(st.booleans()):
            left = (draw(tokens),)
            right = (draw(tokens),)
            entries.append(RuleEntry(current, left, right, draw(st.integers(0, num_states - 1))))
    return Rule("fuzz", num_states, 1, symmetric, tuple(entries))


@given(random_rules())
def test_round_trip_on_generated_rules(rule):
    again = parse_rule(serialize_rule(rule))
    assert again.entries == rule.entries
    assert again.symmetric == rule.symmetric
    assert again.num_states == rule.num_states
