"""The close's one merge (``constraints_from``) against the composition
it replaced (``tests/guardrails/oracle.py``), over generated rulings
from every stage: DBA advice, quarantine, rollout, a pushed advisory
and the bandit's safety stage.

Keys are :class:`IndexDef` objects, so the merge's sets are iterated in
hash order: CI runs this file under two hash seeds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knapsack import Ruling, constraints_from
from repro.engine.datatypes import DataType
from repro.engine.index import IndexDef
from tests.guardrails import oracle

KEYS = [IndexDef(f"t{i % 2}", f"c{i}", DataType.INT) for i in range(6)]
_keys = st.lists(st.sampled_from(KEYS), max_size=4, unique=True)
_weights = st.floats(min_value=0.1, max_value=4.0)


@st.composite
def _stages(draw):
    """One close's inputs, as the parent's tuner could hold them."""
    guardrails = draw(st.booleans())
    stages = {"guardrails": guardrails, "advisory": (), "safety_bans": None}
    if guardrails:
        pinned = draw(_keys)
        stages.update(
            advice_pinned=pinned,
            # An advice file cannot pin and ban one index.
            advice_banned=[k for k in draw(_keys) if k not in pinned],
            advice_preferred=[(k, draw(_weights)) for k in draw(_keys)],
            blocked=draw(_keys),
            rollout_bans=draw(_keys),
        )
    advisory = draw(st.lists(st.tuples(st.sampled_from(KEYS), _weights), max_size=4))
    # Installed in canonical order, by ``set_advisory`` then ``push_rulings``.
    stages["advisory"] = sorted(advisory, key=lambda kv: str(kv[0]))
    if draw(st.booleans()):
        stages["safety_bans"] = draw(_keys)
    return stages


def _rulings(stages):
    """The same inputs as the stages rule them, in stage order."""

    def rule(kind, source, keys, weight=1.0):
        return [Ruling(k, kind, source, weight) for k in keys]

    return [
        *rule("pin", "dba", stages.get("advice_pinned", ())),
        *rule("ban", "dba", stages.get("advice_banned", ())),
        *(Ruling(k, "prefer", "dba", w) for k, w in stages.get("advice_preferred", ())),
        *rule("ban", "quarantine", stages.get("blocked", ())),
        *rule("ban", "rollout", stages.get("rollout_bans", ())),
        *(Ruling(k, "prefer", "advisory", w) for k, w in stages["advisory"]),
        *rule("ban", "safety", stages["safety_bans"] or ()),
    ]


@settings(max_examples=300, deadline=None)
@given(_stages())
def test_the_merge_is_the_composition_it_replaced(stages):
    want = oracle.compose(**stages)
    got = constraints_from(_rulings(stages))
    assert got.pinned == want.pinned
    assert got.banned == want.banned
    assert got.preference_map == want.preference_map


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.builds(
        Ruling,
        st.sampled_from(KEYS),
        st.sampled_from(["pin", "ban", "prefer"]),
        st.sampled_from(["dba", "quarantine", "rollout", "advisory", "safety"]),
        _weights,
    ),
    max_size=12,
))
def test_any_rulings_merge_without_a_pin_ban_overlap(rulings):
    constraints = constraints_from(rulings)  # never raises
    assert not constraints.pinned & constraints.banned
    assert constraints.pinned == {r.index for r in rulings if r.kind == "pin"}
    preferred = [key for key, _ in constraints.preferred]
    assert preferred == sorted(preferred, key=str)
    for key, weight in constraints.preferred:
        dba = [r for r in rulings if r[:3] == (key, "prefer", "dba")]
        assert weight == (dba[0].weight if dba else weight)


def test_a_dba_preference_outranks_an_earlier_advisory_one():
    key = KEYS[0]
    rulings = [Ruling(key, "prefer", "advisory", 3.0), Ruling(key, "prefer", "dba", 1.5)]
    assert constraints_from(rulings).preference_map == {key: 1.5}
