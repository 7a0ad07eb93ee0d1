"""The epoch close's constraint composition before one merge replaced it.

Until the close merged every stage's rulings once
(:func:`repro.core.knapsack.constraints_from`), it chained three
functions, kept here verbatim but for the tuner state they read becoming
arguments:

* ``GuardrailManager.constraints`` -- DBA advice, quarantine blocks and
  rollout bans (advice and rollout bans lived on the guardrail manager,
  so with no manager there were none);
* ``synthesize_constraints`` (``repro.guardrails.synthesis``) -- the
  co-tuning advisory;
* ``BanditTuner._merge_safety_bans`` -- the bandit's safety bans.

:func:`compose` is the close's call sequence.  ``test_rulings.py`` holds
the merge against it; nothing in ``src/`` imports this module.
"""

from typing import Optional, Sequence, Tuple

from repro.core.knapsack import SelectionConstraints


def guardrail_constraints(
    advice_pinned, advice_banned, advice_preferred, blocked, rollout_bans
) -> SelectionConstraints:
    """``GuardrailManager.constraints``: the constraints in force right now."""
    pinned = frozenset(advice_pinned)
    banned = frozenset(
        ix
        for ix in (*advice_banned, *blocked, *rollout_bans)
        if ix not in pinned
    )
    preferred = tuple(
        (ix, weight)
        for ix, weight in advice_preferred
        if ix not in pinned and ix not in banned
    )
    return SelectionConstraints(
        pinned=pinned, banned=banned, preferred=preferred
    )


def synthesize_constraints(
    base: Optional[SelectionConstraints],
    advisory: Sequence[Tuple[object, float]],
) -> Optional[SelectionConstraints]:
    """Fold advisory soft preferences into guardrail constraints."""
    if not advisory:
        return base
    pinned = base.pinned if base is not None else frozenset()
    banned = base.banned if base is not None else frozenset()
    merged = dict(base.preferred) if base is not None else {}
    for key, weight in advisory:
        if key in pinned or key in banned:
            continue
        merged.setdefault(key, weight)
    preferred = tuple(sorted(merged.items(), key=lambda kv: str(kv[0])))
    return SelectionConstraints(
        pinned=pinned, banned=banned, preferred=preferred
    )


def merge_safety_bans(
    constraints: SelectionConstraints, safety_bans
) -> SelectionConstraints:
    """``BanditTuner._merge_safety_bans``."""
    bans = list(safety_bans)
    if not bans:
        return constraints
    pinned = set(constraints.pinned)
    banned = set(constraints.banned) | {
        ix for ix in bans if ix not in pinned
    }
    return SelectionConstraints(
        pinned=frozenset(pinned),
        banned=frozenset(banned),
        preferred=tuple(
            (ix, w) for ix, w in constraints.preferred if ix not in banned
        ),
    )


def compose(
    guardrails: bool,
    advice_pinned=(),
    advice_banned=(),
    advice_preferred=(),
    blocked=(),
    rollout_bans=(),
    advisory=(),
    safety_bans=None,
) -> SelectionConstraints:
    """The constraints one close solved under (``None`` read as empty).

    ``safety_bans`` is None for COLT, the bandit's live bans otherwise.
    """
    constraints = None
    if guardrails:
        constraints = (
            guardrail_constraints(
                advice_pinned, advice_banned, advice_preferred, blocked, rollout_bans
            )
            or None
        )
    constraints = synthesize_constraints(constraints, advisory)
    if safety_bans is not None:
        constraints = merge_safety_bans(
            constraints or SelectionConstraints(), safety_bans
        )
    return constraints or SelectionConstraints()
