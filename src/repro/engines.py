"""The engine table: the one place that knows which tuning engines exist.

Everything that must turn an engine *name* into behaviour -- fleet
replicas, snapshot dispatch, the CLI, the scenario harness, trace
loading -- looks the name up here instead of branching on it.  An
engine is a :class:`~repro.core.loop.TuningLoop` subclass (every engine
reads the same :class:`~repro.core.config.ColtConfig`) plus the one fact
the loop cannot know: its snapshot/restore pair.  Registering a third
engine is one more :class:`EngineSpec` in :data:`ENGINES` (see
``DESIGN.md``, "Engine contract").

The ``offline``/``continuous`` baselines under ``repro run --engine``
are comparators, not loop engines, and are not listed.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from repro.bandit.persist import restore_bandit_tuner, snapshot_bandit_tuner
from repro.bandit.tuner import BanditTuner
from repro.core.colt import ColtTuner
from repro.core.config import ColtConfig
from repro.persist import restore_tuner, snapshot_tuner

__all__ = ["ENGINES", "EngineSpec", "engine_spec"]


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """One row of the engine table.

    Attributes:
        tuner: The :class:`~repro.core.loop.TuningLoop` subclass.
        snapshot: ``tuner -> JSON dict`` serializer.
        restore: ``(catalog, snapshot, store=, observer=) -> tuner``.
    """

    tuner: type
    snapshot: Callable
    restore: Callable

    @property
    def name(self) -> str:
        """The engine's name (``--engine`` value, snapshot/trace tag)."""
        return self.tuner.engine_name

    def build(self, catalog, config: Optional[ColtConfig] = None, **kwargs):
        """A tuner of this engine over ``catalog``; ``kwargs`` are the
        :class:`~repro.core.loop.TuningLoop` keywords."""
        return self.tuner(catalog, config, **kwargs)


#: name -> spec, in ``--engine`` listing order.  COLT is the default
#: engine: payloads without an engine tag belong to it.
ENGINES: Dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(ColtTuner, snapshot_tuner, restore_tuner),
        EngineSpec(BanditTuner, snapshot_bandit_tuner, restore_bandit_tuner),
    )
}


def engine_spec(name: str) -> EngineSpec:
    """Look up an engine by name.

    Raises:
        ValueError: for a name not in :data:`ENGINES`.
    """
    spec = ENGINES.get(name)
    if spec is None:
        raise ValueError(
            f"unknown engine {name!r} (expected one of {', '.join(ENGINES)})"
        )
    return spec
