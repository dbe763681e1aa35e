"""Scenario machinery: declarative workload recipes plus their registry.

A :class:`Scenario` is a *named, parameterized recipe* that turns one seed
into one :class:`~repro.workload.model.Workload`:

* a **base generator** (``cplant`` — the calibrated synthetic trace — or
  ``random``) with fixed keyword overrides;
* **sweepable parameters** with defaults, each optionally mapped onto a
  generator keyword (``config_map``) or spliced into a transform argument
  (:class:`Param` references);
* a **transform pipeline** applied in order, each seeded step receiving an
  independent child seed derived from the scenario seed;
* **run-option defaults** (e.g. ``estimate_mode``) the single-scenario
  runner applies unless the caller overrides them.

Everything that determines the output is in ``(name, params, seed)``, so a
scenario slots into campaign cache keys exactly like a generator config:
same triple, same workload, byte for byte, in any process.

The registry is module-level and populated by :mod:`.library` at import
time; :func:`register` is public so downstream studies can add their own
scenarios next to the stock ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..workload.generator import GeneratorConfig, generate_cplant_workload, random_workload
from ..workload.model import Workload
from ..workload.transforms import flash_crowds, remap_runtime_tail, split_by_runtime_limit

#: base generator kinds a scenario may build on
SCENARIO_BASES = ("cplant", "random")

#: transform steps a recipe may name -> the callable that applies them
TRANSFORMS: Dict[str, Callable[..., Workload]] = {
    "runtime_tail": remap_runtime_tail,
    "flash_crowds": flash_crowds,
    "split_runtime_limit": split_by_runtime_limit,
}

#: transform steps that take a ``seed`` keyword (fed a derived child seed)
SEEDED_TRANSFORMS = frozenset({"flash_crowds"})


@dataclass(frozen=True)
class Param:
    """Reference to a scenario parameter inside a transform-step argument.

    ``scale`` converts user-facing units into transform units (e.g. a
    ``limit_hours`` parameter feeding a seconds-valued ``limit`` argument).
    """

    name: str
    scale: float = 1.0

    def resolve(self, params: Mapping[str, object]) -> object:
        value = params[self.name]
        if self.scale != 1.0:
            return float(value) * self.scale
        return value


@dataclass(frozen=True)
class ScenarioParam:
    """One sweepable knob: name, default, and what it dials."""

    name: str
    default: object
    doc: str = ""


@dataclass(frozen=True)
class TransformStep:
    """One named pipeline stage with (possibly :class:`Param`-valued) args."""

    name: str
    args: Tuple[Tuple[str, object], ...] = ()

    def apply(self, wl: Workload, params: Mapping[str, object], seed: int) -> Workload:
        fn = TRANSFORMS[self.name]
        kwargs = {
            k: (v.resolve(params) if isinstance(v, Param) else v)
            for k, v in self.args
        }
        if self.name in SEEDED_TRANSFORMS and "seed" not in kwargs:
            kwargs["seed"] = seed
        return fn(wl, **kwargs)


@dataclass(frozen=True)
class Scenario:
    """A named workload regime: base generator + params + transforms.

    ``axis`` names the workload dimension the scenario isolates (runtime
    tail, arrival burstiness, estimate quality, user skew, packing
    pressure, ...); ``motivation`` cites the paper section or related work
    that makes that axis worth studying.
    """

    name: str
    axis: str
    summary: str
    motivation: str
    base: str = "cplant"
    #: fixed generator keywords (not sweepable)
    generator: Tuple[Tuple[str, object], ...] = ()
    #: sweepable parameters with defaults
    params: Tuple[ScenarioParam, ...] = ()
    #: (param name, generator keyword) wiring
    config_map: Tuple[Tuple[str, str], ...] = ()
    #: transform pipeline, applied in order after generation
    transforms: Tuple[TransformStep, ...] = ()
    #: RunOptions defaults for single-scenario runs (campaigns set their own)
    options: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.base not in SCENARIO_BASES:
            raise ValueError(
                f"scenario {self.name!r}: unknown base {self.base!r}; "
                f"known: {SCENARIO_BASES}"
            )
        for step in self.transforms:
            if step.name not in TRANSFORMS:
                raise ValueError(
                    f"scenario {self.name!r}: unknown transform {step.name!r}; "
                    f"known: {sorted(TRANSFORMS)}"
                )

    # -- parameters ----------------------------------------------------------

    def param_defaults(self) -> Dict[str, object]:
        return {p.name: p.default for p in self.params}

    def resolve_params(self, overrides: Optional[Mapping[str, object]] = None) -> Dict[str, object]:
        """Defaults merged with overrides; unknown names fail fast."""
        resolved = self.param_defaults()
        unknown = sorted(set(overrides or {}) - set(resolved))
        if unknown:
            raise ValueError(
                f"scenario {self.name!r} has no parameter(s) {unknown}; "
                f"known: {sorted(resolved) or '(none)'}"
            )
        resolved.update(overrides or {})
        return resolved

    # -- construction --------------------------------------------------------

    def build(self, seed: int = 0, **overrides: object) -> Workload:
        """One workload from one seed; ``overrides`` dial the parameters."""
        params = self.resolve_params(overrides)
        gen_kwargs = dict(self.generator)
        for pname, gfield in self.config_map:
            gen_kwargs[gfield] = params[pname]
        if self.base == "cplant":
            wl = generate_cplant_workload(GeneratorConfig(**gen_kwargs), seed=seed)
        else:
            wl = random_workload(seed=seed, **gen_kwargs)
        for i, step in enumerate(self.transforms):
            wl = step.apply(wl, params, seed=_child_seed(seed, i))
        inner = ", ".join(f"{k}={params[k]}" for k in sorted(params))
        wl.name = f"scenario:{self.name}({inner}, seed={seed})" if inner \
            else f"scenario:{self.name}(seed={seed})"
        wl.metadata = {
            **wl.metadata,
            "scenario": self.name,
            "scenario_params": dict(params),
            "scenario_seed": seed,
        }
        return wl

    def describe(self) -> str:
        lines = [
            f"{self.name} — {self.summary}",
            f"  axis       : {self.axis}",
            f"  motivation : {self.motivation}",
            f"  base       : {self.base}"
            + (f" ({', '.join(f'{k}={v}' for k, v in self.generator)})"
               if self.generator else ""),
        ]
        if self.params:
            lines.append("  parameters :")
            for p in self.params:
                lines.append(f"    {p.name:<14} default={p.default!r:<8} {p.doc}")
        else:
            lines.append("  parameters : (none)")
        if self.transforms:
            steps = " -> ".join(s.name for s in self.transforms)
            lines.append(f"  transforms : {steps}")
        if self.options:
            opts = ", ".join(f"{k}={v}" for k, v in self.options)
            lines.append(f"  run options: {opts}")
        return "\n".join(lines)


def _child_seed(seed: int, stage: int) -> int:
    """Independent per-transform-stage seed, stable across processes."""
    return int(np.random.SeedSequence([int(seed), stage]).generate_state(1)[0])


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (library scenarios and user ones)."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def scenario_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def all_scenarios() -> List[Scenario]:
    return [_REGISTRY[k] for k in scenario_names()]
