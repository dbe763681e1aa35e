"""Declarative campaign specifications.

A :class:`CampaignSpec` names a sweep grid — policies x workload sources
(each with a list of generator seeds) x scheduler-parameter override
variants — plus the engine options shared by every run.  ``expand()``
turns it into independent :class:`CampaignCell` objects, each a frozen,
picklable value that *fully determines* one simulation: the cache key is
a hash of the cell's :meth:`~CampaignCell.identity` and nothing else, so
a cell computed in a worker process yesterday satisfies the same cell
requested today.

Specs load from JSON (``CampaignSpec.from_json``) or plain dicts; see the
repository README for the schema.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..experiments.runner import RunOptions
from ..scenarios import get_scenario
from ..sched.registry import get_policy, validate_overrides
from ..workload.generator import (
    GeneratorConfig,
    generate_cplant_workload,
    random_workload,
    replication_seeds,
)
from ..workload.model import Workload
from ..workload.swf import read_swf

#: workload kinds a spec may name
WORKLOAD_KINDS = ("cplant", "random", "swf", "scenario")


def _canonical_pairs(d: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, object], ...]:
    return tuple(sorted((d or {}).items()))


@lru_cache(maxsize=None)
def _swf_digest_at(path: str, mtime_ns: int, size: int) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _swf_digest(path: str) -> str:
    """Content hash of an SWF trace (workload identity for cache keys).

    Memoized per (path, mtime, size) so repeated identity computations in
    one campaign don't re-read the file, while an edit to the trace during
    the process lifetime still invalidates the digest.
    """
    st = Path(path).stat()
    return _swf_digest_at(path, st.st_mtime_ns, st.st_size)


@dataclass(frozen=True)
class WorkloadSpec:
    """One workload *family*: a generator configuration or a trace file.

    Generator kinds (``cplant``, ``random``, ``scenario``) become one grid
    cell per seed; ``seeds`` wins when given, otherwise ``seed`` is spawned
    into the campaign's ``replications`` independent seeds.  ``swf`` reads
    a fixed trace, so it contributes exactly one seedless instance whose
    identity is the file's content hash (edit the trace and the cache
    misses).  ``scenario`` names a registered scenario recipe; its params
    are scenario parameters and its identity carries the *resolved*
    parameter set, so an explicit default and an omitted one cache as the
    same cell.
    """

    kind: str
    params: Tuple[Tuple[str, object], ...] = ()
    path: Optional[str] = None
    scenario: Optional[str] = None
    seed: int = 0
    seeds: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; known: {WORKLOAD_KINDS}"
            )
        if self.kind == "swf" and not self.path:
            raise ValueError("swf workload needs a 'path'")
        if self.kind == "scenario" and not self.scenario:
            raise ValueError("scenario workload needs a 'scenario' name")
        params = dict(self.params)
        bad = sorted(
            k for k, v in params.items()
            if not isinstance(v, (str, int, float, bool, type(None)))
        )
        if bad:
            # non-scalars would also make the spec unhashable (it keys the
            # worker-side workload memo); workload params sweep via separate
            # workload entries, not in-param lists
            raise ValueError(
                f"workload params must be scalars, got non-scalar {bad} "
                f"(to sweep a workload parameter, list one workload per value)"
            )
        object.__setattr__(self, "params", _canonical_pairs(params))
        if self.seeds is not None:
            # order-preserving dedup: duplicate seeds would simulate the
            # same cell twice and inflate the replication count n
            object.__setattr__(
                self, "seeds", tuple(dict.fromkeys(int(s) for s in self.seeds))
            )

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "WorkloadSpec":
        d = dict(d)
        scenario = d.pop("scenario", None)
        kind = str(d.pop("kind", "scenario" if scenario is not None else "cplant"))
        path = d.pop("path", None)
        seed = int(d.pop("seed", 0))
        seeds = d.pop("seeds", None)
        # remaining keys are generator/scenario parameters (scale, alpha, ...)
        return cls(
            kind=kind,
            params=_canonical_pairs(d),
            path=str(path) if path is not None else None,
            scenario=str(scenario) if scenario is not None else None,
            seed=seed,
            seeds=tuple(int(s) for s in seeds) if seeds is not None else None,
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"kind": self.kind, **dict(self.params)}
        if self.path is not None:
            out["path"] = self.path
        if self.scenario is not None:
            out["scenario"] = self.scenario
        if self.seeds is not None:
            out["seeds"] = list(self.seeds)
        elif self.kind != "swf":
            out["seed"] = self.seed
        return out

    def validate(self) -> None:
        """Fail fast on parameters the workload source cannot accept, so a
        typo'd spec dies with the workload named instead of a raw
        ``TypeError`` surfacing from inside a worker process."""
        params = dict(self.params)
        if self.kind == "swf":
            if not Path(str(self.path)).is_file():
                raise ValueError(f"swf workload trace not found: {self.path}")
            if params:
                raise ValueError(
                    f"swf workload takes no generator params, got {sorted(params)}"
                )
        elif self.kind == "scenario":
            try:
                sc = get_scenario(str(self.scenario))
            except KeyError as exc:
                raise ValueError(str(exc.args[0])) from None
            sc.resolve_params(params)  # unknown parameter names fail here
        elif self.kind == "cplant":
            try:
                GeneratorConfig(**params)
            except TypeError as exc:
                raise ValueError(
                    f"cplant workload rejects params {params!r}: {exc}"
                ) from None
        else:
            try:
                inspect.signature(random_workload).bind(seed=0, **params)
            except TypeError as exc:
                raise ValueError(
                    f"random workload rejects params {params!r}: {exc}"
                ) from None

    def effective_seeds(self, replications: int) -> Tuple[Optional[int], ...]:
        if self.kind == "swf":
            return (None,)
        if self.seeds is not None:
            return self.seeds
        if replications <= 1:
            return (self.seed,)
        return tuple(replication_seeds(self.seed, replications))

    def family_identity(self) -> Dict[str, object]:
        """Seed-free canonical identity (the aggregation group key)."""
        if self.kind == "swf":
            assert self.path is not None
            return {
                "kind": "swf",
                "path": str(self.path),
                "sha256": _swf_digest(str(self.path)),
            }
        if self.kind == "scenario":
            # resolved (defaults filled in): a spec naming the default value
            # explicitly is the same family as one omitting it
            resolved = get_scenario(str(self.scenario)).resolve_params(dict(self.params))
            return {
                "kind": "scenario",
                "scenario": str(self.scenario),
                "params": resolved,
            }
        return {"kind": self.kind, "params": dict(self.params)}

    def build(self, seed: Optional[int]) -> Workload:
        params = dict(self.params)
        if self.kind == "swf":
            assert self.path is not None
            return read_swf(self.path)
        if self.kind == "scenario":
            return get_scenario(str(self.scenario)).build(seed=int(seed or 0), **params)
        if self.kind == "cplant":
            return generate_cplant_workload(GeneratorConfig(**params), seed=int(seed or 0))
        return random_workload(seed=int(seed or 0), **params)

    def label(self, seed: Optional[int]) -> str:
        if self.kind == "swf":
            return f"swf:{Path(str(self.path)).name}"
        head = self.scenario if self.kind == "scenario" else self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{head}({inner},seed={seed})" if inner else f"{head}(seed={seed})"


@dataclass(frozen=True)
class CampaignCell:
    """One independent simulation of the grid: workload instance + policy +
    engine options.  Frozen and built from primitives so it pickles across
    process boundaries and hashes into a stable cache key."""

    workload: WorkloadSpec
    seed: Optional[int]
    policy: str
    options: RunOptions

    def identity(self) -> Dict[str, object]:
        """Everything that determines this cell's result, JSON-safe."""
        return {
            "workload": self.workload.family_identity(),
            "seed": self.seed,
            "policy": self.policy,
            "options": self.options.identity(),
        }

    def group_identity(self) -> Dict[str, object]:
        """Identity minus the seed: cells sharing it are replications."""
        return {
            "workload": self.workload.family_identity(),
            "policy": self.policy,
            "overrides": dict(self.options.scheduler_overrides),
        }

    def label(self) -> str:
        ov = ",".join(f"{k}={v}" for k, v in self.options.scheduler_overrides)
        tail = f" [{ov}]" if ov else ""
        return f"{self.policy} on {self.workload.label(self.seed)}{tail}"


def _expand_sweep(sweep: Mapping[str, Sequence[object]]) -> List[Dict[str, object]]:
    """Cartesian product of a {param: [values]} shorthand, in stable order."""
    if not sweep:
        return [{}]
    keys = sorted(sweep)
    combos = itertools.product(*(sweep[k] for k in keys))
    return [dict(zip(keys, c)) for c in combos]


@dataclass
class CampaignSpec:
    """A declarative sweep grid.

    ``overrides`` lists explicit scheduler-parameter variants;  ``sweep``
    is the {param: [values]} cartesian shorthand — the two compose (each
    explicit variant is crossed with each sweep combination).  Cells =
    workloads x seeds x variants x policies.
    """

    name: str
    policies: Tuple[str, ...]
    workloads: Tuple[WorkloadSpec, ...]
    overrides: Tuple[Tuple[Tuple[str, object], ...], ...] = ((),)
    sweep: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    replications: int = 1
    #: engine options shared by every cell (scheduler overrides come
    #: from ``overrides``/``sweep`` variants, one per cell)
    options: RunOptions = field(default_factory=RunOptions)

    def __post_init__(self) -> None:
        if not self.policies:
            raise ValueError("campaign needs at least one policy")
        if not self.workloads:
            raise ValueError("campaign needs at least one workload")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.options.scheduler_overrides:
            raise ValueError(
                "campaign scheduler overrides are per variant: give them "
                "as 'overrides' or 'sweep', not in the shared options"
            )
        self.policies = tuple(self.policies)
        self.workloads = tuple(self.workloads)
        self.overrides = tuple(
            _canonical_pairs(dict(v)) for v in (self.overrides or ((),))
        )
        self.sweep = tuple(
            (str(k), tuple(vs)) for k, vs in sorted(dict(self.sweep).items())
        )

    # -- construction ----------------------------------------------------------

    #: the engine-option keys a spec carries at top level
    _OPTION_KEYS = ("estimate_mode", "epsilon", "kill_policy")

    #: keys :meth:`from_dict` understands — anything else is a typo
    _SPEC_KEYS = frozenset({
        "name", "policies", "workloads", "scenarios", "overrides", "sweep",
        "replications", "validate_engine", *_OPTION_KEYS,
    })

    @classmethod
    def from_dict(cls, d: Mapping[str, object]) -> "CampaignSpec":
        d = dict(d)
        unknown = sorted(set(d) - cls._SPEC_KEYS)
        if unknown:
            raise ValueError(
                f"unknown campaign spec keys {unknown}; "
                f"known: {sorted(cls._SPEC_KEYS)}"
            )
        workloads = tuple(
            WorkloadSpec.from_dict(w) for w in d.get("workloads", ())
        )
        # "scenarios" is workload shorthand: a name string, or a dict with
        # "scenario" plus parameters/seeds, each one workload family
        workloads += tuple(
            WorkloadSpec.from_dict(
                {"scenario": s} if isinstance(s, str) else {"kind": "scenario", **s}
            )
            for s in d.get("scenarios", ())
        )
        overrides = tuple(
            tuple(dict(v).items()) for v in d.get("overrides", [{}])
        )
        sweep = tuple(
            (str(k), tuple(vs)) for k, vs in dict(d.get("sweep", {})).items()
        )
        return cls(
            name=str(d.get("name", "campaign")),
            policies=tuple(d.get("policies", ())),
            workloads=workloads,
            overrides=overrides,
            sweep=sweep,
            replications=int(d.get("replications", 1)),
            options=RunOptions.from_mapping(
                {k: d[k] for k in cls._OPTION_KEYS if k in d},
                validate=bool(d.get("validate_engine", False)),
            ),
        )

    @classmethod
    def from_json(cls, path) -> "CampaignSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "policies": list(self.policies),
            "workloads": [w.to_dict() for w in self.workloads],
            "replications": self.replications,
        }
        identity = self.options.identity()
        out.update((k, identity[k]) for k in self._OPTION_KEYS)
        if self.overrides != ((),):
            out["overrides"] = [dict(v) for v in self.overrides]
        if self.sweep:
            out["sweep"] = {k: list(vs) for k, vs in self.sweep}
        if self.options.validate:
            out["validate_engine"] = True
        return out

    # -- grid expansion --------------------------------------------------------

    def variants(self) -> List[Dict[str, object]]:
        """Scheduler-override variants: explicit list x sweep cartesian."""
        sweep_combos = _expand_sweep(dict(self.sweep))
        out: List[Dict[str, object]] = []
        for base in self.overrides:
            for combo in sweep_combos:
                out.append({**dict(base), **combo})
        # drop duplicates while preserving order
        seen = set()
        uniq = []
        for v in out:
            key = tuple(sorted(v.items()))
            if key not in seen:
                seen.add(key)
                uniq.append(v)
        return uniq

    def validate(self) -> None:
        """Check workload params, policy keys, and override variants."""
        self._validate(self.variants())

    def _validate(self, variants: Sequence[Mapping[str, object]]) -> None:
        for wspec in self.workloads:
            wspec.validate()
        for key in self.policies:
            get_policy(key)
            for variant in variants:
                if variant:
                    validate_overrides(key, variant)

    def expand(self) -> List[CampaignCell]:
        """The full grid as independent cells, in deterministic order."""
        variants = self.variants()
        self._validate(variants)
        cells: List[CampaignCell] = []
        for wspec in self.workloads:
            for seed in wspec.effective_seeds(self.replications):
                for variant in variants:
                    options = replace(
                        self.options, scheduler_overrides=tuple(variant.items())
                    )
                    for policy in self.policies:
                        cells.append(
                            CampaignCell(
                                workload=wspec,
                                seed=seed,
                                policy=policy,
                                options=options,
                            )
                        )
        return cells
