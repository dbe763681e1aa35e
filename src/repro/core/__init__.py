"""Core simulation substrate: jobs, events, cluster, profiles, engine."""

from .cluster import AllocationError, Cluster
from .engine import Engine, KillPolicy, Observer
from .events import Event, EventKind, EventQueue
from .job import Job, JobState
from .listsched import FreeTimeline
from .profile import ProfileError, ReservationProfile
from .results import SimulationResult

__all__ = [
    "AllocationError",
    "Cluster",
    "Engine",
    "Event",
    "EventKind",
    "EventQueue",
    "FreeTimeline",
    "Job",
    "JobState",
    "KillPolicy",
    "Observer",
    "ProfileError",
    "ReservationProfile",
    "SimulationResult",
]
