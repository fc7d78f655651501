"""Planner-as-a-service: warm-started solves behind a canonical plan cache.

See :mod:`repro.serve.service` for the reuse layers, ``server`` for the
stdlib HTTP front end, and ``client`` for the interchangeable in-process
and HTTP clients.
"""

from repro.serve.client import HTTPPlannerClient, PlannerClient
from repro.serve.server import PlannerHTTPServer, ServerThread, make_server
from repro.serve.service import (
    CLUSTERS,
    NormalizedQuery,
    PlannerService,
    RequestError,
    RequestTooLarge,
    normalize_plan_request,
    topology_from_dict,
    topology_to_dict,
)

__all__ = [
    "CLUSTERS",
    "HTTPPlannerClient",
    "NormalizedQuery",
    "PlannerClient",
    "PlannerHTTPServer",
    "PlannerService",
    "RequestError",
    "RequestTooLarge",
    "ServerThread",
    "make_server",
    "normalize_plan_request",
    "topology_from_dict",
    "topology_to_dict",
]
