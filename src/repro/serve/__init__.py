"""Planner-as-a-service: warm-started solves behind a canonical plan cache.

See :mod:`repro.serve.service` for the reuse layers, ``server`` for the
stdlib HTTP front end, and ``client`` for the interchangeable in-process
and HTTP clients.
"""

from repro import lazy_exports

__all__ = lazy_exports(globals(), {
    "..core.topology": "CLUSTERS",
    ".client": "HTTPPlannerClient PlannerClient",
    ".server": "PlannerHTTPServer ServerThread make_server",
    ".service": "NormalizedQuery PlannerService RequestError RequestTooLarge "
                "normalize_plan_request topology_from_dict topology_to_dict",
})
