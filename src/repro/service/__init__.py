"""Analysis-as-a-service: a concurrent daemon over the pipeline.

``repro serve`` turns the one-shot analysis pipeline into a long-lived
front door: a JSON HTTP API (:mod:`repro.service.daemon`) over a
bounded job queue (:mod:`repro.service.queue`), a worker pool --
threads or long-lived worker processes
(:mod:`repro.service.procpool`) -- that reuses
:func:`repro.pipeline.analyze` with the shared artifact store,
content-addressed request deduplication (:mod:`repro.service.jobs`),
Prometheus-style observability (:mod:`repro.service.metrics`),
structured JSON logs (:mod:`repro.service.jsonlog`), and graceful
drain on SIGTERM.
:mod:`repro.service.client` is the matching stdlib-only Python client.
"""

from .client import JobFailed, ServiceClient, ServiceError
from .daemon import (
    SERVICE_API_VERSION,
    AnalysisService,
    BadRequest,
    Draining,
    ServiceConfig,
    serve,
)
from .executor import DeadlineObserver, apply_outcome, execute_job, run_analysis
from .jobs import Job, JobOptions, JobRegistry, JobState, derive_job_key
from .metrics import MetricsRegistry, parse_samples
from .procpool import ProcessWorker
from .queue import BoundedJobQueue, QueueFull

__all__ = [
    "SERVICE_API_VERSION",
    "AnalysisService",
    "BadRequest",
    "BoundedJobQueue",
    "DeadlineObserver",
    "Draining",
    "Job",
    "JobFailed",
    "JobOptions",
    "JobRegistry",
    "JobState",
    "MetricsRegistry",
    "ProcessWorker",
    "QueueFull",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "apply_outcome",
    "derive_job_key",
    "execute_job",
    "parse_samples",
    "run_analysis",
    "serve",
]
