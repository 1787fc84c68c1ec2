"""Deterministic verification campaigns over the exact symplectic stack."""

from .config import CampaignConfig, HarnessError, build_config, read_config_file
from .checks import CATALOG, CheckFailure, run_campaign
from .common import sample_rational
from .report import CheckRecord, Report, encode_value

__all__ = [
    "CATALOG",
    "CampaignConfig",
    "CheckFailure",
    "CheckRecord",
    "HarnessError",
    "Report",
    "build_config",
    "encode_value",
    "read_config_file",
    "run_campaign",
    "sample_rational",
]
