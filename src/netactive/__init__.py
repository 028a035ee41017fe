"""Cost-aware active learning for network telemetry regression."""

__version__ = "0.1.0"
