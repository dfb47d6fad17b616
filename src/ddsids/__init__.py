"""Pub/sub traffic simulation, flow features, and neural detection of
publish/subscribe middleware attacks."""

__version__ = "0.1.0"

from . import detector, evalcli, featsel, flowmeter, preprocess, simnet, tables  # noqa: F401
