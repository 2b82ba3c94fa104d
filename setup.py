"""Setup shim: enables legacy editable installs where the ``wheel`` package
is unavailable (offline environments).  It declares no metadata and there is
no ``pyproject.toml``: everything in this repo runs with ``PYTHONPATH=src``."""
from setuptools import setup

setup()
