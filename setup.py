"""Legacy setup shim.

The metadata (name, version, the numpy >= 2.0 requirement and the ``mcml``
script) lives in pyproject.toml.  This shim keeps the ``setup.py develop``
editable install, which needs no ``wheel`` package to build an editable
wheel:

    pip install -e . --no-build-isolation --no-use-pep517

pip accepts ``--no-use-pep517`` only where ``setuptools`` and ``wheel`` both
import; without ``wheel``, ``python setup.py develop`` runs the same install.
"""

from setuptools import setup

setup()
