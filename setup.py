"""Package metadata for ``pip install -e .`` (editable installs).

The repository has no ``pyproject.toml``: this file is the whole
packaging configuration.  The library lives under ``src/`` and needs
only NumPy at run time; the test suite runs without installing, via
``PYTHONPATH=src python -m pytest``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="SCube: segregation data cubes from relational and graph data",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
