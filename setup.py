"""Package metadata.

The execution environment has no network and no ``wheel`` package, so PEP
517 editable installs (which build a wheel) fail; with the metadata here
``pip install -e . --no-build-isolation`` falls back to ``setup.py
develop`` and installs ``repro`` with its console script.  There is no
``pyproject.toml`` and nothing to download: the package has no runtime
dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Causal consistency: beyond memory — criteria checkers, "
    "the paper's algorithms, a simulator and a live service plane",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
