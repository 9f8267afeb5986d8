"""Setup shim.

The offline environment ships setuptools without the ``wheel`` package, so
PEP 660 editable installs cannot build an editable wheel.  Keeping a classic
``setup.py`` (and no ``[build-system]`` table in ``pyproject.toml``) lets
``pip install -e .`` fall back to the legacy ``setup.py develop`` path, which
works without network access.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.28.0",
    description=(
        "Full-state quantum circuit simulation by using data compression "
        "(SC'19 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10", "networkx>=3.0"],
)
