"""Packaging for the TEMP reproduction.

Installing the package (``pip install -e .``) provides the ``repro`` console
script — the same CLI as ``PYTHONPATH=src python -m repro``.
"""

from setuptools import find_packages, setup

setup(
    name="temp-repro",
    version="0.1.0",
    description="Reproduction of TEMP: memory-efficient physical-aware "
                "tensor partition-mapping for wafer-scale chips (HPCA 2026)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro=repro.runner.cli:main",
        ],
    },
)
