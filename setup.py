"""Packaging for the SPAA'03 stream-merging reproduction.

Kept as a plain ``setup.py`` (no pyproject): the execution environment
is offline and lacks the ``wheel`` package, so PEP 660 editable installs
(which shell out to ``bdist_wheel``) fail — this form lets
``pip install -e .`` fall back to ``setup.py develop``.  numpy is the
only run-time dependency.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.8.0",
    description=(
        "Reproduction of guaranteed start-up delay media-on-demand "
        "stream merging (Bar-Noy, Goshi, Ladner, SPAA'03)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.24"],
)
