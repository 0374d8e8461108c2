"""Setuptools shim.

The project metadata lives in ``pyproject.toml``.  This file lets
``python setup.py develop`` install the package in editable mode offline,
where ``pip install -e .`` cannot fetch the ``wheel`` package it needs.
"""

from setuptools import setup

setup()
