"""The package's public surface: every exported name resolves, and the
names of the removed second route through the scheme (a copy of stage 1
and a stand-alone stage 2 with its own purity gate) stay gone."""

import re
from pathlib import Path

import photonpurify
from photonpurify import errors, scheme

README = Path(__file__).resolve().parent.parent / "README.md"
REMOVED = {"StageOneCoefficients", "stage_one_coefficients", "stage_two", "PurityViolated", "CANCEL_TOL"}


def test_every_exported_name_resolves():
    assert len(set(photonpurify.__all__)) == len(photonpurify.__all__)
    namespace: dict = {}
    exec("from photonpurify import *", namespace)
    assert set(photonpurify.__all__) <= set(namespace)


def test_removed_names_stay_gone():
    for module in (photonpurify, scheme, errors):
        assert not REMOVED & set(vars(module)), module.__name__
    assert not REMOVED & set(re.findall(r"\w+", README.read_text()))
