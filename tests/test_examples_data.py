"""Every shipped example file loads with the loader its command reads it by."""

import glob
import os

from nlab.ainf import load_data
from nlab.quiver import Quiver
from nlab.ribbon.graph import RibbonGraph

DATA = os.path.join(os.path.dirname(__file__), "..", "examples-data")


def _read(path):
    with open(path) as f:
        return f.read()


# -q (quivers), --data (A-infinity data), --ribbon (ribbon graphs)
LOADERS = {
    "loop.json": Quiver.load,
    "twoloops.json": Quiver.load,
    "twovertex.json": Quiver.load,
    "complete4.json": Quiver.load,
    "frobenius.json": lambda path: load_data(_read(path)),
    "matrix_units.json": lambda path: load_data(_read(path)),
    "mt2_mt4.json": lambda path: load_data(_read(path)),
    "mt4.json": lambda path: load_data(_read(path)),
    "two_object.json": lambda path: load_data(_read(path)),
    "unit.json": lambda path: load_data(_read(path)),
    "p3.json": lambda path: RibbonGraph.from_json(_read(path)),
}


def test_every_example_loads():
    names = sorted(os.path.basename(p) for p in glob.glob(os.path.join(DATA, "*.json")))
    assert names == sorted(LOADERS)
    for name in names:
        assert LOADERS[name](os.path.join(DATA, name)) is not None, name
