"""Scenario-mutation property tests.

In the first, each example takes one bundled scenario and mutates it
once: it deletes a key or list element, swaps a value for one of another
type, puts a non-finite number in its place, reshapes a list, or renames
a mapping key by appending a character.  In the second, each example flips,
inserts or deletes 1-3 bytes of one input file: a bundled scenario YAML,
a grid written by ``save_grid`` or a spectrum table written by
``save_spectrum_table``.  Whatever the mutation, the command line must
either succeed or exit 2 with a ``ScenarioError`` that names a key path;
a renamed key is misspelled, so it must exit 2.  Runs use
``--resolution 0.25`` so that the whole test stays within a few seconds.
"""
import copy
import importlib.resources
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metricprobe.cli import main
from metricprobe.probe import flat_band_spectrum, save_spectrum_table
from metricprobe.scenarios import bundled_scenario_names, load_bundled
from metricprobe.stress_energy import TensorGrid, save_grid

BUNDLED = {name: load_bundled(name).raw for name in bundled_scenario_names()}

#: one value of each YAML type: string, bool, null, int, float, list, mapping
SWAPS = ("x", True, None, 0, 1, 0.5, [], {}, [0.5], {"x": 0.5})
NON_FINITE = (math.inf, -math.inf, math.nan)
RESHAPES = {
    "drop": lambda v, i: v[:i] + v[i + 1:],
    "duplicate": lambda v, i: v[:i + 1] + v[i:],
    "wrap": lambda v, i: [v],
    "flatten": lambda v, i: [x for item in v for x in (item if isinstance(item, list) else [item])],
    "empty": lambda v, i: [],
}


def _paths(node, prefix=()):
    """The path of every value below node: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    name = draw(st.sampled_from(sorted(BUNDLED)))
    doc = copy.deepcopy(BUNDLED[name])
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    how = draw(st.sampled_from(("delete", "swap", "non-finite")
                               + (("reshape",) if isinstance(value, list) else ())
                               + (("rename",) if isinstance(parent, dict) else ())))
    if how == "delete":
        del parent[key]
    elif how == "swap":
        parent[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    elif how == "non-finite":
        parent[key] = draw(st.sampled_from(NON_FINITE))
    elif how == "reshape":
        reshape = RESHAPES[draw(st.sampled_from(sorted(RESHAPES)))]
        parent[key] = reshape(value, draw(st.integers(0, max(len(value) - 1, 0))))
    else:
        parent[key + draw(st.sampled_from("sx_"))] = parent.pop(key)
    return name, doc, how


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_scenarios())
def test_mutated_scenario_runs_or_exits_2_naming_a_key(tmp_path, capsys, case):
    name, doc, how = case
    config = tmp_path / "mutated.yaml"
    config.write_text(yaml.safe_dump(doc))
    command = "simulate" if "simulation" in BUNDLED[name] else "bound"
    rc = main([command, "--config", str(config), "--resolution", "0.25"])
    err = capsys.readouterr().err
    assert rc in ((2,) if how == "rename" else (0, 2)), err
    if rc == 2:
        assert re.match(r"error: scenario key '[^']+': ", err), err


def _written(save, *args) -> bytes:
    """The bytes that save(path, *args) writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file.txt"
        save(path, *args)
        return path.read_bytes()


_SCENARIO_DIR = importlib.resources.files("metricprobe") / "data" / "scenarios"
#: the original bytes of each file the byte mutations start from; the
#: grid covers the gravitational-wave region box, the table holds a
#: flat band of five modes
FILES = {
    **{f"{name}.yaml": (_SCENARIO_DIR / f"{name}.yaml").read_bytes() for name in BUNDLED},
    "grid.txt": _written(save_grid, TensorGrid(
        values=np.linspace(0.0, 1.0, 36).reshape(3, 3, 2, 2, 1, 1) * (1.0 + np.eye(4)),
        origin=np.zeros(4), spacing=np.array([0.5, 0.5, 0.25, 0.25]))),
    "table.txt": _written(save_spectrum_table, flat_band_spectrum(
        60.0, 65.0, n_photons=1.0e4, tau=1.0, n_modes=5)),
}
#: the scenario that reads each data file, with the file's name as its path
READERS = {
    "grid.txt": dict(BUNDLED["gw-monochromatic-coherent"], stress_energy={"grid": {"path": "grid.txt"}}),
    "table.txt": dict(BUNDLED["gw-monochromatic-coherent"], probe={
        "spectrum": {"family": "table", "path": "table.txt", "tau": 1.0}}),
}


@st.composite
def mutated_bytes(draw):
    name = draw(st.sampled_from(sorted(FILES)))
    data = bytearray(FILES[name])
    for _ in range(draw(st.integers(1, 3))):
        how = draw(st.sampled_from(("flip", "insert", "delete")))
        i = draw(st.integers(0, len(data) - (how != "insert")))
        if how == "flip":
            data[i] ^= draw(st.integers(1, 255))
        elif how == "insert":
            data.insert(i, draw(st.integers(0, 255)))
        else:
            del data[i]
    return name, bytes(data)


@settings(max_examples=300, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_bytes())
def test_mutated_file_runs_or_exits_2_naming_a_key(tmp_path, capsys, case):
    name, data = case
    (tmp_path / name).write_bytes(data)
    config = tmp_path / name
    if name in READERS:
        # the scenario names its data file relative to itself
        config = tmp_path / "scenario.yaml"
        config.write_text(yaml.safe_dump(READERS[name]))
    rc = main(["bound", "--config", str(config), "--resolution", "0.25"])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    if rc == 2:
        assert re.match(r"error: scenario key '[^']+': ", err), err
