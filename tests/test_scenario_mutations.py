"""Scenario-mutation property test.

Each example takes one bundled scenario and mutates it once: it deletes
a key or list element, swaps a value for one of another type, puts a
non-finite number in its place, or reshapes a list.  Whatever the
mutation, the command line must either succeed or exit 2 with a
``ScenarioError`` that names a key path.  Runs use ``--resolution 0.25``
so that the whole test stays within a few seconds.
"""
import copy
import math
import re

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metricprobe.cli import main
from metricprobe.scenarios import bundled_scenario_names, load_bundled

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
    how = draw(st.sampled_from(("delete", "swap", "non-finite", "reshape")
                               if isinstance(value, list) else
                               ("delete", "swap", "non-finite")))
    if how == "delete":
        del parent[key]
    elif how == "swap":
        parent[key] = copy.deepcopy(draw(st.sampled_from(SWAPS)))
    elif how == "non-finite":
        parent[key] = draw(st.sampled_from(NON_FINITE))
    else:
        reshape = RESHAPES[draw(st.sampled_from(sorted(RESHAPES)))]
        parent[key] = reshape(value, draw(st.integers(0, max(len(value) - 1, 0))))
    return name, doc


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutated_scenarios())
def test_mutated_scenario_runs_or_exits_2_naming_a_key(tmp_path, capsys, case):
    name, doc = case
    config = tmp_path / "mutated.yaml"
    config.write_text(yaml.safe_dump(doc))
    command = "simulate" if "simulation" in BUNDLED[name] else "bound"
    rc = main([command, "--config", str(config), "--resolution", "0.25"])
    err = capsys.readouterr().err
    assert rc in (0, 2), err
    if rc == 2:
        assert re.match(r"error: scenario key '[^']+': ", err), err
