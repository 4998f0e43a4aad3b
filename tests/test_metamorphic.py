"""Metamorphic relations between two runs of the same code.

Scaling the field amplitude by 2^k scales T^munu by exactly 4^k, and
every density, sum and weight downstream of it is a product or a sum in
which that power of two factors out without rounding.  So each report
leaf either keeps its bits or is multiplied by exactly 4^k, on any host
and at any SIMD level.
"""
import copy
import struct

import pytest

from metricprobe.scenarios import bundled_scenario_names, load_bundled, parse_scenario, run_bound

GENERATOR = (".generator.P_total.value", ".generator.P_plateau.value",
             ".generator.error_estimate.value")
#: the leaves of each non-audit bundled scenario's bound that scale as
#: amplitude^2; the conformal probes' generators are exactly 0
SCALED = {
    "desitter-em-probe": (),
    "flrw-em-probe": (),
    "gw-broadband-coherent": GENERATOR,
    "gw-monochromatic-coherent": GENERATOR,
    "gw-squeezed-r1": GENERATOR,
    "proper-time-reduction": GENERATOR + (".proper_time.H_bar.value",
                                          ".proper_time.H_spread.value"),
    "unruh-component": GENERATOR + (".unruh.mean_int_T.value",),
}
AMPLITUDE = ".scenario.stress_energy.em.amplitude"


def test_every_non_audit_scenario_is_named():
    assert set(SCALED) == set(bundled_scenario_names()) - {"schwarzschild-coordinate-check"}


def _leaves(node, path=""):
    """(key path, value) of every leaf under node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _bits(value):
    """A number's exact identity: a float's bits, or the value itself."""
    return struct.pack("<d", value) if isinstance(value, float) else (type(value), value)


def _bound(doc, factor=1.0):
    doc = copy.deepcopy(doc)
    doc["stress_energy"]["em"]["amplitude"] *= factor
    return dict(_leaves(run_bound(parse_scenario(doc))))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("name", sorted(SCALED))
def test_amplitude_times_two_to_the_k_scales_leaves_by_four_to_the_k(name, k):
    doc = load_bundled(name).raw
    base, scaled = _bound(doc), _bound(doc, 2.0 ** k)
    assert scaled.keys() == base.keys()
    want = dict(base)
    want[AMPLITUDE] = base[AMPLITUDE] * 2.0 ** k
    for path in SCALED[name]:
        assert base[path] != 0.0, path
        want[path] = base[path] * 4.0 ** k
    moved = {path for path in base if _bits(scaled[path]) != _bits(want[path])}
    assert not moved
    assert _bits(scaled[".crlb.crlb.value"]) == _bits(base[".crlb.crlb.value"])
