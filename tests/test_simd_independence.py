"""Report bytes that do not depend on numpy's SIMD dispatch level.

numpy's kernels for ``np.power``, and so for ``**`` on arrays, round
differently at different dispatch levels when the exponent is 3 or more
(NumPy, "CPU/SIMD optimizations").  The library writes such powers as
products (``geometry._ipow``).  An ``ast`` guard keeps ``np.power`` and
those ``**`` out of ``src/metricprobe/``, and the bundled chart audit,
the report that took them, must write the same bytes at the AVX2 level
as natively.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import metricprobe

SRC = Path(metricprobe.__file__).resolve().parent
#: NPY_DISABLE_CPU_FEATURES of numpy's AVX2 level on an AVX-512 host
AVX2 = "X86_V4 AVX512_ICL AVX512_SPR"
#: (file, source of the power) that the guard skips, with the reason:
#: each raises a Python number, never an array, so no numpy kernel runs
ALLOWED = {
    ("fock.py", "(n_max + 1) ** n_modes"): "a Python int, the basis dimension: exact",
    ("geometry.py", "(-1.0) ** n"): "a Python float, a smoothstep coefficient's sign: exact",
    ("quadrature.py", "2.0 ** sum(len(h) == 2 for h in halves)"):
        "a Python float, a power of two: exact",
}


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _dispatched_powers(text: str, name: str) -> list:
    """'name:line: source' of every np.power and every ** that is not
    squaring or less, nor an int literal raised to an int literal, nor
    in ALLOWED."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute) and node.attr == "power" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            found.append(node)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, exponent = _literal(node.left), _literal(node.right)
            small = type(exponent) in (int, float) and exponent < 3
            exact = type(base) is int and type(exponent) is int
            if not (small or exact or (name, ast.get_source_segment(text, node)) in ALLOWED):
                found.append(node)
    return [f"{name}:{node.lineno}: {ast.get_source_segment(text, node)}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def test_guard_tells_dispatched_powers_from_exact_ones():
    text = ("a = q ** 6\nb = q ** n\nc = np.power(q, 2)\nd = q ** 2\ne = q ** -0.5\n"
            "f = 2 ** 25\ng = (1.0 + u) ** 3.0\n")
    assert _dispatched_powers(text, "x.py") == [
        "x.py:1: q ** 6", "x.py:2: q ** n", "x.py:3: np.power", "x.py:7: (1.0 + u) ** 3.0"]


def test_library_raises_no_array_to_a_dispatched_power():
    found = [hit for path in sorted(SRC.rglob("*.py"))
             for hit in _dispatched_powers(path.read_text(), path.name)]
    assert not found, "\n".join(found)
    # every allowed entry still exists, so the list cannot go stale
    for name, source in ALLOWED:
        assert source in (SRC / name).read_text(), (name, source)


_AUDIT = """
import sys
from metricprobe import reports, scenarios
sc = scenarios.load_bundled("schwarzschild-coordinate-check")
assert sc.region.scaled(0.25).resolution == (9, 9, 9, 9)
sys.stdout.write(reports.dumps_report(scenarios.run_bound(sc, resolution_mult=0.25)))
"""


def test_bundled_audit_writes_the_same_bytes_at_the_avx2_level():
    # the bundled audit at 9^4 nodes (resolution 0.25 of 33^4), in one
    # child at the native level and one at AVX2; only the second child's
    # environment sets NPY_DISABLE_CPU_FEATURES
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC.parent), env.get("PYTHONPATH", "")])
    procs = [subprocess.Popen([sys.executable, "-c", _AUDIT], env=e, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for e in (env, dict(env, NPY_DISABLE_CPU_FEATURES=AVX2))]
    (native, native_err), (avx2, avx2_err) = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], native_err + avx2_err
    assert avx2 == native
