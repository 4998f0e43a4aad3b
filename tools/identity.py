"""Byte-identity gate: do two source trees write the same reports?

    python3 tools/identity.py --against REV

unpacks ``git archive REV`` into a temporary directory, then writes the
``dumps_report`` text of a fixed corpus once from that tree and once from
the tree this script lives in, each in a fresh child process that imports
``metricprobe`` from the tree's own ``src/``.

    python3 tools/identity.py --coverage

writes the corpus once, from this tree only, under the standard library's
``trace.Trace(count=1)``, and prints every statement in a function body
of ``src/`` that no corpus entry executes, as ``path:line: source``, one
a line, then their number.  A statement counts as executed when any line
of it (of its header, for a compound statement) is; ``global`` and
``nonlocal`` statements, which run no code, and docstrings are left out.
It takes about 20 s on a 2-core host.

    python3 tools/identity.py --coverage --against REV

does the same for this tree and for ``git archive REV``, and prints the
statements that joined the list (uncovered here, not at REV) and those
that left it (uncovered at REV, not here), each with its own tree's line
number.  Statements are matched by file and source text, so a statement
that only moved keeps its place and an edited one both leaves and joins.

    python3 tools/identity.py --simd

writes this tree's corpus three times: natively, and in children whose
environment alone sets ``NPY_DISABLE_CPU_FEATURES`` to the AVX2 level and
to the baseline level of numpy's SIMD dispatch (``SIMD_LEVELS``).  It
prints ``N of N identical across SIMD levels``, then one line for each
file that differs from the native one at a level, as ``--against`` does,
and exits 0 when no file differs.

The corpus (131 files), the same in every mode:

* ``run_bound`` of every bundled scenario at resolution 1.0 and 0.5;
* ``run_simulate`` of every bundled scenario with a simulation block;
* ``workloads.run_jobs`` of seed 7: bound-sweep ops 1-8, chart-audit
  ops 1-6 and readout-mc ops 1-6;
* ``run_verify()`` over all four suites;
* the chart audit at resolution 0.5 on a box whose faces cut both
  bundled sources, the one route where ``boundary_term`` is nonzero, and
  on a box that holds neither source, where every support-restricted
  integral misses the grid and the divergence residual's sample is all
  zero;
* ``run_bound`` of fifteen ``VARIANTS`` of bundled scenarios, which take
  the ``build_*`` branches no bundled scenario takes: a source read from a
  grid file and a probe spectrum read from a table, with real or complex
  alpha or with one off-axis mode (the non-paraxial warning), which each
  child writes with ``save_grid`` and ``save_spectrum_table`` next to its
  reports; a ``bump:`` section with ``stress_energy.frame: orthonormal``;
  a uniform EM field along the axes and one along no axis; a flat-band spectrum; squeezed unruh-component
  and proper-time-reduction; a g00 profile of kind bump; the off-diagonal
  minkowski_component (mu0 0, nu0 1); a probe without photons;
  flrw-em-probe in the chart frame with a box corner on the closed chi
  axis's lower bound, 0; and flrw-em-probe with a zero field amplitude;
* ``cli.main`` in the child's directory: ``bound`` and ``simulate`` of
  gw-monochromatic-coherent and ``verify --suite reductions``, each with
  ``--out``, ``list-scenarios``, and ``bound --resolution 0.5`` of every
  bundled scenario; each run's stdout is a corpus file (``*.stdout``),
  next to the report it wrote if any;
* ``cli.main`` ``bound`` of a scenario file in a subdirectory that names
  its grid and its spectrum table relative to itself;
* ``cli.main`` of nine ``CLI_ERRORS`` scenario files, each of which must
  exit 2: ``bound`` of one per family of input error, and ``simulate`` of
  one per refusal of ``run_simulate``; its stderr is a corpus file
  (``*.stderr``).  A tree that is not this one may run such a file
  without exit 2, a refusal it lacks: its file then holds ``exit N`` and
  the stderr, its stdout is dropped, and the corpus goes on.

The workload inputs come from this tree's ``bench/workloads.py`` for both
trees, so both libraries see the same scenario dicts.  The script prints
``N of N identical``, then one line for each file that differs with its
number of differing leaves (lines, for stdout and stderr) and its first
difference: the JSON key path, both values and, for floats, their
distance in ulps.  It exits 0 when every file is identical and 1
otherwise.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import copy
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import trace
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
OPS = {"bound-sweep": range(1, 9), "chart-audit": range(1, 7), "readout-mc": range(1, 7)}
#: NPY_DISABLE_CPU_FEATURES of each SIMD level that --simd compares with
#: the native one (numpy 2 feature names, x86-64)
SIMD_LEVELS = {"avx2": "X86_V4 AVX512_ICL AVX512_SPR",
               "baseline": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}
#: chart-audit box whose t and r faces cut both bundled sources
FACE_CUTTING_BOX = [[-0.5, 0.5], [1.6, 3.5], [0.94, 2.21], [-0.61, 0.61]]
#: chart-audit box that holds neither bundled source
SOURCELESS_BOX = [[-1.3, 1.3], [4.0, 4.6], [0.94, 2.21], [-0.61, 0.61]]
#: the grid field's and the spectrum table's files, relative to the
#: child's working directory, so both trees echo the same paths in their
#: reports
GRID_FILE = "grid.txt"
SPECTRUM_FILE = "spectrum.txt"
COMPLEX_SPECTRUM_FILE = "spectrum-complex.txt"
OFF_AXIS_SPECTRUM_FILE = "spectrum-off-axis.txt"
#: a bump inside the gravitational-wave region box
GW_BUMP = {"plateau": [[0.2, 0.8], [0.2, 0.8], [0.05, 0.2], [0.05, 0.2]],
           "support": [[0.05, 0.95], [0.05, 0.95], [0.01, 0.24], [0.01, 0.24]]}
SQUEEZED = {"probe.squeeze_r": 0.5, "probe.reference": "squeezed-vacuum"}
#: run_bound entries: name -> (bundled scenario, {dotted key: new value})
VARIANTS = {
    "gw-grid-field": ("gw-monochromatic-coherent",
                      {"stress_energy": {"grid": {"path": GRID_FILE}}}),
    "gw-localized-orthonormal": ("gw-monochromatic-coherent",
                                 {"bump": GW_BUMP, "stress_energy.frame": "orthonormal"}),
    "gw-uniform-field": ("gw-monochromatic-coherent", {"stress_energy.em": {
        "kind": "uniform", "E": [0, 1, 0], "B": [0, 0, 1]}}),
    # a field along no axis, coupled to T^xy, which is 0 for E along y
    # and B along z
    "unruh-component-oblique-field": ("unruh-component", {
        "family.parameters.nu0": 2,
        "stress_energy.em": {"kind": "uniform", "E": [0.6, -0.8, 0.5], "B": [0.2, 0.7, -0.4]}}),
    "gw-flat-band": ("gw-monochromatic-coherent", {"probe.spectrum": {
        "family": "flat-band", "omega_lo": 60.0, "omega_hi": 65.0, "n_photons": 1.0e4,
        "tau": 1.0}}),
    "gw-table-spectrum": ("gw-monochromatic-coherent", {"probe.spectrum": {
        "family": "table", "path": SPECTRUM_FILE, "tau": 1.0}}),
    "gw-table-spectrum-complex": ("gw-monochromatic-coherent", {"probe.spectrum": {
        "family": "table", "path": COMPLEX_SPECTRUM_FILE, "tau": 1.0}}),
    "gw-table-spectrum-off-axis": ("gw-monochromatic-coherent", {"probe.spectrum": {
        "family": "table", "path": OFF_AXIS_SPECTRUM_FILE, "tau": 1.0}}),
    # a box corner on the closed chi axis's lower bound, 0
    "flrw-chart-frame-from-the-pole": ("flrw-em-probe", {
        "stress_energy.frame": "chart",
        "region.box": [[1.0, 2.5], [0.0, 1.5], [0.8, 2.2], [-0.5, 0.5]]}),
    "unruh-component-squeezed": ("unruh-component", SQUEEZED),
    "proper-time-reduction-squeezed": ("proper-time-reduction", SQUEEZED),
    "gw-g00-bump-profile": ("gw-monochromatic-coherent", {"family": {
        "name": "g00_profile_perturbation",
        "parameters": {"theta0": 0.0, "profile": dict(GW_BUMP, kind="bump")}}}),
    "unruh-component-mu0-nu0": ("unruh-component",
                                {"family.parameters.mu0": 0, "family.parameters.nu0": 1}),
    "gw-zero-mean-field": ("gw-monochromatic-coherent", {"probe.spectrum.n_photons": 0.0}),
    # a zero source, whose trace-null check has no scale to normalize by
    "flrw-zero-field": ("flrw-em-probe", {"stress_energy.em.amplitude": 0.0}),
}
#: command lines run through cli.main; an --out path is relative to the
#: child's working directory
CLI_RUNS = {
    "cli_bound": ["bound", "--config", "gw-monochromatic-coherent", "--out", "cli_bound.json"],
    "cli_simulate": ["simulate", "--config", "gw-monochromatic-coherent",
                     "--out", "cli_simulate.json"],
    "cli_verify": ["verify", "--suite", "reductions", "--out", "cli_verify.json"],
    "cli_list-scenarios": ["list-scenarios"],
    "cli_bound_relative-paths": ["bound", "--config", "scenario/relative-paths.yaml",
                                 "--out", "cli_bound_relative-paths.json"],
}
#: scenario files that cli.main must refuse with exit 2: name ->
#: (command, bundled scenario, {dotted key: new value}), written as name.yaml
CLI_ERRORS = {
    "unknown-key": ("bound", "gw-monochromatic-coherent", {"notes": "a key no reader takes"}),
    "region-outside-the-chart": ("bound", "flrw-em-probe", {
        "region.box": [[-1.0, 2.5], [0.5, 1.5], [0.8, 2.2], [-0.5, 0.5]]}),
    "ragged-region-box": ("bound", "gw-monochromatic-coherent", {
        "region.box": [[0.0, 1.0], [0.0, 1.0], [0.0, 0.25], [0.0]]}),
    # squeeze_r stays at the scenario's 0.0, so the squeezed-vacuum
    # refusal first runs the probe reader's unknown-key check
    "misspelt-squeeze_r": ("bound", "gw-monochromatic-coherent", {
        "probe.reference": "squeezed-vacuum", "probe.squeez_r": 0.5}),
    # a number out of its range: the cutoff would sit below omega = 0
    "negative-dc-cutoff": ("bound", "gw-monochromatic-coherent",
                           {"probe.spectrum.dc_cutoff_mult": -5.0}),
    # run_simulate's refusals: no probe, no bound to read out against, a
    # probe that does not respond (C = 0), a mean that hides the noise
    "simulate-without-a-probe": ("simulate", "flrw-em-probe", {}),
    "simulate-coordinate-check": ("simulate", "schwarzschild-coordinate-check", {
        "probe": {"spectrum": {"family": "monochromatic", "omega": 62.83185307179586,
                               "n_photons": 1.0e4, "tau": 1.0}}}),
    "simulate-zero-photons": ("simulate", "gw-monochromatic-coherent",
                              {"probe.spectrum.n_photons": 0.0}),
    "simulate-hidden-noise": ("simulate", "gw-monochromatic-coherent",
                              {"simulation.a_true": 1.0e300}),
}


def _grid_values(shape, spacing) -> np.ndarray:
    """A null plane wave's T^munu along x, a = cos(2 pi (x - t)) (1 + y),
    on the grid nodes: T^00 = T^01 = T^11 = a^2 / 4 pi."""
    t, x, y, _ = np.meshgrid(*(np.arange(n) * d for n, d in zip(shape, spacing)),
                             indexing="ij")
    a2 = (np.cos(2.0 * np.pi * (x - t)) * (1.0 + y)) ** 2 / (4.0 * np.pi)
    values = np.zeros(tuple(shape) + (4, 4))
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        values[..., i, j] = a2
    return values


def _edited(scenarios, name: str, base: str, changes: dict) -> dict:
    """The bundled scenario base named name, with each dotted key set."""
    doc = copy.deepcopy(scenarios.load_bundled(base).raw)
    doc["name"] = name
    for dotted, value in changes.items():
        *sections, key = dotted.split(".")
        node = doc
        for section in sections:
            node = node[section]
        node[key] = value
    return doc


def write_corpus(out_dir: str) -> None:
    """Write every corpus report as one file under out_dir (child side)."""
    from metricprobe import cli, reports, scenarios, verify
    from metricprobe.probe import ModeLattice, flat_band_spectrum, save_spectrum_table
    from metricprobe.stress_energy import TensorGrid, save_grid
    import workloads
    import yaml

    def put(name: str, text: str) -> None:
        (Path(out_dir) / f"{name}.json").write_text(text)

    for name in scenarios.bundled_scenario_names():
        sc = scenarios.load_bundled(name)
        for mult in (1.0, 0.5):
            put(f"bound@{mult}_{name}",
                reports.dumps_report(scenarios.run_bound(sc, resolution_mult=mult)))
        if "simulation" in sc.raw:
            put(f"simulate_{name}", reports.dumps_report(scenarios.run_simulate(sc)))
    for workload, ops in OPS.items():
        wl = workloads.Workload(workload, SEED, scenarios)
        for op in ops:
            done = workloads.run_jobs(wl.jobs(op), scenarios, reports)
            for job, (_, text) in enumerate(done):
                put(f"{workload}_op{op}_job{job}", text)
    put("verify", reports.dumps_report(verify.run_verify()))

    for name, box in (("face-cutting-box", FACE_CUTTING_BOX), ("sourceless-box", SOURCELESS_BOX)):
        doc = dict(scenarios.load_bundled("schwarzschild-coordinate-check").raw)
        doc["region"] = dict(doc["region"], box=box)
        with warnings.catch_warnings():
            # the box clips the bump support too; the report's warnings say so
            warnings.simplefilter("ignore", UserWarning)
            report = scenarios.run_bound(scenarios.parse_scenario(doc), resolution_mult=0.5)
        put(f"bound@0.5_{name}", reports.dumps_report(report))

    shape, spacing = (9, 9, 3, 3), np.full(4, 0.125)
    grid = TensorGrid(values=_grid_values(shape, spacing), origin=np.zeros(4), spacing=spacing)
    spectrum = flat_band_spectrum(60.0, 65.0, n_photons=1.0e4, tau=1.0, n_modes=5)
    save_spectrum_table(COMPLEX_SPECTRUM_FILE, replace(
        spectrum, alpha=spectrum.alpha * np.exp(1j * np.linspace(0.0, 2.0, 5))))
    for directory in (".", "scenario"):
        os.makedirs(directory, exist_ok=True)
        save_grid(os.path.join(directory, GRID_FILE), grid)
        save_spectrum_table(os.path.join(directory, SPECTRUM_FILE), spectrum)
    # the middle mode leaves the x axis: khat_x = 0.987
    k = spectrum.lattice.k.copy()
    k[2, 1] = 10.0
    with warnings.catch_warnings():
        # each build of the off-axis spectrum warns that it is not paraxial
        warnings.simplefilter("ignore", UserWarning)
        save_spectrum_table(OFF_AXIS_SPECTRUM_FILE, replace(spectrum, lattice=ModeLattice(k=k)))
        for variant, (base, changes) in VARIANTS.items():
            doc = _edited(scenarios, variant, base, changes)
            report = scenarios.run_bound(scenarios.parse_scenario(doc))
            put(f"bound_{variant}", reports.dumps_report(report))
    # the two files named relative to the scenario file, not to the
    # working directory
    Path("scenario/relative-paths.yaml").write_text(yaml.safe_dump(_edited(
        scenarios, "relative-paths", "gw-monochromatic-coherent",
        {"stress_energy": {"grid": {"path": GRID_FILE}},
         "probe.spectrum": {"family": "table", "path": SPECTRUM_FILE, "tau": 1.0}})))

    cli_runs = dict(CLI_RUNS, **{
        f"cli_bound@0.5_{name}": ["bound", "--config", name, "--resolution", "0.5"]
        for name in scenarios.bundled_scenario_names()})
    for name, argv in cli_runs.items():
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            if cli.main(argv) != 0:
                raise SystemExit(f"metricprobe {' '.join(argv)} failed")
        (Path(out_dir) / f"{name}.stdout").write_text(stdout.getvalue())
    # only this tree's library must refuse every file; a refusal that
    # another tree lacks is recorded, so the comparison names the file
    own = Path(cli.__file__).resolve().is_relative_to(ROOT / "src")
    for name, (command, base, changes) in CLI_ERRORS.items():
        Path(f"{name}.yaml").write_text(yaml.safe_dump(_edited(scenarios, name, base, changes)))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = cli.main([command, "--config", f"{name}.yaml"])
        text = stderr.getvalue()
        if code != 2:
            if own:
                raise SystemExit(f"metricprobe {command} --config {name}.yaml did not exit 2")
            text = f"exit {code}\n{text}"
        (Path(out_dir) / f"cli_error_{name}.stderr").write_text(text)


def traced_corpus(out_dir: str, lines_path: str, src: str) -> None:
    """Write the corpus under trace.Trace(count=1), and the [file, line]
    pairs under the library's source directory src that it executes as
    JSON to lines_path (child side)."""
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    tracer.runfunc(write_corpus, out_dir)
    executed = sorted(key for key in tracer.results().counts if key[0].startswith(src))
    Path(lines_path).write_text(json.dumps(executed))


def _run_tree(tree: Path, out_dir: Path, lines_path=None, env=None) -> subprocess.Popen:
    """A child writing tree's corpus into out_dir, traced when lines_path
    is given; env holds variables set for the child alone."""
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        [str(tree / "src"), str(ROOT / "tools"), str(ROOT / "bench")]))
    call = ("identity.write_corpus(sys.argv[2])" if lines_path is None
            else "identity.traced_corpus(sys.argv[2], sys.argv[3], sys.argv[1])")
    code = ("import sys, metricprobe, identity\n"
            "assert metricprobe.__file__.startswith(sys.argv[1]), metricprobe.__file__\n"
            f"{call}\n")
    args = [str(tree / "src"), str(out_dir)] + ([] if lines_path is None else [str(lines_path)])
    return subprocess.Popen([sys.executable, "-c", code, *args], env=env, cwd=out_dir)


def _function_statements(node, inside: bool = False):
    """The statements nested in a function body anywhere under node,
    without docstrings and without global and nonlocal statements."""
    inside = inside or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    documented = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    doc = node.body[0] if documented and ast.get_docstring(node) is not None else None
    for child in ast.iter_child_nodes(node):
        if inside and isinstance(child, ast.stmt) and child is not doc \
                and not isinstance(child, (ast.Global, ast.Nonlocal)):
            yield child
        yield from _function_statements(child, inside)


def unexecuted(executed, tree: Path) -> list:
    """'path:line: source' of every function-body statement of tree's
    src/ with no executed line; a compound statement's lines are its
    header's."""
    hit = {(path, line) for path, line in executed}
    out = []
    for path in sorted((tree / "src").rglob("*.py")):
        text = path.read_text()
        source = text.splitlines()
        for stmt in _function_statements(ast.parse(text)):
            body = getattr(stmt, "body", None)
            last = body[0].lineno - 1 if body else stmt.end_lineno
            if not any((str(path), n) in hit for n in range(stmt.lineno, max(last, stmt.lineno) + 1)):
                out.append(f"{path.relative_to(tree)}:{stmt.lineno}: {source[stmt.lineno - 1].strip()}")
    return out


def _unpack(rev: str, dest: Path) -> Path:
    """dest holding ``git archive rev`` of this repository."""
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def _missing(entries: list, others: list) -> list:
    """The 'path:line: source' entries whose statement, matched by path
    and source, others lack, once for each copy that others lack."""
    def key(entry):
        path, _, source = entry.split(":", 2)
        return path, source

    spare = Counter(map(key, others))
    out = []
    for entry in entries:
        if spare[key(entry)]:
            spare[key(entry)] -= 1
        else:
            out.append(entry)
    return out


def coverage(against=None) -> int:
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        trees = {"this": ROOT}
        if against is not None:
            trees["against"] = _unpack(against, tmp / "tree")
        procs = []
        for label, tree in trees.items():
            (tmp / label).mkdir()
            procs.append(_run_tree(tree, tmp / label, tmp / f"{label}.json"))
        if any([p.wait() != 0 for p in procs]):
            print("a child process failed; see its traceback above", file=sys.stderr)
            return 2
        missed = {label: unexecuted(json.loads((tmp / f"{label}.json").read_text()), tree)
                  for label, tree in trees.items()}
    count = f"{len(missed['this'])} function-body statements of src/ that no corpus entry executes"
    if against is None:
        print("\n".join(missed["this"] + [count]))
        return 0
    joined = _missing(missed["this"], missed["against"])
    left = _missing(missed["against"], missed["this"])
    for entry in joined:
        print(f"joined: {entry}")
    for entry in left:
        print(f"left ({against}): {entry}")
    print(f"{count} ({len(missed['against'])} at {against}): "
          f"{len(joined)} joined, {len(left)} left")
    return 0


def _ordered(x: float) -> int:
    # IEEE doubles as integers that are consecutive for adjacent doubles
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(1 << 63) - i


def _differences(a, b, path: str = ""):
    """(key path, value a, value b) of every differing leaf, in document
    order, so the first difference is the first item."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in dict.fromkeys([*a, *b]):
            if key not in a or key not in b:
                yield f"{path}.{key}", a.get(key, "<absent>"), b.get(key, "<absent>")
            else:
                yield from _differences(a[key], b[key], f"{path}.{key}")
        if a.keys() == b.keys() and list(a) != list(b):
            yield f"{path} (key order)", list(a), list(b)
    elif isinstance(a, list) and isinstance(b, list):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _differences(x, y, f"{path}[{i}]")
        if len(a) != len(b):
            yield f"{path} (length)", len(a), len(b)
    elif type(a) is not type(b) or a != b:
        # NaN != NaN, but the texts already say whether they differ
        if not (isinstance(a, float) and isinstance(b, float) and a != a and b != b):
            yield path or "<root>", a, b


def _file_differences(pa: Path, pb: Path) -> str:
    """How many leaves (lines, for stdout and stderr) of the corpus file
    pa differ from pb's, and where the first one does."""
    if not (pa.exists() and pb.exists()):
        return "written by only one tree"
    if pa.suffix in (".stdout", ".stderr"):
        la, lb = pa.read_text().splitlines(), pb.read_text().splitlines()
        lines = [i for i, (x, y) in enumerate(zip(la, lb)) if x != y]
        lines += range(min(len(la), len(lb)), max(len(la), len(lb)))
        if not lines:
            return "same lines, different text"
        i = lines[0]
        return (f"{len(lines)} differing lines, first line {i + 1}: "
                f"{la[i:i + 1]!r} != {lb[i:i + 1]!r}")
    found = list(_differences(json.loads(pa.read_text()), json.loads(pb.read_text())))
    if not found:
        return "same values, different text"
    path, va, vb = found[0]
    text = f"{len(found)} differing leaves, first {path}: {va!r} != {vb!r}"
    if all(type(v) in (int, float) for v in (va, vb)):
        # the writer prints an integral float such as 0.0 as "0"
        text += f" ({abs(_ordered(float(va)) - _ordered(float(vb)))} ulp)"
    return text


def compare(dir_a: Path, dir_b: Path) -> tuple:
    """(the corpus file names of either directory, {name: its
    differences} for each file that differs)."""
    names = sorted({p.name for d in (dir_a, dir_b) for suffix in ("json", "stdout", "stderr")
                    for p in d.glob(f"*.{suffix}")})
    differ = {}
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if not (pa.exists() and pb.exists() and pa.read_bytes() == pb.read_bytes()):
            differ[name] = _file_differences(pa, pb)
    return names, differ


def _write_corpora(runs: dict, tmp: Path):
    """Write the corpus of every run, one child each, under tmp; runs maps
    a label to (tree, env).  Returns {label: compare of the first run's
    corpus with label's} for every later run, or None if a child failed."""
    dirs = {label: tmp / f"corpus-{i}" for i, label in enumerate(runs)}
    procs = []
    for label, (tree, env) in runs.items():
        dirs[label].mkdir()
        procs.append(_run_tree(tree, dirs[label], env=env))
    if any([p.wait() != 0 for p in procs]):
        print("a child process failed; see its traceback above", file=sys.stderr)
        return None
    first, *rest = runs
    return {label: compare(dirs[first], dirs[label]) for label in rest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REV",
                    help="git revision whose reports this tree must reproduce")
    ap.add_argument("--coverage", action="store_true",
                    help="print the function-body statements of src/ the corpus never runs, "
                         "or with --against, those that joined or left that list")
    ap.add_argument("--simd", action="store_true",
                    help="compare this tree's corpus across numpy's SIMD levels")
    args = ap.parse_args(argv)
    if args.simd and (args.coverage or args.against) \
            or not (args.simd or args.coverage or args.against):
        ap.error("give --against REV, --coverage [--against REV] or --simd")
    if args.coverage:
        return coverage(args.against)
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        tmp = Path(tmp)
        if args.simd:
            runs = {"native": (ROOT, None), **{
                level: (ROOT, {"NPY_DISABLE_CPU_FEATURES": features})
                for level, features in SIMD_LEVELS.items()}}
        else:
            runs = {args.against: (_unpack(args.against, tmp / "tree"), None),
                    "this tree": (ROOT, None)}
        compared = _write_corpora(runs, tmp)
    if compared is None:
        return 2
    names = {name for files, _ in compared.values() for name in files}
    same = len(names) - len({name for _, differ in compared.values() for name in differ})
    print(f"{same} of {len(names)} identical" + (" across SIMD levels" if args.simd else ""))
    first = next(iter(runs))
    for label, (_, differ) in compared.items():
        for name, text in differ.items():
            print(f"differs ({first} vs {label}): {name}: {text}")
    return 0 if same == len(names) else 1


if __name__ == "__main__":
    sys.exit(main())
