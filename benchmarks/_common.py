"""Shared plumbing for the benchmark scripts.

One place for the path bootstrap, the machine stanza, and the
``repro-bench-v1`` report assembly that used to be duplicated across
``bench_fastpath.py`` / ``bench_kernels.py`` / ``bench_quorum.py``.
Scripts keep measuring into plain nested dicts; :func:`finalize`
flattens them into the canonical schema (see :mod:`repro.obs.bench`),
runs the regression gate when ``--check`` was given, and writes the
report. A ``--check`` run writes to ``BENCH_<suite>.measured.json``
by default and never over the baseline it checks.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Mapping, Optional

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.obs import bench as obs_bench  # noqa: E402

MB = 1024 * 1024


def flatten_metrics(
    nested: Mapping[str, object],
    gates: Mapping[str, str] = (),
    units: Mapping[str, str] = (),
) -> Dict[str, Dict[str, object]]:
    """Dotted-name metric entries from a nested measurement dict.

    ``gates`` maps metric name -> direction (``higher``/``lower``) for
    the regression-checked subset; ``units`` annotates display units.
    """
    flat: Dict[str, float] = {}
    for key, value in nested.items():
        obs_bench._flatten(value, key, flat)
    gates = dict(gates)
    units = dict(units)
    return {
        name: obs_bench.metric(
            value,
            unit=units.get(name, ""),
            gate=name in gates,
            direction=gates.get(name, obs_bench.HIGHER),
        )
        for name, value in flat.items()
    }


def report_path(suite: str, output: Optional[str],
                check_path: Optional[str] = None) -> str:
    """Where the measured report goes: ``output`` if given, else the
    root ``BENCH_<suite>.json`` (``BENCH_<suite>.measured.json`` when
    checking). Exits with a one-line error if that is the baseline
    ``check_path`` itself."""
    if output is None:
        name = f"BENCH_{suite}.measured.json" if check_path else f"BENCH_{suite}.json"
        output = str(REPO / name)
    if check_path and Path(output).resolve() == Path(check_path).resolve():
        sys.exit(f"error: --output {output} would overwrite the --check baseline")
    return output


def add_report_options(parser, suite: str, check_help: str) -> None:
    """The ``--output`` and ``--check`` options every script shares."""
    parser.add_argument(
        "--output", default=None,
        help=f"where to write the measured report (default: BENCH_{suite}"
        f".json at the repo root, BENCH_{suite}.measured.json with --check)",
    )
    parser.add_argument(
        "--check", metavar="BASELINE", default=None, help=check_help,
    )


def finalize(
    suite: str,
    metrics: Mapping[str, Mapping[str, object]],
    output: Optional[str],
    check_path: Optional[str] = None,
    gate: float = 0.8,
    note: Optional[str] = None,
) -> int:
    """When ``check_path`` names a committed baseline, gate the
    measured ``repro-bench-v1`` report against it; then write the
    report (see :func:`report_path`). Returns nonzero on regression."""
    output = report_path(suite, output, check_path)
    report = obs_bench.make_report(
        suite, metrics, machine=obs_bench.machine_stanza(note))
    failures = None
    if check_path:
        failures = obs_bench.compare_reports(
            obs_bench.load_report(check_path), report, gate=gate)
    obs_bench.save_report(report, output)
    print(f"[report written to {output}]")
    return 1 if failures else 0
