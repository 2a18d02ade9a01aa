"""The benchmark's pinned figures agree with the program: verify-all's report
count, and the tolerances bench/workloads.py reuses from verify's reports.
A change to either then fails here rather than only when the bench runs."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from creasegeom import verify

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# workloads constant -> the prefix of the verify reports that carry it
TOLERANCE_REPORTS = {
    "STRIP_DENSITY_REL_TOL": "strip-curvature tube density",
    "CREASE_RATE_REL_TOL": "crease-law rate ",
    "GAUSS_BONNET_ABS_TOL": "gore mesh gauss-bonnet ",
    "MUDGUARD_QUADRATURE_REL_TOL": "mudguard quadrature ",
    "GAUSS_MAP_REL_TOL": "mudguard gauss map ",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reports():
    return verify.run_suite("all")


def test_verify_all_report_count(workloads, reports):
    init = inspect.signature(workloads.VerifyAll.__init__)
    assert len(reports) == init.parameters["expected_checks"].default


@pytest.mark.parametrize("name", sorted(TOLERANCE_REPORTS))
def test_tolerances_match_verify_reports(workloads, reports, name):
    tolerances = {r.tolerance for r in reports if r.case_name.startswith(TOLERANCE_REPORTS[name])}
    assert tolerances == {getattr(workloads, name)}
