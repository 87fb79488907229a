from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def test_unit_job_covers_python_3_12_to_3_14():
    # 3.12 on warn when a process forks beside a live thread; 3.14 makes
    # forkserver the default start method, which the worker pool overrides
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    versions = jobs["unit"]["strategy"]["matrix"]["python-version"]
    assert {"3.12", "3.13", "3.14"} <= set(versions)
