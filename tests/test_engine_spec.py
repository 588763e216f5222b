"""Tests for the batch-spec JSON format and its parser."""

from __future__ import annotations

import json

import pytest

from repro.engine import (
    content_key,
    job_from_dict,
    jobs_from_spec,
    load_batch_spec,
)
from repro.exceptions import JobSpecError
from repro.states import ghz_state


def write_spec(tmp_path, document) -> str:
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(document))
    return str(path)


class TestJobFromDict:
    def test_family_job(self):
        job = job_from_dict(
            {"family": "ghz", "dims": [3, 6, 2], "params": {"levels": 2}}
        )
        assert job.family == "ghz"
        assert job.dims == (3, 6, 2)
        assert job.params == {"levels": 2}

    def test_amplitude_formats(self):
        job = job_from_dict(
            {"dims": [2, 2], "amplitudes": [1, 0.5, [0.0, 1.0], "1+2j"]}
        )
        assert job.amplitudes.tolist() == [1, 0.5, 1j, 1 + 2j]

    def test_option_fields_inline(self):
        job = job_from_dict(
            {"family": "uniform", "dims": [2, 2],
             "min_fidelity": 0.9, "verify": False}
        )
        assert job.options.min_fidelity == 0.9
        assert job.options.verify is False

    def test_defaults_merge_and_override(self):
        defaults = {"min_fidelity": 0.8, "verify": False}
        job = job_from_dict(
            {"family": "uniform", "dims": [2, 2], "min_fidelity": 0.95},
            defaults=defaults,
        )
        assert job.options.min_fidelity == 0.95
        assert job.options.verify is False

    @pytest.mark.parametrize(
        "raw, fragment",
        [
            ({"family": "ghz"}, "dims"),
            ({"dims": [2, 2]}, "exactly one"),
            ({"dims": [2, 2], "family": "bogus"}, "unknown state family"),
            ({"dims": [2, 2], "family": "ghz", "typo": 1}, "unknown fields"),
            ({"dims": "nope", "family": "ghz"}, "integers"),
            ({"dims": [2, 2], "amplitudes": "nope"}, "list"),
            ({"dims": [2, 2], "amplitudes": [{"re": 1}]}, "amplitude"),
            ({"dims": [2, 2], "amplitudes": [1, "zz"]}, "amplitude"),
            ({"dims": [2, 2], "family": "ghz", "params": 3}, "object"),
            (
                {"dims": [2, 2], "family": "ghz", "min_fidelity": 2.0},
                "min_fidelity",
            ),
            ("not-a-dict", "expected an object"),
        ],
    )
    def test_malformed_jobs_rejected(self, raw, fragment):
        with pytest.raises(JobSpecError, match=fragment):
            job_from_dict(raw)

    def test_error_messages_carry_position(self):
        with pytest.raises(JobSpecError, match=r"jobs\[1\]"):
            jobs_from_spec(
                {"jobs": [{"family": "ghz", "dims": [2, 2]}, {}]}
            )


    def test_content_key_ignores_kernel_switches(self, monkeypatch):
        # A switch that only picks an implementation must not split
        # the key space, or a front end and its shards would route and
        # cache one wire job under different keys.
        def key() -> str:
            job = job_from_dict({"family": "ghz", "dims": [2, 2]})
            return content_key(job.resolve_state(), job.options)

        monkeypatch.delenv("REPRO_FUSED_VERIFY", raising=False)
        plain = key()
        monkeypatch.setenv("REPRO_FUSED_VERIFY", "0")
        assert key() == plain


class TestJobsFromSpec:
    def test_full_document(self):
        jobs = jobs_from_spec({
            "defaults": {"verify": True},
            "jobs": [
                {"family": "ghz", "dims": [3, 6, 2]},
                {"amplitudes": [1, 0, 0, 1], "dims": [2, 2],
                 "label": "bell"},
            ],
        })
        assert [job.label for job in jobs] == ["ghz-3x6x2", "bell"]

    @pytest.mark.parametrize(
        "document, fragment",
        [
            ([], "JSON object"),
            ({}, "non-empty 'jobs' list"),
            ({"jobs": []}, "non-empty 'jobs' list"),
            ({"jobs": "x"}, "non-empty 'jobs' list"),
            ({"jobs": [{"family": "ghz", "dims": [2]}],
              "extra": 1}, "unknown top-level"),
            ({"jobs": [{"family": "ghz", "dims": [2]}],
              "defaults": 5}, "'defaults' must be an object"),
            ({"jobs": [{"family": "ghz", "dims": [2]}],
              "defaults": {"dims": [2]}}, "only takes synthesis options"),
        ],
    )
    def test_malformed_documents_rejected(self, document, fragment):
        with pytest.raises(JobSpecError, match=fragment):
            jobs_from_spec(document)


class TestLoadBatchSpec:
    def test_load_and_resolve(self, tmp_path):
        path = write_spec(tmp_path, {
            "jobs": [{"family": "ghz", "dims": [2, 2]}],
        })
        jobs = load_batch_spec(path)
        assert len(jobs) == 1
        assert jobs[0].resolve_state().isclose(ghz_state((2, 2)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(JobSpecError, match="cannot read"):
            load_batch_spec(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        with pytest.raises(JobSpecError, match="not valid JSON"):
            load_batch_spec(path)
