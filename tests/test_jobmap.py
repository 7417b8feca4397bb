from __future__ import annotations

import sys

import pytest

from melt.jobmap import (
    CommandJobSource, FileJobSource, JobMapParseError, jobs_changed,
    parse_adapter_spec, parse_jobmap_text,
)


class TestGrammar:
    def test_basic(self):
        jobs = parse_jobmap_text("tait.1111 c01 c02\ntait.1113 c03\n")
        assert jobs == {"tait.1111": ("c01", "c02"), "tait.1113": ("c03",)}

    def test_blank_lines_ok(self):
        assert parse_jobmap_text("\n\nj1 n1\n\n") == {"j1": ("n1",)}

    def test_job_without_nodes(self):
        with pytest.raises(JobMapParseError, match=":1"):
            parse_jobmap_text("lonely\n")

    def test_node_in_two_jobs(self):
        with pytest.raises(JobMapParseError, match="c01"):
            parse_jobmap_text("j1 c01\nj2 c01\n")

    def test_duplicate_job(self):
        with pytest.raises(JobMapParseError, match="duplicate"):
            parse_jobmap_text("j1 a\nj1 b\n")


class TestChangeDetection:
    def test_node_order_does_not_matter(self):
        a = parse_jobmap_text("j1 n1 n2\n")
        b = parse_jobmap_text("j1 n2 n1\n")
        assert not jobs_changed(a, b)

    def test_membership_change_detected(self):
        a = parse_jobmap_text("j1 n1\n")
        assert jobs_changed(a, parse_jobmap_text("j1 n1 n2\n"))
        assert jobs_changed(a, parse_jobmap_text("j2 n1\n"))
        assert jobs_changed(a, {})


class TestAdapters:
    def test_file_adapter(self, tmp_path):
        path = tmp_path / "jobs"
        path.write_text("j1 n1 n2\n", encoding="utf-8")
        source = FileJobSource(str(path))
        assert parse_jobmap_text(source.read()) == {"j1": ("n1", "n2")}

    def test_command_adapter(self):
        source = CommandJobSource([sys.executable, "-c", "print('j9 c01 c02')"])
        assert parse_jobmap_text(source.read()) == {"j9": ("c01", "c02")}

    def test_command_failure(self):
        source = CommandJobSource([sys.executable, "-c", "raise SystemExit(3)"])
        with pytest.raises(JobMapParseError, match="exited 3"):
            source.read()

    def test_adapter_spec_parsing(self):
        assert isinstance(parse_adapter_spec("file:/tmp/x"), FileJobSource)
        assert isinstance(parse_adapter_spec("cmd:squeue --melt"), CommandJobSource)
        with pytest.raises(ValueError):
            parse_adapter_spec("carrier:x")
        with pytest.raises(ValueError):
            parse_adapter_spec("file")
