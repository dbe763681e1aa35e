"""SWF parser/writer tests."""

import io

import pytest

from repro.workload.generator import random_workload
from repro.workload.swf import (
    SwfFormatError,
    SwfHeader,
    read_swf,
    write_swf,
)

SAMPLE = """\
; Version: 2
; Computer: test machine
; MaxNodes: 64
; UnixStartTime: 1038700800
; a free-form comment line
1 0 5 100 4 -1 -1 4 200 -1 1 3 1 -1 -1 -1 -1 -1
2 50 -1 30 2 -1 -1 2 60 -1 1 4 1 -1 -1 -1 -1 -1
3 60 -1 -1 2 -1 -1 2 60 -1 0 4 1 -1 -1 -1 -1 -1
"""


class TestRead:
    def test_parses_jobs_and_header(self):
        wl = read_swf(io.StringIO(SAMPLE))
        assert len(wl) == 2  # third record has runtime -1 -> skipped
        assert wl.system_size == 64
        assert wl.metadata["skipped_records"] == 1
        job = wl.jobs[0]
        assert (job.id, job.nodes, job.runtime, job.wcl) == (1, 4, 100.0, 200.0)
        assert (job.user_id, job.group_id) == (3, 1)

    def test_system_size_override(self):
        wl = read_swf(io.StringIO(SAMPLE), system_size=128)
        assert wl.system_size == 128

    def test_missing_req_procs_falls_back_to_used(self):
        line = "1 0 0 10 4 -1 -1 -1 20 -1 1 1 1 -1 -1 -1 -1 -1\n"
        wl = read_swf(io.StringIO(line))
        assert wl.jobs[0].nodes == 4

    def test_missing_req_time_falls_back_to_runtime(self):
        line = "1 0 0 10 4 -1 -1 4 -1 -1 1 1 1 -1 -1 -1 -1 -1\n"
        wl = read_swf(io.StringIO(line))
        assert wl.jobs[0].wcl == 10.0

    def test_wrong_field_count_raises(self):
        with pytest.raises(SwfFormatError, match="18 fields"):
            read_swf(io.StringIO("1 2 3\n"))

    def test_non_numeric_raises(self):
        bad = "a " * 18 + "\n"
        with pytest.raises(SwfFormatError, match="non-numeric"):
            read_swf(io.StringIO(bad))

    def test_strict_mode_raises_on_invalid_record(self):
        with pytest.raises(SwfFormatError, match="invalid job"):
            read_swf(io.StringIO(SAMPLE), skip_invalid=False)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "trace.swf"
        path.write_text(SAMPLE)
        wl = read_swf(path)
        assert wl.name == "trace"
        assert len(wl) == 2


def _fields(wl):
    """Each job's SWF fields, times in whole seconds as the writer emits
    them (submit truncated, runtime and estimate rounded)."""
    return [(j.id, j.nodes, j.user_id, j.group_id, int(j.submit_time),
             round(j.runtime), round(j.wcl)) for j in wl.jobs]


class TestWrite:
    def test_roundtrip_preserves_fields(self, tmp_path):
        wl = random_workload(50, system_size=32, seed=5)
        path = tmp_path / "out.swf"
        write_swf(wl, path)
        back = read_swf(path)
        assert _fields(back) == _fields(wl)
        assert back.system_size == 32

    def test_header_fields_written(self, tmp_path):
        wl = random_workload(3, system_size=16, seed=1)
        path = tmp_path / "o.swf"
        write_swf(wl, path, header=SwfHeader(computer="X", note="hello"))
        text = path.read_text()
        assert "; Computer: X" in text
        assert "; Note: hello" in text
        assert "; MaxNodes: 16" in text

    def test_write_to_stream(self):
        wl = random_workload(2, system_size=8, seed=0)
        buf = io.StringIO()
        write_swf(wl, buf)
        assert len(buf.getvalue().splitlines()) >= 6

    def test_roundtrip_not_equal_on_different_workloads(self):
        a = random_workload(5, seed=1)
        b = random_workload(5, seed=2)
        assert _fields(a) != _fields(b)
