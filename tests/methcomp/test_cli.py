"""Tests for the METHCOMP file CLI."""

import pytest

from repro.methcomp.cli import main


@pytest.fixture
def bed_file(tmp_path):
    path = tmp_path / "sample.bed"
    assert main(["generate", str(path), "--records", "5000", "--seed", "3"]) == 0
    return path


class TestCli:
    def test_generate_creates_file(self, bed_file):
        assert bed_file.exists()
        assert bed_file.read_bytes().count(b"\n") == 5000

    def test_generated_default_is_shuffled(self, bed_file, tmp_path):
        from repro.methcomp.bed import bed_sort_key

        lines = [l for l in bed_file.read_bytes().split(b"\n") if l]
        keys = [bed_sort_key(line) for line in lines]
        assert keys != sorted(keys)

    def test_sort_then_compress_then_decompress(self, bed_file, tmp_path, capsys):
        sorted_path = tmp_path / "sorted.bed"
        compressed_path = tmp_path / "sorted.mcmp"
        restored_path = tmp_path / "restored.bed"

        assert main(["sort", str(bed_file), str(sorted_path)]) == 0
        assert main(["compress", str(sorted_path), str(compressed_path)]) == 0
        assert main(["decompress", str(compressed_path), str(restored_path)]) == 0

        assert restored_path.read_bytes() == sorted_path.read_bytes()
        assert compressed_path.stat().st_size < sorted_path.stat().st_size / 10

    def test_compress_unsorted_fails(self, bed_file, tmp_path):
        from repro.errors import CodecError

        with pytest.raises(CodecError, match="sort"):
            main(["compress", str(bed_file), str(tmp_path / "out.mcmp")])

    def test_ratio_reports_both_codecs(self, bed_file, tmp_path, capsys):
        sorted_path = tmp_path / "sorted.bed"
        main(["sort", str(bed_file), str(sorted_path)])
        assert main(["ratio", str(sorted_path)]) == 0
        out = capsys.readouterr().out
        assert "methcomp" in out and "gzip" in out

    def test_sorted_flag_generates_sorted(self, tmp_path):
        from repro.methcomp.bed import bed_sort_key

        path = tmp_path / "sorted-gen.bed"
        main(["generate", str(path), "--records", "2000", "--sorted"])
        lines = [l for l in path.read_bytes().split(b"\n") if l]
        keys = [bed_sort_key(line) for line in lines]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("records", ["-5", "-1", "many"])
    def test_generate_refuses_a_bad_record_count(self, tmp_path, capsys, records):
        """``--records -5`` used to write an empty file and report "-5 records"."""
        path = tmp_path / "out.bed"
        with pytest.raises(SystemExit) as exit_:
            main(["generate", str(path), "--records", records])
        assert exit_.value.code == 2
        assert "argument --records" in capsys.readouterr().err
        assert not path.exists()

    def test_generate_zero_records_is_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.bed"
        assert main(["generate", str(path), "--records", "0"]) == 0
        assert path.read_bytes() == b""

    def test_ratio_of_an_empty_file_is_an_error_not_a_traceback(self, tmp_path, capsys):
        """It used to die with a ``ZeroDivisionError``."""
        path = tmp_path / "empty.bed"
        path.write_bytes(b"")
        assert main(["ratio", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} is empty; no ratio to report\n"
