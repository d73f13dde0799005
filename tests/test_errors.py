"""The line reader shared by every text input."""

import pytest

from senseclust.errors import DataError, read_lines


def test_numbering_line_ends_and_blank_lines(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"a\r\n\n b\nc\rd\r\n\r\n\xd0\xb1\n")
    # only \n and \r\n end a line; empty lines are skipped but still counted
    assert list(read_lines(path)) == [(1, "a"), (3, " b"), (4, "c\rd"), (6, "б")]


def test_errors_name_file_and_line(tmp_path):
    path = tmp_path / "in.txt"
    path.write_bytes(b"1\n\n2\nx\n")
    with pytest.raises(DataError, match="in.txt: line 4: invalid literal"):
        with read_lines(path) as lines:
            for _, line in lines:
                int(line)
    path.write_bytes(b"ok\n\xe1\xe0\xed\xea\n")  # cp1251, not UTF-8
    with pytest.raises(DataError, match="in.txt: line 2: not valid UTF-8"):
        list(read_lines(path))
