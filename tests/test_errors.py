"""The line reader shared by every text input and the block reader of
binary ones."""

import pytest

from senseclust import errors
from senseclust.errors import DataError, read_blocks, read_lines, write_text


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


def test_byte_order_mark_only_at_the_start_of_line_1_is_dropped(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes("a\ufeff\n\ufeffb\n".encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert list(read_lines(marked)) == list(read_lines(plain)) == [
        (1, "a\ufeff"), (2, "\ufeffb")]
    marked.write_bytes("\ufeff\ufeff\n".encode("utf-8"))  # only one mark is dropped
    assert list(read_lines(marked)) == [(1, "\ufeff")]
    marked.write_bytes("\ufeff\r\nx\n".encode("utf-8"))  # a line of only a mark is blank
    assert list(read_lines(marked)) == [(2, "x")]


def test_write_text_streams_utf8_with_newline_ends(tmp_path):
    path = tmp_path / "out.txt"
    write_text(path, (chunk for chunk in ["é\tx\n", "b\r\n", "c"]))
    assert path.read_bytes() == "é\tx\nb\r\nc".encode("utf-8")


@pytest.mark.parametrize("block", [1, 3, 1000])
def test_read_blocks_yields_blocks_that_outlive_the_next(tmp_path, monkeypatch, block):
    path = tmp_path / "in.bin"
    path.write_bytes(bytes(range(256)) * 2)
    monkeypatch.setattr(errors, "BLOCK_BYTES", block)
    blocks = list(read_blocks(path))  # every block held at once
    assert b"".join(blocks) == path.read_bytes()
    assert all(len(b) <= block for b in blocks)
