import os

import numpy as np
import pytest

from doublesine.reports import to_jsonable, write_csv, write_json


def test_a_rewritten_report_holds_only_its_last_bytes(tmp_path):
    path = tmp_path / "report.json"
    for i, payload in enumerate(({"a": 1.5, "b": [1, 2]}, {"a": float("inf")}, {"z": None})):
        write_json(path, payload)
        want = ('{\n  "a": 1.5,\n  "b": [\n    1,\n    2\n  ]\n}\n',
                '{\n  "a": "inf"\n}\n',
                '{\n  "z": null\n}\n')[i]
        assert path.read_bytes() == want.encode()
    assert os.listdir(tmp_path) == ["report.json"]


def test_a_rewritten_csv_holds_only_its_last_bytes(tmp_path):
    path = tmp_path / "rows.csv"
    for rows in ([[1, 0.1, True]] * 3, [[2, None, False]], []):
        write_csv(path, ["n", "value", "flag"], rows)
        cells = {1: "1,0.1,true\n", 2: "2,,false\n"}
        want = "n,value,flag\n" + "".join(cells[row[0]] for row in rows)
        assert path.read_bytes() == want.encode()


def test_a_linked_report_path_gets_a_new_file(tmp_path):
    # the writer unlinks before writing: a hard link keeps the old bytes
    path, link = tmp_path / "report.json", tmp_path / "old.json"
    write_json(path, {"run": 1})
    os.link(path, link)
    write_json(path, {"run": 2})
    assert b'"run": 1' in link.read_bytes() and b'"run": 2' in path.read_bytes()
    assert os.stat(path).st_ino != os.stat(link).st_ino


@pytest.mark.parametrize("value", [np.arange(3), len, np.int64(3), object()])
def test_a_value_without_a_report_form_is_refused(value):
    with pytest.raises(TypeError, match="no report form"):
        to_jsonable({"v": value})
