"""The dataset CSV reader: block-wise parsing and the inputs it rejects."""

import inspect
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ddsids
from ddsids.evalcli import main
from ddsids.preprocess import Dataset, read_dataset_csv, write_dataset_csv
from ddsids.tables import FLOW_BLOCK


# Writes a dataset with a feature name beyond ASCII and reads it back.
UTF8_PROBE = """
import sys
import numpy as np
from ddsids.preprocess import Dataset, read_dataset_csv, write_dataset_csv
write_dataset_csv(Dataset(np.ones((2, 1)), ["benign", "dos"], ["Fl\\u00f6w"], np.zeros(1), np.ones(1)), sys.argv[1])
print(ascii(read_dataset_csv(sys.argv[1]).feature_names))
"""


class TestDatasetCsv:
    def test_text_is_utf8_whatever_the_locale(self, tmp_path):
        """Under the C locale, with Python's UTF-8 mode and locale coercion off."""
        src = str(Path(ddsids.__file__).parents[1])
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        path = tmp_path / "d.csv"
        done = subprocess.run([sys.executable, "-c", UTF8_PROBE, str(path)], capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "['Fl\\xf6w']\n"
        assert path.read_bytes().startswith('"Flöw","Label"\n'.encode())

    def dataset(self, n):
        rng = np.random.default_rng(n)
        return Dataset(rng.uniform(-1e3, 1e3, (n, 3)), ["benign", "dos"] * (n // 2) + ["benign"] * (n % 2),
                       ["a", "b", "c"], np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("n", [0, 1, FLOW_BLOCK, 2 * FLOW_BLOCK + 3])
    def test_round_trip_across_blocks(self, tmp_path, n):
        ds = self.dataset(n)
        write_dataset_csv(ds, tmp_path / "d.csv")
        back = read_dataset_csv(tmp_path / "d.csv")
        assert back.matrix.shape == (n, 3) and back.matrix.tobytes() == ds.matrix.tobytes()
        assert back.labels == ds.labels and back.feature_names == ds.feature_names

    def test_carriage_returns_inside_labels_round_trip(self, tmp_path):
        # A file with a carriage return must not be read in a newline mode
        # that translates it: a label that is no scenario name is rejected
        # with its text as written.
        for label in ("a\rb", "c\r\nd"):
            ds = replace(self.dataset(3), labels=["benign", label, "dos"])
            write_dataset_csv(ds, tmp_path / "d.csv")
            with pytest.raises(ValueError, match=re.escape(f"line 3, column 'Label': not one of benign, dos, clone, "
                                                           f"malsub {label!r}")):
                read_dataset_csv(tmp_path / "d.csv")

    def test_takes_only_a_path(self):
        assert list(inspect.signature(read_dataset_csv).parameters) == ["path"]

    def test_empty_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty dataset file"):
            read_dataset_csv(path)
        rc = main(["train", "--train", str(path), "--out-dir", str(tmp_path / "m")])
        assert rc == 1
        assert capsys.readouterr().err == f"ddsids: error: {path}: empty dataset file\n"

    def test_wrong_field_count_names_the_line(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset_csv(self.dataset(FLOW_BLOCK + 5), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[FLOW_BLOCK + 3] = "0.5,0.5,\"dos\"\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"line {FLOW_BLOCK + 4} has 3 fields, expected 4"):
            read_dataset_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        write_dataset_csv(self.dataset(4), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = f"0.5,{cell},0.5,\"dos\"\n"
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=f"line 4, column 'b': non-finite value '{cell}'"):
            read_dataset_csv(path)

    def test_line_after_a_label_spanning_two_lines(self, tmp_path):
        # A label spanning lines 2 and 3 is no scenario name, named on line
        # 2.  A quoted column name spanning lines 1 and 2 puts the bad row on
        # line 4, not on the row count's line 3.
        path = tmp_path / "d.csv"
        path.write_text('"a","b","c","Label"\n0.5,0.5,0.5,"ben\nign"\n0.5,nan,0.5,"dos"\n')
        with pytest.raises(ValueError, match=re.escape("line 2, column 'Label': not one of benign, dos, clone, malsub "
                                                       "'ben\\nign'")):
            read_dataset_csv(path)
        path.write_text('"a\nz","b","c","Label"\n0.5,0.5,0.5,"dos"\n0.5,nan,0.5,"dos"\n')
        with pytest.raises(ValueError, match="line 4, column 'b': non-finite value 'nan'"):
            read_dataset_csv(path)
        path.write_text('"a\nz","b","c","Label"\n0.5,0.5,0.5,"dos"\n0.5,0.5,"dos"\n')
        with pytest.raises(ValueError, match="line 4 has 3 fields, expected 4"):
            read_dataset_csv(path)

    def test_repeated_column_rejected(self, tmp_path):
        # Dataset.project looks names up with list.index, so a second 'a'
        # would silently read the first one's column.
        path = tmp_path / "d.csv"
        path.write_text('"a","a","Label"\n0.5,0.25,"dos"\n')
        with pytest.raises(ValueError, match=f"{path}: repeated column 'a'"):
            read_dataset_csv(path)
