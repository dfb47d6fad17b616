"""The dataset CSV reader: block-wise parsing and the inputs it rejects."""

import inspect

import numpy as np
import pytest

from ddsids.evalcli import main
from ddsids.flowmeter import FLOW_BLOCK
from ddsids.preprocess import Dataset, read_dataset_csv, write_dataset_csv


class TestDatasetCsv:
    def dataset(self, n):
        rng = np.random.default_rng(n)
        return Dataset(rng.uniform(-1e3, 1e3, (n, 3)), ["benign", "dos"] * (n // 2) + ["benign"] * (n % 2),
                       ["a", "b", "c"], 0, np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("n", [0, 1, FLOW_BLOCK, 2 * FLOW_BLOCK + 3])
    def test_round_trip_across_blocks(self, tmp_path, n):
        ds = self.dataset(n)
        write_dataset_csv(ds, tmp_path / "d.csv")
        back = read_dataset_csv(tmp_path / "d.csv")
        assert back.matrix.shape == (n, 3) and back.matrix.tobytes() == ds.matrix.tobytes()
        assert back.labels == ds.labels and back.feature_names == ds.feature_names

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
        # The quoted label of the first row runs over lines 2 and 3, so the
        # bad row is on line 4, not on the row count's line 3.
        path = tmp_path / "d.csv"
        path.write_text('"a","b","c","Label"\n0.5,0.5,0.5,"ben\nign"\n0.5,nan,0.5,"dos"\n')
        with pytest.raises(ValueError, match="line 4, column 'b': non-finite value 'nan'"):
            read_dataset_csv(path)
        path.write_text('"a","b","c","Label"\n0.5,0.5,0.5,"ben\nign"\n0.5,0.5,"dos"\n')
        with pytest.raises(ValueError, match="line 4 has 3 fields, expected 4"):
            read_dataset_csv(path)
