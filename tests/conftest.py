import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))


def pytest_addoption(parser):
    parser.addoption(
        "--acceptance-seeds", default="", metavar="SEEDS",
        help="run acceptance criteria 4-7 on these seeds besides 7, 11, 1, 2 and 6: comma-separated seeds and "
             "a-b ranges",
    )
