"""Layout rules of the program source."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lattice_waves"


def test_no_source_line_exceeds_100_columns():
    files = sorted(SRC.glob("*.py"))
    assert files
    long = [
        f"{path.name}:{number} ({len(line)} columns)"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert not long, long
