"""The two CLI smoke studies against their CSVs in tests/data.

The files are the output of

    python -m fracfp --problem ex2 --alpha 0.4 --gamma 5 --steps 64,128 --elements 200
    python -m fracfp --problem ex1 --alpha 0.3,1 --gamma 5.4 --steps 32,64 --elements 200

(smoke_ex2_study.csv and smoke_ex1_study.csv).  Every column but `seconds`
is compared: text columns exactly, eps/weps to 1e-6 relative and the rates
to 1e-5 absolute, so a change that claims the same CSV is checked for it.
"""

import csv
import io
from pathlib import Path

import pytest

from fracfp import run_study, write_csv

DATA = Path(__file__).with_name("data")
STUDIES = {
    "smoke_ex2_study.csv": ("ex2", [0.4], [5.0], [64, 128]),
    "smoke_ex1_study.csv": ("ex1", [0.3, 1.0], [5.4], [32, 64]),
}


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_smoke_study_matches_its_csv(name):
    problem, alphas, gammas, Ns = STUDIES[name]
    text = write_csv(run_study(problem, alphas, gammas, Ns, elements=200))
    want_text = (DATA / name).read_text()
    assert text.splitlines()[0] == want_text.splitlines()[0]
    got, want = (list(csv.DictReader(io.StringIO(t))) for t in (text, want_text))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for col, value in w.items():
            if col == "seconds":
                continue
            if col in ("eps", "weps") and value not in ("", "error"):
                assert float(g[col]) == pytest.approx(float(value), rel=1e-6, abs=0), (col, w)
            elif col in ("eps_rate", "weps_rate") and value:
                assert float(g[col]) == pytest.approx(float(value), rel=0, abs=1e-5), (col, w)
            else:
                assert g[col] == value, (col, w)
