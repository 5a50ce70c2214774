"""Write the reference table of Student t quantiles the stats tests pin.

The confidence intervals of the reports use the two-sided 99 % t
quantile, ``t.ppf(0.995, df)``.  ``repro.simulation.stats`` computes it
with the standard library alone; this script records an independent
implementation's values for df 1-200 so the tests can hold the two
together without importing it.  Run it once from the repository root
(it needs scipy):

    python tests/simulation/make_t_table.py
"""

import json
import os

import scipy
from scipy import stats

PROBABILITY = 0.995
MAX_DF = 200
TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "t_ppf_0995.json")


def main() -> None:
    rows = [json.dumps([df, float(stats.t.ppf(PROBABILITY, df))])
            for df in range(1, MAX_DF + 1)]
    with open(TABLE, "w", encoding="utf-8") as handle:
        handle.write(f'{{"probability": {PROBABILITY},\n')
        handle.write(f' "source": "scipy {scipy.__version__} '
                     f'scipy.stats.t.ppf",\n')
        handle.write(' "quantiles": [\n  ' + ",\n  ".join(rows) + "\n]}\n")


if __name__ == "__main__":
    main()
