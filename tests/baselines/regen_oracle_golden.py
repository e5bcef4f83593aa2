"""Regenerate the Oracle per-mode golden trajectories (tiny fixture).

The trajectories come from the uncached reference Oracle
(``reference_oracle.py``); ``test_oracle_cache.py`` checks the production
Oracle against them.  Run only when a solver change intentionally moves the
Oracle's decisions::

    PYTHONPATH=src:. python tests/baselines/regen_oracle_golden.py

and review the diff of ``golden/oracle_modes.json`` before committing.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.runner import ExperimentConfig, build_simulation
from tests.baselines.reference_oracle import ReferenceOraclePolicy

MODES = ("lp", "greedy", "dual")
OUT = Path(__file__).parent / "golden" / "oracle_modes.json"


def main() -> None:
    golden: dict[str, dict] = {}
    for mode in MODES:
        cfg = ExperimentConfig.tiny(horizon=25, oracle_mode=mode)
        sim = build_simulation(cfg)
        res = sim.run(ReferenceOraclePolicy(sim.truth, mode=mode), 25)
        golden[mode] = {
            "accepted": res.accepted.astype(int).tolist(),
            "total_reward": float(res.reward.sum()),
        }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
