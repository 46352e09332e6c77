"""No ``hbab`` command imports scipy.

scipy stays a test dependency, the independent reference of the numerical
tests; at run time ``hbab`` needs numpy and the standard library only. The
check runs in a fresh interpreter, since this one has scipy loaded by the
other test modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hbab

_COMMANDS = """
import json, sys
from pathlib import Path

import hbab
from hbab.cli import main

tmp = Path(sys.argv[1])
(tmp / "design.json").write_text(json.dumps({"factors": [
    {"name": "msg", "role": "content", "values": ["m0", "m1"]},
    {"name": "ctx", "role": "context", "values": ["c0", "c1"]}]}))
(tmp / "counts.csv").write_text("update,msg,ctx,assignments,responses\\n" + "".join(
    f"{u},{m},{c},50,{20 + u + i}\\n"
    for u in (1, 2) for i, (m, c) in enumerate(
        [("m0", "c0"), ("m0", "c1"), ("m1", "c0"), ("m1", "c1")])))
(tmp / "cfg.json").write_text(json.dumps({"methods": ["mle"], "repetitions": 2}))
codes = [
    main(["analyze", "--design", str(tmp / "design.json"), "--counts",
          str(tmp / "counts.csv"), "--method", "mle", "--out", str(tmp / "analyze")]),
    main(["analyze", "--design", str(tmp / "design.json"), "--counts",
          str(tmp / "counts.csv"), "--method", "hb", "--out", str(tmp / "analyze-hb")]),
    main(["simulate", "--scale", "desk", "--config", str(tmp / "cfg.json"), "--seed", "1",
          "--out", str(tmp / "simulate")]),
    main(["learn-tau", str(tmp / "simulate"), "--method", "mle",
          "--out", str(tmp / "tau")]),
    main(["oracle-check", "--out", str(tmp / "oracle")]),
]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
(tmp / "result.json").write_text(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_commands_import_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(hbab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", _COMMANDS, str(tmp_path)], env=env, check=True,
                   capture_output=True, timeout=300)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result == {"codes": [0, 0, 0, 0, 0], "scipy": []}
