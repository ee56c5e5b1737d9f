"""Byte-level CLI contract: what `analyze`, `simulate` and `sweep` print.

The expected texts were recorded from the command line itself and pin
every printed digit, so a change that claims to leave outputs alone is
checked here rather than by hand. A change that moves an answer on
purpose updates the text it moves. The `wall_s` column of a sweep is
timing, so it is cut before comparing.
"""

import json

import pytest

from vrfplan.cli import main

README_CONFIG = {"a": 0.25, "n_d": 3, "cluster_size": 16}

CASES = {
    "analyze_readme": ("analyze", README_CONFIG, []),
    # depth 1 at N = 20: the link carries only 8 units at the top rate
    "analyze_saturated": ("analyze", {"a": 0.25, "n_d": 1, "cluster_size": 20}, []),
    "simulate_seeded": ("simulate", README_CONFIG, ["--seed", "4", "--events", "100000"]),
    # Weibull arrivals and a reconfiguration latency at a point where the link blocks
    "simulate_weibull_latency": ("simulate", {"a": 0.3, "n_d": 3, "cluster_size": 18},
                                 ["--arrival", "weibull:0.9", "--latency", "0.5",
                                  "--seed", "4", "--events", "100000"]),
    "sweep_analytic": ("sweep", {"a": [0.2, 0.25], "n_d": [2, 3], "n": [10, 17]}, []),
    "sweep_both": ("sweep", {"a": [0.25], "n_d": [3], "n": [16, 17], "mode": "both",
                             "events": 100_000}, ["--seed", "7"]),
}

EXPECTED = {
    "analyze_readme": """\
cluster size        16
rates (Mbit/s)      307.2 614.4 1228.8
normalized load a   0.25
threshold gap       1
link capacity       10000 Mbit/s
load grid           G = 32 units of 307.2 Mbit/s
binomial convention effective (n = 16)
P_B component 0     2.08098132e-10
P_B component 1     2.69296915e-05
P_B component 2     1.41904927e-05
P_B total           4.11203923e-05
""",
    "analyze_saturated": """\
cluster size        20
rates (Mbit/s)      1228.8
normalized load a   0.25
threshold gap       1
link capacity       10000 Mbit/s
load grid           G = 8 units of 1228.8 Mbit/s
binomial convention effective (n = 8)
P_B component 0     0.999967703
P_B total           0.999967703
""",
    "simulate_seeded": """\
events processed     100000 (warm-up 5000)
arrivals             47493
accepted             47493
blocked (unit full)  0
blocked (link)       0
upgrade attempts     2667
P_B flow estimate    2.47029447e-05 +- 4.15815918e-05 (95% CI)
P_B per attempt      0
P_B per arrival      0 (link) 0 (unit) 0 (total)
mean aggregate rate  7612.04803 Mbit/s
max aggregate rate   9830.4 Mbit/s
""",
    "simulate_weibull_latency": """\
events processed     100000 (warm-up 5000)
arrivals             48357
accepted             46626
blocked (unit full)  0
blocked (link)       1731
upgrade attempts     2372
P_B flow estimate    0.60652073 +- 0.0476809858 (95% CI)
P_B per attempt      0.729763912
P_B per arrival      0.0357962653 (link) 0 (unit) 0.0357962653 (total)
mean aggregate rate  9681.64099 Mbit/s
max aggregate rate   9830.4 Mbit/s
""",
    "sweep_analytic": """\
n,a,n_d,gap,arrival,events,seed,pb_analytic,pb_components,pb_sim,pb_sim_ci,blocked_rru,blocked_fha,agree
10,0.2,2,1,,,,8.26144596e-27,2.00245342e-31;8.26124571e-27,,,,,
17,0.2,2,1,,,,0.998548724,0.998214794;0.000333930694,,,,,
10,0.2,3,1,,,,1.78159398e-30,1.62263488e-35;1.0997299e-31;1.67160477e-30,,,,,
17,0.2,3,1,,,,1.91987639e-08,5.93752688e-13;1.74213511e-08;1.7768191e-09,,,,,
10,0.25,2,1,,,,1.7110944e-17,4.95737162e-23;1.71108944e-17,,,,,
17,0.25,2,1,,,,0.999881092,0.993138956;0.00674213621,,,,,
10,0.25,3,1,,,,7.58329589e-20,1.10000934e-25;2.80624129e-21;7.30266076e-20,,,,,
17,0.25,3,1,,,,0.00118593324,9.52405302e-09;0.00100259219;0.000183331524,,,,,
""",
    "sweep_both": """\
n,a,n_d,gap,arrival,events,seed,pb_analytic,pb_components,pb_sim,pb_sim_ci,blocked_rru,blocked_fha,agree
16,0.25,3,1,poisson,100000,6258858271174603498,4.11203923e-05,2.08098132e-10;2.69296915e-05;1.41904927e-05,2.10111629e-05,4.96409527e-05,0,0,true
17,0.25,3,1,poisson,100000,4592233804096143552,0.00118593324,9.52405302e-09;0.00100259219;0.000183331524,0.00127513852,0.000772379669,0,6,true
""",
}


def _without_wall(csv_text):
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in csv_text.splitlines())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recorded_text(name, tmp_path, capsys):
    verb, doc, extra = CASES[name]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    flag = "--plan" if verb == "sweep" else "--config"
    assert main([verb, flag, str(path)] + extra) == 0
    out = capsys.readouterr().out
    if verb == "sweep":
        out = _without_wall(out)
    assert out == EXPECTED[name]
