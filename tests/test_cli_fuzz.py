"""Seeded, bounded fuzzing of the CLI over forecast and stream files,
and over the values of its numeric options.

Each file case mutates a valid JSON forecast file, CSV forecast file or
stream file (type swaps, integers beyond the float range, NaN and
infinities, negatives, ragged rows, missing keys, null weights, empty
lists) and runs the commands that read it through ``main``.  Each option
case runs ``learn`` or ``pool --generalized`` on valid files with
extreme values for ``--M``, ``--floor`` and ``--T``.  Every run must
return an exit code in 0..3 without raising; a non-zero exit writes
nothing to stdout and exactly one ``qapool:`` line to stderr.
"""

import copy
import json

import numpy as np
import pytest

from qapool.cli import main

CASES = 150  # per file format

# what a mutation may put in place of a JSON value
REPLACEMENTS = [
    10**400, -(10**400), float("nan"), float("inf"), float("-inf"), -0.5, 0, 1, 2.5,
    1e308, True, None, "0.5", "x", [], {}, [0.5, 0.5], [[0.5, 0.5]], {"probs": [0.5, 0.5]},
]
# what a mutation may put in place of a CSV cell
CELLS = ["nan", "inf", "-inf", "-0.5", "0", "1e400", "1" + "0" * 400, "x", "", "0.5", "weight"]

FORECAST_COMMANDS = [
    ["pool", "quadratic"],
    ["pool", "hs"],
    ["pool", "quadratic", "--generalized"],
    ["pool", "log", "--weights", "1,0,2"],
    ["score", "log"],
    ["bregman", "quadratic"],
]
# what an option case may pass as a numeric option's value
OPTION_VALUES = ["inf", "-inf", "nan", "1e400", "1e308", "1e-320", "5e-324", "0", "-1"]
# a command on valid files, and the options a case may give a fuzzed value
OPTION_COMMANDS = [
    (["learn", "quadratic", "stream"], ["--M", "--floor", "--T"]),
    (["learn", "log", "stream", "--M=10", "--floor=0.01"], ["--M", "--floor", "--T"]),
    (["pool", "quadratic", "forecast", "--generalized"], ["--floor"]),
    (["pool", "neglog", "forecast", "--generalized", "--floor=0.01"], ["--floor"]),
]
STREAM_COMMANDS = [
    ["learn", "quadratic"],
    ["learn", "log", "--M", "10", "--floor", "0.01"],
]


def forecast_doc():
    return {
        "n": 3,
        "labels": ["a", "b", "c"],
        "experts": [
            {"id": "x", "probs": [0.2, 0.3, 0.5], "weight": 0.5},
            {"id": "y", "probs": [0.6, 0.3, 0.1], "weight": 1.5},
            {"id": "z", "probs": [0.1, 0.1, 0.8]},
        ],
    }


def stream_doc():
    fs = [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]
    return {"steps": [{"forecasts": copy.deepcopy(fs), "outcome": j} for j in (1, 3, 2, 2)]}


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def mutate_json(doc, rng):
    """Replace, delete, null, extend or swap one randomly chosen node of doc."""
    paths = list(_paths(doc))
    path = paths[rng.integers(len(paths))]
    if not path:
        return copy.deepcopy(REPLACEMENTS[rng.integers(len(REPLACEMENTS))])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, op = path[-1], rng.integers(5)
    if op == 4 and isinstance(parent, list):
        # swapping list entries keeps probabilities, experts and steps valid
        other = int(rng.integers(len(parent)))
        parent[key], parent[other] = parent[other], parent[key]
    elif op == 0:
        parent[key] = copy.deepcopy(REPLACEMENTS[rng.integers(len(REPLACEMENTS))])
    elif op == 1:
        del parent[key]  # a missing key, or a shorter (ragged or empty) list
    elif op == 2 and isinstance(parent[key], list):
        parent[key].append(copy.deepcopy(parent[key][0]) if parent[key] else 0.5)
    else:
        parent[key] = None  # a null weight, probability, id, ...
    return doc


def mutate_csv(rows, rng):
    """Replace, delete or add one cell, or delete one row."""
    if not rows:
        return rows
    r = int(rng.integers(len(rows)))
    op, c = rng.integers(4), int(rng.integers(len(rows[r]) or 1))
    if op == 0 and rows[r]:
        rows[r][c] = CELLS[rng.integers(len(CELLS))]
    elif op == 1 and rows[r]:
        del rows[r][c]
    elif op == 2:
        rows[r].insert(c, CELLS[rng.integers(len(CELLS))])
    else:
        del rows[r]
    return rows


def run(argv, capsys):
    """Exit code of main(argv); checks the contract on stdout and stderr."""
    try:
        code = main(argv)
    except Exception as e:  # anything escaping main is the failure
        pytest.fail(f"{argv} raised {type(e).__name__}: {e}")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), (argv, code)
    if code == 0:
        json.loads(out)
    else:
        assert out == "", argv
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("qapool:"), (argv, err)
    return code


@pytest.mark.parametrize("fmt", ["json", "csv", "stream"])
def test_mutated_files_exit_cleanly(fmt, tmp_path, capsys):
    rng = np.random.default_rng({"json": 11, "csv": 12, "stream": 13}[fmt])
    path = tmp_path / ("f.csv" if fmt == "csv" else "f.json")
    commands = STREAM_COMMANDS if fmt == "stream" else FORECAST_COMMANDS
    codes = set()
    for _ in range(CASES):
        if fmt == "csv":
            rows = [["a", "b", "c", "weight"], ["0.2", "0.3", "0.5", "0.5"],
                    ["0.6", "0.3", "0.1", "1.5"], ["0.1", "0.1", "0.8", "1"]]
            for _ in range(rng.integers(1, 3)):
                rows = mutate_csv(rows, rng)
            path.write_text("".join(",".join(row) + "\n" for row in rows))
        else:
            doc = stream_doc() if fmt == "stream" else forecast_doc()
            for _ in range(rng.integers(1, 3)):
                doc = mutate_json(doc, rng)
            path.write_text(json.dumps(doc))
        for command in commands:
            codes.add(run([command[0], command[1], str(path), *command[2:]], capsys))
    # the mutations reach both the accepting and the rejecting paths
    assert 0 in codes and 1 in codes


def test_option_values_exit_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(14)
    files = {"stream": tmp_path / "s.json", "forecast": tmp_path / "f.json"}
    files["stream"].write_text(json.dumps(stream_doc()))
    files["forecast"].write_text(json.dumps(forecast_doc()))

    def argv(command, options):
        args = [str(files.get(a, a)) for a in command]
        # a later --opt=value overrides a default the command gives
        return args + [f"{opt}={value}" for opt, value in options]

    # every value on every option alone, then seeded combinations
    cases = [
        (command, [(opt, value)])
        for command, opts in OPTION_COMMANDS for opt in opts for value in OPTION_VALUES
    ]
    for _ in range(CASES // 3):
        command, opts = OPTION_COMMANDS[rng.integers(len(OPTION_COMMANDS))]
        chosen = [opt for opt in opts if rng.integers(2)] or opts[:1]
        cases.append((command, [(opt, OPTION_VALUES[rng.integers(len(OPTION_VALUES))])
                                for opt in chosen]))
    codes = {run(argv(command, options), capsys) for command, options in cases}
    assert 0 in codes and 1 in codes
