"""What every ``vcp`` command shares: flags named after config keys override
the config file, each report carries its command and resolved config, and
every toolkit error maps to exit 1 or exit 2.  Also pins the cohort summary
and break-even of ``vcp score`` on edge-case cohorts."""

import argparse
import importlib
import json
import pkgutil

import pytest

import vibecheck
from vibecheck.cli import _build_parser, run
from vibecheck.config import RunConfig
from vibecheck.errors import ComputationError, ValidationError, VcpError

_DEFAULTS = RunConfig().to_dict()


def _subcommands(parser, prefix=()):
    """(command words, parser) of each leaf subcommand, ``traps generate`` included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, (*prefix, name))
            return
    yield prefix, parser


def _override_cases():
    for command, parser in _subcommands(_build_parser()):
        for action in parser._actions:
            if action.dest in _DEFAULTS:
                yield pytest.param(
                    command, action, id=f"{'-'.join(command)}-{action.dest}"
                )


def _values(action, default):
    """(config-file value, flag argv, expected config value), file and flag distinct."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return False, [flag], True
    if action.choices:
        first, last = action.choices[0], action.choices[-1]
        return last, [flag, first], first
    if isinstance(default, int):
        return default + 1, [flag, str(default + 2)], default + 2
    return default + 0.125, [flag, str(default + 0.25)], default + 0.25


@pytest.fixture(scope="module")
def base_argv(fixtures, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("contract")
    cohort = tmp / "cohort"
    simulate = [
        "simulate", "--beta0", "1", "--beta1", "0.5", "--beta2", "0.1", "--sigma-u", "1",
        "--sigma-e", "0.8", "--n-per-condition", "6", "--occasions", "3",
    ]
    assert run([*simulate, "--out", str(cohort)]) == 0
    kappa = tmp / "ratings.csv"
    kappa.write_text("a,b\n1,1\n1,2\n2,2\n3,3\n")
    study = fixtures / "study"
    return {
        ("metrics",): ["metrics", str(fixtures / "ifelse.vcp")],
        ("sdt",): ["sdt", "--responses", str(study / "responses.jsonl")],
        ("traps", "generate"): ["traps", "generate", "--origins", str(fixtures / "origins")],
        ("retention",): [
            "retention", "--build", str(fixtures / "session" / "build.log"),
            "--refactor", str(fixtures / "session" / "refactor.log"),
            "--calibration", str(fixtures / "calibration" / "calibration.json"),
        ],
        ("calibrate",): ["calibrate", "--pairs", str(fixtures / "calibration" / "pairs.jsonl")],
        ("egap",): [
            "egap", "--transcript", str(study / "transcripts" / "s01.txt"),
            "--ontology", str(study / "ontology.json"), "--code", str(study / "target.vcp"),
        ],
        ("score",): ["score", "--records", str(fixtures / "zones" / "boundary_records.jsonl")],
        ("power",): ["power", "--d", "2.0"],
        ("simulate",): simulate,
        ("fit",): ["fit", "--data", str(cohort / "cohort.jsonl")],
        ("spearman",): ["spearman", "--data", str(fixtures / "spearman" / "quiz_scores.csv")],
        ("kappa",): ["kappa", "--data", str(kappa)],
    }


def test_every_toolkit_error_is_a_validation_or_a_computation_error():
    # ``cli.run`` maps these two branches to exit 1 and exit 2 and has no
    # catch-all for a bare ``VcpError``; every module but ``__main__`` is
    # imported so that each subclass is defined.
    for info in pkgutil.walk_packages(vibecheck.__path__, "vibecheck."):
        if info.name != "vibecheck.__main__":
            importlib.import_module(info.name)
    pending, seen = [VcpError], []
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            seen.append(sub)
    assert ValidationError in seen and ComputationError in seen and len(seen) > 2
    for error in seen:
        assert issubclass(error, (ValidationError, ComputationError)), error


def test_every_subcommand_takes_the_common_seed_flag():
    commands = {command for command, _ in _subcommands(_build_parser())}
    seeded = {
        command for command, action in (p.values for p in _override_cases())
        if action.dest == "seed"
    }
    assert len(commands) == 12
    assert seeded == commands


@pytest.mark.parametrize("command, action", _override_cases())
def test_flag_named_after_a_config_key_overrides_the_config_file(
    command, action, base_argv, tmp_path, capsys
):
    file_value, flag_argv, expected = _values(action, _DEFAULTS[action.dest])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({action.dest: file_value}))
    argv = [*base_argv[command], "--config", str(config), *flag_argv]
    traps = command == ("traps", "generate")
    code = run([*argv, "--out", str(tmp_path / "corpus")] if traps else argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    if traps:
        report = json.loads((tmp_path / "corpus" / "report.json").read_text())
    else:
        report = json.loads(captured.out)
    assert report["command"] == " ".join(command)
    assert report["config"][action.dest] == expected
    assert report["config"] == {**_DEFAULTS, action.dest: expected}


# --- vcp score: cohort summary and break-even ----------------------------------

# (student, condition, m_csr, m_ht, e_gap, t_dev); a condition of None writes
# no "condition" key.
_COHORT = [
    ("a", "trad", 0.9, 0.8, 0.2, 5.0),
    ("b", "trad", 0.7, 0.6, 0.1, 6.0),
    ("c", "vibe", 0.6, 0.7, 0.4, 2.0),
    ("d", "vibe", 0.85, 0.55, 0.35, 2.5),
    ("e", None, 0.95, 0.65, 0.05, 3.0),
    ("f", "", 0.5, 0.45, 0.5, 1.0),
]


def _row(condition, n, means, sds):
    fields = ("m_csr", "m_ht", "e_gap", "t_dev", "utility")
    return {
        "condition": condition,
        "n": n,
        **{f"mean_{f}": v for f, v in zip(fields, means)},
        **{f"sd_{f}": v for f, v in zip(fields, sds)},
    }


_TRAD = _row(
    "trad", 2,
    (0.8, 0.7, 0.15000000000000002, 5.5, -0.3166666666666668),
    (0.14142135623730956, 0.14142135623730956, 0.07071067811865477, 0.7071067811865476,
     0.21213203435596437),
)
_VIBE = _row(
    "vibe", 2,
    (0.725, 0.625, 0.375, 2.25, 0.20833333333333331),
    (0.1767766952966369, 0.10606601717798207, 0.03535533905932741, 0.3535533905932738,
     0.03535533905932733),
)

# Each expectation is what the command printed before the summary moved
# into ``vibecheck.composite``.
_SCORE_CASES = {
    "records-without-condition-beside-trad-and-vibe": (
        _COHORT, ["--gamma", "0.2"],
        [
            _row(
                "all", 2,
                (0.725, 0.55, 0.275, 2.0, 0.2666666666666666),
                (0.31819805153394637, 0.14142135623730953, 0.31819805153394637,
                 1.4142135623730951, 0.02357022603955162),
            ),
            _TRAD,
            _VIBE,
        ],
        0.6249999999999999,
    ),
    "literal-all-condition-blocks-break-even": (
        [*_COHORT[:4], ("g", "all", 0.8, 0.5, 0.2, 4.0)], ["--gamma", "0.2"],
        [_row("all", 1, (0.8, 0.5, 0.2, 4.0, -0.10000000000000009), (0.0,) * 5), _TRAD, _VIBE],
        None,
    ),
    "single-condition": (
        [(s, "vibe", *rest) for s, _, *rest in _COHORT], ["--gamma", "0.2"],
        [
            _row(
                "vibe", 6,
                (0.75, 0.625, 0.26666666666666666, 3.25, 0.052777777777777694),
                (0.17888543819998318, 0.1214495780149112, 0.17795130420052185,
                 1.8907670401189038, 0.3032081548790949),
            ),
        ],
        None,
    ),
    "no-gamma": (
        _COHORT, ["--gamma", "0.2", "--no-gamma"],
        [
            _row(
                "all", 2,
                (0.725, 0.55, 0.275, 2.0, 0.6666666666666666),
                (0.31819805153394637, 0.14142135623730953, 0.31819805153394637,
                 1.4142135623730951, 0.25927248643506745),
            ),
            {**_TRAD, "mean_utility": 0.7833333333333332, "sd_utility": 0.07071067811865474},
            {**_VIBE, "mean_utility": 0.6583333333333333, "sd_utility": 0.03535533905932741},
        ],
        None,
    ),
}


@pytest.mark.parametrize("case", list(_SCORE_CASES))
def test_score_summary_and_break_even_on_edge_cohorts(case, tmp_path, capsys):
    cohort, flags, by_condition, break_even_hours = _SCORE_CASES[case]
    path = tmp_path / "records.jsonl"
    with path.open("w") as fh:
        for student, condition, m_csr, m_ht, e_gap, t_dev in cohort:
            rec = {"student": student, "m_csr": m_csr, "m_ht": m_ht, "e_gap": e_gap,
                   "t_dev": t_dev}
            if condition is not None:
                rec["condition"] = condition
            fh.write(json.dumps(rec) + "\n")
    assert run(["score", "--records", str(path), *flags]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["by_condition"] == by_condition
    assert summary["break_even_hours"] == break_even_hours
