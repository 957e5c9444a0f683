"""Property tests of the command line as a whole. Character edits of each
input language (assembly, fault scenarios, model files and `--config`
files) and argv drawn from each subcommand's flags, with extreme and
non-finite values, run through `cli.main`. Every run ends with a documented
exit code (0, 2, 3, 4, 5, 6) and no other exception, writes at most one
`error:` line to stderr, and writes the same bytes when rerun."""
import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ifrsim import cli

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
WORKLOAD = str(SAMPLES / "workload.asm")
SCENARIOS = sorted(str(path) for path in SAMPLES.glob("*.flt"))
MODEL = str(SAMPLES / "twostate.model")
EXIT_CODES = {0, 2, 3, 4, 5, 6}
# A run whose edited program never halts ends at this many cycles (exit 6).
MAX_CYCLES = "3000"
CONFIG = ("# core settings\nclock_hz = 1e8\npermanent_threshold = 16\n"
          "flush_cycles = 3\npowerup_cycles_per_block = 64\n")

# Values at the edges of every number a flag or a file takes: zero and its
# sign, subnormals, overflow, non-finite values, integers past a machine
# word, and text that is no number.
EXTREMES = ("0", "-0", "1", "-1", "2", "0.5", "5e-324", "1e-300", "1e308", "-1e308",
            "1e400", "nan", "inf", "-inf", "9" * 20, "-" + "9" * 20, "0x10", "", "x")
# Sweep points, whose cost grows with their count: a count past the limit
# must be refused, so none is drawn between a few and that limit.
COUNTS = ("0", "-1", "1", "2", "3", "2.5", "1e308", "nan", "inf", "9" * 20, "x")
# Monte Carlo trials are limited to a billion, which still takes seconds,
# so only a few are drawn below the limit; the counts past it are refused.
TRIALS = ("0", "-1", "1", "3", "2.5", "nan", "x", "-" + "9" * 20, "1000000001", "9" * 20)

_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def _run(argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one `cli.main` run; argparse's own exit
    (2 for a usage error) counts as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check(argv: list[str]) -> None:
    first = _run(argv)
    code, _, err = first
    assert code in EXIT_CODES, (argv, first)
    errors = [line for line in err.splitlines() if re.search(r"(^|\s)error:", line)]
    assert len(errors) <= 1, (argv, err)
    assert _run(argv) == first, argv


def _edited(text: str, alphabet: str):
    """`text` after one to six character edits: insertions, deletions and
    replacements, each of one character of `alphabet` or one extreme value."""
    pieces = st.sampled_from(sorted(set(alphabet)) + list(EXTREMES))
    edits = st.lists(st.tuples(st.integers(0, len(text)), st.sampled_from("idr"), pieces),
                     min_size=1, max_size=6)

    def apply(edits) -> str:
        chars = list(text)
        for at, op, piece in edits:
            at = min(at, len(chars))
            if op == "i":
                chars[at:at] = piece
            elif op == "d":
                del chars[at:at + 1]
            else:
                chars[at:at + 1] = piece
        return "".join(chars)
    return edits.map(apply)


# Each input language: its sample texts, the characters its edits draw from
# besides a sample's own, and the argv that reads the edited file at PATH.
# MAX is a `--max-cycles` drawn from EXTREMES: the sample program halts
# under any scenario or config, but an edited program may not.
LANGUAGES = {
    "program": ([Path(WORKLOAD).read_text()], "-,;#:\t\n",
                ["sim", "PATH", str(SAMPLES / "decode_stuckat.flt"), "--max-cycles", MAX_CYCLES]),
    "scenario": ([Path(path).read_text() for path in SCENARIOS], "@.:#-\t\nTPERM",
                 ["sim", WORKLOAD, "PATH", "--max-cycles", "MAX"]),
    "model": ([Path(MODEL).read_text()], "-;>:=#\t\n", ["markov", "--model", "PATH"]),
    "config": ([CONFIG], "=#_\t\n", ["sim", WORKLOAD, str(SAMPLES / "decode_delay.flt"),
                                     "--config", "PATH", "--max-cycles", "MAX"]),
}


@pytest.mark.parametrize("language", sorted(LANGUAGES))
@settings(max_examples=50, **_SETTINGS)
@given(data=st.data())
def test_edited_input_files_exit_cleanly(language, data, tmp_path):
    texts, alphabet, argv = LANGUAGES[language]
    text = data.draw(st.sampled_from(texts), label="sample")
    path = tmp_path / f"{language}.txt"
    path.write_text(data.draw(_edited(text, text + alphabet), label="edited"), encoding="utf-8")
    if "MAX" in argv:
        argv = [data.draw(st.sampled_from(EXTREMES), label="max_cycles") if arg == "MAX"
                else arg for arg in argv]
    _check([str(path) if arg == "PATH" else arg for arg in argv])


def _values(*pools) -> st.SearchStrategy:
    """A list of one value drawn from each pool."""
    return st.tuples(*map(st.sampled_from, pools)).map(list)


_EXTREME = _values(EXTREMES)
_RANGES = st.one_of(
    _EXTREME,
    st.builds("{}..{}".format, st.sampled_from(EXTREMES), st.sampled_from(EXTREMES)),
    st.builds("{}..{}:{}".format, *[st.sampled_from(EXTREMES)] * 3)).map(lambda spec: [spec])
_NONE = st.just([])
_SWEEP = _values(EXTREMES, EXTREMES, COUNTS)

SUBCOMMANDS = {
    "sim": (st.tuples(st.just(WORKLOAD), st.sampled_from(SCENARIOS)).map(list), {
        **{cli._flag(key): _EXTREME for key in cli._CONFIG_KEYS},
        "--max-cycles": _EXTREME,
    }),
    "formulas": (_NONE, {
        **{flag: _NONE for flag in ("--tmr", "--standby", "--ifr", "--ifr-pipeline",
                                    "--availability", "--exp")},
        **{flag: _RANGES for flag in ("-R", "--spares", "--rp")},
        **{flag: _EXTREME for flag in ("--rb", "--coverage", "--rsw", "--rctrl", "--mttf",
                                        "--mttr", "--rate", "--hours")},
    }),
    "markov": (st.sampled_from([["--builtin", name] for name in cli._BUILTINS]
                               + [["--model", MODEL]]), {
        "--lam": _EXTREME, "--T": _EXTREME, "--tol": _EXTREME, "--aux-ratio": _EXTREME,
        "--sweep": _SWEEP, "--sweep-const": _values(["lambda", "mu"], EXTREMES, EXTREMES, COUNTS),
        "--mc": _values(TRIALS), "--seed": _EXTREME,
    }),
    "compare": (_NONE, {"--sweep": _SWEEP, "--T": _EXTREME, "--tol": _EXTREME,
                        "--aux-ratio": _EXTREME}),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(max_examples=30, **_SETTINGS)
@given(data=st.data())
def test_drawn_argv_exits_cleanly(command, data):
    # SUBCOMMANDS: each subcommand's required arguments, and each of its
    # flags with the list of values that follow it.
    required, spec = SUBCOMMANDS[command]
    argv = [command, *data.draw(required, label="required")]
    for flag in data.draw(st.lists(st.sampled_from(sorted(spec)), unique=True), label="flags"):
        argv += [flag, *data.draw(spec[flag], label=flag)]
    _check(argv)
