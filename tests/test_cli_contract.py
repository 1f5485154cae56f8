"""The CLI contract on generated configs: exit 0, 1 or 2, never a traceback.

Each case is config text for one subcommand with small shapes (n <= 8,
M <= 300, trials <= 20), seeds up to 2^70 and at most one key set to an
odd value (nan, inf, a subnormal, 1e300, an empty item, ``1_0``, ...),
run through ``cli.main`` in this process.  A non-zero exit writes exactly
one ``error:`` line; exit 0 writes a file that parses as CSV or as RFC
8259 JSON.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from isotropy import cli

# A seed may be as large as 2^70.  No M is: whiten streams its draws, so an M that validates
# runs as long as its draws take.
ODD_VALUES = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e300", "", "1_0", "x", "1,,2"]
SAMPLERS = ["cube", "ball", "simplex", "john:cross-polytope", "john:cube-vertices", "john:simplex"]
FIXTURES = ["cross-polytope", "cube-vertices", "simplex"]
EXTRA_LINES = ["# a comment", "", "bogus=1", "no equals sign", "n=3", "N=3", "  seed = 1  "]


def _int_list(values):
    items = st.lists(values, min_size=1, max_size=3, unique=True)
    return st.tuples(items, st.booleans()).map(lambda t: (",," if t[1] else ",").join(map(str, t[0])))


@st.composite
def cli_cases(draw):
    """(subcommand, config text, output format)."""
    command = draw(st.sampled_from(["sweep", "whiten", "truncated", "john-sparsify", "bernoulli"]))
    n = draw(st.integers(1, 8))
    keys = {
        "n": str(n),
        "eps": draw(st.sampled_from(["0.3", "0.5", "0.9"])),
        "seeds": draw(_int_list(st.sampled_from([0, 1, 2, 3, 2**70]))),
        "seed": str(draw(st.integers(0, 2**70))),
        "workers": draw(st.sampled_from(["1", "2"])),
    }
    if command == "sweep":
        keys.update(sampler=draw(st.sampled_from(SAMPLERS)), m_grid=draw(_int_list(st.integers(3, 300))))
    elif command == "whiten":
        factors = st.lists(st.sampled_from(["0.5", "1", "2"]), min_size=n, max_size=n)
        keys.update(
            sampler=draw(st.sampled_from(SAMPLERS)), m=str(draw(st.integers(1, 300))), distortion=",".join(draw(factors))
        )
    elif command == "truncated":
        # R^2 n / eps^2 <= 356 here, so M = c0 (R^2 n / eps^2) log(R^2 n / eps^2) <= 210.
        keys.update(sampler=draw(st.sampled_from(SAMPLERS[:3])), r=draw(st.sampled_from(["1", "2"])), c0="0.1")
    elif command == "john-sparsify":
        # M = (C / eps^2) n log(n / eps) <= 292 here.
        keys.update(
            fixture=draw(st.sampled_from(FIXTURES)),
            c=draw(st.sampled_from(["0.01", "0.1", "1"])),
            max_attempts=str(draw(st.integers(1, 4))),
        )
    else:
        mode = draw(st.sampled_from(["ratio", "symmetrize"]))
        keys.update(mode=mode, sampler=draw(st.sampled_from(SAMPLERS)), trials=str(draw(st.integers(1, 20))))
        if mode == "ratio":
            keys["m_grid"] = draw(_int_list(st.integers(3, 300)))
        else:
            keys["m"] = str(draw(st.integers(1, 300)))
    # Half the cases keep every key valid, and one in three adds a line.
    odd_key = draw(st.sampled_from([None] * len(keys) + sorted(keys)))
    if odd_key is not None:
        keys[odd_key] = draw(st.sampled_from(ODD_VALUES))
    lines = [f"{key}={value}" for key, value in keys.items()]
    extra = draw(st.sampled_from([None] * 2 * len(EXTRA_LINES) + EXTRA_LINES))
    if extra is not None:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return command, "\n".join(lines) + "\n", draw(st.sampled_from(["csv", "json"]))


def _reject_constant(name):
    raise ValueError(f"non-RFC 8259 constant {name}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=cli_cases())
# eps * eps underflows to 0 in both sample-count rules; these ended in a ZeroDivisionError traceback.
@example(case=("truncated", "sampler=cube\nn=8\neps=1e-300\nseeds=0\n", "csv"))
@example(case=("john-sparsify", "fixture=cross-polytope\nn=4\neps=1e-170\nseeds=0\n", "json"))
def test_cli_exits_cleanly_with_parseable_output(case):
    command, text, fmt = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "c.cfg", Path(tmp) / f"out.{fmt}"
        cfg.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), "--out", str(out), "--format", fmt])
        err = err.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err, err
        if code != 0:
            assert sum(line.startswith("error:") for line in err.splitlines()) == 1, err
            return
        body = out.read_text(encoding="utf-8")
        if fmt == "csv":
            header, *rows = csv.reader(io.StringIO(body, newline=""))
            assert rows and all(len(row) == len(header) for row in rows)
        else:
            rows = json.loads(body, parse_constant=_reject_constant)
            assert rows and all(isinstance(row, dict) for row in rows)
