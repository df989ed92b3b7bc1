"""Property tests of the input contract (hypothesis).

* Any JSON document either loads as a valid ``Scenario`` or raises
  ``ScenarioError``.
* ``run()`` ends in exit 0, 1 or 2 and lets no exception out, whatever the
  command line.

The ``ci`` profile in ``conftest.py`` makes the examples reproducible.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from nclab import Scenario, ScenarioError, fixture_path, load_scenario, validate_scenario
from nclab.cli import run

MIXED_DOC = json.loads(fixture_path("mixed").read_text())

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)
numbers = st.integers() | st.floats()
# what a fixture's place is replaced by: numbers, vectors and matrices of any
# shape as often as other JSON, so that edits also reach the checks past parsing
replacements = st.one_of(numbers, st.lists(numbers, max_size=3),
                         st.lists(st.lists(numbers, max_size=3), max_size=3), json_values)


def _paths(node, prefix=()):
    """Every key and list index of a parsed JSON document, outermost first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# the fixture's own places, plus the optional keys it does not use
PATHS = list(_paths(MIXED_DOC)) + [("channel", "mu_schedule"), ("weights", "omega_steps"),
                                   ("weights", "psi_steps"), ("extra",)]


def _holds(node, key) -> bool:
    if isinstance(key, str):
        return isinstance(node, dict) and key in node
    return isinstance(node, list) and key < len(node)


@st.composite
def edited_fixtures(draw):
    """The mixed fixture with one to three places deleted or replaced by
    arbitrary JSON."""
    doc = copy.deepcopy(MIXED_DOC)
    for _ in range(draw(st.integers(1, 3))):
        *parents, last = draw(st.sampled_from(PATHS))
        node = doc
        for key in parents:
            if not _holds(node, key):
                break
            node = node[key]
        else:
            if isinstance(node, dict) and isinstance(last, str) and draw(st.booleans()):
                node.pop(last, None)
            elif _holds(node, last) or (isinstance(node, dict) and isinstance(last, str)):
                node[last] = draw(replacements)
    return doc


@settings(max_examples=300)
@given(st.one_of(json_values, edited_fixtures()))
def test_any_json_document_loads_or_raises_scenario_error(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_text(json.dumps(doc))
    try:
        scn = load_scenario(path)
    except ScenarioError:
        return
    assert isinstance(scn, Scenario) and validate_scenario(scn) == []


# each flag's values: (valid, invalid)
TOKENS = {
    "--protocol": (["tcp", "udp"], ["ack", ""]),
    "--upsilon": (["0.5", "1"], ["0", "1.5", "nan", "-inf", "x"]),
    "--points": (["2", "3", "7"], ["0", "-3", "1001", "2.5"]),
    "--start": (["0.01", "0.5"], ["0", "1.5", "nan"]),
    "--stop": (["0.99", "0.3", "1"], ["-1", "inf"]),
    "--mode": (["open", "receding"], ["closed"]),
    "--steps": (["1", "25"], ["0", "-2", "1000001", "1000000000000000", "x"]),
    "--seed": (["0", "5", str(2 ** 70)], ["-5", "1.5"]),
    "--replicates": (["2", "50"], ["1", "0", "10000001", "1000000000000000"]),
    "--threads": (["1", "2"], ["0", "-1"]),
    "--alpha": (["119", "1e6", "0"], ["-1", "nan", "inf", "1e400"]),
    "--beta": (["0.05,1", "1,1"], ["1", "1,1,1", "a,b", "", "-1,1", "nan,1"]),
    "--resolution": (["0.1", "0.25", "0.5"], ["0", "-0.1", "0.6", "nan", "0.0009"]),
}
# each command's required flags, then its optional ones
QUERY = (["--protocol"], ["--upsilon"])
FLAGS = {"synthesize": QUERY, "cost": QUERY, "eigs": QUERY, "gap": ([], ["--upsilon"]),
         "sweep": ([], ["--points", "--start", "--stop", "--scalar"]),
         "maxdiff": ([], ["--scalar"]),
         "simulate": (["--protocol"], ["--upsilon", "--mode", "--steps", "--seed"]),
         "montecarlo": (["--protocol"], ["--upsilon", "--replicates", "--seed", "--threads"]),
         "allocate": (["--protocol", "--alpha"], ["--beta", "--resolution", "--frontier-out"]),
         "frobnicate": ([], [])}


@st.composite
def command_lines(draw, scenarios, out_dir):
    """A command with its required flags (mostly), some of its optional ones
    and now and then a foreign one, each mostly with a valid value."""
    argv = [draw(st.sampled_from(sorted(FLAGS)))]
    if draw(st.integers(0, 9)):
        argv += ["--scenario", draw(st.sampled_from(scenarios))]
    required, optional = FLAGS[argv[0]]
    flags = ([f for f in required if draw(st.integers(0, 9))]
             + [f for f in optional if draw(st.booleans())])
    if not draw(st.integers(0, 4)):
        flags.append(draw(st.sampled_from(sorted(TOKENS) + ["--scalar", "--frontier-out"])))
    for flag in flags:
        if flag == "--scalar":
            argv.append(flag)
        elif flag == "--frontier-out":
            argv += [flag, str(out_dir / "frontier.csv")]
        else:
            valid, invalid = TOKENS[flag]
            argv += [flag, draw(st.sampled_from(valid if draw(st.integers(0, 3)) else invalid))]
    if argv[0] == "montecarlo" and "--replicates" not in argv:
        argv += ["--replicates", "20"]  # the fixtures ask for 10^5
    if argv[0] in ("sweep", "simulate"):
        argv += ["--out", str(out_dir / "out.csv")]
    return argv


@settings(max_examples=300)
@given(data=st.data())
def test_run_ends_in_an_exit_code(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    edited = base / "edited.json"
    edited.write_text(json.dumps(data.draw(edited_fixtures())))
    (base / "broken.json").write_text("{")
    scenarios = [str(fixture_path("mixed")), str(fixture_path("pendulum")), str(edited),
                 str(base / "broken.json"), str(base / "missing.json")]
    argv = data.draw(command_lines(scenarios, base))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    assert rc in (0, 1, 2), (argv, rc)
    if rc:
        assert err.getvalue(), argv
