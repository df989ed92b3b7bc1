"""The JSON commands' writer against ``json.dumps(indent=2)`` of the document
rounded to 9 significant digits, byte for byte."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nclab import cli, fixture_path

SMALLEST_NORMAL = np.finfo(float).tiny
LARGEST = np.finfo(float).max


def rounded(x):
    """The field ``x`` with every float rounded to 9 significant digits and
    every complex number of an array as ``{"re", "im"}``."""
    if isinstance(x, float):
        return float(f"{x:.9g}")
    if isinstance(x, complex):
        return {"re": float(f"{x.real:.9g}"), "im": float(f"{x.imag:.9g}")}
    if isinstance(x, np.ndarray):
        return rounded(x.tolist())
    if isinstance(x, list):
        return [rounded(v) for v in x]
    return x


def reference(doc: dict) -> str:
    """The text a JSON command prints for the flat document ``doc``; raises
    ``ValueError`` naming the first field that is not finite."""
    doc = {name: rounded(value) for name, value in doc.items()}
    for name, value in doc.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise ValueError(f"the result {name} is not finite; nothing was printed") from None
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def written(doc: dict, path) -> str:
    """What ``_emit`` prints for ``doc``, after checking that it writes the
    same bytes to the file ``path``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(doc, None)
    cli._emit(doc, str(path))
    assert path.read_text() == out.getvalue()
    return out.getvalue()


ALLOCATE = {"pendulum": ["--alpha", "1e9", "--resolution", "0.1"],
            "mixed": ["--alpha", "119", "--beta", "0.05,1", "--resolution", "0.1"]}


def _commands(fixture):
    for protocol in ("tcp", "udp"):
        for command in (["synthesize"], ["cost"], ["eigs"], ["montecarlo", "--replicates", "50"],
                        ["allocate", *ALLOCATE[fixture]]):
            yield [*command, "--protocol", protocol]
    yield ["gap"]
    yield ["maxdiff", "--scalar"] if fixture == "mixed" else ["maxdiff"]


@pytest.mark.parametrize("fixture, argv",
                         [(f, a) for f in ("pendulum", "mixed") for a in _commands(f)],
                         ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_every_json_command_prints_the_reference_bytes(tmp_path, capsys, monkeypatch,
                                                       fixture, argv):
    docs = []
    emit = cli._emit

    def recording(doc, out):
        docs.append(doc)
        emit(doc, out)

    monkeypatch.setattr(cli, "_emit", recording)
    argv = [*argv, "--scenario", str(fixture_path(fixture))]
    out = tmp_path / "out.json"
    assert cli.run(argv) == 0
    assert cli.run([*argv, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout == reference(docs[0]) == out.read_text()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, SMALLEST_NORMAL, -SMALLEST_NORMAL,
                  LARGEST, -LARGEST, 1.79e308, -1.7976931348e308, 123456789.0, 1e9, 1e15,
                  1e16, 1.5e12, -2.0 ** 53, 99999999.95, 0.0001, 1e-5, 1.0, -3.0,
                  float("nan"), float("inf"), -float("inf")]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS),
                   st.integers(-10 ** 17, 10 ** 17).map(float),
                   st.floats(-SMALLEST_NORMAL, SMALLEST_NORMAL))
finite = floats.filter(np.isfinite)
shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
arrays = st.one_of(hnp.arrays(np.float64, shapes, elements=floats),
                   hnp.arrays(np.float64, st.tuples(st.just(1), st.integers(1, 4)),
                              elements=finite),
                   hnp.arrays(np.complex128, shapes,
                              elements=st.builds(complex, floats, floats | st.just(0.0))))
# the kinds of field a command's document holds: the writer nests nothing
scalars = st.one_of(floats, st.integers(), st.booleans(), st.none(), st.text(max_size=4),
                    floats.map(np.float64))
docs = st.dictionaries(st.text(max_size=6), st.one_of(scalars, arrays), max_size=5)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("writer") / "doc.json"


@settings(max_examples=400)
@given(doc=docs)
def test_writer_prints_the_reference_bytes(doc_path, doc):
    doc_path.unlink(missing_ok=True)
    try:
        expected = reference(doc)
    except ValueError as exc:
        out = io.StringIO()
        for path in (doc_path, None):
            with pytest.raises(ValueError) as refused, contextlib.redirect_stdout(out):
                cli._emit(doc, path and str(path))
            assert str(refused.value) == str(exc)
        assert out.getvalue() == "" and not doc_path.exists()
        return
    assert written(doc, doc_path) == expected


@pytest.mark.parametrize("value", SPECIAL_FLOATS[:-3])
def test_each_special_float_prints_its_repr(tmp_path, value):
    doc = {"scalar": value, "array": np.array([value, value]),
           "rows": np.array([[value], [1.5]]), "complex": np.array([complex(value, 0.0)])}
    assert written(doc, tmp_path / "doc.json") == reference(doc)
