import json
from dataclasses import replace

import numpy as np
import pytest

from nclab import (ScenarioError, fixture_path, load_scenario, scenario_from_dict,
                   validate_scenario)
from nclab.scenario import MAX_STACKED_DIM

from conftest import toy_scenario


def _doc(name: str) -> dict:
    """The parsed scenario document of a bundled fixture."""
    return json.loads(fixture_path(name).read_text())


def test_pendulum_fixture_shape(pendulum):
    assert pendulum.n == 4
    assert pendulum.m == 1
    assert pendulum.horizon == 80
    assert pendulum.weights.psi_steps[0][0, 0] == 2.0
    assert np.allclose(np.diag(pendulum.weights.omega_steps[0]), [5, 1, 1, 1])


def test_mixed_fixture_shape(mixed):
    assert mixed.n == 2
    assert mixed.m == 2
    assert mixed.horizon == 10


def test_valid_scenario_has_no_violations(pendulum, mixed):
    assert validate_scenario(pendulum) == []
    assert validate_scenario(mixed) == []


def test_zero_channel_mean_rejected(tmp_path):
    doc = _doc("pendulum")
    doc["channel"] = {"mu": [0.0]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ScenarioError, match=r"channel mean must lie in \(0,1\]"):
        load_scenario(p)


def test_mean_above_one_rejected():
    doc = _doc("pendulum")
    doc["channel"] = {"mu": [1.0001]}
    with pytest.raises(ScenarioError, match="channel mean"):
        scenario_from_dict(doc)


def test_validate_reports_every_violation(pendulum):
    doc = _doc("pendulum")
    doc["plant"]["sigma_w"][0][1] = 0.5  # asymmetric
    doc["channel"] = {"mu_schedule": [[0.5]] * 79}  # one step short
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)
    # bypass the raise to look at the full list
    from nclab.scenario import ChannelModel, PlantModel, Scenario
    bad = Scenario(
        plant=PlantModel(
            a=pendulum.plant.a, b=pendulum.plant.b,
            sigma_w=np.array(doc["plant"]["sigma_w"]),
            x0_mean=pendulum.plant.x0_mean),
        channel=ChannelModel(means=np.array(doc["channel"]["mu_schedule"])),
        weights=pendulum.weights, eval_state=pendulum.eval_state,
        sim=pendulum.sim)
    violations = validate_scenario(bad)
    assert "sigma_w asymmetric" in violations
    assert "channel schedule length ≠ N" in violations
    assert len(violations) >= 2


def test_not_positive_definite_message():
    doc = _doc("pendulum")
    doc["plant"]["sigma_w"] = (-1e-6 * np.eye(4)).tolist()
    with pytest.raises(ScenarioError, match="sigma_w not positive semidefinite"):
        scenario_from_dict(doc)


def test_dimension_mismatch_names_both_fields():
    doc = _doc("pendulum")
    doc["plant"]["b"] = [[0.1], [0.2]]
    with pytest.raises(ScenarioError, match="b has 2 rows but a is 4x4"):
        scenario_from_dict(doc)


def test_parse_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="is not valid JSON"):
        load_scenario(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ScenarioError, match="missing top-level section: 'plant'"):
        load_scenario(empty)


def test_a_stale_x0_cov_key_is_ignored_on_read(tmp_path, mixed):
    # a file that still carries the key loads to the same scenario, whatever it holds
    doc = _doc("mixed")
    assert "x0_cov" not in doc["plant"]
    doc["plant"]["x0_cov"] = [[-1.0, 5.0], [0.0, float("nan")]]
    p = tmp_path / "stale.json"
    p.write_text(json.dumps(doc))
    back = load_scenario(p)
    assert back is not mixed
    for field in ("plant", "channel", "weights"):
        for name, value in vars(getattr(mixed, field)).items():
            assert np.array_equal(getattr(getattr(back, field), name), value), name
    assert np.array_equal(back.eval_state, mixed.eval_state)
    assert back.sim == mixed.sim


def test_eval_state_defaults_to_x0_mean():
    doc = _doc("pendulum")
    del doc["eval_state"]
    scn = scenario_from_dict(doc)
    assert np.array_equal(scn.eval_state, scn.plant.x0_mean)


def test_single_omega_is_replicated():
    doc = _doc("mixed")
    doc["weights"] = {"q": doc["weights"]["q"], "omega": [[3.0, 0.0], [0.0, 1.0]],
                      "psi": [[1.0, 0.0], [0.0, 1.0]], "horizon": 10}
    scn = scenario_from_dict(doc)
    assert scn.weights.omega_steps.shape == (10, 2, 2)
    assert all(scn.weights.omega_steps[k][0, 0] == 3.0 for k in range(10))


def test_schedule_accepted_at_full_length():
    doc = _doc("mixed")
    doc["channel"] = {"mu_schedule": [[0.9, 0.5]] * 10}
    scn = scenario_from_dict(doc)
    assert scn.channel.is_scheduled


def test_nondiagonal_psi_rejected():
    doc = _doc("mixed")
    weights = doc["weights"]
    weights["psi_steps"] = [weights.pop("psi")] * weights["horizon"]
    weights["psi_steps"][3] = [[1.0, 0.2], [0.2, 1.0]]
    with pytest.raises(ScenarioError, match="psi step 3 must be diagonal"):
        scenario_from_dict(doc)


def test_negative_beta_rejected():
    doc = _doc("mixed")
    doc["channel"]["beta"] = [-0.1, 1.0]
    with pytest.raises(ScenarioError, match="beta must be nonnegative"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_beta_rejected_at_load(tmp_path, bad):
    doc = _doc("mixed")
    doc["channel"]["beta"] = [bad, 1.0]
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(doc))  # NaN, Infinity and -Infinity, which json reads back
    with pytest.raises(ScenarioError, match="channel.beta has non-finite entries"):
        load_scenario(path)


def test_toy_builder_bypasses_file_validation():
    scn = toy_scenario()
    # zero process noise, which files accept too
    assert scn.plant.sigma_w[0, 0] == 0.0


# ---------------------------------------------------------------------------
# batched weight checks against the per-matrix loop they replace


def _loop_matrix_checks(s):
    """The weight and covariance checks of ``validate_scenario`` as one
    symmetry test and one ``eigvalsh`` per matrix, stopping at the first
    failing step of each stack."""
    def symmetric(a):
        scale = max(float(np.max(np.abs(a))), 1.0)
        return bool(np.max(np.abs(a - a.T)) <= 1e-12 * scale)

    def spd(a):
        return symmetric(a) and bool(np.min(np.linalg.eigvalsh(0.5 * (a + a.T))) > 0.0)

    def psd(a):
        return bool(np.min(np.linalg.eigvalsh(0.5 * (a + a.T))) >= -1e-12 * np.max(np.abs(a)))

    v = []
    if not symmetric(s.plant.sigma_w):
        v.append("sigma_w asymmetric")
    elif not psd(s.plant.sigma_w):
        v.append("sigma_w not positive semidefinite")
    if not spd(s.weights.q):
        v.append("q not symmetric positive definite")
    for k, om in enumerate(s.weights.omega_steps):
        if not spd(om):
            v.append(f"omega step {k} not symmetric positive definite")
            break
    for k, ps in enumerate(s.weights.psi_steps):
        if not spd(ps):
            v.append(f"psi step {k} not symmetric positive definite")
            break
    for k, ps in enumerate(s.weights.psi_steps):
        off = ps - np.diag(np.diag(ps))
        if np.max(np.abs(off)) > 1e-12 * max(np.max(np.abs(ps)), 1.0):
            v.append(f"psi step {k} must be diagonal")
            break
    return v


def _corrupt(scn, field, edit, k=None):
    """A copy of ``scn`` with one weight or covariance matrix edited in place
    (step ``k`` of a per-step stack)."""
    section = "plant" if field == "sigma_w" else "weights"
    owner = getattr(scn, section)
    arr = getattr(owner, field).copy()
    edit(arr if k is None else arr[k])
    return replace(scn, **{section: replace(owner, **{field: arr})})


def _corrupt_once(scn, field, edit):
    """A copy of ``scn`` whose per-step stack ``field`` repeats one edited
    matrix with stride 0, as a weight given once for every step loads."""
    stack = getattr(scn.weights, field)
    one = stack[0].copy()
    edit(one)
    return replace(scn, weights=replace(scn.weights, **{field: np.broadcast_to(one, stack.shape)}))


def _asymmetric(a):
    a[0, -1] += 0.5


def _indefinite(a):
    a[0, 0] = -abs(a[0, 0]) - 1.0


def _off_diagonal(a):
    a[0, 1] = a[1, 0] = 0.2


def _tolerated_asymmetry(a):
    a[0, -1] += 1e-13


STEP_EDITS = [
    ("omega_steps", _asymmetric), ("omega_steps", _indefinite),
    ("omega_steps", _tolerated_asymmetry),
    ("psi_steps", _asymmetric), ("psi_steps", _indefinite),
    ("psi_steps", _off_diagonal), ("psi_steps", _tolerated_asymmetry),
]
WHOLE_EDITS = [(f, e) for f in ("sigma_w", "q")
               for e in (_asymmetric, _indefinite, _tolerated_asymmetry)]


def _cases(scn):
    N, m = scn.horizon, scn.m
    for field, edit in STEP_EDITS:
        if m == 1 and field == "psi_steps" and edit in (_asymmetric, _off_diagonal):
            continue  # a 1x1 psi is always symmetric and diagonal
        for k in sorted({0, N // 2, N - 1}):
            yield f"{field}[{k}] {edit.__name__}", _corrupt(scn, field, edit, k)
        yield f"{field} once {edit.__name__}", _corrupt_once(scn, field, edit)
    for field, edit in WHOLE_EDITS:
        yield f"{field} {edit.__name__}", _corrupt(scn, field, edit)
    # several failing steps: each stack reports its first
    both = _corrupt(_corrupt(scn, "omega_steps", _indefinite, N - 1),
                    "omega_steps", _asymmetric, N // 2)
    yield "omega_steps two steps", _corrupt(both, "psi_steps", _indefinite, N - 1)


@pytest.mark.parametrize("name", ["pendulum", "mixed"])
def test_batched_checks_match_the_per_matrix_loop(name, request):
    scn = request.getfixturevalue(name)
    for label, bad in _cases(scn):
        expected = _loop_matrix_checks(bad)
        assert validate_scenario(bad) == expected, label
        assert (expected == []) == ("tolerated" in label), label


def test_a_weight_given_once_is_one_read_only_block_checked_once(monkeypatch, mixed):
    # mixed gives omega and psi once: stride-0 stacks, each of which puts its
    # one matrix into the batched checks (one finiteness test over every
    # array, one symmetry and eigenvalue test over sigma_w, q, omega and psi,
    # one diagonal test over psi)
    from nclab import scenario
    for stack in (mixed.weights.omega_steps, mixed.weights.psi_steps):
        assert stack.shape[0] == mixed.horizon and stack.strides[0] == 0
        assert not stack.flags.writeable
    shapes = {"isfinite": [], "_symmetric": [], "_diagonal": [], "eigvalsh": []}
    for owner, name in ((np, "isfinite"), (scenario, "_symmetric"),
                        (scenario, "_diagonal"), (np.linalg, "eigvalsh")):
        check = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda a, check=check, name=name:
                            shapes[name].append(np.shape(a)) or check(a))
    assert validate_scenario(mixed) == []
    p, w, c = mixed.plant, mixed.weights, mixed.channel
    once = [p.a, p.b, p.sigma_w, p.x0_mean, w.q, w.omega_steps[0], w.psi_steps[0],
            mixed.eval_state, c.means] + ([] if c.beta is None else [c.beta])
    assert shapes == {"isfinite": [(sum(a.size for a in once),)], "_symmetric": [(4, 2, 2)],
                      "_diagonal": [(1, 2, 2)], "eigvalsh": [(4, 2, 2)]}


def test_operator_size_is_capped_at_load(pendulum):
    assert MAX_STACKED_DIM == 4096
    assert pendulum.horizon * pendulum.n <= MAX_STACKED_DIM
    doc = json.loads(fixture_path("mixed").read_text())  # n = m = 2
    doc["weights"]["horizon"] = MAX_STACKED_DIM // 2  # N·max(n, m) at the cap
    assert scenario_from_dict(doc).horizon == 2048
    for horizon in (MAX_STACKED_DIM // 2 + 1, 5000, 10 ** 6):
        doc["weights"]["horizon"] = horizon
        with pytest.raises(ScenarioError, match="operator-size cap of 4096"):
            scenario_from_dict(doc)


def test_validate_reports_the_operator_size_cap(mixed):
    N = MAX_STACKED_DIM // 2 + 1
    w = mixed.weights
    big = replace(mixed, weights=replace(
        w, horizon=N, omega_steps=np.repeat(w.omega_steps[:1], N, axis=0),
        psi_steps=np.repeat(w.psi_steps[:1], N, axis=0)))
    assert validate_scenario(big) == [
        f"horizon × max(n, m) is {N} × 2 = {2 * N}, above the operator-size cap of 4096"]


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["plant"].update(a=[[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]]) or doc,
     "a must be square"),
    (lambda doc: doc["weights"].update(omega_steps=[doc["weights"]["omega"]] * 10) or doc,
     "either omega or omega_steps, not both"),
    (lambda doc: [doc], "a scenario must be a JSON object"),
], ids=["non_square_a", "omega_and_omega_steps", "list_document"])
def test_malformed_documents_are_refused_by_name(edit, message):
    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(edit(_doc("mixed")))


def test_a_document_without_sim_loads_the_defaults():
    doc = _doc("mixed")
    del doc["sim"]
    sim = scenario_from_dict(doc).sim
    assert (sim.steps, sim.replicates, sim.seed) == (0, 10000, 0)


def test_load_keeps_what_it_built_and_nothing_it_refused(tmp_path):
    from nclab import scenario

    path = tmp_path / "copy.json"
    path.write_text(fixture_path("mixed").read_text())
    first = load_scenario(path)
    assert load_scenario(path) is first
    assert load_scenario(fixture_path("mixed")) is first  # the same text elsewhere
    doc = json.loads(path.read_text())
    doc["weights"]["horizon"] = 0
    path.write_text(json.dumps(doc))
    for _ in range(2):
        with pytest.raises(ScenarioError, match="horizon"):
            load_scenario(path)
    assert list(scenario._kept.values()) == [first]


def test_loads_from_many_threads_keep_at_most_two(tmp_path):
    # three files over four threads, with the interpreter switching threads
    # as often as it can: every load returns its own file's scenario, and
    # no eviction fails on an entry another thread has already removed
    import sys
    import threading

    from nclab import scenario

    paths = []
    for horizon in (4, 5, 6):
        doc = json.loads(fixture_path("mixed").read_text())
        doc["weights"]["horizon"] = doc["sim"]["steps"] = horizon
        paths.append(tmp_path / f"h{horizon}.json")
        paths[-1].write_text(json.dumps(doc))
    errors = []

    def loads(k):
        try:
            for i in range(60):
                j = (i + k) % 3
                assert load_scenario(paths[j]).horizon == 4 + j
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=loads, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(scenario._kept) <= 2
