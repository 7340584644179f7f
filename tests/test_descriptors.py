"""The descriptor registry: every registered kind reads, writes and refuses alike.

The tests are parametrized over the registry itself, so a newly registered
class fails ``test_every_kind_has_a_sample`` until it gets a sample here.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from concavekit.fields import ScalarField, SpaceTimeField, field_from_json
from concavekit.geometry import _KINDS, _REQUIRED, ConvexBody, SpaceTimeBox, body_from_json
from concavekit.geometry import float_array, from_json, integer, number
from concavekit.sampling import make_rng

INTERVAL = {"kind": "interval", "a": -1, "b": 2}
BOX = {"kind": "box", "lo": [0, 0], "hi": [2, 2]}
GW = {"kind": "gauss_weierstrass", "n": 1}
INDICATOR = {"kind": "indicator", "body": {"kind": "interval", "a": -1, "b": 1}}

# one descriptor per registered kind, every optional key given a value
# other than its default
SAMPLES = {
    "interval": INTERVAL,
    "box": BOX,
    "ball": {"kind": "ball", "center": [0.5, -0.5], "radius": 1.25},
    "polytope": {"kind": "polytope", "vertices": [[0, 0], [2, 0], [1, 2]]},
    "spacetime_box": {"kind": "spacetime_box", "body": INTERVAL, "t_lo": 0.5, "t_hi": 4},
    "indicator": {"kind": "indicator", "body": INTERVAL, "height": 2},
    "tent": {"kind": "tent", "body": BOX, "height": 2, "center": [0.5, 0.5]},
    "constant": {"kind": "constant", "value": 2.0, "n": 2},
    "gaussian": {"kind": "gaussian", "n": 2, "t": 0.5},
    "poisson_slice": {"kind": "poisson_slice", "n": 2, "t": 1.0},
    "radial": {"kind": "radial", "profile": {"kind": "exp_decay", "rate": 2.0}, "n": 2},
    "product": {"kind": "product", "factors": [{"kind": "gaussian", "t": 1.0}, INDICATOR]},
    "custom_grid": {"kind": "custom_grid", "values": [0, 1, 0], "lo": [-1], "hi": [1]},
    "slice": {"kind": "slice", "field": {"kind": "poisson_kernel", "n": 2}, "t": 0.7},
    "gauss_weierstrass": {"kind": "gauss_weierstrass", "n": 2},
    "poisson_kernel": {"kind": "poisson_kernel", "n": 2},
    "kappa_exp": {"kind": "kappa_exp", "a": -0.5, "b": 2, "c": 1, "n": 2},
    "kappa_power": {"kind": "kappa_power", "a": 1, "b": 2, "c": -2, "n": 2},
    "lifted": {"kind": "lifted", "field": {"kind": "tent", "body": INTERVAL}, "p": 1, "alpha": 1.0},
    "conjugate0": {"kind": "conjugate0", "field": GW},
    "shifted_product": {"kind": "shifted_product", "field": {"kind": "poisson_kernel", "n": 1}},
    "oracle_w": {"kind": "oracle_w", "a": 1, "b": 4},
    "oracle_p": {"kind": "oracle_p", "a": 1, "b": 4},
    "convolution": {"kind": "convolution", "kernel": "poisson", "psi": INDICATOR},
    "bbl_instance": {
        "kind": "bbl_instance",
        "f0": INDICATOR,
        "f1": {"kind": "tent", "body": INTERVAL},
        "ell": 0.5,
        "lambda": 0.3,
        "grid_points": 64,
    },
    "problem": {
        "kind": "problem",
        "objective": {"kind": "oracle_p", "a": 1, "b": 4},
        "feasible": {"kind": "spacetime_box", "body": INTERVAL, "t_lo": 0.5, "t_hi": 4},
        "tolerance": 1e-6,
        "multistart": 4,
        "seed": 3,
    },
}

# kinds whose objects hold something without a descriptor: a profile
# function, a quadrature plan
READ_ONLY = {"radial", "convolution"}

# what a left-out optional key loaded as before the registry; a callable
# gets the descriptor
DEFAULTS = {
    "n": 1,
    "height": 1,
    "kernel": "gw",
    "center": lambda d: body_from_json(d["body"]).interior_point().tolist(),
    "grid_points": 512,
    "tolerance": 1e-8,
    "multistart": 10,
    "seed": 0,
}


def _keys(required: bool):
    return [
        (kind, key)
        for kind, cls in sorted(_KINDS.items())
        for key, spec in cls.keys.items()
        if (spec.default is _REQUIRED) == required
    ]


def _values(obj) -> tuple:
    """The object's values on a fixed point batch; its descriptor if it is
    neither a body, a space-time box nor a field."""
    if not isinstance(obj, (ConvexBody, SpaceTimeBox, ScalarField, SpaceTimeField)):
        return (json.dumps(obj.to_json(), sort_keys=True),)
    rng = make_rng(7)
    X = rng.uniform(-1.5, 2.5, size=(8, obj.dim))
    if isinstance(obj, ConvexBody):
        return obj.contains_many(X), obj.gauge(X, obj.interior_point())
    t_lo = max(getattr(obj, "t_lo", 0.0), 0.0)
    T = rng.uniform(t_lo + 0.6, t_lo + 3.0, size=8)
    if isinstance(obj, SpaceTimeBox):
        return (obj.contains_many(X, T),)
    if isinstance(obj, ScalarField):
        return obj.eval_with_error(X)
    return obj.eval_with_error(X, T)


def _assert_same(a, b):
    assert type(a) is type(b)
    for u, v in zip(_values(a), _values(b), strict=True):
        assert np.array_equal(u, v)


def test_every_kind_has_a_sample():
    assert sorted(SAMPLES) == sorted(_KINDS)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_round_trip(kind):
    obj = from_json(SAMPLES[kind], _KINDS[kind])
    if kind in READ_ONLY:
        with pytest.raises(ValueError):
            obj.to_json()
        return
    data = json.loads(json.dumps(obj.to_json(), allow_nan=False))
    assert data["kind"] == kind
    back = from_json(data, _KINDS[kind])
    _assert_same(back, obj)
    assert back.to_json() == obj.to_json()


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_unknown_key_is_refused(kind):
    with pytest.raises(ValueError, match="unknown key"):
        from_json({**SAMPLES[kind], "extra": 1}, _KINDS[kind])


@pytest.mark.parametrize("kind, key", _keys(required=False))
def test_left_out_key_loads_its_default(kind, key):
    left_out = {k: v for k, v in SAMPLES[kind].items() if k != key}
    default = DEFAULTS[key](left_out) if callable(DEFAULTS[key]) else DEFAULTS[key]
    explicit = {**left_out, key: default}
    _assert_same(from_json(left_out, _KINDS[kind]), from_json(explicit, _KINDS[kind]))


@pytest.mark.parametrize(
    "kind", sorted(k for k, cls in _KINDS.items() if dataclasses.is_dataclass(cls))
)
def test_key_defaults_are_the_constructor_defaults(kind):
    cls = _KINDS[kind]
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    for key, spec in cls.keys.items():
        if spec.default is not _REQUIRED:
            assert defaults[spec.attr or key] == spec.default


@pytest.mark.parametrize("kind, key", _keys(required=True))
def test_missing_required_key_is_refused(kind, key):
    with pytest.raises(ValueError, match=repr(key)):
        from_json({k: v for k, v in SAMPLES[kind].items() if k != key}, _KINDS[kind])


def _nested(kind, key):
    decode = _KINDS[kind].keys[key].decode
    return decode[0] if isinstance(decode, list) else decode


@pytest.mark.parametrize(
    "kind, key, wrong",
    [
        (kind, key, wrong)
        for kind, cls in sorted(_KINDS.items())
        for key in cls.keys
        if isinstance(_nested(kind, key), type)
        and issubclass(_nested(kind, key), (ConvexBody, ScalarField, SpaceTimeField))
        # a body, a space-time field and a scalar field, wherever another is expected
        for wrong in ("interval", "gauss_weierstrass", "gaussian")
        if not issubclass(_KINDS[wrong], _nested(kind, key))
    ],
)
def test_nested_descriptor_of_another_type_is_refused(kind, key, wrong):
    value = SAMPLES[wrong]
    if isinstance(_KINDS[kind].keys[key].decode, list):
        value = [value]
    with pytest.raises(ValueError, match="is not a"):
        from_json({**SAMPLES[kind], key: value}, _KINDS[kind])


def _with_first_number(value, new):
    """``value`` (a number or nested list) with its first number replaced by ``new``."""
    if isinstance(value, list):
        return [_with_first_number(value[0], new), *value[1:]]
    return new


@pytest.mark.parametrize(
    "kind, key, wrong",
    [
        (kind, key, wrong)
        for kind, cls in sorted(_KINDS.items())
        for key, spec in cls.keys.items()
        if spec.decode in (number, integer, float_array)
        for wrong in ("1", True, None, math.inf, -math.inf, math.nan)
    ]
    + [("constant", "n", 1.5), ("gauss_weierstrass", "n", 2.7)],
    ids=str,
)
def test_non_number_is_refused(kind, key, wrong):
    value = _with_first_number(SAMPLES[kind].get(key, 1), wrong)
    with pytest.raises(ValueError, match=f"{kind}.{key}"):
        from_json({**SAMPLES[kind], key: value}, _KINDS[kind])


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_typed_lookups_refuse_the_other_family(kind):
    cls = _KINDS[kind]
    wrong = body_from_json if issubclass(cls, (ScalarField, SpaceTimeField)) else field_from_json
    with pytest.raises(ValueError, match="is not a"):
        wrong(SAMPLES[kind])


@pytest.mark.parametrize("data", [[1, 2], "interval", 3.0, None])
def test_non_object_is_refused(data):
    for load in (field_from_json, body_from_json):
        with pytest.raises(ValueError, match="JSON object"):
            load(data)
    with pytest.raises(ValueError, match="JSON object"):
        field_from_json({"kind": "indicator", "body": data})


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "torus"},
        {"kind": ["interval"]},
        {"a": 0, "b": 1},
        {"kind": "interval", "a": [0], "b": 1},
        {"kind": "ball", "center": {"x": 0}, "radius": 1},
        {"kind": "radial", "profile": {"kind": "exp_decay", "rat": 2.0}},
        {"kind": "radial", "profile": {"kind": "gaussian"}},
        {"kind": "radial", "profile": {"kind": "exp_decay", "rate": "2"}},
        {"kind": "convolution", "kernel": "heat", "psi": INDICATOR},
        {"kind": "convolution", "psi": {"kind": "gaussian", "t": 1.0}},
        {"kind": "product", "factors": 3},
    ],
)
def test_malformed_descriptor_is_refused(data):
    with pytest.raises(ValueError):
        from_json(data, (ConvexBody, ScalarField, SpaceTimeField))


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "box", "lo": [], "hi": []}, "box bounds must have at least one coordinate"),
        ({"kind": "ball", "center": [], "radius": 1}, "ball center must be a 1-d array"),
        ({"kind": "ball", "center": [[0, 0]], "radius": 1}, "ball center must be a 1-d array"),
    ],
    ids=["box", "ball", "nested_ball_center"],
)
def test_body_without_a_flat_list_of_coordinates_is_refused(data, message):
    with pytest.raises(ValueError, match=message):
        from_json(data, ConvexBody)


def test_spacetime_box_kind_is_optional():
    bare = {k: v for k, v in SAMPLES["spacetime_box"].items() if k != "kind"}
    _assert_same(from_json(bare, SpaceTimeBox), from_json(SAMPLES["spacetime_box"], SpaceTimeBox))
    with pytest.raises(ValueError):
        from_json({**bare, "kind": "box"}, SpaceTimeBox)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "kind", sorted(k for k, cls in _KINDS.items() if issubclass(cls, SpaceTimeField))
)
def test_non_finite_time_is_refused(kind, t):
    phi = from_json(SAMPLES[kind], SpaceTimeField)
    x = np.zeros(phi.dim)
    for call in (phi, phi.eval_with_error):
        with pytest.raises(ValueError, match="time outside"):
            call(x, t)
        with pytest.raises(ValueError, match="time outside"):
            call(np.zeros((3, phi.dim)), [phi.t_lo + 1.0, t, phi.t_lo + 2.0])


SPACETIME_KINDS = sorted(k for k, cls in _KINDS.items() if issubclass(cls, SpaceTimeField))

# every space-time sample, plus convolutions whose quadrature masks a ball
# (the boundary term) and spans a 3-d box
BATCH_SAMPLES = {
    **{kind: SAMPLES[kind] for kind in SPACETIME_KINDS},
    "convolution_ball": {
        "kind": "convolution",
        "psi": {"kind": "indicator", "body": SAMPLES["ball"]},
    },
    "convolution_box_3d": {
        "kind": "convolution",
        "kernel": "poisson",
        "psi": {"kind": "indicator", "body": {"kind": "box", "lo": [-1, 0, -1], "hi": [1, 2, 0.5]}},
    },
}


class TestSpaceTimeBatch:
    """A batch call gives each point's own value, bit for bit, and writes no time."""

    @staticmethod
    def _batch(kind):
        phi = from_json(BATCH_SAMPLES[kind], SpaceTimeField)
        m = 6
        rng = make_rng(11)
        X = rng.uniform(-1.5, 2.5, size=(m, phi.dim))
        T = phi.t_lo + rng.uniform(0.3, 2.5, size=m)
        T.flags.writeable = False  # a write into the caller's times raises
        return phi, X, T

    @pytest.mark.parametrize("kind", sorted(BATCH_SAMPLES))
    def test_batch_matches_points(self, kind):
        phi, X, T = self._batch(kind)
        m = len(T)
        before = T.copy()
        values, errors = phi.eval_with_error(X, T)
        assert values.shape == errors.shape == (m,)
        assert np.array_equal(phi(X, T), values)
        for i in range(m):
            v, e = phi.eval_with_error(X[i], T[i])
            assert type(v) is float and type(e) is float
            assert v == values[i] and e == errors[i]
            assert phi(X[i], T[i]) == v
        assert np.array_equal(T, before)

    @pytest.mark.parametrize("kind", sorted(BATCH_SAMPLES))
    def test_one_time_for_the_batch(self, kind):
        phi, X, T = self._batch(kind)
        t = float(T[0])
        values, errors = phi.eval_with_error(X, t)
        one = np.array([t])
        one.flags.writeable = False
        for got in (phi.eval_with_error(X, one), phi.eval_with_error(X, np.full(6, t))):
            assert np.array_equal(got[0], values) and np.array_equal(got[1], errors)
        assert np.array_equal(phi(X, t), values)
        assert np.array_equal(phi(X, one), values)
        assert [phi(x, t) for x in X] == values.tolist()

    @pytest.mark.parametrize("kind", sorted(BATCH_SAMPLES))
    def test_bad_time_in_a_batch_is_refused(self, kind):
        phi, X, T = self._batch(kind)
        m = len(T)
        bad = [math.nan, math.inf, -math.inf, phi.t_lo, phi.t_lo - 0.5]
        if math.isfinite(phi.t_hi):
            bad += [phi.t_hi, phi.t_hi + 1.0]
        for t in bad:
            T_bad = T.copy()
            T_bad[m // 2] = t
            for call in (phi, phi.eval_with_error):
                with pytest.raises(ValueError, match="time outside"):
                    call(X, T_bad)
                with pytest.raises(ValueError, match="time outside"):
                    call(X, t)
                with pytest.raises(ValueError, match="time outside"):
                    call(X, np.array([t]))
