"""The config records check their fields against ``config_schema.json``."""

import copy
import functools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhmlab import GrammarParams, NoiseSpec, SweepConfig
from test_cli import WRONG_TYPES, _get, _paths, _schema_at


# One valid field set per record form; every field the schema checks is given.
VALID_RECORDS = [
    (GrammarParams, "grammar",
     dict(depth=2, branching=2, vocab_size=8, n_synonyms=2, seed=1)),
    (SweepConfig, "sweep",
     dict(depth=3, branching=2, vocab_size=8, m_list=[2, 3], trials=2,
          variant="full_tuple", cluster_threshold=0.9, accuracy_threshold=0.5,
          p_grid={2: [64, 128]}, grid_span=4.0, n_eval=32, seed=1)),
    (NoiseSpec, "noise", dict(kind="uniform", beta_bar=0.25)),
    (NoiseSpec, "noise", dict(kind="masking", beta_bar=1)),
]


def _spelled(fields, path) -> str:
    """The key path as a record's message spells it: ``p_grid.2[0]``."""
    out, value = path[0], fields[path[0]]
    for key in path[1:]:
        out += f"[{key}]" if isinstance(value, list) else f".{key}"
        value = value[key]
    return out


@st.composite
def mutated_records(draw):
    """One mutation of a valid record's fields: wrong type, out of range, or
    NaN/inf in a number."""
    cls, section, fields = draw(st.sampled_from(VALID_RECORDS))
    fields = copy.deepcopy(fields)
    paths = [p for p in _paths(fields) if p]

    def schema_at(path):
        return _schema_at({section: fields}, (section, *path))

    ranged = [p for p in paths if type(_get(fields, p)) in (int, float)
              and {"minimum", "maximum", "exclusiveMinimum"} & set(schema_at(p))]
    floats = [p for p in paths if type(_get(fields, p)) is float]
    kind = draw(st.sampled_from(["wrong type", "out of range"] + ["non-finite"] * bool(floats)))
    if kind == "wrong type":
        path = draw(st.sampled_from(paths))
        wrong = WRONG_TYPES[type(_get(fields, path))]
        if len(path) == 1 and cls.__dataclass_fields__[path[0]].default is None:
            wrong = [w for w in wrong if w is not None]  # None means "not given"
        value = draw(st.sampled_from(wrong))
    elif kind == "out of range":
        path = draw(st.sampled_from(ranged))
        schema = schema_at(path)
        numbers = st.integers if schema["type"] == "integer" else functools.partial(
            st.floats, allow_nan=False, allow_infinity=False)
        bounds = []
        if "minimum" in schema:
            bounds.append(numbers(max_value=schema["minimum"] - 1)
                          if schema["type"] == "integer" else
                          numbers(max_value=schema["minimum"], exclude_max=True))
        if "exclusiveMinimum" in schema:
            bounds.append(numbers(max_value=schema["exclusiveMinimum"]))
        if "maximum" in schema:
            bounds.append(numbers(min_value=schema["maximum"] + 1)
                          if schema["type"] == "integer" else
                          numbers(min_value=schema["maximum"], exclude_min=True))
        value = draw(st.one_of(bounds))
    else:
        path = draw(st.sampled_from(floats))
        value = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
    name = _spelled(fields, path)
    _get(fields, path[:-1])[path[-1]] = value
    return cls, fields, name


class TestRecordsCheckTheSchema:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=mutated_records())
    def test_every_mutated_field_is_refused_by_name(self, case):
        cls, fields, name = case
        with pytest.raises(ValueError) as exc:
            cls(**fields)
        assert f"{cls.__name__} field '{name}'" in str(exc.value), (fields, str(exc.value))

    @pytest.mark.parametrize("cls, section, fields", VALID_RECORDS)
    def test_valid_records_build(self, cls, section, fields):
        cls(**fields)

    @pytest.mark.parametrize("change, message", [
        # each of these used to be accepted, or to raise TypeError
        ({"depth": 1}, "^SweepConfig field 'depth' is 1, below its minimum 2$"),
        ({"variant": "bogus"}, "^SweepConfig field 'variant' is \"bogus\"; it must be one of"),
        ({"variant": None}, "^SweepConfig field 'variant' is null; it must be one of"),
        ({"trials": "3"}, "^SweepConfig field 'trials' must be of type integer, not \"3\"$"),
        ({"m_list": 2}, "^SweepConfig field 'm_list' must be of type array, not 2$"),
        ({"m_list": ("2",)},
         r"^SweepConfig field 'm_list\[0\]' must be of type integer, not \"2\"$"),
        ({"p_grid": {2: 64}}, r"^SweepConfig field 'p_grid\.2' must be of type array, not 64$"),
        ({"cluster_threshold": "0.9"},
         "^SweepConfig field 'cluster_threshold' must be of type number, not \"0.9\"$"),
        ({"grid_span": "8"}, "^SweepConfig field 'grid_span' must be of type number, not \"8\"$"),
        ({"grid_span": float("inf")}, "^SweepConfig field 'grid_span' is inf; it must be finite$"),
        ({"cluster_threshold": float("nan")},
         "^SweepConfig field 'cluster_threshold' is nan; it must be finite$"),
    ])
    def test_sweep_config_drift_cases_are_refused_by_name(self, change, message):
        kwargs = dict(depth=2, vocab_size=8, m_list=(2,))
        with pytest.raises(ValueError, match=message):
            SweepConfig(**{**kwargs, **change})

    def test_records_name_themselves_and_show_non_json_values_by_repr(self):
        with pytest.raises(ValueError,
                           match="^GrammarParams field 'depth' is 0, below its minimum 1$"):
            GrammarParams(depth=0, branching=2, vocab_size=2, n_synonyms=1)
        with pytest.raises(ValueError, match=re.escape(
                "NoiseSpec field 'beta_bar' must be of type number, not (1+0j)")):
            NoiseSpec(kind="uniform", beta_bar=1 + 0j)
        with pytest.raises(ValueError, match=re.escape(
                "NoiseSpec field 'kind' is <object>; it must be one of")):
            NoiseSpec(kind=type("Obj", (), {"__repr__": lambda self: "<object>"})(),
                      beta_bar=0.5)
        with pytest.raises(ValueError, match="^NoiseSpec field 'beta_bar' is required$"):
            NoiseSpec(kind="uniform")

    def test_numpy_and_fraction_values_are_stored_as_given(self):
        grids = {np.int64(2): np.array([64, 128]), 3: {256}}
        cfg = SweepConfig(depth=np.int64(2), vocab_size=np.uint8(8), m_list={2, 3},
                          trials=np.int32(1), cluster_threshold=np.float32(0.5),
                          accuracy_threshold=Fraction(1, 2), p_grid=grids,
                          grid_span=np.float64(4), n_eval=np.uint16(8), seed=np.uint64(2**63))
        assert cfg.p_grid is grids and cfg.m_list == {2, 3}
        assert type(cfg.cluster_threshold) is np.float32
        assert type(cfg.accuracy_threshold) is Fraction
        assert cfg.grid_for(2) == [64, 128] and cfg.grid_for(3) == [256]
        for level, want in ((Fraction(1, 4), 0.25), (np.float16(0.5), 0.5)):
            spec = NoiseSpec(kind="masking", beta_bar=level)
            assert type(spec.beta_bar) is float and spec.beta_bar == want

    def test_ndarray_m_list_is_accepted(self):
        # an ndarray m_list used to fail on its truth value
        cfg = SweepConfig(depth=2, vocab_size=8, m_list=np.array([2, 3]))
        assert cfg.m_list.tolist() == [2, 3]
