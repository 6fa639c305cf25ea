"""The engine's validated records: every way of building one runs its checks."""
import copy
import pickle
import re
import sys

import pytest

from mdiqds import IntensityConfig, RateResult, SecurityBudget, SystemParams

# (valid record, field, bad value, the ValueError message it raises)
BAD_FIELDS = [
    (SystemParams(), "e_d", 0.7, "e_d must be in [0, 0.5], got 0.7"),
    (SystemParams(), "n_pulses", float("nan"), "n_pulses must be finite, got nan"),
    (SystemParams(), "r_test", 1.0, "r_test must be in (0, 1), got 1.0"),
    (SystemParams(), "eta_d", 1.5, "eta_d must be in [0, 1], got 1.5"),
    (SystemParams(), "p_dc", 1.0, "p_dc must be in [0, 1), got 1.0"),
    (SystemParams(), "distance_km", -1.0, "distance_km must be >= 0, got -1.0"),
    (SystemParams(), "n_pulses", 0.5, "n_pulses must be >= 1, got 0.5"),
    (SystemParams(), "alpha", -0.1, "alpha must be >= 0, got -0.1"),
    (IntensityConfig.symmetric(0.4, 0.05, 1 / 3, 1 / 3, 0.5), "p_z", 1.0,
     "p_z must be in (0, 1), got 1.0"),
    (IntensityConfig.symmetric(0.4, 0.05, 1 / 3, 1 / 3, 0.5), "a_d1", 0.5,
     "intensities must satisfy a_s > a_d1 > a_d2 >= 0, got (0.4, 0.5, 0.0005)"),
    (IntensityConfig.symmetric(0.4, 0.05, 0.25, 0.25, 0.5), "p_ad2", 0.25,
     "selection probabilities must sum to 1, got 0.75"),
    (SecurityBudget(), "eps_sf", 0.0, "eps_sf must be in (0, 1), got 0.0"),
]


def case_id(index) -> str:
    """type.field, and the bad value too for a field that an earlier case covers."""
    record, field, value, _ = BAD_FIELDS[index]
    name = f"{type(record).__name__}.{field}"
    earlier = {f"{type(r).__name__}.{f}" for r, f, *_ in BAD_FIELDS[:index]}
    return f"{name}={value}" if name in earlier else name


def with_field(record, field, value) -> list:
    values = list(record)
    values[record._fields.index(field)] = value
    return values


def unchecked(record, field, value):
    """A record holding the bad value, built past its checks."""
    return tuple.__new__(type(record), with_field(record, field, value))


def positional(record, field, value):
    return type(record)(*with_field(record, field, value))


def keyword(record, field, value):
    return type(record)(**{**record._asdict(), field: value})


def make(record, field, value):
    return type(record)._make(with_field(record, field, value))


def replace(record, field, value):
    return record._replace(**{field: value})


def copy_replace(record, field, value):
    if sys.version_info < (3, 13):
        pytest.skip("copy.replace is new in Python 3.13")
    return copy.replace(record, **{field: value})


def deep_copy(record, field, value):
    return copy.deepcopy(unchecked(record, field, value))


# without the records' __reduce__, protocols 0 and 1 would rebuild a tuple
# subclass with tuple.__new__, past its __new__
PICKLES = [
    pytest.param(lambda record, field, value, protocol=protocol: pickle.loads(
        pickle.dumps(unchecked(record, field, value), protocol)), id=f"pickle{protocol}")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
]


@pytest.mark.parametrize("build", [positional, keyword, make, replace, copy_replace,
                                   deep_copy, *PICKLES])
@pytest.mark.parametrize("record,field,value,message", BAD_FIELDS,
                         ids=[case_id(i) for i in range(len(BAD_FIELDS))])
def test_every_construction_path_checks(build, record, field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(record, field, value)


RECORDS = [SystemParams(distance_km=50.0), IntensityConfig.symmetric(0.4, 0.05, 0.5, 0.3, 0.6),
           SecurityBudget(epsilon=1e-8),
           RateResult("sob", 50.0, 1e12, False, reason="no feasible block size")]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_tuples(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1.0
    assert record == tuple(record) and hash(record) == hash(tuple(record))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(record, protocol))
        assert type(again) is type(record) and again == record
    assert type(record._replace()) is type(record) and record._replace() == record




def test_checked_records_share_their_construction_hooks():
    """One definition of each hook serves the three checked records."""
    checked = (SystemParams, IntensityConfig, SecurityBudget)
    assert len({record._make.__func__ for record in checked}) == 1
    assert len({record.__reduce__ for record in checked}) == 1
