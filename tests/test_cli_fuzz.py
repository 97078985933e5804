"""Property test of the command line: eval and decompose, and groups,
build and verify on a relation spec, on well-formed input with one node
broken or removed, end in a documented exit code with one stderr line on
failure, never a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from iqtheta.cli import main

_BIG = 10**400  # no float holds it

_scalar_junk = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-_BIG, _BIG),
)
_junk = st.one_of(_scalar_junk, st.lists(_scalar_junk, max_size=3))
# g stays small: a large g spends its time allocating g-row zero matrices
_small_junk = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 2),
)


def _element(a, b=0, den=1):
    return {"a": [a, den], "b": [b, den]}


def _exact(rows):
    return {"rows": len(rows), "cols": len(rows[0]),
            "entries": [[_element(*x) for x in row] for row in rows]}


# well-formed inputs, g, h <= 2: W in the type-I domain, P positive definite
_W = {1: [[[[0, 1]]], [[[0.25, 0.75]]]],
      2: [[[[0, 1], 0], [0, [0, 1]]],
          [[[0.1, 1], [0.2, 0.1]], [[0.2, -0.1], [0, 1.25]]]]}
_P = {1: [_exact([[(1,)]]), _exact([[(3, 0, 2)]])],
      2: [_exact([[(1,), (0,)], [(0,), (1,)]]),
          _exact([[(2,), (1, 1)], [(1, -1), (2,)]])]}
_P_RATIONAL = {1: [[[2]], [[[3, 2]]]],
               2: [[[2, 1], [1, 2]], [[2, [1, 2]], [[1, 2], 1]]]}
_CHARS = [(0,), (1, 1, 2), (1, -1, 3), (2, 1, 5)]


def _paths(obj, path=()):
    yield path
    if isinstance(obj, (list, dict)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _paths(value, path + (key,))


def _edit(obj, path, value, delete):
    if not path:
        return value
    obj = list(obj) if isinstance(obj, list) else dict(obj)
    if len(path) == 1 and delete:
        del obj[path[0]]
    else:
        obj[path[0]] = _edit(obj[path[0]], path[1:], value, delete)
    return obj


@st.composite
def _broken(draw, obj):
    """obj with one node removed (a row, an entry, a coordinate or a key),
    or replaced by junk or by an integer no float holds."""
    path = draw(st.sampled_from(list(_paths(obj))))
    action = draw(st.sampled_from(["junk", "big", "delete"]))
    if path and path[0] == "g":
        value = draw(_small_junk)
    elif action == "big":
        value = draw(st.sampled_from([_BIG, -_BIG, [_BIG, 1]]))
    else:
        value = draw(_junk)
    return _edit(obj, path, value, delete=action == "delete")


@st.composite
def _chars(draw, g, h):
    return _exact([[draw(st.sampled_from(_CHARS)) for _ in range(h)]
                   for _ in range(g)])


_BAD_SETTINGS = {"--eps": ["nan", "inf", "-inf", "0", "-1", "x"],
                 "--max-radius": ["nan", "-inf", "0", "-2", "1e-3", "x"]}


@st.composite
def _argv(draw):
    """eval or decompose on well-formed input, g, h <= 2, with at most one
    part broken: the d flag, a JSON argument or an accuracy setting."""
    d = draw(st.sampled_from([1, 2, 3, 7]))
    g = draw(st.integers(1, 2))
    h = draw(st.integers(1, 2))
    if draw(st.booleans()):
        parts = {"--d": str(d), "--W": draw(st.sampled_from(_W[g]))}
        for flag, value in (("--P", draw(st.sampled_from(_P[h]))),
                            ("--A0", draw(_chars(g, h))),
                            ("--B0", draw(_chars(g, h)))):
            if draw(st.booleans()):
                parts[flag] = value
        command = "eval"
    else:
        spec = {"d": d, "g": g, "P": draw(st.sampled_from(_P_RATIONAL[h]))}
        for key in ("A0", "B0"):
            if draw(st.booleans()):
                spec[key] = draw(_chars(g, h))
        parts = {"--spec": spec}
        if draw(st.booleans()):
            parts["--W"] = draw(st.sampled_from(_W[g]))
        command = "decompose"
    for flag in _BAD_SETTINGS:
        if draw(st.booleans()):
            parts[flag] = draw(st.sampled_from(["1e-3", "4", "inf"]))
    target = draw(st.sampled_from([None, *parts]))
    if target == "--d":
        parts[target] = draw(st.sampled_from(
            ["4", "0", "-7", "x", "", str(999999937**2), str(2**63), str(_BIG)]))
    elif target in _BAD_SETTINGS:
        parts[target] = draw(st.sampled_from(_BAD_SETTINGS[target]))
    elif target is not None:
        parts[target] = draw(_broken(parts[target]))
    argv = [command]
    for flag, value in parts.items():
        argv.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return argv


# invertible T over every field, g, h <= 2
_T = {1: [_exact([[(2,)]]), _exact([[(1, 1)]]), _exact([[(1, 0, 2)]])],
      2: [_exact([[(1,), (1,)], [(1,), (-1,)]]),
          _exact([[(1, 1), (0,)], [(1,), (2,)]])]}


@st.composite
def _spec_argv(draw):
    """groups, build or verify on a well-formed relation spec, g, h <= 2,
    with at most one node of the spec or the group order cap broken."""
    g = draw(st.integers(1, 2))
    h = draw(st.integers(1, 2))
    spec = {"d": draw(st.sampled_from([1, 2, 3, 7])), "g": g,
            "T": draw(st.sampled_from(_T[h])), "P": draw(st.sampled_from(_P[h])),
            "A0": draw(_chars(g, h)), "B0": draw(_chars(g, h)), "name": "fuzz"}
    argv = [draw(st.sampled_from(["groups", "build", "verify"]))]
    target = draw(st.sampled_from([None, "--spec", "--max-order"]))
    if target == "--spec":
        spec = draw(_broken(spec))
    argv.append(f"--spec={json.dumps(spec)}")
    if target == "--max-order":
        argv.append(f"--max-order={draw(st.sampled_from(['10', '0', '-1', 'x']))}")
    return argv


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=st.one_of(_argv(), _spec_argv()))
def test_cli_ends_in_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4, 5), (code, argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], argv
    else:
        assert len(lines) == 1, (err.getvalue(), argv)
