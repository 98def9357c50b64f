import json
import re

import numpy as np
import pytest

from abelerg import matrixio
from abelerg.errors import DimensionMismatch, ParseError


def test_parse_matrix_scalar_identity():
    M = matrixio.parse_matrix('{"rows":1,"cols":1,"data":[[1,0]]}')
    assert M.shape == (1, 1)
    assert M[0, 0] == 1.0 + 0.0j


def test_parse_matrix_jordan_block():
    text = '{"rows":2,"cols":2,"data":[[1,0],[1,0],[0,0],[1,0]]}'
    M = matrixio.parse_matrix(text)
    assert np.array_equal(M, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_parse_matrix_rejects_wrong_length():
    text = '{"rows":2,"cols":2,"data":[[1,0],[0,0],[0,0]]}'
    with pytest.raises(DimensionMismatch):
        matrixio.parse_matrix(text)


def test_parse_matrix_rejects_unknown_or_missing_fields():
    with pytest.raises(ParseError):
        matrixio.parse_matrix('{"rows":1,"cols":1,"data":[[1,0]],"extra":1}')
    with pytest.raises(ParseError):
        matrixio.parse_matrix('{"rows":1,"data":[[1,0]]}')
    with pytest.raises(ParseError):
        matrixio.parse_matrix('[1,2,3]')
    with pytest.raises(ParseError):
        matrixio.parse_matrix('not json at all')


def test_parse_matrix_rejects_nonfinite_tokens():
    with pytest.raises(ParseError):
        matrixio.parse_matrix('{"rows":1,"cols":1,"data":[[NaN,0]]}')
    with pytest.raises(ParseError):
        matrixio.parse_matrix('{"rows":1,"cols":1,"data":[[Infinity,0]]}')


def test_parse_matrix_rejects_malformed_entries():
    for data in ('[[1,0,0]]', '[[1]]', '[["a",0]]', '[[true,0]]', '[1]',
                 '[[1e400,0]]', '[[0,1' + '0' * 400 + ']]',
                 '[[1' + '0' * 5000 + ',0]]'):
        with pytest.raises(ParseError):
            matrixio.parse_matrix(
                f'{{"rows":1,"cols":1,"data":{data}}}')
    with pytest.raises(ParseError):
        matrixio.parse_matrix('{"rows":0,"cols":1,"data":[]}')
    with pytest.raises(ParseError):
        matrixio.parse_matrix('{"rows":1.5,"cols":1,"data":[[1,0]]}')


@pytest.mark.parametrize("bad", [
    [True, 0], ["a", 0], [1, 0, 0], 1, [1e400, 0], [0, -10 ** 400]])
def test_parse_matrix_names_first_bad_entry(bad):
    # The bulk parser must report what the entry-wise check reports.
    data = [[1, 0], [0.5, -2], bad, [True, 0]]
    with pytest.raises(ParseError) as expected:
        for i, entry in enumerate(data):
            matrixio._entry_to_complex(entry, i)
    assert "data[2]" in str(expected.value)
    with pytest.raises(ParseError, match=re.escape(str(expected.value))):
        matrixio.matrix_from_payload({"rows": 2, "cols": 2, "data": data})


def test_serialize_parse_round_trip_bit_exact():
    rng = np.random.default_rng(61)
    for _ in range(20):
        rows = int(rng.integers(1, 7))
        cols = int(rng.integers(1, 7))
        M = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-8, 9)
        M = M + 1j * rng.normal(size=(rows, cols))
        payload = matrixio.serialize_matrix(M)
        text = matrixio.canonical_json(payload)
        back = matrixio.parse_matrix(text)
        assert np.array_equal(back, M.astype(np.complex128))
        # a non-contiguous view serializes like its copy
        assert matrixio.serialize_matrix(M.T) == \
            matrixio.serialize_matrix(M.T.copy())


def _generic_pairs_text(data):
    """The generic recursion, pair by pair: the reference for the fast path."""
    return "[" + ", ".join(matrixio._canonical(pair) for pair in data) + "]"


def test_canonical_float_pairs_match_generic_recursion():
    rng = np.random.default_rng(62)
    edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0,
            2.0 ** 53, float(2 ** 53 + 1), float(2 ** 70 + 1), 0.1, 1 / 3]
    cases = [np.array([edge])]
    for _ in range(20):
        n = int(rng.integers(1, 9))
        cases.append(rng.normal(size=(n, 2 * n))
                     * 10.0 ** rng.integers(-300, 300, size=(n, 2 * n)))
    for parts in cases:
        data = matrixio.serialize_matrix(parts.view(np.complex128))["data"]
        assert data == parts.reshape(-1, 2).tolist()
        assert matrixio._float_pairs(data) == _generic_pairs_text(data)
    # non-finite and integer components keep the generic formatting
    for data in ([[0.5, float("nan")], [1.0, 2.0]],
                 [[float("-inf"), 0.0]],
                 [[2 ** 53 + 1, 0.0], [1.0, 2 ** 70 + 1]]):
        assert matrixio._float_pairs(data) is None
        assert matrixio._canonical(data) == _generic_pairs_text(data)
    assert matrixio._canonical([[2 ** 53 + 1, 0.0]]) == \
        "[[9007199254740993, 0]]"


def test_parsed_integer_entries_serialize_as_floats():
    big = [2 ** 53 + 1, 2 ** 70 + 1, -(2 ** 64), 3]
    text = json.dumps({"rows": 2, "cols": 2,
                       "data": [[v, -v] for v in big]})
    M = matrixio.parse_matrix(text)
    expected = [complex(float(v), float(-v)) for v in big]
    assert M.reshape(-1).tolist() == expected
    data = matrixio.serialize_matrix(M)["data"]
    assert matrixio._canonical(data) == _generic_pairs_text(data)
    assert matrixio._canonical(data).startswith(
        "[[9007199254740992, -9007199254740992], [1.1805916207174113e+21,")


def test_canonical_json_sorts_keys_and_formats():
    text = matrixio.canonical_json({"b": 1, "a": 0.1, "c": [True, None]})
    assert text == '{"a": 0.10000000000000001, "b": 1, "c": [true, null]}\n'


def test_canonical_json_nonfinite_to_strings():
    text = matrixio.canonical_json(
        {"x": float("nan"), "y": float("inf"), "z": float("-inf")})
    assert text == '{"x": "nan", "y": "inf", "z": "-inf"}\n'
    # stays valid JSON
    assert json.loads(text) == {"x": "nan", "y": "inf", "z": "-inf"}


def test_canonical_json_complex_as_pair():
    assert matrixio.canonical_json(1.0 + 2.0j) == "[1, 2]\n"


def test_canonical_json_numpy_scalars():
    text = matrixio.canonical_json(
        {"i": np.int64(3), "f": np.float64(0.5), "a": np.array([1.0, 2.0])})
    assert text == '{"a": [1, 2], "f": 0.5, "i": 3}\n'


def test_payload_digest_stable_and_sensitive():
    a = matrixio.payload_digest({"x": 1.0, "y": [2.0]})
    b = matrixio.payload_digest({"y": [2.0], "x": 1.0})
    c = matrixio.payload_digest({"x": 1.0, "y": [2.0000000001]})
    assert a == b
    assert a != c
    assert len(a) == 64
    # a fixed matrix keeps the digest it had under entry-wise serialization
    M = np.empty((2, 3), dtype=np.complex128)
    M.real = [[1.0, -0.0, 2.0 ** 53], [0.1, -1.7976931348623157e308, 0.0]]
    M.imag = [[0.0, 5e-324, -0.0], [0.2, 3.0, -1 / 3]]
    payload = {"matrix": matrixio.serialize_matrix(M), "tol": 1e-10,
               "alphas": [0.1, 0.5, 0.9]}
    assert matrixio.payload_digest(payload) == \
        "d6c2ce9b2212ea5ea80794d314ff5659a381cd55c51372f7fbf91d97e231b390"


def test_write_history_csv_format(tmp_path):
    path = tmp_path / "history.csv"
    matrixio.write_history_csv(path, [(1, 0.5), (2, 0.25),
                                      (4, float("inf"))])
    lines = path.read_text().splitlines()
    assert lines[0] == "exponent,defect_bound"
    assert lines[1] == "1,0.5"
    assert lines[3] == "4,inf"


def test_write_report_round_trips(tmp_path):
    path = tmp_path / "report.json"
    report = {"command": "certify", "value": 0.1 + 0.2}
    text = matrixio.write_report(path, report)
    assert path.read_text() == text
    assert json.loads(text)["value"] == 0.1 + 0.2
