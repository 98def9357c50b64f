import json
import re

import numpy as np
import pytest

from abelerg import matrixio
from abelerg.errors import ParseError


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
    with pytest.raises(ParseError, match=re.escape(
            "data has 3 entries, expected rows * cols = 4")):
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
    # the token's ParseError passes through parse_matrix's handler for
    # JSON errors, which would prefix it with "invalid JSON: "
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ParseError, match="^" + re.escape(
                f"non-finite JSON token not allowed: {token}") + "$"):
            matrixio.parse_matrix(
                f'{{"rows":1,"cols":1,"data":[[{token},0]]}}')


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


def test_parse_matrix_rejects_data_that_is_not_a_list():
    with pytest.raises(ParseError, match=re.escape(
            '"data" must be a list of [re, im] pairs')):
        matrixio.parse_matrix('{"rows":1,"cols":1,"data":{"0":[1,0]}}')


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


def test_negative_zero_survives_the_round_trip():
    # canonical_json writes -0.0 as "-0"; the parser reads that as -0.0
    text = matrixio.canonical_json(matrixio.serialize_matrix(
        np.array([[complex(-0.0, 0.0)]])))
    assert '"data": [[-0, 0]]' in text
    back = matrixio.parse_matrix(text)[0, 0]
    assert np.signbit(back.real) and not np.signbit(back.imag)


def test_canonical_pairs_of_edge_floats():
    edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0,
            2.0 ** 53, float(2 ** 53 + 1), float(2 ** 70 + 1), 0.1, 1 / 3]
    data = matrixio.serialize_matrix(np.array([edge]).view(np.complex128))
    assert matrixio._canonical(data["data"]) == (
        "[[-0, 0], [4.9406564584124654e-324, -4.9406564584124654e-324], "
        "[2.2250738585072014e-308, 1.7976931348623157e+308], "
        "[-1.7976931348623157e+308, 1], [-3, 9007199254740992], "
        "[9007199254740992, 1.1805916207174113e+21], "
        "[0.10000000000000001, 0.33333333333333331]]")
    # integer components keep every digit
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
    assert matrixio._canonical(data) == (
        "[[9007199254740992, -9007199254740992], "
        "[1.1805916207174113e+21, -1.1805916207174113e+21], "
        "[-1.8446744073709552e+19, 1.8446744073709552e+19], [3, -3]]")


def test_serialize_matrix_rejects_non_matrices():
    with pytest.raises(ValueError, match="expected a 2d array"):
        matrixio.serialize_matrix(np.ones(3))


def test_canonical_json_rejects_non_string_keys():
    with pytest.raises(ValueError, match="report keys must be strings"):
        matrixio.canonical_json({"report": {1: "one"}})


def test_canonical_json_rejects_unserializable_types():
    with pytest.raises(ValueError,
                       match="cannot serialize object of type set"):
        matrixio.canonical_json({"value": {1, 2}})


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


def test_canonical_json_of_a_mixed_report_is_frozen():
    report = {
        "flag": True, "np_flag": np.bool_(False), "count": np.int64(-7),
        "value": np.float64(0.1), "neg_zero": -0.0, "nan": float("nan"),
        "inf": np.inf, "nested": (1, (2.5, [np.float64(-0.0), None]), "x"),
        "list": [False, np.bool_(True), 3]}
    text = matrixio.canonical_json(report)
    assert text == (
        '{"count": -7, "flag": true, "inf": "inf", "list": [false, true, 3], '
        '"nan": "nan", "neg_zero": -0, "nested": [1, [2.5, [-0, null]], "x"], '
        '"np_flag": false, "value": 0.10000000000000001}\n')
    # a bool written as 1 or 0 would read back as an integer
    parsed = json.loads(text)
    assert parsed["flag"] is True and parsed["np_flag"] is False
    assert parsed["list"][:2] == [False, True]
    assert all(type(v) is bool for v in parsed["list"][:2])


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


def test_matrix_fingerprint_tells_shapes_apart():
    values = np.array([1 + 2j, -0.5, 3j, 0.25 - 1j])
    digests = {matrixio.payload_digest({"matrix": matrixio.matrix_fingerprint(
        values.reshape(shape))}) for shape in ((1, 4), (2, 2), (4, 1))}
    assert len(digests) == 3


def test_matrix_fingerprint_ignores_memory_layout():
    M = np.arange(12.0).reshape(3, 4) * (1 - 0.5j)
    assert matrixio.matrix_fingerprint(M.T) == \
        matrixio.matrix_fingerprint(M.T.copy())
    assert matrixio.matrix_fingerprint(M.T)["rows"] == 4
    # the dtype is fixed before hashing: real input hashes as complex128
    assert matrixio.matrix_fingerprint(M.real) == \
        matrixio.matrix_fingerprint(M.real.astype(np.complex128))


def test_write_report_round_trips(tmp_path):
    path = tmp_path / "report.json"
    report = {"command": "certify", "value": 0.1 + 0.2}
    text = matrixio.write_report(path, report)
    assert path.read_text() == text
    assert json.loads(text)["value"] == 0.1 + 0.2
