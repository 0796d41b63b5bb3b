"""The JSON loaders decode short documents with orjson and every other
with json.loads; whichever decodes, the loaded record, the output and
every error must be json's."""

import contextlib
import io
import json
import struct

import numpy as np
import pytest

from qapool import files
from qapool.cli import main


@pytest.fixture
def force_json(monkeypatch):
    """Make orjson refuse every document, so that json.loads decodes it."""

    def refuse(text):
        raise files.orjson.JSONDecodeError("refused", "", 0)

    return lambda: monkeypatch.setattr(files.orjson, "loads", refuse)


@pytest.fixture
def orjson_calls(monkeypatch):
    """The lengths of the texts orjson is given, in order."""
    calls, loads = [], files.orjson.loads

    def spy(text):
        calls.append(len(text))
        return loads(text)

    monkeypatch.setattr(files.orjson, "loads", spy)
    return calls


def float_texts(bits: np.ndarray) -> list[str]:
    """Each double of ``bits`` as repr, %.17g or %.25g text, in turn."""
    fmts = (repr, "%.17g".__mod__, "%.25g".__mod__)
    return [fmts[k % 3](x) for k, x in enumerate(bits.view(float).tolist())]


def big_ints() -> list[int]:
    """Integers near 2^63 and 2^64, and of 19 to 22 digits."""
    near = [2**63 + d for d in range(-3, 4)] + [2**64 + d for d in range(-3, 4)]
    near += [2**64 + 2048, 2**64 + 2049, 2**64 + 6144, 2**63 + 1024, 2**63 + 1025]
    rng = np.random.default_rng(11)
    digits = [int("".join(map(str, rng.integers(0, 10, k))), 10) + 10 ** (k - 1)
              for k in range(19, 23) for _ in range(20)]
    return near + digits


def unit_bits(rng, size: int) -> np.ndarray:
    """Random float64 bit patterns of doubles in [0, 0.5), subnormals too."""
    bits = rng.integers(0, 2**62, size, dtype=np.uint64)
    return bits[bits.view(float) < 0.5]


class TestSameDoubles:
    def test_forecast_files(self, tmp_path, force_json, orjson_calls):
        rng = np.random.default_rng(5)
        a, b = (float_texts(unit_bits(rng, 4000)) for _ in range(2))
        k = min(len(a), len(b))
        rows = [[x, y, repr(1.0 - float(x) - float(y))] for x, y in zip(a[:k], b[:k])]
        weights = float_texts(rng.integers(0, 2**63 - 2**52, k, dtype=np.uint64))
        weights[: len(big_ints())] = map(str, big_ints())
        experts = ", ".join(f'{{"id": {i}, "probs": [{", ".join(p)}], "weight": {w}}}'
                            for i, (p, w) in enumerate(zip(rows, weights)))
        path = tmp_path / "experts.json"
        path.write_text(f'{{"n": 3, "experts": [{experts}]}}')
        fast = files.load_forecast_file(path)
        assert orjson_calls == [len(path.read_text())]
        force_json()
        slow = files.load_forecast_file(path)
        assert fast.probs.tobytes() == slow.probs.tobytes()
        assert fast.weights.tobytes() == slow.weights.tobytes()

    def test_stream_files(self, tmp_path, force_json, orjson_calls):
        rng = np.random.default_rng(23)
        a, b = (float_texts(unit_bits(rng, 6000)) for _ in range(2))
        k = min(len(a), len(b)) // 2 * 2
        rows = [f"[{x}, {y}, {1.0 - float(x) - float(y)!r}]" for x, y in zip(a[:k], b[:k])]
        steps = ", ".join(f'{{"forecasts": [{rows[t]}, {rows[t + 1]}], "outcome": {t % 3 + 1}}}'
                          for t in range(0, k, 2))
        path = tmp_path / "stream.json"
        path.write_text(f'{{"steps": [{steps}]}}')
        fast = files.load_stream_file(path)
        assert orjson_calls == [len(path.read_text())]
        force_json()
        slow = files.load_stream_file(path)
        assert fast.forecasts.tobytes() == slow.forecasts.tobytes()
        assert fast.outcomes.tobytes() == slow.outcomes.tobytes()

    def test_signed_numbers(self, force_json):
        # every finite double and the integers of both signs, decoded alone
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2**64, 30000, dtype=np.uint64, endpoint=False)
        texts = [t for t in float_texts(bits) if t not in ("nan", "inf", "-inf")]
        texts += [s + str(i) for i in big_ints() for s in ("", "-")]
        text = "[" + ", ".join(texts) + "]"

        def build(doc):
            return struct.pack(f"{len(doc)}d", *map(float, doc))

        fast = files._load_json(text, build, lambda doc: True)
        force_json()
        assert fast == files._load_json(text, build, lambda doc: True)


BIG = 123456789012345678901234
ROW = '{"probs": [0.2, 0.8]}'
STEP = '{"forecasts": [[0.2, 0.8], [0.6, 0.4]], "outcome": 1}'
DEEP = "[" * 1500 + "]" * 1500

EDGE_FORECASTS = {
    "big id": f'{{"experts": [{{"id": {BIG}, "probs": [0.2, 0.8]}}, {ROW}]}}',
    "big label": f'{{"labels": ["a", {BIG}], "experts": [{ROW}]}}',
    "big n": f'{{"n": {BIG}, "experts": [{ROW}]}}',
    "big weight": f'{{"experts": [{{"probs": [0.2, 0.8], "weight": {BIG}}}, {ROW}]}}',
    "big row": f'{{"experts": [{{"probs": [{BIG}, 0.8]}}]}}',
    "list id": f'{{"experts": [{{"id": [{BIG}], "probs": [0.2, 0.8]}}, {ROW}]}}',
    "list weight": f'{{"experts": [{{"probs": [0.2, 0.8], "weight": [{BIG}]}}]}}',
    "NaN": '{"experts": [{"probs": [NaN, 0.8]}]}',
    "Infinity": '{"experts": [{"probs": [0.2, 0.8], "weight": Infinity}]}',
    "1e400": '{"experts": [{"probs": [0.2, 0.8], "weight": 1e400}]}',
    "400 digits": f'{{"experts": [{{"probs": [0.2, 0.8], "weight": {"7" * 400}}}]}}',
    "lone surrogate": '{"experts": [{"id": "a\\ud800", "probs": [0.2, 0.8]}]}',
    "duplicate keys": f'{{"experts": [{ROW}], "experts": [{ROW}, {ROW}]}}',
    "malformed": f'{{"experts": [{ROW},]}}',
    "unread key": f'{{"experts": [{ROW}], "note": {BIG}}}',
    "deep unread key": f'{{"experts": [{ROW}], "note": {DEEP}}}',
    "deep expert key": f'{{"experts": [{{"probs": [0.2, 0.8], "note": {DEEP}}}]}}',
    "deep row": f'{{"experts": [{{"probs": {DEEP}}}]}}',
    "deep expert": f'{{"experts": [{DEEP}]}}',
}
EDGE_STREAMS = {
    "big outcome": f'{{"steps": [{{"forecasts": [[0.2, 0.8]], "outcome": {BIG}}}]}}',
    "big row": f'{{"steps": [{{"forecasts": [[{BIG}, 0.8]], "outcome": 1}}]}}',
    "NaN": '{"steps": [{"forecasts": [[NaN, 0.8]], "outcome": 1}]}',
    "duplicate keys": f'{{"steps": [{STEP}], "steps": [{STEP}, {STEP}]}}',
    "unread key": f'{{"steps": [{STEP}], "note": {DEEP}}}',
    "unread step key": f'{{"steps": [{STEP[:-1]}, "note": {DEEP}}}]}}',
    "deep outcome": f'{{"steps": [{{"forecasts": [[0.2, 0.8]], "outcome": {DEEP}}}]}}',
    "malformed": f'{{"steps": [{STEP}]',
}


def run(argv) -> tuple:
    """main(argv)'s exit code, stdout and stderr, or the exception it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as e:  # json's RecursionError on deep nesting
            code = f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "kind, name",
    [("forecasts", k) for k in EDGE_FORECASTS] + [("stream", k) for k in EDGE_STREAMS],
)
def test_edge_files_run_as_on_json(kind, name, tmp_path, force_json):
    path = tmp_path / "edge.json"
    if kind == "forecasts":
        path.write_text(EDGE_FORECASTS[name])
        commands = [["score", "quadratic", str(path)], ["pool", "quadratic", str(path)]]
    else:
        path.write_text(EDGE_STREAMS[name])
        commands = [["learn", "quadratic", str(path)]]
    fast = [run(argv) for argv in commands]
    force_json()
    assert fast == [run(argv) for argv in commands]


def test_big_integer_id_prints_every_digit(tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(EDGE_FORECASTS["big id"])
    assert main(["score", "quadratic", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["experts"][0]["id"] == str(BIG)


class TestSizeCut:
    @pytest.mark.parametrize("loader, doc", [
        (files.load_forecast_file, f'{{"experts": [{ROW}]}}'),
        (files.load_stream_file, f'{{"steps": [{STEP}]}}'),
    ])
    def test_only_documents_within_the_cut_reach_orjson(self, loader, doc, tmp_path,
                                                        orjson_calls):
        # whitespace pads a document to the cut and one character past it
        path = tmp_path / "doc.json"
        for pad in (files._ORJSON_MAX - len(doc), files._ORJSON_MAX - len(doc) + 1):
            path.write_text(doc + " " * pad)
            loader(path)
        assert orjson_calls == [files._ORJSON_MAX]

    def test_a_long_stream_never_reaches_orjson(self, tmp_path, orjson_calls):
        rng = np.random.default_rng(2)
        F = rng.dirichlet([1, 1, 1], (3100, 5))
        steps = [{"forecasts": f, "outcome": 1} for f in F.tolist()]
        path = tmp_path / "stream.json"
        path.write_text(json.dumps({"steps": steps}))
        assert len(path.read_text()) > files._ORJSON_MAX
        assert files.load_stream_file(path).forecasts.shape == (3100, 5, 3)
        assert orjson_calls == []
