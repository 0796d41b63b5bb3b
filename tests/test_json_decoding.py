"""The forecast loader decodes short documents with orjson and every
other with json.loads; the stream loader decodes a stream's steps with
orjson one chunk at a time, and json.loads decodes every other stream
file.  Whichever decodes, the loaded record, the output and every error
must be json's."""

import contextlib
import gc
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


@pytest.fixture
def orjson_texts(monkeypatch):
    """The texts orjson is given, in order."""
    texts, loads = [], files.orjson.loads

    def spy(text):
        texts.append(text)
        return loads(text)

    monkeypatch.setattr(files.orjson, "loads", spy)
    return texts


def assert_chunked(texts: list, steps: list[str]) -> None:
    """orjson was given the steps of a stream file written with ", "
    between them, in bracketed pieces cut at step boundaries: each longer
    than _CHUNK bytes but the last, none longer than _CHUNK plus one step."""
    assert sum(len(json.loads(t)) for t in texts) == len(steps)
    assert all(t[:1] == b"[" and t[-1:] == b"]" for t in texts)
    pieces = [t[1:-1].decode() for t in texts]
    assert ", ".join(pieces) == ", ".join(steps)
    assert all(len(p) > files._CHUNK for p in pieces[:-1])
    assert max(map(len, pieces)) <= files._CHUNK + max(map(len, steps))


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

    def test_stream_files(self, tmp_path, force_json, orjson_texts):
        rng = np.random.default_rng(23)
        a, b = (float_texts(unit_bits(rng, 6000)) for _ in range(2))
        k = min(len(a), len(b)) // 2 * 2
        rows = [f"[{x}, {y}, {1.0 - float(x) - float(y)!r}]" for x, y in zip(a[:k], b[:k])]
        steps = [f'{{"forecasts": [{rows[t]}, {rows[t + 1]}], "outcome": {t % 3 + 1}}}'
                 for t in range(0, k, 2)]
        path = tmp_path / "stream.json"
        path.write_text(steps_doc(*steps))
        fast = files.load_stream_file(path)
        assert len(orjson_texts) >= 3
        assert_chunked(orjson_texts, steps)
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
# about 220 KB of steps: four chunks
FILLER = ", ".join([STEP] * 4000)


def steps_doc(*steps: str) -> str:
    return f'{{"steps": [{", ".join(steps)}]}}'


def at_first_cut(text: str, mark: str, after_comma: bool = False) -> str:
    """text with mark put before (or after) the comma of the first step
    boundary at or past the first chunk mark."""
    k = text.index("}, {", text.index("[") + 1 + files._CHUNK) + 1 + after_comma
    return text[:k] + mark + text[k:]


def with_note(step: str, note: str) -> str:
    return f'{step[:-1]}, "note": {note}}}'


LONG = steps_doc(FILLER)
LAYOUT = {"steps": [json.loads(STEP)] * 4000}
SPAN = files._CHUNK // 2  # repeats of a 4-byte cut candidate span a chunk mark
EDGE_STREAMS = {
    "big outcome": f'{{"steps": [{{"forecasts": [[0.2, 0.8]], "outcome": {BIG}}}]}}',
    "big row": f'{{"steps": [{{"forecasts": [[{BIG}, 0.8]], "outcome": 1}}]}}',
    "NaN": '{"steps": [{"forecasts": [[NaN, 0.8]], "outcome": 1}]}',
    "duplicate keys": f'{{"steps": [{STEP}], "steps": [{STEP}, {STEP}]}}',
    "unread key": f'{{"steps": [{STEP}], "note": {DEEP}}}',
    "unread step key": f'{{"steps": [{STEP[:-1]}, "note": {DEEP}}}]}}',
    "deep outcome": f'{{"steps": [{{"forecasts": [[0.2, 0.8]], "outcome": {DEEP}}}]}}',
    "malformed": f'{{"steps": [{STEP}]',
    "no steps": '{"steps": []}',
    # at least three chunks
    "cut inside a string": steps_doc(with_note(STEP, '"' + "}, {" * SPAN + '"'), FILLER),
    "cut inside a list": steps_doc(with_note(STEP, "[" + "{}, " * SPAN + "{}]"), FILLER),
    "indent=2": json.dumps(LAYOUT, indent=2),
    "compact": json.dumps(LAYOUT, separators=(",", ":")),
    "CRLF": json.dumps(LAYOUT, indent=2).replace("\n", "\r\n"),
    "BOM": b"\xef\xbb\xbf" + LONG.encode(),
    "invalid UTF-8": steps_doc(FILLER, with_note(STEP, '"@"')).encode().replace(b"@", b"\xff"),
    "form feed at a cut": at_first_cut(LONG, "\f"),
    "vertical tab at a cut": at_first_cut(LONG, "\v", after_comma=True),
    "duplicate steps": f'{{"steps": [{FILLER}], "steps": [{STEP}, {STEP}]}}',
    "text after": LONG + " x",
    "trailing comma": f'{{"steps": [{FILLER}, ]}}',
    "22-digit outcome last": steps_doc(FILLER, STEP.replace(": 1}", ": 1234567890123456789012}")),
    "NaN last": steps_doc(FILLER, STEP.replace("0.2", "NaN")),
    "deep last": steps_doc(FILLER, with_note(STEP, DEEP)),
}


def write(path, content: str | bytes) -> None:
    path.write_bytes(content if isinstance(content, bytes) else content.encode())


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
        write(path, EDGE_FORECASTS[name])
        commands = [["score", "quadratic", str(path)], ["pool", "quadratic", str(path)]]
    else:
        write(path, EDGE_STREAMS[name])
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
    def test_only_forecast_files_within_the_cut_reach_orjson(self, tmp_path, orjson_calls):
        # whitespace pads a document to the cut and one character past it
        doc, path = f'{{"experts": [{ROW}]}}', tmp_path / "doc.json"
        for pad in (files._ORJSON_MAX - len(doc), files._ORJSON_MAX - len(doc) + 1):
            path.write_text(doc + " " * pad)
            files.load_forecast_file(path)
        assert orjson_calls == [files._ORJSON_MAX]

    def test_every_stream_reaches_orjson_in_chunks(self, tmp_path, force_json, orjson_texts):
        rng = np.random.default_rng(2)
        F = rng.dirichlet([1, 1, 1], (3100, 5))
        steps = [json.dumps({"forecasts": f, "outcome": 1}) for f in F.tolist()]
        path = tmp_path / "stream.json"
        path.write_text(steps_doc(*steps))
        assert len(path.read_text()) > files._ORJSON_MAX
        fast = files.load_stream_file(path)
        assert fast.forecasts.shape == (3100, 5, 3)
        assert_chunked(orjson_texts, steps)
        # a one-step stream padded past the forecast files' cut is one chunk
        orjson_texts.clear()
        short = tmp_path / "short.json"
        short.write_text(steps_doc(STEP) + " " * files._ORJSON_MAX)
        files.load_stream_file(short)
        assert orjson_texts == [f"[{STEP}]".encode()]
        force_json()
        assert files.load_stream_file(path) == fast


@pytest.mark.parametrize("name", ["indent=2", "compact", "CRLF"])
def test_layouts_decode_in_chunks_without_json(name, tmp_path, monkeypatch, orjson_texts):
    path = tmp_path / "edge.json"
    write(path, EDGE_STREAMS[name])
    monkeypatch.setattr(files.json, "loads", None)  # a fallback would raise TypeError
    assert files.load_stream_file(path).forecasts.shape == (4000, 2, 2)
    assert len(orjson_texts) >= 3


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_stays_paused_over_the_chunks_and_is_restored_when_one_fails(enabled, tmp_path,
                                                                         monkeypatch):
    states, loads = [], files.orjson.loads

    def spy(text):
        states.append(gc.isenabled())
        return loads(text)

    monkeypatch.setattr(files.orjson, "loads", spy)
    path = tmp_path / "edge.json"
    write(path, EDGE_STREAMS["NaN last"])  # orjson refuses the last chunk
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(ValueError, match="step 4000"):
            files.load_stream_file(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(states) >= 3 and not any(states)
