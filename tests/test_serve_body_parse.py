"""``/predict``'s fast body parser against the general JSON path.

``_rows_from_body`` reads ``{"rows": [[0,1,...], ...]}`` straight into
a bit matrix.  The property pinned here: whenever it answers, the
general path (``json.loads`` then ``validate_rows``) gives the same
matrix — values, dtype and shape — and whenever a body is malformed,
the HTTP status and error text are the general path's, unchanged.
"""

import asyncio
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serve.http as http_mod
from repro.aig.aig import AIG
from repro.aig.aiger import dumps_aag
from repro.serve import ModelStore, ServeApp
from repro.serve.bundle import validate_rows
from repro.serve.http import HttpError, _rows_from_body

MUTATIONS = [
    "none", "two", "minus_zero", "float_one", "true", "quoted_digit",
    "missing_comma", "trailing_comma", "ragged", "empty", "empty_row",
    "row_key", "near_key", "extra_key", "duplicate_key", "split_key",
]
STYLES = ["compact", "dumps", "indent"]
SERVED_WIDTHS = [1, 2, 5, 16, 33, 300]


def _render(rows, style, key="rows"):
    """The body a client would send for ``{key: rows}``."""
    if style == "compact":
        return json.dumps({key: rows}, separators=(",", ":"), sort_keys=True)
    if style == "dumps":
        return json.dumps({key: rows}, sort_keys=True)
    return json.dumps({key: rows}, indent=2, sort_keys=True)


def _body(mat, style, mutation, where):
    """A rows body for ``mat`` in ``style``, with one ``mutation``.

    ``where`` picks the mutated cell/comma/bracket (taken modulo the
    candidates, so any integer is valid).  Scalar mutations put the
    placeholder 7 in one cell and swap in the token after rendering:
    every other cell is 0 or 1, so the placeholder is unique.
    """
    rows = mat.tolist()
    n_rows, width = mat.shape
    i, j = divmod(where % (n_rows * width), width)
    tokens = {"two": "2", "minus_zero": "-0", "float_one": "1.0",
              "true": "true", "quoted_digit": '"1"'}
    if mutation in tokens:
        rows[i][j] = 7
        return _render(rows, style).replace("7", tokens[mutation], 1)
    if mutation == "ragged":
        if width > 1:
            rows[i].pop()
        else:
            rows[i].append(0)
        if n_rows == 1:  # a lone row is never ragged; add a full one
            rows.append(mat[0].tolist())
    elif mutation == "empty":
        rows = []
    elif mutation == "empty_row":
        rows = [[]]
    elif mutation == "row_key":
        return _render(rows, style, key="row")
    elif mutation == "near_key":
        return _render(rows, style, key="rowz" if where % 2 else "Rows")
    text = _render(rows, style)
    start = text.index("[")
    if mutation in ("missing_comma", "trailing_comma"):
        mark = "," if mutation == "missing_comma" else "]"
        spots = [k for k in range(start, len(text)) if text[k] == mark]
        if mutation == "missing_comma" and not spots:
            return text[:start] + text[start:].replace("[", "[ ", 1)
        k = spots[where % len(spots)]
        return text[:k] + text[k + 1:] if mark == "," else \
            text[:k] + "," + text[k:]
    if mutation == "extra_key":
        return text[:-1] + ', "extra": 1}' if where % 2 else \
            '{"extra": 1, ' + text[1:]
    if mutation == "duplicate_key":
        return text[:-1] + ', "rows": [[1]]}'
    if mutation == "split_key":
        return text.replace('"rows"', '"r ows"' if where % 2 else
                            '"ro\nws"', 1)
    return text


def _general(body: bytes, width: int):
    """``json.loads`` + ``validate_rows``: a matrix or the error text."""
    try:
        obj = json.loads(body.decode("utf-8"))
        return validate_rows(obj["rows"], width, "m")
    except (ValueError, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


bodies = st.builds(
    lambda seed, shape, style, mutation, where: (
        np.random.default_rng(seed).integers(0, 2, size=shape)
        .astype(np.uint8),
        style, mutation, where,
    ),
    st.integers(0, 2**32 - 1),
    st.tuples(st.integers(1, 1100), st.integers(1, 300)),
    st.sampled_from(STYLES),
    st.sampled_from(MUTATIONS),
    st.integers(0, 2**31),
)


@settings(max_examples=100, deadline=None)
@given(bodies)
def test_fast_parser_matches_json_loads(case):
    mat, style, mutation, where = case
    body = _body(mat, style, mutation, where).encode("utf-8")
    fast = _rows_from_body(body)
    if mutation == "none":
        assert fast is not None, "a clean rows body missed the fast path"
    if fast is None:
        return
    slow = _general(body, fast.shape[1])
    assert isinstance(slow, np.ndarray), slow
    assert slow.dtype == fast.dtype == np.uint8
    assert slow.shape == fast.shape
    assert np.array_equal(slow, fast)
    # validate_rows still runs on the fast matrix and passes it through.
    assert np.array_equal(validate_rows(fast, fast.shape[1], "m"), fast)


@pytest.mark.parametrize("style", STYLES)
def test_fast_parser_reads_every_client_layout(style):
    mat = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
    fast = _rows_from_body(_render(mat.tolist(), style).encode())
    assert fast is not None and fast.dtype == np.uint8
    assert np.array_equal(fast, mat)
    # Whitespace around the key and the braces is JSON's too.
    padded = b' \r\n\t{ "rows" :\n[ [0 , 1 ,1],[1,0,0 ] ] }\n '
    assert np.array_equal(_rows_from_body(padded), mat)


@pytest.mark.parametrize("body", [
    b"",
    b"[[0,1]]",
    b'{"rows": []}',
    b'{"rows": [[]]}',
    b'{"rows": [[0,1],[]]}',
    b'{"rows": [[0,1]]}}',
    b'{"rows": [[0,1]]} x',
    b'{"rows": [[0,1]]',
    b'{"rows": [[0,1]],}',
    b'{"rows": [0,1]}',
    b'{"rows": [[[0,1]]]}',
    b'{"rows": [[0,1][1,0]]}',
    b'{"rows": [[0,,1]]}',
    b'{"rows": [[01]]}',
    b'{"rows": [[0 1]]}',
    b'{"rows": [[0,1]]\x0b}',
    b'\xef\xbb\xbf{"rows": [[0,1]]}',
    b'{"\\u0072ows": [[0,1]]}',
    b'{"rows" "x": [[0,1]]}',
    b'{"rowz": [[0,1]]}',
    b'{"row": [0,1]}',
])
def test_fast_parser_declines_what_it_cannot_vouch_for(body):
    assert _rows_from_body(body) is None


# ---------------------------------------------------------------------------
# The HTTP answer: status and error text are the general path's
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def parity_app(tmp_path_factory):
    """Parity circuits, one per served width, in a bundle directory."""
    root = tmp_path_factory.mktemp("parity-bundles")
    for width in SERVED_WIDTHS:
        aig = AIG(width)
        aig.set_output(aig.add_xor_multi(aig.input_lits()))
        (root / f"w{width}.aag").write_text(dumps_aag(aig), encoding="ascii")
    return ServeApp(ModelStore(root))


def _answer(app, model, body):
    """``(status, payload)`` of ``POST /predict/{model}``."""
    async def go():
        try:
            return await app.dispatch("POST", f"/predict/{model}", body)
        except HttpError as exc:
            return exc.status, {"error": exc.message}

    return asyncio.run(go())


@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 1100),
    width=st.sampled_from(SERVED_WIDTHS),
    served=st.sampled_from(SERVED_WIDTHS),
    style=st.sampled_from(STYLES),
    mutation=st.sampled_from(MUTATIONS),
    where=st.integers(0, 2**31),
)
def test_http_answer_is_unchanged_by_the_fast_path(
    parity_app, monkeypatch, seed, n_rows, width, served, style, mutation,
    where,
):
    mat = np.random.default_rng(seed).integers(
        0, 2, size=(n_rows, width)
    ).astype(np.uint8)
    body = _body(mat, style, mutation, where).encode("utf-8")
    fast = _answer(parity_app, f"w{served}", body)
    with monkeypatch.context() as patched:
        patched.setattr(http_mod, "_rows_from_body", lambda _body: None)
        slow = _answer(parity_app, f"w{served}", body)
    assert fast == slow
    if mutation == "none" and width == served:
        status, payload = fast
        assert status == 200
        expected = mat.sum(axis=1, dtype=np.int64) % 2
        assert payload["outputs"] == [[int(bit)] for bit in expected]
