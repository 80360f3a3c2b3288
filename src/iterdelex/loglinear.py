"""Built-in trainable backend: a log-linear joint tagger and intent classifier.

The slot tagger scores each token independently from window features
(current/previous/next token identity plus a placeholder-token flag) — a
per-token softmax with no transition model, which is why downstream code
repairs orphan Inside labels and why confidence is measured per token. The
intent classifier is a log-linear model over bag-of-token counts. Both are
trained to the regularized optimum with L-BFGS, so training is
deterministic: the same corpus and parameters yield a byte-identical model
file.

Every position has exactly five one-hot features (bias, cur, prev, next,
special), named by :func:`_slot_feature_names`. Training and parsing both
reach them through token ids: :func:`_id_features` gives every known token
(the vocabulary and the placeholders) an id, plus one id for any other
token and one for the boundary beyond either end of a sequence, and names
each id's features; :func:`_window` says which id each template reads
around a sequence padded with boundary ids, and training lays its corpus
out that way with :func:`_batch_window`. Training sorts the names it observes
into the model's features. When the backend is built, it gathers each
template's weight row for every id (a zero row for a name the model never
saw) and adds the bias and cur tables once, the first add in template
order.

A position's slot row therefore depends only on its window, the ids of the
previous, current and next token. Tagging has one path,
:meth:`LogLinearBackend.parse_many`, and ``parse`` is a batch of one. The
backend keeps a table of the windows it has scored, at most
:data:`WINDOW_TABLE_SIZE` of them: for each, its probability row, entropy
and argmax label. A call scores only the windows the table lacks, in one
pass: four table rows per window, added in template order (the bits of
summing the named rows), one softmax, and labels and entropies from
:meth:`ParseResult.from_distributions`. Every result is then gathered from
the table, as a copy, so a caller that writes into a result never reaches
the table. The table's arrays are allocated once, at full size, and filled
in place. A call reads the table once; fills take a lock and only add to it,
publishing a window's key after its values, and starting over replaces it,
so parsing from several threads is safe. A batch's intents are computed
together, in one stacked softmax, when the first of them is read: the
rewrite search reads only its winner's.

Each model is fitted by scipy's L-BFGS-B over a sparse design, one row per
position (or utterance). The corpus and its delexicalized copies repeat the
same rows many times, so the objective that :func:`_make_objective` builds
once per fit scores each distinct row once, runs the softmax ``parse`` uses
on it and weights it by its number of copies; the targets enter through one
product with the design, computed once per fit. Its loss and gradient are
those of one softmax per design row up to rounding, since a sum weighted by
counts adds in another order than the sum of the copies.

The module needs numpy and scipy and nothing else, and only fitting
needs scipy: :meth:`LogLinearBackend.train` imports ``scipy.sparse`` and
:func:`minimize` imports ``scipy.optimize``, each when first called, so a
process that loads a model and parses never imports scipy. The model
exhibits the property the rewrite engine relies on: tokens seen in context
during training get confident (low-entropy) label distributions, while
out-of-vocabulary tokens do not.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Sequence

import numpy as np

from iterdelex.backend import Backend, ParseResult
from iterdelex.corpus import Dataset, SlotLabel, open_text

if TYPE_CHECKING:
    import scipy.sparse as sp

FORMAT_NAME = "iterdelex-loglinear"
FORMAT_VERSION = 1

_BOS = "<s>"
_EOS = "</s>"
_UNK = "<unk>"

_N_SLOT_FEATURES = 5  # bias, cur, prev, next, special-flag

# The most windows a backend's table holds; a fill that would pass it starts
# a new table. A window takes 8 bytes per slot label for its row and 8 for its
# entropy, in arrays allocated at full size whose pages become resident only
# as they fill, and about 120 bytes for its key, its index entry and its
# label. With the 13 labels of the default synthetic spec, filling a table
# adds about 3.6 MB to the resident set (measured as VmRSS), and copies
# nothing on the way.
WINDOW_TABLE_SIZE = 1 << 14


def _slot_feature_names(cur: str, prev: str, nxt: str, special: bool) -> list[str]:
    """The slot feature template: one position's five features, in the order
    their weight rows are summed. Token arguments are already normalized."""
    flag = "yes" if special else "no"
    return ["bias", f"cur={cur}", f"prev={prev}", f"next={nxt}", f"special={flag}"]


def _bag_feature(token: str) -> str:
    """The intent feature of one normalized token."""
    return f"tok={token}"


def _id_features(
    vocab: AbstractSet[str], special_tokens: AbstractSet[str]
) -> tuple[dict[str, int], list[tuple[str, ...]], list[str | None]]:
    """The ids of the known tokens, in sorted order (id ``len(ids)`` is any
    other token, ``len(ids) + 1`` the boundary); per slot template, each id's
    feature name in it; and each id's intent bag feature, None for the
    boundary. A token's name in a template is the one it has when it is also
    its own previous and next token."""
    known = sorted(vocab | special_tokens)
    norms = [tok if tok in vocab else _UNK for tok in known]
    rows = [_slot_feature_names(n, n, n, tok in special_tokens) for tok, n in zip(known, norms)]
    rows.append(_slot_feature_names(_UNK, _UNK, _UNK, False))  # other
    rows.append(_slot_feature_names(_UNK, _BOS, _EOS, False))  # boundary
    bags = [_bag_feature(n) for n in norms] + [_bag_feature(_UNK), None]
    return {tok: i for i, tok in enumerate(known)}, list(zip(*rows)), bags


def _window(ids: np.ndarray) -> tuple[np.ndarray, ...]:
    """The id each slot template reads at each position of ``ids[1:-1]``, in
    template order: bias, cur and special read the position's own id, prev
    its left neighbour's and next its right neighbour's."""
    own = ids[1:-1]
    return own, own, ids[:-2], ids[2:], own


def _batch_window(
    sequences: Iterable[Sequence[str]], token_ids: Mapping[str, int]
) -> tuple[np.ndarray, ...]:
    """Training's :func:`_window` over the ids of the corpus's tokens, laid
    end to end with one boundary id before, between and after the sequences,
    less the inner boundaries' own positions: one position per token of
    every sequence, in order, so that each is one row of the design. Ids are
    those of :func:`_id_features`."""
    other, boundary = len(token_ids), len(token_ids) + 1
    ids = [boundary]
    for tokens in sequences:
        ids += [token_ids.get(tok, other) for tok in tokens]
        ids.append(boundary)
    window = _window(np.array(ids))
    kept = window[0] != boundary  # an inner boundary is no position
    return tuple(sel[kept] for sel in window)


def _columns(features: Sequence[str], names: Sequence[Sequence[str | None]]) -> np.ndarray:
    """Each name's index in ``features``, or ``len(features)`` for a name not
    in it, in the shape of ``names``."""
    index = {name: i for i, name in enumerate(features)}
    return np.array([[index.get(name, len(features)) for name in row] for row in names])


class _WindowTable:
    """Scored windows: ``index`` maps each (prev, own, next) id triple to its
    slot, and the slot holds the window's probability row in ``rows``, its
    entropy in ``entropies`` and its argmax label in ``labels``.

    The arrays are allocated once, with room for ``capacity`` windows, and
    filled in place; their pages become resident only as slots are written.
    A table only grows, and a window's values are stored before its key
    enters ``index``, so a reader that finds a key finds its values."""

    def __init__(self, n_labels: int, capacity: int):
        self.index: dict[tuple[int, int, int], int] = {}
        self.rows = np.empty((capacity, n_labels))
        self.entropies = np.empty(capacity)
        self.labels: list[SlotLabel] = []

    def __len__(self) -> int:
        return len(self.labels)

    def add(self, windows: Sequence[tuple[int, int, int]], scored: ParseResult) -> None:
        """Add ``windows``, which must fit; their rows, labels and entropies
        are ``scored``'s, in order."""
        size, end = len(self), len(self) + len(windows)
        self.rows[size:end] = scored.distributions
        self.entropies[size:end] = scored.token_entropies
        self.labels += scored.predicted_labels
        self.index.update(zip(windows, range(size, end)))  # published last


@dataclass(frozen=True)
class TrainingParams:
    l2: float = 1e-5
    max_iter: int = 300
    min_count: int = 1
    special_tokens: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0 <= self.l2 < math.inf:  # rejects NaN too
            raise ValueError("l2 must be finite and non-negative")
        for name in ("max_iter", "min_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1")


def _softmax_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite each row of ``scores`` with its softmax. Returns the columns of row
    maxima and of sums of ``exp(score - max)``; a row's log-normalizer is max + log(sum)."""
    top = np.maximum.reduce(scores, axis=1, keepdims=True)
    scores -= top
    np.exp(scores, out=scores)
    total = np.add.reduce(scores, axis=1, keepdims=True)
    scores /= total
    return top, total


def _distinct_rows(x: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """The distinct rows of ``x``, each the first row of its kind, and the
    distinct row of every row of ``x``. Rows are the same when their stored
    indices and data are, in stored order."""
    ptr, size, dsize = x.indptr.tolist(), x.indices.itemsize, x.data.itemsize
    indices, data = x.indices.tobytes(), x.data.tobytes()
    seen: dict[tuple[bytes, bytes], int] = {}
    first, inv = [], np.empty(x.shape[0], dtype=np.intp)
    for i, (a, b) in enumerate(zip(ptr, ptr[1:])):
        key = (indices[a * size:b * size], data[a * dsize:b * dsize])
        if key not in seen:
            seen[key] = len(first)
            first.append(i)
        inv[i] = seen[key]
    return x[np.array(first, dtype=np.intp)], inv


def _make_objective(x: sp.csr_matrix, y: np.ndarray, n_classes: int, l2: float):
    """The training loss of a softmax model over design ``x`` and targets ``y``:
    a function of the flattened weights that returns the mean cross-entropy +
    l2*||W||^2 (bias row unregularized) and its gradient.

    It scores each distinct row of ``x`` once and weights it by ``c``, its
    number of copies: the nll is (sum_u c_u lse(x_u W) - <W, X^T Y>) / n and
    its gradient (X_u^T (c * P_u) - X^T Y) / n, with Y the one-hot targets.
    The targets enter only through X^T Y, computed here once."""
    n, n_features = x.shape
    xu, inv = _distinct_rows(x)
    counts = np.bincount(inv).astype(float)
    # each distinct row's copies per target, Y_u, so that X^T Y = X_u^T Y_u
    per_target = np.bincount(inv * n_classes + y, minlength=xu.shape[0] * n_classes)
    xut = xu.T
    xty = xut @ per_target.reshape(-1, n_classes).astype(float)
    reg_mask = (np.arange(n_features) > 0)[:, None]  # feature 0, the bias, is exempt

    def objective(flat: np.ndarray):
        w = flat.reshape(n_features, n_classes)
        probs = xu @ w
        top, total = _softmax_rows(probs)  # the scores become probabilities
        nll = (counts @ (top + np.log(total))[:, 0] - (w * xty).sum()) / n
        grad = (xut @ (counts[:, None] * probs) - xty) / n + 2.0 * l2 * (reg_mask * w)
        loss = nll + l2 * float((reg_mask * w * w).sum())
        return loss, grad.ravel()

    return objective


def minimize(fun, x0, *args, **kwargs):
    """``scipy.optimize.minimize``, imported when first called, so that only
    a process that fits a model imports it. :func:`_fit_softmax` looks this
    name up on each call, so replacing the module attribute reaches every fit."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, *args, **kwargs)


def _fit_softmax(
    x: sp.csr_matrix, y: np.ndarray, n_classes: int, l2: float, max_iter: int
) -> np.ndarray:
    result = minimize(
        _make_objective(x, y, n_classes, l2), np.zeros(x.shape[1] * n_classes), jac=True,
        method="L-BFGS-B", options={"maxiter": max_iter, "ftol": 1e-12, "gtol": 1e-8},
    )
    return result.x.reshape(x.shape[1], n_classes)


_STRING_LISTS = (
    "labels", "intents", "vocab", "special_tokens", "slot_features", "intent_features"
)


def _check_entries(path: str | Path, payload: dict) -> None:
    """Raise a ValueError naming the file and the entry unless a model file
    has every entry, its string lists are lists of strings, its labels and
    intents are not empty and its ``params`` is an object of numbers.
    :func:`_weight_matrix` checks the weights."""
    for entry in (*_STRING_LISTS, "params", "slot_weights", "intent_weights"):
        if entry not in payload:
            raise ValueError(f"{path}: model file has no {entry!r} entry")
    for entry in _STRING_LISTS:
        value = payload[entry]
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"{path}: model entry {entry!r} is not a list of strings")
    for entry in ("labels", "intents"):  # a tagger needs one of each to predict
        if not payload[entry]:
            raise ValueError(f"{path}: model entry {entry!r} is empty")
    params = payload["params"]
    if not isinstance(params, dict):
        raise ValueError(f"{path}: model entry 'params' is not an object")
    for key in ("l2", "max_iter", "min_count"):
        value = params.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{path}: model entry 'params' has no numeric {key!r}")


def _weight_matrix(
    path: str | Path, payload: dict, entry: str, shape: tuple[int, int]
) -> np.ndarray:
    """A model file's weight matrix, checked to be numeric and of ``shape``
    (features x classes)."""
    try:
        matrix = np.array(payload[entry])
    except ValueError:  # rows of different lengths
        matrix = np.array(None)
    if matrix.ndim != 2 or matrix.dtype.kind not in "iuf":
        raise ValueError(f"{path}: model entry {entry!r} is not a numeric matrix")
    if matrix.shape != shape:
        raise ValueError(
            f"{path}: model entry {entry!r} has shape {matrix.shape}, expected {shape}"
        )
    return matrix.astype(float)


class LogLinearBackend(Backend):
    def __init__(
        self,
        label_set: Sequence[SlotLabel],
        intent_set: Sequence[str],
        vocab: Sequence[str],
        slot_features: Sequence[str],
        slot_weights: np.ndarray,
        intent_features: Sequence[str],
        intent_weights: np.ndarray,
        params: TrainingParams,
    ):
        self.label_set = tuple(label_set)
        self.intent_set = tuple(intent_set)
        self.vocab = frozenset(vocab)
        self.slot_features = tuple(slot_features)
        self.slot_weights = np.asarray(slot_weights, dtype=float)
        self.intent_features = tuple(intent_features)
        self.intent_weights = np.asarray(intent_weights, dtype=float)
        self.special_tokens = frozenset(params.special_tokens)
        self.params = params
        self._token_ids, templates, bags = _id_features(self.vocab, self.special_tokens)
        # a feature the model never saw has column len(slot_features): a zero row
        rows = np.vstack([self.slot_weights, np.zeros((1, self.slot_weights.shape[1]))])
        # per template, each id's weight row
        bias, cur, self._prev_rows, self._next_rows, self._special_rows = (
            rows[col] for col in _columns(self.slot_features, templates)
        )
        self._own_rows = bias + cur  # the first add in template order, once per id
        # column len(intent_features) is a bag bin that parse_many drops
        self._bag_columns = _columns(self.intent_features, [bags])[0]
        self._table = _WindowTable(len(self.label_set), WINDOW_TABLE_SIZE)
        self._lock = threading.Lock()  # taken by fills only

    # -- training ----------------------------------------------------------

    @classmethod
    def train(cls, corpus: Dataset, params: TrainingParams | None = None) -> LogLinearBackend:
        """Fit on a labeled corpus; every utterance must carry labels and intent."""
        import scipy.sparse as sp  # only fitting needs scipy; see the module docstring

        params = params or TrainingParams()
        if len(corpus.label_set) < 2:
            raise ValueError("training requires at least 2 slot labels")
        if not corpus.intent_set:
            raise ValueError("training requires at least 1 intent")
        for utt in corpus:
            if utt.gold_labels is None or utt.gold_intent is None:
                raise ValueError("training requires gold labels and intents")

        counts: dict[str, int] = {}
        for utt in corpus:
            for tok in utt.tokens:
                counts[tok] = counts.get(tok, 0) + 1
        vocab = sorted(t for t, c in counts.items() if c >= params.min_count)
        vocab_set, specials = frozenset(vocab), frozenset(params.special_tokens)

        token_ids, templates, bags = _id_features(vocab_set, specials)
        window = _batch_window((utt.tokens for utt in corpus), token_ids)

        feature_names = {templates[k][i] for k, sel in enumerate(window) for i in np.unique(sel)}
        # inference-time sentinels must exist even if unseen during training
        feature_names.update(_slot_feature_names(_UNK, _UNK, _UNK, True))
        feature_names.update(_slot_feature_names(_UNK, _BOS, _EOS, False))
        slot_features = ["bias"] + sorted(feature_names - {"bias"})

        n_rows = len(window[0])
        columns = _columns(slot_features, templates)
        col_ids = np.stack([col[sel] for col, sel in zip(columns, window)], axis=1)
        x = sp.csr_matrix(
            (
                np.ones(n_rows * _N_SLOT_FEATURES),
                col_ids.ravel(),
                np.arange(0, _N_SLOT_FEATURES * (n_rows + 1), _N_SLOT_FEATURES),
            ),
            shape=(n_rows, len(slot_features)),
        )
        label_index = {lab: i for i, lab in enumerate(corpus.label_set)}
        targets = [label_index[gold] for utt in corpus for gold in utt.gold_labels]
        slot_weights = _fit_softmax(
            x, np.array(targets), len(corpus.label_set), params.l2, params.max_iter
        )

        # intent model: bag-of-token counts, one entry per token plus the bias,
        # summed into counts when the COO matrix becomes CSR
        intent_features = ["bias"] + [_bag_feature(t) for t in vocab] + [_bag_feature(_UNK)]
        intent_targets = np.array(
            [corpus.intent_set.index(utt.gold_intent) for utt in corpus]
        )
        utts = np.arange(len(corpus))
        rows = np.concatenate([utts, np.repeat(utts, [len(utt.tokens) for utt in corpus])])
        bag_columns = _columns(intent_features, [bags])[0]
        cols = np.concatenate([np.zeros_like(utts), bag_columns[window[1]]])
        xi = sp.coo_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(len(corpus), len(intent_features))
        ).tocsr()
        intent_weights = _fit_softmax(
            xi, intent_targets, len(corpus.intent_set), params.l2, params.max_iter
        )

        return cls(
            label_set=corpus.label_set,
            intent_set=corpus.intent_set,
            vocab=vocab,
            slot_features=slot_features,
            slot_weights=slot_weights,
            intent_features=intent_features,
            intent_weights=intent_weights,
            params=params,
        )

    # -- inference -----------------------------------------------------------

    def _slot_scores(self, prev: np.ndarray, own: np.ndarray, nxt: np.ndarray) -> np.ndarray:
        """The slot scores of windows given as id columns: each window's five
        template rows, added in template order, as in training."""
        return (
            self._own_rows[own] + self._prev_rows[prev] + self._next_rows[nxt]
            + self._special_rows[own]
        )

    def _score_windows(self, windows: Sequence[tuple[int, int, int]]) -> ParseResult:
        """The probability rows of windows, with their labels and entropies
        derived as one :class:`ParseResult`. Windows have no intent, so its
        intent distribution is empty."""
        prev, own, nxt = np.array(windows).T
        dists = self._slot_scores(prev, own, nxt)
        _softmax_rows(dists)  # the scores become probabilities
        return ParseResult.from_distributions(
            self.label_set, self.intent_set, dists, np.empty(0)
        )

    def _table_with(self, windows: list[tuple[int, int, int]]) -> _WindowTable:
        """A table that holds every one of ``windows``: the backend's, once the
        windows it lacks are scored into it. If they do not fit, the backend
        starts a new table with this call's windows, unless they alone exceed
        :data:`WINDOW_TABLE_SIZE`: then they go into a table of their own,
        which the backend does not keep."""
        with self._lock:
            table = self._table
            new = [w for w in dict.fromkeys(windows) if w not in table.index]
            if not new:  # another call scored them since this one looked
                return table
            if len(table) + len(new) > len(table.rows):
                new = list(dict.fromkeys(windows))
                table = _WindowTable(len(self.label_set), max(len(new), WINDOW_TABLE_SIZE))
                if len(new) <= WINDOW_TABLE_SIZE:
                    self._table = table  # its index is empty until add publishes
            table.add(new, self._score_windows(new))
            return table

    def _intent_distributions(self, ids: Sequence[Sequence[int]]) -> np.ndarray:
        """The intent distribution of each id sequence, one read-only row each."""
        n_bag = len(self.intent_features)
        scores = []
        for seq in ids:
            bag = np.bincount(self._bag_columns[seq], minlength=n_bag + 1)[:n_bag].astype(float)
            bag[0] += 1.0
            # one product per sequence: one over all of them changes the last bit of some
            scores.append(bag @ self.intent_weights)
        dists = np.array(scores)
        _softmax_rows(dists)
        dists.setflags(write=False)
        return dists

    def parse(self, tokens: Sequence[str]) -> ParseResult:
        return self.parse_many([tokens])[0]

    def parse_many(self, sequences: Sequence[Sequence[str]]) -> list[ParseResult]:
        """Parse the sequences as one batch. Each position's row, label and
        entropy are gathered from the window table, after the windows it
        lacks are scored into it, so each sequence's results have the bits
        they have in a batch of its own. The batch's intents are computed
        together, when the first of them is read."""
        if not sequences:
            return []
        if not all(sequences):
            raise ValueError("cannot parse an empty token sequence")
        get, other, boundary = self._token_ids.get, len(self._token_ids), len(self._token_ids) + 1
        ids = [[get(tok, other) for tok in tokens] for tokens in sequences]
        windows = []
        for seq in ids:
            own, _, prev, nxt, _ = _window([boundary, *seq, boundary])
            windows += zip(prev, own, nxt)
        table = self._table  # read once: fills only add to it; a reset replaces it
        slots = list(map(table.index.get, windows))
        if None in slots:
            table = self._table_with(windows)
            slots = list(map(table.index.__getitem__, windows))
        rows = np.array(slots)
        dists, entropies = table.rows.take(rows, axis=0), table.entropies.take(rows)
        labels = list(map(table.labels.__getitem__, slots))

        intents = None

        def intent(i: int) -> np.ndarray:  # the batch's intents are computed on first read
            nonlocal intents
            if intents is None:  # two threads may both compute them: the same bits
                intents = self._intent_distributions(ids)
            return intents[i]

        results, start = [], 0
        for i, seq in enumerate(ids):
            end = start + len(seq)
            results.append(ParseResult(
                self.label_set, self.intent_set, dists[start:end], tuple(labels[start:end]),
                entropies[start:end], partial(intent, i),
            ))
            start = end
        return results

    # -- serialization --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the model as a versioned JSON file; round-trips bit-exactly."""
        payload = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "labels": [str(lab) for lab in self.label_set],
            "intents": list(self.intent_set),
            "vocab": sorted(self.vocab),
            "slot_features": list(self.slot_features),
            "slot_weights": self.slot_weights.tolist(),
            "intent_features": list(self.intent_features),
            "intent_weights": self.intent_weights.tolist(),
            "special_tokens": sorted(self.special_tokens),
            "params": {
                "l2": self.params.l2,
                "max_iter": self.params.max_iter,
                "min_count": self.params.min_count,
            },
        }
        Path(path).write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":")), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> LogLinearBackend:
        with open_text(path) as f:
            text = f.read()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a valid model file: {exc.msg}") from exc
        if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
            raise ValueError(f"{path}: not a {FORMAT_NAME} model file")
        if payload.get("version") != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported model version {payload.get('version')}")
        _check_entries(path, payload)
        try:
            params = TrainingParams(
                l2=payload["params"]["l2"],
                max_iter=payload["params"]["max_iter"],
                min_count=payload["params"]["min_count"],
                special_tokens=tuple(sorted(payload["special_tokens"])),
            )
        except ValueError as exc:
            raise ValueError(f"{path}: model entry 'params': {exc}") from None
        try:
            labels = tuple(SlotLabel.parse(s) for s in payload["labels"])
        except ValueError as exc:
            raise ValueError(f"{path}: model entry 'labels': {exc}") from None
        intents = tuple(payload["intents"])
        slot_features = payload["slot_features"]
        intent_features = payload["intent_features"]
        return cls(
            label_set=labels,
            intent_set=intents,
            vocab=payload["vocab"],
            slot_features=slot_features,
            slot_weights=_weight_matrix(
                path, payload, "slot_weights", (len(slot_features), len(labels))
            ),
            intent_features=intent_features,
            intent_weights=_weight_matrix(
                path, payload, "intent_weights", (len(intent_features), len(intents))
            ),
            params=params,
        )
