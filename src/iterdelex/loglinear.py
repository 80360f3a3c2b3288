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
special), named by :func:`_slot_feature_names`. Training builds the named
features; inference never does. Instead the backend turns the features
into id tables once, when it is built: every known token (the vocabulary
and the placeholders) gets a token id, plus one id for any other token and
one for the boundary beyond either end of the sequence. Per token id, the
tables hold the weight row of each template, and the intent bag column.
A feature the model never saw points at a zero row appended to the slot
weights. A parse then looks each token up once, gathers five weight rows
per position, adds them in template order and runs one softmax, which
gives the same bits as summing the named features' rows.

This deliberately stays small and dependency-free, and it exhibits the
property the rewrite engine relies on: tokens seen in context during
training get confident (low-entropy) label distributions, while
out-of-vocabulary tokens do not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import AbstractSet, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from iterdelex.backend import Backend, ParseResult
from iterdelex.corpus import Dataset, SlotLabel

FORMAT_NAME = "iterdelex-loglinear"
FORMAT_VERSION = 1

_BOS = "<s>"
_EOS = "</s>"
_UNK = "<unk>"

_N_SLOT_FEATURES = 5  # bias, cur, prev, next, special-flag


def _slot_feature_names(cur: str, prev: str, nxt: str, special: bool) -> list[str]:
    """The slot feature template: one position's five features, in the order
    their weight rows are summed. Token arguments are already normalized."""
    flag = "yes" if special else "no"
    return ["bias", f"cur={cur}", f"prev={prev}", f"next={nxt}", f"special={flag}"]


def _bag_feature(token: str) -> str:
    """The intent feature of one normalized token."""
    return f"tok={token}"


def _norm(token: str, vocab: AbstractSet[str]) -> str:
    return token if token in vocab else _UNK


def _position_features(
    tokens: Sequence[str], t: int, vocab: AbstractSet[str], special_tokens: AbstractSet[str]
) -> list[str]:
    """The slot features of position ``t``, named."""
    cur = _norm(tokens[t], vocab)
    prev = _norm(tokens[t - 1], vocab) if t > 0 else _BOS
    nxt = _norm(tokens[t + 1], vocab) if t + 1 < len(tokens) else _EOS
    return _slot_feature_names(cur, prev, nxt, tokens[t] in special_tokens)


@dataclass(frozen=True)
class TrainingParams:
    l2: float = 1e-5
    max_iter: int = 300
    min_count: int = 1
    special_tokens: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.min_count < 1:
            raise ValueError("min_count must be at least 1")


def _softmax_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overwrite each row of ``scores`` with its softmax. Returns the columns of row
    maxima and of sums of ``exp(score - max)``; a row's log-normalizer is max + log(sum)."""
    top = np.maximum.reduce(scores, axis=1, keepdims=True)
    scores -= top
    np.exp(scores, out=scores)
    total = np.add.reduce(scores, axis=1, keepdims=True)
    scores /= total
    return top, total


def _objective(flat: np.ndarray, x: sp.csr_matrix, y: np.ndarray, l2: float):
    """Mean cross-entropy + l2*||W||^2 (bias row unregularized) of a softmax model
    over design ``x`` and targets ``y`` at the flattened weights, and its gradient."""
    n, n_features = x.shape
    w = flat.reshape(n_features, -1)
    probs = x @ w
    rows = np.arange(n)
    target = probs[rows, y]
    top, total = _softmax_rows(probs)  # the scores become probabilities
    nll = (top[:, 0] + np.log(total[:, 0]) - target).mean()
    probs[rows, y] -= 1.0  # now the nll's gradient in the scores, times n
    reg_mask = (np.arange(n_features) > 0)[:, None]  # feature 0, the bias, is exempt
    grad = (x.T @ probs) / n + 2.0 * l2 * (reg_mask * w)
    loss = nll + l2 * float((reg_mask * w * w).sum())
    return loss, grad.ravel()


def _fit_softmax(
    x: sp.csr_matrix, y: np.ndarray, n_classes: int, l2: float, max_iter: int
) -> np.ndarray:
    result = minimize(
        _objective, np.zeros(x.shape[1] * n_classes), args=(x, y, l2), jac=True,
        method="L-BFGS-B", options={"maxiter": max_iter, "ftol": 1e-12, "gtol": 1e-8},
    )
    return result.x.reshape(x.shape[1], n_classes)


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
        special_tokens: Sequence[str],
        params: TrainingParams,
    ):
        self.label_set = tuple(label_set)
        self.intent_set = tuple(intent_set)
        self.vocab = frozenset(vocab)
        self.slot_features = tuple(slot_features)
        self.slot_weights = np.asarray(slot_weights, dtype=float)
        self.intent_features = tuple(intent_features)
        self.intent_weights = np.asarray(intent_weights, dtype=float)
        self.special_tokens = frozenset(special_tokens)
        self.params = params
        self._build_id_tables()

    # -- id tables -----------------------------------------------------------

    def _build_id_tables(self) -> None:
        slot_index = {name: i for i, name in enumerate(self.slot_features)}
        absent = len(self.slot_features)  # the zero row appended below
        self._slot_rows = np.vstack(
            [self.slot_weights, np.zeros((1, self.slot_weights.shape[1]))]
        )
        self.slot_weights = self._slot_rows[:-1]  # a view: the saved weights
        intent_index = {name: i for i, name in enumerate(self.intent_features)}
        no_column = len(self.intent_features)  # a bag bin that parse drops

        known = sorted(self.vocab | self.special_tokens)
        self._token_ids = {tok: i for i, tok in enumerate(known)}
        self._other_id = len(known)
        self._boundary_id = len(known) + 1
        # a token's row in each template is the one it has when it is also
        # its own previous and next token
        names = []
        for tok in known:
            norm = _norm(tok, self.vocab)
            names.append(_slot_feature_names(norm, norm, norm, tok in self.special_tokens))
        names.append(_slot_feature_names(_UNK, _UNK, _UNK, False))  # other
        names.append(_slot_feature_names(_UNK, _BOS, _EOS, False))  # boundary
        rows = np.array([[slot_index.get(n, absent) for n in row] for row in names])
        bias, self._cur_rows, self._prev_rows, self._next_rows, self._special_rows = rows.T.copy()
        self._bias_row = int(bias[0])
        self._bag_columns = np.array(
            [intent_index.get(_bag_feature(_norm(tok, self.vocab)), no_column) for tok in known]
            + [intent_index.get(_bag_feature(_UNK), no_column), no_column]
        )

    # -- training ----------------------------------------------------------

    @classmethod
    def train(cls, corpus: Dataset, params: TrainingParams | None = None) -> LogLinearBackend:
        """Fit on a labeled corpus; every utterance must carry labels and intent."""
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

        label_index = {lab: i for i, lab in enumerate(corpus.label_set)}
        rows: list[list[str]] = []
        targets: list[int] = []
        for utt in corpus:
            assert utt.gold_labels is not None
            for t, gold in enumerate(utt.gold_labels):
                rows.append(_position_features(utt.tokens, t, vocab_set, specials))
                targets.append(label_index[gold])

        feature_names = {name for row in rows for name in row}
        # inference-time sentinels must exist even if unseen during training
        feature_names.update(_slot_feature_names(_UNK, _UNK, _UNK, True))
        feature_names.update(_slot_feature_names(_UNK, _BOS, _EOS, False))
        slot_features = ["bias"] + sorted(feature_names - {"bias"})
        slot_index = {name: i for i, name in enumerate(slot_features)}

        n_rows = len(rows)
        col_ids = np.array([[slot_index[n] for n in row] for row in rows])
        x = sp.csr_matrix(
            (
                np.ones(n_rows * _N_SLOT_FEATURES),
                col_ids.ravel(),
                np.arange(0, _N_SLOT_FEATURES * (n_rows + 1), _N_SLOT_FEATURES),
            ),
            shape=(n_rows, len(slot_features)),
        )
        slot_weights = _fit_softmax(
            x, np.array(targets), len(corpus.label_set), params.l2, params.max_iter
        )

        # intent model: bag-of-token counts
        intent_features = ["bias"] + [_bag_feature(t) for t in vocab] + [_bag_feature(_UNK)]
        intent_index = {name: i for i, name in enumerate(intent_features)}
        intent_targets = np.array(
            [corpus.intent_set.index(utt.gold_intent) for utt in corpus]
        )
        data, indices, indptr = [], [], [0]
        for utt in corpus:
            bag: dict[int, float] = {0: 1.0}
            for tok in utt.tokens:
                fid = intent_index.get(_bag_feature(_norm(tok, vocab_set)))
                if fid is not None:
                    bag[fid] = bag.get(fid, 0.0) + 1.0
            for fid in sorted(bag):
                indices.append(fid)
                data.append(bag[fid])
            indptr.append(len(indices))
        xi = sp.csr_matrix(
            (np.array(data), np.array(indices), np.array(indptr)),
            shape=(len(corpus), len(intent_features)),
        )
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
            special_tokens=params.special_tokens,
            params=params,
        )

    # -- inference -----------------------------------------------------------

    def parse(self, tokens: Sequence[str]) -> ParseResult:
        if not tokens:
            raise ValueError("cannot parse an empty token sequence")
        token_ids, other = self._token_ids, self._other_id
        ids = np.array(
            [self._boundary_id, *[token_ids.get(tok, other) for tok in tokens], self._boundary_id]
        )
        own = ids[1:-1]
        w = self._slot_rows
        # the order of the additions is the template order, as in training
        dists = (
            w[self._bias_row]
            + w[self._cur_rows[own]]
            + w[self._prev_rows[ids[:-2]]]
            + w[self._next_rows[ids[2:]]]
            + w[self._special_rows[own]]
        )
        _softmax_rows(dists)  # the scores become probabilities

        n_bag = len(self.intent_features)
        bag = np.bincount(self._bag_columns[own], minlength=n_bag + 1)[:n_bag].astype(float)
        bag[0] += 1.0
        intent_dist = bag @ self.intent_weights
        _softmax_rows(intent_dist[None, :])
        return ParseResult.from_distributions(
            self.label_set, self.intent_set, dists, intent_dist
        )

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
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a valid model file: {exc.msg}") from exc
        if not isinstance(payload, dict) or payload.get("format") != FORMAT_NAME:
            raise ValueError(f"{path}: not a {FORMAT_NAME} model file")
        if payload.get("version") != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported model version {payload.get('version')}")
        try:
            params = TrainingParams(
                l2=payload["params"]["l2"],
                max_iter=payload["params"]["max_iter"],
                min_count=payload["params"]["min_count"],
                special_tokens=tuple(sorted(payload["special_tokens"])),
            )
            labels = tuple(SlotLabel.parse(s) for s in payload["labels"])
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
                special_tokens=payload["special_tokens"],
                params=params,
            )
        except KeyError as exc:
            raise ValueError(f"{path}: model file has no {exc.args[0]!r} entry") from None
