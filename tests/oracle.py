"""Independent reference implementation of the candidate search.

Everything here is written from scratch against the documented behavior —
no imports from iterdelex.engine or iterdelex.seed — so the acceptance
suite can compare the production engine against a second, structurally
different implementation. Candidates are plain tuples; the frontier is
never truncated (the caller must configure the real engine with a large
enough beam for the comparison to be meaningful).

Alignment entries: ("nat",) for an original token, ("ph", start, end, slot)
for a placeholder covering original span [start, end).

``reference_parse`` is the log-linear tagger's parse computed from named
features, one position at a time, as the backend did before it parsed
through id tables; the backend must match it bit for bit.

``reference_design`` builds the tagger's training designs from named
features, one position at a time, as training did before it went through
id tables; training must hand its fits the same arrays, bit for bit.

``reference_objective`` is the tagger's training objective as it was
computed with scipy's ``logsumexp``, a second ``exp`` and a dense one-hot
target matrix; the backend's objective must match it to rounding.

``reference_row_objective`` is the training objective in row layout, as
training computed it before it went through the design's distinct rows:
every row of the design scored and normalized on its own. The backend's
objective, which weights each distinct row by its copies, must match it to
1e-12 of max(1, |value|), and a fit must pick the same classes as a fit of
this objective.

``is_valid_bio`` says whether a label sequence is well formed: every
Inside label follows a Begin or Inside label of the same slot type.

``random_world`` draws the small scripted worlds the search is compared in:
``random_model`` a label inventory and scripted backend, ``random_utterance``
a gazetteer, an utterance and engine settings for that model's slot types.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.special import logsumexp

from iterdelex.backend import ParseResult, ScriptedBackend, one_hot, peaked, uniform
from iterdelex.corpus import INSIDE, SlotLabel
from iterdelex.gazetteer import Gazetteer, build_token_table

Entry = tuple
Align = tuple[Entry, ...]
Cand = tuple[tuple[str, ...], Align]


def is_valid_bio(labels) -> bool:
    """True when every Inside follows a Begin/Inside of the same slot type."""
    prev = None
    for lab in labels:
        if lab.kind == INSIDE:
            if prev is None or prev.is_outside or prev.slot_type != lab.slot_type:
                return False
        prev = lab
    return True


# ---------------------------------------------------------------------------
# random scripted worlds

WORLD_VOCAB = tuple(f"w{i}" for i in range(10))


def random_model(rng):
    """Random slot types among a, b and c, and a scripted backend over their
    BIO labels: each of ``WORLD_VOCAB`` gets a uniform, one-hot or peaked
    row, and each placeholder a row peaked on its begin label."""
    slots = sorted(rng.sample(["a", "b", "c"], rng.randint(1, 3)))
    label_names = ["O"]
    for s in slots:
        label_names += [f"B-{s}", f"I-{s}"]
    label_set = tuple(SlotLabel.parse(name) for name in label_names)

    script = {}
    for word in WORLD_VOCAB:
        kind = rng.random()
        if kind < 0.25:
            script[word] = uniform()
        elif kind < 0.5:
            script[word] = one_hot(rng.choice(label_names))
        else:
            script[word] = peaked(rng.choice(label_names), rng.uniform(0.3, 0.99))
    for s in slots:
        script[f"<{s}>"] = peaked(f"B-{s}", rng.uniform(0.9, 1.0))
    return slots, ScriptedBackend(label_set, ("only",), script, uniform(), "only")


def random_utterance(rng, slots, max_tokens, max_phrases):
    """A random gazetteer of one- and two-word phrases over ``slots``, its
    token table, an utterance of ``WORLD_VOCAB`` words, the out-of-domain
    slot types and tau."""
    phrases = {}
    for _ in range(rng.randint(0, max_phrases)):
        length = rng.randint(1, 2)
        phrase = tuple(rng.sample(WORLD_VOCAB, length))
        if phrase not in phrases:
            phrases[phrase] = rng.choice(slots)
    slot_phrases = {}
    for phrase, slot in phrases.items():
        slot_phrases.setdefault(slot, set()).add(phrase)
    gazetteer = Gazetteer(
        slot_phrases={s: frozenset(p) for s, p in slot_phrases.items()},
        context_phrases=frozenset(),
        ambiguous_phrases=frozenset(),
    )
    table = build_token_table(slots)
    ood = tuple(sorted(rng.sample(slots, rng.randint(0, len(slots)))))
    tokens = tuple(rng.choice(WORLD_VOCAB) for _ in range(rng.randint(1, max_tokens)))
    tau = rng.choice([1e-5, 0.05, 0.3, 0.7])
    return tokens, gazetteer, table, phrases, ood, tau


def random_world(rng, max_tokens, max_phrases):
    """A random model and one utterance for it: ``(tokens, backend,
    gazetteer, table, slots, phrases, ood, tau)``."""
    slots, backend = random_model(rng)
    tokens, gazetteer, table, phrases, ood, tau = random_utterance(
        rng, slots, max_tokens, max_phrases
    )
    return tokens, backend, gazetteer, table, slots, phrases, ood, tau


# ---------------------------------------------------------------------------
# the reference search


def ref_score(parse, floor: float = 1e-12) -> float:
    total = 0.0
    for e in parse.token_entropies:
        total += float(e)
    return len(parse.token_entropies) / max(total, floor)


def _match_phrases(tokens, phrase_to_slot, max_len) -> list[tuple[int, int, str]]:
    taken = set()
    found = []
    for length in range(max_len, 0, -1):
        start = 0
        while start + length <= len(tokens):
            window = tuple(tokens[start:start + length])
            positions = set(range(start, start + length))
            if window in phrase_to_slot and not (positions & taken):
                found.append((start, start + length, phrase_to_slot[window]))
                taken |= positions
            start += 1
    return sorted(found)


def _apply_subset(tokens, subset, surface_of) -> Cand:
    new_tokens: list[str] = []
    align: list[Entry] = []
    pos = 0
    for (s, e, slot) in subset:
        while pos < s:
            new_tokens.append(tokens[pos])
            align.append(("nat",))
            pos += 1
        new_tokens.append(surface_of[slot])
        align.append(("ph", s, e, slot))
        pos = e
    while pos < len(tokens):
        new_tokens.append(tokens[pos])
        align.append(("nat",))
        pos += 1
    return tuple(new_tokens), tuple(align)


def _seed_set(tokens, phrase_to_slot, max_len, surface_of) -> list[Cand]:
    matches = _match_phrases(tokens, phrase_to_slot, max_len)
    seeds = [_apply_subset(tokens, (), surface_of)]
    for size in range(len(matches), 0, -1):
        for chosen in combinations(matches, size):
            seeds.append(_apply_subset(tokens, chosen, surface_of))
    return seeds


def _extent(cand: Cand, i: int, source_pos: list[int]) -> tuple[int, int]:
    return source_pos[i], source_pos[i + 1]


def _source_positions(cand: Cand) -> list[int]:
    """Prefix map: source offset at each candidate position (plus end)."""
    offsets = [0]
    for entry in cand[1]:
        offsets.append(offsets[-1] + (1 if entry[0] == "nat" else entry[2] - entry[1]))
    return offsets


def _children(cand: Cand, parse, specials, surface_of, ood, tau) -> list[Cand]:
    tokens, align = cand
    labels = [str(lab) for lab in parse.predicted_labels]
    ent = [float(e) for e in parse.token_entropies]
    offsets = _source_positions(cand)
    kids: list[Cand] = []

    def collapse(a: int, b: int, slot: str, surface: str) -> Cand:
        span = ("ph", offsets[a], offsets[b], slot)
        return (
            tokens[:a] + (surface,) + tokens[b:],
            align[:a] + (span,) + align[b:],
        )

    # begin-led and orphan inside-led runs
    i = 0
    while i < len(labels):
        if labels[i] == "O":
            i += 1
            continue
        kind, slot = labels[i].split("-", 1)
        j = i + 1
        while j < len(labels) and labels[j] == f"I-{slot}":
            j += 1
        if slot in ood and not any(tok in specials for tok in tokens[i:j]):
            kids.append(collapse(i, j, slot, surface_of[slot]))
        i = j

    # widen placeholders over uncertain neighbors
    for t, tok in enumerate(tokens):
        if tok not in specials:
            continue
        entry = align[t]
        slot = entry[3] if entry[0] == "ph" else specials[tok]
        if slot not in ood:
            continue
        a = t
        while a - 1 >= 0 and tokens[a - 1] not in specials and ent[a - 1] > tau:
            a -= 1
        b = t
        while b + 1 < len(tokens) and tokens[b + 1] not in specials and ent[b + 1] > tau:
            b += 1
        if (a, b) != (t, t):
            kids.append(collapse(a, b + 1, slot, tok))

    unique: list[Cand] = []
    seen: set[Cand] = set()
    for kid in kids:
        if kid not in seen:
            seen.add(kid)
            unique.append(kid)
    return unique


def brute_force_parse(tokens, backend, phrase_to_slot, surface_of, specials,
                      ood, tau, floor: float = 1e-12, top_k=None, seed_cap=None):
    """Exhaustive gated search. Returns (best_tokens, best_score, iterations,
    evaluated_count).

    ``top_k`` keeps only the best candidates of each round for the next,
    earlier ones first among equal scores, and ``seed_cap`` only the first
    seeds; left at None, neither bounds the search."""
    max_len = max((len(p) for p in phrase_to_slot), default=0)
    seen: set[Cand] = set()
    parses: dict[tuple[str, ...], object] = {}

    def parse_of(cand: Cand):
        if cand[0] not in parses:
            parses[cand[0]] = backend.parse(cand[0])
        return parses[cand[0]]

    def naturals(cand: Cand) -> int:
        return sum(1 for e in cand[1] if e[0] == "nat")

    best_cand: Cand | None = None
    best_score = float("-inf")

    def offer(cand: Cand, value: float) -> None:
        nonlocal best_cand, best_score
        if best_cand is None or value > best_score or (
            value == best_score and cand < best_cand
        ):
            best_cand, best_score = cand, value

    def beam(cands: list[Cand]) -> list[Cand]:
        return sorted(cands, key=lambda c: -ref_score(parse_of(c), floor))[:top_k]

    frontier: list[Cand] = []
    evaluated = 0
    for cand in _seed_set(tuple(tokens), phrase_to_slot, max_len, surface_of)[:seed_cap]:
        if cand in seen:
            continue
        seen.add(cand)
        value = ref_score(parse_of(cand), floor)
        evaluated += 1
        offer(cand, value)
        frontier.append(cand)
    frontier = beam(frontier)

    iterations = 0
    while any(naturals(c) > 0 for c in frontier):
        iterations += 1
        previous = best_score
        fresh: list[Cand] = []
        for cand in frontier:
            for kid in _children(cand, parse_of(cand), specials, surface_of, ood, tau):
                if kid in seen:
                    continue
                seen.add(kid)
                value = ref_score(parse_of(kid), floor)
                evaluated += 1
                offer(kid, value)
                fresh.append(kid)
        if not fresh:
            break
        if max(ref_score(parse_of(c), floor) for c in fresh) <= previous:
            break
        frontier = beam(fresh)

    assert best_cand is not None
    return best_cand[0], best_score, iterations, evaluated


def _softmax(scores):
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _row_entropy(row) -> float:
    nz = row[row > 0.0]
    return float(-(nz * np.log(nz)).sum())


def reference_parse(backend, tokens) -> ParseResult:
    """A ``LogLinearBackend`` parse from its named features: each position's
    features are looked up by name, unknown names are skipped, and the
    remaining weight rows are summed."""
    vocab, n = backend.vocab, len(tokens)
    index = {name: i for i, name in enumerate(backend.slot_features)}

    def norm(tok):
        return tok if tok in vocab else "<unk>"

    scores = np.zeros((n, len(backend.label_set)))
    for t in range(n):
        names = [
            "bias",
            f"cur={norm(tokens[t])}",
            f"prev={norm(tokens[t - 1]) if t > 0 else '<s>'}",
            f"next={norm(tokens[t + 1]) if t + 1 < n else '</s>'}",
            f"special={'yes' if tokens[t] in backend.special_tokens else 'no'}",
        ]
        ids = [index[name] for name in names if name in index]
        scores[t] = backend.slot_weights[ids].sum(axis=0)
    dists = _softmax(scores)

    intent_index = {name: i for i, name in enumerate(backend.intent_features)}
    bag = np.zeros(len(backend.intent_features))
    bag[0] = 1.0
    for tok in tokens:
        fid = intent_index.get(f"tok={norm(tok)}")
        if fid is not None:
            bag[fid] += 1.0
    intent_dist = _softmax((bag @ backend.intent_weights)[None, :])[0]
    return ParseResult(
        label_set=backend.label_set,
        intent_set=backend.intent_set,
        distributions=dists,
        predicted_labels=tuple(backend.label_set[int(i)] for i in dists.argmax(axis=1)),
        intent_distribution=intent_dist,
        predicted_intent=backend.intent_set[int(intent_dist.argmax())],
        token_entropies=np.array([_row_entropy(row) for row in dists]),
    )


def reference_design(corpus, special_tokens, min_count):
    """The slot and intent training designs of a ``LogLinearBackend`` from
    named features. Returns ``(slot_features, x, y, xi, yi)``: the sorted
    slot feature names, the slot design (five features per position, in
    template order) and targets, and the intent design (bias plus token
    counts per utterance) and targets."""
    counts = {}
    for utt in corpus:
        for tok in utt.tokens:
            counts[tok] = counts.get(tok, 0) + 1
    vocab = sorted(t for t, c in counts.items() if c >= min_count)

    def norm(tok):
        return tok if tok in counts and counts[tok] >= min_count else "<unk>"

    label_index = {lab: i for i, lab in enumerate(corpus.label_set)}
    rows, targets = [], []
    for utt in corpus:
        toks, n = utt.tokens, len(utt.tokens)
        for t, gold in enumerate(utt.gold_labels):
            rows.append([
                "bias",
                f"cur={norm(toks[t])}",
                f"prev={norm(toks[t - 1]) if t > 0 else '<s>'}",
                f"next={norm(toks[t + 1]) if t + 1 < n else '</s>'}",
                f"special={'yes' if toks[t] in special_tokens else 'no'}",
            ])
            targets.append(label_index[gold])
    names = {name for row in rows for name in row}
    # the features of an unknown placeholder and of the boundary
    names |= {"cur=<unk>", "prev=<unk>", "next=<unk>", "special=yes"}
    names |= {"prev=<s>", "next=</s>", "special=no"}
    slot_features = ["bias"] + sorted(names - {"bias"})
    index = {name: i for i, name in enumerate(slot_features)}
    col_ids = np.array([[index[name] for name in row] for row in rows])
    x = sp.csr_matrix(
        (np.ones(5 * len(rows)), col_ids.ravel(), np.arange(0, 5 * (len(rows) + 1), 5)),
        shape=(len(rows), len(slot_features)),
    )

    intent_index = {f"tok={tok}": i for i, tok in enumerate([*vocab, "<unk>"], start=1)}
    data, indices, indptr = [], [], [0]
    for utt in corpus:
        bag = {0: 1.0}
        for tok in utt.tokens:
            fid = intent_index[f"tok={norm(tok)}"]
            bag[fid] = bag.get(fid, 0.0) + 1.0
        for fid in sorted(bag):
            indices.append(fid)
            data.append(bag[fid])
        indptr.append(len(indices))
    xi = sp.csr_matrix(
        (np.array(data), np.array(indices), np.array(indptr)),
        shape=(len(corpus), len(intent_index) + 1),
    )
    yi = np.array([corpus.intent_set.index(utt.gold_intent) for utt in corpus])
    return slot_features, x, np.array(targets), xi, yi


def reference_objective(flat, x, y, l2):
    """Mean cross-entropy + l2*||W||^2 (bias row unregularized) of a softmax
    model over the sparse design ``x`` and targets ``y`` at the flattened
    weights ``flat``, and its gradient."""
    n, n_features = x.shape
    w = flat.reshape(n_features, -1)
    onehot = np.zeros((n, w.shape[1]))
    onehot[np.arange(n), y] = 1.0
    reg_mask = np.ones((n_features, 1))
    reg_mask[0, 0] = 0.0
    scores = x @ w
    log_z = logsumexp(scores, axis=1)
    nll = (log_z - scores[np.arange(n), y]).mean()
    probs = np.exp(scores - log_z[:, None])
    grad = (x.T @ (probs - onehot)) / n + 2.0 * l2 * (reg_mask * w)
    loss = nll + l2 * float((reg_mask * w * w).sum())
    return loss, grad.ravel()


def reference_row_objective(flat, x, y, l2):
    """Mean cross-entropy + l2*||W||^2 (bias row unregularized) of a softmax
    model over the sparse design ``x`` and targets ``y`` at the flattened
    weights ``flat``, and its gradient, with one softmax per row of ``x``."""
    n, n_features = x.shape
    w = flat.reshape(n_features, -1)
    probs = x @ w
    rows = np.arange(n)
    target = probs[rows, y]
    top = np.maximum.reduce(probs, axis=1, keepdims=True)
    probs -= top
    np.exp(probs, out=probs)
    total = np.add.reduce(probs, axis=1, keepdims=True)
    probs /= total
    nll = (top[:, 0] + np.log(total[:, 0]) - target).mean()
    probs[rows, y] -= 1.0
    reg_mask = (np.arange(n_features) > 0)[:, None]
    grad = (x.T @ probs) / n + 2.0 * l2 * (reg_mask * w)
    loss = nll + l2 * float((reg_mask * w * w).sum())
    return loss, grad.ravel()
